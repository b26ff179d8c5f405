#include "check/model_check.h"

#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "data/workloads.h"
#include "hw/device.h"
#include "hw/link.h"
#include "hw/memory_spec.h"
#include "hw/topology.h"
#include "join/cost_model.h"
#include "sim/access_path.h"
#include "transfer/method.h"

namespace pump::check {
namespace {

/// Slack allowed on invariants that should hold exactly but involve
/// floating-point arithmetic.
constexpr double kEpsilonSlack = 1.0 + 1e-9;

/// Slack on Little's-law bounds: the spec tables round latencies to whole
/// nanoseconds, so a 1% margin avoids false positives without hiding a
/// genuinely over-promised rate.
constexpr double kLittleSlack = 1.01;

void Violate(ProfileReport* report, std::string check, std::string subject,
             std::string message) {
  report->violations.push_back(
      Violation{std::move(check), std::move(subject), std::move(message)});
}

std::string DeviceLabel(const hw::Topology& topo, hw::DeviceId id) {
  std::ostringstream os;
  os << topo.device(id).name << " (id " << id << ")";
  return os.str();
}

bool Within(double actual, double reference, double tolerance) {
  return std::abs(actual - reference) <= tolerance * reference;
}

std::string OffBy(double actual, double reference, const char* unit) {
  std::ostringstream os;
  os << "expected ~" << reference << " " << unit << " (paper figure), got "
     << actual << " " << unit;
  return os.str();
}

/// Paper-published per-link calibration targets (Figs. 2 and 3a).
struct LinkReference {
  double seq_gib = 0.0;        ///< Measured sequential bandwidth, GiB/s.
  double electrical_gb = 0.0;  ///< Electrical per-direction rate, GB/s.
  double hop_ns = 0.0;         ///< Added hop latency, ns.
};

bool LinkReferenceFor(hw::LinkFamily family, LinkReference* ref) {
  switch (family) {
    case hw::LinkFamily::kNvlink2:
      *ref = {63.0, 75.0, 366.0};
      return true;
    case hw::LinkFamily::kPcie3:
      *ref = {12.0, 16.0, 720.0};
      return true;
    case hw::LinkFamily::kUpi:
      *ref = {31.0, 41.6, 51.0};
      return true;
    case hw::LinkFamily::kXbus:
      *ref = {32.0, 64.0, 143.0};
      return true;
    case hw::LinkFamily::kNvswitch:
    case hw::LinkFamily::kNvlinkSli:
    case hw::LinkFamily::kPcie3P2p:
      // Mesh families come from "Evaluating Modern GPU Interconnect"
      // (Li et al.), not this paper's Figs. 1-3; calibration is skipped.
      return false;
  }
  return false;
}

/// Paper-published per-memory-node calibration targets (Figs. 1, 3b/3c),
/// matched by substring of the spec name.
struct MemoryReference {
  const char* name_contains;
  double seq_gib;
  double latency_ns;
};

constexpr MemoryReference kMemoryReferences[] = {
    {"POWER9", 117.0, 68.0},
    {"Xeon", 81.0, 70.0},
    {"HBM2", 729.0, 282.0},
};

/// End-to-end single-hop GPU->CPU figures of Fig. 3a: total latency and
/// sequential bandwidth as the GPU sees CPU memory over the interconnect.
struct PathReference {
  double latency_ns;
  double seq_gib;
};

bool PathReferenceFor(hw::LinkFamily family, PathReference* ref) {
  switch (family) {
    case hw::LinkFamily::kNvlink2:
      *ref = {434.0, 63.0};
      return true;
    case hw::LinkFamily::kPcie3:
      *ref = {790.0, 12.0};
      return true;
    default:
      return false;
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

void CheckConnectivity(const hw::SystemProfile& profile,
                       ProfileReport* report) {
  report->checks_run.push_back("topology.connectivity");
  const hw::Topology& topo = profile.topology;
  for (hw::DeviceId from = 0;
       from < static_cast<hw::DeviceId>(topo.device_count()); ++from) {
    for (hw::MemoryNodeId to = 0;
         to < static_cast<hw::MemoryNodeId>(topo.device_count()); ++to) {
      if (!topo.FindRoute(from, to).ok()) {
        Violate(report, "topology.connectivity",
                DeviceLabel(topo, from) + " -> memory " + std::to_string(to),
                "no route; the paper's systems are connected graphs "
                "(Fig. 4) and the allocator spill order requires full "
                "reachability");
      }
    }
  }
}

void CheckRouteSymmetry(const hw::SystemProfile& profile,
                        ProfileReport* report) {
  report->checks_run.push_back("topology.route-symmetry");
  const hw::Topology& topo = profile.topology;
  const auto n = static_cast<hw::DeviceId>(topo.device_count());
  for (hw::DeviceId a = 0; a < n; ++a) {
    for (hw::DeviceId b = a + 1; b < n; ++b) {
      Result<hw::Route> forward = topo.FindRoute(a, b);
      Result<hw::Route> backward = topo.FindRoute(b, a);
      if (forward.ok() != backward.ok()) {
        Violate(report, "topology.route-symmetry",
                DeviceLabel(topo, a) + " <-> " + DeviceLabel(topo, b),
                "one direction routes and the other does not; all modeled "
                "links are full-duplex (Sec. 2.2)");
        continue;
      }
      if (forward.ok() &&
          forward.value().hops() != backward.value().hops()) {
        Violate(report, "topology.route-symmetry",
                DeviceLabel(topo, a) + " <-> " + DeviceLabel(topo, b),
                "asymmetric hop counts (" +
                    std::to_string(forward.value().hops()) + " vs " +
                    std::to_string(backward.value().hops()) + ")");
      }
    }
  }
}

void CheckLinkSanity(const hw::SystemProfile& profile,
                     ProfileReport* report) {
  report->checks_run.push_back("link.positive-bandwidth");
  report->checks_run.push_back("link.bandwidth-ordering");
  const hw::Topology& topo = profile.topology;
  for (const hw::Edge& edge : topo.edges()) {
    const hw::LinkSpec& link = edge.link;
    const std::string subject = link.name + " (" +
                                std::to_string(edge.a) + " <-> " +
                                std::to_string(edge.b) + ")";
    if (link.electrical_bw.bytes_per_second() <= 0.0 ||
        link.seq_bw.bytes_per_second() <= 0.0 ||
        link.duplex_bw.bytes_per_second() <= 0.0 ||
        link.random_access_rate.per_second() <= 0.0) {
      Violate(report, "link.positive-bandwidth", subject,
              "every link bandwidth and access rate must be positive");
    }
    if (link.seq_bw.bytes_per_second() >
        link.electrical_bw.bytes_per_second() * kEpsilonSlack) {
      Violate(report, "link.bandwidth-ordering", subject,
              "measured sequential bandwidth exceeds the electrical "
              "limit (" +
                  std::to_string(link.seq_bw.gib_per_second()) + " > " +
                  std::to_string(link.electrical_bw.gib_per_second()) +
                  " GiB/s)");
    }
    if (link.duplex_bw.bytes_per_second() >
        2.0 * link.electrical_bw.bytes_per_second() * kEpsilonSlack) {
      Violate(report, "link.bandwidth-ordering", subject,
              "duplex bandwidth exceeds twice the per-direction "
              "electrical rate");
    }
    if (link.header_bytes.bytes() <= 0.0 ||
        link.max_payload_bytes.bytes() <= 0.0 ||
        link.BulkEfficiency() <= 0.0 || link.BulkEfficiency() > 1.0) {
      Violate(report, "link.positive-bandwidth", subject,
              "packet geometry must be positive with bulk efficiency in "
              "(0, 1]");
    }
  }
}

void CheckMemorySanity(const hw::SystemProfile& profile,
                       ProfileReport* report) {
  report->checks_run.push_back("memory.sanity");
  const hw::Topology& topo = profile.topology;
  for (hw::MemoryNodeId id = 0;
       id < static_cast<hw::MemoryNodeId>(topo.device_count()); ++id) {
    const hw::MemorySpec& mem = topo.memory(id);
    const std::string subject = mem.name + " (node " + std::to_string(id) +
                                ")";
    if (mem.capacity.bytes() <= 0.0 || mem.latency.seconds() <= 0.0 ||
        mem.line_bytes.bytes() <= 0.0) {
      Violate(report, "memory.sanity", subject,
              "capacity, latency and line size must be positive");
    }
    if (mem.seq_bw.bytes_per_second() <= 0.0 ||
        mem.random_access_rate.per_second() <= 0.0) {
      Violate(report, "memory.sanity", subject,
              "bandwidth and random-access rate must be positive");
    }
    if (mem.seq_bw.bytes_per_second() >
        mem.electrical_bw.bytes_per_second() * kEpsilonSlack) {
      Violate(report, "memory.sanity", subject,
              "measured sequential bandwidth exceeds the electrical limit");
    }
  }
}

void CheckCalibration(const hw::SystemProfile& profile,
                      ProfileReport* report) {
  report->checks_run.push_back("link.calibration");
  report->checks_run.push_back("memory.calibration");
  report->checks_run.push_back("path.calibration");
  const hw::Topology& topo = profile.topology;

  for (const hw::Edge& edge : topo.edges()) {
    const hw::LinkSpec& link = edge.link;
    LinkReference ref;
    if (!LinkReferenceFor(link.family, &ref)) continue;
    if (!Within(link.seq_bw.gib_per_second(), ref.seq_gib,
                kCalibrationTolerance)) {
      Violate(report, "link.calibration", link.name,
              OffBy(link.seq_bw.gib_per_second(), ref.seq_gib,
                    "GiB/s sequential (Fig. 3a)"));
    }
    if (!Within(link.electrical_bw.bytes_per_second() / 1e9,
                ref.electrical_gb, kCalibrationTolerance)) {
      Violate(report, "link.calibration", link.name,
              OffBy(link.electrical_bw.bytes_per_second() / 1e9,
                    ref.electrical_gb, "GB/s electrical (Fig. 2)"));
    }
    if (!Within(link.hop_latency.nanos(), ref.hop_ns,
                kCalibrationTolerance)) {
      Violate(report, "link.calibration", link.name,
              OffBy(link.hop_latency.nanos(), ref.hop_ns,
                    "ns hop latency (Fig. 3)"));
    }
  }

  for (hw::MemoryNodeId id = 0;
       id < static_cast<hw::MemoryNodeId>(topo.device_count()); ++id) {
    const hw::MemorySpec& mem = topo.memory(id);
    for (const MemoryReference& ref : kMemoryReferences) {
      if (mem.name.find(ref.name_contains) == std::string::npos) continue;
      if (!Within(mem.seq_bw.gib_per_second(), ref.seq_gib,
                  kCalibrationTolerance)) {
        Violate(report, "memory.calibration", mem.name,
                OffBy(mem.seq_bw.gib_per_second(), ref.seq_gib,
                      "GiB/s sequential (Fig. 3b/3c)"));
      }
      if (!Within(mem.latency.nanos(), ref.latency_ns,
                  kCalibrationTolerance)) {
        Violate(report, "memory.calibration", mem.name,
                OffBy(mem.latency.nanos(), ref.latency_ns,
                      "ns latency (Fig. 3b/3c)"));
      }
      break;
    }
  }

  // End-to-end: each single-hop GPU -> CPU-memory path must reproduce the
  // paper's measured interconnect figures.
  for (hw::DeviceId gpu : topo.DevicesOfKind(hw::DeviceKind::kGpu)) {
    for (hw::DeviceId cpu : topo.DevicesOfKind(hw::DeviceKind::kCpu)) {
      Result<sim::AccessPath> path = sim::ResolveAccessPath(topo, gpu, cpu);
      if (!path.ok() || path.value().hops != 1) continue;
      Result<hw::Route> route = topo.FindRoute(gpu, cpu);
      if (!route.ok()) continue;
      const hw::LinkSpec& link =
          topo.edges()[route.value().edge_indices.front()].link;
      PathReference ref;
      if (!PathReferenceFor(link.family, &ref)) continue;
      const std::string subject =
          DeviceLabel(topo, gpu) + " -> memory " + std::to_string(cpu);
      if (!Within(path.value().latency.nanos(), ref.latency_ns,
                  kCalibrationTolerance)) {
        Violate(report, "path.calibration", subject,
                OffBy(path.value().latency.nanos(), ref.latency_ns,
                      "ns end-to-end latency (Fig. 3a)"));
      }
      if (!Within(path.value().seq_bw.gib_per_second(), ref.seq_gib,
                  kCalibrationTolerance)) {
        Violate(report, "path.calibration", subject,
                OffBy(path.value().seq_bw.gib_per_second(), ref.seq_gib,
                      "GiB/s end-to-end sequential (Fig. 3a)"));
      }
    }
  }
}

void CheckLittlesLaw(const hw::SystemProfile& profile,
                     ProfileReport* report) {
  report->checks_run.push_back("littles-law.spec");
  report->checks_run.push_back("littles-law.path");
  const hw::Topology& topo = profile.topology;
  const auto n = static_cast<hw::DeviceId>(topo.device_count());

  // Spec-level: the advertised local rates must be reachable under the
  // owning device's outstanding-traffic budget at the memory's latency
  // (bw <= outstanding / latency). An over-promise here silently inflates
  // every model built on the spec tables.
  for (hw::DeviceId id = 0; id < n; ++id) {
    const hw::DeviceSpec& dev = topo.device(id);
    const hw::MemorySpec& mem = topo.memory(id);
    const std::string subject = DeviceLabel(topo, id) + " / " + mem.name;
    const BytesPerSecond bw_bound = dev.max_outstanding / mem.latency;
    if (mem.seq_bw.bytes_per_second() >
        bw_bound.bytes_per_second() * kLittleSlack) {
      Violate(report, "littles-law.spec", subject,
              "advertised sequential bandwidth " +
                  std::to_string(mem.seq_bw.gib_per_second()) +
                  " GiB/s exceeds the Little's-law bound " +
                  std::to_string(bw_bound.gib_per_second()) +
                  " GiB/s (outstanding bytes / latency)");
    }
    const PerSecond rate_bound = dev.max_outstanding_requests / mem.latency;
    if (mem.random_access_rate.per_second() >
        rate_bound.per_second() * kLittleSlack) {
      Violate(report, "littles-law.spec", subject,
              "advertised random-access rate " +
                  std::to_string(mem.random_access_rate.giga_per_second()) +
                  " G/s exceeds the Little's-law bound " +
                  std::to_string(rate_bound.giga_per_second()) +
                  " G/s (outstanding requests / latency)");
    }
  }

  // Path-level: every resolved access path must respect the same bounds
  // end to end, and derating must never raise a rate.
  for (hw::DeviceId from = 0; from < n; ++from) {
    const hw::DeviceSpec& dev = topo.device(from);
    for (hw::MemoryNodeId to = 0; to < n; ++to) {
      Result<sim::AccessPath> resolved =
          sim::ResolveAccessPath(topo, from, to);
      if (!resolved.ok()) continue;  // Reported by the connectivity check.
      const sim::AccessPath& path = resolved.value();
      const std::string subject =
          DeviceLabel(topo, from) + " -> memory " + std::to_string(to);
      const BytesPerSecond bw_bound = dev.max_outstanding / path.latency;
      if (path.seq_bw.bytes_per_second() >
          bw_bound.bytes_per_second() * kLittleSlack) {
        Violate(report, "littles-law.path", subject,
                "resolved sequential bandwidth exceeds outstanding-bytes "
                "bound over this path's latency");
      }
      const PerSecond rate_bound =
          dev.max_outstanding_requests / path.latency;
      if (path.random_access_rate.per_second() >
          rate_bound.per_second() * kLittleSlack) {
        Violate(report, "littles-law.path", subject,
                "resolved random-access rate exceeds outstanding-requests "
                "bound over this path's latency");
      }
      if (path.dependent_access_rate.per_second() >
          path.random_access_rate.per_second() * kEpsilonSlack) {
        Violate(report, "littles-law.path", subject,
                "dependent access rate exceeds the independent rate; the "
                "dependency factor must derate, never boost");
      }
    }
  }
}

void CheckCostModel(const hw::SystemProfile& profile,
                    ProfileReport* report) {
  report->checks_run.push_back("costmodel.finite");
  report->checks_run.push_back("costmodel.monotone");
  report->checks_run.push_back("costmodel.crossover");
  const hw::Topology& topo = profile.topology;
  const std::vector<hw::DeviceId> cpus =
      topo.DevicesOfKind(hw::DeviceKind::kCpu);
  const std::vector<hw::DeviceId> gpus =
      topo.DevicesOfKind(hw::DeviceKind::kGpu);
  if (cpus.empty() || gpus.empty()) {
    Violate(report, "costmodel.crossover", profile.name,
            "profile lacks a CPU or a GPU; cannot compare devices");
    return;
  }
  const hw::DeviceId cpu = cpus.front();
  const hw::DeviceId gpu = gpus.front();

  const join::NopaJoinModel model(&profile);

  join::NopaConfig cpu_config;
  cpu_config.device = cpu;
  cpu_config.r_location = cpu;
  cpu_config.s_location = cpu;
  cpu_config.hash_table = join::HashTablePlacement::Single(cpu);

  join::NopaConfig gpu_config;
  gpu_config.device = gpu;
  gpu_config.r_location = cpu;
  gpu_config.s_location = cpu;
  gpu_config.hash_table = join::HashTablePlacement::Single(gpu);
  gpu_config.method = transfer::PullMethodFor(topo, gpu, cpu)
                          .value_or(transfer::TransferMethod::kZeroCopy);
  gpu_config.relation_memory =
      transfer::TraitsOf(gpu_config.method).required_memory;

  Seconds prev_cpu;
  Seconds prev_gpu;
  bool cpu_won = false;
  bool gpu_won = false;
  // Sweep |R| from 1 Ki to 256 Mi tuples (|S| = 4|R|, 16 B tuples):
  // small joins are dominated by the GPU's dispatch latency, large ones by
  // the interconnect, so the preferred device changes along the sweep.
  for (std::uint64_t r_tuples = 1ull << 10; r_tuples <= 1ull << 28;
       r_tuples *= 2) {
    const data::WorkloadSpec w =
        data::WorkloadC16(r_tuples, 4 * r_tuples);
    const std::string subject =
        profile.name + " @ |R|=" + std::to_string(r_tuples);

    Result<join::JoinTiming> cpu_timing = model.Estimate(cpu_config, w);
    Result<join::JoinTiming> gpu_timing = model.Estimate(gpu_config, w);
    if (!cpu_timing.ok() || !gpu_timing.ok()) {
      Violate(report, "costmodel.finite", subject,
              "join estimate failed: " +
                  (cpu_timing.ok() ? gpu_timing.status().ToString()
                                   : cpu_timing.status().ToString()));
      continue;
    }
    const Seconds cpu_total = cpu_timing.value().total_s();
    const Seconds gpu_total = gpu_timing.value().total_s();
    for (const Seconds t : {cpu_total, gpu_total}) {
      if (!std::isfinite(t.seconds()) || t.seconds() <= 0.0) {
        Violate(report, "costmodel.finite", subject,
                "join estimate must be a positive finite time");
      }
    }
    if (cpu_total.seconds() < prev_cpu.seconds() / kEpsilonSlack) {
      Violate(report, "costmodel.monotone", subject,
              "CPU join time decreased when the input grew");
    }
    if (gpu_total.seconds() < prev_gpu.seconds() / kEpsilonSlack) {
      Violate(report, "costmodel.monotone", subject,
              "GPU join time decreased when the input grew");
    }
    prev_cpu = cpu_total;
    prev_gpu = gpu_total;
    if (cpu_total < gpu_total) cpu_won = true;
    if (gpu_total < cpu_total) gpu_won = true;
  }
  if (!(cpu_won && gpu_won)) {
    Violate(report, "costmodel.crossover", profile.name,
            std::string("no CPU/GPU crossover in the size sweep: ") +
                (cpu_won ? "the GPU never wins"
                         : "the CPU never wins") +
                "; dispatch latency must favor the CPU on small joins and "
                "the throughput model the other device beyond it");
  }
}

ProfileReport CheckProfile(const hw::SystemProfile& profile) {
  ProfileReport report;
  report.profile = profile.name;
  CheckConnectivity(profile, &report);
  CheckRouteSymmetry(profile, &report);
  CheckLinkSanity(profile, &report);
  CheckMemorySanity(profile, &report);
  CheckCalibration(profile, &report);
  CheckLittlesLaw(profile, &report);
  CheckCostModel(profile, &report);
  return report;
}

void CheckMeshPeering(const hw::SystemProfile& profile,
                      ProfileReport* report) {
  report->checks_run.push_back("mesh.gpu-present");
  report->checks_run.push_back("mesh.peer-path");
  const hw::Topology& topo = profile.topology;
  const std::vector<hw::DeviceId> gpus =
      topo.DevicesOfKind(hw::DeviceKind::kGpu);
  if (gpus.empty()) {
    Violate(report, "mesh.gpu-present", profile.name,
            "an N-GPU mesh profile must contain at least one GPU");
    return;
  }
  // Every GPU pair must route within the mesh diameter: at worst a bounce
  // through every CPU socket plus half the GPU ring. The exchange planner
  // routes each partition over exactly these paths, so an unroutable or
  // absurdly long pair means the mesh was mis-declared.
  const std::size_t diameter_bound =
      topo.DevicesOfKind(hw::DeviceKind::kCpu).size() + gpus.size();
  for (std::size_t a = 0; a < gpus.size(); ++a) {
    for (std::size_t b = a + 1; b < gpus.size(); ++b) {
      Result<hw::Route> route = topo.FindRoute(gpus[a], gpus[b]);
      const std::string subject = DeviceLabel(topo, gpus[a]) + " <-> " +
                                  DeviceLabel(topo, gpus[b]);
      if (!route.ok()) {
        Violate(report, "mesh.peer-path", subject,
                "no exchange path between this GPU pair");
        continue;
      }
      if (route.value().hops() > diameter_bound) {
        Violate(report, "mesh.peer-path", subject,
                "exchange path of " +
                    std::to_string(route.value().hops()) +
                    " hops exceeds the mesh diameter bound " +
                    std::to_string(diameter_bound));
      }
    }
  }
}

ProfileReport CheckMeshProfile(const hw::SystemProfile& profile) {
  ProfileReport report;
  report.profile = profile.name;
  // Mesh link constants come from Li et al., not this paper's Figs. 1-3,
  // and the cost-model crossover sweep is calibrated for the two testbeds;
  // both are skipped here. Everything structural still applies.
  CheckConnectivity(profile, &report);
  CheckRouteSymmetry(profile, &report);
  CheckLinkSanity(profile, &report);
  CheckMemorySanity(profile, &report);
  CheckLittlesLaw(profile, &report);
  CheckMeshPeering(profile, &report);
  return report;
}

std::string ReportsToJson(const std::vector<ProfileReport>& reports) {
  std::ostringstream os;
  bool all_ok = true;
  for (const ProfileReport& report : reports) all_ok &= report.ok();
  os << "{\"ok\": " << (all_ok ? "true" : "false") << ", \"profiles\": [";
  for (std::size_t p = 0; p < reports.size(); ++p) {
    const ProfileReport& report = reports[p];
    if (p > 0) os << ", ";
    os << "{\"profile\": \"" << JsonEscape(report.profile) << "\", \"ok\": "
       << (report.ok() ? "true" : "false") << ", \"checks_run\": [";
    for (std::size_t c = 0; c < report.checks_run.size(); ++c) {
      if (c > 0) os << ", ";
      os << "\"" << JsonEscape(report.checks_run[c]) << "\"";
    }
    os << "], \"violations\": [";
    for (std::size_t v = 0; v < report.violations.size(); ++v) {
      const Violation& violation = report.violations[v];
      if (v > 0) os << ", ";
      os << "{\"check\": \"" << JsonEscape(violation.check)
         << "\", \"subject\": \"" << JsonEscape(violation.subject)
         << "\", \"message\": \"" << JsonEscape(violation.message) << "\"}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

ProfileReport CheckResiduals(const obs::ResidualReport& report,
                             const ResidualBands& bands) {
  ProfileReport out;
  out.profile = "residuals:" + report.query;
  out.checks_run = {"residual.rows", "residual.consistency",
                    "residual.band"};

  if (report.rows.empty()) {
    out.violations.push_back({"residual.rows", report.query,
                              "residual report has no pipeline rows"});
    return out;
  }

  auto band_for = [&bands](const std::string& cls) -> ResidualBand {
    auto it = bands.find(cls);
    if (it != bands.end()) return it->second;
    it = bands.find("");
    if (it != bands.end()) return it->second;
    return ResidualBand{};
  };

  for (const obs::ResidualRow& row : report.rows) {
    // "probe_simd" is the CPU probe executed by the vectorized kernel
    // (hash/simd_probe.h): tracedump splits it from "probe" so its
    // calibration can drift independently of the interleaved path and
    // still be caught by a per-class band. "exchange" is the all-to-all
    // partition shuffle of a sharded plan (plan::ExchangeStage), whose
    // prediction comes from the interconnect model rather than the join
    // kernels.
    if (row.pipeline_class != "build" && row.pipeline_class != "probe" &&
        row.pipeline_class != "probe_simd" &&
        row.pipeline_class != "exchange") {
      out.violations.push_back(
          {"residual.rows", row.pipeline,
           "unknown pipeline class '" + row.pipeline_class +
               "' (want build|probe|probe_simd|exchange)"});
      continue;
    }
    if (!std::isfinite(row.measured_s) || row.measured_s < 0.0 ||
        !std::isfinite(row.predicted_s) || row.predicted_s < 0.0) {
      out.violations.push_back(
          {"residual.consistency", row.pipeline,
           "measured/predicted times must be finite and non-negative"});
      continue;
    }
    const double expected =
        obs::ResidualRatio(row.predicted_s, row.measured_s);
    const double tolerance = 1e-6 + 1e-3 * expected;
    if (std::abs(row.ratio - expected) > tolerance) {
      out.violations.push_back(
          {"residual.consistency", row.pipeline,
           "ratio " + std::to_string(row.ratio) +
               " does not equal measured/predicted (" +
               std::to_string(expected) + ")"});
      continue;
    }
    if (row.predicted_s <= 0.0) continue;  // No prediction to band.
    const ResidualBand band = band_for(row.pipeline_class);
    if (row.ratio < band.min_ratio || row.ratio > band.max_ratio) {
      out.violations.push_back(
          {"residual.band", row.pipeline,
           "class '" + row.pipeline_class + "' ratio " +
               std::to_string(row.ratio) + " outside band [" +
               std::to_string(band.min_ratio) + ", " +
               std::to_string(band.max_ratio) + "]"});
    }
  }
  return out;
}

hw::SystemProfile BrokenFixtureProfile() {
  hw::SystemProfile profile = hw::Ac922Profile();
  profile.name = "broken-fixture";

  hw::Topology topo;
  // CPU0's memory is declared with a latency far off Fig. 3b, which also
  // sinks its advertised bandwidth below the Little's-law bound.
  hw::MemorySpec slow_memory = hw::Power9Memory();
  slow_memory.latency = Nanoseconds(500.0);
  topo.AddDevice(hw::Power9(), slow_memory, hw::Power9L3());
  topo.AddDevice(hw::Power9(), hw::Power9Memory(), hw::Power9L3());

  // GPU0 cannot keep enough requests in flight for its advertised HBM2
  // random-access rate.
  hw::DeviceSpec starved_gpu = hw::TeslaV100();
  starved_gpu.max_outstanding_requests = 16.0;
  topo.AddDevice(starved_gpu, hw::V100Hbm2(), hw::V100L2());

  // GPU1 exists but is never linked: a connectivity violation.
  topo.AddDevice(hw::TeslaV100(), hw::V100Hbm2(), hw::V100L2());

  // The CPU-GPU link claims more measured than electrical bandwidth, and
  // is off the paper's 63 GiB/s NVLink calibration.
  hw::LinkSpec inflated_nvlink = hw::Nvlink2x3();
  inflated_nvlink.seq_bw = GiBPerSecond(100.0);
  (void)topo.AddLink(0, 1, hw::Xbus());
  (void)topo.AddLink(0, 2, inflated_nvlink);

  profile.topology = std::move(topo);
  return profile;
}

hw::SystemProfile BrokenMeshFixtureProfile() {
  hw::SystemProfile profile = hw::HostBounceMeshProfile(4);
  profile.name = "broken-mesh-fixture";

  // Rebuild the mesh but leave the last GPU unlinked: a connectivity and
  // mesh.peer-path violation. The third GPU's host link also claims more
  // measured than electrical bandwidth.
  hw::Topology topo;
  const hw::DeviceId cpu =
      topo.AddDevice(hw::Power9(), hw::Power9Memory(), hw::Power9L3());
  hw::LinkSpec inflated = hw::Nvlink2x3();
  inflated.seq_bw = inflated.electrical_bw * 2.0;
  for (int g = 0; g < 4; ++g) {
    const hw::DeviceId gpu =
        topo.AddDevice(hw::TeslaV100(), hw::V100Hbm2(), hw::V100L2());
    if (g == 3) continue;  // Orphaned GPU.
    (void)topo.AddLink(cpu, gpu, g == 2 ? inflated : hw::Nvlink2x3());
  }
  profile.topology = std::move(topo);
  return profile;
}

}  // namespace pump::check
