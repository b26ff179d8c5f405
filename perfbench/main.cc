// perfbench: the served-query benchmark. Drives server::QueryEngine the
// way its users do — closed-loop clients calling Submit then
// QueryHandle::Wait — checks every result against a brute-force oracle,
// and reports host-second end-to-end metrics (--trace 0) or per-layer
// metrics from a traced run (--trace 1). The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload ssb-cpu-c1 --seed 1 --seconds 10 --trace 0
//
// Normally launched through perfbench/run.py, which builds it first.

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "obs/metrics.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kSetupRepeats = 5;
/// A served phase is cut into equal time slices of about kSliceSamples
/// completions each (at most kMaxSlices); qps, p50 and p90 are medians
/// over the slices, so a host disturbance covering less than half of the
/// run does not move them, and every slice's p90 has ~10 samples beyond.
constexpr std::size_t kSliceSamples = 100;
constexpr std::size_t kMaxSlices = 10;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly the end_to_end / per_layer metrics of BENCHMARK.json
// (perfbench/run.py checks it on every run).
constexpr MetricDef kEndToEnd[] = {
    {"qps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};
constexpr MetricDef kPerLayer[] = {
    {"server.submit_us", "us"},
    {"server.queue_wait_ms", "ms"},
    {"server.serve_over_solo", "ratio"},
    {"server.shed_frac", "fraction"},
    {"server.degraded_to_cpu", "count"},
    {"plan.compile_us", "us"},
    {"plan.build_miss_ms", "ms"},
    {"plan.cache_hit_ratio", "ratio"},
    {"plan.cache_lookups", "count"},
    {"plan.cache_evictions", "count"},
    {"plan.cache_single_flight_waits", "count"},
    {"plan.execute_ms.ssb-q1", "ms"},
    {"plan.execute_ms.ssb-q2", "ms"},
    {"plan.execute_ms.ssb-q3", "ms"},
    {"plan.execute_ms.tpch-q6", "ms"},
    {"plan.execute_ms.star", "ms"},
    {"hash.probe_ns_per_tuple", "ns"},
    {"hash.build_ns_per_key", "ns"},
    {"transfer.stage_ms", "ms"},
    {"transfer.stage_gbps", "GB/s"},
    {"transfer.chunks_per_query", "count"},
    {"exec.het_probe_ms", "ms"},
    {"exec.steals_per_dispatch", "ratio"},
    {"exec.parks_per_query", "count"},
    {"exec.morsels_per_query", "count"},
    {"obs.trace_overhead_pct", "%"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  /// Oracle self-test: perturbs one expected result so the run must fail.
  bool corrupt_expected = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--quick] [--corrupt-expected]"
               " [--trace-out <path>] [--git-sha <sha>]"
               " [--source-digest <hex>]\nworkloads:";
  for (const WorkloadSpec& spec : Workloads()) std::cerr << " " << spec.name;
  std::cerr << "\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--quick") {
      args.quick = true;
    } else if (flag == "--corrupt-expected") {
      args.corrupt_expected = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--git-sha") {
      args.git_sha = value();
    } else if (flag == "--source-digest") {
      args.source_digest = value();
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (FindWorkload(args.workload) == nullptr) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0) || args.seconds > 60.0) {
    Usage("--seconds must be in (0, 60]");
  }
  return args;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
}

std::size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// What one closed-loop phase observed.
struct ServedRun {
  double elapsed_s = 0.0;
  std::vector<double> latencies_ms;
  /// Completion time of each query, seconds since the phase started.
  std::vector<double> completed_at_s;
  std::uint64_t attempted = 0;
  /// Submit refused the query (shed or admission failure).
  std::uint64_t rejected = 0;
  /// The handle resolved with an error (failed, cancelled, deadline).
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t used_gpu = 0;
  std::string first_problem;

  void Merge(ServedRun&& other) {
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
    completed_at_s.insert(completed_at_s.end(), other.completed_at_s.begin(),
                          other.completed_at_s.end());
    attempted += other.attempted;
    rejected += other.rejected;
    errors += other.errors;
    mismatches += other.mismatches;
    used_gpu += other.used_gpu;
    if (first_problem.empty()) first_problem = std::move(other.first_problem);
  }
  /// Appends a phase served after this one: its completion times shift
  /// by this phase's length.
  void Append(ServedRun&& later) {
    for (double& t : later.completed_at_s) t += elapsed_s;
    elapsed_s += later.elapsed_s;
    Merge(std::move(later));
  }
  std::uint64_t completed() const { return latencies_ms.size(); }
  std::uint64_t failed() const { return rejected + errors + mismatches; }

  struct Sliced {
    std::size_t slices = 0;
    std::vector<double> rates;
    double qps = 0.0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
  };
  Sliced Slice() const {
    Sliced out;
    if (elapsed_s <= 0.0 || latencies_ms.empty()) return out;
    out.slices = std::clamp<std::size_t>(completed() / kSliceSamples, 1,
                                         kMaxSlices);
    const double slice_s = elapsed_s / static_cast<double>(out.slices);
    std::vector<std::vector<double>> latencies(out.slices);
    for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
      const auto slice = static_cast<std::size_t>(completed_at_s[i] / slice_s);
      latencies[std::min(slice, out.slices - 1)].push_back(latencies_ms[i]);
    }
    std::vector<double> p50s, p90s;
    for (const std::vector<double>& slice : latencies) {
      out.rates.push_back(static_cast<double>(slice.size()) / slice_s);
      if (slice.empty()) continue;
      p50s.push_back(Percentile(slice, 0.5));
      p90s.push_back(Percentile(slice, 0.9));
    }
    out.qps = Median(out.rates);
    out.p50_ms = Median(p50s);
    out.p90_ms = Median(p90s);
    return out;
  }
};

/// One client: submits its next query only after the previous one
/// resolved, until `deadline`.
ServedRun RunClient(const WorkloadSpec& spec, const Dataset& dataset,
                    pump::server::QueryEngine& engine, std::uint64_t seed,
                    std::size_t client, Clock::time_point origin,
                    Clock::time_point deadline, SpanLog* log) {
  ServedRun run;
  RequestPicker picker(spec, dataset, seed, client);
  pump::server::SubmitOptions submit;
  submit.workers = spec.workers;
  std::uint64_t sequence = 0;
  auto note = [&run](const std::string& problem) {
    if (run.first_problem.empty()) run.first_problem = problem;
  };
  while (Clock::now() < deadline) {
    const MixQuery& entry = dataset.mix[picker.Next()];
    const std::uint64_t query =
        (static_cast<std::uint64_t>(client + 1) << 40) | ++sequence;
    ++run.attempted;
    ScopedSpan root(log, "query", 0, query);
    const Clock::time_point start = Clock::now();
    auto handle = [&] {
      ScopedSpan span(log, "server.submit", root.id(), query);
      return engine.Submit(entry.query, submit);
    }();
    if (!handle.ok()) {
      ++run.rejected;
      note("submit " + entry.name + ": " + handle.status().ToString());
      continue;
    }
    const pump::Result<pump::engine::ExecReport>& result = [&]()
        -> const pump::Result<pump::engine::ExecReport>& {
      ScopedSpan span(log, "server.wait", root.id(), query);
      return handle.value()->Wait();
    }();
    const Clock::time_point end = Clock::now();
    if (!result.ok()) {
      ++run.errors;
      note("query " + entry.name + ": " + result.status().ToString());
      continue;
    }
    const pump::engine::ExecReport& report = result.value();
    if (report.result != entry.expected) {
      ++run.mismatches;
      note("oracle mismatch in served " + entry.name + ": rows " +
           std::to_string(report.result.rows) + " sum " +
           std::to_string(report.result.sum) + ", expected rows " +
           std::to_string(entry.expected.rows) + " sum " +
           std::to_string(entry.expected.sum));
    }
    if (report.used_gpu) ++run.used_gpu;
    run.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    run.completed_at_s.push_back(
        std::chrono::duration<double>(end - origin).count());
  }
  return run;
}

/// Runs `spec.clients` closed-loop clients for `seconds`. With `logs`
/// (one per client) every query records spans.
ServedRun Serve(const WorkloadSpec& spec, const Dataset& dataset,
                pump::server::QueryEngine& engine, std::uint64_t seed,
                double seconds, std::vector<SpanLog>* logs) {
  std::vector<ServedRun> runs(spec.clients);
  const Clock::time_point origin = Clock::now();
  const Clock::time_point deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> clients;
    clients.reserve(spec.clients);
    for (std::size_t c = 0; c < spec.clients; ++c) {
      SpanLog* log = logs != nullptr ? &(*logs)[c] : nullptr;
      clients.emplace_back([&, c, log] {
        runs[c] = RunClient(spec, dataset, engine, seed, c, origin,
                            deadline, log);
      });
    }
    for (std::thread& client : clients) client.join();
  }
  ServedRun total;
  total.elapsed_s = SecondsSince(origin);
  for (ServedRun& run : runs) total.Merge(std::move(run));
  return total;
}

struct WarmupResult {
  std::size_t pick;
  pump::Result<pump::engine::ExecReport> result;
};

/// Warm-up through the engine: each SSB query twice, or as many Zipf picks
/// as the star workload's cache holds tables. Results are checked once
/// the oracle has run.
std::vector<WarmupResult> Warmup(const WorkloadSpec& spec,
                                 const Dataset& dataset,
                                 pump::server::QueryEngine& engine,
                                 std::uint64_t seed) {
  RequestPicker picker(spec, dataset, seed, spec.clients);
  const std::size_t count = spec.data == DataKind::kStar
                                ? kStarCachedTables
                                : 2 * dataset.mix.size();
  pump::server::SubmitOptions submit;
  submit.workers = spec.workers;
  std::vector<WarmupResult> results;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pick = picker.Next();
    auto handle = engine.Submit(dataset.mix[pick].query, submit);
    results.push_back(
        {pick, handle.ok() ? handle.value()->Wait()
                           : pump::Result<pump::engine::ExecReport>(
                                 handle.status())});
  }
  return results;
}

/// Counters the traced run differences across its served phase.
struct Snapshot {
  pump::server::EngineStats stats;
  pump::plan::BuildCache::Stats cache;
  std::uint64_t queue_wait_count = 0;
  std::uint64_t queue_wait_sum_us = 0;
  /// Pool-slot steals plus morsel steals of the work-stealing dispatcher.
  std::uint64_t steals = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t parks = 0;
  std::uint64_t morsels = 0;
  std::uint64_t transfer_bytes = 0;

  static Snapshot Take(pump::server::QueryEngine& engine) {
    auto& registry = pump::obs::MetricsRegistry::Instance();
    Snapshot snap;
    snap.stats = engine.stats();
    snap.cache = engine.build_cache().stats();
    const pump::obs::Histogram& wait =
        registry.GetHistogram("server.queue_wait_us");
    snap.queue_wait_count = wait.count();
    snap.queue_wait_sum_us = wait.sum();
    snap.steals = registry.GetCounter("exec.steals").value() +
                  registry.GetCounter("exec.ws.steals").value();
    snap.dispatches = registry.GetCounter("exec.dispatches").value();
    snap.parks = registry.GetCounter("exec.parks").value();
    snap.morsels = registry.GetCounter("plan.morsels").value();
    snap.transfer_bytes = registry.GetCounter("transfer.bytes").value();
    return snap;
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string FormatNumber(double value) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10)
      << value;
  return out.str();
}

double Delta(std::uint64_t before, std::uint64_t after) {
  return static_cast<double>(after - before);
}

/// The per-layer metrics of the served traced window: spans around
/// Submit, engine and cache statistics, and registry counter deltas.
void AddServedLayerMetrics(const Snapshot& before, const Snapshot& after,
                           const ServedRun& plain, const ServedRun& traced,
                           const std::vector<SpanLog>& logs,
                           double solo_p50_ms, LayerMetrics* layer) {
  LayerMetrics& out = *layer;
  const double completed = static_cast<double>(traced.completed());
  const double hits = Delta(before.cache.hits, after.cache.hits);
  const double lookups = hits + Delta(before.cache.misses, after.cache.misses);
  out["server.submit_us"] =
      Percentile(SpanDurationsUs(logs, "server.submit"), 0.5);
  out["server.queue_wait_ms"] =
      Ratio(Delta(before.queue_wait_sum_us, after.queue_wait_sum_us),
            Delta(before.queue_wait_count, after.queue_wait_count)) /
      1e3;
  out["server.serve_over_solo"] = Ratio(plain.Slice().p50_ms, solo_p50_ms);
  out["server.shed_frac"] =
      Ratio(Delta(before.stats.shed, after.stats.shed),
            Delta(before.stats.submitted, after.stats.submitted));
  out["server.degraded_to_cpu"] =
      Delta(before.stats.degraded_to_cpu, after.stats.degraded_to_cpu);
  out["plan.cache_hit_ratio"] = Ratio(hits, lookups);
  out["plan.cache_lookups"] = lookups;
  out["plan.cache_evictions"] =
      Delta(before.cache.evictions, after.cache.evictions);
  out["plan.cache_single_flight_waits"] = Delta(
      before.cache.single_flight_waits, after.cache.single_flight_waits);
  out["exec.steals_per_dispatch"] =
      Ratio(Delta(before.steals, after.steals),
            Delta(before.dispatches, after.dispatches));
  out["exec.parks_per_query"] =
      Ratio(Delta(before.parks, after.parks), completed);
  out["exec.morsels_per_query"] =
      Ratio(Delta(before.morsels, after.morsels), completed);
  const double plain_qps = plain.Slice().qps;
  out["obs.trace_overhead_pct"] =
      Ratio(plain_qps - traced.Slice().qps, plain_qps) * 100.0;
}

/// Workload fidelity: the traced run fails when the workload took a path
/// other than the one it exists to measure.
void CheckFidelity(const WorkloadSpec::Fidelity& expect,
                   const Snapshot& before, const Snapshot& after,
                   const ServedRun& traced,
                   std::vector<std::string>* problems) {
  const double degraded =
      Delta(before.stats.degraded_to_cpu, after.stats.degraded_to_cpu);
  if (expect.all_gpu &&
      (traced.used_gpu != traced.completed() || degraded != 0.0)) {
    problems->push_back("fidelity: " + std::to_string(traced.used_gpu) +
                        " of " + std::to_string(traced.completed()) +
                        " results used the GPU, " + FormatNumber(degraded) +
                        " degraded to CPU");
  }
  const double staged_bytes = Delta(before.transfer_bytes,
                                    after.transfer_bytes);
  if (expect.no_staging && staged_bytes != 0.0) {
    problems->push_back("fidelity: staged " + FormatNumber(staged_bytes) +
                        " bytes on a CPU-only workload");
  }
  const double hits = Delta(before.cache.hits, after.cache.hits);
  const double hit_ratio =
      Ratio(hits, hits + Delta(before.cache.misses, after.cache.misses));
  const double evictions = Delta(before.cache.evictions, after.cache.evictions);
  if (expect.max_hit_ratio > 0.0 &&
      (hit_ratio < expect.min_hit_ratio || hit_ratio > expect.max_hit_ratio ||
       evictions == 0.0)) {
    problems->push_back("fidelity: cache hit ratio " +
                        FormatNumber(hit_ratio) + " outside [" +
                        FormatNumber(expect.min_hit_ratio) + ", " +
                        FormatNumber(expect.max_hit_ratio) + "] or " +
                        FormatNumber(evictions) + " evictions");
  }
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const std::size_t rows = args.quick ? kQuickRows : kFullRows;
  pump::obs::EnsureCoreMetrics();

  // Set-up: generate, construct the engine, warm it. The untraced run
  // repeats it and reports the median; the last set-up is the one served.
  std::vector<double> setup_s;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<pump::server::QueryEngine> engine;
  std::vector<WarmupResult> warmup;
  for (std::size_t r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
    engine.reset();
    dataset.reset();
    const Clock::time_point start = Clock::now();
    dataset = Generate(spec, rows, args.seed);
    engine = std::make_unique<pump::server::QueryEngine>(
        EngineOptionsFor(spec, *dataset));
    warmup = Warmup(spec, *dataset, *engine, args.seed);
    setup_s.push_back(SecondsSince(start));
  }

  std::vector<std::string> problems;
  if (const pump::Status status = FillExpected(dataset.get());
      !status.ok()) {
    std::cerr << "perfbench: oracle failed: " << status.ToString() << "\n";
    return 1;
  }
  if (args.corrupt_expected) dataset->mix.front().expected.sum += 1;
  for (const WarmupResult& w : warmup) {
    const MixQuery& entry = dataset->mix[w.pick];
    if (!w.result.ok()) {
      problems.push_back("warm-up " + entry.name + ": " +
                         w.result.status().ToString());
    } else if (w.result.value().result != entry.expected) {
      problems.push_back("oracle mismatch in warm-up " + entry.name);
    }
  }

  LayerMetrics metrics;  // By name; every metric of the mode is printed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::ostringstream detail;  // Human-readable lines before the result.
  const char* kind = "measured (host seconds)";
  auto report_run = [&](const char* phase, const ServedRun& run) {
    detail << "# " << spec.name << " " << phase << ": " << run.completed()
           << " completed of " << run.attempted << " submitted in "
           << FormatNumber(run.elapsed_s) << " s; error_rate "
           << FormatNumber(Ratio(static_cast<double>(run.rejected +
                                                     run.errors),
                                 static_cast<double>(run.attempted)))
           << " (" << run.rejected << " rejected, " << run.errors
           << " failed), " << run.mismatches << " oracle mismatches; "
           << kind << "\n";
    if (!run.first_problem.empty()) problems.push_back(run.first_problem);
  };

  if (!args.trace) {
    const ServedRun run =
        Serve(spec, *dataset, *engine, args.seed, args.seconds, nullptr);
    report_run("served", run);
    attempted = run.attempted;
    failed = run.failed();
    const ServedRun::Sliced sliced = run.Slice();
    metrics = {
        {"qps", sliced.qps},
        {"latency_p50_ms", sliced.p50_ms},
        {"setup_s", Median(setup_s)},
        {"peak_rss_mb", PeakRssMb()},
    };
    // p90 is printed but not gated: on shared virtualized hosts whole runs
    // in which one query type of the mix slows move it 2x, while qps and
    // p50 stay within their bounds.
    detail << "# latency_p90_ms " << FormatNumber(sliced.p90_ms)
           << " ms; latency samples " << run.latencies_ms.size() << " in "
           << sliced.slices << " time slices (medians over slices), "
           << setup_s.size() << " set-ups (median)\n# qps per slice:";
    for (const double rate : sliced.rates) detail << " " << FormatNumber(rate);
    detail << "\n# set-up seconds:";
    for (const double s : setup_s) detail << " " << FormatNumber(s);
    detail << "\n";
  } else {
    // Untraced halves before and after the traced phase (A-B-A), so host
    // drift cancels in the trace overhead; together they are also the
    // served side of the served-over-solo ratio.
    ServedRun plain = Serve(spec, *dataset, *engine, args.seed,
                            args.seconds / 2, nullptr);
    std::vector<SpanLog> logs;
    for (std::size_t lane = 0; lane <= spec.clients; ++lane) {
      logs.emplace_back(static_cast<std::uint32_t>(lane));
    }
    const Clock::time_point origin = Clock::now();
    const Snapshot before = Snapshot::Take(*engine);
    const ServedRun traced =
        Serve(spec, *dataset, *engine, args.seed, args.seconds, &logs);
    const Snapshot after = Snapshot::Take(*engine);
    plain.Append(Serve(spec, *dataset, *engine, args.seed, args.seconds / 2,
                       nullptr));
    report_run("untraced", plain);
    report_run("traced", traced);
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed() + traced.failed();

    LayerMetrics layer;
    double solo_p50_ms = 0.0;
    if (const pump::Status status = ProbeLayers(
            spec, *dataset, *engine, args.seed, args.quick ? 2 : 5,
            args.seconds / 2, &logs.back(), &layer, &solo_p50_ms);
        !status.ok()) {
      problems.push_back("layer probes: " + status.ToString());
    }

    AddServedLayerMetrics(before, after, plain, traced, logs, solo_p50_ms,
                          &layer);
    CheckFidelity(spec.fidelity, before, after, traced, &problems);
    metrics = std::move(layer);
    detail << "# traced latency samples " << traced.latencies_ms.size()
           << ", untraced " << plain.latencies_ms.size() << "; solo p50 "
           << FormatNumber(solo_p50_ms) << " ms\n";
    if (!args.trace_out.empty()) {
      if (WriteSpans(logs, origin, args.trace_out)) {
        detail << "# spans written to " << args.trace_out << "\n";
      } else {
        problems.push_back("cannot write spans to " + args.trace_out);
      }
    }
  }

  const bool correct = problems.empty();
  std::cout << detail.str();
  for (const std::string& problem : problems) {
    std::cout << "# FAIL " << problem << "\n";
  }
  std::cout << "{\"perfbench_provenance\": {\"workload\": "
            << Quoted(spec.name) << ", \"seed\": " << args.seed
            << ", \"seconds\": " << FormatNumber(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"quick\": " << (args.quick ? "true" : "false")
            << ", \"kind\": \"measured\", \"clients\": " << spec.clients
            << ", \"workers\": " << spec.workers << ", \"policy\": "
            << Quoted(pump::plan::ToString(spec.policy))
            << ", \"rows\": " << rows
            << ", \"git_sha\": " << Quoted(args.git_sha)
            << ", \"source_digest\": " << Quoted(args.source_digest)
            << ", \"nproc\": " << UsableCpus()
            << ", \"cpu_model\": " << Quoted(CpuModel())
            << ", \"simd_dispatch\": "
            << Quoted(pump::common::SimdDispatchName(
                      pump::common::ActiveSimdDispatch()))
            << ", \"build_type\": " << Quoted(PERFBENCH_BUILD_TYPE) << "}}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  // Metrics a workload does not exercise (staging on the CPU, cache
  // evictions on the SSB mixes) read 0.
  bool first = true;
  for (const MetricDef& def : args.trace ? std::span<const MetricDef>(kPerLayer)
                                         : std::span<const MetricDef>(kEndToEnd)) {
    std::cout << (first ? "" : ", ") << Quoted(def.name)
              << ": {\"value\": " << FormatNumber(metrics[def.name])
              << ", \"unit\": " << Quoted(def.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
