#include "layers.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <utility>

#include "hw/topology.h"
#include "memory/buffer.h"
#include "obs/metrics.h"
#include "plan/build_cache.h"
#include "plan/executor.h"
#include "transfer/executor.h"

namespace perfbench {

namespace {

using pump::plan::PhysicalPlan;
using pump::plan::PipelinePlacement;

/// The star mix has 32 variants of one shape; the hottest few stand for
/// all of them in the solo probes.
constexpr std::size_t kStarProbeVariants = 4;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uint64_t CounterValue(const char* name) {
  return pump::obs::MetricsRegistry::Instance().GetCounter(name).value();
}

/// The fact columns a GPU-side probe stages, one per operator, in
/// plan::BindProbe's binding order (measure, filters, probe keys).
std::vector<std::string> StagedColumns(const PhysicalPlan& plan) {
  std::vector<std::string> columns;
  for (pump::plan::OpKind kind :
       {pump::plan::OpKind::kAggregate, pump::plan::OpKind::kScanFilter,
        pump::plan::OpKind::kProbe}) {
    for (const pump::plan::Operator& op : plan.probe.ops) {
      if (op.kind == kind) columns.push_back(op.column);
    }
  }
  return columns;
}

/// Execution options as server::QueryEngine sets them for a query.
pump::engine::ExecOptions ExecOptionsFor(const WorkloadSpec& spec,
                                         const PhysicalPlan& plan,
                                         pump::server::QueryEngine& engine) {
  pump::engine::ExecOptions exec;
  exec.workers = spec.workers;
  exec.gpu_plan = plan.UsesGpu();
  exec.build_cache = &engine.build_cache();
  return exec;
}

pump::Result<pump::engine::ExecReport> ExecuteChecked(
    const PhysicalPlan& plan, const pump::engine::ExecOptions& exec,
    const MixQuery& entry) {
  PUMP_ASSIGN_OR_RETURN(pump::engine::ExecReport report,
                        pump::plan::ExecutePlan(plan, exec));
  if (report.result != entry.expected) {
    return pump::Status::Internal(
        "oracle mismatch in solo " + entry.name + ": rows " +
        std::to_string(report.result.rows) + " sum " +
        std::to_string(report.result.sum) + ", expected rows " +
        std::to_string(entry.expected.rows) + " sum " +
        std::to_string(entry.expected.sum));
  }
  return report;
}

/// Times transfer::StageToDevice over `columns` of `fact` (one staging
/// per column, as the GPU probe binds them); returns milliseconds and
/// appends the achieved GB/s.
pump::Result<double> TimeStaging(const pump::engine::Table& fact,
                                 const std::vector<std::string>& columns,
                                 const pump::engine::ExecOptions& exec,
                                 SpanLog* log, std::uint64_t query,
                                 std::vector<double>* gbps) {
  ScopedSpan span(log, "transfer.stage", 0, query);
  std::uint64_t bytes = 0;
  // Device buffers stay alive until every column is staged, as in the
  // probe pipeline.
  std::vector<pump::memory::Buffer> staged;
  const Clock::time_point start = Clock::now();
  for (const std::string& name : columns) {
    PUMP_ASSIGN_OR_RETURN(const auto* column, fact.Column(name));
    const std::uint64_t column_bytes = column->size() * sizeof(std::int64_t);
    PUMP_ASSIGN_OR_RETURN(
        pump::memory::Buffer buffer,
        pump::transfer::StageToDevice(column->data(), column_bytes,
                                      pump::hw::kGpu0, exec.chunk_bytes,
                                      exec.os_page_bytes));
    staged.push_back(std::move(buffer));
    bytes += column_bytes;
  }
  const double ms = MsSince(start);
  gbps->push_back(ms > 0.0 ? static_cast<double>(bytes) / (ms * 1e6) : 0.0);
  return ms;
}

/// Per-target medians of every probed quantity.
struct TargetSamples {
  std::vector<double> compile_us;
  std::vector<double> build_miss_ms;
  std::vector<double> execute_ms;
  std::vector<double> probe_ns_per_tuple;
  std::vector<double> het_probe_ms;
  std::vector<double> chunks;
  std::vector<double> stage_ms;
  std::vector<double> stage_gbps;
};

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

std::vector<double> SpanDurationsUs(const std::vector<SpanLog>& logs,
                                    const std::string& name) {
  std::vector<double> durations;
  for (const SpanLog& log : logs) {
    for (const Span& span : log.spans()) {
      if (name != span.name) continue;
      durations.push_back(
          std::chrono::duration<double, std::micro>(span.end - span.start)
              .count());
    }
  }
  return durations;
}

bool WriteSpans(const std::vector<SpanLog>& logs, Clock::time_point origin,
                const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"spans\":[";
  bool first = true;
  for (const SpanLog& log : logs) {
    for (const Span& span : log.spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
          << "\",\"id\":" << span.id << ",\"parent\":" << span.parent
          << ",\"query\":" << span.query << ",\"start_us\":"
          << us(span.start) << ",\"end_us\":" << us(span.end) << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  return out.good();
}

pump::Status ProbeLayers(const WorkloadSpec& spec, const Dataset& dataset,
                         pump::server::QueryEngine& engine,
                         std::uint64_t seed, std::size_t reps,
                         double solo_seconds, SpanLog* log,
                         LayerMetrics* metrics, double* solo_p50_ms) {
  const pump::plan::CompileOptions compile = CompileOptionsFor(spec);
  const std::size_t targets = spec.data == DataKind::kStar
                                  ? std::min(kStarProbeVariants,
                                             dataset.mix.size())
                                  : dataset.mix.size();
  // Solo spans carry query ids above any served client's.
  std::uint64_t next_query = 1ull << 48;
  TargetSamples per_target;
  std::map<std::string, std::vector<double>> execute_ms_by_name;
  std::vector<double> build_ns_per_key;

  for (std::size_t t = 0; t < targets; ++t) {
    const MixQuery& entry = dataset.mix[t];
    TargetSamples samples;
    PhysicalPlan plan;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      ScopedSpan span(log, "plan.compile", 0, next_query++);
      const Clock::time_point start = Clock::now();
      pump::Result<PhysicalPlan> compiled =
          pump::plan::Compile(entry.query, compile);
      samples.compile_us.push_back(MsSince(start) * 1e3);
      PUMP_RETURN_NOT_OK(compiled.status());
      plan = std::move(compiled).value();
    }

    std::size_t dimension_rows = 0;
    for (const pump::plan::BuildPipeline& build : plan.builds) {
      dimension_rows += build.keys.rows;
    }
    for (std::size_t rep = 0; rep < reps; ++rep) {
      pump::plan::BuildCache cold(engine.build_cache().capacity_bytes());
      const std::uint64_t query = next_query++;
      ScopedSpan root(log, "plan.build_miss", 0, query);
      const Clock::time_point start = Clock::now();
      for (const pump::plan::BuildPipeline& build : plan.builds) {
        ScopedSpan span(log, "plan.build_cache.get_or_build", root.id(),
                        query);
        PUMP_RETURN_NOT_OK(cold.GetOrBuild(build).status());
      }
      samples.build_miss_ms.push_back(MsSince(start));
    }
    if (dimension_rows > 0) {
      build_ns_per_key.push_back(Median(samples.build_miss_ms) * 1e6 /
                                 static_cast<double>(dimension_rows));
    }

    const pump::engine::ExecOptions exec =
        ExecOptionsFor(spec, plan, engine);
    PUMP_RETURN_NOT_OK(ExecuteChecked(plan, exec, entry).status());  // Warm.
    const double fact_rows = static_cast<double>(plan.shape.fact_rows);
    const std::vector<std::string> staged_columns = StagedColumns(plan);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const std::uint64_t chunks_before = CounterValue("transfer.chunks");
      pump::engine::ExecReport report;
      {
        ScopedSpan span(log, "plan.execute", 0, next_query++);
        const Clock::time_point start = Clock::now();
        PUMP_ASSIGN_OR_RETURN(report, ExecuteChecked(plan, exec, entry));
        samples.execute_ms.push_back(MsSince(start));
      }
      samples.chunks.push_back(static_cast<double>(
          CounterValue("transfer.chunks") - chunks_before));
      const double probe_ms = report.pipelines.back().measured_s * 1e3;
      if (plan.probe.placement == PipelinePlacement::kCpu &&
          fact_rows > 0) {
        samples.probe_ns_per_tuple.push_back(probe_ms * 1e6 / fact_rows);
      }
      double stage_ms = 0.0;
      if (plan.UsesGpu()) {
        PUMP_ASSIGN_OR_RETURN(
            stage_ms, TimeStaging(*entry.query.fact, staged_columns, exec,
                                  log, next_query++, &samples.stage_gbps));
        samples.stage_ms.push_back(stage_ms);
      }
      if (plan.probe.placement == PipelinePlacement::kHeterogeneous) {
        // The heterogeneous probe row includes the staging just timed
        // alone; paired per repetition so host drift cancels.
        samples.het_probe_ms.push_back(probe_ms - stage_ms);
      }
    }
    execute_ms_by_name[entry.name].push_back(Median(samples.execute_ms));

    auto keep = [](std::vector<double>* into,
                   const std::vector<double>& from) {
      if (!from.empty()) into->push_back(Median(from));
    };
    keep(&per_target.compile_us, samples.compile_us);
    keep(&per_target.build_miss_ms, samples.build_miss_ms);
    keep(&per_target.probe_ns_per_tuple, samples.probe_ns_per_tuple);
    keep(&per_target.chunks, samples.chunks);
    keep(&per_target.stage_ms, samples.stage_ms);
    keep(&per_target.stage_gbps, samples.stage_gbps);
    keep(&per_target.het_probe_ms, samples.het_probe_ms);
  }

  LayerMetrics& out = *metrics;
  out["plan.compile_us"] = Mean(per_target.compile_us);
  out["plan.build_miss_ms"] = Mean(per_target.build_miss_ms);
  for (const auto& [name, values] : execute_ms_by_name) {
    out["plan.execute_ms." + name] = Mean(values);
  }
  out["hash.probe_ns_per_tuple"] = Mean(per_target.probe_ns_per_tuple);
  out["hash.build_ns_per_key"] = Mean(build_ns_per_key);
  out["transfer.stage_ms"] = Mean(per_target.stage_ms);
  out["transfer.stage_gbps"] = Mean(per_target.stage_gbps);
  out["transfer.chunks_per_query"] = Mean(per_target.chunks);
  out["exec.het_probe_ms"] = Mean(per_target.het_probe_ms);

  // Solo baseline: the served mix, one query at a time, each compiled
  // and executed directly against the engine's build cache.
  RequestPicker picker(spec, dataset, seed, 0);
  std::vector<double> solo_ms;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(solo_seconds));
  while (Clock::now() < deadline || solo_ms.empty()) {
    const MixQuery& entry = dataset.mix[picker.Next()];
    const std::uint64_t query = next_query++;
    ScopedSpan root(log, "solo.query", 0, query);
    const Clock::time_point start = Clock::now();
    pump::Result<PhysicalPlan> compiled = [&] {
      ScopedSpan span(log, "plan.compile", root.id(), query);
      return pump::plan::Compile(entry.query, compile);
    }();
    PUMP_RETURN_NOT_OK(compiled.status());
    {
      ScopedSpan span(log, "plan.execute", root.id(), query);
      PUMP_RETURN_NOT_OK(
          ExecuteChecked(compiled.value(),
                         ExecOptionsFor(spec, compiled.value(), engine),
                         entry)
              .status());
    }
    solo_ms.push_back(MsSince(start));
  }
  *solo_p50_ms = Median(solo_ms);
  return pump::Status::OK();
}

}  // namespace perfbench
