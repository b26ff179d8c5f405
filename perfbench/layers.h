#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/query_engine.h"
#include "workloads.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One span recorded around a call into a layer's public function.
/// Spans of one query share `query`; `parent` is 0 for a root.
struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t query;
  Clock::time_point start;
  Clock::time_point end;
};

/// The spans of one thread, kept in memory until the run ends. Ids are
/// unique across logs (the log's lane is in the high bits).
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t lane) : lane_(lane) {}

  std::uint64_t Open(const char* name, std::uint64_t parent,
                     std::uint64_t query) {
    const std::uint64_t id =
        (static_cast<std::uint64_t>(lane_ + 1) << 32) | spans_.size();
    spans_.push_back({name, id, parent, query, Clock::now(), {}});
    return id;
  }
  void Close(std::uint64_t id) {
    spans_[id & 0xffffffffu].end = Clock::now();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t lane_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t parent,
             std::uint64_t query)
      : log_(log), id_(log != nullptr ? log->Open(name, parent, query) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_;
};

/// Durations (microseconds) of every span called `name` across `logs`.
std::vector<double> SpanDurationsUs(const std::vector<SpanLog>& logs,
                                    const std::string& name);

/// Writes every span as one JSON document:
/// {"spans":[{"name","id","parent","query","start_us","end_us"},...]},
/// times relative to `origin`.
bool WriteSpans(const std::vector<SpanLog>& logs, Clock::time_point origin,
                const std::string& path);

/// Per-layer numbers of one traced run, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Calls each layer's public functions alone, outside the served loop,
/// with spans around every call: plan::Compile, BuildCache::GetOrBuild on
/// a cold cache, plan::ExecutePlan on the engine's warm cache, and
/// transfer::StageToDevice over the fact columns a GPU-side plan stages.
/// Then runs the mix solo (Compile + ExecutePlan, one query at a time)
/// for `solo_seconds`. Fills the plan.*, hash.*, transfer.* and
/// exec.het_probe_ms metrics, and `solo_p50_ms` with the solo latency.
/// The engine must be idle.
pump::Status ProbeLayers(const WorkloadSpec& spec, const Dataset& dataset,
                         pump::server::QueryEngine& engine,
                         std::uint64_t seed, std::size_t reps,
                         double solo_seconds, SpanLog* log,
                         LayerMetrics* metrics, double* solo_p50_ms);

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
/// Median, averaging the middle two of an even count; 0 when empty.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
