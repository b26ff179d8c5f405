#ifndef PUMP_ENGINE_EXECUTOR_H_
#define PUMP_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "engine/query.h"
#include "exec/morsel.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"

namespace pump::plan {
class BuildCache;
}  // namespace pump::plan

namespace pump::engine {

struct ExecReport;

/// Options for a fault-aware execution (Executor::RunResilient).
struct ExecOptions {
  /// Worker threads of the CPU probe pipeline, the dimension-table builds
  /// and the CPU fallback plan.
  std::size_t workers = 1;
  /// Attempt the GPU-placed plan first; fall back to the CPU plan on an
  /// unrecoverable fault. When false, only the CPU plan runs.
  bool gpu_plan = true;
  /// Fault injector threaded through every layer of the GPU plan
  /// (transfer chunks, device allocation, scheduler groups). Null = no
  /// faults.
  fault::FaultInjector* injector = nullptr;
  /// Retry policy for transient transfer-chunk faults.
  fault::RetryPolicy retry;
  /// Chunk size of the fact-column transfers.
  std::uint64_t chunk_bytes = 64 * 1024;
  /// Modelled OS page size of the transfers.
  std::uint64_t os_page_bytes = 4 * 1024;
  /// Morsel granularity of the probe pipelines and dimension-table builds.
  std::size_t morsel_tuples = exec::kDefaultMorselTuples;
  /// Cooperative cancellation/deadline token, polled at morsel-claim
  /// granularity by every pipeline loop: a cancelled or deadline-expired
  /// query stops claiming work and releases its workers within one
  /// morsel. Null = not cancellable.
  const CancelToken* cancel = nullptr;
  /// Process-wide dimension-table build cache (plan/build_cache.h).
  /// Null = per-query builds only (tables are still reused across the
  /// ladder rungs of the one query, as before).
  plan::BuildCache* build_cache = nullptr;
  /// Query id for trace attribution: plan::ExecutePlan installs it as
  /// the thread's obs::QueryContext so every span/instant the execution
  /// records — across all pool workers — is stamped with it. 0 = untagged
  /// (solo runs, tests).
  std::uint64_t query_id = 0;
  /// When non-null, receives a copy of the in-progress ExecReport on
  /// *every* exit from plan::ExecutePlan, including error returns — the
  /// flight recorder's source for the failed attempt's pipeline rows,
  /// which the Result-based return drops on the floor.
  ExecReport* partial_report = nullptr;
};

/// Per-pipeline outcome row of an executed plan. The degradation ladder
/// operates per pipeline, so a query-level summary cannot say *which*
/// pipeline was re-placed or retried — these rows can. They survive a
/// mid-query CPU re-placement intact (the summed totals below are reset
/// by the ladder, the rows are not), so traces and reports agree.
struct PipelineOutcome {
  /// "build[i]" for build pipelines, "probe" for the probe pipeline.
  std::string name;
  /// "build" | "probe" — the pipeline class the residual linter bands by.
  std::string kind;
  /// Placement the compiler assigned.
  std::string placement_planned;
  /// Placement that finally produced the pipeline's result (differs from
  /// planned when the ladder re-placed the pipeline on the CPU).
  std::string placement_used;
  /// Transfer method a single-GPU probe read its fact columns with
  /// ("Coherence" | "Zero-Copy"); empty when nothing was pulled.
  std::string ingest;
  /// Execution attempts (1 clean; 2 when a GPU-side attempt failed and
  /// the pipeline re-ran on the CPU).
  std::size_t attempts = 1;
  /// Transfer chunk retries charged to this pipeline (all attempts).
  std::uint64_t retries = 0;
  /// Faults injected into this pipeline (all attempts).
  std::uint64_t faults_injected = 0;
  /// Measured wall time of the pipeline, seconds (every attempt,
  /// including a failed GPU attempt before a CPU re-placement).
  double measured_s = 0.0;
  /// The cost model's predicted time, seconds; 0 when the plan was
  /// compiled without the cost-model policy.
  double predicted_s = 0.0;
};

/// Outcome of a fault-aware execution: the query result plus how the
/// degradation ladder (retry -> spill -> CPU fallback) was exercised.
struct ExecReport {
  QueryResult result;
  /// True when the GPU-placed plan produced the result; false when the
  /// engine fell back to the CPU plan.
  bool used_gpu = false;
  /// True when any degradation occurred (spill, group failover, or CPU
  /// fallback). Pure transparent retries do not set this.
  bool degraded = false;
  /// Human-readable reason for the degradation; empty when clean.
  std::string degradation_reason;
  /// Smallest GPU-resident fraction achieved across the joins' modelled
  /// hash-table allocations (1.0 when fully GPU-resident or no joins).
  double hybrid_gpu_fraction = 1.0;
  /// Transfer chunk retries performed (transient faults survived).
  std::uint64_t transfer_retries = 0;
  /// Faults injected across the transfer layer.
  std::uint64_t faults_injected = 0;
  /// Total modelled retry backoff charged by the policy, seconds.
  double modelled_backoff_s = 0.0;
  /// Tuples re-processed by surviving scheduler groups after a group died.
  std::size_t failover_tuples = 0;
  /// Build pipelines executed (dimension hash tables actually built).
  /// With the plan IR each build runs exactly once per query, whatever
  /// the degradation ladder does afterwards.
  std::size_t dim_tables_built = 0;
  /// Cached build results reused by a later ladder rung (e.g. a CPU
  /// re-placement of the probe pipeline) instead of being rebuilt.
  std::size_t dim_tables_reused = 0;
  /// Per-pipeline outcome rows (builds in plan order, then the probe).
  /// Unlike the summed totals above they are preserved across the
  /// ladder's CPU re-placement, recording placement tried vs. used,
  /// attempts and retries per pipeline.
  std::vector<PipelineOutcome> pipelines;
  /// Per-shard outcome rows of a sharded (multi-device) plan: the
  /// exchange stage first (kind "exchange"), then one "shard[i]@dev<d>"
  /// row per shard device (kind "probe"). Empty for single-device plans.
  std::vector<PipelineOutcome> shards;
  /// Shards the fault ladder re-placed on the CPU (a failed device
  /// degrades only its own shards; the other devices keep theirs).
  std::size_t shards_replaced = 0;
};

/// Functional query executor, now a facade over the plan IR: queries
/// compile to a physical plan (build pipelines + probe pipeline with
/// placements and hash-table choices, see src/plan/) and execute morsel-
/// wise through plan::ExecutePlan. The reference semantics every plan
/// the Advisor produces must match.
class Executor {
 public:
  /// Runs `query` with `workers` threads for the probe pipeline.
  static Result<QueryResult> Run(const Query& query,
                                 std::size_t workers = 1);

  /// Runs `query` under the fault model: the GPU-placed plan (fact
  /// columns transferred chunk-wise with retry, modelled hybrid
  /// hash-table placement with spill-on-device-OOM, heterogeneous
  /// CPU+GPU probe with group failover), falling back to the CPU plan
  /// when the GPU path hits an unrecoverable fault. The report's result
  /// is always bit-identical to `Run`'s for the same query — that is the
  /// whole point of the degradation ladder.
  static Result<ExecReport> RunResilient(const Query& query,
                                         const ExecOptions& options);
};

}  // namespace pump::engine

#endif  // PUMP_ENGINE_EXECUTOR_H_
