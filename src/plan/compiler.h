#ifndef PUMP_PLAN_COMPILER_H_
#define PUMP_PLAN_COMPILER_H_

#include <cstdint>
#include <map>

#include "common/status.h"
#include "engine/query.h"
#include "hw/system_profile.h"
#include "plan/plan.h"

namespace pump::plan {

/// How the compiler assigns pipeline placements.
enum class PlacementPolicy : std::uint8_t {
  /// Every pipeline on the CPU — the reference plan.
  kCpuOnly,
  /// GPU-side placements wherever the budget allows: hash tables GPU-
  /// placed, probe heterogeneous. The degradation ladder (retry -> spill
  /// -> per-pipeline CPU re-placement) recovers from faults at runtime.
  kGpuPreferred,
  /// Per-pipeline placement chosen by engine::Advisor / join::CostModel:
  /// the probe pipeline runs where the modelled time is lowest and each
  /// hash table follows the Fig. 11 placement rules of the winning
  /// device. Decides per *step*, not per query.
  kCostModel
};

const char* ToString(PlacementPolicy policy);

/// Compile-time knobs.
struct CompileOptions {
  PlacementPolicy policy = PlacementPolicy::kCpuOnly;
  /// GPU memory available for hash tables. 0 derives it from the
  /// profile's (or the default AC922's) GPU capacity minus a 1 GiB
  /// working-space reserve. The hybrid hash-table kind is selected when a
  /// dense dimension exceeds this budget.
  std::uint64_t gpu_budget_bytes = 0;
  /// Modelled GPU bytes already committed to concurrently running
  /// queries (the server's in-flight footprint). Shrinks the effective
  /// GPU budget for this compilation; when no headroom remains, GPU
  /// placements degrade to CPU instead of queueing behind device memory
  /// — graceful degradation under pressure rather than unbounded wait.
  std::uint64_t gpu_budget_in_use_bytes = 0;
  /// System profile for the cost-model policy; null uses hw::Ac922Profile.
  const hw::SystemProfile* profile = nullptr;
  /// Cardinality scale factor fed to the cost model (model the same query
  /// shape at paper scale without materializing the data).
  double scale = 1.0;
  /// Candidate GPU devices to shard the plan across (hash-partitioned
  /// build side, all-to-all exchange, parallel shard probes). Every id
  /// must be a GPU of `profile`'s topology. Empty keeps the classic
  /// single-device layout. Under kCpuOnly this is ignored; under
  /// kGpuPreferred every unsaturated candidate becomes a shard; under
  /// kCostModel the compiler scores candidate device sets by modelled
  /// per-shard probe time plus exchange cost and keeps the cheapest.
  DeviceSet shard_devices;
  /// Per-device in-flight bytes of concurrently running queries (the
  /// serving layer's per-device pools). A candidate shard device whose
  /// pool is saturated is dropped from the shard set — admission
  /// degrades shard-by-shard before it degrades to CPU. Null treats
  /// every candidate as idle except for `gpu_budget_in_use_bytes`,
  /// which keeps acting on the plan's primary device.
  const std::map<hw::DeviceId, std::uint64_t>* device_budget_in_use =
      nullptr;
};

/// Compiles `query` into a physical plan: validates the query exactly
/// once (errors carry the offending query shape), derives key statistics
/// per dimension, selects a hash-table kind per build pipeline, and
/// assigns placements per the policy. The query and its tables must
/// outlive the returned plan.
Result<PhysicalPlan> Compile(const engine::Query& query,
                             const CompileOptions& options = {});

/// Structural self-check of a compiled plan (used by tools/plandump and
/// the test suite): probe operators non-empty and well-ordered (filters,
/// then probes, then exactly one trailing aggregate), every probe
/// operator references an existing build pipeline, every build pipeline
/// references an existing join clause, and hash-table kinds are
/// consistent with the key statistics. Returns the first violation.
Status ValidatePlan(const PhysicalPlan& plan);

/// Modelled GPU bytes `plan` occupies while executing as placed:
/// GPU-resident hash tables, plus the exchanged fact columns of a
/// sharded probe (a single-GPU probe reads them in place). A CPU-only
/// plan is 0. The server's admission
/// controller uses this as the query's resource token and feeds the
/// concurrent total back through
/// CompileOptions::gpu_budget_in_use_bytes.
std::uint64_t EstimatedGpuFootprintBytes(const PhysicalPlan& plan);

/// The same footprint split per device: a sharded plan divides its hash
/// tables and exchanged columns evenly across the shard devices; a
/// single-device plan charges everything to its one device. Empty for a
/// CPU-only plan. The per-device sums always add up to
/// EstimatedGpuFootprintBytes.
std::map<hw::DeviceId, std::uint64_t> EstimatedGpuFootprintPerDevice(
    const PhysicalPlan& plan);

/// Plans the all-to-all exchange of `devices` over `topology`: one route
/// per ordered pair, minimum-hop, with the modelled cost (busiest link's
/// transfer time for an evenly hash-partitioned `total_bytes`, plus the
/// longest route's hop latency). Exposed for the cost-model policy, the
/// mesh scaling bench and tests.
Result<ExchangeStage> PlanExchange(const hw::Topology& topology,
                                   const DeviceSet& devices,
                                   std::uint64_t total_bytes);

inline const char* ToString(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kCpuOnly:
      return "cpu";
    case PlacementPolicy::kGpuPreferred:
      return "gpu";
    case PlacementPolicy::kCostModel:
      return "cost";
  }
  return "?";
}

}  // namespace pump::plan

#endif  // PUMP_PLAN_COMPILER_H_
