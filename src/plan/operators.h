#ifndef PUMP_PLAN_OPERATORS_H_
#define PUMP_PLAN_OPERATORS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "hash/hash_table.h"
#include "plan/plan.h"

namespace pump::plan {

/// The built semi-join table of one build pipeline: the functional host
/// table behind the plan's modelled placement, wrapping whichever table
/// kind the compiler selected. Qualifying dimension keys map to 1
/// (semi-join semantics; the measure lives in the fact table). The
/// kHybrid kind probes through the same perfect-hash layout — the hybrid
/// part is the modelled GPU/CPU split of its backing buffer, which the
/// plan executor accounts separately.
class DimensionTable {
 public:
  /// Builds the table from the pipeline's dimension column (applying the
  /// dimension filter, if any). Fails with AlreadyExists on duplicate
  /// keys, like the reference executor.
  static Result<DimensionTable> Build(const BuildPipeline& build);

  /// True when `key` was inserted — the semi-join probe.
  bool Contains(std::int64_t key) const {
    std::int64_t ignored;
    if (perfect_.has_value()) return perfect_->Lookup(key, &ignored);
    return linear_->Lookup(key, &ignored);
  }

  /// Prefetches the slot a Contains(key) would read first.
  void Prefetch(std::int64_t key) const {
    if (perfect_.has_value()) {
      perfect_->Prefetch(key);
    } else {
      linear_->Prefetch(key);
    }
  }

  /// The table kind actually constructed.
  HashTableKind kind() const { return kind_; }
  /// Keys inserted (post dimension-filter).
  std::size_t entries() const { return entries_; }

 private:
  using Perfect = hash::PerfectHashTable<std::int64_t, std::int64_t>;
  using Linear = hash::LinearProbingHashTable<std::int64_t, std::int64_t>;

  DimensionTable() = default;

  HashTableKind kind_ = HashTableKind::kLinearProbing;
  std::size_t entries_ = 0;
  std::optional<Perfect> perfect_;
  std::optional<Linear> linear_;
};

/// One filter operator with its column resolved to a raw pointer.
struct BoundFilter {
  const std::int64_t* column = nullptr;
  ops::CompareOp op = ops::CompareOp::kEq;
  std::int64_t literal = 0;
};

/// One probe operator bound to its fact key column and built table.
struct BoundProbeStep {
  const std::int64_t* keys = nullptr;
  const DimensionTable* table = nullptr;
};

/// The probe pipeline with every column resolved — no name lookups in
/// the hot loop. Column pointers reference the fact table's host columns
/// on every placement (a GPU-side probe reads them in place), so
/// ProcessRange is identical for all of them, which is what makes the
/// placements bit-compatible.
struct BoundProbe {
  const std::int64_t* measure = nullptr;
  std::vector<BoundFilter> filters;
  std::vector<BoundProbeStep> probes;
};

/// Called once per bound fact column, in binding order, before the
/// pipeline reads it; GPU placements ingest the column over the
/// interconnect here. An error aborts the bind.
using ColumnHook = std::function<Status(const std::vector<std::int64_t>&)>;

/// Resolves `plan`'s probe pipeline against the query's fact table and
/// `tables` (one per build pipeline, in order). Columns are resolved in
/// the fixed order measure, filters, probe keys, so GPU ingest traffic
/// matches the reference executor chunk for chunk. Tables are shared
/// handles so a probe can reference cache-resident builds owned jointly
/// with other queries (plan/build_cache.h); the bound pipeline keeps them
/// alive.
Result<BoundProbe> BindProbe(
    const PhysicalPlan& plan,
    const std::vector<std::shared_ptr<const DimensionTable>>& tables,
    const ColumnHook& on_column = {});

/// Executes the bound pipeline over fact tuples [begin, end), a block of
/// up to 1024 tuples at a time: filters and semi-join probes compact a
/// selection vector in order, then the aggregate counts and sums the
/// survivors. Operators are side-effect free and the aggregate is a count
/// plus an integer sum, so results are bit-identical to the reference
/// executor's tuple-at-a-time loop.
void ProcessRange(const BoundProbe& bound, std::size_t begin,
                  std::size_t end, std::uint64_t* rows, std::int64_t* sum);

/// Executes the bound pipeline over an explicit tuple index list — the
/// shard-local probe of a hash-partitioned plan. The index list seeds the
/// same block kernel as ProcessRange, and the aggregate (count + 64-bit
/// sum) is order-independent, so sharded execution stays bit-identical to
/// the single-device plan.
void ProcessIndices(const BoundProbe& bound, const std::uint32_t* indices,
                    std::size_t count, std::uint64_t* rows,
                    std::int64_t* sum);

}  // namespace pump::plan

#endif  // PUMP_PLAN_OPERATORS_H_
