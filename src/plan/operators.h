#ifndef PUMP_PLAN_OPERATORS_H_
#define PUMP_PLAN_OPERATORS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/morsel.h"
#include "hash/hash_table.h"
#include "plan/plan.h"

namespace pump::plan {

/// The built semi-join table of one build pipeline: the functional host
/// structure behind the plan's modelled table. The semi-join probe only
/// asks whether a fact key has a qualifying dimension row, so the table
/// stores key membership and nothing else (the measure lives in the fact
/// table).
///
/// For the dense kinds (kPerfect, and kHybrid, whose hybrid part is the
/// modelled GPU/CPU split of its backing buffer) that is a bitset over
/// [0, max_key], one bit per key: a perfect hash whose slot is a bit.
/// The linear-probing kind keeps its hash table. Only the functional
/// layout is compact: the plan still sizes, places, costs and caches the
/// paper's 16 B/slot table (TableBytes in plan/compiler.cc), because that
/// is the table the modelled GPU holds and the cost model prices.
///
/// Build runs the dimension scan the way the probe runs the fact scan:
/// morsel-parallel over the query's workers (exec::ForEachMorsel, whose
/// join is the build/probe barrier), a block of up to 1024 rows at a time,
/// with the dimension filter compacting a selection vector branch-free
/// and only its survivors inserted. A dense build shares nothing between
/// workers while it runs (the thread-local build of morsel-driven
/// parallelism, Leis et al., SIGMOD 2014): worker 0 sets bits in the
/// table's own bitset, and every other worker in a private one. Each is
/// allocated on its worker's first morsel, so a one-worker build, or one
/// whose dimension fits one morsel, allocates one bitset. After the join
/// the private bitsets are OR-merged into the table; a bit set in two of
/// them is a duplicate key split across workers, which the merge reports.
/// The linear-probing kind inserts into one shared table with a CAS per
/// slot. Either way the table is the same whatever the schedule.
class DimensionTable {
 public:
  /// Builds the table from the pipeline's dimension column (applying the
  /// dimension filter, if any) with `workers` workers claiming morsels of
  /// `morsel_tuples` rows. Fails with AlreadyExists on duplicate keys,
  /// like the reference executor, and with InvalidArgument on a key
  /// outside a dense kind's [0, max_key].
  static Result<DimensionTable> Build(
      const BuildPipeline& build, std::size_t workers = 1,
      std::size_t morsel_tuples = exec::kDefaultMorselTuples);

  /// True when `key` was inserted — the semi-join probe.
  bool Contains(std::int64_t key) const {
    return linear_.has_value() ? linear_->Contains(key) : dense_.Contains(key);
  }

  /// Prefetches the word or slot a Contains(key) would read first.
  void Prefetch(std::int64_t key) const {
    if (linear_.has_value()) {
      linear_->Prefetch(key);
    } else {
      dense_.Prefetch(key);
    }
  }

  /// The table kind actually constructed.
  HashTableKind kind() const { return kind_; }
  /// Keys inserted (post dimension-filter).
  std::size_t entries() const { return entries_; }

 private:
  using Linear = hash::LinearProbingHashTable<std::int64_t, std::int64_t>;

  /// Key membership over the dense domain [0, domain): bit `key` of a
  /// word array. Single-writer: a parallel build gives each worker its
  /// own set and merges them after the join.
  class KeyBitset {
   public:
    KeyBitset() = default;
    /// All keys absent.
    explicit KeyBitset(std::size_t domain)
        : domain_(domain),
          words_(std::make_unique<std::uint64_t[]>((domain + 63) / 64)) {}

    /// False for a default-constructed set (no domain allocated).
    bool allocated() const { return words_ != nullptr; }

    /// Sets bit `key`. Fails like PerfectHashTable::Insert.
    Status Insert(std::int64_t key) {
      if (!InDomain(key)) {
        return Status::InvalidArgument("key outside perfect-hash domain");
      }
      std::uint64_t& word = words_[key >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (key & 63);
      if ((word & bit) != 0) {
        return Status::AlreadyExists("duplicate key in perfect hash table");
      }
      word |= bit;
      return Status::OK();
    }

    /// ORs `other` (same domain) into this set. Fails with AlreadyExists
    /// when a key is in both: the two copies of a duplicate key that
    /// different workers inserted.
    Status Merge(const KeyBitset& other);

    bool Contains(std::int64_t key) const {
      return InDomain(key) && ((words_[key >> 6] >> (key & 63)) & 1) != 0;
    }

    void Prefetch(std::int64_t key) const {
      if (InDomain(key)) hash::PrefetchRead(&words_[key >> 6]);
    }

   private:
    bool InDomain(std::int64_t key) const {
      return key >= 0 && static_cast<std::uint64_t>(key) < domain_;
    }

    std::uint64_t domain_ = 0;
    std::unique_ptr<std::uint64_t[]> words_;
  };

  DimensionTable() = default;

  HashTableKind kind_ = HashTableKind::kLinearProbing;
  std::size_t entries_ = 0;
  KeyBitset dense_;
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
