#include "plan/operators.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "exec/parallel.h"
#include "obs/trace.h"
#include "verify/mutation.h"

namespace pump::plan {

Result<BoundProbe> BindProbe(
    const PhysicalPlan& plan,
    const std::vector<std::shared_ptr<const DimensionTable>>& tables,
    const ColumnHook& on_column) {
  const engine::Table& fact = *plan.query->fact;
  auto source = [&](const std::string& name) -> Result<const std::int64_t*> {
    PUMP_ASSIGN_OR_RETURN(const auto* column, fact.Column(name));
    if (on_column) PUMP_RETURN_NOT_OK(on_column(*column));
    return column->data();
  };
  BoundProbe bound;
  // Fixed binding order (measure, filters, probe keys): for GPU
  // placements the hook ingests columns, and this order keeps the
  // transfer-chunk fault stream aligned with the reference executor.
  for (const Operator& op : plan.probe.ops) {
    if (op.kind != OpKind::kAggregate) continue;
    PUMP_ASSIGN_OR_RETURN(bound.measure, source(op.column));
  }
  for (const Operator& op : plan.probe.ops) {
    if (op.kind != OpKind::kScanFilter) continue;
    BoundFilter filter;
    PUMP_ASSIGN_OR_RETURN(filter.column, source(op.column));
    filter.op = op.op;
    filter.literal = op.literal;
    bound.filters.push_back(filter);
  }
  for (const Operator& op : plan.probe.ops) {
    if (op.kind != OpKind::kProbe) continue;
    if (op.build_index >= tables.size()) {
      return Status::Internal("probe references missing build pipeline " +
                              std::to_string(op.build_index));
    }
    BoundProbeStep step;
    PUMP_ASSIGN_OR_RETURN(step.keys, source(op.column));
    step.table = tables[op.build_index].get();
    bound.probes.push_back(step);
  }
  return bound;
}

namespace {

/// Fact positions per block. The selection vector is a 4 KB stack array,
/// so a block's survivors stay in L1 from one operator to the next.
constexpr std::size_t kBlockTuples = 1024;

/// Writes the positions `source(k)`, k in [0, count), that pass `keep`
/// to `sel` branch-free: every position is stored and the cursor advances
/// only on a pass. `source` may read `sel` itself (the write cursor never
/// overtakes the read cursor), which is how each operator after the first
/// compacts the vector in place. Returns the survivor count.
template <typename Source, typename Keep>
std::size_t Select(std::size_t count, const Source& source, const Keep& keep,
                   std::uint32_t* sel) {
  std::size_t n = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t pos = source(k);
    sel[n] = pos;
    n += keep(pos) ? 1 : 0;
  }
  return n;
}

template <ops::CompareOp kOp, typename Source>
std::size_t SelectCompare(const std::int64_t* column, std::int64_t literal,
                          std::size_t count, const Source& source,
                          std::uint32_t* sel) {
  return Select(
      count, source,
      [column, literal](std::uint32_t pos) {
        return ops::Compare(kOp, column[pos], literal);
      },
      sel);
}

/// One filter operator over a block; the comparison is switched once per
/// block, not per tuple, so each loop body is a plain compare-and-add
/// (worth ~25% served qps on SSB over a per-tuple ops::Compare switch).
template <typename Source>
std::size_t SelectFilter(const BoundFilter& filter, const std::int64_t* column,
                         std::size_t count, const Source& source,
                         std::uint32_t* sel) {
  using ops::CompareOp;
  const std::int64_t literal = filter.literal;
  switch (filter.op) {
    case CompareOp::kLt:
      return SelectCompare<CompareOp::kLt>(column, literal, count, source,
                                           sel);
    case CompareOp::kLe:
      return SelectCompare<CompareOp::kLe>(column, literal, count, source,
                                           sel);
    case CompareOp::kEq:
      return SelectCompare<CompareOp::kEq>(column, literal, count, source,
                                           sel);
    case CompareOp::kGe:
      return SelectCompare<CompareOp::kGe>(column, literal, count, source,
                                           sel);
    case CompareOp::kGt:
      return SelectCompare<CompareOp::kGt>(column, literal, count, source,
                                           sel);
    case CompareOp::kNe:
      return SelectCompare<CompareOp::kNe>(column, literal, count, source,
                                           sel);
  }
  return 0;
}

/// The pipeline kernel, shared by ProcessRange and ProcessIndices: runs
/// the bound pipeline over the fact positions base + source(k), k in
/// [0, count <= kBlockTuples). The first filter fills the selection
/// vector from `source`; every later filter and each semi-join probe
/// compacts it in place; the aggregate is a count plus one sum over the
/// survivors. Each probe step prefetches the table slot of the key
/// kProbeBatchWidth survivors ahead, so the block keeps that many
/// independent lookups in flight (the CPU analogue of a warp's memory-level
/// parallelism, Sec. 5.2). Operators have no side effects and the
/// aggregate is a count and an integer sum, so the result is bit-identical
/// to running each tuple through the operators in order.
template <typename Source>
void ProcessBlock(const BoundProbe& bound, std::size_t base,
                  std::size_t count, const Source& source,
                  std::uint64_t* rows, std::int64_t* sum) {
  std::uint32_t sel[kBlockTuples];
  std::size_t n = 0;
  auto filter = bound.filters.begin();
  if (filter == bound.filters.end()) {
    n = Select(count, source, [](std::uint32_t) { return true; }, sel);
  } else {
    n = SelectFilter(*filter, filter->column + base, count, source, sel);
    ++filter;
  }
  const auto selected = [&sel](std::size_t k) { return sel[k]; };
  for (; filter != bound.filters.end() && n > 0; ++filter) {
    n = SelectFilter(*filter, filter->column + base, n, selected, sel);
  }
  for (const BoundProbeStep& probe : bound.probes) {
    if (n == 0) return;
    const std::int64_t* keys = probe.keys + base;
    const DimensionTable& table = *probe.table;
    const std::size_t survivors = n;
    for (std::size_t k = 0; k < std::min(survivors, hash::kProbeBatchWidth);
         ++k) {
      table.Prefetch(keys[sel[k]]);
    }
    n = Select(
        survivors,
        [&](std::size_t k) {
          if (k + hash::kProbeBatchWidth < survivors) {
            table.Prefetch(keys[sel[k + hash::kProbeBatchWidth]]);
          }
          return sel[k];
        },
        [&](std::uint32_t pos) { return table.Contains(keys[pos]); }, sel);
  }
  // Summed in uint64 (wrapping) so the block partial cannot overflow where
  // the tuple-ordered running sum would not.
  const std::int64_t* measure = bound.measure + base;
  std::uint64_t block_sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    block_sum += static_cast<std::uint64_t>(measure[sel[k]]);
  }
  *rows += n;
  *sum = static_cast<std::int64_t>(static_cast<std::uint64_t>(*sum) +
                                   block_sum);
}

}  // namespace

Result<DimensionTable> DimensionTable::Build(const BuildPipeline& build,
                                             std::size_t workers,
                                             std::size_t morsel_tuples) {
  PUMP_ASSIGN_OR_RETURN(const auto* keys,
                        build.dimension->Column(build.key_column));
  PUMP_TRACE_SPAN(obs::TraceCategory::kHash, "hash.build",
                  static_cast<double>(keys->size()),
                  static_cast<double>(static_cast<int>(build.table_kind)));
  std::optional<BoundFilter> filter;
  if (build.has_dim_filter) {
    PUMP_ASSIGN_OR_RETURN(const auto* column,
                          build.dimension->Column(build.dim_filter.column));
    filter = BoundFilter{column->data(), build.dim_filter.op,
                         build.dim_filter.literal};
  }

  DimensionTable table;
  table.kind_ = build.table_kind;
  // Dense kinds: one bit per key of [0, max_key].
  const bool dense = build.table_kind != HashTableKind::kLinearProbing;
  const std::size_t domain =
      dense ? static_cast<std::size_t>(build.keys.max_key + 1) : 0;
  if (!dense) table.linear_.emplace(std::max<std::size_t>(1, keys->size()));

  // Worker 0 builds into the table's bitset, worker w > 0 into part
  // w - 1's private one. Each bitset is allocated on its worker's first
  // morsel, so a worker that claims none allocates nothing and a
  // one-morsel dimension allocates one bitset, whichever worker claims it.
  struct WorkerPart {
    KeyBitset bits;
    std::size_t inserted = 0;
  };
  std::size_t inserted0 = 0;
  std::vector<WorkerPart> parts(std::max<std::size_t>(1, workers) - 1);
  PUMP_RETURN_NOT_OK(exec::ForEachMorsel(
      keys->size(), morsel_tuples, workers,
      [&](std::size_t worker, exec::Morsel morsel) {
        std::size_t& inserted =
            worker == 0 ? inserted0 : parts[worker - 1].inserted;
        KeyBitset* bits = nullptr;
        if (dense) {
          bits = worker == 0 ? &table.dense_ : &parts[worker - 1].bits;
          if (!bits->allocated()) *bits = KeyBitset(domain);
        }
        std::uint32_t sel[kBlockTuples];
        for (std::size_t base = morsel.begin; base < morsel.end;
             base += kBlockTuples) {
          const std::size_t count = std::min(kBlockTuples, morsel.end - base);
          // Selects absolute rows. A source unlike ProcessRange's block
          // offsets keeps the probe's SelectFilter single-use, so it stays
          // inlined in ProcessBlock (sharing it cost ~8% ssb-cpu-c1 qps).
          const auto row = [base](std::size_t k) {
            return static_cast<std::uint32_t>(base + k);
          };
          const std::size_t n =
              filter.has_value()
                  ? SelectFilter(*filter, filter->column, count, row, sel)
                  : Select(count, row, [](std::uint32_t) { return true; },
                           sel);
          const std::int64_t* block = keys->data();
          for (std::size_t k = 0; k < n; ++k) {
            PUMP_RETURN_NOT_OK(bits != nullptr
                                   ? bits->Insert(block[sel[k]])
                                   : table.linear_->Insert(block[sel[k]], 1));
          }
          inserted += n;
        }
        return Status::OK();
      }));
  // After the join: fold the private bitsets into the table (the first
  // one is adopted when worker 0 claimed nothing). A duplicate key whose
  // copies went to different workers shows up only here. A dimension no
  // worker claimed leaves the table unallocated: Contains is false for
  // every key.
  table.entries_ = inserted0;
  for (WorkerPart& part : parts) {
    table.entries_ += part.inserted;
    if (!part.bits.allocated()) continue;
    if (table.dense_.allocated()) {
      PUMP_RETURN_NOT_OK(table.dense_.Merge(part.bits));
    } else {
      table.dense_ = std::move(part.bits);
    }
  }
  return table;
}

Status DimensionTable::KeyBitset::Merge(const KeyBitset& other) {
  std::uint64_t overlap = 0;
  for (std::size_t i = 0; i < (domain_ + 63) / 64; ++i) {
    overlap |= words_[i] & other.words_[i];
    words_[i] |= other.words_[i];
  }
  // Seeded mutant: OR without the overlap test, so a duplicate key split
  // across workers builds a table that silently drops one row.
  if (overlap != 0 && !PUMP_VERIFY_MUTATE("plan.build.merge_skips_overlap")) {
    return Status::AlreadyExists("duplicate key in perfect hash table");
  }
  return Status::OK();
}

void ProcessRange(const BoundProbe& bound, std::size_t begin,
                  std::size_t end, std::uint64_t* rows, std::int64_t* sum) {
  const auto offset = [](std::size_t k) {
    return static_cast<std::uint32_t>(k);
  };
  for (std::size_t base = begin; base < end; base += kBlockTuples) {
    ProcessBlock(bound, base, std::min(kBlockTuples, end - base), offset,
                 rows, sum);
  }
}

void ProcessIndices(const BoundProbe& bound, const std::uint32_t* indices,
                    std::size_t count, std::uint64_t* rows,
                    std::int64_t* sum) {
  for (std::size_t block = 0; block < count; block += kBlockTuples) {
    const std::uint32_t* list = indices + block;
    ProcessBlock(bound, 0, std::min(kBlockTuples, count - block),
                 [list](std::size_t k) { return list[k]; }, rows, sum);
  }
}

}  // namespace pump::plan
