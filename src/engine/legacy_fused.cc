#include "engine/legacy_fused.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "exec/het_scheduler.h"
#include "exec/morsel.h"
#include "exec/parallel.h"
#include "exec/work_stealing.h"
#include "hash/hash_table.h"
#include "hw/topology.h"
#include "memory/allocator.h"
#include "transfer/executor.h"

namespace pump::engine::legacy {

namespace {

using DimTable = hash::LinearProbingHashTable<std::int64_t, std::int64_t>;

Status ValidateQuery(const Query& query) {
  if (query.fact == nullptr) {
    return Status::InvalidArgument("query has no fact table");
  }
  if (!query.fact->HasColumn(query.measure_column)) {
    return Status::NotFound("measure column '" + query.measure_column +
                            "' missing from fact table");
  }
  for (const Filter& filter : query.filters) {
    if (!query.fact->HasColumn(filter.column)) {
      return Status::NotFound("filter column '" + filter.column +
                              "' missing from fact table");
    }
  }
  for (const JoinClause& join : query.joins) {
    if (join.dimension == nullptr) {
      return Status::InvalidArgument("join without dimension table");
    }
    if (!query.fact->HasColumn(join.fact_key_column)) {
      return Status::NotFound("join key '" + join.fact_key_column +
                              "' missing from fact table");
    }
    if (!join.dimension->HasColumn(join.dim_key_column)) {
      return Status::NotFound("dimension key '" + join.dim_key_column +
                              "' missing from dimension");
    }
    if (join.has_dim_filter &&
        !join.dimension->HasColumn(join.dim_filter.column)) {
      return Status::NotFound("dimension filter column '" +
                              join.dim_filter.column + "' missing");
    }
  }
  return Status::OK();
}

// Builds the hash table for one join clause: qualifying dimension keys
// map to 1 (semi-join semantics; the measure lives in the fact table).
Result<std::unique_ptr<DimTable>> BuildDimensionTable(
    const JoinClause& join) {
  PUMP_ASSIGN_OR_RETURN(const auto* keys,
                        join.dimension->Column(join.dim_key_column));
  const std::vector<std::int64_t>* filter_column = nullptr;
  if (join.has_dim_filter) {
    PUMP_ASSIGN_OR_RETURN(filter_column,
                          join.dimension->Column(join.dim_filter.column));
  }
  auto table = std::make_unique<DimTable>(
      std::max<std::size_t>(1, keys->size()));
  for (std::size_t i = 0; i < keys->size(); ++i) {
    if (filter_column != nullptr &&
        !ops::Compare(join.dim_filter.op, (*filter_column)[i],
                      join.dim_filter.literal)) {
      continue;
    }
    PUMP_RETURN_NOT_OK(table->Insert((*keys)[i], 1));
  }
  return table;
}

// Column pointers resolved for the hot loop. The data lives either in the
// original table columns (CPU plan) or in transferred device buffers (GPU
// plan); the kernel below is identical for both, which is what makes the
// two plans bit-compatible.
struct BoundColumns {
  const std::int64_t* measure = nullptr;
  std::vector<const std::int64_t*> filter_columns;
  std::vector<const std::int64_t*> key_columns;
};

// Scan -> semi-join probes -> aggregate over tuple range [begin, end).
void ProcessRange(const Query& query, const BoundColumns& columns,
                  const std::vector<std::unique_ptr<DimTable>>& dim_tables,
                  std::size_t begin, std::size_t end, std::uint64_t* rows,
                  std::int64_t* sum) {
  for (std::size_t i = begin; i < end; ++i) {
    bool qualifies = true;
    for (std::size_t f = 0; f < query.filters.size(); ++f) {
      if (!ops::Compare(query.filters[f].op, columns.filter_columns[f][i],
                        query.filters[f].literal)) {
        qualifies = false;
        break;
      }
    }
    if (!qualifies) continue;
    for (std::size_t j = 0; j < dim_tables.size(); ++j) {
      std::int64_t ignored;
      if (!dim_tables[j]->Lookup(columns.key_columns[j][i], &ignored)) {
        qualifies = false;
        break;
      }
    }
    if (!qualifies) continue;
    ++*rows;
    // Wraps like the plan path's uint64 accumulation (no signed overflow).
    *sum = static_cast<std::int64_t>(static_cast<std::uint64_t>(*sum) +
                                     static_cast<std::uint64_t>(
                                         columns.measure[i]));
  }
}

/// The GPU-placed plan under the fault model. Fills `report` on success;
/// any error is an unrecoverable GPU-path fault the caller degrades from
/// (validation errors reproduce identically on the CPU fallback, so
/// nothing is masked).
Status RunGpuPlan(const Query& query, const ExecOptions& options,
                  ExecReport* report) {
  PUMP_RETURN_NOT_OK(ValidateQuery(query));
  const Table& fact = *query.fact;
  const std::size_t rows = fact.rows();

  // Read every referenced fact column in place over the coherent link,
  // chunk by chunk with per-chunk retry (degradation rung 1: retry).
  const transfer::TransferFaultOptions fault_options{options.injector,
                                                     options.retry};
  auto transfer_column =
      [&](const std::vector<std::int64_t>* column)
      -> Result<const std::int64_t*> {
    PUMP_ASSIGN_OR_RETURN(
        const transfer::TransferStats stats,
        transfer::ExecutePull(transfer::TransferMethod::kCoherence,
                              column->size() * sizeof(std::int64_t),
                              hw::kGpu0, options.chunk_bytes, fault_options));
    report->transfer_retries += stats.retries;
    report->faults_injected += stats.faults_injected;
    report->modelled_backoff_s += stats.modelled_backoff_s;
    return column->data();
  };

  BoundColumns bound;
  PUMP_ASSIGN_OR_RETURN(const auto* measure,
                        fact.Column(query.measure_column));
  PUMP_ASSIGN_OR_RETURN(bound.measure, transfer_column(measure));
  for (const Filter& filter : query.filters) {
    PUMP_ASSIGN_OR_RETURN(const auto* column, fact.Column(filter.column));
    PUMP_ASSIGN_OR_RETURN(const auto* device, transfer_column(column));
    bound.filter_columns.push_back(device);
  }

  // Model the hash-table placement on the AC922 topology: device
  // allocation probes the alloc.device failpoint and spills the remainder
  // to CPU memory (degradation rung 2: spill). The functional build stays
  // on the host, mirroring the repo-wide functional/model split.
  hw::Topology topology = hw::IbmAc922();
  memory::MemoryManager manager(&topology, /*materialize=*/false);
  std::vector<memory::Buffer> placements;
  std::vector<std::unique_ptr<DimTable>> dim_tables;
  for (const JoinClause& join : query.joins) {
    PUMP_ASSIGN_OR_RETURN(const auto* column,
                          fact.Column(join.fact_key_column));
    PUMP_ASSIGN_OR_RETURN(const auto* device, transfer_column(column));
    bound.key_columns.push_back(device);

    const std::uint64_t table_bytes = std::max<std::uint64_t>(
        16, join.dimension->rows() * 2 * sizeof(std::int64_t));
    PUMP_ASSIGN_OR_RETURN(memory::Buffer placement,
                          manager.AllocateHybrid(table_bytes, hw::kGpu0, 0,
                                                 options.injector));
    report->hybrid_gpu_fraction = std::min(
        report->hybrid_gpu_fraction, placement.FractionOnNode(hw::kGpu0));
    placements.push_back(std::move(placement));

    PUMP_ASSIGN_OR_RETURN(auto table, BuildDimensionTable(join));
    dim_tables.push_back(std::move(table));
  }
  std::vector<std::string> reasons;
  if (!query.joins.empty() && report->hybrid_gpu_fraction < 1.0) {
    reasons.push_back(
        "hybrid hash table spilled to CPU memory (GPU fraction " +
        std::to_string(report->hybrid_gpu_fraction) + ")");
  }

  // Heterogeneous probe: CPU workers pull morsels, a GPU proxy pulls
  // batches; a stalled group's morsels fail over to the survivors
  // (degradation rung 3 lives in the caller: CPU fallback).
  std::atomic<std::uint64_t> total_rows{0};
  std::atomic<std::int64_t> total_sum{0};
  auto work = [&](std::size_t begin, std::size_t end) {
    std::uint64_t range_rows = 0;
    std::int64_t range_sum = 0;
    ProcessRange(query, bound, dim_tables, begin, end, &range_rows,
                 &range_sum);
    total_rows.fetch_add(range_rows, std::memory_order_relaxed);
    total_sum.fetch_add(range_sum, std::memory_order_relaxed);
  };
  std::vector<exec::ProcessorGroup> groups;
  groups.push_back(
      {"CPU", std::max<std::size_t>(1, options.workers), 1, work});
  groups.push_back({"GPU", 1, exec::kDefaultGpuBatchMorsels, work});
  const std::vector<exec::GroupStats> group_stats = exec::RunHeterogeneous(
      rows, options.morsel_tuples, std::move(groups), options.injector);

  std::size_t processed = 0;
  for (const exec::GroupStats& group : group_stats) {
    processed += group.tuples;
    report->failover_tuples += group.failover_tuples;
    if (group.failed) {
      reasons.push_back("processor group '" + group.name +
                        "' stalled; its morsels failed over");
    }
  }
  if (processed != rows) {
    return Status::Unavailable(
        "all processor groups failed; " + std::to_string(rows - processed) +
        " tuples unprocessed");
  }

  report->result = QueryResult{total_rows.load(), total_sum.load()};
  report->used_gpu = true;
  if (!reasons.empty()) {
    report->degraded = true;
    for (std::size_t i = 0; i < reasons.size(); ++i) {
      if (i > 0) report->degradation_reason += "; ";
      report->degradation_reason += reasons[i];
    }
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> RunFused(const Query& query, std::size_t workers) {
  PUMP_RETURN_NOT_OK(ValidateQuery(query));
  const Table& fact = *query.fact;

  // Resolve columns up front so the hot loop does no map lookups.
  BoundColumns bound;
  PUMP_ASSIGN_OR_RETURN(const auto* measure,
                        fact.Column(query.measure_column));
  bound.measure = measure->data();
  for (const Filter& filter : query.filters) {
    PUMP_ASSIGN_OR_RETURN(const auto* column, fact.Column(filter.column));
    bound.filter_columns.push_back(column->data());
  }
  std::vector<std::unique_ptr<DimTable>> dim_tables;
  for (const JoinClause& join : query.joins) {
    PUMP_ASSIGN_OR_RETURN(const auto* column,
                          fact.Column(join.fact_key_column));
    bound.key_columns.push_back(column->data());
    PUMP_ASSIGN_OR_RETURN(auto table, BuildDimensionTable(join));
    dim_tables.push_back(std::move(table));
  }

  // Morsel-parallel scan -> semi-join probes -> aggregate, with
  // hierarchical claiming: workers sub-slice privately claimed chunks and
  // steal unfinished chunks at the tail.
  workers = std::max<std::size_t>(1, workers);
  exec::WorkStealingDispatcher dispatcher(
      fact.rows(), exec::kDefaultMorselTuples, workers);
  std::atomic<std::uint64_t> total_rows{0};
  std::atomic<std::int64_t> total_sum{0};
  exec::ParallelFor(workers, [&](std::size_t w) {
    std::uint64_t rows = 0;
    std::int64_t sum = 0;
    while (auto morsel = dispatcher.Next(w)) {
      ProcessRange(query, bound, dim_tables, morsel->begin, morsel->end,
                   &rows, &sum);
    }
    total_rows.fetch_add(rows, std::memory_order_relaxed);
    total_sum.fetch_add(sum, std::memory_order_relaxed);
  });
  return QueryResult{total_rows.load(), total_sum.load()};
}

Result<ExecReport> RunResilientFused(const Query& query,
                                     const ExecOptions& options) {
  ExecReport report;
  if (options.gpu_plan) {
    const Status gpu_status = RunGpuPlan(query, options, &report);
    if (gpu_status.ok()) return report;
    // Unrecoverable GPU-path fault: degrade to the CPU plan (rung 3).
    // Validation errors reproduce identically below, so they still
    // surface to the caller as errors.
    report = ExecReport{};
    report.degraded = true;
    report.degradation_reason =
        "GPU plan failed (" + gpu_status.ToString() +
        "); fell back to CPU plan";
  }
  PUMP_ASSIGN_OR_RETURN(QueryResult result,
                        RunFused(query, options.workers));
  report.result = result;
  report.used_gpu = false;
  return report;
}

}  // namespace pump::engine::legacy
