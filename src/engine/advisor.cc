#include "engine/advisor.h"

#include <algorithm>

#include "sim/access_path.h"
#include "sim/overlap.h"

namespace pump::engine {

QueryStats StatsFromQuery(const Query& query, double scale) {
  QueryStats stats;
  if (query.fact == nullptr) return stats;
  stats.fact_rows = static_cast<double>(query.fact->rows()) * scale;
  // Touched fact columns: filters + join keys + measure, 8 B each.
  stats.fact_bytes_per_row =
      8.0 * (query.filters.size() + query.joins.size() + 1);
  // Without per-column statistics assume filters keep everything — the
  // conservative planner default.
  stats.filter_selectivity = 1.0;
  for (const JoinClause& join : query.joins) {
    stats.dimension_rows.push_back(
        static_cast<double>(join.dimension->rows()) * scale);
  }
  return stats;
}

Advisor::Advisor(const hw::SystemProfile* profile)
    : profile_(profile), nopa_(profile), transfer_model_(profile) {}

Result<Seconds> Advisor::Predict(
    const QueryStats& stats, hw::DeviceId device,
    transfer::TransferMethod method, hw::MemoryNodeId data_location,
    std::vector<join::HashTablePlacement>* placements) const {
  const hw::Topology& topo = profile_->topology;
  const hw::DeviceSpec& dev = topo.device(device);
  const bool is_gpu = dev.kind == hw::DeviceKind::kGpu;

  // Ingest bandwidth for the fact scan.
  BytesPerSecond ingest;
  if (!is_gpu || device == data_location) {
    ingest = sim::MustResolve(topo, device, data_location).seq_bw;
  } else {
    PUMP_RETURN_NOT_OK(transfer_model_.Validate(
        method, device, data_location,
        transfer::TraitsOf(method).required_memory));
    PUMP_ASSIGN_OR_RETURN(ingest, transfer_model_.IngestBandwidth(
                                      method, device, data_location));
  }
  const Seconds scan_s =
      Bytes(stats.fact_rows * stats.fact_bytes_per_row) / ingest;

  // Per-join build and probe, with Fig. 11 placement per table: GPU
  // memory while the tables fit (leaving 1 GiB working space), spilling
  // the largest tables first.
  const std::uint64_t gpu_capacity =
      is_gpu ? topo.memory(device).capacity.u64() : 0;
  std::uint64_t gpu_used = 1ull << 30;  // Reserved working space.

  Seconds build_s;
  Seconds lookups_s;
  const double surviving = stats.fact_rows * stats.filter_selectivity;
  for (double dim_rows : stats.dimension_rows) {
    data::WorkloadSpec w;
    w.key_bytes = 8;
    w.payload_bytes = 8;
    w.r_tuples = static_cast<std::uint64_t>(std::max(1.0, dim_rows));
    w.s_tuples = 1;

    join::HashTablePlacement placement;
    if (!is_gpu) {
      placement = join::HashTablePlacement::Single(device);
    } else if (gpu_used + w.hash_table_bytes() <= gpu_capacity) {
      placement = join::HashTablePlacement::Single(device);
      gpu_used += w.hash_table_bytes();
    } else {
      const double fraction =
          gpu_capacity > gpu_used
              ? static_cast<double>(gpu_capacity - gpu_used) /
                    static_cast<double>(w.hash_table_bytes())
              : 0.0;
      placement = join::HashTablePlacement::Hybrid(device, data_location,
                                                   fraction);
      gpu_used = gpu_capacity;
    }
    if (placements != nullptr) placements->push_back(placement);

    build_s += dim_rows / nopa_.InsertRate(device, placement, w);
    lookups_s +=
        surviving / nopa_.HashTableAccessRate(device, placement, w);
  }

  const Seconds compute_s = stats.fact_rows / dev.tuple_compute_rate;
  const double p =
      is_gpu ? sim::kGpuOverlapExponent : sim::kCpuOverlapExponent;
  return build_s + sim::OverlapTime({scan_s, lookups_s, compute_s}, p) +
         dev.dispatch_latency;
}

Result<PlanChoice> Advisor::Recommend(const QueryStats& stats,
                                      hw::MemoryNodeId data_location) const {
  const hw::Topology& topo = profile_->topology;
  PlanChoice best;
  bool have_best = false;

  for (std::size_t d = 0; d < topo.device_count(); ++d) {
    const auto device = static_cast<hw::DeviceId>(d);
    const bool is_gpu =
        topo.device(device).kind == hw::DeviceKind::kGpu;
    // CPUs pull directly; GPUs use the shared pull-method rule.
    transfer::TransferMethod method = transfer::TransferMethod::kCoherence;
    if (is_gpu) {
      PUMP_ASSIGN_OR_RETURN(
          method, transfer::PullMethodFor(topo, device, data_location));
    }
    std::vector<join::HashTablePlacement> placements;
    Result<Seconds> predicted =
        Predict(stats, device, method, data_location, &placements);
    if (!predicted.ok()) continue;
    if (!have_best || predicted.value() < best.predicted_seconds) {
      best.device = device;
      best.method = method;
      best.join_placements = std::move(placements);
      best.predicted_seconds = predicted.value();
      best.rationale = std::string(topo.device(device).name) + " via " +
                       transfer::TransferMethodToString(method);
      have_best = true;
    }
  }
  if (!have_best) {
    return Status::NotFound("no device can execute this query");
  }
  return best;
}

}  // namespace pump::engine
