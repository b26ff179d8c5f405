#include "plan/dump.h"

#include <sstream>

namespace pump::plan {

namespace {

/// Minimal JSON string escaping (column names and reasons are plain
/// identifiers/prose, but quoting must still be safe).
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void AppendDeviceSet(const DeviceSet& devices, std::ostringstream* out) {
  *out << "[";
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (i > 0) *out << ",";
    *out << devices[i];
  }
  *out << "]";
}

void AppendOperator(const Operator& op, std::ostringstream* out) {
  *out << "{\"op\":\"" << ToString(op.kind) << "\",\"column\":\""
       << Escape(op.column) << "\"";
  switch (op.kind) {
    case OpKind::kScanFilter:
      *out << ",\"cmp\":\"" << ToString(op.op) << "\",\"literal\":"
           << op.literal;
      break;
    case OpKind::kProbe:
      *out << ",\"build\":" << op.build_index;
      break;
    case OpKind::kAggregate:
      break;
  }
  *out << "}";
}

}  // namespace

std::string ToJson(const PhysicalPlan& plan, const std::string& query_name) {
  std::ostringstream out;
  out << "{\"query\":\"" << Escape(query_name) << "\",";
  out << "\"shape\":{\"fact_rows\":" << plan.shape.fact_rows
      << ",\"filters\":" << plan.shape.filters
      << ",\"joins\":" << plan.shape.joins << "},";
  out << "\"rationale\":\"" << Escape(plan.rationale) << "\",";
  out << "\"pipelines\":[";
  for (std::size_t i = 0; i < plan.builds.size(); ++i) {
    const BuildPipeline& build = plan.builds[i];
    if (i > 0) out << ",";
    out << "{\"name\":\"build[" << i << "]\",\"type\":\"build\""
        << ",\"key_column\":\"" << Escape(build.key_column) << "\""
        << ",\"dimension_rows\":" << build.keys.rows
        << ",\"key_min\":" << build.keys.min_key
        << ",\"key_max\":" << build.keys.max_key
        << ",\"key_density\":" << build.keys.density
        << ",\"hash_table\":\"" << ToString(build.table_kind) << "\""
        << ",\"placement\":\"" << ToString(build.placement) << "\""
        << ",\"device_set\":";
    AppendDeviceSet(build.device_set, &out);
    out << ",\"table_bytes\":" << build.table_bytes
        << ",\"modelled_cost_s\":" << build.modelled_cost_s << "}";
  }
  if (!plan.builds.empty()) out << ",";
  out << "{\"name\":\"probe\",\"type\":\"probe\""
      << ",\"placement\":\"" << ToString(plan.probe.placement) << "\""
      << ",\"device_set\":";
  AppendDeviceSet(plan.probe.device_set, &out);
  if (plan.probe.placement != PipelinePlacement::kCpu) {
    out << ",\"ingest\":\""
        << transfer::TransferMethodToString(plan.probe.ingest) << "\"";
  }
  out << ",\"modelled_cost_s\":" << plan.probe.modelled_cost_s
      << ",\"operators\":[";
  for (std::size_t i = 0; i < plan.probe.ops.size(); ++i) {
    if (i > 0) out << ",";
    AppendOperator(plan.probe.ops[i], &out);
  }
  out << "]}],";
  out << "\"shard\":{\"devices\":";
  AppendDeviceSet(plan.shard.devices, &out);
  out << ",\"partitions\":" << plan.shard.shard_count() << "},";
  out << "\"exchange\":{\"modelled_cost_s\":"
      << plan.exchange.modelled_cost_s << ",\"routes\":[";
  for (std::size_t i = 0; i < plan.exchange.routes.size(); ++i) {
    const ExchangeRoute& route = plan.exchange.routes[i];
    if (i > 0) out << ",";
    out << "{\"src\":" << route.src << ",\"dst\":" << route.dst
        << ",\"hops\":" << route.hops
        << ",\"direct\":" << (route.direct ? "true" : "false")
        << ",\"bottleneck_gib_s\":" << route.bottleneck_gib_s << "}";
  }
  out << "]}}";
  return out.str();
}

}  // namespace pump::plan
