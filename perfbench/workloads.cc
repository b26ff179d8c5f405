#include "workloads.h"

#include <algorithm>
#include <utility>

#include "data/generator.h"
#include "data/tpch.h"
#include "oracle.h"

namespace perfbench {

namespace {

using pump::engine::Query;
using pump::plan::PlacementPolicy;

// Independent generator streams per table, all derived from one seed.
constexpr std::uint64_t kQ6Stream = 0x51;
constexpr std::uint64_t kDimStream = 0xd1;
constexpr std::uint64_t kAttrStream = 0xa7;
constexpr std::uint64_t kFactStream = 0xfa;
constexpr std::uint64_t kClientStream = 0xc1;

// Star variants differ only in the dimension-filter literal
// (`d_attr < kStarLiteralBase + v`), so each is its own build-cache key
// and all cost the same to build and probe.
constexpr std::size_t kStarVariants = 32;
constexpr double kStarZipfExponent = 1.0;
constexpr std::int64_t kStarAttrDomain = 1000;
constexpr std::int64_t kStarLiteralBase = 480;

void GenerateStar(std::size_t rows, std::uint64_t seed, Dataset* out) {
  using pump::data::Relation64;
  // Dimension: dense unique keys in shuffled order, plus a uniform
  // attribute column the variants filter on.
  Relation64 dim = pump::data::GenerateInner<std::int64_t, std::int64_t>(
      rows, seed ^ kDimStream);
  Relation64 attr = pump::data::GenerateOuterUniform<std::int64_t,
                                                     std::int64_t>(
      rows, kStarAttrDomain, seed ^ kAttrStream);
  (void)out->star_dim.AddColumn("d_key", std::move(dim.keys));
  (void)out->star_dim.AddColumn("d_attr", std::move(attr.keys));
  // Fact: as many rows as the dimension (build:probe 1:1), one uniform
  // foreign key each; the payload (row number) is the measure.
  Relation64 fact = pump::data::GenerateOuterUniform<std::int64_t,
                                                     std::int64_t>(
      rows, rows, seed ^ kFactStream);
  (void)out->star_fact.AddColumn("f_key", std::move(fact.keys));
  (void)out->star_fact.AddColumn("f_measure", std::move(fact.payloads));

  for (std::size_t v = 0; v < kStarVariants; ++v) {
    Query query;
    query.fact = &out->star_fact;
    pump::engine::JoinClause join;
    join.fact_key_column = "f_key";
    join.dimension = &out->star_dim;
    join.dim_key_column = "d_key";
    join.dim_filter = {"d_attr", pump::ops::CompareOp::kLt,
                       kStarLiteralBase + static_cast<std::int64_t>(v)};
    join.has_dim_filter = true;
    query.joins.push_back(join);
    query.measure_column = "f_measure";
    out->mix.push_back({"star", std::move(query), {}});
  }
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"ssb-cpu-c1", DataKind::kSsbWithQ6, 1, 2, PlacementPolicy::kCpuOnly,
       {false, true, 0.0, 0.0}},
      {"ssb-gpu-c4", DataKind::kSsb, 4, 1, PlacementPolicy::kGpuPreferred,
       {true, false, 0.0, 0.0}},
      {"star-build-zipf", DataKind::kStar, 2, 2, PlacementPolicy::kCpuOnly,
       {false, true, 0.3, 0.7}},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<Dataset> Generate(const WorkloadSpec& spec,
                                  std::size_t rows, std::uint64_t seed) {
  auto dataset = std::make_unique<Dataset>();
  if (spec.data == DataKind::kStar) {
    GenerateStar(rows, seed, dataset.get());
    return dataset;
  }
  dataset->ssb = std::make_unique<pump::engine::SsbDatabase>(
      pump::engine::SsbDatabase::Generate(rows, seed));
  for (pump::engine::NamedQuery& named :
       pump::engine::SsbSuite(*dataset->ssb)) {
    dataset->mix.push_back({named.name, std::move(named.query), {}});
  }
  if (spec.data == DataKind::kSsbWithQ6) {
    dataset->q6 = std::make_unique<pump::plan::Q6PlanInput>(
        pump::plan::Q6PlanInput::From(pump::data::GenerateLineitemQ6(
            rows, seed ^ kQ6Stream)));
    dataset->mix.push_back({"tpch-q6", dataset->q6->MakeQuery(), {}});
  }
  return dataset;
}

pump::Status FillExpected(Dataset* dataset) {
  Oracle oracle;
  for (MixQuery& entry : dataset->mix) {
    PUMP_ASSIGN_OR_RETURN(entry.expected, oracle.Evaluate(entry.query));
  }
  return pump::Status::OK();
}

pump::plan::CompileOptions CompileOptionsFor(const WorkloadSpec& spec) {
  pump::plan::CompileOptions options;
  options.policy = spec.policy;
  return options;
}

pump::server::EngineOptions EngineOptionsFor(const WorkloadSpec& spec,
                                             const Dataset& dataset) {
  const pump::plan::CompileOptions compile = CompileOptionsFor(spec);
  pump::server::EngineOptions options;
  options.session_threads = spec.clients;
  // A closed loop never has more than `clients` queries in flight, so
  // this queue never sheds.
  options.queue_capacity = std::max<std::size_t>(8, 2 * spec.clients);
  options.policy = compile.policy;
  if (spec.data == DataKind::kStar) {
    // Room for kStarCachedTables variant tables (all variants have the
    // same modelled size), so the Zipf tail misses and evicts.
    pump::Result<pump::plan::PhysicalPlan> plan =
        pump::plan::Compile(dataset.mix.front().query, compile);
    const std::uint64_t table_bytes =
        plan.ok() && !plan.value().builds.empty()
            ? plan.value().builds.front().table_bytes
            : 0;
    options.cache_capacity_bytes =
        table_bytes * kStarCachedTables + table_bytes / 2;
  }
  return options;
}

RequestPicker::RequestPicker(const WorkloadSpec& spec,
                             const Dataset& dataset, std::uint64_t seed,
                             std::size_t client)
    : zipf_(spec.data == DataKind::kStar),
      size_(dataset.mix.size()),
      next_(client % std::max<std::size_t>(1, dataset.mix.size())),
      rng_(seed ^ (kClientStream + client)),
      zipf_gen_(std::max<std::size_t>(1, dataset.mix.size()),
                kStarZipfExponent) {}

std::size_t RequestPicker::Next() {
  if (zipf_) return static_cast<std::size_t>(zipf_gen_.Next(rng_) - 1);
  const std::size_t pick = next_;
  next_ = (next_ + 1) % size_;
  return pick;
}

}  // namespace perfbench
