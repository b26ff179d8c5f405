// Tests of the physical-plan IR: the golden equivalence suite (every SSB
// query and TPC-H Q6 must be bit-identical through the preserved fused
// path and through the plan IR, across worker counts and under injected
// faults), the compiler's hash-table/placement choices, compile-time
// validation with query-shape diagnostics, the structural plan
// self-check, build-pipeline caching across the degradation ladder, the
// JSON dump, the block probe kernel against a tuple-at-a-time
// reference, the parallel dimension-table build against a std::set
// oracle, and the tables' memoized key ranges the compiler plans from.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/tpch.h"
#include "engine/executor.h"
#include "engine/legacy_fused.h"
#include "engine/ssb.h"
#include "engine/table.h"
#include "fault/fault_injector.h"
#include "gtest/gtest.h"
#include "hw/system_profile.h"
#include "hw/topology.h"
#include "obs/metrics.h"
#include "ops/q6.h"
#include "plan/compiler.h"
#include "plan/dump.h"
#include "plan/executor.h"
#include "plan/operators.h"
#include "plan/plan.h"
#include "plan/q6_bridge.h"

namespace pump::plan {
namespace {

// ---------------------------------------------------------------------
// Golden equivalence: legacy fused path vs plan IR.

/// One fault scenario of the golden suite. `Arm` configures a fresh
/// injector; both paths get their own injector with the same seed, so
/// they observe the identical deterministic fault schedule.
struct FaultScenario {
  const char* name;
  std::uint64_t seed;  // 0 = no injector.
  void (*arm)(fault::FaultInjector*);
  void (*tune)(engine::ExecOptions*);
};

void ArmTransientTransfer(fault::FaultInjector* injector) {
  fault::FaultSpec spec;
  spec.probability = 0.2;
  injector->Arm(fault::kTransferChunk, spec);
}

void TuneTransientTransfer(engine::ExecOptions* options) {
  options->chunk_bytes = 8 * 1024;
  options->retry.max_attempts = 30;
}

void ArmDeviceOom(fault::FaultInjector* injector) {
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.code = StatusCode::kResourceExhausted;
  injector->Arm(fault::kAllocDevice, spec);
}

void ArmGroupStall(fault::FaultInjector* injector) {
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.after_hits = 2;
  spec.max_fires = 1;
  injector->Arm(fault::kSchedWorkerStall, spec);
}

void TuneGroupStall(engine::ExecOptions* options) {
  options->morsel_tuples = 500;
}

const FaultScenario kScenarios[] = {
    {"fault_free", 0, nullptr, nullptr},
    {"transient_transfer", 51, ArmTransientTransfer, TuneTransientTransfer},
    {"device_oom", 52, ArmDeviceOom, nullptr},
    {"group_stall", 53, ArmGroupStall, TuneGroupStall},
};

class GoldenEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new engine::SsbDatabase(engine::SsbDatabase::Generate(20'000, 17));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static const engine::SsbDatabase* db_;
};

const engine::SsbDatabase* GoldenEquivalenceTest::db_ = nullptr;

TEST_F(GoldenEquivalenceTest, SsbSuiteMatchesAcrossPathsWorkersAndFaults) {
  for (const engine::NamedQuery& named : engine::SsbSuite(*db_)) {
    const engine::QueryResult reference =
        engine::Executor::Run(named.query, 2).value();
    for (const std::size_t workers : {1u, 2u, 4u}) {
      for (const FaultScenario& scenario : kScenarios) {
        SCOPED_TRACE(std::string(named.name) +
                     " workers=" + std::to_string(workers) + " " +
                     scenario.name);
        engine::ExecOptions options;
        options.workers = workers;
        options.morsel_tuples = 1'000;
        if (scenario.tune != nullptr) scenario.tune(&options);

        fault::FaultInjector legacy_injector(scenario.seed);
        engine::ExecOptions legacy_options = options;
        legacy_options.legacy_fused_for_test = true;
        if (scenario.arm != nullptr) {
          scenario.arm(&legacy_injector);
          legacy_options.injector = &legacy_injector;
        }
        auto legacy =
            engine::Executor::RunResilient(named.query, legacy_options);
        ASSERT_TRUE(legacy.ok()) << legacy.status();

        fault::FaultInjector plan_injector(scenario.seed);
        engine::ExecOptions plan_options = options;
        if (scenario.arm != nullptr) {
          scenario.arm(&plan_injector);
          plan_options.injector = &plan_injector;
        }
        auto via_plan =
            engine::Executor::RunResilient(named.query, plan_options);
        ASSERT_TRUE(via_plan.ok()) << via_plan.status();

        // Bit-identical results, and the same ladder outcome.
        EXPECT_EQ(via_plan.value().result, legacy.value().result);
        EXPECT_EQ(via_plan.value().result, reference);
        EXPECT_EQ(via_plan.value().used_gpu, legacy.value().used_gpu);
        EXPECT_EQ(via_plan.value().degraded, legacy.value().degraded);
      }
    }
  }
}

TEST_F(GoldenEquivalenceTest, PlainRunMatchesLegacyFused) {
  for (const engine::NamedQuery& named : engine::SsbSuite(*db_)) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(named.name) +
                   " workers=" + std::to_string(workers));
      const auto fused = engine::legacy::RunFused(named.query, workers);
      ASSERT_TRUE(fused.ok()) << fused.status();
      const auto via_plan = engine::Executor::Run(named.query, workers);
      ASSERT_TRUE(via_plan.ok()) << via_plan.status();
      EXPECT_EQ(via_plan.value(), fused.value());
    }
  }
}

TEST(Q6EquivalenceTest, PlanPathMatchesEveryQ6Kernel) {
  const data::LineitemQ6 lineitem = data::GenerateLineitemQ6(50'000, 7);
  const ops::Q6Result branching = ops::RunQ6Branching(lineitem);
  const ops::Q6Result predicated = ops::RunQ6Predicated(lineitem);
  ASSERT_EQ(branching, predicated);

  const Q6PlanInput input = Q6PlanInput::From(lineitem);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto via_plan = RunQ6Plan(input, workers);
    ASSERT_TRUE(via_plan.ok()) << via_plan.status();
    EXPECT_EQ(via_plan.value(), branching);
    EXPECT_EQ(via_plan.value(),
              ops::RunQ6BranchingParallel(lineitem, workers));
  }
}

// ---------------------------------------------------------------------
// In-place ingest: a GPU-side probe reads the fact columns through the
// plan's pull method (Coherence on NVLink 2.0, Zero-Copy on PCI-e) and
// must equal the CPU-only plan bit for bit, also while transient chunk
// faults are retried.

TEST_F(GoldenEquivalenceTest, GpuProbeReadsInPlaceAndMatchesCpuPlan) {
  const Q6PlanInput q6 =
      Q6PlanInput::From(data::GenerateLineitemQ6(50'000, 7));
  std::vector<engine::NamedQuery> queries = engine::SsbSuite(*db_);
  queries.push_back({"tpch-q6", q6.MakeQuery()});
  const std::pair<hw::SystemProfile, transfer::TransferMethod> kProfiles[] =
      {{hw::Ac922Profile(), transfer::TransferMethod::kCoherence},
       {hw::XeonProfile(), transfer::TransferMethod::kZeroCopy}};
  for (const auto& [profile, method] : kProfiles) {
    for (const engine::NamedQuery& named : queries) {
      SCOPED_TRACE(profile.name + " " + named.name);
      CompileOptions cpu_options;
      cpu_options.profile = &profile;
      const auto cpu_plan = Compile(named.query, cpu_options);
      ASSERT_TRUE(cpu_plan.ok()) << cpu_plan.status();
      CompileOptions gpu_options = cpu_options;
      gpu_options.policy = PlacementPolicy::kGpuPreferred;
      const auto gpu_plan = Compile(named.query, gpu_options);
      ASSERT_TRUE(gpu_plan.ok()) << gpu_plan.status();
      ASSERT_NE(gpu_plan.value().probe.placement, PipelinePlacement::kCpu);
      EXPECT_EQ(gpu_plan.value().probe.ingest, method);

      engine::ExecOptions options;
      options.workers = 2;
      options.morsel_tuples = 1'000;
      const auto reference = ExecutePlan(cpu_plan.value(), options);
      ASSERT_TRUE(reference.ok()) << reference.status();
      const auto clean = ExecutePlan(gpu_plan.value(), options);
      ASSERT_TRUE(clean.ok()) << clean.status();
      EXPECT_EQ(clean.value().result, reference.value().result);
      EXPECT_TRUE(clean.value().used_gpu);
      EXPECT_EQ(clean.value().pipelines.back().ingest,
                transfer::TransferMethodToString(method));

      fault::FaultInjector injector(61);
      ArmTransientTransfer(&injector);
      TuneTransientTransfer(&options);
      options.injector = &injector;
      const auto faulty = ExecutePlan(gpu_plan.value(), options);
      ASSERT_TRUE(faulty.ok()) << faulty.status();
      EXPECT_EQ(faulty.value().result, reference.value().result);
      EXPECT_TRUE(faulty.value().used_gpu);
      EXPECT_GT(faulty.value().transfer_retries, 0u);
    }
  }
}

// ---------------------------------------------------------------------
// Compiler: hash-table selection and placements.

class CompilerTest : public ::testing::Test {
 protected:
  // The compiled plan holds a pointer to its query, so the queries must
  // outlive every plan a test compiles — they live in the fixture.
  void SetUp() override {
    db_ = engine::SsbDatabase::Generate(5'000, 3);
    q1_ = engine::SsbQ1(db_);
    q2_ = engine::SsbQ2(db_);
    q3_ = engine::SsbQ3(db_);
  }

  engine::SsbDatabase db_;
  engine::Query q1_;
  engine::Query q2_;
  engine::Query q3_;
};

TEST_F(CompilerTest, DenseKeyDimensionSelectsPerfectHashTable) {
  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  const auto plan = Compile(q1_, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan.value().builds.size(), 1u);
  const BuildPipeline& build = plan.value().builds[0];
  // d_datekey is a dense [0, 2555) domain.
  EXPECT_EQ(build.table_kind, HashTableKind::kPerfect);
  EXPECT_GE(build.keys.density, 0.5);
  EXPECT_EQ(build.placement, PipelinePlacement::kGpu);
  EXPECT_EQ(plan.value().probe.placement,
            PipelinePlacement::kHeterogeneous);
  EXPECT_GT(build.table_bytes, 0u);
}

TEST_F(CompilerTest, DenseKeysBeyondGpuBudgetSelectHybrid) {
  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  options.gpu_budget_bytes = 1024;  // Far below any date table.
  const auto plan = Compile(q1_, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan.value().builds.size(), 1u);
  EXPECT_EQ(plan.value().builds[0].table_kind, HashTableKind::kHybrid);
}

TEST_F(CompilerTest, SparseKeyDimensionSelectsLinearProbing) {
  engine::Table fact;
  ASSERT_TRUE(fact.AddColumn("f_key", {10, 900'000, 10, 7}).ok());
  ASSERT_TRUE(fact.AddColumn("f_measure", {1, 2, 3, 4}).ok());
  engine::Table dim;
  ASSERT_TRUE(dim.AddColumn("d_key", {10, 900'000}).ok());

  engine::Query query;
  query.fact = &fact;
  query.measure_column = "f_measure";
  engine::JoinClause join;
  join.fact_key_column = "f_key";
  join.dimension = &dim;
  join.dim_key_column = "d_key";
  query.joins.push_back(join);

  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  const auto plan = Compile(query, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan.value().builds.size(), 1u);
  EXPECT_EQ(plan.value().builds[0].table_kind,
            HashTableKind::kLinearProbing);
  EXPECT_LT(plan.value().builds[0].keys.density, 0.5);

  // The sparse plan still executes correctly (rows 10, 10, and the
  // 900'000 match; 7 does not).
  const auto result = engine::Executor::Run(query, 2);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().rows, 3u);
  EXPECT_EQ(result.value().sum, 1 + 2 + 3);
}

TEST_F(CompilerTest, CpuOnlyPolicyPlacesEveryPipelineOnCpu) {
  const auto plan = Compile(q3_);  // Default: kCpuOnly.
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(plan.value().UsesGpu());
  EXPECT_EQ(plan.value().probe.placement, PipelinePlacement::kCpu);
  for (const BuildPipeline& build : plan.value().builds) {
    EXPECT_EQ(build.placement, PipelinePlacement::kCpu);
  }
}

TEST_F(CompilerTest, CostModelPolicyRecordsRationaleAndCosts) {
  CompileOptions options;
  options.policy = PlacementPolicy::kCostModel;
  options.scale = 100.0;  // Paper-scale cardinalities for the model.
  const auto plan = Compile(q2_, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(plan.value().rationale.empty());
  EXPECT_GT(plan.value().probe.modelled_cost_s, 0.0);
  for (const BuildPipeline& build : plan.value().builds) {
    EXPECT_GT(build.modelled_cost_s, 0.0);
  }
  // Whatever the model picked must execute to the reference result.
  const auto report = ExecutePlan(plan.value(), {});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().result,
            engine::Executor::Run(engine::SsbQ2(db_), 2).value());
}

TEST_F(CompilerTest, ProbeOperatorsAreFiltersThenProbesThenAggregate) {
  const auto plan = Compile(q3_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::vector<Operator>& ops = plan.value().probe.ops;
  // Q3: one fact filter, three joins, one aggregate.
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops[0].kind, OpKind::kScanFilter);
  EXPECT_EQ(ops[1].kind, OpKind::kProbe);
  EXPECT_EQ(ops[2].kind, OpKind::kProbe);
  EXPECT_EQ(ops[3].kind, OpKind::kProbe);
  EXPECT_EQ(ops[4].kind, OpKind::kAggregate);
  EXPECT_EQ(ops[1].build_index, 0u);
  EXPECT_EQ(ops[2].build_index, 1u);
  EXPECT_EQ(ops[3].build_index, 2u);
}

// ---------------------------------------------------------------------
// Validation: exactly once, at compile time, with the query shape.

TEST_F(CompilerTest, ValidationErrorCarriesQueryShape) {
  engine::Query query = engine::SsbQ1(db_);
  query.measure_column = "no_such_column";
  const auto plan = Compile(query);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);
  EXPECT_NE(plan.status().ToString().find("query shape:"),
            std::string::npos);
  EXPECT_NE(plan.status().ToString().find("filters=3"), std::string::npos)
      << plan.status().ToString();

  // The facade surfaces the same compile-time error (not masked by any
  // fallback), shape included.
  engine::ExecOptions options;
  options.workers = 2;
  const auto report = engine::Executor::RunResilient(query, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
  EXPECT_NE(report.status().ToString().find("query shape:"),
            std::string::npos);
}

TEST_F(CompilerTest, NullFactTableFailsCompilation) {
  engine::Query query;
  query.measure_column = "m";
  const auto plan = Compile(query);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// ValidatePlan: structural self-check.

TEST_F(CompilerTest, ValidatePlanAcceptsCompiledPlans) {
  for (const engine::NamedQuery& named : engine::SsbSuite(db_)) {
    CompileOptions options;
    options.policy = PlacementPolicy::kGpuPreferred;
    const auto plan = Compile(named.query, options);
    ASSERT_TRUE(plan.ok()) << named.name << ": " << plan.status();
    EXPECT_TRUE(ValidatePlan(plan.value()).ok()) << named.name;
  }
}

TEST_F(CompilerTest, ValidatePlanRejectsStructuralCorruption) {
  const auto compiled = Compile(q1_);
  ASSERT_TRUE(compiled.ok());

  {  // Missing aggregate.
    PhysicalPlan plan = compiled.value();
    plan.probe.ops.pop_back();
    EXPECT_FALSE(ValidatePlan(plan).ok());
  }
  {  // Probe referencing a nonexistent build pipeline.
    PhysicalPlan plan = compiled.value();
    for (Operator& op : plan.probe.ops) {
      if (op.kind == OpKind::kProbe) op.build_index = 99;
    }
    EXPECT_FALSE(ValidatePlan(plan).ok());
  }
  {  // Perfect hash table over sparse keys.
    PhysicalPlan plan = compiled.value();
    plan.builds[0].keys.density = 0.1;
    plan.builds[0].table_kind = HashTableKind::kPerfect;
    EXPECT_FALSE(ValidatePlan(plan).ok());
  }
  {  // Operator stage ordering violated (aggregate before a probe).
    PhysicalPlan plan = compiled.value();
    std::swap(plan.probe.ops.front(), plan.probe.ops.back());
    EXPECT_FALSE(ValidatePlan(plan).ok());
  }
  {  // Build pipeline count out of sync with the query's joins.
    PhysicalPlan plan = compiled.value();
    plan.builds.clear();
    EXPECT_FALSE(ValidatePlan(plan).ok());
  }
}

// ---------------------------------------------------------------------
// Build caching across the degradation ladder.

TEST_F(CompilerTest, ProbeFailureReusesCachedBuildsInsteadOfRebuilding) {
  const engine::Query query = engine::SsbQ3(db_);  // Three joins.
  const engine::QueryResult reference =
      engine::Executor::Run(query, 2).value();

  fault::FaultInjector injector(61);
  fault::FaultSpec spec;
  spec.probability = 1.0;  // Every pipeline's GPU stage fails.
  injector.Arm(fault::kPlanPipeline, spec);

  engine::ExecOptions options;
  options.workers = 2;
  options.morsel_tuples = 1'000;
  options.injector = &injector;
  const auto report = engine::Executor::RunResilient(query, options);
  ASSERT_TRUE(report.ok()) << report.status();

  // The probe pipeline lost its GPU placement, but the three dimension
  // hash tables were built exactly once and reused by the CPU
  // re-placement — the seed rebuilt them from scratch.
  EXPECT_FALSE(report.value().used_gpu);
  EXPECT_TRUE(report.value().degraded);
  EXPECT_EQ(report.value().dim_tables_built, 3u);
  EXPECT_EQ(report.value().dim_tables_reused, 3u);
  EXPECT_NE(report.value().degradation_reason.find("fell back to CPU"),
            std::string::npos);
  EXPECT_EQ(report.value().result, reference);
}

TEST_F(CompilerTest, GpuOomSpillDoesNotDiscardBuilds) {
  const engine::Query query = engine::SsbQ2(db_);  // Two joins.
  fault::FaultInjector injector(62);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.code = StatusCode::kResourceExhausted;
  injector.Arm(fault::kAllocDevice, spec);

  engine::ExecOptions options;
  options.workers = 2;
  options.injector = &injector;
  const auto report = engine::Executor::RunResilient(query, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report.value().used_gpu);  // Spill, not fallback.
  EXPECT_EQ(report.value().dim_tables_built, 2u);
  EXPECT_EQ(report.value().dim_tables_reused, 0u);
  EXPECT_EQ(report.value().result,
            engine::Executor::Run(query, 2).value());
}

TEST_F(CompilerTest, SingleGpuFootprintIsItsGpuPlacedBuildTables) {
  // A single-GPU probe reads the fact columns in place, so only the
  // GPU-resident hash tables count against the device budget.
  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  for (const engine::Query* query : {&q1_, &q2_, &q3_}) {
    const auto plan = Compile(*query, options);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_FALSE(plan.value().shard.active());
    ASSERT_NE(plan.value().probe.placement, PipelinePlacement::kCpu);
    std::uint64_t tables = 0;
    for (const BuildPipeline& build : plan.value().builds) {
      if (build.placement != PipelinePlacement::kCpu) {
        tables += build.table_bytes;
      }
    }
    EXPECT_GT(tables, 0u);
    EXPECT_EQ(EstimatedGpuFootprintBytes(plan.value()), tables);
    const auto per_device = EstimatedGpuFootprintPerDevice(plan.value());
    ASSERT_EQ(per_device.size(), 1u);
    EXPECT_EQ(per_device.begin()->second, tables);
  }
}

TEST_F(CompilerTest, ShardedFootprintChargesExchangedColumns) {
  const hw::SystemProfile ring = hw::NvlinkRingProfile(4);
  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  options.profile = &ring;
  options.shard_devices = ring.topology.DevicesOfKind(hw::DeviceKind::kGpu);
  const auto plan = Compile(q1_, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan.value().shard.active());
  std::uint64_t expected = plan.value().probe.ops.size() *
                           plan.value().shape.fact_rows *
                           sizeof(std::int64_t);
  for (const BuildPipeline& build : plan.value().builds) {
    expected += build.table_bytes;
  }
  EXPECT_EQ(EstimatedGpuFootprintBytes(plan.value()), expected);
  std::uint64_t per_device_total = 0;
  for (const auto& [device, bytes] :
       EstimatedGpuFootprintPerDevice(plan.value())) {
    per_device_total += bytes;
  }
  EXPECT_EQ(per_device_total, expected);
}

// ---------------------------------------------------------------------
// JSON dump.

TEST_F(CompilerTest, ToJsonDescribesPipelinesAndChoices) {
  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  const auto plan = Compile(q1_, options);
  ASSERT_TRUE(plan.ok());
  const std::string json = ToJson(plan.value(), "ssb-q1");
  EXPECT_NE(json.find("\"query\":\"ssb-q1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_table\":\"perfect\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"placement\":\"heterogeneous\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"op\":\"aggregate\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ingest\":\"Coherence\""), std::string::npos)
      << json;

  options.gpu_budget_bytes = 1024;
  const auto hybrid_plan = Compile(q1_, options);
  ASSERT_TRUE(hybrid_plan.ok());
  EXPECT_NE(ToJson(hybrid_plan.value(), "ssb-q1")
                .find("\"hash_table\":\"hybrid\""),
            std::string::npos);
}

TEST_F(CompilerTest, SaturatedDevicePoolDroppedFromShardSet) {
  const hw::SystemProfile ring = hw::NvlinkRingProfile(4);
  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  options.profile = &ring;
  options.shard_devices = ring.topology.DevicesOfKind(hw::DeviceKind::kGpu);
  options.gpu_budget_bytes = 1ull << 20;

  // Device 3's pool already holds more than the whole budget: it must be
  // dropped from the shard set; the other three shards proceed.
  std::map<hw::DeviceId, std::uint64_t> in_use{{3, 2ull << 20}};
  options.device_budget_in_use = &in_use;
  const auto plan = Compile(q2_, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value().shard.devices, (DeviceSet{1, 2, 4}));
  EXPECT_NE(plan.value().rationale.find("dropped from shard set"),
            std::string::npos)
      << plan.value().rationale;

  // Every pool saturated: the whole plan degrades to CPU.
  for (const hw::DeviceId device : options.shard_devices) {
    in_use[device] = 2ull << 20;
  }
  const auto cpu_plan = Compile(q2_, options);
  ASSERT_TRUE(cpu_plan.ok()) << cpu_plan.status();
  EXPECT_FALSE(cpu_plan.value().UsesGpu());
  EXPECT_TRUE(cpu_plan.value().shard.devices.empty());
}

// ---------------------------------------------------------------------
// Sharded execution over N-GPU meshes: every sharded plan must stay
// bit-identical to the single-device plan, across mesh shapes, worker
// counts, and shard-level device loss.

class ShardedMeshTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new engine::SsbDatabase(engine::SsbDatabase::Generate(20'000, 17));
    ring4_ = new hw::SystemProfile(hw::NvlinkRingProfile(4));
    crossbar8_ = new hw::SystemProfile(hw::NvSwitchCrossbarProfile(8));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete ring4_;
    delete crossbar8_;
    db_ = nullptr;
    ring4_ = nullptr;
    crossbar8_ = nullptr;
  }

  static CompileOptions ShardedOptions(const hw::SystemProfile* profile) {
    CompileOptions options;
    options.policy = PlacementPolicy::kGpuPreferred;
    if (profile != nullptr) {
      options.profile = profile;
      options.shard_devices =
          profile->topology.DevicesOfKind(hw::DeviceKind::kGpu);
    }
    return options;
  }

  static const engine::SsbDatabase* db_;
  static const hw::SystemProfile* ring4_;
  static const hw::SystemProfile* crossbar8_;
};

const engine::SsbDatabase* ShardedMeshTest::db_ = nullptr;
const hw::SystemProfile* ShardedMeshTest::ring4_ = nullptr;
const hw::SystemProfile* ShardedMeshTest::crossbar8_ = nullptr;

TEST_F(ShardedMeshTest, ShardedPlansMatchSingleDeviceAcrossMeshesAndWorkers) {
  const data::LineitemQ6 lineitem = data::GenerateLineitemQ6(20'000, 7);
  const Q6PlanInput q6_input = Q6PlanInput::From(lineitem);
  std::vector<std::pair<std::string, engine::Query>> queries;
  for (const engine::NamedQuery& named : engine::SsbSuite(*db_)) {
    queries.emplace_back(named.name, named.query);
  }
  queries.emplace_back("q6", q6_input.MakeQuery());

  struct Mesh {
    const char* name;
    const hw::SystemProfile* profile;
    std::size_t shards;
  };
  const Mesh meshes[] = {{"single", nullptr, 1},
                         {"ring-4", ring4_, 4},
                         {"crossbar-8", crossbar8_, 8}};

  for (const auto& [name, query] : queries) {
    const auto reference_plan = Compile(query, ShardedOptions(nullptr));
    ASSERT_TRUE(reference_plan.ok()) << name << ": "
                                     << reference_plan.status();
    engine::ExecOptions reference_exec;
    reference_exec.workers = 2;
    const auto reference = ExecutePlan(reference_plan.value(),
                                       reference_exec);
    ASSERT_TRUE(reference.ok()) << name << ": " << reference.status();

    for (const Mesh& mesh : meshes) {
      const auto plan = Compile(query, ShardedOptions(mesh.profile));
      ASSERT_TRUE(plan.ok()) << name << ": " << plan.status();
      if (mesh.profile != nullptr) {
        ASSERT_EQ(plan.value().shard.shard_count(), mesh.shards);
        EXPECT_TRUE(plan.value().shard.active());
      }
      for (const std::size_t workers : {1u, 2u, 4u}) {
        SCOPED_TRACE(name + std::string(" mesh=") + mesh.name +
                     " workers=" + std::to_string(workers));
        engine::ExecOptions exec;
        exec.workers = workers;
        const auto sharded = ExecutePlan(plan.value(), exec);
        ASSERT_TRUE(sharded.ok()) << sharded.status();
        EXPECT_EQ(sharded.value().result, reference.value().result);
        EXPECT_EQ(sharded.value().shards_replaced, 0u);
        EXPECT_TRUE(sharded.value().used_gpu);
        if (mesh.profile != nullptr) {
          // One exchange row plus one probe row per shard.
          EXPECT_EQ(sharded.value().shards.size(), mesh.shards + 1);
        }
      }
    }
  }
}

TEST_F(ShardedMeshTest, DeviceOomOnOneShardDegradesOnlyThatShard) {
  const data::LineitemQ6 lineitem = data::GenerateLineitemQ6(20'000, 7);
  const Q6PlanInput q6_input = Q6PlanInput::From(lineitem);
  const engine::Query query = q6_input.MakeQuery();

  const auto reference_plan = Compile(query, ShardedOptions(nullptr));
  ASSERT_TRUE(reference_plan.ok()) << reference_plan.status();
  engine::ExecOptions reference_exec;
  reference_exec.workers = 2;
  const auto reference = ExecutePlan(reference_plan.value(),
                                     reference_exec);
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (const hw::SystemProfile* profile : {ring4_, crossbar8_}) {
    SCOPED_TRACE(profile->name);
    const auto plan = Compile(query, ShardedOptions(profile));
    ASSERT_TRUE(plan.ok()) << plan.status();

    // Q6 has no build pipelines, so the plan.pipeline site sees one
    // "probe" hit then one "shard" hit per shard; after_hits=1 with one
    // allowed fire OOMs exactly the second shard's device admission.
    fault::FaultInjector injector(11);
    fault::FaultSpec spec;
    spec.probability = 1.0;
    spec.after_hits = 1;
    spec.max_fires = 1;
    spec.code = StatusCode::kResourceExhausted;
    injector.Arm(fault::kPlanPipeline, spec);

    engine::ExecOptions exec;
    exec.workers = 2;
    exec.injector = &injector;
    const auto sharded = ExecutePlan(plan.value(), exec);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    EXPECT_EQ(sharded.value().result, reference.value().result);
    EXPECT_EQ(sharded.value().shards_replaced, 1u);
    EXPECT_TRUE(sharded.value().used_gpu);
    EXPECT_TRUE(sharded.value().degraded);

    std::size_t cpu_shards = 0;
    for (const engine::PipelineOutcome& row : sharded.value().shards) {
      if (row.kind == "probe" && row.placement_used == "cpu") ++cpu_shards;
    }
    EXPECT_EQ(cpu_shards, 1u);
  }
}

TEST_F(ShardedMeshTest, ProbeFaultOnShardedPlanDescendsToCpu) {
  const data::LineitemQ6 lineitem = data::GenerateLineitemQ6(20'000, 7);
  const Q6PlanInput q6_input = Q6PlanInput::From(lineitem);
  const engine::Query query = q6_input.MakeQuery();

  const auto plan = Compile(query, ShardedOptions(ring4_));
  ASSERT_TRUE(plan.ok()) << plan.status();

  fault::FaultInjector injector(13);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 1;
  spec.code = StatusCode::kResourceExhausted;
  injector.Arm(fault::kPlanPipeline, spec);

  engine::ExecOptions exec;
  exec.workers = 2;
  exec.injector = &injector;
  const auto sharded = ExecutePlan(plan.value(), exec);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_FALSE(sharded.value().used_gpu);

  engine::ExecOptions clean_exec;
  clean_exec.workers = 2;
  const auto reference = ExecutePlan(plan.value(), clean_exec);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(sharded.value().result, reference.value().result);
}

TEST_F(ShardedMeshTest, ShardedDumpCarriesDeviceSetsAndExchange) {
  const engine::Query q2 = engine::SsbQ2(*db_);
  const auto plan = Compile(q2, ShardedOptions(ring4_));
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::string json = ToJson(plan.value(), "ssb-q2");
  EXPECT_NE(json.find("\"device_set\":[1,2,3,4]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"shard\":{\"devices\":[1,2,3,4],\"partitions\":4}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"exchange\":{\"modelled_cost_s\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"bottleneck_gib_s\":"), std::string::npos) << json;
  // 4 devices exchange over all 12 ordered pairs.
  std::size_t routes = 0;
  for (std::size_t pos = json.find("\"src\":"); pos != std::string::npos;
       pos = json.find("\"src\":", pos + 1)) {
    ++routes;
  }
  EXPECT_EQ(routes, 12u);

  // A single-device plan still records its one device; the shard
  // descriptor stays inactive (one partition, no exchange routes).
  const auto single = Compile(q2, ShardedOptions(nullptr));
  ASSERT_TRUE(single.ok());
  const std::string single_json = ToJson(single.value(), "ssb-q2");
  EXPECT_NE(single_json.find("\"shard\":{\"devices\":[2],\"partitions\":1}"),
            std::string::npos)
      << single_json;
  EXPECT_NE(single_json.find("\"routes\":[]"), std::string::npos)
      << single_json;
}


// ---------------------------------------------------------------------
// Probe kernel: ProcessRange/ProcessIndices against a tuple-at-a-time
// reference, bit for bit on rows and sum.

/// The reference pipeline: every tuple through the filters in order with
/// early exit, then the semi-join probes in order, then the aggregate.
void ReferenceTuple(const BoundProbe& bound, std::size_t i,
                    std::uint64_t* rows, std::int64_t* sum) {
  for (const BoundFilter& filter : bound.filters) {
    if (!ops::Compare(filter.op, filter.column[i], filter.literal)) return;
  }
  for (const BoundProbeStep& probe : bound.probes) {
    if (!probe.table->Contains(probe.keys[i])) return;
  }
  ++*rows;
  *sum += bound.measure[i];
}

class ProbeKernelTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kFactRows = 4'500;
  static constexpr std::int64_t kKeyDomain = 2'000;
  static constexpr std::size_t kColumns = 3;

  /// Seeded random fact columns (small filter domains, so every operator
  /// sees mixed selectivity; probe keys partly outside the dimension key
  /// domain and negative) and, per probe column, a perfect and a
  /// linear-probing table over the same random key subset.
  void Generate(std::uint32_t seed) {
    std::mt19937_64 rng(seed);
    measure_.resize(kFactRows);
    for (std::int64_t& value : measure_) {
      value = std::uniform_int_distribution<std::int64_t>(-1'000'000,
                                                          1'000'000)(rng);
    }
    for (std::size_t c = 0; c < kColumns; ++c) {
      filter_columns_[c].resize(kFactRows);
      for (std::int64_t& value : filter_columns_[c]) {
        value = std::uniform_int_distribution<std::int64_t>(0, 9)(rng);
      }
      key_columns_[c].resize(kFactRows);
      for (std::int64_t& value : key_columns_[c]) {
        value = std::uniform_int_distribution<std::int64_t>(
            -2, kKeyDomain + 8)(rng);
      }
      std::vector<std::int64_t> keys(kKeyDomain);
      std::iota(keys.begin(), keys.end(), 0);
      std::shuffle(keys.begin(), keys.end(), rng);
      keys.resize(kKeyDomain / (c + 2));
      const std::int64_t max_key = *std::max_element(keys.begin(), keys.end());
      dimensions_[c] = engine::Table();
      ASSERT_TRUE(dimensions_[c].AddColumn("key", std::move(keys)).ok());
      for (const HashTableKind kind :
           {HashTableKind::kPerfect, HashTableKind::kLinearProbing}) {
        BuildPipeline build;
        build.dimension = &dimensions_[c];
        build.key_column = "key";
        build.keys.max_key = max_key;
        build.table_kind = kind;
        auto table = DimensionTable::Build(build);
        ASSERT_TRUE(table.ok()) << table.status().ToString();
        tables_[c][kind == HashTableKind::kPerfect ? 0 : 1] =
            std::make_unique<DimensionTable>(std::move(table).value());
      }
    }
  }

  /// A pipeline with `filters` filters (the first compares with
  /// kAllOps[first_op], the rest step through the other operators) and
  /// `probes` probes whose table kinds alternate starting from
  /// `first_kind`.
  BoundProbe Bind(std::size_t filters, std::size_t first_op,
                  std::size_t probes, std::size_t first_kind) const {
    BoundProbe bound;
    bound.measure = measure_.data();
    for (std::size_t f = 0; f < filters; ++f) {
      bound.filters.push_back(
          BoundFilter{filter_columns_[f].data(),
                      kAllOps[(first_op + 2 * f) % kAllOps.size()],
                      static_cast<std::int64_t>(3 + f)});
    }
    for (std::size_t p = 0; p < probes; ++p) {
      bound.probes.push_back(BoundProbeStep{
          key_columns_[p].data(), tables_[p][(first_kind + p) % 2].get()});
    }
    return bound;
  }

  static void ExpectRangeMatches(const BoundProbe& bound, std::size_t begin,
                                 std::size_t end, const std::string& label) {
    std::uint64_t rows = 5;
    std::int64_t sum = -17;
    std::uint64_t want_rows = 5;
    std::int64_t want_sum = -17;
    ProcessRange(bound, begin, end, &rows, &sum);
    for (std::size_t i = begin; i < end; ++i) {
      ReferenceTuple(bound, i, &want_rows, &want_sum);
    }
    EXPECT_EQ(rows, want_rows) << label;
    EXPECT_EQ(sum, want_sum) << label;
  }

  static void ExpectIndicesMatch(const BoundProbe& bound,
                                 const std::vector<std::uint32_t>& indices,
                                 const std::string& label) {
    std::uint64_t rows = 5;
    std::int64_t sum = -17;
    std::uint64_t want_rows = 5;
    std::int64_t want_sum = -17;
    ProcessIndices(bound, indices.data(), indices.size(), &rows, &sum);
    for (const std::uint32_t i : indices) {
      ReferenceTuple(bound, i, &want_rows, &want_sum);
    }
    EXPECT_EQ(rows, want_rows) << label;
    EXPECT_EQ(sum, want_sum) << label;
  }

  static constexpr std::array<ops::CompareOp, 6> kAllOps = {
      ops::CompareOp::kLt, ops::CompareOp::kLe, ops::CompareOp::kEq,
      ops::CompareOp::kGe, ops::CompareOp::kGt, ops::CompareOp::kNe};
  static constexpr std::size_t kBegins[] = {0, 7, 1'100};
  static constexpr std::size_t kLengths[] = {0, 1, 1'023, 1'024, 1'025,
                                             3'000};

  std::vector<std::int64_t> measure_;
  std::array<std::vector<std::int64_t>, kColumns> filter_columns_;
  std::array<std::vector<std::int64_t>, kColumns> key_columns_;
  std::array<engine::Table, kColumns> dimensions_;
  std::array<std::array<std::unique_ptr<DimensionTable>, 2>, kColumns>
      tables_;
};

TEST_F(ProbeKernelTest, RangesMatchTupleAtATimeReference) {
  for (const std::uint32_t seed : {1u, 2u, 3u}) {
    Generate(seed);
    for (std::size_t filters = 0; filters <= kColumns; ++filters) {
      for (std::size_t probes = 0; probes <= kColumns; ++probes) {
        for (std::size_t o = 0; o < kAllOps.size(); ++o) {
          const BoundProbe bound = Bind(filters, o, probes, o % 2);
          for (const std::size_t begin : kBegins) {
            for (const std::size_t length : kLengths) {
              ExpectRangeMatches(
                  bound, begin, begin + length,
                  "seed " + std::to_string(seed) + " filters " +
                      std::to_string(filters) + " probes " +
                      std::to_string(probes) + " op " + std::to_string(o) +
                      " range [" + std::to_string(begin) + ", +" +
                      std::to_string(length) + ")");
            }
          }
        }
      }
    }
  }
}

TEST_F(ProbeKernelTest, AllFilteredAndUnfilteredRanges) {
  Generate(4);
  // A filter nothing passes, alone and in front of probes.
  for (std::size_t probes = 0; probes <= kColumns; ++probes) {
    BoundProbe bound = Bind(0, 0, probes, 0);
    bound.filters.push_back(BoundFilter{
        filter_columns_[0].data(), ops::CompareOp::kLt,
        std::numeric_limits<std::int64_t>::min()});
    std::uint64_t rows = 0;
    std::int64_t sum = 0;
    ProcessRange(bound, 0, kFactRows, &rows, &sum);
    EXPECT_EQ(rows, 0u);
    EXPECT_EQ(sum, 0);
    // A later filter that rejects everything the first one kept.
    bound = Bind(1, 0, probes, 1);
    bound.filters.push_back(BoundFilter{filter_columns_[0].data(),
                                        ops::CompareOp::kGe, 3});
    ExpectRangeMatches(bound, 0, kFactRows, "contradictory filters");
  }
  // No filters and no probes: every tuple qualifies.
  const BoundProbe everything = Bind(0, 0, 0, 0);
  std::uint64_t rows = 0;
  std::int64_t sum = 0;
  ProcessRange(everything, 3, kFactRows, &rows, &sum);
  EXPECT_EQ(rows, kFactRows - 3);
  EXPECT_EQ(sum, std::accumulate(measure_.begin() + 3, measure_.end(),
                                 std::int64_t{0}));
}

TEST_F(ProbeKernelTest, IndexListsMatchTupleAtATimeReference) {
  for (const std::uint32_t seed : {5u, 6u}) {
    Generate(seed);
    std::vector<std::uint32_t> all(kFactRows);
    std::iota(all.begin(), all.end(), 0u);
    std::mt19937_64 rng(seed);
    std::shuffle(all.begin(), all.end(), rng);
    for (std::size_t filters = 0; filters <= kColumns; ++filters) {
      for (std::size_t probes = 0; probes <= kColumns; ++probes) {
        for (std::size_t o = 0; o < kAllOps.size(); ++o) {
          const BoundProbe bound = Bind(filters, o, probes, o % 2);
          for (const std::size_t length : kLengths) {
            const std::vector<std::uint32_t> subset(all.begin(),
                                                    all.begin() + length);
            ExpectIndicesMatch(
                bound, subset,
                "seed " + std::to_string(seed) + " filters " +
                    std::to_string(filters) + " probes " +
                    std::to_string(probes) + " op " + std::to_string(o) +
                    " indices " + std::to_string(length));
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Dimension-table build: the dense-key bitset and the linear-probing
// table, built block-wise over parallel morsels, against a std::set
// oracle of the qualifying keys.

class DimensionTableBuildTest : public ::testing::Test {
 protected:
  /// Morsels of 700 rows: every multi-morsel dimension below spans >= 4
  /// morsels, and morsel edges fall inside 1024-row build blocks.
  static constexpr std::size_t kMorselTuples = 700;
  static constexpr std::size_t kWorkerCounts[] = {1, 2, 4};
  static constexpr HashTableKind kKinds[] = {HashTableKind::kPerfect,
                                             HashTableKind::kLinearProbing};
  static constexpr std::array<ops::CompareOp, 6> kAllOps = {
      ops::CompareOp::kLt, ops::CompareOp::kLe, ops::CompareOp::kEq,
      ops::CompareOp::kGe, ops::CompareOp::kGt, ops::CompareOp::kNe};

  /// Replaces the dimension with `keys` (shuffled by `seed`) and an
  /// attribute column uniform in [0, 10).
  void SetDimension(std::vector<std::int64_t> keys, std::uint32_t seed) {
    std::mt19937_64 rng(seed);
    std::shuffle(keys.begin(), keys.end(), rng);
    std::vector<std::int64_t> attr(keys.size());
    for (std::int64_t& value : attr) {
      value = std::uniform_int_distribution<std::int64_t>(0, 9)(rng);
    }
    keys_ = keys;
    attr_ = attr;
    dimension_ = engine::Table();
    ASSERT_TRUE(dimension_.AddColumn("key", std::move(keys)).ok());
    ASSERT_TRUE(dimension_.AddColumn("attr", std::move(attr)).ok());
  }

  /// `rows` distinct keys from [0, domain) that always include the word
  /// edges 0, 63, 64 and the domain's last key.
  static std::vector<std::int64_t> RandomKeys(std::size_t rows,
                                              std::int64_t domain,
                                              std::uint32_t seed) {
    std::vector<std::int64_t> rest;
    for (std::int64_t key = 0; key < domain; ++key) {
      if (key != 0 && key != 63 && key != 64 && key != domain - 1) {
        rest.push_back(key);
      }
    }
    std::mt19937_64 rng(seed);
    std::shuffle(rest.begin(), rest.end(), rng);
    std::vector<std::int64_t> keys = {0, 63, 64, domain - 1};
    keys.insert(keys.end(), rest.begin(), rest.begin() + (rows - 4));
    return keys;
  }

  /// The build pipeline the compiler would emit for the dimension (key
  /// statistics over the whole key column), with an optional filter.
  BuildPipeline Pipeline(HashTableKind kind,
                         const std::optional<engine::Filter>& filter) const {
    BuildPipeline build;
    build.dimension = &dimension_;
    build.key_column = "key";
    build.table_kind = kind;
    build.keys.rows = keys_.size();
    if (!keys_.empty()) {
      build.keys.max_key = *std::max_element(keys_.begin(), keys_.end());
    }
    if (filter.has_value()) {
      build.dim_filter = *filter;
      build.has_dim_filter = true;
    }
    return build;
  }

  /// Builds `build` at every worker count and compares entries() and
  /// Contains(k) for every k in [-2, max_key + 2] with the oracle.
  void ExpectMatchesOracle(const BuildPipeline& build,
                           const std::string& label) const {
    std::set<std::int64_t> oracle;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (!build.has_dim_filter ||
          ops::Compare(build.dim_filter.op, attr_[i],
                       build.dim_filter.literal)) {
        oracle.insert(keys_[i]);
      }
    }
    for (const std::size_t workers : kWorkerCounts) {
      const std::string where = label + " kind " +
                                ToString(build.table_kind) + " workers " +
                                std::to_string(workers);
      Result<DimensionTable> table =
          DimensionTable::Build(build, workers, kMorselTuples);
      ASSERT_TRUE(table.ok()) << where << ": " << table.status().ToString();
      EXPECT_EQ(table.value().kind(), build.table_kind) << where;
      EXPECT_EQ(table.value().entries(), oracle.size()) << where;
      for (std::int64_t key = -2; key <= build.keys.max_key + 2; ++key) {
        ASSERT_EQ(table.value().Contains(key), oracle.count(key) == 1)
            << where << " key " << key;
      }
    }
  }

  /// Builds `build` at every worker count and expects `code`.
  static void ExpectBuildFails(const BuildPipeline& build, StatusCode code,
                               const std::string& label) {
    for (const std::size_t workers : kWorkerCounts) {
      Result<DimensionTable> table =
          DimensionTable::Build(build, workers, kMorselTuples);
      ASSERT_FALSE(table.ok()) << label << " workers " << workers;
      EXPECT_EQ(table.status().code(), code)
          << label << " workers " << workers << ": "
          << table.status().ToString();
    }
  }

  std::vector<std::int64_t> keys_;
  std::vector<std::int64_t> attr_;
  engine::Table dimension_;
};

TEST_F(DimensionTableBuildTest, FilteredDimensionsMatchOracle) {
  // Domains whose last key opens a word (4096), closes one (4095) or
  // sits inside one (5000); 3000 rows = 5 morsels, 3 blocks.
  for (const std::int64_t domain : {4095, 4096, 5000}) {
    const auto seed = static_cast<std::uint32_t>(domain);
    SetDimension(RandomKeys(3'000, domain, seed), seed);
    for (const HashTableKind kind : kKinds) {
      ExpectMatchesOracle(Pipeline(kind, std::nullopt),
                          "domain " + std::to_string(domain) + " no filter");
      for (const ops::CompareOp op : kAllOps) {
        ExpectMatchesOracle(
            Pipeline(kind, engine::Filter{"attr", op, 4}),
            "domain " + std::to_string(domain) + " filter attr " +
                ToString(op) + " 4");
      }
    }
  }
}

TEST_F(DimensionTableBuildTest, EmptyOneRowAndAllFilteredDimensions) {
  for (const HashTableKind kind : kKinds) {
    SetDimension({}, 1);
    ExpectMatchesOracle(Pipeline(kind, std::nullopt), "empty");
    ExpectMatchesOracle(Pipeline(kind, engine::Filter{"attr",
                                                      ops::CompareOp::kGe, 0}),
                        "empty, filtered");
    for (const std::int64_t key : {0, 63, 64}) {
      SetDimension({key}, 2);
      ExpectMatchesOracle(Pipeline(kind, std::nullopt),
                          "one row, key " + std::to_string(key));
    }
    SetDimension(RandomKeys(3'000, 3'500, 3), 3);
    const engine::Filter nothing{"attr", ops::CompareOp::kLt,
                                 std::numeric_limits<std::int64_t>::min()};
    ExpectMatchesOracle(Pipeline(kind, nothing), "all filtered");
  }
}

TEST_F(DimensionTableBuildTest, DuplicateAcrossMorselsFailsAtEveryWorkerCount) {
  // Rows 5 and 2'900 hold the same key: morsel 0 and morsel 4.
  std::vector<std::int64_t> keys(3'000);
  std::iota(keys.begin(), keys.end(), 0);
  keys[2'900] = keys[5];
  keys_ = keys;
  dimension_ = engine::Table();
  ASSERT_TRUE(dimension_.AddColumn("key", std::move(keys)).ok());
  for (const HashTableKind kind : kKinds) {
    ExpectBuildFails(Pipeline(kind, std::nullopt),
                     StatusCode::kAlreadyExists,
                     std::string("duplicate, kind ") + ToString(kind));
  }
}

TEST_F(DimensionTableBuildTest, OutOfDomainKeyFailsOnDenseKind) {
  SetDimension(RandomKeys(3'000, 3'000, 4), 4);
  BuildPipeline build = Pipeline(HashTableKind::kPerfect, std::nullopt);
  build.keys.max_key = 2'998;  // Key 2999 is the one key past the domain.
  ExpectBuildFails(build, StatusCode::kInvalidArgument, "max_key + 1");
  std::vector<std::int64_t> keys = RandomKeys(3'000, 3'000, 5);
  keys[1'234] = -5;
  SetDimension(keys, 5);
  ExpectBuildFails(Pipeline(HashTableKind::kPerfect, std::nullopt),
                   StatusCode::kInvalidArgument, "negative key");
}


TEST_F(DimensionTableBuildTest, EveryWorkerAndMorselSplitMatchesOneWorker) {
  // Morsels that are not multiples of 64 make two workers set bits of
  // the same word in their own bitsets; 100'000 is one morsel in all.
  SetDimension(RandomKeys(3'000, 4'100, 6), 6);
  for (const HashTableKind kind : kKinds) {
    for (const bool filtered : {false, true}) {
      const BuildPipeline build = Pipeline(
          kind, filtered ? std::optional<engine::Filter>(engine::Filter{
                               "attr", ops::CompareOp::kLt, 5})
                         : std::nullopt);
      Result<DimensionTable> one = DimensionTable::Build(build);
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      for (const std::size_t workers : {1, 2, 3, 4}) {
        for (const std::size_t morsel : {1, 63, 64, 65, 700, 100'000}) {
          const std::string where =
              std::string("kind ") + ToString(kind) +
              (filtered ? " filtered" : "") + " workers " +
              std::to_string(workers) + " morsel " + std::to_string(morsel);
          Result<DimensionTable> table =
              DimensionTable::Build(build, workers, morsel);
          ASSERT_TRUE(table.ok()) << where << ": "
                                  << table.status().ToString();
          EXPECT_EQ(table.value().entries(), one.value().entries()) << where;
          for (std::int64_t key = -2; key <= build.keys.max_key + 2; ++key) {
            ASSERT_EQ(table.value().Contains(key), one.value().Contains(key))
                << where << " key " << key;
          }
        }
      }
    }
  }
}

TEST_F(DimensionTableBuildTest, DuplicateSplitAcrossWorkersAlwaysFails) {
  // Rows 5 and 2'900 hold the same key, 45 morsels apart: most rounds
  // put the two copies in different workers' bitsets, where only the
  // merge after the join can see them.
  std::vector<std::int64_t> keys(3'000);
  std::iota(keys.begin(), keys.end(), 0);
  keys[2'900] = keys[5];
  keys_ = keys;
  dimension_ = engine::Table();
  ASSERT_TRUE(dimension_.AddColumn("key", std::move(keys)).ok());
  for (const HashTableKind kind : kKinds) {
    const BuildPipeline build = Pipeline(kind, std::nullopt);
    for (const std::size_t workers : {2, 4}) {
      for (int round = 0; round < 50; ++round) {
        Result<DimensionTable> table =
            DimensionTable::Build(build, workers, /*morsel_tuples=*/64);
        ASSERT_FALSE(table.ok()) << ToString(kind) << " workers " << workers
                                 << " round " << round;
        ASSERT_EQ(table.status().code(), StatusCode::kAlreadyExists)
            << ToString(kind) << " workers " << workers << " round "
            << round << ": " << table.status().ToString();
      }
    }
  }
}

TEST_F(DimensionTableBuildTest, OutOfDomainKeyFailsInAnyWorker) {
  std::vector<std::int64_t> keys = RandomKeys(3'000, 3'000, 7);
  keys[2'500] = 3'000;  // One past the domain.
  SetDimension(keys, 7);
  BuildPipeline build = Pipeline(HashTableKind::kPerfect, std::nullopt);
  build.keys.max_key = 2'999;
  Result<DimensionTable> table =
      DimensionTable::Build(build, /*workers=*/4, /*morsel_tuples=*/64);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument)
      << table.status().ToString();
}

// ---------------------------------------------------------------------
// Key ranges: each dimension key column is scanned once per table, and
// Compile derives its key statistics from that memo.

obs::Counter& RangeScans() {
  return obs::MetricsRegistry::Instance().GetCounter(
      "engine.table.range_scans");
}

/// A one-join query over `dim.key`; the fact table is the dimension.
engine::Query JoinOn(const engine::Table& dim) {
  engine::Query query;
  query.fact = &dim;
  query.measure_column = "key";
  query.joins.push_back(engine::JoinClause{"key", &dim, "key", {}, false});
  return query;
}

TEST(KeyRangeTest, MatchesBruteForceScan) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> dense(10'000);
  std::iota(dense.begin(), dense.end(), 0);
  std::shuffle(dense.begin(), dense.end(), std::mt19937_64(16));
  const std::vector<std::vector<std::int64_t>> columns = {
      {}, {42}, {-7}, {-3, -900, -1, -55}, {kMax, kMin, 0}, {0, kMax},
      {kMin}, dense};
  for (const std::vector<std::int64_t>& values : columns) {
    SCOPED_TRACE(testing::Message() << values.size() << " rows");
    engine::Table table;
    ASSERT_TRUE(table.AddColumn("key", values).ok());
    const Result<engine::KeyRange> range = table.ColumnRange("key");
    ASSERT_TRUE(range.ok()) << range.status();
    std::int64_t lo = kMax;
    std::int64_t hi = kMin;
    for (const std::int64_t v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (values.empty()) {
      EXPECT_LT(range.value().max_key, range.value().min_key);
    } else {
      EXPECT_EQ(range.value().min_key, lo);
      EXPECT_EQ(range.value().max_key, hi);
    }
  }
  engine::Table table;
  EXPECT_EQ(table.ColumnRange("missing").status().code(),
            StatusCode::kNotFound);
}

TEST(KeyRangeTest, ScannedOnceAcrossSequentialCompiles) {
  engine::Table dim;
  std::vector<std::int64_t> keys(5'000);
  std::iota(keys.begin(), keys.end(), 0);
  ASSERT_TRUE(dim.AddColumn("key", std::move(keys)).ok());
  const engine::Query query = JoinOn(dim);
  const std::uint64_t before = RangeScans().value();
  for (int i = 0; i < 16; ++i) {
    const auto plan = Compile(query);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(plan.value().builds[0].keys.max_key, 4'999);
    EXPECT_EQ(plan.value().builds[0].keys.rows, 5'000u);
    EXPECT_DOUBLE_EQ(plan.value().builds[0].keys.density, 1.0);
  }
  EXPECT_EQ(RangeScans().value() - before, 1u);
}

TEST(KeyRangeTest, ScannedOnceAcrossConcurrentFirstCompiles) {
  constexpr int kThreads = 4;
  for (int round = 0; round < 8; ++round) {
    engine::Table dim;
    std::vector<std::int64_t> keys(20'000);
    std::iota(keys.begin(), keys.end(), round);
    ASSERT_TRUE(dim.AddColumn("key", std::move(keys)).ok());
    const engine::Query query = JoinOn(dim);
    const std::uint64_t before = RangeScans().value();
    std::atomic<int> ready{0};
    std::vector<KeyStats> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        const auto plan = Compile(query);
        if (plan.ok()) seen[t] = plan.value().builds[0].keys;
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(RangeScans().value() - before, 1u) << "round " << round;
    for (const KeyStats& stats : seen) {
      EXPECT_EQ(stats.min_key, round);
      EXPECT_EQ(stats.max_key, round + 19'999);
    }
  }
}

TEST(KeyRangeTest, MovedOrReplacedTableRecomputes) {
  engine::Table dim;
  ASSERT_TRUE(dim.AddColumn("key", {3, 1, 2}).ok());
  const std::uint64_t before = RangeScans().value();
  EXPECT_EQ(dim.ColumnRange("key").value().max_key, 3);
  EXPECT_EQ(dim.ColumnRange("key").value().max_key, 3);
  EXPECT_EQ(RangeScans().value() - before, 1u);

  engine::Table other;
  ASSERT_TRUE(other.AddColumn("key", {-4, 9}).ok());
  dim = std::move(other);  // Move-assigned: the old memo must not leak.
  EXPECT_EQ(dim.ColumnRange("key").value().min_key, -4);
  EXPECT_EQ(dim.ColumnRange("key").value().max_key, 9);
  EXPECT_EQ(RangeScans().value() - before, 2u);

  engine::Table moved(std::move(dim));
  EXPECT_EQ(moved.ColumnRange("key").value().max_key, 9);
  EXPECT_EQ(RangeScans().value() - before, 3u);

  moved = engine::Table();  // Replaced by a fresh table, same column name.
  ASSERT_TRUE(moved.AddColumn("key", {100, 200}).ok());
  EXPECT_EQ(moved.ColumnRange("key").value().min_key, 100);
  EXPECT_EQ(RangeScans().value() - before, 4u);
}

TEST(KeyRangeTest, Int64MaxKeyCompilesToLinearProbing) {
  // max_key + 1 overflows int64: the density must come out tiny, not UB.
  engine::Table dim;
  ASSERT_TRUE(
      dim.AddColumn("key", {0, 5, std::numeric_limits<std::int64_t>::max()})
          .ok());
  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  const auto plan = Compile(JoinOn(dim), options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value().builds[0].table_kind, HashTableKind::kLinearProbing);
  EXPECT_LT(plan.value().builds[0].keys.density, 1e-9);
  const auto result = engine::Executor::Run(JoinOn(dim), 2);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().rows, 3u);
}

TEST(SumOverflowTest, LegacyAndPlanPathsWrapIdentically) {
  // The measure sum overflows int64; both paths wrap it identically.
  engine::Table dim;
  ASSERT_TRUE(dim.AddColumn("key", {0, 1, 2}).ok());
  ASSERT_TRUE(dim.AddColumn("m", {std::numeric_limits<std::int64_t>::max(),
                                  std::numeric_limits<std::int64_t>::max(),
                                  3})
                  .ok());
  engine::Query query = JoinOn(dim);
  query.measure_column = "m";
  for (const std::size_t workers : {1u, 2u}) {
    const auto fused = engine::legacy::RunFused(query, workers);
    ASSERT_TRUE(fused.ok()) << fused.status();
    const auto via_plan = engine::Executor::Run(query, workers);
    ASSERT_TRUE(via_plan.ok()) << via_plan.status();
    EXPECT_EQ(via_plan.value(), fused.value());
    EXPECT_EQ(fused.value().sum, 1);  // 2 * (2^63 - 1) + 3 mod 2^64.
  }
}

}  // namespace
}  // namespace pump::plan
