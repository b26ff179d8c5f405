#include <cstdint>
#include <limits>
#include <vector>

#include "engine/advisor.h"
#include "engine/executor.h"
#include "engine/ssb.h"
#include "engine/table.h"
#include "fault/fault_injector.h"
#include "gtest/gtest.h"
#include "hw/system_profile.h"
#include "common/rng.h"
#include "ops/scan.h"
#include "perfbench/oracle.h"

namespace pump::engine {
namespace {

/// The brute-force oracle's answer for `query`.
QueryResult Expected(const Query& query) {
  Result<QueryResult> expected = perfbench::Oracle().Evaluate(query);
  EXPECT_TRUE(expected.ok()) << expected.status();
  return expected.ok() ? expected.value() : QueryResult{};
}

TEST(TableTest, ColumnManagement) {
  Table table;
  ASSERT_TRUE(table.AddColumn("a", {1, 2, 3}).ok());
  ASSERT_TRUE(table.AddColumn("b", {4, 5, 6}).ok());
  EXPECT_EQ(table.rows(), 3u);
  EXPECT_EQ(table.column_count(), 2u);
  EXPECT_TRUE(table.HasColumn("a"));
  EXPECT_FALSE(table.HasColumn("c"));
  EXPECT_EQ((*table.Column("b").value())[1], 5);
  EXPECT_EQ(table.bytes(), 48u);
}

TEST(TableTest, RejectsDuplicatesAndLengthMismatch) {
  Table table;
  ASSERT_TRUE(table.AddColumn("a", {1, 2}).ok());
  EXPECT_EQ(table.AddColumn("a", {3, 4}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(table.AddColumn("b", {1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Column("zz").status().code(), StatusCode::kNotFound);
}

TEST(ExecutorTest, FilterOnlyQuery) {
  Table fact;
  ASSERT_TRUE(fact.AddColumn("x", {1, 5, 3, 8, 2}).ok());
  ASSERT_TRUE(fact.AddColumn("m", {10, 20, 30, 40, 50}).ok());
  Query query;
  query.fact = &fact;
  query.filters = {{"x", ops::CompareOp::kLt, 5}};
  query.measure_column = "m";
  Result<QueryResult> result = Executor::Run(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows, 3u);
  EXPECT_EQ(result.value().sum, 90);
}

TEST(ExecutorTest, ValidatesQuery) {
  Table fact;
  ASSERT_TRUE(fact.AddColumn("m", {1}).ok());
  Query query;
  query.measure_column = "m";
  EXPECT_FALSE(Executor::Run(query).ok());  // No fact table.
  query.fact = &fact;
  query.filters = {{"missing", ops::CompareOp::kEq, 0}};
  EXPECT_FALSE(Executor::Run(query).ok());  // Missing filter column.
  query.filters.clear();
  query.measure_column = "nope";
  EXPECT_FALSE(Executor::Run(query).ok());  // Missing measure.
}

TEST(ExecutorTest, SsbQ1MatchesBruteForce) {
  const SsbDatabase db = SsbDatabase::Generate(50'000, 7);
  const Query query = SsbQ1(db);
  Result<QueryResult> result = Executor::Run(query, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), Expected(query));
  EXPECT_GT(result.value().rows, 0u);
  // Q1's selectivity: 3/11 discounts x 24/50 quantities x ~1/7 years.
  const double selectivity =
      static_cast<double>(result.value().rows) / 50'000.0;
  EXPECT_NEAR(selectivity, (3.0 / 11.0) * (24.0 / 50.0) / 7.0, 0.01);
}

TEST(ExecutorTest, SsbQ2MatchesBruteForce) {
  const SsbDatabase db = SsbDatabase::Generate(30'000, 9);
  const Query query = SsbQ2(db);
  Result<QueryResult> result = Executor::Run(query, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), Expected(query));
  // Two 1/5-region semi-joins keep ~4% of rows.
  const double selectivity =
      static_cast<double>(result.value().rows) / 30'000.0;
  EXPECT_NEAR(selectivity, 1.0 / 25.0, 0.01);
}

TEST(ExecutorTest, WorkerCountInvariant) {
  const SsbDatabase db = SsbDatabase::Generate(40'000, 11);
  const Query query = SsbQ1(db);
  const QueryResult reference = Executor::Run(query, 1).value();
  for (std::size_t workers : {2u, 4u, 8u}) {
    EXPECT_EQ(Executor::Run(query, workers).value(), reference);
  }
}

class AdvisorTest : public ::testing::Test {
 protected:
  hw::SystemProfile ibm_ = hw::Ac922Profile();
  hw::SystemProfile intel_ = hw::XeonProfile();
};

TEST_F(AdvisorTest, StatsFromQueryCountsTouchedColumns) {
  const SsbDatabase db = SsbDatabase::Generate(10'000, 3);
  const Query q1 = SsbQ1(db);
  const QueryStats stats = StatsFromQuery(q1, /*scale=*/100.0);
  EXPECT_DOUBLE_EQ(stats.fact_rows, 1'000'000.0);
  // 3 filters + 1 join key + 1 measure = 5 columns x 8 B.
  EXPECT_DOUBLE_EQ(stats.fact_bytes_per_row, 40.0);
  ASSERT_EQ(stats.dimension_rows.size(), 1u);
}

TEST_F(AdvisorTest, PrefersGpuOnNvlinkForLargeScans) {
  const Advisor advisor(&ibm_);
  QueryStats stats;
  stats.fact_rows = 2e9;
  stats.fact_bytes_per_row = 16;
  stats.dimension_rows = {1 << 22};
  Result<PlanChoice> plan = advisor.Recommend(stats, hw::kCpu0);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(ibm_.topology.device(plan.value().device).kind,
            hw::DeviceKind::kGpu);
  EXPECT_EQ(plan.value().method, transfer::TransferMethod::kCoherence);
  EXPECT_GT(plan.value().predicted_seconds.seconds(), 0.0);
}

TEST_F(AdvisorTest, PicksZeroCopyOnPcie) {
  const Advisor advisor(&intel_);
  QueryStats stats;
  stats.fact_rows = 2e9;
  stats.fact_bytes_per_row = 16;
  stats.dimension_rows = {1 << 22};
  Result<PlanChoice> plan = advisor.Recommend(stats, hw::kCpu0);
  ASSERT_TRUE(plan.ok());
  if (intel_.topology.device(plan.value().device).kind ==
      hw::DeviceKind::kGpu) {
    EXPECT_EQ(plan.value().method, transfer::TransferMethod::kZeroCopy);
  }
}

TEST_F(AdvisorTest, HugeDimensionSpillsToHybrid) {
  const Advisor advisor(&ibm_);
  QueryStats stats;
  stats.fact_rows = 4e9;
  stats.fact_bytes_per_row = 16;
  stats.dimension_rows = {2e9};  // 32 GiB hash table: exceeds GPU memory.
  std::vector<join::HashTablePlacement> placements;
  Result<Seconds> predicted =
      advisor.Predict(stats, hw::kGpu0,
                      transfer::TransferMethod::kCoherence, hw::kCpu0,
                      &placements);
  ASSERT_TRUE(predicted.ok());
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].parts.size(), 2u);  // Hybrid split.
}

TEST_F(AdvisorTest, PredictionMonotoneInFactSize) {
  const Advisor advisor(&ibm_);
  QueryStats stats;
  stats.fact_bytes_per_row = 24;
  stats.dimension_rows = {1 << 20};
  Seconds previous;
  for (double rows : {1e8, 1e9, 4e9}) {
    stats.fact_rows = rows;
    Result<Seconds> predicted = advisor.Predict(
        stats, hw::kGpu0, transfer::TransferMethod::kCoherence, hw::kCpu0);
    ASSERT_TRUE(predicted.ok());
    EXPECT_GT(predicted.value(), previous);
    previous = predicted.value();
  }
}

// Randomized differential testing: generate random star queries over a
// random database and compare every plan the executor can run (CPU and
// GPU placement, 1-4 workers, with and without transient transfer
// faults) against the brute-force oracle for every seed.
class EngineFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

/// The seed whose measure holds INT64_MAX on every other row, so the
/// sums wrap.
constexpr std::uint64_t kWrapSeed = 25;

TEST_P(EngineFuzzTest, ExecutorMatchesBruteForce) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  SsbDatabase db =
      SsbDatabase::Generate(2'000 + rng.NextBounded(20'000), seed);

  Query query;
  query.fact = &db.lineorder;
  query.measure_column = "lo_revenue";
  if (seed == kWrapSeed) {
    std::vector<std::int64_t> wrap =
        *db.lineorder.Column("lo_revenue").value();
    for (std::size_t i = 1; i < wrap.size(); i += 2) {
      wrap[i] = std::numeric_limits<std::int64_t>::max();
    }
    ASSERT_TRUE(db.lineorder.AddColumn("lo_wrap", std::move(wrap)).ok());
    query.measure_column = "lo_wrap";
  }

  // Random fact filters (0-3).
  const char* filter_columns[] = {"lo_quantity", "lo_discount",
                                  "lo_extendedprice"};
  const std::int64_t filter_bounds[] = {50, 11, 210'000};
  const std::size_t filter_count = rng.NextBounded(4);
  for (std::size_t f = 0; f < filter_count; ++f) {
    const std::size_t c = rng.NextBounded(3);
    query.filters.push_back(
        {filter_columns[c],
         static_cast<ops::CompareOp>(rng.NextBounded(6)),
         static_cast<std::int64_t>(rng.NextBounded(filter_bounds[c]))});
  }

  // Random joins (0-3) with optional dimension filters.
  struct DimChoice {
    const char* fact_key;
    const Table* dim;
    const char* dim_key;
    const char* dim_attr;
    std::int64_t attr_bound;
  };
  const DimChoice choices[] = {
      {"lo_orderdate", &db.date, "d_datekey", "d_year",
       kFirstYear + kYearCount},
      {"lo_custkey", &db.customer, "c_custkey", "c_region", kRegionCount},
      {"lo_suppkey", &db.supplier, "s_suppkey", "s_region", kRegionCount},
  };
  const std::size_t join_count = rng.NextBounded(4);
  for (std::size_t j = 0; j < join_count && j < 3; ++j) {
    const DimChoice& choice = choices[j];
    JoinClause join;
    join.fact_key_column = choice.fact_key;
    join.dimension = choice.dim;
    join.dim_key_column = choice.dim_key;
    if (rng.NextBounded(2) == 1) {
      join.dim_filter = {
          choice.dim_attr, static_cast<ops::CompareOp>(rng.NextBounded(6)),
          static_cast<std::int64_t>(rng.NextBounded(choice.attr_bound))};
      join.has_dim_filter = true;
    }
    query.joins.push_back(join);
  }

  const QueryResult expected = Expected(query);
  Result<QueryResult> result =
      Executor::Run(query, 1 + rng.NextBounded(4));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value(), expected) << "seed " << seed;

  for (const bool gpu_plan : {false, true}) {
    for (std::size_t workers = 1; workers <= 4; ++workers) {
      for (const bool faults : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << (gpu_plan ? " gpu" : " cpu")
                     << " plan, workers " << workers
                     << (faults ? ", transient faults" : ""));
        ExecOptions options;
        options.gpu_plan = gpu_plan;
        options.workers = workers;
        options.morsel_tuples = 2'000;
        fault::FaultInjector injector(seed);
        if (faults) {
          // At this rate and the default three attempts, some GPU runs
          // exhaust a chunk's retries and fall back to the CPU plan, so
          // both rungs of the ladder are fuzzed.
          fault::FaultSpec spec;
          spec.probability = 0.2;
          injector.Arm(fault::kTransferChunk, spec);
          options.injector = &injector;
          options.chunk_bytes = 8 * 1024;
        }
        Result<ExecReport> report = Executor::RunResilient(query, options);
        ASSERT_TRUE(report.ok()) << report.status();
        EXPECT_EQ(report.value().result, expected);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest,
                         ::testing::Range<std::uint64_t>(1, kWrapSeed + 1));

}  // namespace
}  // namespace pump::engine
