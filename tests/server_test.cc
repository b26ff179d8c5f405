// The serving layer: bounded admission with load shedding, cooperative
// cancellation and deadlines, graceful degradation under modelled GPU
// pressure, crash containment across concurrent queries, and the
// process-wide single-flight build cache. Runs under TSan in check.sh —
// the concurrent-submitter tests double as race regressions.

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "engine/executor.h"
#include "engine/ssb.h"
#include "engine/table.h"
#include "gtest/gtest.h"
#include "hw/system_profile.h"
#include "hw/topology.h"
#include "obs/metrics.h"
#include "ops/scan.h"
#include "perfbench/oracle.h"
#include "plan/build_cache.h"
#include "plan/compiler.h"
#include "server/query_engine.h"

namespace pump {
namespace {

// ---------------------------------------------------------------------
// Shared fixtures: a small SSB database, its solo reference results, and
// a poison query whose build deterministically fails (duplicate
// dimension keys trip the uniqueness check at execution time, past
// compilation).

const engine::SsbDatabase& Db() {
  static const engine::SsbDatabase db =
      engine::SsbDatabase::Generate(20'000, /*seed=*/42);
  return db;
}

engine::QueryResult Solo(const engine::Query& query) {
  Result<engine::QueryResult> solo = engine::Executor::Run(query, 2);
  EXPECT_TRUE(solo.ok()) << solo.status();
  return solo.value_or(engine::QueryResult{});
}

struct PoisonFixture {
  engine::Table dim;
  engine::Query query;
};

const PoisonFixture& Poison() {
  static const PoisonFixture* fixture = [] {
    auto* f = new PoisonFixture();
    EXPECT_TRUE(f->dim.AddColumn("pk", {0, 1, 2, 2}).ok());
    f->query.fact = &Db().lineorder;
    f->query.measure_column = "lo_revenue";
    f->query.joins.push_back(
        engine::JoinClause{"lo_custkey", &f->dim, "pk", {}, false});
    return f;
  }();
  return *fixture;
}

plan::BuildPipeline BuildFor(const engine::Query& query, std::size_t i) {
  Result<plan::PhysicalPlan> plan = plan::Compile(query);
  EXPECT_TRUE(plan.ok()) << plan.status();
  EXPECT_GT(plan.value().builds.size(), i);
  return plan.value().builds[i];
}

// ---------------------------------------------------------------------
// CancelToken: latched first cause, deadline expiry.

TEST(CancelTokenTest, StartsLive) {
  CancelToken token;
  EXPECT_FALSE(token.Cancelled());
  EXPECT_TRUE(token.ToStatus().ok());
}

TEST(CancelTokenTest, CancelLatchesUserCause) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
  // A later deadline cannot overwrite the first cause.
  token.SetDeadlineAfter(-1.0);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, ExpiredDeadlineReportsDeadlineExceeded) {
  CancelToken token;
  token.SetDeadlineAfter(-1.0);  // already in the past
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kDeadlineExceeded);
  // First cause wins: a user cancel after expiry does not relabel it.
  token.Cancel();
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, FutureDeadlineStaysLive) {
  CancelToken token;
  token.SetDeadlineAfter(3600.0);
  EXPECT_FALSE(token.Cancelled());
}

// ---------------------------------------------------------------------
// BuildCache: hit/miss, LRU eviction, single-flight, error containment.

TEST(BuildCacheTest, SecondRequestHits) {
  plan::BuildCache cache(64ull << 20);
  const plan::BuildPipeline build = BuildFor(engine::SsbQ1(Db()), 0);
  bool hit = true;
  ASSERT_TRUE(cache.GetOrBuild(build, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(cache.GetOrBuild(build, &hit).ok());
  EXPECT_TRUE(hit);
  const plan::BuildCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(BuildCacheTest, SharedHandleSurvivesEviction) {
  const plan::BuildPipeline a = BuildFor(engine::SsbQ2(Db()), 0);
  const plan::BuildPipeline b = BuildFor(engine::SsbQ2(Db()), 1);
  // Capacity fits either table alone but not both: inserting b evicts a.
  plan::BuildCache cache(std::max(a.table_bytes, b.table_bytes));
  Result<std::shared_ptr<const plan::DimensionTable>> table_a =
      cache.GetOrBuild(a);
  ASSERT_TRUE(table_a.ok());
  ASSERT_TRUE(cache.GetOrBuild(b).ok());
  plan::BuildCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // The evicted table is still alive through the caller's handle
  // (eviction is a cache-policy event, not a free).
  EXPECT_GT(table_a.value()->entries(), 0u);
  // Re-requesting a misses again.
  bool hit = true;
  ASSERT_TRUE(cache.GetOrBuild(a, &hit).ok());
  EXPECT_FALSE(hit);
}

TEST(BuildCacheTest, SingleFlightBuildsOnce) {
  plan::BuildCache cache(64ull << 20);
  const plan::BuildPipeline build = BuildFor(engine::SsbQ1(Db()), 0);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::atomic<int> builders{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      bool hit = true;
      if (!cache.GetOrBuild(build, &hit).ok()) failures.fetch_add(1);
      if (!hit) builders.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // `hit` is false only for the call that ran the build: a single-flight
  // waiter reuses the table like a resident hit.
  EXPECT_EQ(builders.load(), 1);
  const plan::BuildCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads));
  // Every miss either became the one builder or waited on its flight;
  // once the entry is resident all later requests hit. Exactly one
  // build ever ran.
  EXPECT_EQ(stats.misses - stats.single_flight_waits, 1u);
}

TEST(BuildCacheTest, FailedBuildPropagatesAndClearsFlight) {
  plan::BuildCache cache(64ull << 20);
  const plan::BuildPipeline build = BuildFor(Poison().query, 0);
  Result<std::shared_ptr<const plan::DimensionTable>> first =
      cache.GetOrBuild(build);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The failed flight cleared; a later request retries (and fails the
  // same way) rather than observing a poisoned slot.
  Result<std::shared_ptr<const plan::DimensionTable>> second =
      cache.GetOrBuild(build);
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(BuildCacheTest, ZeroCapacityStillDeduplicates) {
  plan::BuildCache cache(0);
  const plan::BuildPipeline build = BuildFor(engine::SsbQ1(Db()), 0);
  bool hit = true;
  ASSERT_TRUE(cache.GetOrBuild(build, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(cache.GetOrBuild(build, &hit).ok());
  EXPECT_FALSE(hit);  // nothing resident
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------
// QueryEngine: admission, deadlines, cancellation, containment.

TEST(QueryEngineTest, CompletesAndMatchesSolo) {
  const engine::Query query = engine::SsbQ1(Db());
  const engine::QueryResult expected = Solo(query);
  server::QueryEngine engine;
  Result<std::shared_ptr<server::QueryHandle>> handle =
      engine.Submit(query);
  ASSERT_TRUE(handle.ok()) << handle.status();
  const Result<engine::ExecReport>& report = handle.value()->Wait();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().result, expected);
  EXPECT_EQ(handle.value()->state(), server::QueryState::kDone);
  EXPECT_EQ(engine.stats().completed, 1u);
}

TEST(QueryEngineTest, AdmissionShedsWhenQueueFull) {
  server::EngineOptions options;
  options.queue_capacity = 2;
  options.session_threads = 1;
  server::QueryEngine engine(options);
  engine.Pause();  // schedulers hold off: the queue fills deterministically

  const engine::Query query = engine::SsbQ1(Db());
  const engine::QueryResult expected = Solo(query);
  std::vector<std::shared_ptr<server::QueryHandle>> admitted;
  for (int i = 0; i < 2; ++i) {
    Result<std::shared_ptr<server::QueryHandle>> handle =
        engine.Submit(query);
    ASSERT_TRUE(handle.ok()) << handle.status();
    admitted.push_back(handle.value());
  }
  Result<std::shared_ptr<server::QueryHandle>> rejected =
      engine.Submit(query);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.stats().shed, 1u);
  EXPECT_EQ(engine.stats().queue_depth, 2u);

  engine.Resume();
  for (const auto& handle : admitted) {
    const Result<engine::ExecReport>& report = handle->Wait();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report.value().result, expected);
  }
}

TEST(QueryEngineTest, ExpiredDeadlineResolvesWithoutClaimingWork) {
  server::EngineOptions options;
  options.session_threads = 1;
  server::QueryEngine engine(options);
  engine.Pause();

  server::SubmitOptions submit;
  submit.deadline_s = 1e-9;  // expires while queued
  Result<std::shared_ptr<server::QueryHandle>> handle =
      engine.Submit(engine::SsbQ1(Db()), submit);
  ASSERT_TRUE(handle.ok()) << handle.status();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));

  obs::Counter& morsels =
      obs::MetricsRegistry::Instance().GetCounter("plan.morsels");
  obs::Counter& builds =
      obs::MetricsRegistry::Instance().GetCounter("plan.dim_tables_built");
  const std::uint64_t morsels_before = morsels.value();
  const std::uint64_t builds_before = builds.value();
  engine.Resume();
  const Result<engine::ExecReport>& report = handle.value()->Wait();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
  // The cancellation bound: an expired query claims zero morsels and
  // builds zero tables — its workers were never burned.
  EXPECT_EQ(morsels.value(), morsels_before);
  EXPECT_EQ(builds.value(), builds_before);
  EXPECT_EQ(engine.stats().deadline_exceeded, 1u);
}

TEST(QueryEngineTest, CancelledWhileQueuedResolvesCancelled) {
  server::EngineOptions options;
  options.session_threads = 1;
  server::QueryEngine engine(options);
  engine.Pause();
  Result<std::shared_ptr<server::QueryHandle>> handle =
      engine.Submit(engine::SsbQ1(Db()));
  ASSERT_TRUE(handle.ok()) << handle.status();
  handle.value()->Cancel();
  engine.Resume();
  const Result<engine::ExecReport>& report = handle.value()->Wait();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.stats().cancelled, 1u);
}

TEST(QueryEngineTest, RunningQueryCancelsWithinBound) {
  // A mid-flight cancel: the query may already be executing when the
  // token fires; it must still resolve (with kCancelled if the token
  // won, or OK if it finished first) — never hang.
  server::QueryEngine engine;
  Result<std::shared_ptr<server::QueryHandle>> handle =
      engine.Submit(engine::SsbQ3(Db()));
  ASSERT_TRUE(handle.ok()) << handle.status();
  handle.value()->Cancel();
  const Result<engine::ExecReport>& report = handle.value()->Wait();
  if (!report.ok()) {
    EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
  }
}

TEST(QueryEngineTest, CompileErrorRejectedSynchronously) {
  server::QueryEngine engine;
  engine::Query invalid;
  invalid.fact = &Db().lineorder;
  invalid.measure_column = "no_such_column";
  Result<std::shared_ptr<server::QueryHandle>> handle =
      engine.Submit(invalid);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.stats().compile_rejected, 1u);
  EXPECT_EQ(engine.stats().admitted, 0u);
}

TEST(QueryEngineTest, FaultExhaustionIsContained) {
  // One poisoned query fails its build; concurrent siblings complete
  // with results bit-identical to solo execution, and the engine (pool,
  // shared cache) keeps serving afterwards.
  const engine::Query q1 = engine::SsbQ1(Db());
  const engine::Query q2 = engine::SsbQ2(Db());
  const engine::QueryResult expected1 = Solo(q1);
  const engine::QueryResult expected2 = Solo(q2);

  server::EngineOptions options;
  options.session_threads = 2;
  options.queue_capacity = 16;
  server::QueryEngine engine(options);

  Result<std::shared_ptr<server::QueryHandle>> poisoned =
      engine.Submit(Poison().query);
  std::vector<std::shared_ptr<server::QueryHandle>> siblings;
  for (int i = 0; i < 4; ++i) {
    Result<std::shared_ptr<server::QueryHandle>> handle =
        engine.Submit(i % 2 == 0 ? q1 : q2);
    ASSERT_TRUE(handle.ok()) << handle.status();
    siblings.push_back(handle.value());
  }

  ASSERT_TRUE(poisoned.ok()) << poisoned.status();
  const Result<engine::ExecReport>& poison_report = poisoned.value()->Wait();
  ASSERT_FALSE(poison_report.ok());
  EXPECT_EQ(poison_report.status().code(), StatusCode::kAlreadyExists);

  for (std::size_t i = 0; i < siblings.size(); ++i) {
    const Result<engine::ExecReport>& report = siblings[i]->Wait();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report.value().result, i % 2 == 0 ? expected1 : expected2);
  }
  EXPECT_EQ(engine.stats().failed, 1u);
  EXPECT_EQ(engine.stats().completed, 4u);

  // The engine is not poisoned: a fresh submission still completes.
  Result<std::shared_ptr<server::QueryHandle>> after = engine.Submit(q1);
  ASSERT_TRUE(after.ok()) << after.status();
  const Result<engine::ExecReport>& after_report = after.value()->Wait();
  ASSERT_TRUE(after_report.ok()) << after_report.status();
  EXPECT_EQ(after_report.value().result, expected1);
}

TEST(QueryEngineTest, SaturatedGpuBudgetDegradesToCpu) {
  const engine::Query query = engine::SsbQ1(Db());
  const engine::QueryResult expected = Solo(query);
  server::EngineOptions options;
  options.session_threads = 1;
  options.queue_capacity = 4;
  options.gpu_budget_bytes = 1024;  // one in-flight footprint saturates it
  server::QueryEngine engine(options);
  engine.Pause();

  Result<std::shared_ptr<server::QueryHandle>> first =
      engine.Submit(query);
  Result<std::shared_ptr<server::QueryHandle>> second =
      engine.Submit(query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // The second query compiled against the first's in-flight footprint:
  // forced CPU placement instead of queueing for device memory.
  EXPECT_EQ(engine.stats().degraded_to_cpu, 1u);
  engine.Resume();

  const Result<engine::ExecReport>& report1 = first.value()->Wait();
  const Result<engine::ExecReport>& report2 = second.value()->Wait();
  ASSERT_TRUE(report1.ok()) << report1.status();
  ASSERT_TRUE(report2.ok()) << report2.status();
  EXPECT_EQ(report1.value().result, expected);
  EXPECT_EQ(report2.value().result, expected);
  EXPECT_FALSE(report2.value().used_gpu);
}

TEST(QueryEngineTest, SharedCacheReusesBuildsAcrossQueries) {
  const engine::Query query = engine::SsbQ1(Db());
  server::EngineOptions options;
  options.session_threads = 1;
  server::QueryEngine engine(options);
  Result<std::shared_ptr<server::QueryHandle>> first =
      engine.Submit(query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value()->Wait().ok());
  Result<std::shared_ptr<server::QueryHandle>> second =
      engine.Submit(query);
  ASSERT_TRUE(second.ok());
  const Result<engine::ExecReport>& report = second.value()->Wait();
  ASSERT_TRUE(report.ok());
  // The second query's build stage hit the shared cache.
  EXPECT_EQ(report.value().dim_tables_reused, 1u);
  EXPECT_EQ(report.value().dim_tables_built, 0u);
  EXPECT_GE(engine.build_cache().stats().hits, 1u);
}

TEST(QueryEngineTest, ShutdownDrainsQueuedQueries) {
  server::EngineOptions options;
  options.session_threads = 1;
  options.queue_capacity = 8;
  server::QueryEngine engine(options);
  engine.Pause();
  std::vector<std::shared_ptr<server::QueryHandle>> handles;
  for (int i = 0; i < 3; ++i) {
    Result<std::shared_ptr<server::QueryHandle>> handle =
        engine.Submit(engine::SsbQ1(Db()));
    ASSERT_TRUE(handle.ok());
    handles.push_back(handle.value());
  }
  // Shutdown overrides the pause and drains: every handle resolves.
  engine.Shutdown();
  for (const auto& handle : handles) {
    EXPECT_TRUE(handle->Done());
  }
  Result<std::shared_ptr<server::QueryHandle>> late =
      engine.Submit(engine::SsbQ1(Db()));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------
// Introspection: QueryEngine::Snapshot() and the flight recorder.

TEST(QueryEngineTest, SnapshotReportsQueueCacheWindowAndSlo) {
  server::EngineOptions options;
  options.session_threads = 1;
  options.queue_capacity = 8;
  server::QueryEngine engine(options);
  engine.Pause();

  server::SubmitOptions submit;
  submit.tag = "snap-test";
  Result<std::shared_ptr<server::QueryHandle>> first =
      engine.Submit(engine::SsbQ1(Db()), submit);
  Result<std::shared_ptr<server::QueryHandle>> second =
      engine.Submit(engine::SsbQ1(Db()), submit);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  // Queued queries appear as rows with their submit tag and age.
  server::EngineSnapshot snapshot = engine.Snapshot();
  EXPECT_EQ(snapshot.stats.queue_depth, 2u);
  ASSERT_EQ(snapshot.queries.size(), 2u);
  for (const server::QueryRow& row : snapshot.queries) {
    EXPECT_EQ(row.state, server::QueryState::kQueued);
    EXPECT_EQ(row.tag, "snap-test");
    EXPECT_GE(row.age_s, 0.0);
  }

  engine.Resume();
  ASSERT_TRUE(first.value()->Wait().ok());
  ASSERT_TRUE(second.value()->Wait().ok());

  snapshot = engine.Snapshot();
  // Resolved queries leave the table; their latencies feed the window.
  EXPECT_TRUE(snapshot.queries.empty());
  EXPECT_EQ(snapshot.latency_us.count, 2u);
  EXPECT_GE(snapshot.latency_us.p99, snapshot.latency_us.p50);
  EXPECT_GT(snapshot.latency_us.rate_per_s, 0.0);
  // The second query hit the shared build cache, and the snapshot lists
  // what is resident.
  EXPECT_GT(snapshot.cache_hit_ratio, 0.0);
  EXPECT_LE(snapshot.cache_hit_ratio, 1.0);
  EXPECT_FALSE(snapshot.cache_contents.empty());
  std::uint64_t contents_bytes = 0;
  for (const plan::BuildCache::ContentsEntry& entry :
       snapshot.cache_contents) {
    EXPECT_FALSE(entry.key.empty());
    contents_bytes += entry.bytes;
  }
  EXPECT_EQ(contents_bytes, snapshot.cache.resident_bytes);
  // Clean run: no incidents, and with no SLO configured the verdict is
  // vacuously healthy.
  EXPECT_EQ(snapshot.incidents.captured, 0u);
  EXPECT_FALSE(snapshot.slo_configured);
  EXPECT_TRUE(snapshot.slo_ok);
  EXPECT_TRUE(snapshot.slo_violation.empty());
}

TEST(QueryEngineTest, SloViolationSurfacesInSnapshot) {
  server::EngineOptions options;
  options.session_threads = 1;
  // A sub-microsecond p99 ceiling: any real query violates it.
  options.slo_p99_us = 0.5;
  server::QueryEngine engine(options);
  Result<std::shared_ptr<server::QueryHandle>> handle =
      engine.Submit(engine::SsbQ1(Db()));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(handle.value()->Wait().ok());

  const server::EngineSnapshot snapshot = engine.Snapshot();
  EXPECT_TRUE(snapshot.slo_configured);
  EXPECT_FALSE(snapshot.slo_ok);
  EXPECT_FALSE(snapshot.slo_violation.empty());
  EXPECT_DOUBLE_EQ(snapshot.slo_p99_us, 0.5);
}

TEST(QueryEngineTest, SloWithEmptyWindowIsVacuouslyHealthy) {
  server::EngineOptions options;
  options.slo_p99_us = 0.5;
  options.slo_min_qps = 1e9;
  server::QueryEngine engine(options);
  // No resolutions yet: targets are configured but nothing violates.
  const server::EngineSnapshot snapshot = engine.Snapshot();
  EXPECT_TRUE(snapshot.slo_configured);
  EXPECT_TRUE(snapshot.slo_ok);
}

TEST(QueryEngineTest, FlightRecorderCapturesLadderExhaustion) {
  // The acceptance scenario: one query exhausts its fault ladder while
  // siblings run under injected device-OOM (which the ladder absorbs by
  // re-placing on the CPU). Exactly the terminal failure leaves an
  // incident artifact; the absorbed-fault siblings complete
  // bit-identical to solo execution and leave none.
  const engine::Query q1 = engine::SsbQ1(Db());
  const engine::QueryResult expected = Solo(q1);

  server::EngineOptions options;
  options.session_threads = 2;
  options.queue_capacity = 16;
  server::QueryEngine engine(options);

  // Device-OOM on every allocation: rung 2 of the ladder spills the
  // build/probe to the CPU, so the query still succeeds.
  fault::FaultInjector oom(/*seed=*/13);
  fault::FaultSpec device_oom;
  device_oom.probability = 1.0;
  device_oom.code = StatusCode::kResourceExhausted;
  oom.Arm(fault::kAllocDevice, device_oom);

  server::SubmitOptions oom_submit;
  oom_submit.injector = &oom;
  oom_submit.tag = "oom-sibling";
  std::vector<std::shared_ptr<server::QueryHandle>> siblings;
  for (int i = 0; i < 2; ++i) {
    Result<std::shared_ptr<server::QueryHandle>> handle =
        engine.Submit(q1, oom_submit);
    ASSERT_TRUE(handle.ok()) << handle.status();
    siblings.push_back(handle.value());
  }
  server::SubmitOptions poison_submit;
  poison_submit.tag = "poison";
  Result<std::shared_ptr<server::QueryHandle>> poisoned =
      engine.Submit(Poison().query, poison_submit);
  ASSERT_TRUE(poisoned.ok()) << poisoned.status();

  const Result<engine::ExecReport>& poison_report = poisoned.value()->Wait();
  ASSERT_FALSE(poison_report.ok());
  for (const auto& handle : siblings) {
    const Result<engine::ExecReport>& report = handle->Wait();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report.value().result, expected);
  }

  // Exactly one incident: the ladder-exhausted query, self-contained.
  const obs::FlightRecorder::Stats stats = engine.flight_recorder().stats();
  EXPECT_EQ(stats.captured, 1u) << "successes must not leave artifacts";
  EXPECT_EQ(stats.captured_by_kind.at("fault_ladder_exhausted"), 1u);
  const std::vector<obs::Incident> incidents =
      engine.flight_recorder().Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  const obs::Incident& incident = incidents[0];
  EXPECT_EQ(incident.query_id, poisoned.value()->id());
  EXPECT_EQ(incident.kind, "fault_ladder_exhausted");
  EXPECT_EQ(incident.tag, "poison");
  EXPECT_EQ(incident.status, poison_report.status().ToString());
  EXPECT_FALSE(incident.plan_json.empty());
  EXPECT_FALSE(incident.report_json.empty());
  EXPECT_GT(incident.captured_ts_ns, 0u);
}

TEST(QueryEngineTest, DeadlineAndCancelLeaveTypedIncidents) {
  server::EngineOptions options;
  options.session_threads = 1;
  server::QueryEngine engine(options);
  engine.Pause();

  server::SubmitOptions late;
  late.deadline_s = 1e-9;
  late.tag = "late";
  Result<std::shared_ptr<server::QueryHandle>> expired =
      engine.Submit(engine::SsbQ1(Db()), late);
  ASSERT_TRUE(expired.ok());
  server::SubmitOptions killed;
  killed.tag = "killed";
  Result<std::shared_ptr<server::QueryHandle>> cancelled =
      engine.Submit(engine::SsbQ1(Db()), killed);
  ASSERT_TRUE(cancelled.ok());
  cancelled.value()->Cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  engine.Resume();

  EXPECT_EQ(expired.value()->Wait().status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cancelled.value()->Wait().status().code(),
            StatusCode::kCancelled);

  const obs::FlightRecorder::Stats stats = engine.flight_recorder().stats();
  EXPECT_EQ(stats.captured, 2u);
  EXPECT_EQ(stats.captured_by_kind.at("deadline_expired"), 1u);
  EXPECT_EQ(stats.captured_by_kind.at("cancelled"), 1u);
  for (const obs::Incident& incident :
       engine.flight_recorder().Incidents()) {
    EXPECT_GT(incident.query_id, 0u);
    EXPECT_FALSE(incident.plan_json.empty());
  }
  // The snapshot mirrors the recorder totals.
  EXPECT_EQ(engine.Snapshot().incidents.captured, 2u);
}

// ---------------------------------------------------------------------
// TSan regression: concurrent submitters against one engine. Any data
// race in Submit/scheduler/cache/metrics surfaces here under
// -DPUMP_SANITIZE=thread (check.sh runs this binary in that build).

TEST(QueryEngineTest, PerDevicePoolsTrackInflightAndDrain) {
  const engine::Query query = engine::SsbQ1(Db());
  server::EngineOptions options;
  options.session_threads = 1;
  options.queue_capacity = 4;
  server::QueryEngine engine(options);
  engine.Pause();

  Result<std::shared_ptr<server::QueryHandle>> first = engine.Submit(query);
  Result<std::shared_ptr<server::QueryHandle>> second =
      engine.Submit(query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  // Single-device plans charge one per-device pool; the pools always sum
  // to the aggregate in-flight figure.
  server::EngineStats stats = engine.stats();
  EXPECT_GT(stats.gpu_inflight_bytes, 0u);
  ASSERT_EQ(stats.device_inflight_bytes.size(), 1u);
  std::uint64_t pool_sum = 0;
  for (const auto& [device, bytes] : stats.device_inflight_bytes) {
    pool_sum += bytes;
  }
  EXPECT_EQ(pool_sum, stats.gpu_inflight_bytes);

  engine.Resume();
  ASSERT_TRUE(first.value()->Wait().ok());
  ASSERT_TRUE(second.value()->Wait().ok());
  stats = engine.stats();
  EXPECT_EQ(stats.gpu_inflight_bytes, 0u);
  for (const auto& [device, bytes] : stats.device_inflight_bytes) {
    EXPECT_EQ(bytes, 0u) << "device " << device;
  }
}

TEST(QueryEngineTest, ShardedSubmissionChargesEveryDevicePool) {
  const engine::Query query = engine::SsbQ1(Db());
  const engine::QueryResult expected = Solo(query);
  const hw::SystemProfile ring = hw::NvlinkRingProfile(4);
  server::EngineOptions options;
  options.session_threads = 1;
  options.queue_capacity = 4;
  options.profile = &ring;
  options.shard_devices =
      ring.topology.DevicesOfKind(hw::DeviceKind::kGpu);
  server::QueryEngine engine(options);
  engine.Pause();

  Result<std::shared_ptr<server::QueryHandle>> handle =
      engine.Submit(query);
  ASSERT_TRUE(handle.ok()) << handle.status();

  server::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.device_inflight_bytes.size(), 4u);
  std::uint64_t pool_sum = 0;
  for (const auto& [device, bytes] : stats.device_inflight_bytes) {
    EXPECT_GT(bytes, 0u) << "device " << device;
    pool_sum += bytes;
  }
  EXPECT_EQ(pool_sum, stats.gpu_inflight_bytes);

  engine.Resume();
  const Result<engine::ExecReport>& report = handle.value()->Wait();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().result, expected);
  stats = engine.stats();
  EXPECT_EQ(stats.gpu_inflight_bytes, 0u);
  for (const auto& [device, bytes] : stats.device_inflight_bytes) {
    EXPECT_EQ(bytes, 0u) << "device " << device;
  }
}

TEST(QueryEngineTest, ConcurrentSubmittersAllResolve) {
  // Concurrent queries share the executor pool: at every worker count and
  // under both the CPU plan and the heterogeneous GPU plan, every served
  // result is bit-identical to solo execution. In each cell one more
  // query is cancelled while its siblings run; it resolves (cancelled,
  // or complete and correct if it finished first) and no sibling waits
  // on it or returns a wrong result.
  const engine::Query q1 = engine::SsbQ1(Db());
  const engine::Query q2 = engine::SsbQ2(Db());
  const engine::Query q3 = engine::SsbQ3(Db());
  const engine::QueryResult expected[] = {Solo(q1), Solo(q2), Solo(q3)};
  const engine::Query* queries[] = {&q1, &q2, &q3};

  for (const plan::PlacementPolicy policy :
       {plan::PlacementPolicy::kCpuOnly,
        plan::PlacementPolicy::kGpuPreferred}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "policy " << static_cast<int>(policy) << ", workers "
                   << workers);
      server::EngineOptions options;
      options.session_threads = 4;
      options.queue_capacity = 64;
      options.policy = policy;
      server::QueryEngine engine(options);

      constexpr std::size_t kSubmitters = 4;
      constexpr std::size_t kPerSubmitter = 4;
      server::SubmitOptions submit;
      submit.workers = workers;
      std::atomic<int> mismatches{0};
      std::atomic<int> errors{0};
      std::vector<std::thread> submitters;
      for (std::size_t t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
          for (std::size_t q = 0; q < kPerSubmitter; ++q) {
            const std::size_t pick = (t + q) % 3;
            Result<std::shared_ptr<server::QueryHandle>> handle =
                engine.Submit(*queries[pick], submit);
            if (!handle.ok()) {
              errors.fetch_add(1);
              continue;
            }
            const Result<engine::ExecReport>& report =
                handle.value()->Wait();
            if (!report.ok()) {
              errors.fetch_add(1);
            } else if (!(report.value().result == expected[pick])) {
              mismatches.fetch_add(1);
            }
          }
        });
      }
      server::SubmitOptions victim_submit = submit;
      victim_submit.morsel_tuples = 1'000;  // Many cancel polls.
      Result<std::shared_ptr<server::QueryHandle>> victim =
          engine.Submit(q3, victim_submit);
      EXPECT_TRUE(victim.ok()) << victim.status();
      if (victim.ok()) {
        victim.value()->Cancel();
        const Result<engine::ExecReport>& cancelled = victim.value()->Wait();
        if (cancelled.ok()) {
          EXPECT_EQ(cancelled.value().result, expected[2]);
        } else {
          EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
        }
      }
      for (std::thread& submitter : submitters) submitter.join();
      EXPECT_EQ(errors.load(), 0);
      EXPECT_EQ(mismatches.load(), 0);
      const server::EngineStats stats = engine.stats();
      EXPECT_EQ(stats.completed + stats.cancelled,
                kSubmitters * kPerSubmitter + 1);
      EXPECT_GE(stats.completed, kSubmitters * kPerSubmitter);
    }
  }
}

// ---------------------------------------------------------------------
// Star queries whose dimension builds span many morsels: the parallel
// dimension-table build, solo on every placement and concurrently
// through the serving engine, against a brute-force oracle.

constexpr std::size_t kStarDimRows = 20'000;
/// 10 build morsels per dimension (and 15 probe morsels).
constexpr std::size_t kStarMorselTuples = 2'000;

struct StarFixture {
  /// Dense keys 0..19'999, shuffled: the perfect (bitset) kind.
  engine::Table dense_dim;
  /// Sparse keys 1'000 k + 7: the linear-probing kind.
  engine::Table sparse_dim;
  engine::Table fact;
  /// Filter variants over both dimensions, and their oracle results.
  std::vector<engine::Query> queries;
  std::vector<engine::QueryResult> expected;
};

const StarFixture& Star() {
  static const StarFixture* fixture = [] {
    auto* f = new StarFixture();
    std::mt19937_64 rng(15);
    auto uniform = [&rng](std::int64_t lo, std::int64_t hi) {
      return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    std::vector<std::int64_t> dense_keys(kStarDimRows);
    std::iota(dense_keys.begin(), dense_keys.end(), 0);
    std::shuffle(dense_keys.begin(), dense_keys.end(), rng);
    std::vector<std::int64_t> sparse_keys(kStarDimRows);
    for (std::size_t k = 0; k < kStarDimRows; ++k) {
      sparse_keys[k] = static_cast<std::int64_t>(k) * 1'000 + 7;
    }
    std::vector<std::int64_t> dense_attr(kStarDimRows);
    std::vector<std::int64_t> sparse_attr(kStarDimRows);
    for (std::size_t k = 0; k < kStarDimRows; ++k) {
      dense_attr[k] = uniform(0, 99);
      sparse_attr[k] = uniform(0, 9);
    }
    EXPECT_TRUE(f->dense_dim.AddColumn("pk", std::move(dense_keys)).ok());
    EXPECT_TRUE(f->dense_dim.AddColumn("attr", std::move(dense_attr)).ok());
    EXPECT_TRUE(f->sparse_dim.AddColumn("pk", std::move(sparse_keys)).ok());
    EXPECT_TRUE(
        f->sparse_dim.AddColumn("attr", std::move(sparse_attr)).ok());

    constexpr std::size_t kFactRows = 30'000;
    std::vector<std::int64_t> dense_fk(kFactRows);
    std::vector<std::int64_t> sparse_fk(kFactRows);
    std::vector<std::int64_t> measure(kFactRows);
    for (std::size_t i = 0; i < kFactRows; ++i) {
      dense_fk[i] = uniform(-3, kStarDimRows + 3);
      // Mostly members; every fourth key misses the sparse domain.
      sparse_fk[i] = uniform(0, kStarDimRows - 1) * 1'000 +
                     (i % 4 == 0 ? 8 : 7);
      measure[i] = uniform(-1'000, 1'000);
    }
    EXPECT_TRUE(f->fact.AddColumn("dense_fk", std::move(dense_fk)).ok());
    EXPECT_TRUE(f->fact.AddColumn("sparse_fk", std::move(sparse_fk)).ok());
    EXPECT_TRUE(f->fact.AddColumn("m", std::move(measure)).ok());

    perfbench::Oracle oracle;
    for (const std::int64_t literal : {25, 50, 75}) {
      engine::Query query;
      query.fact = &f->fact;
      query.measure_column = std::string("m");
      query.joins.push_back(engine::JoinClause{
          "dense_fk", &f->dense_dim, "pk",
          engine::Filter{"attr", ops::CompareOp::kLt, literal}, true});
      query.joins.push_back(engine::JoinClause{
          "sparse_fk", &f->sparse_dim, "pk",
          engine::Filter{"attr", ops::CompareOp::kNe, 3}, true});
      f->expected.push_back(oracle.Evaluate(query).value());
      f->queries.push_back(std::move(query));
    }
    return f;
  }();
  return *fixture;
}

TEST(StarBuildTest, ParallelBuildsMatchOracleOnEveryPlacement) {
  const StarFixture& star = Star();
  static_assert(kStarDimRows / kStarMorselTuples >= 4);
  for (const bool gpu_plan : {false, true}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      for (const bool cached : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << (gpu_plan ? "gpu" : "cpu") << " plan, workers "
                     << workers << (cached ? ", build cache" : ""));
        plan::BuildCache cache(64ull << 20);
        engine::ExecOptions options;
        options.workers = workers;
        options.morsel_tuples = kStarMorselTuples;
        options.gpu_plan = gpu_plan;
        options.build_cache = cached ? &cache : nullptr;
        for (std::size_t q = 0; q < star.queries.size(); ++q) {
          Result<engine::ExecReport> report =
              engine::Executor::RunResilient(star.queries[q], options);
          ASSERT_TRUE(report.ok()) << report.status();
          EXPECT_EQ(report.value().result, star.expected[q]) << "query " << q;
          EXPECT_EQ(report.value().used_gpu, gpu_plan) << "query " << q;
        }
      }
    }
  }
}

TEST(QueryEngineTest, ConcurrentParallelStarBuildsMatchOracle) {
  // Concurrent queries build (and evict: the cache holds the sparse table
  // and one dense variant) through the engine's shared cache with mixed
  // worker counts; every result matches the oracle.
  const StarFixture& star = Star();
  for (const plan::PlacementPolicy policy :
       {plan::PlacementPolicy::kCpuOnly,
        plan::PlacementPolicy::kGpuPreferred}) {
    SCOPED_TRACE(testing::Message() << "policy " << static_cast<int>(policy));
    server::EngineOptions options;
    options.session_threads = 4;
    options.queue_capacity = 64;
    options.policy = policy;
    options.cache_capacity_bytes = 3ull << 19;  // 1.5 MiB.
    server::QueryEngine engine(options);

    constexpr std::size_t kSubmitters = 4;
    constexpr std::size_t kPerSubmitter = 6;
    constexpr std::size_t kWorkers[] = {1, 2, 4};
    std::atomic<int> mismatches{0};
    std::atomic<int> errors{0};
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t q = 0; q < kPerSubmitter; ++q) {
          const std::size_t pick = (t + q) % star.queries.size();
          server::SubmitOptions submit;
          submit.workers = kWorkers[(t + 2 * q) % 3];
          submit.morsel_tuples = kStarMorselTuples;
          Result<std::shared_ptr<server::QueryHandle>> handle =
              engine.Submit(star.queries[pick], submit);
          if (!handle.ok()) {
            errors.fetch_add(1);
            continue;
          }
          const Result<engine::ExecReport>& report = handle.value()->Wait();
          if (!report.ok()) {
            errors.fetch_add(1);
          } else if (!(report.value().result == star.expected[pick])) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(engine.stats().completed, kSubmitters * kPerSubmitter);
    EXPECT_GT(engine.build_cache().stats().misses, 0u);
  }
}


TEST(QueryEngineTest, ConcurrentFirstSubmitsShareOneKeyRangeScan) {
  // Four star filter variants over one fresh dimension, submitted at
  // once: the compiles under the admission lock scan its key column once,
  // and every result matches the oracle.
  std::mt19937_64 rng(16);
  std::vector<std::int64_t> keys(kStarDimRows);
  std::iota(keys.begin(), keys.end(), 0);
  std::shuffle(keys.begin(), keys.end(), rng);
  std::vector<std::int64_t> attr(kStarDimRows);
  for (std::int64_t& a : attr) a = static_cast<std::int64_t>(rng() % 100);
  engine::Table dim;
  ASSERT_TRUE(dim.AddColumn("pk", std::move(keys)).ok());
  ASSERT_TRUE(dim.AddColumn("attr", std::move(attr)).ok());
  std::vector<std::int64_t> fk(3 * kStarDimRows);
  std::vector<std::int64_t> measure(fk.size());
  for (std::size_t i = 0; i < fk.size(); ++i) {
    fk[i] = static_cast<std::int64_t>(rng() % (kStarDimRows + 8)) - 4;
    measure[i] = static_cast<std::int64_t>(rng() % 2'001) - 1'000;
  }
  engine::Table fact;
  ASSERT_TRUE(fact.AddColumn("fk", std::move(fk)).ok());
  ASSERT_TRUE(fact.AddColumn("m", std::move(measure)).ok());

  constexpr std::size_t kSubmitters = 4;
  std::vector<engine::Query> queries;
  for (std::size_t v = 0; v < kSubmitters; ++v) {
    engine::Query query;
    query.fact = &fact;
    query.measure_column = "m";
    query.joins.push_back(engine::JoinClause{
        "fk", &dim, "pk",
        engine::Filter{"attr", ops::CompareOp::kLt,
                       static_cast<std::int64_t>(20 * (v + 1))},
        true});
    queries.push_back(std::move(query));
  }

  server::EngineOptions options;
  options.session_threads = 4;
  options.queue_capacity = 16;
  server::QueryEngine engine(options);
  obs::Counter& scans =
      obs::MetricsRegistry::Instance().GetCounter("engine.table.range_scans");
  const std::uint64_t before = scans.value();
  std::atomic<std::size_t> ready{0};
  std::vector<Result<engine::ExecReport>> reports(
      kSubmitters, Status::Internal("unset"));
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kSubmitters) {
      }
      server::SubmitOptions submit;
      submit.workers = 2;
      submit.morsel_tuples = kStarMorselTuples;
      Result<std::shared_ptr<server::QueryHandle>> handle =
          engine.Submit(queries[t], submit);
      reports[t] = handle.ok() ? handle.value()->Wait() : handle.status();
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  EXPECT_EQ(scans.value() - before, 1u);
  perfbench::Oracle oracle;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    ASSERT_TRUE(reports[t].ok()) << reports[t].status();
    EXPECT_EQ(reports[t].value().result, oracle.Evaluate(queries[t]).value())
        << "variant " << t;
  }
}

}  // namespace
}  // namespace pump
