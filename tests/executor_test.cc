#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/status.h"
#include "exec/executor.h"
#include "exec/morsel.h"
#include "exec/parallel.h"
#include "exec/work_stealing.h"
#include "gtest/gtest.h"

namespace pump::exec {
namespace {

/// Polls `done` for up to a few seconds, so a test whose threads fail to
/// overlap fails instead of hanging. Returns whether `done` became true.
template <typename Pred>
bool WaitUntil(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST(ExecutorTest, RunsEverySlotExactlyOnce) {
  Executor executor(3);
  std::vector<std::atomic<int>> ran(16);
  executor.Run(16, [&](std::size_t id) { ran[id].fetch_add(1); });
  for (auto& count : ran) EXPECT_EQ(count.load(), 1);
}

TEST(ExecutorTest, SlotZeroRunsOnCallingThread) {
  Executor executor(2);
  const auto caller = std::this_thread::get_id();
  std::thread::id slot0;
  executor.Run(2, [&](std::size_t id) {
    if (id == 0) slot0 = std::this_thread::get_id();
  });
  EXPECT_EQ(slot0, caller);
}

TEST(ExecutorTest, SingleWorkerRunsInline) {
  Executor executor(2);
  const std::uint64_t dispatches_before = executor.dispatches();
  std::size_t seen = 99;
  executor.Run(1, [&](std::size_t id) { seen = id; });
  EXPECT_EQ(seen, 0u);
  // Degenerate dispatches never engage (or count against) the pool.
  EXPECT_EQ(executor.dispatches(), dispatches_before);
}

TEST(ExecutorTest, MatchesParallelForAcrossPhases) {
  // Fork-join equivalence with ParallelFor, reused across phases the way
  // a join uses one pool for build then probe.
  constexpr std::size_t kN = 10000;
  std::vector<std::uint64_t> data(kN);
  std::iota(data.begin(), data.end(), 0);

  std::atomic<std::uint64_t> reference{0};
  ParallelFor(4, [&](std::size_t w) {
    std::uint64_t local = 0;
    for (std::size_t i = w; i < kN; i += 4) local += data[i];
    reference.fetch_add(local);
  });

  Executor executor(4);
  std::atomic<std::uint64_t> sum{0};
  for (int phase = 0; phase < 3; ++phase) {
    std::atomic<std::uint64_t> phase_sum{0};
    executor.Run(4, [&](std::size_t w) {
      std::uint64_t local = 0;
      for (std::size_t i = w; i < kN; i += 4) local += data[i];
      phase_sum.fetch_add(local);
    });
    sum.store(phase_sum.load());
  }
  EXPECT_EQ(sum.load(), reference.load());
}

TEST(ExecutorTest, StatsAccumulateAcrossDispatches) {
  Executor executor(2);
  for (int i = 0; i < 5; ++i) {
    // Slot 0 holds the caller until a pool thread started a slot, so
    // every dispatch engages the pool (otherwise the caller may run all
    // of these empty slots itself before a parked thread wakes).
    std::atomic<bool> pool_started{false};
    executor.Run(4, [&](std::size_t id) {
      if (id != 0) {
        pool_started.store(true);
      } else {
        EXPECT_TRUE(WaitUntil([&] { return pool_started.load(); }));
      }
    });
  }
  EXPECT_EQ(executor.dispatches(), 5u);
  const std::vector<WorkerStats> stats = executor.Stats();
  ASSERT_EQ(stats.size(), 2u);
  std::uint64_t tasks = 0;
  std::uint64_t unparks = 0;
  for (const WorkerStats& s : stats) {
    tasks += s.tasks_run;
    unparks += s.unparks;
  }
  // The caller runs slot 0 of each dispatch; pool threads and the
  // helping caller split the rest, each slot exactly once.
  EXPECT_EQ(tasks + executor.caller_slots(), 5u * 3u);
  EXPECT_GE(unparks, 5u);  // At least one wake-up per dispatch.
}

TEST(ExecutorTest, MoreSlotsThanThreadsStillCovered) {
  Executor executor(1);
  std::vector<std::atomic<int>> ran(64);
  executor.Run(64, [&](std::size_t id) { ran[id].fetch_add(1); });
  for (auto& count : ran) EXPECT_EQ(count.load(), 1);
  // The single pool thread and the helping caller split the 63 pool
  // slots; every slot the thread ran past its first is a steal.
  const std::vector<WorkerStats> stats = executor.Stats();
  EXPECT_EQ(stats[0].tasks_run + executor.caller_slots(), 63u);
  EXPECT_EQ(stats[0].steals,
            stats[0].tasks_run == 0 ? 0u : stats[0].tasks_run - 1);
}

TEST(ExecutorTest, ConcurrentRunsOverlap) {
  // Two external callers share the pool: each job's slot 1 waits until
  // both jobs' slot 1 started, which only succeeds when the jobs run
  // concurrently rather than one after the other.
  Executor executor(2);
  std::atomic<int> started{0};
  std::atomic<int> timeouts{0};
  const auto job = [&] {
    executor.Run(2, [&](std::size_t id) {
      if (id != 1) return;
      started.fetch_add(1);
      if (!WaitUntil([&] { return started.load() == 2; })) {
        timeouts.fetch_add(1);
      }
    });
  };
  std::thread first(job);
  std::thread second(job);
  first.join();
  second.join();
  EXPECT_EQ(started.load(), 2);
  EXPECT_EQ(timeouts.load(), 0);
}

TEST(ExecutorTest, ExceptionStaysInItsJob) {
  // Job B stays in flight across the whole of job A, whose slot throws:
  // only A's Run rethrows, and B returns normally.
  Executor executor(2);
  std::atomic<bool> b_running{false};
  std::atomic<bool> a_returned{false};
  std::atomic<bool> b_spanned_a{false};
  std::atomic<bool> b_threw{false};
  std::thread b([&] {
    try {
      executor.Run(2, [&](std::size_t id) {
        if (id != 1) return;
        b_running.store(true);
        b_spanned_a.store(WaitUntil([&] { return a_returned.load(); }));
      });
    } catch (...) {
      b_threw.store(true);
    }
  });
  EXPECT_TRUE(WaitUntil([&] { return b_running.load(); }));
  EXPECT_THROW(executor.Run(2,
                            [](std::size_t id) {
                              if (id == 1) {
                                throw std::runtime_error("job A failed");
                              }
                            }),
               std::runtime_error);
  a_returned.store(true);
  b.join();
  EXPECT_TRUE(b_spanned_a.load());
  EXPECT_FALSE(b_threw.load());
}

TEST(ExecutorTest, ExceptionPropagatesAfterBarrier) {
  Executor executor(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      executor.Run(8,
                   [&](std::size_t id) {
                     if (id == 3) throw std::runtime_error("slot 3 failed");
                     completed.fetch_add(1);
                   }),
      std::runtime_error);
  // The barrier held: every non-throwing slot still ran.
  EXPECT_EQ(completed.load(), 7);
  // The pool survives and is reusable after an exception.
  std::atomic<int> again{0};
  executor.Run(4, [&](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 4);
}

TEST(ExecutorTest, CallerSlotExceptionPropagates) {
  Executor executor(2);
  EXPECT_THROW(executor.Run(4,
                            [](std::size_t id) {
                              if (id == 0) {
                                throw std::runtime_error("caller slot");
                              }
                            }),
               std::runtime_error);
}

TEST(ExecutorTest, RunStatusPropagatesFirstError) {
  Executor executor(2);
  const Status status = executor.RunStatus(6, [](std::size_t id) {
    if (id == 2) return Status::InvalidArgument("bad slot");
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(executor.RunStatus(6, [](std::size_t) {
    return Status::OK();
  }).ok());
}

TEST(ExecutorTest, NestedRunExecutesInline) {
  Executor executor(2);
  std::atomic<int> inner_runs{0};
  executor.Run(2, [&](std::size_t) {
    // A nested dispatch from inside a slot must not deadlock on the pool;
    // it degrades to sequential execution.
    Executor::Default().Run(3, [&](std::size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 6);
}

TEST(ExecutorTest, DefaultIsProcessWideSingleton) {
  EXPECT_EQ(&Executor::Default(), &Executor::Default());
  EXPECT_EQ(Executor::Default().thread_count(), DefaultWorkerCount());
}

TEST(WorkStealingDispatcherTest, CoversInputExactlyOnceSequential) {
  WorkStealingDispatcher dispatcher(10000, 64, 4);
  std::vector<int> touched(10000, 0);
  while (auto morsel = dispatcher.Next(0)) {
    for (std::size_t i = morsel->begin; i < morsel->end; ++i) ++touched[i];
  }
  EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 10000);
  EXPECT_EQ(*std::max_element(touched.begin(), touched.end()), 1);
}

TEST(WorkStealingDispatcherTest, CoversInputExactlyOnceConcurrent) {
  constexpr std::size_t kTotal = 100000;
  WorkStealingDispatcher dispatcher(kTotal, 97, 8);
  std::vector<std::atomic<int>> touched(kTotal);
  ParallelFor(8, [&](std::size_t w) {
    while (auto morsel = dispatcher.Next(w)) {
      for (std::size_t i = morsel->begin; i < morsel->end; ++i) {
        touched[i].fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << i;
  }
}

TEST(WorkStealingDispatcherTest, TailMorselIsShort) {
  // 2 chunks of 2 morsels x 64; the last morsel covers the 36-tuple tail.
  WorkStealingDispatcher dispatcher(100 + 128, 64, 1, 2);
  std::size_t total = 0;
  std::size_t smallest = 64;
  while (auto morsel = dispatcher.Next(0)) {
    total += morsel->size();
    smallest = std::min(smallest, morsel->size());
  }
  EXPECT_EQ(total, 228u);
  EXPECT_EQ(smallest, 36u);
}

TEST(WorkStealingDispatcherTest, EmptyInput) {
  WorkStealingDispatcher dispatcher(0, 64, 4);
  EXPECT_FALSE(dispatcher.Next(0).has_value());
  EXPECT_FALSE(dispatcher.Next(3).has_value());
}

TEST(WorkStealingDispatcherTest, ZeroMorselAndChunkClamped) {
  WorkStealingDispatcher dispatcher(5, 0, 2, 0);
  std::size_t claims = 0;
  while (dispatcher.Next(0)) ++claims;
  EXPECT_EQ(claims, 5u);  // Morsel size clamps to 1.
}

TEST(WorkStealingDispatcherTest, StealsDrainAnotherWorkersChunk) {
  // Worker 0 claims a chunk (8 morsels) and stops after one morsel;
  // worker 1 exhausts the global cursor, then must steal the remainder
  // of worker 0's chunk to cover the input.
  constexpr std::size_t kTotal = 16 * 10;
  WorkStealingDispatcher dispatcher(kTotal, 10, 2);
  auto first = dispatcher.Next(0);
  ASSERT_TRUE(first.has_value());
  std::size_t covered = first->size();
  while (auto morsel = dispatcher.Next(1)) covered += morsel->size();
  EXPECT_EQ(covered, kTotal);
  EXPECT_GT(dispatcher.steals(1), 0u);
  EXPECT_EQ(dispatcher.total_steals(), dispatcher.steals(1));
}

TEST(WorkStealingDispatcherTest, FewerSharedClaimsThanMorsels) {
  WorkStealingDispatcher dispatcher(64 * 100, 100, 1);
  std::size_t morsels = 0;
  while (dispatcher.Next(0)) ++morsels;
  EXPECT_EQ(morsels, 64u);
#if PUMP_HB_ASSERTIONS
  EXPECT_EQ(dispatcher.hb_claims(), 64u);
  // The point of hierarchical claiming: the shared cursor was touched
  // once per chunk, not once per morsel.
  EXPECT_EQ(dispatcher.hb_chunk_claims(),
            64u / kDefaultChunkMorsels);
#endif
}

TEST(MorselDispatcherTest, CursorSaturatesAtDrain) {
  // Regression test for unbounded cursor growth: spinning workers polling
  // a dry dispatcher must not creep the cursor past the total.
  MorselDispatcher dispatcher(1000, 64);
  while (dispatcher.Next()) {
  }
  EXPECT_EQ(dispatcher.dispatched(), 1000u);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(dispatcher.Next().has_value());
  }
  EXPECT_EQ(dispatcher.dispatched(), 1000u);
}

TEST(WorkStealingDispatcherTest, DrainedDispatcherStaysDrained) {
  WorkStealingDispatcher dispatcher(1000, 64, 4);
  std::size_t covered = 0;
  while (auto morsel = dispatcher.Next(0)) covered += morsel->size();
  EXPECT_EQ(covered, 1000u);
  for (int i = 0; i < 1000; ++i) {
    for (std::size_t w = 0; w < 4; ++w) {
      EXPECT_FALSE(dispatcher.Next(w).has_value());
    }
  }
}

}  // namespace
}  // namespace pump::exec
