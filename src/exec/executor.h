#ifndef PUMP_EXEC_EXECUTOR_H_
#define PUMP_EXEC_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "verify/sync.h"

namespace pump::exec {

/// Per-pool-thread counters, exposed for the micro benches: how many
/// logical worker slots a thread executed, how many of those it claimed
/// beyond its first slot since waking (slot steals — the thread soaked
/// up work another thread never started), and how often it parked on /
/// unparked from the dispatch condition variable.
struct WorkerStats {
  std::uint64_t tasks_run = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;
  std::uint64_t unparks = 0;
};

/// A persistent fork-join thread pool: the execution runtime beneath every
/// morsel-parallel operator. Workers are spawned once and parked on a
/// condition variable between phases, so a build/probe phase pays a
/// wake-up instead of a thread spawn — the cheap-dispatch assumption of
/// morsel-driven scheduling (Sec. 6.1) that spawn-per-phase fork-join
/// violates by an order of magnitude (bench/micro_parallel.cc).
///
/// Run(workers, fn) runs fn(0) on the calling thread and queues
/// fn(1..workers-1) as one job; it returns only when every slot of the
/// job finished (the join is the build/probe barrier the hash tables
/// require). Concurrent Run calls from distinct external threads are
/// concurrent jobs: pool threads claim slots round-robin across them, and
/// each caller also runs its own still-unclaimed slots, so a job
/// completes even while other queries hold every pool thread. Slots never
/// run twice. Nested Run calls (from inside a slot) degrade to inline
/// sequential execution.
class Executor {
 public:
  /// Spawns `threads` parked worker threads (at least 1).
  explicit Executor(std::size_t threads);
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  /// Unparks and joins every worker.
  ~Executor();

  /// Runs `fn(worker_id)` for every id in [0, workers); id 0 on the
  /// calling thread. Blocks until all slots completed. An exception thrown
  /// by any slot is rethrown here (first one of this call wins; the
  /// remaining slots still run to completion so the barrier stays
  /// intact). Other concurrent calls never see it.
  void Run(std::size_t workers, const std::function<void(std::size_t)>& fn);

  /// Run variant for Status-returning slot bodies: returns the first
  /// non-OK Status (every slot still runs; morsel loops should check a
  /// shared failed flag to cut work short, as BuildPhase does).
  Status RunStatus(std::size_t workers,
                   const std::function<Status(std::size_t)>& fn);

  /// Number of pool threads.
  std::size_t thread_count() const { return threads_.size(); }

  /// Snapshot of the per-thread counters.
  std::vector<WorkerStats> Stats() const;

  /// Fork-join dispatches issued so far (Run calls that engaged the pool).
  std::uint64_t dispatches() const {
    Lock lock(mutex_);
    return dispatches_;
  }

  /// Slots 1..workers-1 that calling threads ran themselves because no
  /// pool thread had claimed them yet. With the pool's tasks_run this
  /// counts every non-zero slot exactly once.
  std::uint64_t caller_slots() const {
    Lock lock(mutex_);
    return caller_slots_;
  }

  /// The process-wide executor used by ParallelFor and every operator;
  /// sized to DefaultWorkerCount(), created on first use.
  static Executor& Default();

 private:
  struct Job;
  using Lock = std::unique_lock<verify::Mutex>;

  void WorkerLoop(std::size_t thread_index);
  /// Claims the next slot of `job` (mutex_ held) and retires the job from
  /// the queue once its last slot is claimed.
  std::size_t Claim(Job& job);
  /// Runs slot `id` of `job` with mutex_ released, then records its
  /// completion (and first exception) under mutex_.
  static void RunSlot(Job& job, std::size_t id, Lock& lock);

  // All state below is guarded by mutex_. Claiming a slot takes the
  // mutex: jobs hand out at most `workers` coarse slots, so the claim rate
  // is tiny next to the per-morsel work inside a slot (the fine-grained
  // claiming lives in MorselDispatcher/WorkStealingDispatcher).
  mutable verify::Mutex mutex_;
  verify::CondVar work_cv_;
  /// Jobs with unclaimed slots, in arrival order; each lives on its
  /// caller's stack for the duration of Run.
  std::vector<Job*> jobs_;
  /// Round-robin cursor over jobs_ for pool-thread claims.
  std::size_t next_job_ = 0;
  bool shutdown_ = false;
  std::uint64_t dispatches_ = 0;
  std::uint64_t caller_slots_ = 0;
  std::vector<WorkerStats> counters_;

  std::vector<verify::Thread> threads_;
};

}  // namespace pump::exec

#endif  // PUMP_EXEC_EXECUTOR_H_
