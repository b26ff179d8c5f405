#include "exec/executor.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/query_context.h"
#include "verify/mutation.h"

namespace pump::exec {

namespace {

/// Process-wide mirrors of the per-executor counters: the registry view
/// aggregates every Executor instance (tests construct private pools),
/// while Executor::Stats() stays per-instance.
obs::Counter& Counter(const char* name) {
  return obs::MetricsRegistry::Instance().GetCounter(name);
}

struct ExecMetrics {
  obs::Counter& dispatches = Counter("exec.dispatches");
  obs::Counter& tasks_run = Counter("exec.tasks_run");
  obs::Counter& steals = Counter("exec.steals");
  obs::Counter& parks = Counter("exec.parks");
  obs::Counter& unparks = Counter("exec.unparks");
};

ExecMetrics& Metrics() {
  static ExecMetrics metrics;
  return metrics;
}

/// True on any thread currently inside a Run slot (pool thread or the
/// calling thread of an active dispatch). Nested Run calls observe it and
/// fall back to inline execution instead of deadlocking on the pool.
thread_local bool tls_in_run = false;

class ScopedInRun {
 public:
  ScopedInRun() { tls_in_run = true; }
  ~ScopedInRun() { tls_in_run = false; }
};

/// This thread's ParallelFor executor when not Default() (set by
/// ScopedParallelForExecutor).
thread_local Executor* tls_parallel_for_executor = nullptr;

}  // namespace

/// One external Run call. Its fields are guarded by the executor's
/// mutex_; `done` wakes the caller once the last slot completed.
struct Executor::Job {
  const std::function<void(std::size_t)>& fn;
  const std::size_t workers;
  /// The caller's query context, installed around every slot: a slot
  /// records trace events under the query that forked the phase (morsel
  /// workers, GPU batch slices, shard probes all dispatch here).
  obs::QueryContext context = obs::CurrentQueryContext();
  std::size_t next = 1;  // Slot 0 belongs to the calling thread.
  std::size_t completed = 0;
  std::exception_ptr error = nullptr;
  verify::CondVar done{};
};

Executor::Executor(std::size_t threads)
    : counters_(std::max<std::size_t>(1, threads)) {
  verify::NamedMutex(&mutex_, "exec.pool");
  threads_.reserve(counters_.size());
  for (std::size_t t = 0; t < counters_.size(); ++t) {
    threads_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

Executor::~Executor() {
  // An aborted model run (PUMP_VERIFY) may deliver RunAborted at any of
  // these sequence points; a destructor must not leak it.
  try {
    {
      Lock lock(mutex_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (verify::Thread& thread : threads_) thread.join();
  } catch (...) {
  }
}

std::size_t Executor::Claim(Job& job) {
  const std::size_t id = job.next++;
  if (job.next == job.workers) {
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  }
  return id;
}

void Executor::RunSlot(Job& job, std::size_t id, Lock& lock) {
  lock.unlock();
  std::exception_ptr error;
  try {
    obs::ScopedQueryContext scope(job.context);
    job.fn(id);
  } catch (...) {
    error = std::current_exception();
  }
  // Seeded mutant: waking the caller before the completion is counted
  // loses the wakeup when the caller checks its predicate in between.
  const bool early_notify = PUMP_VERIFY_MUTATE("exec.pool.notify_before_done");
  if (early_notify) job.done.notify_one();
  lock.lock();
  if (error && !job.error) job.error = error;
  if (++job.completed == job.workers && !early_notify) job.done.notify_one();
}

void Executor::WorkerLoop(std::size_t thread_index) {
  ScopedInRun in_run;  // Nested ParallelFor inside a slot runs inline.
  Lock lock(mutex_);
  WorkerStats& stats = counters_[thread_index];
  bool parked = true;  // A fresh thread's first claim counts as an unpark.
  while (true) {
    while (!shutdown_ && jobs_.empty()) {
      ++stats.parks;
      Metrics().parks.Add();
      parked = true;
      work_cv_.wait(lock);
    }
    if (shutdown_) return;
    if (parked) {
      ++stats.unparks;
      Metrics().unparks.Add();
      parked = false;
    } else {
      ++stats.steals;
      Metrics().steals.Add();
    }
    // Round-robin across the active jobs: each query gets its share of
    // the pool instead of queueing behind the one that arrived first.
    Job& job = *jobs_[next_job_++ % jobs_.size()];
    RunSlot(job, Claim(job), lock);
    ++stats.tasks_run;
    Metrics().tasks_run.Add();
  }
}

void Executor::Run(std::size_t workers,
                   const std::function<void(std::size_t)>& fn) {
  if (workers <= 1) {
    fn(0);
    return;
  }
  if (tls_in_run) {
    // Nested dispatch from inside a slot: the pool is busy running us, so
    // execute sequentially. Correct (same slots, same barrier), not
    // parallel — operators dispatch at the top level.
    for (std::size_t id = 0; id < workers; ++id) fn(id);
    return;
  }
  ScopedInRun in_run;
  Job job{fn, workers};
  Lock lock(mutex_);
  ++dispatches_;
  Metrics().dispatches.Add();
  jobs_.push_back(&job);
  // Wake only as many parked threads as the job has pool slots.
  for (std::size_t wake = std::min(workers - 1, threads_.size()); wake > 0;
       --wake) {
    work_cv_.notify_one();
  }
  RunSlot(job, 0, lock);
  // Help with our own unclaimed slots, then wait only for the slots pool
  // threads hold: the job finishes even when other queries keep every
  // pool thread busy.
  while (job.next < job.workers) {
    RunSlot(job, Claim(job), lock);
    ++caller_slots_;
  }
  job.done.wait(lock, [&] { return job.completed == job.workers; });
  if (job.error) std::rethrow_exception(job.error);
}

Status Executor::RunStatus(std::size_t workers,
                           const std::function<Status(std::size_t)>& fn) {
  verify::Mutex status_mutex;
  Status first_error;
  Run(workers, [&](std::size_t id) {
    Status status = fn(id);
    if (!status.ok()) {
      std::lock_guard<verify::Mutex> lock(status_mutex);
      if (first_error.ok()) first_error = std::move(status);
    }
  });
  return first_error;
}

std::vector<WorkerStats> Executor::Stats() const {
  Lock lock(mutex_);
  return counters_;
}

Executor& Executor::Default() {
  static Executor executor(DefaultWorkerCount());
  return executor;
}

void ParallelFor(std::size_t workers,
                 const std::function<void(std::size_t)>& fn) {
  // One worker runs inline and never constructs the process-wide pool.
  if (workers <= 1) return fn(0);
  Executor* executor = tls_parallel_for_executor;
  (executor != nullptr ? *executor : Executor::Default()).Run(workers, fn);
}

ScopedParallelForExecutor::ScopedParallelForExecutor(Executor* executor)
    : previous_(tls_parallel_for_executor) {
  tls_parallel_for_executor = executor;
}

ScopedParallelForExecutor::~ScopedParallelForExecutor() {
  tls_parallel_for_executor = previous_;
}

std::size_t DefaultWorkerCount() {
  // A hardware query, not a synchronization primitive.
  return std::max(1u, std::thread::hardware_concurrency());  // verify-exempt
}

}  // namespace pump::exec
