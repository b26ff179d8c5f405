#ifndef PUMP_EXEC_PARALLEL_H_
#define PUMP_EXEC_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <utility>

#include "common/status.h"
#include "exec/morsel.h"
#include "exec/work_stealing.h"

namespace pump::exec {

class Executor;

/// Runs `fn(worker_id)` for every id in [0, workers) and joins; the
/// worker with id 0 runs on the calling thread. This is the fork-join
/// primitive beneath the functional joins' build and probe phases — the
/// join-all acts as the build/probe barrier the hash tables require.
/// Dispatches onto the process-wide persistent `Executor` (exec/executor.h)
/// rather than spawning threads per call, so a phase costs a worker
/// wake-up, not a thread creation.
void ParallelFor(std::size_t workers,
                 const std::function<void(std::size_t)>& fn);

/// Sends the calling thread's multi-worker ParallelFor calls to
/// `executor` instead of Executor::Default() while in scope. The
/// verifier's parallel-build model runs DimensionTable::Build this way on
/// a private pool whose threads are model threads.
class ScopedParallelForExecutor {
 public:
  explicit ScopedParallelForExecutor(Executor* executor);
  ~ScopedParallelForExecutor();
  ScopedParallelForExecutor(const ScopedParallelForExecutor&) = delete;
  ScopedParallelForExecutor& operator=(const ScopedParallelForExecutor&) =
      delete;

 private:
  Executor* previous_;
};

/// A reasonable default worker count: the hardware concurrency, at least 1.
std::size_t DefaultWorkerCount();

/// The morsel-parallel build loop: `workers` workers claim morsels of
/// `morsel_tuples` over [0, total) from a work-stealing dispatcher and run
/// `fn(worker, morsel)`, which returns a Status. The first failure is
/// kept (the worker that flips `failed` writes it, so exactly one does)
/// and stops every worker at its next claim. Returns after the
/// ParallelFor join — the barrier between the inserts `fn` makes and any
/// later read of them — with the first failure, or OK. A single worker
/// has nothing to claim against: it runs the morsels in order on the
/// calling thread and touches neither the dispatcher nor the executor
/// pool (which keeps single-worker builds out of the verifier's models).
template <typename Fn>
Status ForEachMorsel(std::size_t total, std::size_t morsel_tuples,
                     std::size_t workers, const Fn& fn) {
  if (workers <= 1) {
    const std::size_t step = std::max<std::size_t>(1, morsel_tuples);
    for (std::size_t begin = 0; begin < total; begin += step) {
      PUMP_RETURN_NOT_OK(fn(0, Morsel{begin, std::min(begin + step, total)}));
    }
    return Status::OK();
  }
  WorkStealingDispatcher dispatcher(total, morsel_tuples, workers);
  std::atomic<bool> failed{false};
  Status first_error;  // Written only by the worker that set `failed`.

  ParallelFor(workers, [&](std::size_t w) {
    while (auto morsel = dispatcher.Next(w)) {
      if (failed.load(std::memory_order_relaxed)) return;
      Status status = fn(w, *morsel);
      if (!status.ok()) {
        if (!failed.exchange(true)) first_error = std::move(status);
        return;
      }
    }
  });
  return first_error;
}

}  // namespace pump::exec

#endif  // PUMP_EXEC_PARALLEL_H_
