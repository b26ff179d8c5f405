#include "exec/het_scheduler.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>

#include "common/happens_before.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pump::exec {

namespace {

struct HetMetrics {
  obs::Counter& batches;
  obs::Counter& orphaned_batches;
  obs::Counter& failover_batches;
  obs::Counter& group_stalls;
};

HetMetrics& Metrics() {
  static HetMetrics metrics{
      obs::MetricsRegistry::Instance().GetCounter("exec.het.batches"),
      obs::MetricsRegistry::Instance().GetCounter(
          "exec.het.orphaned_batches"),
      obs::MetricsRegistry::Instance().GetCounter(
          "exec.het.failover_batches"),
      obs::MetricsRegistry::Instance().GetCounter("exec.het.group_stalls")};
  return metrics;
}

/// Morsel batches whose claiming group died before processing them. The
/// surviving groups drain this queue after (and interleaved with) the main
/// dispatcher, so a mid-run group failure never loses tuples. Its mutex
/// also parks workers that found nothing to claim while a peer still
/// holds a batch (which that peer may yet orphan).
class OrphanQueue {
 public:
  void Push(const Morsel& morsel) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      orphans_.push_back(morsel);
      hb_pushes_.Bump();
    }
    idle_cv_.notify_all();
  }

  std::optional<Morsel> Pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (orphans_.empty()) return std::nullopt;
    Morsel morsel = orphans_.back();
    orphans_.pop_back();
    hb_pops_.Bump();
    return morsel;
  }

  /// Blocks until an orphan is queued (true) or no batch is in flight
  /// while the queue is empty (false: nothing is left to adopt).
  bool WaitForWork(const std::atomic<std::size_t>& in_flight) {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] {
      return in_flight.load(std::memory_order_acquire) == 0 ||
             !orphans_.empty();
    });
    return !orphans_.empty();
  }

  /// Wakes WaitForWork callers after in_flight dropped to zero. Taking the
  /// mutex orders the drop before any waiter's predicate check.
  void NotifyIdle() {
    { std::lock_guard<std::mutex> lock(mutex_); }
    idle_cv_.notify_all();
  }

  /// Orphaned / adopted batch epochs (debug builds only; 0 in release).
  std::uint64_t hb_pushes() const { return hb_pushes_.Load(); }
  std::uint64_t hb_pops() const { return hb_pops_.Load(); }

 private:
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::vector<Morsel> orphans_;
  hb::EpochCounter hb_pushes_;
  hb::EpochCounter hb_pops_;
};

}  // namespace

std::vector<GroupStats> RunHeterogeneous(std::size_t total,
                                         std::size_t morsel_tuples,
                                         std::vector<ProcessorGroup> groups,
                                         fault::FaultInjector* injector,
                                         const CancelToken* cancel) {
  MorselDispatcher dispatcher(total, morsel_tuples);

  std::vector<GroupStats> stats(groups.size());
  std::vector<std::atomic<bool>> failed(groups.size());

  OrphanQueue orphans;
  // Workers currently holding a claimed batch. A worker may only exit when
  // the dispatcher is dry, no orphans are queued, AND nothing is in
  // flight — an in-flight batch can still be orphaned by a dying group.
  // Every release that drops it to zero wakes the idle waiters.
  std::atomic<std::size_t> in_flight{0};
  const auto release = [&] {
    if (in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      orphans.NotifyIdle();
    }
  };

  // Flatten the groups' workers into executor slots: slot -> group. The
  // persistent pool replaces the former per-call std::thread spawning; the
  // fork-join barrier of Run is the same join-all the threads provided.
  std::vector<std::size_t> slot_group;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    stats[g].name = groups[g].name;
    for (std::size_t w = 0; w < groups[g].workers; ++w) {
      slot_group.push_back(g);
    }
  }
  // Each slot counts into its own entry; folded per group after the join.
  std::vector<GroupStats> slot_stats(slot_group.size());
  if (!slot_group.empty()) {
    Executor::Default().Run(slot_group.size(), [&](std::size_t slot) {
      const std::size_t g = slot_group[slot];
      const ProcessorGroup& group = groups[g];
      GroupStats& counts = slot_stats[slot];
      // The cancel poll sits before the claim, so a cancelled query's
      // worker exits holding nothing: at most the one batch it was
      // already processing finishes after the token fires.
      while (!failed[g].load(std::memory_order_acquire) &&
             !(cancel != nullptr && cancel->Cancelled())) {
        in_flight.fetch_add(1, std::memory_order_acq_rel);
        bool from_orphan = false;
        std::optional<Morsel> batch =
            dispatcher.NextBatch(group.batch_morsels);
        if (!batch) {
          batch = orphans.Pop();
          from_orphan = batch.has_value();
        }
        if (!batch) {
          // Nothing claimable right now. Block instead of spinning; exit
          // only once no other worker holds a batch (it could die and
          // orphan it) and the orphan queue is empty at that moment.
          release();
          if (orphans.WaitForWork(in_flight)) continue;
          // Happens-before: every orphan Push precedes its worker's
          // in_flight release, so with no batch in flight and the
          // queue empty, every orphaned batch has been adopted.
          PUMP_HB_ASSERT(orphans.hb_pushes() == orphans.hb_pops(),
                         "worker exiting while an orphaned batch is "
                         "still unadopted; Push must happen before "
                         "the dying worker releases in_flight");
          break;
        }
        if (injector != nullptr &&
            !injector->Check(fault::kSchedWorkerStall, group.name).ok()) {
          // The group stalls/dies: orphan the claimed batch for the
          // survivors, then stop the whole group. Push before releasing
          // in_flight so waiting workers re-observe the queue.
          failed[g].store(true, std::memory_order_release);
          Metrics().group_stalls.Add();
          Metrics().orphaned_batches.Add();
          PUMP_TRACE_INSTANT(obs::TraceCategory::kExec, "het.group_stall",
                             static_cast<double>(g),
                             static_cast<double>(batch->size()));
          // Happens-before: this worker's claim still holds its
          // in_flight slot; orphaning after the release would let every
          // peer exit and strand the batch.
          PUMP_HB_ASSERT(in_flight.load(std::memory_order_acquire) >= 1,
                         "dying worker orphaned its batch after "
                         "releasing its in-flight slot");
          orphans.Push(*batch);
          release();
          break;
        }
        {
          PUMP_TRACE_SPAN(obs::TraceCategory::kExec, "het.batch",
                          static_cast<double>(g),
                          static_cast<double>(batch->size()));
          group.process(batch->begin, batch->end);
        }
        Metrics().batches.Add();
        counts.tuples += batch->size();
        ++counts.dispatches;
        if (from_orphan) {
          Metrics().failover_batches.Add();
          counts.failover_tuples += batch->size();
          ++counts.failover_dispatches;
        }
        release();
      }
    });
  }

  for (std::size_t slot = 0; slot < slot_group.size(); ++slot) {
    GroupStats& group = stats[slot_group[slot]];
    group.tuples += slot_stats[slot].tuples;
    group.dispatches += slot_stats[slot].dispatches;
    group.failover_tuples += slot_stats[slot].failover_tuples;
    group.failover_dispatches += slot_stats[slot].failover_dispatches;
    group.failed = failed[slot_group[slot]].load();
  }

  // Exactly-once ledger (debug builds): every batch claimed from the
  // dispatcher or adopted from the orphan queue was either processed or
  // re-orphaned, so processed = claims + adoptions - orphanings.
  PUMP_HB_ASSERT(orphans.hb_pops() <= orphans.hb_pushes(),
                 "more orphan batches adopted than were ever orphaned");
#if PUMP_HB_ASSERTIONS
  std::uint64_t processed_batches = 0;
  for (const GroupStats& group : stats) processed_batches += group.dispatches;
  PUMP_HB_ASSERT(processed_batches ==
                     dispatcher.hb_claims() + orphans.hb_pops() -
                         orphans.hb_pushes(),
                 "processed batch count does not balance the "
                 "claim/orphan/adopt ledger; a batch was lost or "
                 "double-processed across the failover path");
#endif
  return stats;
}

}  // namespace pump::exec
