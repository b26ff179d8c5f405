#ifndef PUMP_EXEC_WORK_STEALING_H_
#define PUMP_EXEC_WORK_STEALING_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/happens_before.h"
#include "exec/morsel.h"
#include "obs/metrics.h"
#include "verify/mutation.h"
#include "verify/sync.h"

namespace pump::exec {

namespace ws_internal {

/// Registry mirrors of the dispatcher's ledger counters, aggregated over
/// every dispatcher instance (dispatchers are per-query and short-lived,
/// so the process-wide registry is the only durable view).
struct WsMetrics {
  obs::Counter& chunk_claims;
  obs::Counter& steals;
  obs::Counter& drains;
};

inline WsMetrics& Metrics() {
  static WsMetrics metrics{
      obs::MetricsRegistry::Instance().GetCounter("exec.ws.chunk_claims"),
      obs::MetricsRegistry::Instance().GetCounter("exec.ws.steals"),
      obs::MetricsRegistry::Instance().GetCounter("exec.ws.drains")};
  return metrics;
}

}  // namespace ws_internal

/// Chunk factor of the hierarchical dispatcher: each worker claims
/// `kDefaultChunkMorsels` morsels' worth of tuples from the global cursor
/// in one shot and sub-slices them locally, cutting the shared-cursor
/// claim rate by the same factor.
inline constexpr std::size_t kDefaultChunkMorsels = 8;

/// Hierarchical morsel claiming with work-stealing (the executor-runtime
/// refinement of the flat MorselDispatcher): the input is cut into
/// immutable chunks of `chunk_morsels * morsel_tuples` tuples; a global
/// cursor hands out chunk *indices*; each worker slices its current chunk
/// into morsels through a private per-chunk cursor. Workers touch the
/// shared cursor once per chunk instead of once per morsel, and when the
/// global cursor runs dry they steal remaining morsels from other
/// workers' unfinished chunks, so the tail stays balanced.
///
/// Exactly-once coverage holds by construction: chunk ranges are disjoint
/// and immutable (derived from the chunk index, never stored), and every
/// per-chunk cursor is a saturating CAS claim — the same ledger discipline
/// as MorselDispatcher, whose `hb_claims` epoch this class mirrors at
/// morsel granularity. Note one deliberate relaxation: unlike
/// the flat dispatcher, a worker that observed a full drain may later
/// succeed again — a peer can install a chunk it claimed *before* the
/// global drain and have it stolen afterwards. That is work conservation,
/// not a rewind; no morsel is ever handed out twice.
class WorkStealingDispatcher {
 public:
  static constexpr std::size_t kNoChunk =
      std::numeric_limits<std::size_t>::max();

  /// Creates a dispatcher over `total` tuples for `workers` workers.
  WorkStealingDispatcher(std::size_t total, std::size_t morsel_tuples,
                         std::size_t workers,
                         std::size_t chunk_morsels = kDefaultChunkMorsels)
      : total_(total),
        morsel_tuples_(morsel_tuples == 0 ? 1 : morsel_tuples),
        chunk_tuples_(morsel_tuples_ *
                      (chunk_morsels == 0 ? 1 : chunk_morsels)),
        num_chunks_((total + chunk_tuples_ - 1) / chunk_tuples_),
        chunk_ids_(num_chunks_, 1),
        cursors_(num_chunks_),
        local_(std::max<std::size_t>(1, workers)) {
    for (std::size_t c = 0; c < num_chunks_; ++c) {
      cursors_[c].cursor.store(ChunkBegin(c), std::memory_order_relaxed);
    }
  }

  /// Claims the next morsel for `worker` (an id in [0, workers)); nullopt
  /// when the whole input is exhausted. Thread-safe; each worker id must
  /// be used by one thread at a time.
  std::optional<Morsel> Next(std::size_t worker) {
    if (num_chunks_ == 0) return std::nullopt;
    LocalState& me = local_[worker % local_.size()];
    // Fast path: slice the current chunk; refill from the global cursor.
    while (true) {
      const std::size_t chunk = me.chunk.load(std::memory_order_acquire);
      if (chunk != kNoChunk) {
        if (auto morsel = ClaimFrom(chunk)) return morsel;
        // Chunk drained: drop it so thieves stop scanning it.
        std::size_t expected = chunk;
        me.chunk.compare_exchange_strong(expected, kNoChunk,
                                         std::memory_order_acq_rel);
        continue;
      }
      if (auto id = chunk_ids_.Next()) {
        ws_internal::Metrics().chunk_claims.Add();
        me.chunk.store(id->begin, std::memory_order_release);
        continue;
      }
      break;  // Global cursor dry: steal.
    }
    // Drain phase: scan the other workers' unfinished chunks.
    for (std::size_t i = 1; i < local_.size(); ++i) {
      const std::size_t victim = (worker + i) % local_.size();
      const std::size_t chunk =
          local_[victim].chunk.load(std::memory_order_acquire);
      if (chunk == kNoChunk) continue;
      if (auto morsel = ClaimFrom(chunk)) {
        me.steals.fetch_add(1, std::memory_order_relaxed);
        ws_internal::Metrics().steals.Add();
        return morsel;
      }
    }
    ws_internal::Metrics().drains.Add();
    return std::nullopt;
  }

  /// Morsels `worker` stole from other workers' chunks.
  std::uint64_t steals(std::size_t worker) const {
    return local_[worker % local_.size()].steals.load(
        std::memory_order_relaxed);
  }
  /// Stolen morsels across all workers.
  std::uint64_t total_steals() const {
    std::uint64_t sum = 0;
    for (const LocalState& state : local_) {
      sum += state.steals.load(std::memory_order_relaxed);
    }
    return sum;
  }

  /// Successful morsel claims (debug builds only; 0 in release) — the
  /// exactly-once ledger at morsel granularity.
  std::uint64_t hb_claims() const { return hb_claims_.Load(); }
  /// Chunk claims against the global cursor (debug builds only).
  std::uint64_t hb_chunk_claims() const { return chunk_ids_.hb_claims(); }

 private:
  struct alignas(64) ChunkCursor {
    verify::Atomic<std::size_t> cursor{0};
  };
  struct alignas(64) LocalState {
    verify::Atomic<std::size_t> chunk{kNoChunk};
    verify::Atomic<std::uint64_t> steals{0};
  };

  std::size_t ChunkBegin(std::size_t chunk) const {
    return chunk * chunk_tuples_;
  }
  std::size_t ChunkEnd(std::size_t chunk) const {
    return std::min(ChunkBegin(chunk) + chunk_tuples_, total_);
  }

  /// Saturating CAS claim of one morsel from `chunk`'s private cursor;
  /// identical discipline to MorselDispatcher::Claim.
  ///
  /// Memory-order audit (model-checked by the exec.ws verifier model):
  /// the initial read is `acquire` so a thief that found this chunk via
  /// the victim's `chunk` slot starts from a cursor value no older than
  /// the slot publication — a plain relaxed read could otherwise start
  /// the CAS loop from a stale pre-publication 0 on weakly-ordered
  /// hardware. The CAS itself may stay `relaxed`: claim correctness
  /// needs only RMW atomicity (each cursor value is won by exactly one
  /// thread), and the morsel *bounds* derive from the chunk index alone
  /// (immutable arithmetic on `chunk_tuples_`/`total_`), so no claimed
  /// range ever depends on data ordered by the cursor write.
  std::optional<Morsel> ClaimFrom(std::size_t chunk) {
    verify::Atomic<std::size_t>& cursor = cursors_[chunk].cursor;
    // Seeded bug (verify builds, armed only): the tail chunk's end is
    // not clamped to `total_`, so its claims overrun the input — the
    // dispatcher models' coverage invariant catches it.
    const std::size_t end = PUMP_VERIFY_MUTATE("exec.ws.tail_overrun")
                                ? ChunkBegin(chunk) + chunk_tuples_
                                : ChunkEnd(chunk);
    std::size_t begin = cursor.load(std::memory_order_acquire);
    while (begin < end) {
      const std::size_t next = std::min(begin + morsel_tuples_, end);
      if (cursor.compare_exchange_weak(begin, next,
                                       std::memory_order_relaxed)) {
        PUMP_HB_ASSERT(begin >= ChunkBegin(chunk) && next <= end,
                       "hierarchical morsel claim escaped its chunk's "
                       "immutable range");
        hb_claims_.Bump();
        return Morsel{begin, next};
      }
    }
    return std::nullopt;
  }

  std::size_t total_;
  std::size_t morsel_tuples_;
  std::size_t chunk_tuples_;
  std::size_t num_chunks_;
  MorselDispatcher chunk_ids_;  // Global cursor over chunk indices.
  std::vector<ChunkCursor> cursors_;
  std::vector<LocalState> local_;
  hb::EpochCounter hb_claims_;
};

}  // namespace pump::exec

#endif  // PUMP_EXEC_WORK_STEALING_H_
