#ifndef PUMP_TRANSFER_EXECUTOR_H_
#define PUMP_TRANSFER_EXECUTOR_H_

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "memory/buffer.h"
#include "memory/unified.h"
#include "transfer/method.h"

namespace pump::transfer {

/// Counters produced by a functional transfer execution.
struct TransferStats {
  /// Bytes copied into the destination (0 for pull-based direct access).
  std::uint64_t bytes_copied = 0;
  /// Number of pipeline chunks processed.
  std::uint64_t chunks = 0;
  /// Bytes that went through a pinned staging buffer (Staged Copy).
  std::uint64_t staged_bytes = 0;
  /// OS pages pinned ad hoc (Dynamic Pinning).
  std::uint64_t pages_pinned = 0;
  /// Unified Memory page migrations (UM Prefetch / Migration).
  std::uint64_t pages_migrated = 0;
  /// True when the GPU accessed the source directly (Zero-Copy/Coherence).
  bool direct_access = false;
  /// Chunk attempts repeated after an injected transient fault.
  std::uint64_t retries = 0;
  /// Transient faults observed at the `transfer.chunk` / `um.migrate`
  /// failpoints (each may be retried; see `retries`).
  std::uint64_t faults_injected = 0;
  /// Chunks that crossed the link while it was throttled
  /// (`link.degrade` failpoint): observability for the Li et al.-style
  /// asymmetric-degradation scenarios, not an error.
  std::uint64_t degraded_chunks = 0;
  /// Total modelled retry backoff charged by the policy, seconds.
  double modelled_backoff_s = 0.0;
};

/// Called with (offset, bytes) after each chunk lands.
using ChunkCallback = std::function<void(std::uint64_t, std::uint64_t)>;

/// Fault handling for a transfer: an optional injector queried at the
/// `transfer.chunk`, `um.migrate` and `link.degrade` failpoints, and the
/// retry policy applied per chunk. With a null injector the transfer is
/// fault-free and the policy is irrelevant.
struct TransferFaultOptions {
  fault::FaultInjector* injector = nullptr;
  fault::RetryPolicy retry;
};

/// Pull-based ingest: the GPU on `gpu_node` reads `bytes` of host data in
/// place with `method` (Zero-Copy or Coherence, else InvalidArgument).
/// Nothing is allocated or copied, but every chunk still runs the
/// failpoints, retries and counters of ExecuteTransfer. This is how the
/// engine's single-GPU probe reads its fact columns.
Result<TransferStats> ExecutePull(
    TransferMethod method, std::uint64_t bytes, hw::MemoryNodeId gpu_node,
    std::uint64_t chunk_bytes, const TransferFaultOptions& faults = {},
    const ChunkCallback& on_chunk = {});

/// Functionally executes a transfer: moves `src`'s bytes into `dst` (push
/// methods) or reads them in place (pull methods), chunk by chunk, calling
/// `on_chunk` after each chunk lands — this is where a pipelined consumer
/// (e.g. a join build) hooks in. Both buffers must be materialized and
/// the same size for push methods.
///
/// `um_region` must be non-null for the Unified Memory methods and records
/// page residency; `gpu_node` is the destination memory node used for the
/// residency bookkeeping.
///
/// When `faults.injector` is armed, each chunk is retried under
/// `faults.retry` on transient (`kUnavailable`) faults; `on_chunk` runs
/// only after the chunk finally lands, so consumers never observe a
/// retried chunk twice. An exhausted retry budget surfaces as
/// `kUnavailable` naming the failing offset; a non-retryable injected
/// fault surfaces with its own code.
Result<TransferStats> ExecuteTransfer(
    TransferMethod method, const memory::Buffer& src, memory::Buffer* dst,
    hw::MemoryNodeId gpu_node, std::uint64_t chunk_bytes,
    std::uint64_t os_page_bytes, memory::UnifiedRegion* um_region = nullptr,
    const ChunkCallback& on_chunk = {},
    const TransferFaultOptions& faults = {});

/// Stages `bytes` of host data into a device buffer on `gpu_node`: pinned
/// bounce buffer, then a chunk-wise kPinnedCopy with per-chunk retry —
/// the engine's mesh exchange, whose partitions land on peer devices.
/// Stores the transfer counters into `*stats` when non-null. Fails
/// with InvalidArgument on an empty input (callers skip empty columns).
Result<memory::Buffer> StageToDevice(const void* host, std::uint64_t bytes,
                                     hw::MemoryNodeId gpu_node,
                                     std::uint64_t chunk_bytes,
                                     std::uint64_t os_page_bytes,
                                     const TransferFaultOptions& faults = {},
                                     TransferStats* stats = nullptr);

}  // namespace pump::transfer

#endif  // PUMP_TRANSFER_EXECUTOR_H_
