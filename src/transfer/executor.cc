#include "transfer/executor.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "hw/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pump::transfer {

namespace {

struct TransferMetrics {
  obs::Counter& chunks;
  obs::Counter& bytes;
  obs::Counter& retries;
  obs::Counter& faults_injected;
  obs::Counter& degraded_chunks;
  obs::Histogram& chunk_bytes;
};

TransferMetrics& Metrics() {
  static TransferMetrics metrics{
      obs::MetricsRegistry::Instance().GetCounter("transfer.chunks"),
      obs::MetricsRegistry::Instance().GetCounter("transfer.bytes"),
      obs::MetricsRegistry::Instance().GetCounter("transfer.retries"),
      obs::MetricsRegistry::Instance().GetCounter(
          "transfer.faults_injected"),
      obs::MetricsRegistry::Instance().GetCounter(
          "transfer.degraded_chunks"),
      obs::MetricsRegistry::Instance().GetHistogram(
          "transfer.chunk_bytes")};
  return metrics;
}

/// The one chunk loop of the transfer layer: walks `bytes` in
/// `chunk_bytes` steps. Per chunk it checks the `link.degrade` failpoint
/// (observability only), then retries the `transfer.chunk` (and, at UM
/// sites, `um.migrate`) failpoints plus `work(offset, len)` per the
/// policy — `work` only runs on attempts whose injected checks pass, so a
/// retried chunk is re-executed from scratch — and finally hands the
/// landed chunk to `on_chunk`. `node` feeds the spans and metrics.
Status ForEachChunk(
    std::uint64_t bytes, std::uint64_t chunk_bytes, bool um_site,
    hw::MemoryNodeId node, const TransferFaultOptions& faults,
    TransferStats* stats,
    const std::function<Status(std::uint64_t, std::uint64_t)>& work,
    const ChunkCallback& on_chunk) {
  for (std::uint64_t offset = 0; offset < bytes; offset += chunk_bytes) {
    const std::uint64_t len = std::min(chunk_bytes, bytes - offset);
    PUMP_TRACE_SPAN(obs::TraceCategory::kTransfer, "transfer.chunk",
                    static_cast<double>(len), static_cast<double>(node));
    Metrics().chunks.Add();
    Metrics().bytes.Add(len);
    Metrics().chunk_bytes.Record(len);
    Status status = Status::OK();
    if (faults.injector == nullptr) {
      status = work(offset, len);
    } else {
      if (!faults.injector->Check(fault::kLinkDegrade).ok()) {
        ++stats->degraded_chunks;
        Metrics().degraded_chunks.Add();
      }
      fault::RetryStats retry_stats;
      status = fault::RunWithRetry(
          faults.retry,
          [&]() -> Status {
            Status injected = faults.injector->Check(fault::kTransferChunk);
            if (injected.ok() && um_site) {
              injected = faults.injector->Check(fault::kUmMigrate);
            }
            if (!injected.ok()) {
              ++stats->faults_injected;
              Metrics().faults_injected.Add();
              return injected;
            }
            return work(offset, len);
          },
          &retry_stats);
      stats->retries += retry_stats.retries;
      Metrics().retries.Add(retry_stats.retries);
      stats->modelled_backoff_s += retry_stats.backoff_s;
      if (status.code() == StatusCode::kUnavailable) {
        return Status::Unavailable("transfer chunk at offset " +
                                   std::to_string(offset) + " failed after " +
                                   std::to_string(retry_stats.attempts) +
                                   " attempts: " + status.message());
      }
    }
    PUMP_RETURN_NOT_OK(status);
    ++stats->chunks;
    if (on_chunk) on_chunk(offset, len);
  }
  return Status::OK();
}

}  // namespace

Result<TransferStats> ExecutePull(
    TransferMethod method, std::uint64_t bytes, hw::MemoryNodeId gpu_node,
    std::uint64_t chunk_bytes, const TransferFaultOptions& faults,
    const ChunkCallback& on_chunk) {
  if (method != TransferMethod::kZeroCopy &&
      method != TransferMethod::kCoherence) {
    return Status::InvalidArgument(
        std::string(TransferMethodToString(method)) +
        " is not a direct-access pull method");
  }
  if (chunk_bytes == 0) {
    return Status::InvalidArgument("chunk size must be positive");
  }
  // No bytes land in GPU memory, but each chunk of reads crosses the
  // interconnect, so a dropped read burst is retried like a copy.
  TransferStats stats;
  stats.direct_access = true;
  PUMP_RETURN_NOT_OK(ForEachChunk(
      bytes, chunk_bytes, /*um_site=*/false, gpu_node, faults, &stats,
      [](std::uint64_t, std::uint64_t) { return Status::OK(); }, on_chunk));
  return stats;
}

Result<TransferStats> ExecuteTransfer(
    TransferMethod method, const memory::Buffer& src, memory::Buffer* dst,
    hw::MemoryNodeId gpu_node, std::uint64_t chunk_bytes,
    std::uint64_t os_page_bytes, memory::UnifiedRegion* um_region,
    const ChunkCallback& on_chunk, const TransferFaultOptions& faults) {
  if (!src.materialized()) {
    return Status::InvalidArgument("source buffer is not materialized");
  }
  if (chunk_bytes == 0) {
    return Status::InvalidArgument("chunk size must be positive");
  }
  if (os_page_bytes == 0) {
    return Status::InvalidArgument("OS page size must be positive");
  }
  if (method == TransferMethod::kZeroCopy ||
      method == TransferMethod::kCoherence) {
    // Consumers read `src` in place.
    return ExecutePull(method, src.size(), gpu_node, chunk_bytes, faults,
                       on_chunk);
  }
  const bool uses_um = method == TransferMethod::kUmPrefetch ||
                       method == TransferMethod::kUmMigration;
  if (uses_um && um_region == nullptr) {
    return Status::InvalidArgument(
        "Unified Memory methods require a UnifiedRegion");
  }
  if (uses_um && um_region->size() != src.size()) {
    return Status::InvalidArgument("UnifiedRegion size mismatch");
  }

  // Push-based methods copy into the destination buffer.
  const bool push = TraitsOf(method).semantics == Semantics::kPush;
  if (push &&
      (dst == nullptr || !dst->materialized() || dst->size() < src.size())) {
    return Status::InvalidArgument(
        "push-based transfer requires a materialized destination of at "
        "least the source size");
  }

  TransferStats stats;
  stats.direct_access = !push;
  std::vector<std::byte> staging;
  if (method == TransferMethod::kStagedCopy) staging.resize(chunk_bytes);

  PUMP_RETURN_NOT_OK(ForEachChunk(
      src.size(), chunk_bytes, /*um_site=*/uses_um, gpu_node, faults, &stats,
      [&](std::uint64_t offset, std::uint64_t len) -> Status {
        switch (method) {
          case TransferMethod::kUmMigration:
            // Demand paging: every touched page migrates to the GPU node.
            for (std::uint64_t page_off = offset; page_off < offset + len;
                 page_off += os_page_bytes) {
              PUMP_ASSIGN_OR_RETURN(bool faulted,
                                    um_region->Touch(page_off, gpu_node));
              if (faulted) ++stats.pages_migrated;
            }
            return Status::OK();
          case TransferMethod::kStagedCopy:
            // Extra pass through the pinned staging buffer (Sec. 4.1).
            std::memcpy(staging.data(), src.data() + offset, len);
            std::memcpy(dst->data() + offset, staging.data(), len);
            stats.staged_bytes += len;
            break;
          case TransferMethod::kDynamicPinning:
            stats.pages_pinned += (len + os_page_bytes - 1) / os_page_bytes;
            std::memcpy(dst->data() + offset, src.data() + offset, len);
            break;
          case TransferMethod::kUmPrefetch: {
            PUMP_ASSIGN_OR_RETURN(std::uint64_t moved,
                                  um_region->Prefetch(offset, len, gpu_node));
            stats.pages_migrated += moved;
            std::memcpy(dst->data() + offset, src.data() + offset, len);
            break;
          }
          case TransferMethod::kPageableCopy:
          case TransferMethod::kPinnedCopy:
            std::memcpy(dst->data() + offset, src.data() + offset, len);
            break;
          default:
            return Status::Internal("unexpected transfer method");
        }
        stats.bytes_copied += len;
        return Status::OK();
      },
      on_chunk));
  return stats;
}

Result<memory::Buffer> StageToDevice(const void* host, std::uint64_t bytes,
                                     hw::MemoryNodeId gpu_node,
                                     std::uint64_t chunk_bytes,
                                     std::uint64_t os_page_bytes,
                                     const TransferFaultOptions& faults,
                                     TransferStats* stats) {
  if (host == nullptr || bytes == 0) {
    return Status::InvalidArgument("nothing to stage");
  }
  memory::Buffer src(bytes, memory::MemoryKind::kPinned,
                     {memory::Extent{hw::kCpu0, bytes}});
  std::memcpy(src.data(), host, bytes);
  memory::Buffer dst(bytes, memory::MemoryKind::kDevice,
                     {memory::Extent{gpu_node, bytes}});
  PUMP_ASSIGN_OR_RETURN(
      TransferStats transfer_stats,
      ExecuteTransfer(TransferMethod::kPinnedCopy, src, &dst, gpu_node,
                      chunk_bytes, os_page_bytes, nullptr, {}, faults));
  if (stats != nullptr) *stats = transfer_stats;
  return dst;
}

}  // namespace pump::transfer
