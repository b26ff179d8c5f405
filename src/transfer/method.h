#ifndef PUMP_TRANSFER_METHOD_H_
#define PUMP_TRANSFER_METHOD_H_

#include <array>
#include <cstdint>

#include "hw/topology.h"
#include "memory/buffer.h"

namespace pump::transfer {

/// The eight GPU transfer methods of the paper's Table 1.
enum class TransferMethod : std::uint8_t {
  kPageableCopy,    ///< cudaMemcpyAsync from pageable memory (MMIO).
  kStagedCopy,      ///< CPU threads stage into pinned buffers, then DMA.
  kDynamicPinning,  ///< Pin pages ad hoc, then DMA.
  kPinnedCopy,      ///< cudaMemcpyAsync from pinned memory (DMA engines).
  kUmPrefetch,      ///< cudaMemPrefetchAsync on Unified Memory.
  kUmMigration,     ///< Demand paging of Unified Memory.
  kZeroCopy,        ///< Unified Virtual Addressing access to pinned memory.
  kCoherence,       ///< Direct pageable access via cache-coherence (NVLink).
};

/// All methods, in Table-1 order.
inline constexpr std::array<TransferMethod, 8> kAllTransferMethods = {
    TransferMethod::kPageableCopy, TransferMethod::kStagedCopy,
    TransferMethod::kDynamicPinning, TransferMethod::kPinnedCopy,
    TransferMethod::kUmPrefetch,    TransferMethod::kUmMigration,
    TransferMethod::kZeroCopy,      TransferMethod::kCoherence,
};

/// Transfer semantics (Table 1): push methods run a CPU-driven pipeline to
/// GPU memory; pull methods let the GPU request data itself and can
/// therefore satisfy data-dependent (hashed) accesses (Sec. 4.2).
enum class Semantics : std::uint8_t { kPush, kPull };

/// Implementation level (Table 1).
enum class Level : std::uint8_t { kSoftware, kOs, kHardware };

/// Access granularity (Table 1).
enum class Granularity : std::uint8_t { kChunk, kPage, kByte };

/// Static properties of a transfer method (the columns of Table 1).
struct MethodTraits {
  const char* name;
  Semantics semantics;
  Level level;
  Granularity granularity;
  /// The memory kind the source data must be stored in.
  memory::MemoryKind required_memory;
};

/// Returns the Table-1 traits of `method`.
const MethodTraits& TraitsOf(TransferMethod method);

/// Returns the Table-1 display name.
inline const char* TransferMethodToString(TransferMethod method) {
  return TraitsOf(method).name;
}

/// The pull method device `gpu` reads data on `data_node` with (the
/// paper's per-system defaults, Sec. 7.1): Coherence on a cache-coherent
/// path (NVLink 2.0), Zero-Copy otherwise (PCI-e 3.0). The one rule the
/// advisor, the plan compiler and the model checker share, so the priced
/// method is the executed one.
inline Result<TransferMethod> PullMethodFor(const hw::Topology& topology,
                                            hw::DeviceId gpu,
                                            hw::MemoryNodeId data_node) {
  PUMP_ASSIGN_OR_RETURN(const bool coherent,
                        topology.IsCacheCoherentPath(gpu, data_node));
  return coherent ? TransferMethod::kCoherence : TransferMethod::kZeroCopy;
}

}  // namespace pump::transfer

#endif  // PUMP_TRANSFER_METHOD_H_
