#ifndef PUMP_MEMORY_BUFFER_H_
#define PUMP_MEMORY_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/memory_spec.h"

namespace pump::memory {

/// The memory types of the paper's Table 1. They determine which transfer
/// methods can operate on a buffer and how allocation is costed:
///  * kPageable — ordinary OS memory; the Coherence method (NVLink 2.0) and
///    push-based staged methods can access it.
///  * kPinned   — page-locked; DMA copy engines and Zero-Copy require it.
///  * kUnified  — CUDA Unified Memory; migrated on access or prefetched.
///  * kDevice   — GPU on-board memory.
enum class MemoryKind : std::uint8_t { kPageable, kPinned, kUnified, kDevice };

/// Returns the Table-1 name of the memory kind.
const char* MemoryKindToString(MemoryKind kind);

/// One physical extent of a buffer: `bytes` resident on `node`. Buffers are
/// usually a single extent; the hybrid hash table spans a GPU extent
/// followed by one or more CPU extents (Sec. 5.3, Fig. 8).
struct Extent {
  hw::MemoryNodeId node = hw::kInvalidMemoryNode;
  std::uint64_t bytes = 0;
};

/// A host-backed allocation with modelled placement. The functional layer
/// always executes against `data()`; the hardware model consults
/// `extents()` to cost accesses. This mirrors the substitution documented
/// in DESIGN.md: buffers behave like CUDA allocations placed on a modelled
/// memory node, while actually living in host RAM.
class Buffer {
 public:
  Buffer() = default;
  /// Creates a buffer of `bytes`. When `materialize` is true the buffer is
  /// backed by zero-initialized host memory; otherwise it is model-only
  /// (placement metadata without storage), which lets the analytic cost
  /// models reason about paper-scale (tens of GiB) buffers that do not fit
  /// in host RAM.
  Buffer(std::uint64_t bytes, MemoryKind kind, std::vector<Extent> extents,
         bool materialize = true);

  /// True when the buffer has host storage behind data().
  bool materialized() const { return storage_ != nullptr; }

  Buffer(Buffer&&) = default;
  Buffer& operator=(Buffer&&) = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  /// Raw storage (valid for size() bytes); null for an empty buffer.
  std::byte* data() { return storage_.get(); }
  const std::byte* data() const { return storage_.get(); }

  /// Total size in bytes.
  std::uint64_t size() const { return size_; }
  /// Memory kind (Table 1).
  MemoryKind kind() const { return kind_; }
  /// Physical extents, in virtual-address order.
  const std::vector<Extent>& extents() const { return extents_; }

  /// The single node a one-extent buffer resides on; for multi-extent
  /// buffers, the node of the first extent.
  hw::MemoryNodeId home_node() const;

  /// Fraction of bytes resident on `node` (used by hybrid-placement cost
  /// models: the expected GPU-access fraction A_GPU of Sec. 5.3).
  double FractionOnNode(hw::MemoryNodeId node) const;

  /// The node owning the byte at `offset` (extent lookup).
  hw::MemoryNodeId NodeOfByte(std::uint64_t offset) const;

  /// Debug string.
  std::string ToString() const;

 private:
  std::unique_ptr<std::byte[]> storage_;
  std::uint64_t size_ = 0;
  MemoryKind kind_ = MemoryKind::kPageable;
  std::vector<Extent> extents_;
};

}  // namespace pump::memory

#endif  // PUMP_MEMORY_BUFFER_H_
