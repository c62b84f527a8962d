// Reusable per-layer scratch storage for the GEMM/im2col compute path.
//
// Hot training loops need several temporaries per batch (im2col columns,
// pixel-major GEMM results, gradient workspaces). Allocating them anew
// every batch would put a malloc/free pair on the critical path of every
// client step; a ScratchArena instead keeps one Tensor per slot alive
// across batches and reshapes it in place, so steady-state training does
// zero heap allocation per batch. The arena counts buffer growths, which
// is how tests assert the zero-allocation property.
#pragma once

#include <cstddef>
#include <deque>

#include "tensor/tensor.hpp"

namespace fedclust {

/// A small set of reusable Tensor slots addressed by index. Slots grow to
/// the high-water-mark shape of their use site and are then reused
/// without touching the heap. Slots are Tensors, so every workspace
/// inherits the 64-byte-aligned backing store (tensor/aligned.hpp) the
/// SIMD kernels expect.
class ScratchArena {
 public:
  ScratchArena() = default;

  /// Returns slot `key` resized to `shape`. The buffer is reused whenever
  /// its capacity suffices; contents are unspecified (callers overwrite).
  Tensor& acquire(std::size_t key, const Shape& shape);

  /// Returns slot `key` with its current shape intact (empty if never
  /// shaped). For kernels that resize their scratch in place, and for
  /// reading back a slot another pass filled (e.g. cached im2col columns).
  Tensor& slot(std::size_t key);

  /// Number of slots ever touched.
  std::size_t num_slots() const { return slots_.size(); }

  /// Cumulative count of heap (re)allocations performed by acquire().
  /// Stable across batches once every slot reached its steady-state
  /// shape — the property the Conv2d zero-allocation test checks.
  std::size_t allocations() const { return allocations_; }

  /// Total floats currently held across all slots' buffers.
  std::size_t footprint() const;

  /// Floats held by slot `key`'s buffer (0 if the slot was never touched).
  std::size_t capacity(std::size_t key) const {
    return key < slots_.size() ? slots_[key].buffer_capacity() : 0;
  }

  /// Drops all slots (and their buffers).
  void reset();

 private:
  // deque: references to existing slots stay valid when a higher key
  // grows the container (callers hold several slots at once).
  std::deque<Tensor> slots_;
  std::size_t allocations_ = 0;
};

}  // namespace fedclust
