// 64-byte-aligned allocation for SIMD kernel operands.
//
// The vector microkernels use unaligned loads, so alignment is a
// performance contract (no cache-line-split loads, full-width prefetch
// lines), never a correctness one: results are bitwise identical for any
// operand alignment within a dispatch tier. Round buffers, block scratch,
// and GEMM workspaces all allocate through AlignedVec so the hot path
// touches cache-line-clean memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

namespace ttrec {

/// Alignment of every SIMD-facing buffer: one x86 cache line, which also
/// covers the widest vector register (64-byte ZMM).
inline constexpr std::size_t kSimdAlign = 64;

/// Minimal C++17 allocator handing out kSimdAlign-aligned storage.
template <typename T, std::size_t Align = kSimdAlign>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// std::vector whose data() is 64-byte aligned.
template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

/// Grows `v` to at least `n` elements and returns its data. It never
/// shrinks, so a buffer reused across calls is zero-filled only when it
/// grows and a steady shape never refills it: the caller overwrites the
/// first n elements.
template <typename Vec>
typename Vec::value_type* Grow(Vec& v, int64_t n) {
  if (static_cast<int64_t>(v.size()) < n) v.resize(static_cast<size_t>(n));
  return v.data();
}

/// Rounds a byte count up to the aligned-allocation granularity; workspace
/// accounting uses this so reported bounds cover the padded allocations.
constexpr int64_t AlignedBytes(int64_t bytes) {
  constexpr int64_t a = static_cast<int64_t>(kSimdAlign);
  return (bytes + a - 1) / a * a;
}

}  // namespace ttrec
