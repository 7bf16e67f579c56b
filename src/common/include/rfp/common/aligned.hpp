#pragma once

#include <cstddef>
#include <new>
#include <vector>

/// \file aligned.hpp
/// Over-aligned storage for the vectorized micro-kernels (rfp::simd): a
/// minimal std::allocator replacement that hands out `Alignment`-byte
/// blocks, so batched kernels can assume their base pointers sit on a
/// vector-register boundary regardless of what malloc feels like today.

namespace rfp {

template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  using value_type = T;

  /// allocator_traits cannot rebind through the non-type Alignment
  /// parameter on its own; spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "Alignment must not weaken the type's natural alignment");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const {
    return true;
  }
};

/// 64-byte-aligned vector: each row start begins a cache line, so no
/// 8-double (AVX-512) load of a row-aligned run splits two lines. Used by
/// the GridTable's antenna-major distance planes (see
/// rfp/core/grid_cache.hpp).
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

}  // namespace rfp
