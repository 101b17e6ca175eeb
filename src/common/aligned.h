#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace sp {

namespace detail {
/// Over-aligned block allocation behind AlignedAlloc. Blocks of at least
/// kCachedBlockMin bytes are recycled through a small per-thread cache
/// (bounded by kCachedBytesMax bytes): the RNS hot paths free and re-request
/// the same few polynomial sizes many times per operation, and a fresh
/// large block costs a first-touch page fault per 4 KB page (about 6 ms for
/// the 12 MB key-switch digit set at N = 8192), which dwarfs the arithmetic
/// that fills it.
void* aligned_block_alloc(std::size_t bytes, std::size_t align);
void aligned_block_free(void* p, std::size_t bytes, std::size_t align) noexcept;
constexpr std::size_t kCachedBlockMin = std::size_t{64} << 10;
constexpr std::size_t kCachedBytesMax = std::size_t{32} << 20;
}  // namespace detail

/// Minimal over-aligned allocator (C++17 aligned operator new). The RNS
/// backend stores all residue rows of a polynomial in one buffer allocated
/// through this so SIMD kernels see 64-byte (cache-line / AVX-512 register)
/// aligned row starts whenever the row stride is a multiple of 8 elements.
///
/// Value-less construction default-initializes, so `resize(n)` leaves
/// trivial elements uninitialized (buffers about to be fully overwritten
/// skip the zero-fill); `assign(n, v)` and `resize(n, v)` still write `v`.
template <typename T, std::size_t Align = 64>
struct AlignedAlloc {
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "AlignedAlloc: alignment must be a power of two >= alignof(T)");
  using value_type = T;

  AlignedAlloc() = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U, Align>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(detail::aligned_block_alloc(n * sizeof(T), Align));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::aligned_block_free(p, n * sizeof(T), Align);
  }

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible<U>::value) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  struct rebind {
    using other = AlignedAlloc<U, Align>;
  };
};

template <typename T, typename U, std::size_t A>
bool operator==(const AlignedAlloc<T, A>&, const AlignedAlloc<U, A>&) {
  return true;
}
template <typename T, typename U, std::size_t A>
bool operator!=(const AlignedAlloc<T, A>&, const AlignedAlloc<U, A>&) {
  return false;
}

template <typename T>
using AlignedVec = std::vector<T, AlignedAlloc<T, 64>>;

}  // namespace sp
