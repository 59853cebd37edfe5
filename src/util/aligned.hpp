// Aligned storage helpers.
//
// Stencil field arrays must start on cache-line (and preferably page)
// boundaries so that the blocking models, the cache simulator and the real
// hardware agree about which accesses share a line.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>

namespace emwd::util {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal allocator that over-aligns every allocation to `Align` bytes.
/// Usable with std::vector so field storage stays cache-line aligned.
template <class T, std::size_t Align = kCacheLineBytes>
struct AlignedAllocator {
  using value_type = T;

  static_assert(Align >= alignof(T), "alignment must be at least alignof(T)");
  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of two");

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) throw std::bad_alloc();
    void* p = ::operator new(n * sizeof(T), std::align_val_t(Align));
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  /// Default-initialise instead of value-initialise: std::vector<double,
  /// AlignedAllocator<double>>(n) leaves the doubles unwritten, so a caller
  /// can zero them on the threads that will use them (first touch).  An
  /// explicit value, as in v(n, 0.0), still writes it: std::allocator_traits
  /// constructs from arguments itself when no matching construct() exists.
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) { return true; }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) { return false; }
};

/// Round `n` up to the next multiple of `mult` (mult must be nonzero).
constexpr std::size_t round_up(std::size_t n, std::size_t mult) {
  return ((n + mult - 1) / mult) * mult;
}

}  // namespace emwd::util
