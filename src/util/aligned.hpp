#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace unsnap {

/// Allocator returning cache-line (or wider) aligned storage. The sweep
/// kernels vectorise over element nodes; aligned node blocks keep those
/// loads/stores on full vector lanes.
template <typename T, std::size_t Alignment = 64>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::align_val_t alignment{Alignment};

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc();
    return static_cast<T*>(::operator new(n * sizeof(T), alignment));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, alignment);
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// Vector of doubles aligned for SIMD access.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// Deleter returning AlignedAllocator storage.
template <typename T>
struct AlignedDelete {
  void operator()(T* p) const noexcept {
    AlignedAllocator<T>().deallocate(p, 0);
  }
};

/// Owning aligned array whose elements start uninitialised.
template <typename T>
using AlignedArray = std::unique_ptr<T[], AlignedDelete<T>>;

/// `count` aligned, uninitialised Ts, for a large store that is written in
/// full before it is read: its pages are then first touched by the threads
/// that fill it, instead of by a serial zero-fill.
template <typename T>
[[nodiscard]] AlignedArray<T> make_aligned_for_overwrite(std::size_t count) {
  static_assert(std::is_trivially_default_constructible_v<T>);
  return AlignedArray<T>(AlignedAllocator<T>().allocate(count));
}

}  // namespace unsnap
