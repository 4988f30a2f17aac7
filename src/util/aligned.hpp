#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace unsnap {

/// Blocks of at least this many bytes are mapped straight from the kernel
/// and unmapped on release. Through malloc, freeing the first large flux
/// block raises glibc's dynamic mmap threshold, later blocks land in the
/// brk heap, and a process that solves repeatedly grew its peak RSS by a
/// whole psi block it could not reuse.
inline constexpr std::size_t kDirectMapBytes = std::size_t{1} << 20;

/// Allocator returning cache-line (or wider) aligned storage. The sweep
/// kernels vectorise over element nodes; aligned node blocks keep those
/// loads/stores on full vector lanes. Blocks of kDirectMapBytes or more
/// are page-aligned private mappings.
template <typename T, std::size_t Alignment = 64>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::align_val_t alignment{Alignment};
  static_assert(Alignment <= 4096, "mappings are only page-aligned");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc();
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kDirectMapBytes)
      return static_cast<T*>(::operator new(bytes, alignment));
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  /// `n` must be the count the block was allocated with.
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kDirectMapBytes)
      ::operator delete(p, alignment);
    else
      ::munmap(p, bytes);
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

/// Deleter returning AlignedAllocator storage of `count` Ts.
template <typename T>
struct AlignedDelete {
  std::size_t count = 0;
  void operator()(T* p) const noexcept {
    AlignedAllocator<T>().deallocate(p, count);
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
  return AlignedArray<T>(AlignedAllocator<T>().allocate(count),
                         AlignedDelete<T>{count});
}

}  // namespace unsnap
