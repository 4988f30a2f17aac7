#pragma once

#include <exception>
#include <mutex>
#include <string>

namespace unsnap::util {

/// Usable hardware thread count: std::thread::hardware_concurrency(),
/// clamped to at least 1 (the standard allows it to report 0).
[[nodiscard]] int hardware_threads();

/// Validate a requested thread count against the hardware: 0 (the OpenMP
/// default) and 1..hardware_threads() pass; negative counts and silent
/// oversubscription are rejected with an InvalidInput naming `what` (the
/// deck key or daemon flag), the requested count and the hardware limit.
/// Shared by the deck layer ([execution] threads) and the unsnapd worker
/// budget so both fail the same way.
void require_thread_budget(int threads, const std::string& what);

/// Carries an exception out of an OpenMP region. One escaping a region's
/// structured block calls std::terminate, so each iteration runs its body
/// through capture(), and the thread that opened the region calls
/// rethrow() once the region has ended. The first exception is kept; the
/// others are dropped.
class RegionErrors {
 public:
  template <typename F>
  void capture(F&& body) noexcept {
    try {
      body();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!first_) first_ = std::current_exception();
    }
  }

  /// Rethrow the kept exception, if any; call after the region.
  void rethrow() const {
    if (first_) std::rethrow_exception(first_);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr first_;
};

}  // namespace unsnap::util
