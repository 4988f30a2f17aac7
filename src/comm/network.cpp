#include "comm/network.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <thread>

#include "util/assert.hpp"

namespace unsnap::comm {

Network::Network(int num_ranks) : num_ranks_(num_ranks) {
  require(num_ranks >= 1, "Network: need at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>());
}

Network::~Network() = default;

void Network::check_aborted() const {
  if (aborted_.load(std::memory_order_acquire))
    throw NumericalError("comm::Network: aborted by a failing rank");
}

void Network::send(int src, int dst, int tag, std::vector<double> payload) {
  UNSNAP_ASSERT(dst >= 0 && dst < num_ranks_);
  check_aborted();
  Mailbox& box = *mailboxes_[dst];
  {
    const std::lock_guard lock(box.mutex);
    box.queues[{src, tag}].push_back(std::move(payload));
  }
  box.ready.notify_all();
}

std::vector<double> Network::recv(int dst, int src, int tag) {
  UNSNAP_ASSERT(dst >= 0 && dst < num_ranks_);
  Mailbox& box = *mailboxes_[dst];
  std::unique_lock lock(box.mutex);
  const auto key = std::make_pair(src, tag);
  box.ready.wait(lock, [&] {
    if (aborted_.load(std::memory_order_acquire)) return true;
    const auto it = box.queues.find(key);
    return it != box.queues.end() && !it->second.empty();
  });
  check_aborted();
  auto& queue = box.queues[key];
  std::vector<double> payload = std::move(queue.front());
  queue.pop_front();
  return payload;
}

std::pair<std::pair<int, int>, std::vector<double>> Network::recv_any(
    int dst, const std::vector<std::pair<int, int>>& keys) {
  UNSNAP_ASSERT(dst >= 0 && dst < num_ranks_);
  UNSNAP_ASSERT(!keys.empty());
  Mailbox& box = *mailboxes_[dst];
  std::unique_lock lock(box.mutex);
  std::pair<int, int> ready{};
  box.ready.wait(lock, [&] {
    if (aborted_.load(std::memory_order_acquire)) return true;
    for (const auto& key : keys) {
      const auto it = box.queues.find(key);
      if (it != box.queues.end() && !it->second.empty()) {
        ready = key;
        return true;
      }
    }
    return false;
  });
  check_aborted();
  auto& queue = box.queues[ready];
  std::vector<double> payload = std::move(queue.front());
  queue.pop_front();
  return {ready, std::move(payload)};
}

template <typename Op>
double Network::allreduce(double value, Op op, double init) {
  std::unique_lock lock(coll_mutex_);
  check_aborted();
  if (coll_count_ == 0) coll_values_.clear();
  coll_values_.push_back(value);
  ++coll_count_;
  if (coll_count_ == num_ranks_) {
    // Fold in ascending value order: arrival order is scheduler-dependent,
    // and the float sum is not associative — sorting first makes every
    // reduction bit-deterministic run-to-run.
    std::sort(coll_values_.begin(), coll_values_.end());
    double acc = init;
    for (const double v : coll_values_) acc = op(acc, v);
    coll_result_ = acc;
    coll_count_ = 0;
    ++coll_generation_;
    coll_ready_.notify_all();
    return coll_result_;
  }
  const long generation = coll_generation_;
  coll_ready_.wait(lock, [&] {
    return coll_generation_ != generation ||
           aborted_.load(std::memory_order_acquire);
  });
  check_aborted();
  return coll_result_;
}

void Network::barrier() { (void)allreduce_sum(0.0); }

double Network::allreduce_max(double value) {
  return allreduce(
      value, [](double a, double b) { return std::max(a, b); },
      -std::numeric_limits<double>::infinity());
}

double Network::allreduce_sum(double value) {
  return allreduce(value, [](double a, double b) { return a + b; }, 0.0);
}

void Network::abort_all() {
  aborted_.store(true, std::memory_order_release);
  for (auto& box : mailboxes_) {
    const std::lock_guard lock(box->mutex);
    box->ready.notify_all();
  }
  const std::lock_guard lock(coll_mutex_);
  coll_ready_.notify_all();
}

void Network::run(const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks_));
  std::exception_ptr first_error;
  std::mutex error_mutex;
  for (int r = 0; r < num_ranks_; ++r) {
    threads.emplace_back([&, r] {
      try {
        body(r);
      } catch (...) {
        {
          const std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        abort_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace unsnap::comm
