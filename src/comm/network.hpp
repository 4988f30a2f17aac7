#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace unsnap::comm {

/// In-process message-passing fabric standing in for MPI (the build links
/// no MPI library, so distributed runs need no launcher). Ranks are
/// threads; messages are tagged payload vectors moved through
/// per-destination mailboxes with MPI-like matching on (source, tag).
/// Implemented semantics are what the distributed sweep drivers need:
/// buffered send, blocking recv and recv_any (the pipelined exchange
/// waits on several keys at once), barrier and max/sum allreduce.
///
/// A Network instantiates one thread (and, in the sweep drivers, one
/// submesh) per rank, which is practical up to a few dozen ranks. For
/// sweep pipelines on thousands of virtual ranks use the analytic
/// companion comm::simulate_sweep_scale (scale_model.hpp), which models
/// fill/drain/occupancy on the rank grid without building any of this.
class Network {
 public:
  explicit Network(int num_ranks);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] int num_ranks() const { return num_ranks_; }

  /// Deliver payload to dst's mailbox (never blocks: buffered send).
  void send(int src, int dst, int tag, std::vector<double> payload);

  /// Block until a message from (src, tag) arrives at dst; FIFO per key.
  /// Throws NumericalError if the network was aborted while waiting.
  std::vector<double> recv(int dst, int src, int tag);

  /// Block until any of the (src, tag) keys has a message queued at dst,
  /// then pop and return it with its key. Waits on the mailbox condition
  /// variable (no busy polling, so oversubscribed rank threads do not
  /// steal CPU from ranks still sweeping); per wake the first ready key
  /// in list order wins. Throws NumericalError if aborted while waiting.
  std::pair<std::pair<int, int>, std::vector<double>> recv_any(
      int dst, const std::vector<std::pair<int, int>>& keys);

  /// Collective barrier over all ranks.
  void barrier();

  /// Collective reductions; every rank receives the result. The fold runs
  /// over the contributed values in ascending value order, not arrival
  /// order, so the result is deterministic run-to-run even for the
  /// non-associative float sum (the distributed GMRES dot products depend
  /// on this for bit-reproducibility).
  double allreduce_max(double value);
  double allreduce_sum(double value);

  /// Wake every blocked rank with an error (a failing rank calls this so
  /// its peers do not deadlock in recv/allreduce).
  void abort_all();

  /// Spawn num_ranks() threads running body(rank) and join them. If a rank
  /// throws, the network is aborted so the others unblock; the first
  /// exception is rethrown in the caller.
  void run(const std::function<void(int)>& body);

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable ready;
    std::map<std::pair<int, int>, std::deque<std::vector<double>>> queues;
  };

  int num_ranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<bool> aborted_{false};

  std::mutex coll_mutex_;
  std::condition_variable coll_ready_;
  int coll_count_ = 0;
  long coll_generation_ = 0;
  std::vector<double> coll_values_;
  double coll_result_ = 0.0;

  template <typename Op>
  double allreduce(double value, Op op, double init);
  void check_aborted() const;
};

}  // namespace unsnap::comm
