#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>
#include <vector>

#include "comm/network.hpp"
#include "util/assert.hpp"

namespace unsnap::comm {
namespace {

TEST(Network, PointToPointDelivery) {
  Network net(2);
  net.run([&](int rank) {
    if (rank == 0) {
      net.send(0, 1, 7, {1.0, 2.0, 3.0});
    } else {
      const auto msg = net.recv(1, 0, 7);
      ASSERT_EQ(msg.size(), 3u);
      EXPECT_DOUBLE_EQ(msg[2], 3.0);
    }
  });
}

TEST(Network, FifoPerSourceAndTag) {
  Network net(2);
  net.run([&](int rank) {
    if (rank == 0) {
      for (int i = 0; i < 10; ++i)
        net.send(0, 1, 0, {static_cast<double>(i)});
    } else {
      for (int i = 0; i < 10; ++i) {
        const auto msg = net.recv(1, 0, 0);
        EXPECT_DOUBLE_EQ(msg[0], i);
      }
    }
  });
}

TEST(Network, TagsKeepStreamsSeparate) {
  Network net(2);
  net.run([&](int rank) {
    if (rank == 0) {
      net.send(0, 1, /*tag=*/2, {222.0});
      net.send(0, 1, /*tag=*/1, {111.0});
    } else {
      // Receive in the opposite order of sending: matching is by tag.
      EXPECT_DOUBLE_EQ(net.recv(1, 0, 1)[0], 111.0);
      EXPECT_DOUBLE_EQ(net.recv(1, 0, 2)[0], 222.0);
    }
  });
}

TEST(Network, SourcesKeepStreamsSeparate) {
  Network net(3);
  net.run([&](int rank) {
    if (rank < 2) {
      net.send(rank, 2, 0, {static_cast<double>(rank + 10)});
    } else {
      EXPECT_DOUBLE_EQ(net.recv(2, 1, 0)[0], 11.0);
      EXPECT_DOUBLE_EQ(net.recv(2, 0, 0)[0], 10.0);
    }
  });
}

TEST(Network, RecvAnyDrainsMultipleSourcesBlocking) {
  Network net(3);
  net.run([&](int rank) {
    if (rank < 2) {
      net.send(rank, 2, 7, {static_cast<double>(rank)});
    } else {
      std::vector<std::pair<int, int>> pending{{0, 7}, {1, 7}};
      double sum = 0.0;
      while (!pending.empty()) {
        const auto [key, msg] = net.recv_any(2, pending);
        EXPECT_EQ(key.second, 7);
        sum += msg.at(0);
        pending.erase(std::find(pending.begin(), pending.end(), key));
      }
      EXPECT_DOUBLE_EQ(sum, 1.0);  // one message from each source
    }
  });
}

TEST(Network, AbortUnblocksRecvAny) {
  Network net(2);
  EXPECT_THROW(net.run([&](int rank) {
                 if (rank == 1) throw InvalidInput("rank 1 exploded");
                 (void)net.recv_any(0, {{1, 0}});  // would block forever
               }),
               InvalidInput);
}

TEST(Network, AllreduceMax) {
  Network net(4);
  std::vector<double> results(4);
  net.run([&](int rank) {
    results[rank] = net.allreduce_max(static_cast<double>(rank * rank));
  });
  for (const double r : results) EXPECT_DOUBLE_EQ(r, 9.0);
}

TEST(Network, AllreduceSum) {
  Network net(4);
  std::vector<double> results(4);
  net.run([&](int rank) {
    results[rank] = net.allreduce_sum(1.0 + rank);
  });
  for (const double r : results) EXPECT_DOUBLE_EQ(r, 10.0);
}

TEST(Network, RepeatedCollectivesKeepGenerations) {
  Network net(3);
  net.run([&](int) {
    for (int round = 0; round < 50; ++round) {
      const double expected = 3.0 * round;
      EXPECT_DOUBLE_EQ(net.allreduce_sum(static_cast<double>(round)),
                       expected);
    }
  });
}

TEST(Network, BarrierSynchronises) {
  Network net(4);
  std::atomic<int> phase_one{0};
  std::atomic<bool> violated{false};
  net.run([&](int) {
    ++phase_one;
    net.barrier();
    if (phase_one.load() != 4) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Network, FailingRankDoesNotDeadlockPeers) {
  // Failure injection: rank 1 dies before sending; rank 0 blocks in recv
  // and must be released by the abort, with the original error rethrown.
  Network net(2);
  EXPECT_THROW(net.run([&](int rank) {
                 if (rank == 1) throw InvalidInput("rank 1 exploded");
                 (void)net.recv(0, 1, 0);  // would block forever
               }),
               InvalidInput);
}

TEST(Network, FailingRankUnblocksCollectives) {
  Network net(3);
  EXPECT_THROW(net.run([&](int rank) {
                 if (rank == 2) throw NumericalError("boom");
                 (void)net.allreduce_max(1.0);
               }),
               std::runtime_error);
}

TEST(Network, SingleRankCollectivesTrivial) {
  Network net(1);
  net.run([&](int) {
    EXPECT_DOUBLE_EQ(net.allreduce_max(5.0), 5.0);
    EXPECT_DOUBLE_EQ(net.allreduce_sum(5.0), 5.0);
    net.barrier();
  });
}

TEST(Network, RejectsZeroRanks) {
  EXPECT_THROW(Network(0), InvalidInput);
}

}  // namespace
}  // namespace unsnap::comm
