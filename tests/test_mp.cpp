// Tests for the mp message-passing runtime: point-to-point semantics
// (ordering, tag/source matching, wildcards), nonblocking requests,
// collectives, communicator splitting/subgrouping, and stress patterns
// mirroring the pipeline's communication (pairwise exchange, fan-in/out).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mp/comm.hpp"
#include "mp/world.hpp"
#include "obs/metrics.hpp"

namespace pstap::mp {
namespace {

// ------------------------------------------------------------------ p2p --

TEST(Mp, SingleRankWorldRuns) {
  World world(1);
  std::atomic<int> ran{0};
  world.run([&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ran++;
  });
  EXPECT_EQ(ran.load(), 1);
}

TEST(Mp, PingPongValue) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 7, 42);
      EXPECT_EQ(comm.recv_value<int>(1, 8), 43);
    } else {
      const int v = comm.recv_value<int>(0, 7);
      comm.send_value(0, 8, v + 1);
    }
  });
}

TEST(Mp, SendToSelfIsBuffered) {
  World world(1);
  world.run([](Comm& comm) {
    comm.send_value(0, 3, 99.5);
    EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 3), 99.5);
  });
}

TEST(Mp, VectorPayloadRoundTrip) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<float> data(1000);
      std::iota(data.begin(), data.end(), 0.0f);
      comm.send<float>(1, 0, data);
    } else {
      const auto got = comm.recv_vector<float>(0, 0);
      ASSERT_EQ(got.size(), 1000u);
      EXPECT_FLOAT_EQ(got[999], 999.0f);
    }
  });
}

TEST(Mp, PerSourceTagOrderIsFifo) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) comm.send_value(1, 5, i);
    } else {
      for (int i = 0; i < 100; ++i) EXPECT_EQ(comm.recv_value<int>(0, 5), i);
    }
  });
}

TEST(Mp, TagMatchingSelectsOutOfOrder) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, /*tag=*/1, 100);
      comm.send_value(1, /*tag=*/2, 200);
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 100);
    }
  });
}

TEST(Mp, AnySourceReportsActualSource) {
  World world(3);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      int seen_mask = 0;
      for (int i = 0; i < 2; ++i) {
        RecvInfo info;
        const int v = comm.recv_value<int>(kAnySource, 9, &info);
        EXPECT_EQ(v, info.source * 10);
        seen_mask |= 1 << info.source;
      }
      EXPECT_EQ(seen_mask, 0b110);
    } else {
      comm.send_value(0, 9, comm.rank() * 10);
    }
  });
}

TEST(Mp, AnyTagReceivesBoth) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 11, 1);
      comm.send_value(1, 22, 2);
    } else {
      RecvInfo a, b;
      (void)comm.recv_value<int>(0, kAnyTag, &a);
      (void)comm.recv_value<int>(0, kAnyTag, &b);
      EXPECT_EQ(a.tag + b.tag, 33);
    }
  });
}

TEST(Mp, RecvInfoReportsByteCount) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> d(17);
      comm.send<double>(1, 0, d);
    } else {
      RecvInfo info;
      (void)comm.recv_vector<double>(0, 0, &info);
      EXPECT_EQ(info.bytes, 17 * sizeof(double));
    }
  });
}

TEST(Mp, EmptyMessageIsDeliverable) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 0, std::span<const int>{});
    } else {
      const auto got = comm.recv_vector<int>(0, 0);
      EXPECT_TRUE(got.empty());
    }
  });
}

// ----------------------------------------------------------- error paths --

TEST(Mp, RejectsNegativeUserTag) {
  World world(1);
  world.run([](Comm& comm) {
    EXPECT_THROW(comm.send_value(0, -5, 1), PreconditionError);
  });
}

TEST(Mp, RejectsOutOfRangeDest) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send_value(2, 0, 1), PreconditionError);
      EXPECT_THROW(comm.send_value(-1, 0, 1), PreconditionError);
    }
  });
}

TEST(Mp, RecvSizeMismatchThrows) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> three(3);
      comm.send<int>(1, 0, three);
    } else {
      std::vector<int> two(2);
      EXPECT_THROW(comm.recv<int>(0, 0, two), PreconditionError);
    }
  });
}

TEST(Mp, WorldRejectsZeroSize) { EXPECT_THROW(World(0), PreconditionError); }

TEST(Mp, RankExceptionPropagatesFromRun) {
  World world(1);
  EXPECT_THROW(world.run([](Comm&) { PSTAP_FAIL("rank blew up"); }), RuntimeError);
}

// A rank that throws while its peer waits in recv on it must not hang the
// run: run() wakes the peer, rethrows the thrower's own error (not the
// peer's MailboxClosed), and the World runs again afterwards.
TEST(Mp, RankExceptionWakesPeerBlockedInRecv) {
  World world(2);
  const auto start = std::chrono::steady_clock::now();
  std::string what;
  try {
    world.run([](Comm& comm) {
      const int one = 1;
      int got = 0;
      if (comm.rank() == 0) {
        // Throw only once rank 1 is past its send and on its way into recv.
        comm.recv<int>(1, 0, {&got, 1});
        PSTAP_FAIL("rank 0 blew up");
      }
      comm.send<int>(0, 0, {&one, 1});
      comm.recv<int>(0, 1, {&got, 1});  // never sent
    });
  } catch (const MailboxClosed&) {
    FAIL() << "run() rethrew the peer's MailboxClosed";
  } catch (const RuntimeError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("rank 0 blew up"), std::string::npos) << what;
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));

  EXPECT_FALSE(world.mailbox(0).closed());
  EXPECT_FALSE(world.mailbox(1).closed());
  world.run([](Comm& comm) {
    int v = comm.rank() == 0 ? 5 : 0;
    if (comm.rank() == 0) {
      comm.send<int>(1, 3, {&v, 1});
    } else {
      comm.recv<int>(0, 3, {&v, 1});
      EXPECT_EQ(v, 5);
    }
  });
}

// ------------------------------------------------------------ nonblocking --

TEST(Mp, IsendCompletesImmediately) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> data{1, 2, 3};
      Request req = comm.isend<int>(1, 0, data);
      EXPECT_TRUE(req.test());
      req.wait();
    } else {
      EXPECT_EQ(comm.recv_vector<int>(0, 0).size(), 3u);
    }
  });
}

TEST(Mp, IrecvWaitDeliversPayload) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> data{5, 6};
      comm.send<int>(1, 4, data);
    } else {
      std::vector<int> out;
      Request req = comm.irecv<int>(0, 4, &out);
      req.wait();
      ASSERT_EQ(out.size(), 2u);
      EXPECT_EQ(out[1], 6);
    }
  });
}

TEST(Mp, IrecvTestPollsWithoutBlocking) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.barrier();  // ensure rank 1 polled at least once before send
      comm.send_value(1, 4, 7);
    } else {
      std::vector<int> out;
      Request req = comm.irecv<int>(0, 4, &out);
      EXPECT_FALSE(req.test());  // nothing sent yet
      comm.barrier();
      req.wait();
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0], 7);
      EXPECT_TRUE(req.test());
    }
  });
}

TEST(Mp, ProbeSeesPendingMessage) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<char> payload(123);
      comm.send<char>(1, 6, payload);
      comm.barrier();
    } else {
      comm.barrier();
      const auto n = comm.probe(0, 6);
      ASSERT_TRUE(n.has_value());
      EXPECT_EQ(*n, 123u);
      // Probe does not consume.
      EXPECT_EQ(comm.recv_vector<char>(0, 6).size(), 123u);
    }
  });
}

TEST(Mp, ProbeWaitBlocksUntilArrival) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<char> payload(55);
      comm.send<char>(1, 6, payload);
    } else {
      EXPECT_EQ(comm.probe_wait(0, 6), 55u);
      (void)comm.recv_vector<char>(0, 6);
    }
  });
}

TEST(Mp, ProbeReturnsNulloptWhenEmpty) {
  World world(1);
  world.run([](Comm& comm) { EXPECT_FALSE(comm.probe(0, 0).has_value()); });
}

// ------------------------------------------------------------ collectives --

class MpCollectives : public ::testing::TestWithParam<int> {};

TEST_P(MpCollectives, BarrierCompletes) {
  World world(GetParam());
  world.run([](Comm& comm) {
    for (int i = 0; i < 5; ++i) comm.barrier();
  });
}

TEST_P(MpCollectives, BcastFromEachRoot) {
  const int n = GetParam();
  World world(n);
  world.run([n](Comm& comm) {
    for (int root = 0; root < n; ++root) {
      std::vector<int> data(4, comm.rank() == root ? root * 100 : -1);
      comm.bcast(std::span<int>(data), root);
      for (int v : data) EXPECT_EQ(v, root * 100);
    }
  });
}

TEST_P(MpCollectives, ReduceSumMatchesClosedForm) {
  const int n = GetParam();
  World world(n);
  world.run([n](Comm& comm) {
    std::vector<double> in{double(comm.rank()), 1.0};
    std::vector<double> out(2, 0.0);
    comm.reduce_sum<double>(in, out, 0);
    if (comm.rank() == 0) {
      EXPECT_DOUBLE_EQ(out[0], n * (n - 1) / 2.0);
      EXPECT_DOUBLE_EQ(out[1], double(n));
    }
  });
}

TEST_P(MpCollectives, AllreduceDeliversEverywhere) {
  const int n = GetParam();
  World world(n);
  world.run([n](Comm& comm) {
    const double in = double(comm.rank() + 1);
    double out = 0;
    comm.allreduce_sum<double>({&in, 1}, {&out, 1});
    EXPECT_DOUBLE_EQ(out, n * (n + 1) / 2.0);
  });
}

TEST_P(MpCollectives, GatherConcatenatesInRankOrder) {
  const int n = GetParam();
  World world(n);
  world.run([n](Comm& comm) {
    // Rank r contributes r+1 copies of r — exercises ragged gathers.
    std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1), comm.rank());
    const auto all = comm.gather<int>(mine, n - 1);
    if (comm.rank() == n - 1) {
      std::vector<int> expect;
      for (int r = 0; r < n; ++r)
        for (int k = 0; k <= r; ++k) expect.push_back(r);
      EXPECT_EQ(all, expect);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(MpCollectives, AllgatherSameEverywhere) {
  const int n = GetParam();
  World world(n);
  world.run([n](Comm& comm) {
    const int mine = comm.rank() * comm.rank();
    const auto all = comm.allgather<int>({&mine, 1});
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * r);
  });
}

TEST_P(MpCollectives, ScatterDistributesChunks) {
  const int n = GetParam();
  World world(n);
  world.run([n](Comm& comm) {
    std::vector<int> in;
    if (comm.rank() == 0) {
      in.resize(static_cast<std::size_t>(3 * n));
      std::iota(in.begin(), in.end(), 0);
    }
    std::vector<int> out(3);
    comm.scatter<int>(in, out, 0);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], comm.rank() * 3 + i);
  });
}

TEST_P(MpCollectives, BackToBackCollectivesDoNotCrosstalk) {
  const int n = GetParam();
  World world(n);
  world.run([](Comm& comm) {
    for (int iter = 0; iter < 20; ++iter) {
      double v = 1.0, out = 0.0;
      comm.allreduce_sum<double>({&v, 1}, {&out, 1});
      EXPECT_DOUBLE_EQ(out, double(comm.size()));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, MpCollectives, ::testing::Values(1, 2, 3, 4, 7, 8));

// ------------------------------------------------------- split / subgroup --

TEST(Mp, SplitByParityFormsTwoComms) {
  World world(6);
  world.run([](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // Sum of world ranks within the sub-communicator.
    const double mine = comm.rank();
    double sum = 0;
    sub.allreduce_sum<double>({&mine, 1}, {&sum, 1});
    EXPECT_DOUBLE_EQ(sum, comm.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
  });
}

TEST(Mp, SplitKeyControlsOrdering) {
  World world(4);
  world.run([](Comm& comm) {
    // Reverse ordering via descending keys.
    Comm sub = comm.split(0, -comm.rank());
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST(Mp, SplitIsolatesMessageContexts) {
  World world(4);
  world.run([](Comm& comm) {
    Comm sub = comm.split(comm.rank() / 2, comm.rank());
    // Same (source-in-sub, tag) in both subgroups; no cross delivery.
    if (sub.rank() == 0) {
      sub.send_value(1, 0, comm.rank());
    } else {
      const int v = sub.recv_value<int>(0, 0);
      EXPECT_EQ(v, comm.rank() - 1);  // partner is world rank - 1
    }
  });
}

TEST(Mp, NestedSplitWorks) {
  World world(8);
  world.run([](Comm& comm) {
    Comm half = comm.split(comm.rank() / 4, comm.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    double one = 1.0, sum = 0.0;
    quarter.allreduce_sum<double>({&one, 1}, {&sum, 1});
    EXPECT_DOUBLE_EQ(sum, 2.0);
  });
}

TEST(Mp, SubgroupSelectsListedRanks) {
  World world(5);
  world.run([](Comm& comm) {
    const std::vector<int> picks{4, 1, 3};
    Comm sub = comm.subgroup(picks);
    const bool member = comm.rank() == 4 || comm.rank() == 1 || comm.rank() == 3;
    EXPECT_EQ(sub.is_member(), member);
    if (member) {
      EXPECT_EQ(sub.size(), 3);
      // Rank order follows the list: 4 -> 0, 1 -> 1, 3 -> 2.
      const int expected = comm.rank() == 4 ? 0 : comm.rank() == 1 ? 1 : 2;
      EXPECT_EQ(sub.rank(), expected);
      double one = 1.0, sum = 0.0;
      sub.allreduce_sum<double>({&one, 1}, {&sum, 1});
      EXPECT_DOUBLE_EQ(sum, 3.0);
    }
  });
}

TEST(Mp, NonMemberHandleRejectsTraffic) {
  World world(3);
  world.run([](Comm& comm) {
    const std::vector<int> picks{0};
    Comm sub = comm.subgroup(picks);
    if (comm.rank() != 0) {
      EXPECT_THROW(sub.send_value(0, 0, 1), PreconditionError);
    }
  });
}

TEST(Mp, DisjointSubgroupsExchangeIndependently) {
  World world(4);
  world.run([](Comm& comm) {
    const std::vector<int> a{0, 1}, b{2, 3};
    Comm ca = comm.subgroup(a);
    Comm cb = comm.subgroup(b);
    Comm& mine = comm.rank() < 2 ? ca : cb;
    if (mine.rank() == 0) {
      mine.send_value(1, 0, comm.rank());
    } else {
      EXPECT_EQ(mine.recv_value<int>(0, 0), comm.rank() - 1);
    }
  });
}

// ---------------------------------------------------------------- stress --

TEST(Mp, ManyToOneFanInUnderLoad) {
  const int n = 8;
  World world(n);
  world.run([n](Comm& comm) {
    const int kMsgs = 50;
    if (comm.rank() == 0) {
      long total = 0;
      for (int i = 0; i < (n - 1) * kMsgs; ++i) {
        total += comm.recv_value<int>(kAnySource, 0);
      }
      long expect = 0;
      for (int r = 1; r < n; ++r) expect += long(r) * kMsgs;
      EXPECT_EQ(total, expect);
    } else {
      for (int i = 0; i < kMsgs; ++i) comm.send_value(0, 0, comm.rank());
    }
  });
}

TEST(Mp, PairwiseExchangeMatchesPipelinePattern) {
  // The redistribution pattern between pipeline stages: every rank of group
  // A sends a slice to every rank of group B.
  const int n = 6;  // 3 senders, 3 receivers
  World world(n);
  world.run([](Comm& comm) {
    const int half = comm.size() / 2;
    if (comm.rank() < half) {
      for (int d = 0; d < half; ++d) {
        std::vector<int> slice{comm.rank(), d};
        comm.send<int>(half + d, comm.rank(), slice);
      }
    } else {
      for (int s = 0; s < half; ++s) {
        const auto slice = comm.recv_vector<int>(s, s);
        ASSERT_EQ(slice.size(), 2u);
        EXPECT_EQ(slice[0], s);
        EXPECT_EQ(slice[1], comm.rank() - half);
      }
    }
  });
}

TEST(Mp, RandomizedMessageSizesFuzz) {
  // Deterministic fuzz: every rank sends randomly sized tagged messages to
  // random peers; every byte must arrive intact. Senders and receivers
  // derive the same schedule from the same seeds.
  const int n = 5;
  const int kRounds = 40;
  World world(n);
  world.run([n](Comm& comm) {
    // Phase 1: everyone computes the full traffic matrix deterministically.
    struct Msg {
      int src, dest, tag;
      std::size_t len;
      std::uint64_t seed;
    };
    std::vector<Msg> all;
    Rng rng(0xF00D);
    for (int round = 0; round < kRounds; ++round) {
      for (int src = 0; src < n; ++src) {
        Msg m;
        m.src = src;
        m.dest = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(n)));
        m.tag = static_cast<int>(rng.uniform_index(7));
        m.len = static_cast<std::size_t>(rng.uniform_index(2000));
        m.seed = rng.next_u64();
        all.push_back(m);
      }
    }
    auto payload_of = [](const Msg& m) {
      Rng r(m.seed);
      std::vector<std::uint8_t> v(m.len);
      for (auto& b : v) b = static_cast<std::uint8_t>(r.next_u64());
      return v;
    };
    // Phase 2: send mine.
    for (const Msg& m : all) {
      if (m.src == comm.rank()) comm.send<std::uint8_t>(m.dest, m.tag, payload_of(m));
    }
    // Phase 3: receive everything destined to me, in per-(src,tag) order.
    for (const Msg& m : all) {
      if (m.dest != comm.rank()) continue;
      const auto got = comm.recv_vector<std::uint8_t>(m.src, m.tag);
      const auto expect = payload_of(m);
      ASSERT_EQ(got, expect) << "src " << m.src << " tag " << m.tag;
    }
  });
}

TEST(Mp, CollectivesInterleavedWithP2P) {
  const int n = 6;
  World world(n);
  world.run([n](Comm& comm) {
    for (int iter = 0; iter < 10; ++iter) {
      // p2p ring traffic...
      const int next = (comm.rank() + 1) % n;
      const int prev = (comm.rank() + n - 1) % n;
      comm.send_value(next, 3, comm.rank() * 1000 + iter);
      // ...interleaved with collectives on the same communicator.
      double one = 1.0, sum = 0.0;
      comm.allreduce_sum<double>({&one, 1}, {&sum, 1});
      EXPECT_DOUBLE_EQ(sum, double(n));
      EXPECT_EQ(comm.recv_value<int>(prev, 3), prev * 1000 + iter);
      comm.barrier();
    }
  });
}

TEST(Mp, SplitCommsRunConcurrentCollectives) {
  const int n = 8;
  World world(n);
  world.run([](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 4, comm.rank());  // 4 comms of 2
    for (int iter = 0; iter < 20; ++iter) {
      const double mine = comm.rank();
      double sum = 0;
      sub.allreduce_sum<double>({&mine, 1}, {&sum, 1});
      EXPECT_DOUBLE_EQ(sum, double(comm.rank() % 4) * 2 + 4);  // r + (r+4)
    }
  });
}

TEST(Mp, LargePayloadSurvives) {
  World world(2);
  world.run([](Comm& comm) {
    const std::size_t n = 1 << 21;  // 2M floats = 8 MB
    if (comm.rank() == 0) {
      std::vector<float> big(n);
      for (std::size_t i = 0; i < n; ++i) big[i] = static_cast<float>(i % 997);
      comm.send<float>(1, 0, big);
    } else {
      const auto got = comm.recv_vector<float>(0, 0);
      ASSERT_EQ(got.size(), n);
      EXPECT_FLOAT_EQ(got[12345], static_cast<float>(12345 % 997));
      EXPECT_FLOAT_EQ(got[n - 1], static_cast<float>((n - 1) % 997));
    }
  });
}

TEST(Mp, MailboxDepthDrainsToZero) {
  World world(2);
  world.run([&world](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 32; ++i) comm.send_value(1, 0, i);
    } else {
      for (int i = 0; i < 32; ++i) (void)comm.recv_value<int>(0, 0);
      EXPECT_EQ(world.mailbox(1).depth(), 0u);
    }
  });
}

TEST(Mp, RepeatedRunsOnSameWorld) {
  World world(3);
  for (int iter = 0; iter < 3; ++iter) {
    world.run([](Comm& comm) {
      double one = 1.0, sum = 0.0;
      comm.allreduce_sum<double>({&one, 1}, {&sum, 1});
      EXPECT_DOUBLE_EQ(sum, 3.0);
    });
  }
}

// ---------------------------------------------------------- close/reopen --

// Closing the mailboxes must wake every blocked receiver with
// MailboxClosed (the supervisor's abort path relies on this to unwind a
// wedged world instead of hanging), while envelopes queued before the
// close still drain normally.
TEST(Mp, CloseWakesAllBlockedReceivers) {
  World world(4);
  std::atomic<int> woken{0};
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      // Nobody ever sends tag 9: ranks 1-3 block until the close.
      comm.send_value(1, 7, 42);  // queued pre-close; must still drain
      world.close_all_mailboxes();
      return;
    }
    if (comm.rank() == 1) {
      EXPECT_EQ(comm.recv_value<int>(0, 7), 42) << "queued envelope lost";
    }
    EXPECT_THROW((void)comm.recv_value<int>(0, /*tag=*/9), MailboxClosed);
    woken++;
  });
  EXPECT_EQ(woken.load(), 3);
  world.reopen_all_mailboxes();
}

TEST(Mp, ReopenRestoresBlockingReceives) {
  World world(2);
  world.run([&world](Comm& comm) {
    if (comm.rank() == 0) world.close_all_mailboxes();
  });
  world.reopen_all_mailboxes();
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 3, 5);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 3), 5);
    }
  });
}

// ------------------------------------------------------- bounded streams --

// Polls `pred` until it holds or 10 s pass; the deadline turns a missing
// wake-up into a test failure instead of a hang.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Long enough for a sender that should stay blocked to have got through
// if the bound were broken; a pass can only be a false pass, never a
// false failure.
void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(30)); }

Buffer int_payload(int v) {
  return Buffer::adopt(pack(std::span<const int>(&v, 1)));
}

TEST(MpStream, FifthSendBlocksUntilReceiverTakesOne) {
  World world(2);
  std::atomic<int> sent{0};
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i <= static_cast<int>(kStreamDepth); ++i) {
        comm.send_stream(1, 4, int_payload(i));
        sent++;
      }
      return;
    }
    ASSERT_TRUE(eventually([&] { return sent.load() == 4; }));
    settle();
    EXPECT_EQ(sent.load(), 4) << "the fifth send did not block";
    EXPECT_EQ(world.mailbox(1).depth(), kStreamDepth);
    EXPECT_EQ(comm.recv_value<int>(0, 4), 0);
    EXPECT_TRUE(eventually([&] { return sent.load() == 5; }))
        << "taking one envelope did not wake the sender";
    for (int i = 1; i <= 4; ++i) EXPECT_EQ(comm.recv_value<int>(0, 4), i);
  });
}

TEST(MpStream, OtherTagOrSourceIsNotBlocked) {
  World world(3);
  std::atomic<int> done{0};
  world.run([&](Comm& comm) {
    const int depth = static_cast<int>(kStreamDepth);
    if (comm.rank() == 0) {
      for (int i = 0; i < depth; ++i) comm.send_stream(1, 4, int_payload(i));
      // Stream (0, 4) is full. Another tag from this rank, and a plain
      // buffered send on the full tag, both go straight through.
      for (int i = 0; i < depth; ++i) comm.send_stream(1, 5, int_payload(i));
      comm.send_buffer(1, 4, int_payload(depth));
      done++;
    } else if (comm.rank() == 2) {
      for (int i = 0; i < depth; ++i) comm.send_stream(1, 4, int_payload(i));
      done++;
    } else {
      EXPECT_TRUE(eventually([&] { return done.load() == 2; }))
          << "a send on a stream that was not full blocked";
      EXPECT_EQ(world.mailbox(1).depth(), 3 * kStreamDepth + 1);
      for (int i = 0; i <= depth; ++i) EXPECT_EQ(comm.recv_value<int>(0, 4), i);
      for (int i = 0; i < depth; ++i) EXPECT_EQ(comm.recv_value<int>(0, 5), i);
      for (int i = 0; i < depth; ++i) EXPECT_EQ(comm.recv_value<int>(2, 4), i);
    }
  });
}

// The supervisor's abort closes every mailbox; a sender blocked on a full
// stream must wake, and its envelope is still deposited.
TEST(MpStream, CloseWakesBlockedSender) {
  World world(2);
  std::atomic<int> sent{0};
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i <= static_cast<int>(kStreamDepth); ++i) {
        comm.send_stream(1, 4, int_payload(i));
        sent++;
      }
      return;
    }
    ASSERT_TRUE(eventually([&] { return sent.load() == 4; }));
    settle();
    EXPECT_EQ(sent.load(), 4);
    world.close_all_mailboxes();
    EXPECT_TRUE(eventually([&] { return sent.load() == 5; }))
        << "close() did not wake the blocked sender";
    EXPECT_EQ(world.mailbox(1).depth(), kStreamDepth + 1);
    // Queued envelopes still drain after close, in order.
    for (int i = 0; i <= 4; ++i) EXPECT_EQ(comm.recv_value<int>(0, 4), i);
  });
  world.reopen_all_mailboxes();
}

// Envelopes a closed mailbox accepted past the bound still count after
// reopen(): the sender blocks until the queue is back under the bound.
TEST(MpStream, ReopenCountsEnvelopesQueuedWhileClosed) {
  World world(2);
  world.close_all_mailboxes();
  const int over = static_cast<int>(kStreamDepth) + 2;
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < over; ++i) comm.send_stream(1, 4, int_payload(i));
    }
  });
  ASSERT_EQ(world.mailbox(1).depth(), static_cast<std::size_t>(over));
  world.reopen_all_mailboxes();

  std::atomic<bool> sent{false};
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_stream(1, 4, int_payload(over));
      sent = true;
      return;
    }
    for (int i = 0; i < 3; ++i) {
      settle();
      EXPECT_FALSE(sent.load()) << "sent with " << world.mailbox(1).depth()
                                << " envelopes of the stream queued";
      EXPECT_EQ(comm.recv_value<int>(0, 4), i);
    }
    EXPECT_TRUE(eventually([&] { return sent.load(); }));
    for (int i = 3; i <= over; ++i) EXPECT_EQ(comm.recv_value<int>(0, 4), i);
  });
}

// -------------------------------------------------------------- pinned --

#if defined(__linux__)
TEST(MpPinned, RanksRunOnTheirAssignedCpus) {
  WorldOptions opts;
  opts.pin_threads = true;
  World world(2, opts);
  std::vector<int> observed(2, -1);
  world.run([&](Comm& comm) {
    observed[static_cast<std::size_t>(comm.rank())] = sched_getcpu();
    // Ranks still communicate normally while pinned.
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 11);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 1), 11);
    }
  });
  const unsigned hc = std::thread::hardware_concurrency();
  EXPECT_EQ(world.pinned_ranks(), 2);
  EXPECT_EQ(obs::Registry::global().gauge("mp.pinned_ranks").value(), 2);
  for (int r = 0; r < 2; ++r) {
    ASSERT_GE(observed[static_cast<std::size_t>(r)], 0);
    // Rank r is pinned to cpu r % hc (default cpu_set is all cpus).
    EXPECT_EQ(observed[static_cast<std::size_t>(r)],
              static_cast<int>(static_cast<unsigned>(r) % hc));
  }
}

TEST(MpPinned, ExplicitCpuSetWrapsRoundRobin) {
  WorldOptions opts;
  opts.pin_threads = true;
  opts.cpu_set = {0};
  World world(3, opts);  // oversubscribed on purpose: 3 ranks, 1 cpu
  std::vector<int> observed(3, -1);
  world.run([&](Comm& comm) {
    observed[static_cast<std::size_t>(comm.rank())] = sched_getcpu();
  });
  EXPECT_EQ(world.pinned_ranks(), 3);
  for (int c : observed) EXPECT_EQ(c, 0);
}

TEST(MpPinned, InvalidCpuDegradesToUnpinnedRun) {
  WorldOptions opts;
  opts.pin_threads = true;
  opts.cpu_set = {9999999};  // beyond any real machine (and CPU_SETSIZE)
  World world(2, opts);
  std::atomic<int> ran{0};
  // The run must complete normally; the bad cpu only costs the pinning.
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 2, 7);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 2), 7);
    }
    ran++;
  });
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(world.pinned_ranks(), 0);
  EXPECT_EQ(obs::Registry::global().gauge("mp.pinned_ranks").value(), 0);
}
#endif  // __linux__

TEST(MpPinned, UnpinnedWorldReportsZeroPinnedRanks) {
  World world(2);
  world.run([](Comm&) {});
  EXPECT_EQ(world.pinned_ranks(), 0);
  EXPECT_FALSE(world.options().pin_threads);
}

}  // namespace
}  // namespace pstap::mp
