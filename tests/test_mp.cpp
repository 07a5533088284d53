// Tests for the mp message-passing runtime: point-to-point semantics
// (ordering, exact tag/source matching), allreduce_sum, sub-communicators,
// bounded streams, and stress patterns mirroring the pipeline's
// communication (pairwise exchange, fan-in/out).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
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

// Typed sends and receives over the Buffer API: a span packed into an
// adopted vector, and a message unpacked into a freshly sized vector.
template <typename T>
void send_span(Comm& comm, int dest, int tag, std::span<const T> values) {
  comm.send_buffer(dest, tag, Buffer::adopt(pack(values)));
}

template <typename T>
std::vector<T> recv_vector(Comm& comm, int source, int tag) {
  return unpack_vector<T>(comm.recv_buffer(source, tag).bytes());
}

// One-value send and receive.
template <typename T>
void send_one(Comm& comm, int dest, int tag, T value) {
  send_span<T>(comm, dest, tag, std::span<const T>(&value, 1));
}

template <typename T>
T recv_one(Comm& comm, int source, int tag) {
  T value{};
  comm.recv_into<T>(source, tag, std::span<T>(&value, 1));
  return value;
}

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
      send_one(comm, 1, 7, 42);
      EXPECT_EQ(recv_one<int>(comm, 1, 8), 43);
    } else {
      const int v = recv_one<int>(comm, 0, 7);
      send_one(comm, 0, 8, v + 1);
    }
  });
}

TEST(Mp, SendToSelfIsBuffered) {
  World world(1);
  world.run([](Comm& comm) {
    send_one(comm, 0, 3, 99.5);
    EXPECT_DOUBLE_EQ(recv_one<double>(comm, 0, 3), 99.5);
  });
}

TEST(Mp, VectorPayloadRoundTrip) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<float> data(1000);
      std::iota(data.begin(), data.end(), 0.0f);
      send_span<float>(comm, 1, 0, data);
    } else {
      const auto got = recv_vector<float>(comm, 0, 0);
      ASSERT_EQ(got.size(), 1000u);
      EXPECT_FLOAT_EQ(got[999], 999.0f);
    }
  });
}

TEST(Mp, PerSourceTagOrderIsFifo) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) send_one(comm, 1, 5, i);
    } else {
      for (int i = 0; i < 100; ++i) EXPECT_EQ(recv_one<int>(comm, 0, 5), i);
    }
  });
}

TEST(Mp, TagMatchingSelectsOutOfOrder) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      send_one(comm, 1, /*tag=*/1, 100);
      send_one(comm, 1, /*tag=*/2, 200);
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      EXPECT_EQ(recv_one<int>(comm, 0, 2), 200);
      EXPECT_EQ(recv_one<int>(comm, 0, 1), 100);
    }
  });
}

TEST(Mp, EmptyMessageIsDeliverable) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      send_span<int>(comm, 1, 0, std::span<const int>{});
    } else {
      const auto got = recv_vector<int>(comm, 0, 0);
      EXPECT_TRUE(got.empty());
    }
  });
}

// ----------------------------------------------------------- error paths --

TEST(Mp, RejectsNegativeUserTag) {
  World world(1);
  world.run([](Comm& comm) {
    EXPECT_THROW(send_one(comm, 0, -5, 1), PreconditionError);
    // Negative tags are allreduce_sum's: no receive or probe may see them.
    EXPECT_THROW(comm.recv_buffer(0, -1), PreconditionError);
    EXPECT_THROW((void)comm.probe(0, -1), PreconditionError);
  });
}

TEST(Mp, RejectsOutOfRangeDest) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(send_one(comm, 2, 0, 1), PreconditionError);
      EXPECT_THROW(send_one(comm, -1, 0, 1), PreconditionError);
    }
  });
}

TEST(Mp, RecvSizeMismatchThrows) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> three(3);
      send_span<int>(comm, 1, 0, three);
    } else {
      std::vector<int> two(2);
      EXPECT_THROW(comm.recv_into<int>(0, 0, two), PreconditionError);
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
        comm.recv_into<int>(1, 0, {&got, 1});
        PSTAP_FAIL("rank 0 blew up");
      }
      send_span<int>(comm, 0, 0, {&one, 1});
      comm.recv_into<int>(0, 1, {&got, 1});  // never sent
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
      send_span<int>(comm, 1, 3, {&v, 1});
    } else {
      comm.recv_into<int>(0, 3, {&v, 1});
      EXPECT_EQ(v, 5);
    }
  });
}

// ------------------------------------------------------------------ probe --

TEST(Mp, ProbeSeesPendingMessage) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<char> payload(123);
      send_span<char>(comm, 1, 6, payload);
      send_one(comm, 1, 7, 1);  // queued after the payload
    } else {
      EXPECT_EQ(recv_one<int>(comm, 0, 7), 1);
      const auto n = comm.probe(0, 6);
      ASSERT_TRUE(n.has_value());
      EXPECT_EQ(*n, 123u);
      // Probe does not consume.
      EXPECT_EQ(recv_vector<char>(comm, 0, 6).size(), 123u);
    }
  });
}

TEST(Mp, ProbeReturnsNulloptWhenEmpty) {
  World world(1);
  world.run([](Comm& comm) { EXPECT_FALSE(comm.probe(0, 0).has_value()); });
}

// ------------------------------------------------------------ collectives --

class MpCollectives : public ::testing::TestWithParam<int> {};

TEST_P(MpCollectives, ReduceSumMatchesClosedForm) {
  const int n = GetParam();
  World world(n);
  world.run([n](Comm& comm) {
    std::vector<double> in{double(comm.rank()), 1.0};
    std::vector<double> out(2, 0.0);
    comm.allreduce_sum<double>(in, out);
    EXPECT_DOUBLE_EQ(out[0], n * (n - 1) / 2.0);
    EXPECT_DOUBLE_EQ(out[1], double(n));
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

// Rank 0 sums in rank order and sends that one result back, so every rank
// holds the same bits, and they are the rank-order sum's bits. The inputs
// cancel to different values under a different order: 1e16 + 1 rounds the
// 1 away, so (1e16 + 1) - 1e16 is 0 while 1 + (1e16 - 1e16) is 1.
TEST_P(MpCollectives, AllreduceIsBitIdenticalOnEveryRank) {
  const int n = GetParam();
  const std::vector<double> pattern{1e16, 1.0, -1e16, 0.5, 3.25e-3, -7.0, 1e-9};
  auto input = [&](int r) {
    std::vector<double> in(pattern.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = pattern[(static_cast<std::size_t>(r) + i) % pattern.size()];
    }
    return in;
  };
  std::vector<double> expect = input(0);
  for (int r = 1; r < n; ++r) {
    const auto in = input(r);
    for (std::size_t i = 0; i < expect.size(); ++i) expect[i] += in[i];
  }
  if (n >= 3) {  // the inputs tell the orders apart
    std::vector<double> reversed = input(n - 1);
    for (int r = n - 2; r >= 0; --r) {
      const auto in = input(r);
      for (std::size_t i = 0; i < reversed.size(); ++i) reversed[i] += in[i];
    }
    ASSERT_NE(reversed, expect);
  }
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  World world(n);
  world.run([&](Comm& comm) {
    const auto in = input(comm.rank());
    std::vector<double> out(in.size());
    comm.allreduce_sum<double>(in, out);
    got[static_cast<std::size_t>(comm.rank())] = out;
  });
  for (int r = 0; r < n; ++r) {
    const auto& mine = got[static_cast<std::size_t>(r)];
    ASSERT_EQ(mine.size(), expect.size());
    EXPECT_EQ(std::memcmp(mine.data(), expect.data(), expect.size() * sizeof(double)), 0)
        << "rank " << r << " of " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MpCollectives, ::testing::Values(1, 2, 3, 4, 7, 8));

// --------------------------------------------------------------- subgroup --

TEST(Mp, SplitByParityFormsTwoComms) {
  World world(6);
  world.run([](Comm& comm) {
    const std::vector<int> even{0, 2, 4}, odd{1, 3, 5};
    Comm evens = comm.subgroup(even);
    Comm odds = comm.subgroup(odd);
    Comm& sub = comm.rank() % 2 == 0 ? evens : odds;
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
    // The list order is the rank order: a reversed list reverses it.
    const std::vector<int> reversed{3, 2, 1, 0};
    Comm sub = comm.subgroup(reversed);
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST(Mp, SplitIsolatesMessageContexts) {
  World world(4);
  world.run([](Comm& comm) {
    // Sub rank s is world rank s: the same (source, tag) on both.
    const std::vector<int> all{0, 1, 2, 3};
    Comm sub = comm.subgroup(all);
    if (comm.rank() == 0) {
      send_one(comm, 1, 0, 100);  // queued first, on the parent
      send_one(sub, 1, 0, 200);
    } else if (comm.rank() == 1) {
      EXPECT_EQ(recv_one<int>(sub, 0, 0), 200) << "sub received the parent's message";
      EXPECT_EQ(recv_one<int>(comm, 0, 0), 100);
    }
  });
}

TEST(Mp, NestedSplitWorks) {
  World world(8);
  world.run([](Comm& comm) {
    const std::vector<int> low{0, 1, 2, 3}, high{4, 5, 6, 7};
    Comm lows = comm.subgroup(low);
    Comm highs = comm.subgroup(high);
    Comm& half = comm.rank() < 4 ? lows : highs;
    const std::vector<int> first{0, 1}, second{2, 3};
    Comm firsts = half.subgroup(first);
    Comm seconds = half.subgroup(second);
    Comm& quarter = half.rank() < 2 ? firsts : seconds;
    EXPECT_EQ(quarter.size(), 2);
    EXPECT_EQ(quarter.rank(), comm.rank() % 2);
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
      EXPECT_THROW(send_one(sub, 0, 0, 1), PreconditionError);
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
      send_one(mine, 1, 0, comm.rank());
    } else {
      EXPECT_EQ(recv_one<int>(mine, 0, 0), comm.rank() - 1);
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
      // Take the senders' streams round-robin while they all still send.
      long total = 0;
      for (int i = 0; i < kMsgs; ++i) {
        for (int r = 1; r < n; ++r) total += recv_one<int>(comm, r, 0);
      }
      long expect = 0;
      for (int r = 1; r < n; ++r) expect += long(r) * kMsgs;
      EXPECT_EQ(total, expect);
    } else {
      for (int i = 0; i < kMsgs; ++i) send_one(comm, 0, 0, comm.rank());
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
        send_span<int>(comm, half + d, comm.rank(), slice);
      }
    } else {
      for (int s = 0; s < half; ++s) {
        const auto slice = recv_vector<int>(comm, s, s);
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
      if (m.src == comm.rank()) {
        send_span<std::uint8_t>(comm, m.dest, m.tag, payload_of(m));
      }
    }
    // Phase 3: receive everything destined to me, in per-(src,tag) order.
    for (const Msg& m : all) {
      if (m.dest != comm.rank()) continue;
      const auto got = recv_vector<std::uint8_t>(comm, m.src, m.tag);
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
      send_one(comm, next, 3, comm.rank() * 1000 + iter);
      // ...interleaved with collectives on the same communicator.
      double one = 1.0, sum = 0.0;
      comm.allreduce_sum<double>({&one, 1}, {&sum, 1});
      EXPECT_DOUBLE_EQ(sum, double(n));
      EXPECT_EQ(recv_one<int>(comm, prev, 3), prev * 1000 + iter);
      // An acknowledgement round keeps the ranks in step.
      send_one(comm, prev, 4, iter);
      EXPECT_EQ(recv_one<int>(comm, next, 4), iter);
    }
  });
}

TEST(Mp, SplitCommsRunConcurrentCollectives) {
  const int n = 8;
  World world(n);
  world.run([](Comm& comm) {
    // 4 disjoint comms of 2, {r, r + 4}: every rank builds all four in the
    // same order, as collective_read's callers do, and uses its own.
    std::vector<Comm> subs;
    for (int r = 0; r < 4; ++r) {
      const std::vector<int> pair{r, r + 4};
      subs.push_back(comm.subgroup(pair));
    }
    Comm& sub = subs[static_cast<std::size_t>(comm.rank() % 4)];
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
      send_span<float>(comm, 1, 0, big);
    } else {
      const auto got = recv_vector<float>(comm, 0, 0);
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
      for (int i = 0; i < 32; ++i) send_one(comm, 1, 0, i);
    } else {
      for (int i = 0; i < 32; ++i) (void)recv_one<int>(comm, 0, 0);
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
      send_one(comm, 1, 7, 42);  // queued pre-close; must still drain
      world.close_all_mailboxes();
      return;
    }
    if (comm.rank() == 1) {
      EXPECT_EQ(recv_one<int>(comm, 0, 7), 42) << "queued envelope lost";
    }
    EXPECT_THROW((void)recv_one<int>(comm, 0, /*tag=*/9), MailboxClosed);
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
      send_one(comm, 1, 3, 5);
    } else {
      EXPECT_EQ(recv_one<int>(comm, 0, 3), 5);
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
    EXPECT_EQ(recv_one<int>(comm, 0, 4), 0);
    EXPECT_TRUE(eventually([&] { return sent.load() == 5; }))
        << "taking one envelope did not wake the sender";
    for (int i = 1; i <= 4; ++i) EXPECT_EQ(recv_one<int>(comm, 0, 4), i);
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
      for (int i = 0; i <= depth; ++i) EXPECT_EQ(recv_one<int>(comm, 0, 4), i);
      for (int i = 0; i < depth; ++i) EXPECT_EQ(recv_one<int>(comm, 0, 5), i);
      for (int i = 0; i < depth; ++i) EXPECT_EQ(recv_one<int>(comm, 2, 4), i);
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
    for (int i = 0; i <= 4; ++i) EXPECT_EQ(recv_one<int>(comm, 0, 4), i);
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
      EXPECT_EQ(recv_one<int>(comm, 0, 4), i);
    }
    EXPECT_TRUE(eventually([&] { return sent.load(); }));
    for (int i = 3; i <= over; ++i) EXPECT_EQ(recv_one<int>(comm, 0, 4), i);
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
      send_one(comm, 1, 1, 11);
    } else {
      EXPECT_EQ(recv_one<int>(comm, 0, 1), 11);
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
      send_one(comm, 1, 2, 7);
    } else {
      EXPECT_EQ(recv_one<int>(comm, 0, 2), 7);
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
