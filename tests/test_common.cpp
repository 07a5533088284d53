// Unit tests for src/common: error machinery, aligned buffers, RNG
// statistics and determinism, table rendering, numeric helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <xmmintrin.h>
#endif

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "common/wall_clock.hpp"

namespace pstap {
namespace {

// ---------------------------------------------------------------- errors --

TEST(Error, RequireThrowsPreconditionWithContext) {
  try {
    PSTAP_REQUIRE(1 == 2, "one is not two");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Error, CheckThrowsRuntime) {
  EXPECT_THROW(PSTAP_CHECK(false, "broken invariant"), RuntimeError);
}

TEST(Error, FailThrowsRuntime) {
  EXPECT_THROW(PSTAP_FAIL("unconditional"), RuntimeError);
}

TEST(Error, IoFailIncludesErrno) {
  try {
    PSTAP_IO_FAIL("open failed", 2 /* ENOENT */);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("errno 2"), std::string::npos);
  }
}

TEST(Error, PassingRequireDoesNotThrow) {
  EXPECT_NO_THROW(PSTAP_REQUIRE(true, "fine"));
  EXPECT_NO_THROW(PSTAP_CHECK(true, "fine"));
}

// ----------------------------------------------------------------- types --

TEST(Types, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 64), 1);
  EXPECT_EQ(round_up(10, 8), 16);
  EXPECT_EQ(round_up(16, 8), 16);
}

TEST(Types, Pow2Helpers) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Types, DbConversionsRoundTrip) {
  for (double db : {-30.0, 0.0, 3.0, 10.0, 60.0}) {
    EXPECT_NEAR(to_db(from_db(db)), db, 1e-12);
  }
}

// -------------------------------------------------------- aligned buffer --

TEST(AlignedBuffer, AllocatesAligned) {
  AlignedBuffer<cfloat> buf(1000);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kDefaultAlignment, 0u);
}

TEST(AlignedBuffer, CustomAlignment) {
  AlignedBuffer<float> buf(16, 4096);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 4096, 0u);
}

TEST(AlignedBuffer, RejectsBadAlignment) {
  EXPECT_THROW(AlignedBuffer<float>(4, 48), PreconditionError);   // not pow2
  EXPECT_THROW(AlignedBuffer<double>(4, 4), PreconditionError);   // < alignof
}

TEST(AlignedBuffer, EmptyIsValid) {
  AlignedBuffer<float> buf;
  EXPECT_TRUE(buf.empty());
  AlignedBuffer<float> zero(0);
  EXPECT_TRUE(zero.empty());
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(8);
  a[0] = 42;
  int* p = a.data();
  AlignedBuffer<int> b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[0], 42);
  EXPECT_EQ(b.size(), 8u);
}

TEST(AlignedBuffer, FillZeroAndIteration) {
  AlignedBuffer<float> buf(64);
  buf.fill_zero();
  for (float v : buf) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(buf.span().size(), 64u);
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng r(9);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) counts[r.uniform_index(10)]++;
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 - 600);
    EXPECT_LT(c, kDraws / 10 + 600);
  }
}

TEST(Rng, NormalMomentsAreStandard) {
  Rng r(10);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, ComplexNormalPowerMatchesRequest) {
  Rng r(11);
  const int n = 100000;
  double p = 0;
  for (int i = 0; i < n; ++i) p += std::norm(r.complex_normal(4.0));
  EXPECT_NEAR(p / n, 4.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.split();
  // The child stream should not replay the parent's outputs.
  Rng parent2(42);
  (void)parent2.next_u64();  // advance past the split draw
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.next_u64() == parent2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DiscardMatchesSequentialDraws) {
  for (const std::uint64_t n : {0u, 1u, 2u, 7u, 1000u, 123457u}) {
    Rng jumped(99), walked(99);
    jumped.discard(n);
    for (std::uint64_t i = 0; i < n; ++i) (void)walked.next_u64();
    for (int i = 0; i < 16; ++i) ASSERT_EQ(jumped.next_u64(), walked.next_u64()) << n;
  }
  // Two jumps compose, and the Box-Muller pair is normal()'s.
  Rng a(5), b(5);
  a.discard(3);
  a.discard(4);
  b.discard(7);
  const double u1 = a.uniform(), u2 = a.uniform();
  const Rng::BoxMuller bm = Rng::box_muller(u1, u2);
  EXPECT_EQ(bm.cos, b.normal());
  EXPECT_EQ(bm.sin, b.normal());
}

// -------------------------------------------------------------- parallel --

TEST(ParallelFor, RunsEveryChunkOnceWithChunkZeroInline) {
  for (const std::size_t chunks : {1u, 2u, 3u, 7u}) {
    std::vector<int> hits(chunks, 0);
    std::vector<std::thread::id> ids(chunks);
    parallel_for(chunks, [&](std::size_t i) {
      ++hits[i];
      ids[i] = std::this_thread::get_id();
    });
    for (std::size_t i = 0; i < chunks; ++i) EXPECT_EQ(hits[i], 1) << chunks;
    EXPECT_EQ(ids[0], std::this_thread::get_id());
    for (std::size_t i = 1; i < chunks; ++i) EXPECT_NE(ids[i], ids[0]);
  }
  EXPECT_THROW(parallel_for(0, [](std::size_t) {}), PreconditionError);
}

TEST(ParallelFor, JoinsAllThenRethrowsLowestChunkError) {
  std::atomic<int> finished{0};
  try {
    parallel_for(4, [&](std::size_t i) {
      if (i == 3) throw std::runtime_error("chunk 3");
      if (i == 1) throw std::logic_error("chunk 1");
      ++finished;
    });
    FAIL() << "expected the chunk error";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");
  }
  EXPECT_EQ(finished.load(), 2);  // chunks 0 and 2 ran to the end
}

#if defined(__linux__)
TEST(ParallelFor, PinsEachWorkerToItsOwnCpu) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  if (CPU_COUNT(&allowed) < 3) GTEST_SKIP() << "needs 3 or more CPUs";
  std::vector<int> pinned(3, -1);
  parallel_for(3, [&](std::size_t i) {
    if (i == 0) return;  // the caller keeps its own mask
    cpu_set_t mine;
    CPU_ZERO(&mine);
    ASSERT_EQ(sched_getaffinity(0, sizeof(mine), &mine), 0);
    ASSERT_EQ(CPU_COUNT(&mine), 1);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mine)) pinned[i] = c;
    }
  });
  EXPECT_NE(pinned[1], pinned[2]);
  EXPECT_TRUE(CPU_ISSET(pinned[1], &allowed) && CPU_ISSET(pinned[2], &allowed));
  cpu_set_t after;
  CPU_ZERO(&after);
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&after, &allowed)) << "the caller's mask is unchanged";
}
#endif

#if defined(__linux__)
TEST(ParallelFor, OneChunkOnASingleCpuMask) {
  // A pinned rank's workers would inherit its one-CPU mask and time-slice
  // that CPU, so a thread allowed one CPU gets one chunk, however large
  // the work.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  int first = 0;
  while (!CPU_ISSET(first, &allowed)) ++first;
  std::size_t chunks = 0;
  int pinned = -1;
  std::thread([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    pinned = pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    chunks = parallel_chunks(std::size_t{1} << 40, 1);
  }).join();
  ASSERT_EQ(pinned, 0);
  EXPECT_EQ(chunks, 1u);
}
#endif

#if defined(__x86_64__) || defined(__i386__)
TEST(ParallelFor, WorkersRunUnderCallersFpEnvironment) {
  // Pipeline-vs-StapChain exactness needs every chunk of a kernel to run
  // under the caller's FTZ/DAZ, whatever a new thread starts with. The
  // control bits are compared; the six sticky exception flags are not.
  constexpr unsigned kControl = ~0x3fu;
  const unsigned saved = _mm_getcsr();
  for (const unsigned csr : {saved | 0x8040u, saved & ~0x8040u}) {
    _mm_setcsr(csr);
    std::vector<unsigned> seen(4, 0);
    parallel_for(seen.size(), [&](std::size_t i) { seen[i] = _mm_getcsr(); });
    _mm_setcsr(saved);
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i] & kControl, csr & kControl) << "chunk " << i;
    }
  }
}
#endif

TEST(ParallelFor, ChunksPartitionInOrderAndSmallWorkStaysOnOne) {
  for (const std::size_t n : {0u, 1u, 5u, 64u, 1001u}) {
    for (const std::size_t chunks : {1u, 2u, 3u, 7u}) {
      std::size_t next = 0;
      for (std::size_t i = 0; i < chunks; ++i) {
        const ChunkRange r = chunk_range(n, chunks, i);
        EXPECT_EQ(r.begin, next);
        EXPECT_LE(r.end - r.begin, n / chunks + 1);
        next = r.end;
      }
      EXPECT_EQ(next, n);
    }
  }
  std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  cores = std::min<std::size_t>(cores, static_cast<std::size_t>(CPU_COUNT(&allowed)));
#endif
  EXPECT_EQ(parallel_chunks(0, 100), 1u);
  EXPECT_EQ(parallel_chunks(199, 100), 1u);
  EXPECT_EQ(parallel_chunks(200, 100), std::min<std::size_t>(2, cores));
  EXPECT_EQ(parallel_chunks(std::size_t{1} << 40, 1), cores);
}

// ----------------------------------------------------------------- table --

TEST(Table, RendersHeaderAndRows) {
  TablePrinter t("demo");
  t.set_header({"task", "time", "nodes"});
  t.add_row({"doppler", TableCell(1.2345, 3), 16});
  t.add_row({"cfar", TableCell(0.5, 3), 4});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("doppler"), std::string::npos);
  EXPECT_NE(s.find("1.234"), std::string::npos);  // precision 3 -> 1.234 or 1.235
  EXPECT_NE(s.find("16"), std::string::npos);
}

TEST(Table, SeparatorAddsRule) {
  TablePrinter t;
  t.set_header({"a"});
  t.add_row({"x"});
  t.add_separator();
  t.add_row({"y"});
  const std::string s = t.to_string();
  // rules: top, under header, separator, bottom = 4 lines starting with '+'
  int rules = 0;
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line)) rules += (!line.empty() && line[0] == '+');
  EXPECT_EQ(rules, 4);
}

TEST(Table, RaggedRowsPadToWidestRow) {
  TablePrinter t;
  t.set_header({"c1", "c2"});
  t.add_row({"only-one"});
  t.add_row({"a", "b", "c"});  // wider than the header
  EXPECT_NO_THROW(t.to_string());
  EXPECT_NE(t.to_string().find('c'), std::string::npos);
}

TEST(Table, IntegerCellsRenderWithoutDecimals) {
  TableCell c(42);
  EXPECT_EQ(c.render(), "42");
}

// ----------------------------------------------------------------- clock --

TEST(WallClock, MonotonicNonDecreasing) {
  const Seconds a = monotonic_now();
  const Seconds b = monotonic_now();
  EXPECT_GE(b, a);
}

TEST(WallClock, StopWatchAccumulates) {
  Seconds total = 0;
  {
    StopWatch sw(total);
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + 1.0;
  }
  EXPECT_GT(total, 0.0);
}

TEST(WallClock, TimerResets) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  const Seconds before = t.elapsed();
  t.reset();
  EXPECT_LE(t.elapsed(), before + 1.0);
}

}  // namespace
}  // namespace pstap
