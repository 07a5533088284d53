// Tests for the striped parallel file system: layout round-trips across
// stripe factors/units (parameterized), async vs sync read semantics,
// concurrent readers, persistence across mounts, throttling, error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "common/wall_clock.hpp"
#include "pfs/striped_file_system.hpp"

namespace pstap::pfs {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("pstap_pfs_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_u64() & 0xFF);
  return v;
}

PfsConfig small_cfg(std::size_t factor, std::size_t unit) {
  PfsConfig cfg;
  cfg.name = "test";
  cfg.stripe_factor = factor;
  cfg.stripe_unit = unit;
  return cfg;
}

// ----------------------------------------------------------------- setup --

TEST(Pfs, MountCreatesStripeDirectories) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(4, 256));
  EXPECT_TRUE(fs::is_directory(tmp.path() / "sd000"));
  EXPECT_TRUE(fs::is_directory(tmp.path() / "sd003"));
  EXPECT_FALSE(fs::exists(tmp.path() / "sd004"));
  // Wider stripe factors keep the "sd%03zu" names of earlier layouts.
  EXPECT_EQ(stripe_dir_name(42), "sd042");
  EXPECT_EQ(stripe_dir_name(1000), "sd1000");
}

TEST(Pfs, PresetsMatchPaperSystems) {
  const auto paragon = paragon_pfs(64);
  EXPECT_EQ(paragon.stripe_factor, 64u);
  EXPECT_EQ(paragon.stripe_unit, 64 * KiB);
  EXPECT_TRUE(paragon.supports_async);

  const auto sp = piofs();
  EXPECT_FALSE(sp.supports_async);
  EXPECT_EQ(sp.stripe_unit, 64 * KiB);
}

TEST(Pfs, RejectsDegenerateConfig) {
  TempDir tmp;
  EXPECT_THROW(StripedFileSystem(tmp.path(), small_cfg(0, 64)), PreconditionError);
  EXPECT_THROW(StripedFileSystem(tmp.path(), small_cfg(4, 0)), PreconditionError);
}

// ------------------------------------------------------------ round trip --

struct LayoutParam {
  std::size_t factor;
  std::size_t unit;
  std::size_t file_size;
};

class PfsLayout : public ::testing::TestWithParam<LayoutParam> {};

TEST_P(PfsLayout, WholeFileRoundTrip) {
  const auto p = GetParam();
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(p.factor, p.unit));
  const auto data = pattern_bytes(p.file_size, p.factor * 1000 + p.unit);
  pfs.write_file("cube", data);
  EXPECT_EQ(pfs.file_size("cube"), p.file_size);
  EXPECT_EQ(pfs.read_file("cube"), data);
}

TEST_P(PfsLayout, RandomOffsetReadsMatch) {
  const auto p = GetParam();
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(p.factor, p.unit));
  const auto data = pattern_bytes(p.file_size, 42);
  pfs.write_file("cube", data);
  StripedFile f = pfs.open("cube");
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t off = rng.uniform_index(p.file_size);
    const std::size_t len =
        1 + static_cast<std::size_t>(rng.uniform_index(p.file_size - off));
    std::vector<std::byte> out(len);
    f.read(off, out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + off))
        << "offset " << off << " len " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, PfsLayout,
    ::testing::Values(LayoutParam{1, 64, 1000},       // single directory
                      LayoutParam{2, 64, 64},          // exactly one unit
                      LayoutParam{4, 64, 63},          // less than a unit
                      LayoutParam{4, 64, 4 * 64},      // one unit per directory
                      LayoutParam{4, 64, 1037},        // odd size
                      LayoutParam{8, 128, 128 * 33},   // many rounds
                      LayoutParam{16, 4096, 70000},    // bigger units
                      LayoutParam{3, 100, 10240}));    // non-pow2 everything

// -------------------------------------------------------------- striping --

TEST(Pfs, SegmentsReceiveRoundRobinUnits) {
  TempDir tmp;
  const std::size_t unit = 100, factor = 4;
  StripedFileSystem pfs(tmp.path(), small_cfg(factor, unit));
  // 10 full units + 30 bytes tail -> units 0..10 land on dirs 0,1,2,3,0,...
  const std::size_t total = 10 * unit + 30;
  pfs.write_file("f", pattern_bytes(total, 1));
  // dirs 0,1,2 hold 3 units each? units per dir: dir d gets units {d, d+4, d+8}
  // unit 10 (tail, 30 bytes) -> dir 2. Expected segment sizes:
  //   dir0: units 0,4,8          -> 300
  //   dir1: units 1,5,9          -> 300
  //   dir2: units 2,6 + tail(10) -> 200 + 30 = 230
  //   dir3: units 3,7            -> 200
  EXPECT_EQ(fs::file_size(tmp.path() / "sd000" / "f.seg"), 300u);
  EXPECT_EQ(fs::file_size(tmp.path() / "sd001" / "f.seg"), 300u);
  EXPECT_EQ(fs::file_size(tmp.path() / "sd002" / "f.seg"), 230u);
  EXPECT_EQ(fs::file_size(tmp.path() / "sd003" / "f.seg"), 200u);
}

TEST(Pfs, BytesServicedCountsTraffic) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(2, 64));
  pfs.write_file("f", pattern_bytes(1000, 3));
  const auto after_write = pfs.engine().stats().bytes_serviced;
  EXPECT_GE(after_write, 1000u);
  (void)pfs.read_file("f");
  EXPECT_GE(pfs.engine().stats().bytes_serviced, after_write + 1000u);
}

// ------------------------------------------------------------- lifecycle --

TEST(Pfs, ExistsListRemove) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(2, 64));
  EXPECT_FALSE(pfs.exists("a"));
  pfs.write_file("a", pattern_bytes(10, 1));
  pfs.write_file("b", pattern_bytes(20, 2));
  EXPECT_TRUE(pfs.exists("a"));
  EXPECT_EQ(pfs.list_files(), (std::vector<std::string>{"a", "b"}));
  pfs.remove("a");
  EXPECT_FALSE(pfs.exists("a"));
  EXPECT_EQ(pfs.list_files(), (std::vector<std::string>{"b"}));
  EXPECT_THROW(pfs.remove("a"), PreconditionError);
}

TEST(Pfs, CreateTruncatesExisting) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(2, 64));
  pfs.write_file("f", pattern_bytes(500, 1));
  StripedFile f = pfs.create("f");
  EXPECT_EQ(f.size(), 0u);
  const auto fresh = pattern_bytes(100, 2);
  f.write(0, fresh);
  EXPECT_EQ(pfs.read_file("f"), fresh);
}

TEST(Pfs, MetadataPersistsAcrossRemounts) {
  TempDir tmp;
  const auto data = pattern_bytes(777, 9);
  {
    StripedFileSystem pfs(tmp.path(), small_cfg(4, 64));
    pfs.write_file("persist", data);
  }
  StripedFileSystem pfs(tmp.path(), small_cfg(4, 64));
  EXPECT_TRUE(pfs.exists("persist"));
  EXPECT_EQ(pfs.file_size("persist"), 777u);
  EXPECT_EQ(pfs.read_file("persist"), data);
}

TEST(Pfs, RemountWithDifferentLayoutThrows) {
  TempDir tmp;
  { StripedFileSystem pfs(tmp.path(), small_cfg(4, 64)); }
  EXPECT_THROW(StripedFileSystem(tmp.path(), small_cfg(8, 64)), PreconditionError);
  EXPECT_THROW(StripedFileSystem(tmp.path(), small_cfg(4, 128)), PreconditionError);
  // Same layout with different service parameters is fine.
  auto cfg = small_cfg(4, 64);
  cfg.supports_async = false;
  cfg.server_bandwidth = 1e6;
  EXPECT_NO_THROW(StripedFileSystem(tmp.path(), cfg));
}

TEST(Pfs, CorruptSuperblockIsRejected) {
  TempDir tmp;
  { StripedFileSystem pfs(tmp.path(), small_cfg(2, 64)); }
  {
    std::ofstream out(tmp.path() / ".pfs_superblock", std::ios::trunc);
    out << "not numbers";
  }
  EXPECT_THROW(StripedFileSystem(tmp.path(), small_cfg(2, 64)), IoError);
}

TEST(Pfs, OpenMissingFileThrows) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(2, 64));
  EXPECT_THROW(pfs.open("nope"), PreconditionError);
  EXPECT_THROW(pfs.file_size("nope"), PreconditionError);
}

TEST(Pfs, RejectsPathyNames) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(2, 64));
  EXPECT_THROW(pfs.open("a/b"), PreconditionError);
  EXPECT_THROW(pfs.open(""), PreconditionError);
  EXPECT_THROW(pfs.open("../escape"), PreconditionError);
}

TEST(Pfs, ReadPastEofThrows) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(2, 64));
  pfs.write_file("f", pattern_bytes(100, 1));
  StripedFile f = pfs.open("f");
  std::vector<std::byte> buf(50);
  EXPECT_THROW(f.read(60, buf), PreconditionError);
  EXPECT_THROW((void)f.iread(101, std::span<std::byte>(buf).first(1)), PreconditionError);
  EXPECT_NO_THROW(f.read(50, buf));
}

// -------------------------------------------------------- sparse / writes --

TEST(Pfs, WriteAtOffsetExtendsLogicalSize) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(4, 64));
  StripedFile f = pfs.create("f");
  const auto chunk = pattern_bytes(64, 5);
  f.write(256, chunk);
  EXPECT_EQ(f.size(), 320u);
  std::vector<std::byte> out(64);
  f.read(256, out);
  EXPECT_EQ(out, chunk);
}

TEST(Pfs, InterleavedWritersAtExclusiveOffsets) {
  // The paper's radar writes 4 files round-robin while readers consume
  // exclusive portions — model concurrent exclusive-region writers.
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(4, 64));
  StripedFile f = pfs.create("f");
  const std::size_t region = 1000;
  const int writers = 4;
  std::vector<std::vector<std::byte>> payloads;
  for (int w = 0; w < writers; ++w) payloads.push_back(pattern_bytes(region, 100 + w));
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] { f.write(w * region, payloads[w]); });
    }
  }
  for (int w = 0; w < writers; ++w) {
    std::vector<std::byte> out(region);
    f.read(w * region, out);
    EXPECT_EQ(out, payloads[w]) << "writer " << w;
  }
}

// ------------------------------------------------------------ async reads --

TEST(Pfs, IreadDeliversSameBytesAsRead) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(4, 64));
  const auto data = pattern_bytes(5000, 11);
  pfs.write_file("f", data);
  StripedFile f = pfs.open("f");
  std::vector<std::byte> sync_buf(3000), async_buf(3000);
  f.read(1000, sync_buf);
  IoRequest req = f.iread(1000, async_buf);
  req.wait();
  EXPECT_EQ(sync_buf, async_buf);
}

TEST(Pfs, IreadOnSyncOnlyFsIsAlreadyDone) {
  TempDir tmp;
  auto cfg = small_cfg(4, 64);
  cfg.supports_async = false;  // PIOFS semantics
  StripedFileSystem pfs(tmp.path(), cfg);
  pfs.write_file("f", pattern_bytes(2000, 12));
  StripedFile f = pfs.open("f");
  std::vector<std::byte> buf(2000);
  IoRequest req = f.iread(0, buf);
  EXPECT_TRUE(req.done());  // no overlap possible: completed synchronously
  req.wait();
}

TEST(Pfs, ManyOutstandingIreads) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(4, 64));
  const auto data = pattern_bytes(8192, 13);
  pfs.write_file("f", data);
  StripedFile f = pfs.open("f");
  constexpr int kReqs = 16;
  std::vector<std::vector<std::byte>> bufs(kReqs, std::vector<std::byte>(512));
  std::vector<IoRequest> reqs;
  reqs.reserve(kReqs);
  for (int i = 0; i < kReqs; ++i) {
    reqs.push_back(f.iread(static_cast<std::uint64_t>(i) * 512, bufs[i]));
  }
  for (auto& r : reqs) r.wait();
  for (int i = 0; i < kReqs; ++i) {
    EXPECT_TRUE(std::equal(bufs[i].begin(), bufs[i].end(), data.begin() + i * 512));
  }
}

// IoRequest lifecycle regressions: wait() must be safe to call twice, on a
// moved-from handle, and on a default-constructed one (it releases the
// shared state on first return and becomes a no-op).
TEST(Pfs, IoRequestWaitIsIdempotent) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(4, 64));
  const auto data = pattern_bytes(2048, 14);
  pfs.write_file("f", data);
  StripedFile f = pfs.open("f");
  std::vector<std::byte> buf(2048);
  IoRequest req = f.iread(0, buf);
  req.wait();
  EXPECT_NO_THROW(req.wait());  // second consuming wait is a no-op
  EXPECT_TRUE(req.done());
  EXPECT_EQ(req.failed_chunks(), 0u);
  EXPECT_EQ(buf, data);
}

TEST(Pfs, IoRequestWaitAfterMoveIsSafe) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(4, 64));
  const auto data = pattern_bytes(1024, 15);
  pfs.write_file("f", data);
  StripedFile f = pfs.open("f");
  std::vector<std::byte> buf(1024);
  IoRequest req = f.iread(0, buf);
  IoRequest moved = std::move(req);
  EXPECT_NO_THROW(req.wait());  // moved-from: empty handle, no-op
  EXPECT_TRUE(req.done());
  moved.wait();
  EXPECT_NO_THROW(moved.wait());
  EXPECT_EQ(buf, data);
}

TEST(Pfs, DefaultConstructedIoRequestIsDone) {
  IoRequest req;
  EXPECT_TRUE(req.done());
  EXPECT_TRUE(req.wait_for(0.0));
  EXPECT_NO_THROW(req.wait());
  EXPECT_EQ(req.failed_chunks(), 0u);
}

// Dropping a pending request, or assigning over one, drains it before the
// handle lets go, so the buffer it reads into may be freed right after.
TEST(Pfs, DroppedIoRequestDrainsBeforeItsBufferIsFreed) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(4, 64));
  const auto data = pattern_bytes(1024, 17);
  pfs.write_file("f", data);
  StripedFile f = pfs.open("f");
  auto plan = std::make_shared<fault::FaultPlan>(19);
  plan->arm_delay("pfs.server.read", 1.0, 5e-3, 10e-3);
  fault::FaultScope scope(plan);
  const std::uint64_t before = pfs.engine().stats().bytes_serviced;
  {
    std::vector<std::byte> first(512), second(512);
    IoRequest req = f.iread(0, first);
    req = f.iread(512, second);  // drains the first request
    EXPECT_GE(pfs.engine().stats().bytes_serviced - before, 512u);
  }  // drains the second
  EXPECT_EQ(pfs.engine().stats().bytes_serviced - before, 1024u);
}

TEST(Pfs, WaitWithTimeoutZeroMeansUnbounded) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(4, 64));
  const auto data = pattern_bytes(4096, 16);
  pfs.write_file("f", data);
  StripedFile f = pfs.open("f");
  std::vector<std::byte> buf(4096);
  IoRequest req = f.iread(0, buf);
  EXPECT_NO_THROW(wait_with_timeout(req, 0.0, "read"));
  EXPECT_EQ(buf, data);
  // Generous (non-firing) timeout on an already-consumed request: no-op.
  EXPECT_NO_THROW(wait_with_timeout(req, 10.0, "read"));
}

TEST(Pfs, EmptyReadIsNoop) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(2, 64));
  pfs.write_file("f", pattern_bytes(10, 1));
  StripedFile f = pfs.open("f");
  std::vector<std::byte> empty;
  EXPECT_NO_THROW(f.read(5, empty));
  IoRequest req = f.iread(5, empty);
  EXPECT_TRUE(req.done());
}

TEST(Pfs, ConcurrentExclusiveReaders) {
  // Every node of the first pipeline task reads its exclusive file portion
  // concurrently — the paper's access pattern.
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(8, 64));
  const std::size_t total = 64 * KiB;
  const auto data = pattern_bytes(total, 17);
  pfs.write_file("cpi", data);
  const int readers = 8;
  const std::size_t share = total / readers;
  std::vector<int> failures(readers, 0);
  {
    std::vector<std::jthread> threads;
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        StripedFile f = pfs.open("cpi");
        std::vector<std::byte> buf(share);
        f.read(r * share, buf);
        failures[r] = std::equal(buf.begin(), buf.end(), data.begin() + r * share) ? 0 : 1;
      });
    }
  }
  for (int r = 0; r < readers; ++r) EXPECT_EQ(failures[r], 0) << "reader " << r;
}

// ------------------------------------------------------------- throttling --

TEST(Pfs, ThrottleEnforcesBandwidthFloor) {
  TempDir tmp;
  auto cfg = small_cfg(2, 1024);
  cfg.server_bandwidth = 1.0 * MiB;  // per server
  StripedFileSystem pfs(tmp.path(), cfg);
  const std::size_t n = 256 * KiB;  // 128 KiB per server at 1 MiB/s each
  pfs.write_file("f", pattern_bytes(n, 19));
  StripedFile f = pfs.open("f");
  std::vector<std::byte> buf(n);
  Timer t;
  f.read(0, buf);
  // Ideal: 0.125 s; allow generous scheduling slack but require a clear floor.
  EXPECT_GE(t.elapsed(), 0.08);
}

TEST(Pfs, LargerStripeFactorServicesFaster) {
  // The paper's core I/O mechanism: the same read spread over more stripe
  // directories completes sooner when each server has finite bandwidth.
  const std::size_t n = 512 * KiB;
  const auto data = pattern_bytes(n, 23);
  auto timed_read = [&](std::size_t factor) {
    TempDir tmp;
    auto cfg = small_cfg(factor, 64 * KiB);
    cfg.server_bandwidth = 4.0 * MiB;
    StripedFileSystem pfs(tmp.path(), cfg);
    pfs.write_file("f", data);
    StripedFile f = pfs.open("f");
    std::vector<std::byte> buf(n);
    Timer t;
    f.read(0, buf);
    return t.elapsed();
  };
  const double slow = timed_read(1);
  const double fast = timed_read(8);
  EXPECT_LT(fast * 2.0, slow);  // at least 2x speedup from 8x striping
}

}  // namespace
}  // namespace pstap::pfs
