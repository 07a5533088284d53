// Tests for the strided-I/O extensions: gather reads on the striped file
// system, pulse-major CPI file layout, the two-phase collective read, and
// the ThreadRunner paths that use them — all must agree bit-for-bit with
// the range-major direct path.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mp/world.hpp"
#include "pipeline/collective_read.hpp"
#include "pipeline/partition.hpp"
#include "pipeline/thread_runner.hpp"
#include "stap/cube_io.hpp"
#include "stap/scene.hpp"

namespace pstap {
namespace {

namespace fsys = std::filesystem;

class TempRoot {
 public:
  TempRoot() {
    static std::atomic<int> counter{0};
    path_ = fsys::temp_directory_path() /
            ("pstap_cio_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
  }
  ~TempRoot() {
    std::error_code ec;
    fsys::remove_all(path_, ec);
  }
  const fsys::path& path() const { return path_; }

 private:
  fsys::path path_;
};

// ------------------------------------------------------------ gather read --

TEST(GatherRead, SegmentsDeliverSameBytesAsSeparateReads) {
  TempRoot tmp;
  pfs::StripedFileSystem fs(tmp.path(), pfs::paragon_pfs(4));
  Rng rng(1);
  std::vector<std::byte> data(10000);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_u64());
  fs.write_file("f", data);
  pfs::StripedFile f = fs.open("f");

  std::vector<std::byte> g1(100), g2(333), g3(1);
  std::vector<pfs::StripedFile::IoSegment> segs{
      {5000, g1}, {123, g2}, {9999, g3}};
  pfs::IoRequest req = f.iread_gather(segs);
  req.wait();
  EXPECT_TRUE(std::equal(g1.begin(), g1.end(), data.begin() + 5000));
  EXPECT_TRUE(std::equal(g2.begin(), g2.end(), data.begin() + 123));
  EXPECT_EQ(g3[0], data[9999]);
}

TEST(GatherRead, RejectsSegmentPastEof) {
  TempRoot tmp;
  pfs::StripedFileSystem fs(tmp.path(), pfs::paragon_pfs(2));
  fs.write_file("f", std::vector<std::byte>(100));
  pfs::StripedFile f = fs.open("f");
  std::vector<std::byte> buf(10);
  std::vector<pfs::StripedFile::IoSegment> segs{{95, buf}};
  EXPECT_THROW((void)f.iread_gather(segs), PreconditionError);
}

TEST(GatherRead, EmptySegmentListIsDone) {
  TempRoot tmp;
  pfs::StripedFileSystem fs(tmp.path(), pfs::paragon_pfs(2));
  fs.write_file("f", std::vector<std::byte>(16));
  pfs::StripedFile f = fs.open("f");
  pfs::IoRequest req = f.iread_gather({});
  EXPECT_TRUE(req.done());
}

TEST(GatherRead, SyncOnlyFsCompletesInline) {
  TempRoot tmp;
  pfs::StripedFileSystem fs(tmp.path(), pfs::piofs(2));
  std::vector<std::byte> data(4096);
  fs.write_file("f", data);
  pfs::StripedFile f = fs.open("f");
  std::vector<std::byte> buf(512);
  std::vector<pfs::StripedFile::IoSegment> segs{{0, buf}};
  pfs::IoRequest req = f.iread_gather(segs);
  EXPECT_TRUE(req.done());
}

// ------------------------------------------------------ pulse-major layout --

class LayoutTest : public ::testing::Test {
 protected:
  const stap::RadarParams params = stap::RadarParams::test_small();
  TempRoot tmp;
};

TEST_F(LayoutTest, PulseMajorWholeFileRoundTrip) {
  pfs::StripedFileSystem fs(tmp.path(), pfs::paragon_pfs(4));
  stap::SceneGenerator gen(params, stap::SceneConfig{}, 11);
  const stap::DataCube cube = gen.generate(0);
  stap::write_cpi(fs, "pm", cube, stap::FileLayout::kPulseMajor);
  pfs::StripedFile f = fs.open("pm");
  const stap::DataCube back =
      stap::read_cpi_slab(f, params, 0, params.ranges, stap::FileLayout::kPulseMajor);
  EXPECT_TRUE(std::equal(cube.flat().begin(), cube.flat().end(), back.flat().begin()));
}

TEST_F(LayoutTest, PulseMajorSlabEqualsRangeMajorSlab) {
  pfs::StripedFileSystem fs(tmp.path(), pfs::paragon_pfs(4));
  stap::SceneGenerator gen(params, stap::SceneConfig{}, 12);
  const stap::DataCube cube = gen.generate(0);
  stap::write_cpi(fs, "rm", cube, stap::FileLayout::kRangeMajor);
  stap::write_cpi(fs, "pm", cube, stap::FileLayout::kPulseMajor);
  pfs::StripedFile frm = fs.open("rm");
  pfs::StripedFile fpm = fs.open("pm");
  const std::size_t r0 = 17, r1 = 93;
  const auto a = stap::read_cpi_slab(frm, params, r0, r1);
  const auto b =
      stap::read_cpi_slab(fpm, params, r0, r1, stap::FileLayout::kPulseMajor);
  EXPECT_TRUE(std::equal(a.flat().begin(), a.flat().end(), b.flat().begin()));
}

TEST_F(LayoutTest, BothLayoutsHaveSameFileSize) {
  pfs::StripedFileSystem fs(tmp.path(), pfs::paragon_pfs(4));
  stap::SceneGenerator gen(params, stap::SceneConfig{}, 13);
  const stap::DataCube cube = gen.generate(0);
  stap::write_cpi(fs, "rm", cube, stap::FileLayout::kRangeMajor);
  stap::write_cpi(fs, "pm", cube, stap::FileLayout::kPulseMajor);
  EXPECT_EQ(fs.file_size("rm"), fs.file_size("pm"));
  EXPECT_EQ(fs.file_size("rm"), stap::cpi_file_bytes(params));
}

// -------------------------------------------------------- collective read --

class CollectiveReadTest : public ::testing::TestWithParam<int> {
 protected:
  // Every rank's collective slab must equal, byte for byte, the raw slab a
  // gather read of the same window fills (start_read_cpi_slab, pulse-major)
  // — the buffer DopplerFilter::process_into takes from either path. An
  // empty window reads nothing either way.
  static void expect_matches_gather_read(const stap::RadarParams& params,
                                         int nranks, std::uint64_t seed) {
    TempRoot tmp;
    pfs::StripedFileSystem fs(tmp.path(), pfs::paragon_pfs(4));
    stap::SceneGenerator gen(params, stap::SceneConfig{}, seed);
    stap::write_cpi(fs, "pm", gen.generate(0), stap::FileLayout::kPulseMajor);

    std::vector<int> failures(static_cast<std::size_t>(nranks), -1);
    mp::World world(nranks);
    world.run([&](mp::Comm& comm) {
      pfs::StripedFile file = fs.open("pm");
      const auto [r0, r1] = pipeline::doppler_range_window(
          params.ranges, static_cast<std::size_t>(comm.size()),
          static_cast<std::size_t>(comm.rank()));
      const std::size_t n = stap::slab_elements(params, r0, r1);
      std::vector<cfloat> mine(n), direct(n);
      pipeline::collective_read_slab(comm, file, params, mine);
      if (r0 < r1) {
        stap::start_read_cpi_slab(file, params, r0, r1, direct,
                                  stap::FileLayout::kPulseMajor)
            .wait();
      }
      // memcmp, not ==: the bytes must match, and an empty window's
      // vectors have null data(), which memcmp may not be passed.
      failures[static_cast<std::size_t>(comm.rank())] =
          n != 0 && std::memcmp(mine.data(), direct.data(), n * sizeof(cfloat)) != 0;
    });
    for (int r = 0; r < nranks; ++r) {
      EXPECT_EQ(failures[static_cast<std::size_t>(r)], 0) << "rank " << r;
    }
  }
};

TEST_P(CollectiveReadTest, MatchesDirectStridedRead) {
  expect_matches_gather_read(stap::RadarParams::test_small(), GetParam(), 31);
}

TEST_P(CollectiveReadTest, OddRangeCountMatchesGatherRead) {
  // 100 gates: the last 32-gate block is 4 wide, so one window ends off a
  // block boundary and rows are not a multiple of the block.
  auto params = stap::RadarParams::test_small();
  params.ranges = 100;
  params.validate();
  expect_matches_gather_read(params, GetParam(), 32);
}

TEST(CollectiveRead, RejectsWrongSlabSize) {
  const auto params = stap::RadarParams::test_small();
  TempRoot tmp;
  pfs::StripedFileSystem fs(tmp.path(), pfs::paragon_pfs(2));
  stap::SceneGenerator gen(params, stap::SceneConfig{}, 33);
  stap::write_cpi(fs, "pm", gen.generate(0), stap::FileLayout::kPulseMajor);
  mp::World world(1);
  world.run([&](mp::Comm& comm) {
    pfs::StripedFile file = fs.open("pm");
    std::vector<cfloat> short_slab(params.cube_samples() - 1);
    EXPECT_THROW(pipeline::collective_read_slab(comm, file, params, short_slab),
                 PreconditionError);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollectiveReadTest, ::testing::Values(1, 2, 3, 4, 7));

// --------------------------------------------------- pipeline integration --

class PipelineLayoutTest : public ::testing::Test {
 protected:
  pipeline::RunOptions options(const fsys::path& root) const {
    pipeline::RunOptions opt;
    opt.cpis = 3;
    opt.warmup = 1;
    opt.seed = 77;
    opt.fs_root = root;
    opt.scene.cnr_db = 40.0;
    opt.scene.targets = {{40, 8.0, 0.0, 18.0}, {90, 1.0, -0.35, 25.0}};
    return opt;
  }
  using DetKey = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t, std::uint32_t>;
  static std::set<DetKey> keys(const std::vector<stap::Detection>& dets) {
    std::set<DetKey> out;
    for (const auto& d : dets) out.insert({d.cpi, d.bin, d.beam, d.range});
    return out;
  }
  TempRoot tmp_a, tmp_b, tmp_c;
};

TEST_F(PipelineLayoutTest, PulseMajorDirectAndCollectiveMatchRangeMajor) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {2, 1, 1, 1, 1, 1, 1});

  pipeline::ThreadRunner baseline(spec, options(tmp_a.path()));
  const auto base = baseline.run();

  auto opt_pm = options(tmp_b.path());
  opt_pm.file_layout = stap::FileLayout::kPulseMajor;
  pipeline::ThreadRunner direct(spec, opt_pm);
  const auto strided = direct.run();

  auto opt_cio = options(tmp_c.path());
  opt_cio.file_layout = stap::FileLayout::kPulseMajor;
  opt_cio.collective_io = true;
  pipeline::ThreadRunner collective(spec, opt_cio);
  const auto twophase = collective.run();

  EXPECT_EQ(keys(base.detections), keys(strided.detections));
  EXPECT_EQ(keys(base.detections), keys(twophase.detections));
  EXPECT_FALSE(base.detections.empty());
}

TEST_F(PipelineLayoutTest, ThreeDopplerNodeCollectiveMatchesRangeMajor) {
  // test_small's 4 range blocks split 2/1/1: every Doppler node's window,
  // and so every collective message, has its own width.
  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {3, 1, 1, 1, 1, 1, 1});

  pipeline::ThreadRunner baseline(spec, options(tmp_a.path()));
  const auto base = baseline.run();

  auto opt_cio = options(tmp_b.path());
  opt_cio.file_layout = stap::FileLayout::kPulseMajor;
  opt_cio.collective_io = true;
  pipeline::ThreadRunner collective(spec, opt_cio);
  const auto twophase = collective.run();

  EXPECT_EQ(keys(base.detections), keys(twophase.detections));
  EXPECT_FALSE(base.detections.empty());
  EXPECT_TRUE(twophase.dropped_cpis.empty());
}

TEST_F(PipelineLayoutTest, RejectsUnsupportedCombinations) {
  const auto p = stap::RadarParams::test_small();
  auto opt = options(tmp_a.path());
  opt.file_layout = stap::FileLayout::kPulseMajor;
  const auto separate = pipeline::PipelineSpec::separate_io(p, {1, 2, 1, 1, 1, 1, 1, 1});
  EXPECT_THROW(pipeline::ThreadRunner(separate, opt), PreconditionError);

  auto opt2 = options(tmp_b.path());
  opt2.collective_io = true;  // without pulse-major layout
  const auto embedded = pipeline::PipelineSpec::embedded_io(p, {2, 1, 1, 1, 1, 1, 1});
  EXPECT_THROW(pipeline::ThreadRunner(embedded, opt2), PreconditionError);
}

}  // namespace
}  // namespace pstap
