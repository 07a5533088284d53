// Tests for the pipeline layer: block partitioning, spec builders and
// validation, the paper's throughput/latency equations, proportional node
// assignment, and ThreadRunner integration — all three pipeline
// organizations must produce exactly the detections of a sequential
// reference implementation.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "pipeline/metrics.hpp"
#include "pipeline/partition.hpp"
#include "pipeline/task_spec.hpp"
#include "pipeline/thread_runner.hpp"
#include "stap/detection_log.hpp"
#include "stap/beamform.hpp"
#include "stap/cfar.hpp"
#include "stap/chain.hpp"
#include "stap/doppler.hpp"
#include "stap/pulse_compress.hpp"
#include "stap/weights.hpp"

namespace pstap::pipeline {
namespace {

namespace fs = std::filesystem;

// --------------------------------------------------------- BlockPartition --

class PartitionCases
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(PartitionCases, ChunksTileTheIndexSpace) {
  const auto [count, parts] = GetParam();
  const BlockPartition part(count, parts);
  std::size_t covered = 0;
  for (std::size_t pt = 0; pt < parts; ++pt) {
    EXPECT_EQ(part.begin(pt), covered);
    covered += part.size(pt);
    EXPECT_EQ(part.end(pt), covered);
  }
  EXPECT_EQ(covered, count);
}

TEST_P(PartitionCases, OwnerAgreesWithBounds) {
  const auto [count, parts] = GetParam();
  const BlockPartition part(count, parts);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t o = part.owner(i);
    EXPECT_GE(i, part.begin(o)) << "element " << i;
    EXPECT_LT(i, part.end(o)) << "element " << i;
  }
}

TEST_P(PartitionCases, SizesDifferByAtMostOne) {
  const auto [count, parts] = GetParam();
  const BlockPartition part(count, parts);
  std::size_t lo = SIZE_MAX, hi = 0;
  for (std::size_t pt = 0; pt < parts; ++pt) {
    lo = std::min(lo, part.size(pt));
    hi = std::max(hi, part.size(pt));
  }
  EXPECT_LE(hi - lo, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionCases,
    ::testing::Values(std::pair<std::size_t, std::size_t>{10, 1},
                      std::pair<std::size_t, std::size_t>{10, 3},
                      std::pair<std::size_t, std::size_t>{12, 4},
                      std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{5, 8},   // parts > count
                      std::pair<std::size_t, std::size_t>{0, 3},   // empty space
                      std::pair<std::size_t, std::size_t>{1024, 7}));

TEST(Partition, ErrorsOnBadArguments) {
  EXPECT_THROW(BlockPartition(4, 0), PreconditionError);
  const BlockPartition part(4, 2);
  EXPECT_THROW(part.begin(2), PreconditionError);
  EXPECT_THROW(part.owner(4), PreconditionError);
}

// The Doppler task's range windows tile the gates in runs of whole filter
// blocks, for ragged gate counts and for more nodes than blocks (the extra
// windows are empty); blocks spread over the nonempty windows as evenly as
// BlockPartition spreads them.
TEST(Partition, DopplerRangeWindowsTileTheGatesOnBlockBoundaries) {
  constexpr std::size_t kBlock = stap::DopplerFilter::kRangesPerBlock;
  ASSERT_EQ(kBlock, 32u);
  const std::pair<std::size_t, std::size_t> cases[] = {
      {128, 1}, {128, 3}, {128, 5}, {1024, 3}, {1024, 11},
      {1000, 7}, {45, 3},  {100, 2}, {1, 4},    {3136, 2}};
  for (const auto& [ranges, nodes] : cases) {
    SCOPED_TRACE(std::to_string(ranges) + " gates, " + std::to_string(nodes) + " nodes");
    const std::size_t blocks = (ranges + kBlock - 1) / kBlock;
    std::size_t next = 0, nonempty = 0, lo_blocks = SIZE_MAX, hi_blocks = 0;
    for (std::size_t d = 0; d < nodes; ++d) {
      const RangeWindow w = doppler_range_window(ranges, nodes, d);
      EXPECT_EQ(w.lo, next) << "node " << d;
      EXPECT_LE(w.lo, w.hi) << "node " << d;
      next = w.hi;
      if (w.size() == 0) continue;
      ++nonempty;
      EXPECT_EQ(w.lo % kBlock, 0u) << "node " << d;
      EXPECT_TRUE(w.hi % kBlock == 0 || w.hi == ranges) << "node " << d;
      const std::size_t n_blocks = (w.size() + kBlock - 1) / kBlock;
      lo_blocks = std::min(lo_blocks, n_blocks);
      hi_blocks = std::max(hi_blocks, n_blocks);
    }
    EXPECT_EQ(next, ranges);
    EXPECT_EQ(nonempty, std::min(nodes, blocks));
    EXPECT_LE(hi_blocks - lo_blocks, 1u);
  }
  // The paper geometry's three windows, and test_small's.
  EXPECT_EQ(doppler_range_window(1024, 3, 0).size(), 352u);
  EXPECT_EQ(doppler_range_window(1024, 3, 1).size(), 352u);
  EXPECT_EQ(doppler_range_window(1024, 3, 2).size(), 320u);
  EXPECT_EQ(doppler_range_window(128, 3, 1).lo, 64u);
  EXPECT_EQ(doppler_range_window(128, 3, 2).lo, 96u);
}

// -------------------------------------------------------------- task spec --

TEST(TaskSpecTest, NamesAndTemporality) {
  EXPECT_STREQ(task_name(TaskKind::kDoppler), "Doppler filter");
  EXPECT_STREQ(task_name(TaskKind::kPulseCompressionCfar), "PC + CFAR");
  EXPECT_TRUE(is_temporal_task(TaskKind::kWeightsEasy));
  EXPECT_TRUE(is_temporal_task(TaskKind::kWeightsHard));
  EXPECT_FALSE(is_temporal_task(TaskKind::kDoppler));
  EXPECT_FALSE(is_temporal_task(TaskKind::kCfar));
}

TEST(TaskSpecTest, EmbeddedBuilderProducesSevenTasks) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = PipelineSpec::embedded_io(p, {2, 1, 1, 1, 1, 1, 1});
  EXPECT_EQ(spec.tasks.size(), 7u);
  EXPECT_EQ(spec.tasks.front().kind, TaskKind::kDoppler);
  EXPECT_EQ(spec.tasks.back().kind, TaskKind::kCfar);
  EXPECT_EQ(spec.total_nodes(), 8);
  EXPECT_EQ(spec.find(TaskKind::kParallelRead), -1);
}

TEST(TaskSpecTest, SeparateBuilderPrependsReadTask) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = PipelineSpec::separate_io(p, {1, 2, 1, 1, 1, 1, 1, 1});
  EXPECT_EQ(spec.tasks.size(), 8u);
  EXPECT_EQ(spec.tasks.front().kind, TaskKind::kParallelRead);
  EXPECT_EQ(spec.find(TaskKind::kParallelRead), 0);
}

TEST(TaskSpecTest, CombinedBuilderMergesTail) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = PipelineSpec::combined(p, {2, 1, 1, 1, 1, 2});
  EXPECT_EQ(spec.tasks.size(), 6u);
  EXPECT_EQ(spec.tasks.back().kind, TaskKind::kPulseCompressionCfar);
  EXPECT_EQ(spec.find(TaskKind::kPulseCompression), -1);
  EXPECT_EQ(spec.find(TaskKind::kCfar), -1);
}

TEST(TaskSpecTest, BuildersRejectWrongArity) {
  const auto p = stap::RadarParams::test_small();
  EXPECT_THROW(PipelineSpec::embedded_io(p, {1, 1, 1}), PreconditionError);
  EXPECT_THROW(PipelineSpec::separate_io(p, {1, 1, 1, 1, 1, 1, 1}), PreconditionError);
  EXPECT_THROW(PipelineSpec::combined(p, {1, 1, 1, 1, 1, 1, 1}), PreconditionError);
}

TEST(TaskSpecTest, ValidateRejectsZeroNodes) {
  const auto p = stap::RadarParams::test_small();
  EXPECT_THROW(PipelineSpec::embedded_io(p, {2, 1, 0, 1, 1, 1, 1}), PreconditionError);
}

TEST(TaskSpecTest, ProportionalAssignmentConservesNodes) {
  const auto p = stap::RadarParams();  // full-size parameters
  for (const int total : {25, 50, 100}) {
    const auto spec =
        proportional_assignment(p, total, IoStrategy::kEmbedded, false);
    EXPECT_EQ(spec.total_nodes(), total);
    for (const auto& t : spec.tasks) EXPECT_GE(t.nodes, 1);
  }
}

TEST(TaskSpecTest, ProportionalAssignmentTracksWorkload) {
  const auto p = stap::RadarParams();
  const auto spec = proportional_assignment(p, 50, IoStrategy::kEmbedded, false);
  const stap::WorkloadModel wm(p);
  const int hard_wc = spec.tasks[static_cast<std::size_t>(spec.find(TaskKind::kWeightsHard))].nodes;
  const int easy_wc = spec.tasks[static_cast<std::size_t>(spec.find(TaskKind::kWeightsEasy))].nodes;
  // Hard weights cost more per the model, so they should get more nodes...
  if (wm.weights_hard().flops > 2 * wm.weights_easy().flops) {
    EXPECT_GE(hard_wc, easy_wc);
  }
}

TEST(TaskSpecTest, ProportionalSeparateIoAddsReadNodes) {
  const auto p = stap::RadarParams();
  const auto spec =
      proportional_assignment(p, 50, IoStrategy::kSeparateTask, false, 4);
  EXPECT_EQ(spec.tasks.front().kind, TaskKind::kParallelRead);
  EXPECT_EQ(spec.tasks.front().nodes, 4);
  EXPECT_EQ(spec.total_nodes(), 54);
  EXPECT_THROW(
      proportional_assignment(p, 50, IoStrategy::kSeparateTask, false, 0),
      PreconditionError);
}

TEST(TaskSpecTest, ProportionalCombinedStructure) {
  const auto p = stap::RadarParams();
  const auto spec = proportional_assignment(p, 50, IoStrategy::kEmbedded, true);
  EXPECT_EQ(spec.tasks.size(), 6u);
  EXPECT_EQ(spec.total_nodes(), 50);
  EXPECT_EQ(spec.tasks.back().kind, TaskKind::kPulseCompressionCfar);
}

// ---------------------------------------------------------------- metrics --

PipelineMetrics synthetic_metrics(const std::vector<std::pair<TaskKind, Seconds>>& ts) {
  PipelineMetrics m;
  for (const auto& [kind, total] : ts) {
    TaskTiming t;
    t.kind = kind;
    t.nodes = 1;
    t.compute = total;  // put everything in compute for simplicity
    m.tasks.push_back(t);
  }
  return m;
}

TEST(Metrics, ThroughputIsInverseOfSlowestTask) {
  const auto m = synthetic_metrics({{TaskKind::kDoppler, 0.5},
                                    {TaskKind::kWeightsEasy, 0.2},
                                    {TaskKind::kCfar, 0.25}});
  EXPECT_DOUBLE_EQ(m.throughput(), 2.0);
}

TEST(Metrics, EmbeddedLatencyMatchesPaperEquationTwo) {
  // latency_7 = T0 + max(T3, T4) + T5 + T6 (weights excluded).
  const auto m = synthetic_metrics({{TaskKind::kDoppler, 1.0},
                                    {TaskKind::kWeightsEasy, 10.0},
                                    {TaskKind::kWeightsHard, 20.0},
                                    {TaskKind::kBeamformEasy, 0.5},
                                    {TaskKind::kBeamformHard, 0.8},
                                    {TaskKind::kPulseCompression, 0.3},
                                    {TaskKind::kCfar, 0.2}});
  EXPECT_DOUBLE_EQ(m.latency(), 1.0 + 0.8 + 0.3 + 0.2);
}

TEST(Metrics, SeparateIoLatencyGainsOneTerm) {
  // latency_8 = T0' + T1' + max + T6' + T7' (paper eq. 4).
  const auto m = synthetic_metrics({{TaskKind::kParallelRead, 0.4},
                                    {TaskKind::kDoppler, 1.0},
                                    {TaskKind::kWeightsEasy, 10.0},
                                    {TaskKind::kWeightsHard, 20.0},
                                    {TaskKind::kBeamformEasy, 0.5},
                                    {TaskKind::kBeamformHard, 0.8},
                                    {TaskKind::kPulseCompression, 0.3},
                                    {TaskKind::kCfar, 0.2}});
  EXPECT_DOUBLE_EQ(m.latency(), 0.4 + 1.0 + 0.8 + 0.3 + 0.2);
}

TEST(Metrics, CombinedLatencyUsesMergedTask) {
  const auto m = synthetic_metrics({{TaskKind::kDoppler, 1.0},
                                    {TaskKind::kWeightsEasy, 10.0},
                                    {TaskKind::kWeightsHard, 20.0},
                                    {TaskKind::kBeamformEasy, 0.5},
                                    {TaskKind::kBeamformHard, 0.8},
                                    {TaskKind::kPulseCompressionCfar, 0.4}});
  EXPECT_DOUBLE_EQ(m.latency(), 1.0 + 0.8 + 0.4);
}

TEST(Metrics, PhasesSumIntoTaskTotal) {
  TaskTiming t;
  t.receive = 0.1;
  t.compute = 0.2;
  t.send = 0.3;
  EXPECT_DOUBLE_EQ(t.total(), 0.6);
}

TEST(Metrics, ErrorsOnEmptyOrMissing) {
  PipelineMetrics empty;
  EXPECT_THROW(empty.throughput(), PreconditionError);
  EXPECT_THROW(empty.latency(), PreconditionError);
  const auto m = synthetic_metrics({{TaskKind::kDoppler, 1.0}});
  EXPECT_THROW(m.task_time(TaskKind::kCfar), RuntimeError);
}

// ----------------------------------------------------------- ThreadRunner --

/// Sequential reference: exactly what the parallel pipeline should compute
/// for CPI t (weights trained on the file of CPI t-1; CPI 0 beamforms with
/// the conventional weights, as StapChain's first push does).
std::vector<stap::Detection> sequential_reference(const stap::RadarParams& p,
                                                  const stap::SceneConfig& scene,
                                                  std::uint64_t seed,
                                                  std::size_t files, int cpi) {
  stap::SceneGenerator gen(p, scene, seed);
  if (cpi == 0) return stap::StapChain(p).push(gen.generate(0));
  const stap::DataCube prev_cube = gen.generate((cpi - 1) % files);
  const stap::DataCube cur_cube = gen.generate(cpi % files);
  stap::DopplerFilter filt(p);
  const auto prev = filt.process(prev_cube);
  const auto cur = filt.process(cur_cube);

  stap::WeightComputer wce(p, prev.easy_bin_ids, p.easy_dof());
  stap::WeightComputer wch(p, prev.hard_bin_ids, p.hard_dof());
  const auto we = wce.compute(prev.easy);
  const auto wh = wch.compute(prev.hard);

  stap::Beamformer bf(p);
  auto ye = bf.apply(cur.easy, we);
  auto yh = bf.apply(cur.hard, wh);
  stap::PulseCompressor pc(p);
  pc.compress(ye);
  pc.compress(yh);
  stap::CfarDetector cfar(p);
  auto dets = cfar.detect(ye, cur.easy_bin_ids);
  const auto hard_dets = cfar.detect(yh, cur.hard_bin_ids);
  dets.insert(dets.end(), hard_dets.begin(), hard_dets.end());
  for (auto& d : dets) d.cpi = static_cast<std::uint64_t>(cpi);
  return dets;
}

using DetKey = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t, std::uint32_t>;

std::set<DetKey> keys_of(const std::vector<stap::Detection>& dets, int cpi) {
  std::set<DetKey> keys;
  for (const auto& d : dets) {
    if (d.cpi == static_cast<std::uint64_t>(cpi)) {
      keys.insert({d.cpi, d.bin, d.beam, d.range});
    }
  }
  return keys;
}

class ThreadRunnerTest : public ::testing::Test {
 protected:
  ThreadRunnerTest() {
    root_ = fs::temp_directory_path() /
            ("pstap_runner_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
  }
  ~ThreadRunnerTest() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  RunOptions options() const {
    RunOptions opt;
    opt.cpis = 3;
    opt.warmup = 1;
    opt.seed = 77;
    opt.fs_root = root_;
    opt.scene.cnr_db = 40.0;
    opt.scene.targets = {{40, 8.0, 0.0, 18.0}, {90, 1.0, -0.35, 25.0}};
    return opt;
  }

  // test_small's 16 bins (radix 2), 15 bins (3 x 5 mixed radix) and 23
  // bins (Rader over a 22-point mixed-radix convolution, whose factor 11 is
  // Rader again).
  static std::vector<stap::RadarParams> bin_count_geometries() {
    std::vector<stap::RadarParams> geometries(3, stap::RadarParams::test_small());
    geometries[1].pulses = 16;
    geometries[2].pulses = 24;
    return geometries;
  }

  // Runs the spec `make_spec` builds for every geometry under every SIMD
  // backend, and checks each CPI's detections against the sequential
  // reference computed under the same backend.
  void expect_matches_reference(
      const std::function<PipelineSpec(const stap::RadarParams&)>& make_spec,
      const std::vector<stap::RadarParams>& geometries = bin_count_geometries()) {
    struct BackendGuard {
      ~BackendGuard() { simd::force_backend(simd::detect_best()); }
    } guard;
    int run = 0;
    for (const stap::RadarParams& p : geometries) {
      for (int b = 0; b <= static_cast<int>(simd::detect_best()); ++b) {
        simd::force_backend(static_cast<simd::Backend>(b));
        RunOptions opt = options();
        opt.fs_root = root_ / ("run" + std::to_string(run++));
        const PipelineSpec spec = make_spec(p);
        ThreadRunner runner(spec, opt);
        const RunResult result = runner.run();
        ASSERT_EQ(result.metrics.tasks.size(), spec.tasks.size());
        for (int cpi = 0; cpi < opt.cpis; ++cpi) {
          const auto expect =
              keys_of(sequential_reference(p, opt.scene, opt.seed, 4, cpi), cpi);
          EXPECT_EQ(keys_of(result.detections, cpi), expect)
              << p.doppler_bins() << " bins, "
              << simd::backend_name(static_cast<simd::Backend>(b)) << ", cpi " << cpi;
          EXPECT_FALSE(expect.empty()) << p.doppler_bins() << " bins, cpi " << cpi;
        }
      }
    }
  }

  static std::atomic<int> counter_;
  fs::path root_;
};
std::atomic<int> ThreadRunnerTest::counter_{0};

TEST_F(ThreadRunnerTest, EmbeddedPipelineMatchesSequentialReference) {
  expect_matches_reference([](const stap::RadarParams& p) {
    auto spec = PipelineSpec::embedded_io(p, {2, 1, 1, 2, 1, 2, 1});
    EXPECT_EQ(spec.tasks.size(), 7u);
    return spec;
  });
}

// A Doppler output of DopplerFilter::kStreamMinBytes or more is written
// with streaming stores and fenced before its slices are shipped to the
// BF and WC ranks; their detections must still match the reference.
TEST_F(ThreadRunnerTest, StreamedDopplerOutputMatchesSequentialReference) {
  stap::RadarParams p = stap::RadarParams::test_small();
  const std::size_t gate_bytes =
      (p.easy_bin_count() * p.easy_dof() + p.hard_bin_count() * p.hard_dof()) *
      sizeof(cfloat);
  p.ranges = (stap::DopplerFilter::kStreamMinBytes / gate_bytes / 32 + 1) * 32;
  expect_matches_reference(
      [](const stap::RadarParams& q) {
        return PipelineSpec::embedded_io(q, {1, 1, 1, 2, 2, 1, 1});
      },
      {p});
}

// A Doppler slab of two DopplerFilter::kMinChunkSamples or more is filtered
// in several chunks, on other cores, each streaming and fencing its own
// column windows before the node ships slices of the output; detections
// must still match the reference. (On a one-CPU mask the node runs one
// chunk, and this is the streamed case again.)
TEST_F(ThreadRunnerTest, ChunkedDopplerOutputMatchesSequentialReference) {
  stap::RadarParams p = stap::RadarParams::test_small();
  const std::size_t gate_samples = p.pulses * p.channels;
  p.ranges = (2 * stap::DopplerFilter::kMinChunkSamples / gate_samples / 32 + 1) * 32;
  const std::size_t gate_bytes =
      (p.easy_bin_count() * p.easy_dof() + p.hard_bin_count() * p.hard_dof()) *
      sizeof(cfloat);
  ASSERT_GE(p.ranges * gate_bytes, stap::DopplerFilter::kStreamMinBytes);
  expect_matches_reference(
      [](const stap::RadarParams& q) {
        return PipelineSpec::embedded_io(q, {1, 1, 1, 2, 2, 1, 1});
      },
      {p});
}

TEST_F(ThreadRunnerTest, SeparateIoProducesSameDetections) {
  expect_matches_reference([](const stap::RadarParams& p) {
    auto spec = PipelineSpec::separate_io(p, {2, 2, 1, 1, 1, 1, 1, 1});
    EXPECT_EQ(spec.tasks.size(), 8u);
    return spec;
  });
}

TEST_F(ThreadRunnerTest, CombinedPipelineProducesSameDetections) {
  expect_matches_reference([](const stap::RadarParams& p) {
    auto spec = PipelineSpec::combined(p, {2, 1, 1, 1, 1, 2});
    EXPECT_EQ(spec.tasks.size(), 6u);
    return spec;
  });
}

TEST_F(ThreadRunnerTest, InjectedTargetsAreDetected) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1});
  ThreadRunner runner(spec, options());
  const RunResult result = runner.run();
  bool easy_found = false, hard_found = false;
  for (const auto& d : result.detections) {
    if (d.cpi == 0) continue;  // conventional weights at CPI 0
    if (std::llabs(static_cast<long long>(d.range) - 40) <= 1 && d.bin == 8) {
      easy_found = true;
    }
    if (std::llabs(static_cast<long long>(d.range) - 90) <= 1 && d.bin == 1) {
      hard_found = true;
    }
  }
  EXPECT_TRUE(easy_found);
  EXPECT_TRUE(hard_found);
}

TEST_F(ThreadRunnerTest, MetricsArePopulated) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = PipelineSpec::embedded_io(p, {2, 1, 1, 1, 1, 1, 1});
  ThreadRunner runner(spec, options());
  const RunResult result = runner.run();
  EXPECT_EQ(result.timed_cpis, 2);
  // Doppler must show compute time; throughput/latency must be computable.
  EXPECT_GT(result.metrics.task_time(TaskKind::kDoppler), 0.0);
  EXPECT_GT(result.metrics.throughput(), 0.0);
  EXPECT_GT(result.metrics.latency(), 0.0);
  for (const auto& t : result.metrics.tasks) {
    EXPECT_GE(t.receive, 0.0);
    EXPECT_GE(t.compute, 0.0);
    EXPECT_GE(t.send, 0.0);
  }
}

TEST_F(ThreadRunnerTest, SyncOnlyFileSystemAlsoWorks) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = PipelineSpec::embedded_io(p, {2, 1, 1, 1, 1, 1, 1});
  RunOptions opt = options();
  opt.fs_config = pfs::piofs(4);
  ThreadRunner runner(spec, opt);
  const RunResult result = runner.run();
  for (int cpi = 0; cpi < 3; ++cpi) {
    const auto expect = keys_of(
        sequential_reference(p, opt.scene, opt.seed, 4, cpi), cpi);
    EXPECT_EQ(keys_of(result.detections, cpi), expect) << "cpi " << cpi;
  }
}

TEST_F(ThreadRunnerTest, MoreNodesThanBinsStillCorrect) {
  // hard bins = 5 with test_small; give hard WC/BF 6 nodes each so some
  // nodes own zero bins.
  const auto p = stap::RadarParams::test_small();
  const auto spec = PipelineSpec::embedded_io(p, {2, 1, 6, 1, 6, 1, 1});
  ThreadRunner runner(spec, options());
  const RunResult result = runner.run();
  for (int cpi = 0; cpi < 3; ++cpi) {
    const auto expect = keys_of(
        sequential_reference(p, options().scene, options().seed, 4, cpi), cpi);
    EXPECT_EQ(keys_of(result.detections, cpi), expect) << "cpi " << cpi;
  }
}

TEST_F(ThreadRunnerTest, DetectionLogMatchesReturnedReports) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = PipelineSpec::embedded_io(p, {2, 1, 1, 1, 1, 1, 1});
  RunOptions opt = options();
  opt.detection_log = "reports";
  ThreadRunner runner(spec, opt);
  const RunResult result = runner.run();

  pfs::StripedFileSystem fs(opt.fs_root, opt.fs_config);
  stap::DetectionLogReader reader(fs, "reports");
  const auto blocks = reader.read_all();
  ASSERT_EQ(blocks.size(), static_cast<std::size_t>(opt.cpis));
  std::size_t logged = 0;
  for (const auto& block : blocks) logged += block.detections.size();
  EXPECT_EQ(logged, result.detections.size());
  // Spot-check: per-CPI sets agree.
  for (int cpi = 0; cpi < opt.cpis; ++cpi) {
    EXPECT_EQ(keys_of(blocks[static_cast<std::size_t>(cpi)].detections, cpi),
              keys_of(result.detections, cpi))
        << "cpi " << cpi;
  }
}

TEST_F(ThreadRunnerTest, RejectsBadOptions) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1});
  RunOptions opt = options();
  opt.cpis = 0;
  EXPECT_THROW(ThreadRunner(spec, opt), PreconditionError);
  opt = options();
  opt.warmup = opt.cpis;
  EXPECT_THROW(ThreadRunner(spec, opt), PreconditionError);
  opt = options();
  opt.fs_root.clear();
  EXPECT_THROW(ThreadRunner(spec, opt), PreconditionError);
  // The retry policy is checked up front, not inside a rank thread.
  opt = options();
  opt.io_retry.max_attempts = 0;
  EXPECT_THROW(ThreadRunner(spec, opt), PreconditionError);
  opt = options();
  opt.io_retry.initial_backoff = -1e-3;
  EXPECT_THROW(ThreadRunner(spec, opt), PreconditionError);
  opt = options();
  opt.io_retry.attempt_timeout = -1.0;
  EXPECT_THROW(ThreadRunner(spec, opt), PreconditionError);
  // The weight nodes train on Doppler node 0's range window alone. At the
  // paper geometry (1024 gates, 128 training gates) 10 Doppler nodes leave
  // it 128 gates, and 11 leave it 96.
  const stap::RadarParams paper;
  EXPECT_NO_THROW(ThreadRunner(PipelineSpec::embedded_io(paper, {10, 1, 1, 1, 1, 1, 1}),
                               options()));
  EXPECT_THROW(ThreadRunner(PipelineSpec::embedded_io(paper, {11, 1, 1, 1, 1, 1, 1}),
                            options()),
               PreconditionError);
}

// Any node assignment must leave the pipeline's output unchanged: sweep a
// family of deliberately lopsided assignments and compare against the
// sequential reference. The task count picks the organization: 7 tasks is
// embedded I/O, 6 the PC+CFAR combination, 8 a separate read task.
class AssignmentSweep : public ThreadRunnerTest,
                        public ::testing::WithParamInterface<std::vector<int>> {};

TEST_P(AssignmentSweep, DetectionsInvariantUnderAssignment) {
  const std::vector<int>& nodes = GetParam();
  expect_matches_reference([&](const stap::RadarParams& p) {
    return nodes.size() == 6   ? PipelineSpec::combined(p, nodes)
           : nodes.size() == 8 ? PipelineSpec::separate_io(p, nodes)
                               : PipelineSpec::embedded_io(p, nodes);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Assignments, AssignmentSweep,
    ::testing::Values(std::vector<int>{3, 1, 1, 1, 1, 1, 1},   // wide Doppler
                      // 5 Doppler nodes over 4 filter blocks: one window
                      // is empty.
                      std::vector<int>{5, 1, 1, 1, 1, 1, 1},
                      std::vector<int>{1, 2, 2, 1, 1, 1, 1},   // wide weights
                      std::vector<int>{1, 1, 1, 3, 3, 1, 1},   // wide beamforming
                      // 6 hard weight and 6 hard BF nodes over 5 hard bins:
                      // one idle node in each task.
                      std::vector<int>{1, 1, 6, 1, 6, 1, 1},
                      std::vector<int>{1, 1, 1, 1, 1, 3, 3},   // wide tail
                      std::vector<int>{2, 2, 2, 2, 2, 2, 2},   // uniform 2x
                      std::vector<int>{1, 1, 1, 2, 2, 3},      // combined, wide tail
                      // Separate I/O, 2 read -> 3 Doppler: read pieces
                      // straddle Doppler boundaries.
                      std::vector<int>{2, 3, 1, 1, 1, 1, 1, 1}));

}  // namespace
}  // namespace pstap::pipeline
