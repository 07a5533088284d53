// Tests for the supervision-and-recovery subsystem: CheckpointRing
// record/replay/eviction, heartbeat-bounded crash detection with respawn
// and checkpointed CPI replay, I/O-task failover to promoted Doppler
// reads, end-to-end checksum verification of corrupted chunks, and the
// circuit-breaker replica redirect.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "pfs/striped_file_system.hpp"
#include "pipeline/task_spec.hpp"
#include "pipeline/thread_runner.hpp"
#include "stap/scene.hpp"

namespace pstap {
namespace {

namespace fsys = std::filesystem;

// --------------------------------------------------------- CheckpointRing --

std::vector<std::byte> bytes_of(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

Buffer payload_of(std::initializer_list<int> vals) {
  return Buffer::adopt(bytes_of(vals));
}

std::vector<std::byte> bytes_in(const Buffer& buf) {
  return {buf.data(), buf.data() + buf.size()};
}

TEST(CheckpointRing, RecordReplayCompleteEvict) {
  ckpt::CheckpointRing ring(4);
  EXPECT_EQ(ring.watermark(), -1);

  ring.record_message(0, /*stream=*/1, /*source=*/2, payload_of({1, 2, 3}));
  ring.record_message(1, 1, 2, payload_of({4, 5}));

  Buffer out;
  EXPECT_TRUE(ring.replay_message(0, 1, 2, out));
  EXPECT_EQ(bytes_in(out), bytes_of({1, 2, 3}));
  EXPECT_FALSE(ring.replay_message(0, 1, 3, out));  // wrong source
  EXPECT_FALSE(ring.replay_message(0, 2, 2, out));  // wrong stream

  ring.complete(0);
  EXPECT_EQ(ring.watermark(), 0);
  EXPECT_FALSE(ring.replay_message(0, 1, 2, out)) << "evicted by complete()";
  EXPECT_TRUE(ring.replay_message(1, 1, 2, out));
  EXPECT_EQ(bytes_in(out), bytes_of({4, 5}));

  EXPECT_EQ(ring.messages_recorded(), 2u);
  EXPECT_EQ(ring.messages_replayed(), 2u);
  EXPECT_EQ(ring.bytes_held(), 2u);
  EXPECT_EQ(ring.peak_bytes(), 5u);
}

TEST(CheckpointRing, FirstRecordWins) {
  ckpt::CheckpointRing ring(2);
  ring.record_message(3, 7, 0, payload_of({9}));
  ring.record_message(3, 7, 0, payload_of({8, 8}));  // replayed re-record
  Buffer out;
  ASSERT_TRUE(ring.replay_message(3, 7, 0, out));
  EXPECT_EQ(bytes_in(out), bytes_of({9}));
  EXPECT_EQ(ring.messages_recorded(), 1u);
}

TEST(CheckpointRing, DepthGuardFailsLoudly) {
  ckpt::CheckpointRing ring(2);
  ring.record_message(0, 1, 0, payload_of({1}));
  ring.record_message(1, 1, 0, payload_of({1}));
  EXPECT_THROW(ring.record_message(2, 1, 0, payload_of({1})), RuntimeError);
  ring.complete(0);
  ring.record_message(2, 1, 0, payload_of({1}));  // room again after eviction
}

// ----------------------------------------------- supervised pipeline runs --

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

class SupervisorPipelineTest : public ::testing::Test {
 protected:
  SupervisorPipelineTest() {
    root_ = fsys::temp_directory_path() /
            ("pstap_sup_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
  }
  ~SupervisorPipelineTest() override {
    std::error_code ec;
    fsys::remove_all(root_, ec);
  }

  pipeline::RunOptions options(const char* sub) const {
    pipeline::RunOptions opt;
    opt.cpis = 4;
    opt.warmup = 1;
    opt.seed = 77;
    opt.fs_root = root_ / sub;
    opt.scene.cnr_db = 40.0;
    opt.scene.targets = {{40, 8.0, 0.0, 18.0}, {90, 1.0, -0.35, 25.0}};
    return opt;
  }

  pipeline::RunOptions supervised(const char* sub) const {
    auto opt = options(sub);
    opt.supervise.enabled = true;
    opt.supervise.heartbeat_interval = 2e-3;
    opt.supervise.hang_timeout = 30.0;
    return opt;
  }

  static void expect_same_detections(const pipeline::RunResult& got,
                                     const pipeline::RunResult& want) {
    for (int cpi = 0; cpi < 4; ++cpi) {
      EXPECT_EQ(keys_of(got.detections, cpi), keys_of(want.detections, cpi))
          << "cpi " << cpi;
    }
    EXPECT_FALSE(keys_of(want.detections, 1).empty())
        << "baseline produced no detections; the comparison proves nothing";
  }

  static std::atomic<int> counter_;
  fsys::path root_;
};
std::atomic<int> SupervisorPipelineTest::counter_{0};

TEST_F(SupervisorPipelineTest, FaultFreeSupervisedRunMatchesUnsupervised) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1});

  pipeline::ThreadRunner baseline(spec, options("base"));
  const auto clean = baseline.run();

  pipeline::ThreadRunner runner(spec, supervised("sup"));
  const auto result = runner.run();

  expect_same_detections(result, clean);
  EXPECT_TRUE(result.dropped_cpis.empty());
  const auto& rec = result.metrics.recovery;
  EXPECT_EQ(rec.crashes_detected, 0u);
  EXPECT_EQ(rec.ranks_respawned, 0u);
  EXPECT_EQ(rec.io_failovers, 0u);
  EXPECT_EQ(rec.replayed_messages, 0u);
  EXPECT_GT(rec.checkpoint_peak_bytes, 0u)
      << "boundary messages should have been logged";
}

// A compute rank (easy beamform, rank 3 of the embedded layout) dies at
// the start of CPI 2 — before consuming any of that CPI's messages. The
// monitor must detect the death within the heartbeat bound and respawn
// the rank; the replacement re-receives CPI 2's inputs from the mailbox
// (which persists across rank death) to a byte-identical detection set.
TEST_F(SupervisorPipelineTest, CrashedComputeRankIsRespawnedAndReplays) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1});

  pipeline::ThreadRunner baseline(spec, options("cbase"));
  const auto clean = baseline.run();

  auto opt = supervised("crash");
  opt.fault_plan = std::make_shared<fault::FaultPlan>(41);
  opt.fault_plan->arm_crash("pipeline.rank.3", /*at_index=*/2);
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();

  expect_same_detections(result, clean);
  EXPECT_TRUE(result.dropped_cpis.empty());
  const auto& rec = result.metrics.recovery;
  EXPECT_EQ(rec.injected_crashes, 1u);
  EXPECT_EQ(rec.crashes_detected, 1u);
  EXPECT_EQ(rec.ranks_respawned, 1u);
  EXPECT_EQ(rec.io_failovers, 0u);
  // Dying at CPI start means nothing of CPI 2 was consumed yet: the ring
  // has nothing to replay and recovery comes entirely from the persistent
  // mailbox. The send-site test below exercises the ring-replay path.
  EXPECT_EQ(rec.replayed_messages, 0u);
  EXPECT_GE(rec.max_detection_delay, 0.0);
  // The monitor is woken by the death report itself, so detection is
  // typically sub-millisecond; 1 s absorbs any CI scheduling hiccup while
  // still proving the detection is bounded, not best-effort.
  EXPECT_LE(rec.max_detection_delay, 1.0);
}

// Same rank, but the crash fires at the send-phase start: the rank has
// consumed (and logged) all of CPI 1's inputs and sent nothing. Replay
// must rebuild the CPI entirely from the ring and send exactly once. The
// second case crashes the easy BF rank (rank 4) of a two-Doppler-node
// layout: its replay rebuilds CPI 1 from both Doppler nodes' spectra
// windows and the weight message, at least 3 logged messages.
TEST_F(SupervisorPipelineTest, CrashAtSendPhaseReplaysFromTheRing) {
  const auto p = stap::RadarParams::test_small();
  const struct {
    std::vector<int> nodes;
    const char* site;
    std::uint64_t min_replayed;
    const char* base_dir;
    const char* crash_dir;
  } cases[] = {
      {{1, 1, 1, 1, 1, 1, 1}, "pipeline.rank.5.send", 1, "sbase", "scrash"},
      {{2, 1, 1, 1, 1, 1, 1}, "pipeline.rank.4.send", 3, "sbase2", "scrash2"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.site);
    const auto spec = pipeline::PipelineSpec::embedded_io(p, c.nodes);

    pipeline::ThreadRunner baseline(spec, options(c.base_dir));
    const auto clean = baseline.run();

    auto opt = supervised(c.crash_dir);
    opt.fault_plan = std::make_shared<fault::FaultPlan>(43);
    opt.fault_plan->arm_crash(c.site, /*at_index=*/1);
    pipeline::ThreadRunner runner(spec, opt);
    const auto result = runner.run();

    expect_same_detections(result, clean);
    EXPECT_TRUE(result.dropped_cpis.empty());
    const auto& rec = result.metrics.recovery;
    EXPECT_EQ(rec.crashes_detected, 1u);
    EXPECT_EQ(rec.ranks_respawned, 1u);
    EXPECT_GE(rec.replayed_messages, c.min_replayed);
  }
}

// Both detection sinks get the same send-site crash: the CFAR rank of the
// embedded layout (rank 6) and the PC+CFAR rank of the combined layout
// (rank 5) die after appending CPI 1's detections. The replayed CPI must
// replace them, not add to them — the detection count catches a duplicate
// that the per-CPI key sets would hide.
TEST_F(SupervisorPipelineTest, DetectionSinkSendCrashReplaysWithoutDuplicates) {
  const auto p = stap::RadarParams::test_small();
  const std::pair<pipeline::PipelineSpec, const char*> cases[] = {
      {pipeline::PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1}),
       "pipeline.rank.6.send"},
      {pipeline::PipelineSpec::combined(p, {1, 1, 1, 1, 1, 1}),
       "pipeline.rank.5.send"},
  };
  for (const auto& [spec, site] : cases) {
    SCOPED_TRACE(site);
    pipeline::ThreadRunner baseline(spec, options(spec.combined_pc_cfar ? "kb" : "cb"));
    const auto clean = baseline.run();

    auto opt = supervised(spec.combined_pc_cfar ? "kc" : "cc");
    opt.fault_plan = std::make_shared<fault::FaultPlan>(67);
    opt.fault_plan->arm_crash(site, /*at_index=*/1);
    pipeline::ThreadRunner runner(spec, opt);
    const auto result = runner.run();

    expect_same_detections(result, clean);
    EXPECT_EQ(result.detections.size(), clean.detections.size());
    EXPECT_TRUE(result.dropped_cpis.empty());
    EXPECT_EQ(result.metrics.recovery.ranks_respawned, 1u);
    EXPECT_GT(result.metrics.recovery.replayed_messages, 0u);
  }
}

// Idle nodes under supervision. Six hard weight and six hard BF nodes share
// five hard bins, so the last node of each task (ranks 7 and 14) has no
// work. A busy hard BF rank (rank 9) dies at CPI 1's send and replays from
// the ring. Every rank of both tasks, the idle ones included, starts every
// CPI — the heartbeat and the stage delay site run together at CPI start,
// and the plan counts the site's occurrences — and the monitor declares
// only the crashed rank dead. The respawn restarts CPI 1, one start more.
TEST_F(SupervisorPipelineTest, IdleRanksKeepBeatingThroughABusyRanksCrash) {
  const auto p = stap::RadarParams::test_small();
  ASSERT_EQ(p.hard_bins().size(), 5u);
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {1, 1, 6, 1, 6, 1, 1});

  pipeline::ThreadRunner baseline(spec, options("ibase"));
  const auto clean = baseline.run();

  auto opt = supervised("icrash");
  opt.fault_plan = std::make_shared<fault::FaultPlan>(71);
  opt.fault_plan->arm_crash("pipeline.rank.9.send", /*at_index=*/1);
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();

  expect_same_detections(result, clean);
  EXPECT_TRUE(result.dropped_cpis.empty());
  const auto& rec = result.metrics.recovery;
  EXPECT_EQ(rec.injected_crashes, 1u);
  EXPECT_EQ(rec.crashes_detected, 1u) << "an idle rank was declared dead";
  EXPECT_EQ(rec.ranks_respawned, 1u);
  EXPECT_GT(rec.replayed_messages, 0u);
  EXPECT_EQ(opt.fault_plan->occurrences("pipeline.stage.hard weight"), 6u * 4u);
  EXPECT_EQ(opt.fault_plan->occurrences("pipeline.stage.hard BF"), 6u * 4u + 1u);
}

// Bounded streams under a downstream crash. The CFAR rank (rank 6 of the
// embedded layout) is slowed at every CPI boundary, so pulse compression
// runs mp::kStreamDepth CPIs ahead and blocks on its full stream. CFAR then
// dies at the start of CPI 6, with CPIs 6-9 queued and PC blocked sending
// CPI 10.
constexpr int kFullStreamCpis = 12;

void arm_full_stream_crash(pipeline::RunOptions& opt) {
  opt.cpis = kFullStreamCpis;
  opt.fault_plan = std::make_shared<fault::FaultPlan>(79);
  opt.fault_plan->arm_delay("pipeline.stage.CFAR", 1.0, 20e-3, 25e-3);
  opt.fault_plan->arm_crash("pipeline.rank.6", /*at_index=*/6);
}

std::int64_t stream_waits() {
  return obs::Registry::global().counter("mp.stream_waits").value();
}

// The replacement drains the queued CPIs, which wakes the blocked sender,
// and every CPI matches the fault-free run.
TEST_F(SupervisorPipelineTest, DownstreamCrashUnderFullStreamMatchesFaultFreeRun) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1});

  auto base_opt = options("fbase");
  base_opt.cpis = kFullStreamCpis;
  pipeline::ThreadRunner baseline(spec, base_opt);
  const auto clean = baseline.run();

  auto opt = supervised("fcrash");
  arm_full_stream_crash(opt);
  const std::int64_t waits_before = stream_waits();
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();

  EXPECT_GT(stream_waits(), waits_before)
      << "no stream ever filled; the test proves nothing";
  for (int cpi = 0; cpi < kFullStreamCpis; ++cpi) {
    EXPECT_EQ(keys_of(result.detections, cpi), keys_of(clean.detections, cpi))
        << "cpi " << cpi;
  }
  EXPECT_EQ(result.detections.size(), clean.detections.size());
  EXPECT_FALSE(keys_of(clean.detections, 7).empty());
  EXPECT_TRUE(result.dropped_cpis.empty());
  EXPECT_EQ(result.metrics.recovery.crashes_detected, 1u);
  EXPECT_EQ(result.metrics.recovery.ranks_respawned, 1u);
}

// With no respawn budget the same crash aborts the run. Closing the
// mailboxes wakes the blocked sender, and the run unwinds with an error
// instead of hanging in World::run.
TEST_F(SupervisorPipelineTest, AbortUnderFullStreamUnwinds) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1});
  auto opt = supervised("fabort");
  arm_full_stream_crash(opt);
  opt.supervise.max_respawns = 0;
  const std::int64_t waits_before = stream_waits();
  pipeline::ThreadRunner runner(spec, opt);
  EXPECT_THROW(runner.run(), RuntimeError);
  EXPECT_GT(stream_waits(), waits_before)
      << "no stream ever filled; the test proves nothing";
}

// The separate I/O task (rank 0 of the separate layout) dies at CPI 1.
// Instead of a respawn, the rank is abandoned and the Doppler rank
// promotes to embedded reads: it self-reads its row range for CPIs 1-3
// straight from the striped files, and the results stay identical.
TEST_F(SupervisorPipelineTest, IoTaskFailoverPromotesDopplerReads) {
  const auto p = stap::RadarParams::test_small();
  const auto spec =
      pipeline::PipelineSpec::separate_io(p, {1, 1, 1, 1, 1, 1, 1, 1});

  pipeline::ThreadRunner baseline(spec, options("fbase"));
  const auto clean = baseline.run();

  auto opt = supervised("fail");
  opt.fault_plan = std::make_shared<fault::FaultPlan>(47);
  opt.fault_plan->arm_crash("pipeline.rank.0", /*at_index=*/1);
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();

  expect_same_detections(result, clean);
  EXPECT_TRUE(result.dropped_cpis.empty());
  const auto& rec = result.metrics.recovery;
  EXPECT_EQ(rec.crashes_detected, 1u);
  EXPECT_EQ(rec.io_failovers, 1u);
  EXPECT_EQ(rec.ranks_respawned, 0u);
  EXPECT_EQ(rec.promoted_reads, 3u) << "one self-read per remaining CPI";
}

// As above, but the I/O rank dies at its send phase: it has read CPI 1
// from disk and sent none of it. The Doppler rank's probe-after-failed
// protocol must conclude nothing is coming and self-read CPI 1 too. Every
// server read is delayed, so CPI 2's prefetch (issued just before the send)
// is still in flight when the dying rank's slab reader is destroyed: its
// requests must drain before the buffers they read into are freed.
TEST_F(SupervisorPipelineTest, IoTaskDeathAfterReadBeforeSendFailsOverCleanly) {
  const auto p = stap::RadarParams::test_small();
  const auto spec =
      pipeline::PipelineSpec::separate_io(p, {1, 1, 1, 1, 1, 1, 1, 1});

  pipeline::ThreadRunner baseline(spec, options("gbase"));
  const auto clean = baseline.run();

  auto opt = supervised("gsend");
  opt.fault_plan = std::make_shared<fault::FaultPlan>(53);
  opt.fault_plan->arm_crash("pipeline.rank.0.send", /*at_index=*/1);
  opt.fault_plan->arm_delay("pfs.server.read", 1.0, 20e-3, 30e-3);
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();

  expect_same_detections(result, clean);
  EXPECT_TRUE(result.dropped_cpis.empty());
  const auto& rec = result.metrics.recovery;
  EXPECT_EQ(rec.io_failovers, 1u);
  EXPECT_EQ(rec.promoted_reads, 3u);
}

// Failover reads keep the embedded reads' degradation contract: the read
// rank dies at CPI 1 and CPI 2's file fails permanently, so the promoted
// Doppler read of CPI 2 zero-fills and drops that CPI instead of throwing,
// and the pipeline carries on with CPI 3. CPI 3 beamforms with weights
// trained on CPI 2's zero-filled training gates (the temporal weights
// edge), so it is dropped too, as it is under embedded reads; every CPI
// that is not dropped matches the fault-free run.
TEST_F(SupervisorPipelineTest, IoTaskFailoverDegradesLikeEmbeddedReads) {
  const auto p = stap::RadarParams::test_small();
  const auto spec =
      pipeline::PipelineSpec::separate_io(p, {1, 1, 1, 1, 1, 1, 1, 1});

  pipeline::ThreadRunner baseline(spec, options("dbase"));
  const auto clean = baseline.run();

  auto emb_opt = options("demb");
  emb_opt.fault_plan = std::make_shared<fault::FaultPlan>(73);
  emb_opt.fault_plan->arm_permanent_error("pfs.file.read.cpi_rr2");
  pipeline::ThreadRunner embedded(
      pipeline::PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1}), emb_opt);
  const auto emb = embedded.run();
  ASSERT_EQ(emb.dropped_cpis, (std::vector<int>{2, 3}));

  auto opt = supervised("dfail");
  opt.fault_plan = std::make_shared<fault::FaultPlan>(73);
  opt.fault_plan->arm_crash("pipeline.rank.0", /*at_index=*/1);
  opt.fault_plan->arm_permanent_error("pfs.file.read.cpi_rr2");
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();

  EXPECT_EQ(result.dropped_cpis, emb.dropped_cpis);
  EXPECT_EQ(result.metrics.recovery.io_failovers, 1u);
  EXPECT_EQ(result.metrics.recovery.promoted_reads, 3u);
  for (int cpi = 0; cpi < 4; ++cpi) {
    const bool dropped = cpi == 2 || cpi == 3;
    EXPECT_EQ(keys_of(result.detections, cpi),
              dropped ? std::set<DetKey>{} : keys_of(clean.detections, cpi))
        << "cpi " << cpi;
  }
  EXPECT_FALSE(keys_of(clean.detections, 1).empty());
}

// -------------------------------------------------------- data integrity --

// Every injected read-side corruption must be caught by the CRC32C
// verification (never reaching CFAR output) and healed by a retried read.
TEST_F(SupervisorPipelineTest, ChecksumCatchesEveryInjectedCorruption) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1});

  pipeline::ThreadRunner baseline(spec, options("xbase"));
  const auto clean = baseline.run();

  auto opt = options("xcorrupt");
  opt.fault_plan = std::make_shared<fault::FaultPlan>(59);
  opt.fault_plan->arm_corruption("pfs.server.read", 1.0, /*max_hits=*/5);
  opt.io_retry.max_attempts = 8;
  opt.io_retry.initial_backoff = 1e-4;
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();

  EXPECT_EQ(opt.fault_plan->injected_corruptions(), 5u);
  EXPECT_EQ(result.metrics.io.injected_corruptions, 5u);
  EXPECT_EQ(result.metrics.io.corrupt_chunks, 5u)
      << "every corruption must be caught, none may pass silently";
  EXPECT_TRUE(result.dropped_cpis.empty());
  expect_same_detections(result, clean);
}

// A stripe directory that fails persistently trips the circuit breaker
// after `quarantine_threshold` consecutive chunk failures; with replicas
// configured, subsequent read attempts redirect its units to the replica
// copies in the neighbouring directory and succeed.
TEST(PfsQuarantine, BreakerRedirectsReadsToReplica) {
  const fsys::path root =
      fsys::temp_directory_path() /
      ("pstap_quar_" + std::to_string(::getpid()));
  std::error_code ec;
  fsys::remove_all(root, ec);

  pfs::PfsConfig cfg;
  cfg.name = "quar";
  cfg.stripe_factor = 2;
  cfg.stripe_unit = 256;
  cfg.replicas = 2;
  cfg.quarantine_threshold = 2;

  Rng rng(7);
  std::vector<std::byte> data(1500);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_u64() & 0xFF);

  auto plan = std::make_shared<fault::FaultPlan>(61);
  {
    pfs::StripedFileSystem fs(root, cfg);
    fs.write_file("f", data);

    plan->arm_transient_error("pfs.server.read.sd000", 1.0);
    fault::FaultScope scope(plan);

    RetryPolicy policy;
    policy.max_attempts = 6;
    policy.initial_backoff = 1e-4;
    const auto got = with_retry(policy, "quarantined read",
                                [&] { return fs.read_file("f"); });
    EXPECT_EQ(got, data);
    EXPECT_TRUE(fs.engine().quarantined(0));
    EXPECT_FALSE(fs.engine().quarantined(1));
    EXPECT_EQ(fs.engine().stats().quarantined_servers, 1u);
  }
  EXPECT_GT(plan->injected_errors(), 0u);
  fsys::remove_all(root, ec);
}

}  // namespace
}  // namespace pstap
