// Chaos soak for the supervised pipeline (`stress` tier): seeded crash
// schedules across random ranks and CPIs of the separate-I/O organization.
// Every run must complete with no hang, drop no CPIs, detect every
// injected crash, and produce detections identical to a fault-free run.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "pipeline/task_spec.hpp"
#include "pipeline/thread_runner.hpp"
#include "stap/scene.hpp"

namespace pstap {
namespace {

namespace fsys = std::filesystem;

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

pipeline::RunOptions base_options(const fsys::path& root, const std::string& sub) {
  pipeline::RunOptions opt;
  opt.cpis = 4;
  opt.warmup = 1;
  opt.seed = 77;
  opt.fs_root = root / sub;
  opt.scene.cnr_db = 40.0;
  opt.scene.targets = {{40, 8.0, 0.0, 18.0}, {90, 1.0, -0.35, 25.0}};
  return opt;
}

// Each seed arms crashes at two distinct ranks of the 8-rank separate-I/O
// layout, at a pseudo-random CPI and crash site (CPI start or send-phase
// start). The CFAR sink (rank 7) never sends, so its schedule always uses
// the CPI-start site; whichever rules actually fire must all be detected
// and recovered from.
TEST(ChaosSoak, SeededCrashSchedulesAllRecover) {
  const fsys::path root =
      fsys::temp_directory_path() /
      ("pstap_chaos_" + std::to_string(::getpid()));
  std::error_code ec;
  fsys::remove_all(root, ec);

  const auto p = stap::RadarParams::test_small();
  const auto spec =
      pipeline::PipelineSpec::separate_io(p, {1, 1, 1, 1, 1, 1, 1, 1});
  const int total_ranks = 8;

  pipeline::ThreadRunner baseline(spec, base_options(root, "clean"));
  const auto clean = baseline.run();
  ASSERT_FALSE(keys_of(clean.detections, 1).empty());

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 1000003);
    const int rank_a = static_cast<int>(rng.next_u64() % total_ranks);
    const int rank_b = (rank_a + 1 + static_cast<int>(rng.next_u64() % (total_ranks - 1))) %
                       total_ranks;
    auto site_of = [&](int rank) {
      std::string site = "pipeline.rank." + std::to_string(rank);
      // The CFAR sink never reaches a send phase; keep its rule firable.
      if (rank != total_ranks - 1 && rng.next_u64() % 2 == 0) site += ".send";
      return site;
    };

    auto opt = base_options(root, "chaos" + std::to_string(seed));
    opt.supervise.enabled = true;
    opt.supervise.heartbeat_interval = 2e-3;
    opt.supervise.hang_timeout = 30.0;
    opt.fault_plan = std::make_shared<fault::FaultPlan>(seed);
    opt.fault_plan->arm_crash(site_of(rank_a), rng.next_u64() % 4);
    opt.fault_plan->arm_crash(site_of(rank_b), rng.next_u64() % 4);

    pipeline::ThreadRunner runner(spec, opt);
    const auto result = runner.run();  // completing at all proves no hang

    SCOPED_TRACE("seed " + std::to_string(seed) + " ranks " +
                 std::to_string(rank_a) + "," + std::to_string(rank_b));
    EXPECT_TRUE(result.dropped_cpis.empty());
    const auto& rec = result.metrics.recovery;
    EXPECT_GT(rec.injected_crashes, 0u) << "schedule armed nothing that fired";
    EXPECT_EQ(rec.crashes_detected, rec.injected_crashes)
        << "every injected crash must be detected";
    EXPECT_EQ(rec.ranks_respawned + rec.io_failovers, rec.crashes_detected);
    for (int cpi = 0; cpi < 4; ++cpi) {
      EXPECT_EQ(keys_of(result.detections, cpi), keys_of(clean.detections, cpi))
          << "cpi " << cpi;
    }
  }
  fsys::remove_all(root, ec);
}

// Combined-fault leg: a modeled straggler I/O server AND injected delays
// AND a rank crash, with the straggler defense (straggler_sched) on.
// Defense layers must compose: supervision recovers the crash, read
// placement routes around the slow server, and the detections still match
// a fault-free run exactly — adaptive I/O must never change results.
TEST(ChaosSoak, StragglerPlusCrashWithSchedulerRecovers) {
  const fsys::path root =
      fsys::temp_directory_path() /
      ("pstap_chaos_straggler_" + std::to_string(::getpid()));
  std::error_code ec;
  fsys::remove_all(root, ec);

  const auto p = stap::RadarParams::test_small();
  const auto spec =
      pipeline::PipelineSpec::separate_io(p, {1, 1, 1, 1, 1, 1, 1, 1});

  pipeline::ThreadRunner baseline(spec, base_options(root, "clean"));
  const auto clean = baseline.run();
  ASSERT_FALSE(keys_of(clean.detections, 1).empty());

  auto opt = base_options(root, "straggler_crash");
  opt.supervise.enabled = true;
  opt.supervise.heartbeat_interval = 2e-3;
  opt.supervise.hang_timeout = 30.0;
  opt.fs_config = pfs::paragon_pfs(4);
  opt.fs_config.replicas = 2;
  opt.fs_config.straggler_sched = true;
  opt.fs_config.server_latency = 2e-4;
  opt.fs_config.straggler_servers = 1;
  opt.fs_config.straggler_slowdown = 4.0;
  opt.io_retry.max_attempts = 4;
  opt.io_retry.initial_backoff = 1e-3;
  opt.fault_plan = std::make_shared<fault::FaultPlan>(4242);
  opt.fault_plan->arm_crash("pipeline.rank.2", 1);
  opt.fault_plan->arm_delay("pfs.server.read.sd000", 0.3, 1e-3, 3e-3);

  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();  // completing at all proves no hang

  EXPECT_TRUE(result.dropped_cpis.empty());
  const auto& rec = result.metrics.recovery;
  EXPECT_GT(rec.injected_crashes, 0u);
  EXPECT_EQ(rec.crashes_detected, rec.injected_crashes);
  for (int cpi = 0; cpi < 4; ++cpi) {
    EXPECT_EQ(keys_of(result.detections, cpi), keys_of(clean.detections, cpi))
        << "cpi " << cpi;
  }
  fsys::remove_all(root, ec);
}

}  // namespace
}  // namespace pstap
