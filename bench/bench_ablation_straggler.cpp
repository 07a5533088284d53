// Ablation: straggler I/O servers. Striping is static, so a read that
// touches a slow stripe directory cannot route around it — the conforming
// read finishes when the slowest server does. Sweeps the slowdown of one
// straggler server at the paper's largest node case, for both Paragon
// stripe factors: the small-stripe system is already I/O bound, so the
// straggler's hit lands directly on pipeline throughput, while the large
// stripe factor hides mild stragglers behind compute/communication overlap.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "chart.hpp"
#include "experiment_config.hpp"

#include "common/rng.hpp"
#include "common/wall_clock.hpp"
#include "obs/report.hpp"
#include "pfs/striped_file_system.hpp"
#include "pipeline/thread_runner.hpp"

using namespace pstap;
using namespace pstap::bench;

namespace {

// ------------------------------------------------------------------------
// Real-pfs straggler defense: one 5x-slow server, defense off and on.

struct IoModeResult {
  double wall = 0;  ///< seconds for the measured read rounds
  obs::IoStats io;
};

pfs::PfsConfig bench_pfs(bool sched, double slowdown) {
  pfs::PfsConfig cfg;
  cfg.name = "straggler-bench";
  cfg.stripe_factor = 4;
  cfg.stripe_unit = 16 * KiB;
  cfg.replicas = 2;
  cfg.server_bandwidth = 64.0 * MiB;
  cfg.server_latency = 1e-3;
  cfg.straggler_servers = slowdown > 1.0 ? 1 : 0;
  cfg.straggler_slowdown = slowdown;
  cfg.straggler_sched = sched;
  return cfg;
}

/// Time repeated whole-file reads against a mounted config; exports the
/// engine's counters and histograms as one RunReport entry per mode.
IoModeResult run_io_mode(const std::string& label, const pfs::PfsConfig& cfg) {
  namespace fsys = std::filesystem;
  const fsys::path root = fsys::temp_directory_path() /
                          ("pstap_bench_straggler_" +
                           std::to_string(::getpid()) + "_" + label);
  std::error_code ec;
  fsys::remove_all(root, ec);

  constexpr std::size_t kUnits = 64;  // 16 per server, 1 MiB total
  std::vector<std::byte> data(kUnits * 16 * KiB);
  Rng rng(4711);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_u64() & 0xFF);

  IoModeResult out;
  {
    pfs::StripedFileSystem pfs(root, cfg);
    pfs.write_file("cube", data);
    pfs::StripedFile f = pfs.open("cube");
    std::vector<std::byte> buf(data.size());
    constexpr int kWarmup = 4, kRounds = 10;
    for (int i = 0; i < kWarmup; ++i) f.read(0, buf);
    const Seconds t0 = monotonic_now();
    for (int i = 0; i < kRounds; ++i) f.read(0, buf);
    out.wall = monotonic_now() - t0;
    out.io = pfs.engine().stats();

    if (obs::report_enabled()) {
      obs::RunReport r;
      r.label = label;
      r.kind = "functional";
      r.config.machine = "pfs-microbench";
      r.config.io_strategy = "embedded";
      r.config.stripe_factor = cfg.stripe_factor;
      r.config.straggler_servers = static_cast<int>(cfg.straggler_servers);
      r.config.straggler_slowdown = cfg.straggler_slowdown;
      r.totals.wall_s = out.wall;
      r.totals.throughput_cpis_per_s = kRounds / out.wall;
      r.io = out.io;
      obs::ReportCollector::global().add(std::move(r));
    }
  }
  fsys::remove_all(root, ec);
  return out;
}

// ------------------------------------------------------------------------
// Result integrity: the defenses may only move bytes around, never change
// what the pipeline computes.

using DetKey = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t, std::uint32_t>;

std::set<DetKey> detection_keys(const std::vector<stap::Detection>& dets) {
  std::set<DetKey> keys;
  for (const auto& d : dets) keys.insert({d.cpi, d.bin, d.beam, d.range});
  return keys;
}

std::set<DetKey> run_pipeline_mode(const std::string& label, bool sched,
                                   double slowdown) {
  namespace fsys = std::filesystem;
  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::separate_io(p, {1, 1, 1, 1, 1, 1, 1, 1});
  pipeline::RunOptions opt;
  opt.cpis = 4;
  opt.warmup = 1;
  opt.seed = 77;
  opt.fs_root = fsys::temp_directory_path() /
                ("pstap_bench_straggler_pipe_" + std::to_string(::getpid())) /
                label;
  opt.scene.cnr_db = 40.0;
  opt.scene.targets = {{40, 8.0, 0.0, 18.0}, {90, 1.0, -0.35, 25.0}};
  opt.report_label = label;
  opt.fs_config = pfs::paragon_pfs(4);
  opt.fs_config.replicas = 2;
  opt.fs_config.server_latency = 2e-4;
  opt.fs_config.straggler_servers = slowdown > 1.0 ? 1 : 0;
  opt.fs_config.straggler_slowdown = slowdown;
  opt.fs_config.straggler_sched = sched;
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();
  std::error_code ec;
  fsys::remove_all(opt.fs_root.parent_path(), ec);
  return detection_keys(result.detections);
}

}  // namespace

int main() {
  // RunReport collection for the whole sweep: with PSTAP_REPORT set,
  // every run below lands in one document (obs/report.hpp).
  pstap::obs::ReportSession report_session;
  std::printf("== Ablation: one straggler I/O server (100 nodes) ==\n\n");

  const int total = 100;
  const std::vector<double> slowdowns{1.0, 2.0, 4.0, 8.0};

  bool all_ok = true;
  std::map<std::size_t, std::vector<double>> sweep;  // sf -> throughput/slowdown
  for (const std::size_t sf : {16u, 64u}) {
    BarSeries thr{"throughput — paragon-like sf=" + std::to_string(sf) +
                      ", 1 straggler server at various slowdowns",
                  "CPI/s",
                  {}};
    std::vector<double> t;
    for (const double slowdown : slowdowns) {
      auto machine = sim::paragon_like(sf);
      machine.straggler_servers = slowdown > 1.0 ? 1 : 0;
      machine.straggler_slowdown = slowdown;
      const auto result = sim::SimRunner(embedded_spec(total), machine).run();
      t.push_back(result.measured_throughput);
      char label[32];
      std::snprintf(label, sizeof label, "%gx", slowdown);
      thr.bars.emplace_back(label, result.measured_throughput);
    }
    print_bars(thr);
    sweep[sf] = t;

    // Monotone: a slower straggler never helps.
    for (std::size_t i = 1; i < t.size(); ++i) {
      all_ok &= shape_check("sf=" + std::to_string(sf) + ": slowdown " +
                                std::to_string(static_cast<int>(slowdowns[i])) +
                                "x does not beat " +
                                std::to_string(static_cast<int>(slowdowns[i - 1])) + "x",
                            t[i] <= t[i - 1] * 1.001);
    }
    // An 8x straggler must visibly gate the pipeline.
    all_ok &= shape_check("sf=" + std::to_string(sf) + ": 8x straggler costs throughput",
                          t.back() < t.front() * 0.999);
  }

  // Relative damage comparison at 4x: sf=16 (I/O bound) suffers at least
  // as much as sf=64 (overlapped). Reuses the sweep's runs (slowdown index
  // 0 is clean, index 2 is 4x) so each config lands in the RunReport
  // document exactly once.
  auto degradation = [&](std::size_t sf) { return sweep[sf][2] / sweep[sf][0]; };
  const double deg16 = degradation(16);
  const double deg64 = degradation(64);
  std::printf("retained throughput at 4x straggler: sf=16 %.3f, sf=64 %.3f\n\n",
              deg16, deg64);
  all_ok &= shape_check("4x straggler hurts sf=16 at least as much as sf=64",
                        deg16 <= deg64 + 1e-9);

  // ---------------------------------------------------------------------
  // Real pfs, one 5x straggler server: the defense (list-I/O coalescing
  // plus replica-balanced placement) off and on. Clean (no straggler)
  // baselines are taken per request shape (per-chunk vs coalesced list
  // I/O) so the recovery ratio isolates the straggler defense from the
  // list-I/O win.
  std::printf("\n== Straggler defense on the real pfs (1 of 4 servers 5x slow) ==\n\n");
  const double kSlow = 5.0;
  const IoModeResult clean_off = run_io_mode("straggler-io-clean-off",
                                             bench_pfs(false, 1.0));
  const IoModeResult clean_sched = run_io_mode("straggler-io-clean-sched",
                                               bench_pfs(true, 1.0));
  const IoModeResult off = run_io_mode("straggler-io-off", bench_pfs(false, kSlow));
  const IoModeResult sched = run_io_mode("straggler-io-sched", bench_pfs(true, kSlow));

  BarSeries grid{"wall time of 10 whole-file reads, 5x straggler",
                 "seconds",
                 {{"sched OFF", off.wall}, {"sched ON", sched.wall}}};
  print_bars(grid);
  std::printf("clean baselines: per-chunk %.3fs, coalesced %.3fs\n", clean_off.wall,
              clean_sched.wall);
  std::printf("defense counters (sched): stolen=%llu\n\n",
              static_cast<unsigned long long>(sched.io.chunks_stolen));

  // Scheduler OFF reproduces the baseline: every piece stays on its primary.
  all_ok &= shape_check("sched OFF: no pieces diverted", off.io.chunks_stolen == 0);
  // The straggler must actually hurt the undefended configuration.
  all_ok &= shape_check("5x straggler slows the undefended read path",
                        off.wall > clean_off.wall * 1.5);
  // Defense engaged: placement diverted the straggler's pieces.
  all_ok &= shape_check("sched: defense engaged (pieces diverted > 0)",
                        sched.io.chunks_stolen > 0);
  // The defense recovers at least 2x of the straggler-induced excess time
  // over the matching clean baseline.
  const double excess_off = off.wall - clean_off.wall;
  const double excess_sched = sched.wall - clean_sched.wall;
  std::printf("straggler-induced excess: undefended %.3fs, sched %.3fs\n", excess_off,
              excess_sched);
  all_ok &= shape_check("sched recovers >= 2x of the straggler excess",
                        excess_sched > 0 ? excess_off >= 2.0 * excess_sched : true);
  all_ok &= shape_check("defended straggler run beats undefended", sched.wall < off.wall);

  // ---------------------------------------------------------------------
  // Result integrity: detections are bit-identical with the defense on and
  // off — adaptive I/O may change timing, never results.
  std::printf("\n== Detection identity under the straggler (pipeline runs) ==\n\n");
  const auto det_clean = run_pipeline_mode("straggler-pipe-clean", false, 1.0);
  const auto det_off = run_pipeline_mode("straggler-pipe-off", false, kSlow);
  const auto det_sched = run_pipeline_mode("straggler-pipe-sched", true, kSlow);
  std::printf("detections: clean %zu, straggler sched-off %zu, sched-on %zu\n",
              det_clean.size(), det_off.size(), det_sched.size());
  all_ok &= shape_check("detections identical: clean vs straggler sched OFF",
                        det_clean == det_off);
  all_ok &= shape_check("detections identical: clean vs straggler sched ON",
                        det_clean == det_sched);

  std::printf("\nStraggler ablation shape checks: %s\n", all_ok ? "ALL PASS" : "FAILURES");
  return all_ok ? 0 : 1;
}
