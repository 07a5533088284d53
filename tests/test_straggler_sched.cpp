// The straggler defense (DESIGN.md §12): list-I/O coalescing equivalence,
// replica-balanced placement, reads under modeled and injected stragglers,
// breaker failover, and the circuit breaker's half-open probe. Runs under
// the `stress` label (TSan in CI): concurrent readers on a throttled,
// replicated mount are exactly the traffic a sanitizer must see clean.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "pfs/striped_file_system.hpp"

namespace pstap::pfs {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("pstap_straggler_test_" + std::to_string(::getpid()) + "_" +
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

/// Replicated config with the straggler defense on.
PfsConfig sched_cfg(std::size_t factor, std::size_t unit) {
  PfsConfig cfg;
  cfg.name = "sched-test";
  cfg.stripe_factor = factor;
  cfg.stripe_unit = unit;
  cfg.replicas = 2;
  cfg.straggler_sched = true;
  return cfg;
}

// ------------------------------------------------------------ list I/O --

// With the scheduler ON, reads and writes must stay bit-exact vs. the
// plain per-chunk path — coalescing only changes the request shape.
TEST(StragglerSched, CoalescedRoundTripMatchesPerChunk) {
  TempDir tmp;
  const auto data = pattern_bytes(64 * 1024 + 123, 101);
  {
    auto cfg = sched_cfg(4, 512);
    StripedFileSystem pfs(tmp.path() / "on", cfg);
    pfs.write_file("f", data);
    EXPECT_EQ(pfs.read_file("f"), data);
  }
  {
    auto cfg = sched_cfg(4, 512);
    cfg.straggler_sched = false;
    StripedFileSystem pfs(tmp.path() / "off", cfg);
    pfs.write_file("f", data);
    EXPECT_EQ(pfs.read_file("f"), data);
  }
}

// A strided gather over many stripe units collapses into at most one job
// per (server, fd): the submit-sampled queue-depth histogram must gain
// exactly stripe_factor samples even though the gather covers 64 chunks.
TEST(StragglerSched, GatherCoalescesToOneJobPerServer) {
  TempDir tmp;
  auto cfg = sched_cfg(4, 256);
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(256 * 64, 102);  // 64 chunks over 4 dirs
  pfs.write_file("f", data);

  const std::uint64_t writes_sampled = pfs.engine().stats().queue_depth.count();
  StripedFile f = pfs.open("f");
  std::vector<std::byte> buf(data.size());
  std::vector<StripedFile::IoSegment> segs;
  for (std::size_t i = 0; i < 64; ++i) {  // one segment per chunk
    segs.push_back({static_cast<std::uint64_t>(i) * 256,
                    std::span<std::byte>(buf).subspan(i * 256, 256)});
  }
  IoRequest req = f.iread_gather(segs);
  req.wait();
  EXPECT_EQ(buf, data);
  // 64 chunks, 4 servers -> exactly 4 submits (one list job per server).
  EXPECT_EQ(pfs.engine().stats().queue_depth.count() - writes_sampled, 4u);
}

// Per-chunk mode must preserve the old accounting: one job per chunk.
TEST(StragglerSched, SchedulerOffKeepsPerChunkJobs) {
  TempDir tmp;
  auto cfg = sched_cfg(4, 256);
  cfg.straggler_sched = false;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(256 * 16, 103);
  pfs.write_file("f", data);
  const std::uint64_t before = pfs.engine().stats().queue_depth.count();
  EXPECT_EQ(pfs.read_file("f"), data);
  EXPECT_EQ(pfs.engine().stats().queue_depth.count() - before, 16u);
}

// The PSTAP_STRAGGLER_SCHED environment variable overrides the config
// flag in both directions at mount time.
TEST(StragglerSched, EnvOverrideControlsScheduler) {
  PfsConfig cfg;
  cfg.straggler_sched = false;
  ::setenv("PSTAP_STRAGGLER_SCHED", "1", 1);
  apply_env_overrides(cfg);
  EXPECT_TRUE(cfg.straggler_sched);
  ::setenv("PSTAP_STRAGGLER_SCHED", "0", 1);
  apply_env_overrides(cfg);
  EXPECT_FALSE(cfg.straggler_sched);
  cfg.straggler_sched = true;
  ::setenv("PSTAP_STRAGGLER_SCHED", "off", 1);
  apply_env_overrides(cfg);
  EXPECT_FALSE(cfg.straggler_sched);
  ::unsetenv("PSTAP_STRAGGLER_SCHED");
  cfg.straggler_sched = true;
  apply_env_overrides(cfg);  // unset -> leaves the config flag alone
  EXPECT_TRUE(cfg.straggler_sched);
}

// ------------------------------------------------------ straggler reads --

// A straggler (server 0 modeled 20x slower) on a mount whose rate model
// starts cold: the first reads wait for it, then placement learns the
// straggler from those reads and diverts its share. Every read is
// bit-exact and every logical byte is serviced exactly once.
TEST(StragglerSched, ReadsRecoverFromStragglerAndCountOnce) {
  TempDir tmp;
  auto cfg = sched_cfg(4, 1024);
  cfg.server_bandwidth = 4.0 * MiB;
  cfg.server_latency = 200e-6;
  cfg.straggler_servers = 1;
  cfg.straggler_slowdown = 20.0;
  const auto data = pattern_bytes(1024 * 64, 104);
  {
    // Written through a separate mount, so this mount's rate model starts
    // cold and learns the straggler from its own reads.
    StripedFileSystem writer(tmp.path(), cfg);
    writer.write_file("f", data);
  }
  StripedFileSystem pfs(tmp.path(), cfg);

  StripedFile f = pfs.open("f");
  const std::uint64_t bytes_before = pfs.engine().stats().bytes_serviced;
  std::uint64_t logical = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<std::byte> buf(data.size());
    f.read(0, buf);
    ASSERT_EQ(buf, data) << "round " << round;
    logical += buf.size();
  }
  // Exactly-once accounting: serviced bytes grow by the logical bytes
  // read — diverted pieces count once, and none may be lost.
  EXPECT_EQ(pfs.engine().stats().bytes_serviced - bytes_before, logical);
  EXPECT_GT(pfs.engine().stats().chunks_stolen, 0u)
      << "placement must divert a 20x straggler's share once it is learned";
  EXPECT_EQ(pfs.engine().stats().corrupt_chunks, 0u);
}

// wait() stays idempotent on a straggler mount: double wait and polling
// after completion.
TEST(StragglerSched, WaitIsIdempotentUnderStraggler) {
  TempDir tmp;
  auto cfg = sched_cfg(2, 512);
  cfg.server_bandwidth = 2.0 * MiB;
  cfg.server_latency = 100e-6;
  cfg.straggler_servers = 1;
  cfg.straggler_slowdown = 16.0;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(512 * 32, 105);
  pfs.write_file("f", data);
  StripedFile f = pfs.open("f");
  for (int round = 0; round < 6; ++round) {
    std::vector<std::byte> buf(data.size());
    IoRequest req = f.iread(0, buf);
    req.wait();
    EXPECT_NO_THROW(req.wait());
    EXPECT_TRUE(req.done());
    EXPECT_EQ(req.failed_chunks(), 0u);
    EXPECT_EQ(buf, data);
  }
}

// Concurrent readers on a straggler mount, with placement diverting
// pieces while the other readers' jobs are queued: every reader sees its
// own correct bytes, and every logical byte is serviced exactly once.
TEST(StragglerSched, ConcurrentReadersUnderStragglerSeeCorrectBytes) {
  TempDir tmp;
  auto cfg = sched_cfg(4, 512);
  cfg.server_bandwidth = 8.0 * MiB;
  cfg.server_latency = 100e-6;
  cfg.straggler_servers = 1;
  cfg.straggler_slowdown = 12.0;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(512 * 48, 106);
  pfs.write_file("f", data);
  const std::uint64_t bytes_before = pfs.engine().stats().bytes_serviced;

  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      StripedFile f = pfs.open("f");
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::byte> buf(data.size());
        f.read(0, buf);
        if (buf != data) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pfs.engine().stats().bytes_serviced - bytes_before,
            std::uint64_t{kThreads} * kRounds * data.size());
  EXPECT_EQ(pfs.engine().stats().corrupt_chunks, 0u);
}

// Jobs stalled in flight on sd000 (injected service delays, not a modeled
// slowdown). Placement decides at submit, so a job already in service
// waits its stall out; this is the one case a hedged replica read could
// shorten (measured in EXPERIMENTS.md). Concurrent readers keep jobs
// queued behind the stalls. Bytes stay exact, every logical byte is
// serviced once, and nothing is flagged corrupt.
TEST(StragglerSched, InFlightStallsKeepBytesExactAndCountOnce) {
  TempDir tmp;
  constexpr std::size_t kUnit = 4096;
  auto cfg = sched_cfg(4, kUnit);
  cfg.server_bandwidth = 32.0 * MiB;
  cfg.server_latency = 100e-6;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(kUnit * 64, 107);
  pfs.write_file("f", data);
  const std::uint64_t bytes_before = pfs.engine().stats().bytes_serviced;

  auto plan = std::make_shared<fault::FaultPlan>(71);
  plan->arm_delay("pfs.server.read.sd000", 0.5, 5e-3, 20e-3);
  fault::FaultScope scope(plan);

  constexpr int kThreads = 2;
  constexpr int kRounds = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      StripedFile f = pfs.open("f");
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::byte> buf(data.size());
        f.read(0, buf);
        if (buf != data) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(plan->injected_delays(), 0u);
  EXPECT_EQ(pfs.engine().stats().bytes_serviced - bytes_before,
            std::uint64_t{kThreads} * kRounds * data.size());
  EXPECT_EQ(pfs.engine().stats().corrupt_chunks, 0u);
}

// ------------------------------------------------------ breaker failover --

// Reads fail on sd000 until its breaker trips. Jobs already queued there
// are not moved: they run and fail, and the retry resubmits them routed to
// the replica. Every read ends bit-exact.
TEST(StragglerSched, QuarantinedServerReadsStayCorrect) {
  TempDir tmp;
  auto cfg = sched_cfg(2, 512);
  cfg.quarantine_threshold = 2;
  cfg.server_bandwidth = 2.0 * MiB;  // slow service: jobs linger queued
  cfg.server_latency = 500e-6;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(512 * 24, 108);
  pfs.write_file("f", data);

  auto plan = std::make_shared<fault::FaultPlan>(73);
  plan->arm_transient_error("pfs.server.read.sd000", 1.0, /*max_hits=*/4);
  fault::FaultScope scope(plan);

  StripedFile f = pfs.open("f");
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = 1e-4;
  for (int round = 0; round < 6; ++round) {
    std::vector<std::byte> buf(data.size());
    with_retry(policy, "straggler read", [&] { f.read(0, buf); });
    ASSERT_EQ(buf, data);
  }
  EXPECT_GT(pfs.engine().stats().quarantined_servers, 0u);
}

// ------------------------------------------- replica-balanced placement --

/// 256 one-byte stripe units over 4 directories: a server's share B is 64
/// bytes, and at one second per byte makespans read directly in B/r.
std::vector<ReadUnit> cpi_units() {
  std::vector<ReadUnit> units;
  for (std::size_t u = 0; u < 256; ++u) units.push_back({u % 4, 1});
  return units;
}

double makespan(const std::vector<double>& load, const std::vector<double>& rate) {
  double latest = 0;
  for (std::size_t s = 0; s < load.size(); ++s) latest = std::max(latest, load[s] * rate[s]);
  return latest;
}

// sd000 4x slow: all-primary takes 4 B/r. Spreading its units down the
// replica chain must come within 2 % of the optimum 4 / 3.25 B/r.
TEST(StragglerSched, PlanReadUnitsSpreadsSlowServerShare) {
  const auto units = cpi_units();
  const std::vector<double> rate = {4, 1, 1, 1};
  std::vector<double> load(4, 0.0);
  const auto servers = plan_read_units(units, rate, std::vector<bool>(4, true), load);
  ASSERT_EQ(servers.size(), units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    const std::size_t d = units[i].dir;
    EXPECT_TRUE(servers[i] == d || servers[i] == (d + 1) % 4) << "unit " << i;
  }
  EXPECT_LE(makespan(load, rate) / 64.0, 1.25);
}

TEST(StragglerSched, PlanReadUnitsKeepsEqualRatesOnPrimaries) {
  const auto units = cpi_units();
  std::vector<double> load(4, 0.0);
  const auto servers = plan_read_units(units, std::vector<double>(4, 1.0),
                                       std::vector<bool>(4, true), load);
  for (std::size_t i = 0; i < units.size(); ++i) EXPECT_EQ(servers[i], units[i].dir);
}

// A quarantined server is never chosen, however fast it looks: sd000's
// units all fail over, and sd003's stay home although sd000 would finish
// them first.
TEST(StragglerSched, PlanReadUnitsNeverChoosesQuarantinedServer) {
  const auto units = cpi_units();
  const std::vector<double> rate = {0.25, 1, 1, 4};
  std::vector<double> load(4, 0.0);
  const auto servers = plan_read_units(units, rate, {false, true, true, true}, load);
  for (std::size_t i = 0; i < units.size(); ++i) EXPECT_NE(servers[i], 0u) << "unit " << i;
}

// A throttled 4-server mount with sd000 4x slow: a whole-file read is
// spread over the replica servers at submit time, bytes stay exact, each
// logical byte is serviced once, and the diversions count as stolen. Then
// a read of directory 0's units alone, so sd001 serves nothing but
// diverted pieces, with a corruption armed on sd001: the catch proves the
// diverted pieces are CRC-verified.
TEST(StragglerSched, BalancedPlacementSpreadsStragglerReads) {
  TempDir tmp;
  constexpr std::size_t kUnit = 4096;
  auto cfg = sched_cfg(4, kUnit);
  cfg.server_bandwidth = 32.0 * MiB;
  cfg.straggler_servers = 1;
  cfg.straggler_slowdown = 4.0;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(kUnit * 64, 111);  // 16 units per directory
  pfs.write_file("f", data);  // two jobs per server warm the rate model
  ASSERT_TRUE(pfs.engine().slow_servers()[0]);

  StripedFile f = pfs.open("f");
  const std::uint64_t bytes_before = pfs.engine().stats().bytes_serviced;
  std::vector<std::byte> buf(data.size());
  f.read(0, buf);
  EXPECT_EQ(buf, data);
  EXPECT_EQ(pfs.engine().stats().bytes_serviced - bytes_before, data.size());
  EXPECT_GT(pfs.engine().stats().chunks_stolen, 0u);
  EXPECT_EQ(pfs.engine().stats().corrupt_chunks, 0u);

  auto plan = std::make_shared<fault::FaultPlan>(89);
  plan->arm_corruption("pfs.server.read.sd001", 1.0, /*max_hits=*/1);
  fault::FaultScope scope(plan);
  std::vector<std::byte> dir0(16 * kUnit);
  std::vector<StripedFile::IoSegment> segs;
  for (std::size_t i = 0; i < 16; ++i) {
    segs.push_back({static_cast<std::uint64_t>(i) * 4 * kUnit,
                    std::span<std::byte>(dir0).subspan(i * kUnit, kUnit)});
  }
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = 1e-4;
  with_retry(policy, "directory-0 gather", [&] { f.iread_gather(segs).wait(); });
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(std::equal(dir0.begin() + i * kUnit, dir0.begin() + (i + 1) * kUnit,
                           data.begin() + i * 4 * kUnit))
        << "unit " << i * 4;
  }
  EXPECT_EQ(plan->injected_corruptions(), 1u);
  EXPECT_EQ(pfs.engine().stats().corrupt_chunks, 1u)
      << "a diverted piece must be CRC-verified";
}

// ------------------------------------------------- breaker half-open --

// With a probe interval, a quarantined server that recovered rejoins: the
// first read after the interval probes it, closes the breaker, and bumps
// breaker_reopened.
TEST(StragglerBreaker, HalfOpenProbeReadmitsRecoveredServer) {
  TempDir tmp;
  PfsConfig cfg;
  cfg.name = "probe";
  cfg.stripe_factor = 2;
  cfg.stripe_unit = 256;
  cfg.replicas = 2;
  cfg.quarantine_threshold = 2;
  cfg.breaker_probe_interval = 100e-3;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(1500, 109);
  pfs.write_file("f", data);

  auto plan = std::make_shared<fault::FaultPlan>(79);
  // sd000 serves 3 of the 6 chunks; all 3 fail once, then the "server"
  // is healthy again (hit budget exhausted).
  plan->arm_transient_error("pfs.server.read.sd000", 1.0, /*max_hits=*/3);
  fault::FaultScope scope(plan);

  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = 1e-4;
  EXPECT_EQ(with_retry(policy, "read", [&] { return pfs.read_file("f"); }),
            data);
  EXPECT_TRUE(pfs.engine().quarantined(0));
  EXPECT_EQ(pfs.engine().stats().breaker_reopened, 0u);

  // Probe interval elapses -> quarantined() decays to half-open and admits
  // the next read as the probe; the fault budget is spent, so the probe
  // succeeds and the breaker closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(pfs.engine().quarantined(0)) << "probe window must admit traffic";
  EXPECT_EQ(pfs.read_file("f"), data);
  EXPECT_EQ(pfs.engine().stats().breaker_reopened, 1u);
  EXPECT_FALSE(pfs.engine().quarantined(0));
}

TEST(StragglerBreaker, FailedProbeReopensBreaker) {
  TempDir tmp;
  PfsConfig cfg;
  cfg.name = "probe-fail";
  cfg.stripe_factor = 2;
  cfg.stripe_unit = 256;
  cfg.replicas = 2;
  cfg.quarantine_threshold = 2;
  cfg.breaker_probe_interval = 60e-3;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(1200, 110);
  pfs.write_file("f", data);

  auto plan = std::make_shared<fault::FaultPlan>(83);
  plan->arm_transient_error("pfs.server.read.sd000", 1.0);  // never recovers
  fault::FaultScope scope(plan);

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = 1e-4;
  EXPECT_EQ(with_retry(policy, "read", [&] { return pfs.read_file("f"); }),
            data);
  EXPECT_TRUE(pfs.engine().quarantined(0));

  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  EXPECT_FALSE(pfs.engine().quarantined(0));  // half-open: probe admitted
  // The probe read fails (fault still armed) and re-opens the breaker; the
  // retry path then redirects to the replica as before.
  EXPECT_EQ(with_retry(policy, "probe read",
                       [&] { return pfs.read_file("f"); }),
            data);
  EXPECT_EQ(pfs.engine().stats().breaker_reopened, 0u);
  EXPECT_TRUE(pfs.engine().quarantined(0));
}

}  // namespace
}  // namespace pstap::pfs
