// Client-side straggler-aware I/O scheduler (DESIGN.md §12).
//
// A single background thread per IoEngine that turns the per-server
// service-time histograms the engine already records into defensive
// action, Tavakoli-style:
//
//   * rolling quantiles — per stripe directory, over a sliding window
//     (bucket-count deltas against a baseline re-taken every
//     `sched_window`), so a recovered server sheds its slow history;
//   * quantile deadlines — every submitted job gets an absolute deadline
//     of now + max(floor, kHedgeMultiplier x healthy p-quantile), where
//     "healthy" is the MEDIAN across servers — a straggler cannot
//     inflate its own deadline and dodge the defense;
//   * hedged reads — a hedge-capable job (read with a replica) that
//     outlives its service budget gets a speculative twin submitted to
//     the FRONT of the replica server's queue; first completion wins the
//     chunk claim, the loser is discarded without touching user memory,
//     metrics, or the checksum catalog (see detail::ChunkState);
//   * queue stealing — jobs still QUEUED on a quarantined server, or on a
//     slow one (IoEngine::slow_servers: seconds-per-byte > kStealFactor x
//     the median) whose replica is expected to finish them sooner, are
//     moved to the replica server's queue, fd swapped to the replica copy;
//   * EDF reorder — queues are kept sorted by deadline, so stolen jobs
//     (carrying old deadlines) drain ahead of the fast server's fresh
//     work.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "pfs/config.hpp"
#include "pfs/io_engine.hpp"

namespace pstap::pfs {

/// Per-server service-time quantile feeding chunk deadlines (p99, per
/// Tavakoli-style client-side scheduling).
inline constexpr double kDeadlineQuantile = 0.99;

/// Chunk deadline budget = kHedgeMultiplier x the healthy-server quantile
/// (the median across servers, so one straggler cannot inflate its own
/// deadline and dodge hedging).
inline constexpr double kHedgeMultiplier = 2.0;

class StragglerScheduler {
 public:
  StragglerScheduler(IoEngine& engine, const PfsConfig& config);
  ~StragglerScheduler();

  StragglerScheduler(const StragglerScheduler&) = delete;
  StragglerScheduler& operator=(const StragglerScheduler&) = delete;

  /// Absolute deadline for a job submitted to `server` now: monotonic now
  /// plus the current healthy-quantile budget. Called from IoEngine::submit.
  Seconds assign_deadline(std::size_t server) const;

  /// Register a hedge-capable job (read, replica available): the scan loop
  /// watches its ChunkState and may launch a backup. Copies the job (the
  /// copy shares the request/chunk state and points at the same pieces).
  void track(const IoEngine::Job& job);

  /// Current per-chunk service budget (test/bench introspection).
  Seconds current_budget() const {
    return budget_.load(std::memory_order_relaxed);
  }

 private:
  struct Tracked {
    IoEngine::Job job;  ///< template for the backup twin
  };

  /// Rolling-window view of one server's service-time histogram.
  struct Window {
    std::array<std::uint64_t, obs::Histogram::kBuckets> baseline{};
    std::array<std::uint64_t, obs::Histogram::kBuckets> delta{};
    std::uint64_t samples = 0;
    double pq = 0.0;  ///< kDeadlineQuantile
  };

  void run();
  void refresh_quantiles(Seconds now);
  void hedge_scan(Seconds now);
  void steal_scan();
  void reorder_queues();
  double window_quantile(const Window& w, double p) const;

  IoEngine& engine_;
  const PfsConfig cfg_;

  std::vector<Window> windows_;
  Seconds last_rebaseline_ = 0;
  std::atomic<double> budget_{0.0};  ///< hedge/deadline budget, seconds

  std::mutex tracked_mu_;
  std::vector<Tracked> tracked_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace pstap::pfs
