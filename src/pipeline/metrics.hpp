// Throughput and latency accounting — the paper's equations (1)–(4).
//
//   throughput = 1 / max_i T_i
//   latency    = sum of T_i along the spatial-dependency path, taking
//                max(easy BF, hard BF) across the fork and skipping the
//                weight tasks (their consumers use previous-CPI data).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "pipeline/task_spec.hpp"

namespace pstap::pipeline {

/// Measured (or simulated) execution time of one task, split into the
/// paper's three phases.
struct TaskTiming {
  TaskKind kind{};
  int nodes = 0;
  Seconds receive = 0;
  Seconds compute = 0;
  Seconds send = 0;

  /// Per-CPI phase-duration distributions, merged across every node of the
  /// task (the scalar fields above report only the slowest node's average;
  /// the histograms keep the tail). Functional runner only; empty in sim.
  obs::Histogram receive_hist;
  obs::Histogram compute_hist;
  obs::Histogram send_hist;

  Seconds total() const { return receive + compute + send; }
};

/// Result of running a pipeline configuration.
struct PipelineMetrics {
  std::vector<TaskTiming> tasks;  ///< pipeline order, matching the spec

  /// CPIs abandoned by graceful degradation: their input read failed
  /// permanently, the pipeline zero-filled the slab and suppressed the
  /// CPI's detections instead of wedging (functional runner only).
  int dropped_cpis = 0;

  /// I/O-side distributions for one run, copied from the run's IoEngine
  /// (plus fault/retry counters). Functional runner only; empty in sim.
  struct IoStats {
    obs::Histogram queue_depth;     ///< per-submit stripe-queue depth
    obs::Histogram service_time;    ///< per-chunk service seconds
    obs::Histogram submit_latency;  ///< per-logical-request submit seconds
    /// service_time split per stripe directory (index = server id): the
    /// straggler signal, persisted into RunReports for the scheduler.
    std::vector<obs::Histogram> server_service_time;
    std::uint64_t bytes_serviced = 0;
    std::uint64_t retries = 0;          ///< retry sleeps during the run
    std::uint64_t injected_delays = 0;  ///< from the run's fault plan
    std::uint64_t injected_errors = 0;
    std::uint64_t injected_partials = 0;
    std::uint64_t injected_corruptions = 0;
    std::uint64_t corrupt_chunks = 0;       ///< checksum mismatches caught
    std::uint64_t quarantined_servers = 0;  ///< circuit-breaker trips
    // Straggler-defense counters (zero unless straggler_sched is on):
    std::uint64_t hedges_launched = 0;   ///< speculative backup reads issued
    std::uint64_t hedge_wins = 0;        ///< backups that beat the original
    std::uint64_t hedge_cancels = 0;     ///< losing twins discarded
    std::uint64_t chunks_stolen = 0;     ///< read pieces moved off slow primaries
    std::uint64_t deadline_expired = 0;  ///< in-flight jobs past their deadline
    std::uint64_t breaker_reopened = 0;  ///< quarantined servers re-admitted
  };
  IoStats io;

  /// Supervision-and-recovery counters for one run; all zero when the run
  /// is unsupervised (functional runner only).
  struct Recovery {
    std::uint64_t injected_crashes = 0;   ///< from the run's fault plan
    std::uint64_t crashes_detected = 0;   ///< deaths the monitor handled
    std::uint64_t ranks_respawned = 0;
    std::uint64_t io_failovers = 0;       ///< I/O-task ranks abandoned
    std::uint64_t promoted_reads = 0;     ///< slab pieces Doppler self-read
    std::uint64_t replayed_messages = 0;  ///< checkpoint-log replay hits
    std::uint64_t checkpoint_peak_bytes = 0;
    Seconds max_detection_delay = 0;  ///< worst death -> recovery-action gap
  };
  Recovery recovery;

  /// CPIs per second: 1 / max_i T_i (paper eq. 1/3).
  double throughput() const;

  /// Seconds from a CPI entering the pipeline to its detection report
  /// (paper eq. 2/4): sum over the spatial path, max over the BF fork,
  /// weight tasks excluded.
  Seconds latency() const;

  /// T_i of the task with the given kind (-1 -> throws).
  Seconds task_time(TaskKind kind) const;
};

}  // namespace pstap::pipeline
