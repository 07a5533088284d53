// Throughput and latency accounting — the paper's equations (1)–(4).
//
//   throughput = 1 / max_i T_i
//   latency    = sum of T_i along the spatial-dependency path, taking
//                max(easy BF, hard BF) across the fork and skipping the
//                weight tasks (their consumers use previous-CPI data).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/stats.hpp"
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

  /// I/O-side distributions and counters for one run: the run's
  /// IoEngine::stats() plus its retry and fault-plan counts. Functional
  /// runner only; empty in sim.
  obs::IoStats io;

  /// Supervisor::stats() plus the fault plan's injected crashes; all zero
  /// when the run is unsupervised (functional runner only).
  obs::RecoveryStats recovery;

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
