// ThreadRunner: functional execution of a PipelineSpec.
//
// Every node of the paper's machine becomes an mp thread-rank running the
// real STAP kernels on real striped files: the Doppler task (or the
// separate parallel-read task) reads its exclusive file region per CPI —
// asynchronously prefetching the next CPI where the file system supports
// it — and the stages exchange data slices exactly along the paper's
// spatial/temporal dependency edges. The result carries both the fused
// detection reports (for correctness checks) and per-task phase timings
// (receive / compute / send, averaged over the timed CPIs).
//
// Wall-clock numbers from this backend reflect the host, not the paper's
// machines — the reproduced tables come from sim::SimRunner. This backend
// exists to prove the pipeline organizations *work* end to end.
#pragma once

#include <filesystem>
#include <memory>
#include <vector>

#include "common/fault.hpp"
#include "common/retry.hpp"
#include "mp/world.hpp"
#include "pfs/striped_file_system.hpp"
#include "pipeline/metrics.hpp"
#include "pipeline/supervisor.hpp"
#include "pipeline/task_spec.hpp"
#include "stap/cfar.hpp"
#include "stap/cube_io.hpp"
#include "stap/scene.hpp"
#include "stap/weights.hpp"

namespace pstap::pipeline {

struct RunOptions {
  int cpis = 4;        ///< CPIs pushed through the pipeline
  int warmup = 1;      ///< leading CPIs excluded from the timing averages
  std::uint64_t seed = 1;
  stap::SceneConfig scene;
  std::filesystem::path fs_root;            ///< striped file system mount point
  pfs::PfsConfig fs_config;                 ///< defaults to paragon_pfs(4)
  std::size_t round_robin_files = 4;        ///< the paper's 4-file rotation

  /// On-disk CPI element order. kPulseMajor (an ADC streaming order) makes
  /// per-node slab reads strided; supported for embedded I/O only.
  stap::FileLayout file_layout = stap::FileLayout::kRangeMajor;

  /// With kPulseMajor + embedded I/O: use the two-phase collective read
  /// (conforming reads + interconnect redistribution) instead of per-node
  /// strided gather reads.
  bool collective_io = false;

  /// If non-empty, the fused detection reports are written back to the
  /// striped file system as a detection log of this name (one block per
  /// CPI; see stap::DetectionLogWriter) — the pipeline's output side.
  std::string detection_log;

  /// Retry policy for every per-CPI slab read — embedded, separate-task,
  /// collective and failover. Transient I/O faults are retried up to
  /// max_attempts times with exponential backoff from initial_backoff,
  /// each attempt bounded by attempt_timeout (0 = unbounded); a read that
  /// still fails drops its CPI. The default is fail-fast: one attempt, no
  /// timeout. The constructor rejects max_attempts < 1 and negative
  /// backoff or timeout.
  RetryPolicy io_retry;

  /// Fault plan installed (process-wide, via fault::FaultScope) for the
  /// duration of run() — the radar-side writes and the pipeline reads both
  /// run under it, so arm read sites ("pfs.server.read.*") rather than a
  /// whole server when only the pipeline side should fault.
  std::shared_ptr<fault::FaultPlan> fault_plan;

  /// Supervision and recovery (see pipeline/supervisor.hpp). When enabled,
  /// ranks beat and expose crash sites "pipeline.rank.<R>" (CPI start) and
  /// "pipeline.rank.<R>.send" (send-phase start); a crashed compute rank is
  /// respawned and replays from its checkpoint, a crashed separate-I/O rank
  /// triggers Doppler failover to embedded reads. Not combinable with
  /// collective_io (collectives have no replay path). Crash sites are only
  /// evaluated under supervision — an unsupervised crash would wedge peers.
  SupervisorOptions supervise;

  /// Chrome trace_event JSON output. Non-empty: run() records a trace (per
  /// rank/CPI/phase spans, I/O server activity, fault markers) and writes
  /// it here. Empty: the PSTAP_TRACE environment variable is consulted;
  /// unset leaves tracing off (one relaxed load per would-be event).
  std::filesystem::path trace_path;

  /// Structured RunReport JSON output (obs/report.hpp): geometry, config,
  /// per-task phase histograms, per-server I/O service times, recovery
  /// counters. Non-empty: run() writes the report document here. Empty:
  /// the PSTAP_REPORT environment variable is consulted; unset leaves
  /// reporting off. When an outer ReportSession is already active (a bench
  /// main collecting a sweep) this run contributes to its document instead.
  std::filesystem::path report_path;

  /// Report label (the diff key in report_diff.py). Empty -> derived:
  /// "functional <io-strategy> n=<total_nodes>".
  std::string report_label;

  /// Rank-thread placement (thread pinning, NUMA intent) passed straight to
  /// the mp::World backing the run. Default: unpinned, as before.
  mp::WorldOptions world;

  RunOptions() : fs_config(pfs::paragon_pfs(4)) {}
};

struct RunResult {
  PipelineMetrics metrics;                  ///< per-task phase times (averaged)
  std::vector<stap::Detection> detections;  ///< all CPIs, cpi field filled
  int timed_cpis = 0;

  /// CPIs dropped by graceful degradation (ascending, deduplicated): each
  /// CPI with a failed slab read, and the CPI after it, whose weights were
  /// trained on the zero-filled slab. Their detections are suppressed;
  /// metrics.dropped_cpis is the count.
  std::vector<int> dropped_cpis;
};

class ThreadRunner {
 public:
  ThreadRunner(PipelineSpec spec, RunOptions options);

  /// Write the round-robin CPI files (the radar side), spin up one thread
  /// per node, run options.cpis CPIs through the pipeline and collect
  /// timings and detections. May be called repeatedly.
  RunResult run();

  const PipelineSpec& spec() const noexcept { return spec_; }

 private:
  PipelineSpec spec_;
  RunOptions options_;
};

}  // namespace pstap::pipeline
