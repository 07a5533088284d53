// Counter families: one plain snapshot struct per family, shared by the
// code that produces the counters (IoEngine::stats(), Supervisor::stats()),
// the run result that carries them (PipelineMetrics) and the RunReport that
// exports them. Each struct lists its scalar counters once, in `kCounters`:
// the RunReport writer emits exactly those keys in that order, so adding a
// counter is one field, one table entry and its increment.
//
// Like the rest of obs/, this header depends on nothing in pstap.
#pragma once

#include <array>
#include <cstdint>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"

namespace pstap::obs {

/// One scalar of a counter family: `name` is its RunReport key (and the
/// name report_diff.py prints), `member` reads it from a snapshot.
template <class Stats>
struct CounterField {
  const char* name;
  std::variant<std::uint64_t Stats::*, double Stats::*> member;
};

/// I/O-side distributions and counters of one IoEngine (one mount), plus
/// the retry and fault-plan counts a pipeline run adds to them.
struct IoStats {
  Histogram queue_depth;     ///< per-submit stripe-queue depth
  Histogram service_time;    ///< per-job service seconds
  Histogram submit_latency;  ///< per-logical-request submit seconds
  /// service_time split per stripe directory (index = server id): the
  /// straggler signal, persisted into RunReports.
  std::vector<Histogram> server_service_time;

  /// Bytes serviced (reads + writes); a chunk's bytes count exactly once.
  std::uint64_t bytes_serviced = 0;
  std::uint64_t retries = 0;          ///< retry sleeps during the run
  std::uint64_t injected_delays = 0;  ///< from the run's fault plan
  std::uint64_t injected_errors = 0;
  std::uint64_t injected_partials = 0;
  std::uint64_t injected_corruptions = 0;
  std::uint64_t corrupt_chunks = 0;       ///< CRC32C mismatches caught
  std::uint64_t quarantined_servers = 0;  ///< circuit-breaker trips
  // Straggler-defense counters (zero unless straggler_sched is on):
  std::uint64_t hedges_launched = 0;  ///< retired with hedged reads, always 0
  std::uint64_t hedge_wins = 0;       ///< retired with hedged reads, always 0
  std::uint64_t hedge_cancels = 0;    ///< retired with hedged reads, always 0
  /// Read pieces replica-balanced placement moved off a slow primary onto
  /// its replica at submit.
  std::uint64_t chunks_stolen = 0;
  std::uint64_t deadline_expired = 0;  ///< retired with deadlines, always 0
  std::uint64_t breaker_reopened = 0;  ///< quarantined servers re-admitted

  static constexpr std::array<CounterField<IoStats>, 14> kCounters{{
      {"bytes_serviced", &IoStats::bytes_serviced},
      {"retries", &IoStats::retries},
      {"injected_delays", &IoStats::injected_delays},
      {"injected_errors", &IoStats::injected_errors},
      {"injected_partials", &IoStats::injected_partials},
      {"injected_corruptions", &IoStats::injected_corruptions},
      {"corrupt_chunks", &IoStats::corrupt_chunks},
      {"quarantined_servers", &IoStats::quarantined_servers},
      {"hedges_launched", &IoStats::hedges_launched},
      {"hedge_wins", &IoStats::hedge_wins},
      {"hedge_cancels", &IoStats::hedge_cancels},
      {"chunks_stolen", &IoStats::chunks_stolen},
      {"deadline_expired", &IoStats::deadline_expired},
      {"breaker_reopened", &IoStats::breaker_reopened},
  }};
};

/// Supervision-and-recovery counters of one run; all zero when the run is
/// unsupervised.
struct RecoveryStats {
  std::uint64_t injected_crashes = 0;   ///< from the run's fault plan
  std::uint64_t crashes_detected = 0;   ///< deaths the monitor handled
  std::uint64_t ranks_respawned = 0;
  std::uint64_t io_failovers = 0;       ///< I/O-task ranks abandoned
  std::uint64_t promoted_reads = 0;     ///< slab pieces Doppler self-read
  std::uint64_t replayed_messages = 0;  ///< checkpoint-log replay hits
  std::uint64_t checkpoint_peak_bytes = 0;
  double max_detection_delay = 0;  ///< seconds, worst death -> monitor action

  static constexpr std::array<CounterField<RecoveryStats>, 8> kCounters{{
      {"injected_crashes", &RecoveryStats::injected_crashes},
      {"crashes_detected", &RecoveryStats::crashes_detected},
      {"ranks_respawned", &RecoveryStats::ranks_respawned},
      {"io_failovers", &RecoveryStats::io_failovers},
      {"promoted_reads", &RecoveryStats::promoted_reads},
      {"replayed_messages", &RecoveryStats::replayed_messages},
      {"checkpoint_peak_bytes", &RecoveryStats::checkpoint_peak_bytes},
      {"max_detection_delay_s", &RecoveryStats::max_detection_delay},
  }};
};

}  // namespace pstap::obs
