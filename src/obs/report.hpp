// Structured RunReport export: one versioned JSON document per run (or per
// bench sweep) carrying everything the paper's tables are built from —
// cube geometry, partition/task mapping, per-task phase distributions
// (p50/p95/p99 plus the full bucket dump, so histograms merge losslessly
// across runs), per-server I/O service-time histograms, recovery counters
// and wall/CPU time. scripts/report_diff.py consumes these to attribute
// end-to-end latency deltas to specific stages and servers; the ROADMAP's
// auto-partitioner is the next consumer.
//
// Schema versioning rule: "schema_version" counts breaking changes only.
// Adding a key is NOT a version bump (consumers must ignore unknown keys);
// removing, renaming or re-typing one is, and requires updating
// report_diff.py --validate plus the committed golden report in the same
// change.
//
// The `io` and `recovery` sections are the counter-family snapshots of
// obs/stats.hpp, not copies of them: a producer assigns its stats() result
// (`report.io = engine.stats()`), and the writer emits each family's
// kCounters table by name. A new counter therefore reaches the report, its
// validator and report_diff.py without touching this file.
//
// Producers (ThreadRunner, SimRunner, bench mains) build a RunReport and
// hand it to ReportCollector::global() when report_enabled(); a
// ReportSession — opened from RunOptions::report_path or $PSTAP_REPORT —
// owns the export, mirroring TraceSession's nesting rules, so a bench main
// holding the outer session collects every run it drives into one document.
//
// This library sits below common/ (it depends on nothing in pstap).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stats.hpp"

namespace pstap::obs {

inline constexpr int kReportSchemaVersion = 1;

/// Everything one run wants to say for itself. Fields left at their
/// defaults are still serialized (a report is a fixed-shape record, not a
/// sparse bag), except the optional `io` and `recovery` sections.
struct RunReport {
  std::string label;  ///< unique within a document; diff key
  std::string kind;   ///< "functional" | "sim"

  struct Geometry {
    std::size_t channels = 0;
    std::size_t pulses = 0;
    std::size_t ranges = 0;
    std::size_t beams = 0;
    std::size_t doppler_bins = 0;
    std::uint64_t cube_bytes = 0;
  };
  Geometry geometry;

  struct Config {
    std::string machine;       ///< sim machine model name; "" for functional
    std::string io_strategy;   ///< "embedded" | "separate"
    bool combined_pc_cfar = false;
    std::size_t stripe_factor = 0;
    std::string simd_backend;  ///< from simd::active() at run time
    int cpis = 0;
    int warmup = 0;
    int total_nodes = 0;
    bool pin_threads = false;
    bool numa_interleave = false;
    int straggler_servers = 0;       ///< sim: slowed I/O servers
    double straggler_slowdown = 1.0;
  };
  Config config;

  struct Totals {
    double throughput_cpis_per_s = 0;
    double latency_s = 0;
    double wall_s = 0;   ///< functional only (sim time is not wall time)
    double cpu_s = 0;    ///< process CPU, functional only
    int dropped_cpis = 0;
  };
  Totals totals;

  /// One measured phase of one task. `mean_s` is the scalar the paper's
  /// tables print (slowest node's average); `hist` keeps the per-CPI tail
  /// (empty in sim reports for receive/compute/send, which are modeled
  /// constants — sim contributes a "service" phase histogram instead).
  struct Phase {
    std::string name;  ///< "receive" | "compute" | "send" | "service"
    double mean_s = 0;
    Histogram hist;
  };
  struct Task {
    std::string name;
    int nodes = 0;
    std::vector<Phase> phases;
  };
  std::vector<Task> tasks;

  /// Functional runs only. The writer emits `queue_depth_peak` (from
  /// `queue_depth.max()`), then every IoStats::kCounters entry, then the
  /// histograms.
  std::optional<IoStats> io;

  /// Supervised functional runs only: every RecoveryStats::kCounters entry.
  std::optional<RecoveryStats> recovery;

  /// Serialize this report as one JSON object (no enclosing document).
  void write_json(std::ostream& out) const;
};

/// Write a full report document: {"schema_version":1,"generator":"pstap",
/// "reports":[...]}. Rendered in memory and written in one pass.
void write_report_document(std::ostream& out, std::span<const RunReport> reports);
void write_report_document(const std::filesystem::path& path,
                           std::span<const RunReport> reports);

namespace detail {
extern std::atomic<bool> g_report_enabled;
}  // namespace detail

/// True while a ReportSession is collecting; producers skip report
/// assembly entirely when false.
inline bool report_enabled() {
  return detail::g_report_enabled.load(std::memory_order_relaxed);
}

/// Process-wide accumulator the active session drains on destruction.
class ReportCollector {
 public:
  static ReportCollector& global();

  void add(RunReport report);
  std::vector<RunReport> snapshot() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<RunReport> reports_;
};

/// Scope that turns report collection on and writes the document on exit.
/// Mirrors TraceSession: `path` empty means "consult $PSTAP_REPORT"; unset
/// too -> passive. Nested inside an active session -> passive, so an outer
/// owner (a bench main) collects every run into one document. An active
/// session clears the collector on entry: one session == one document.
class ReportSession {
 public:
  explicit ReportSession(std::filesystem::path path = {});
  ~ReportSession();
  ReportSession(const ReportSession&) = delete;
  ReportSession& operator=(const ReportSession&) = delete;

  bool active() const noexcept { return active_; }
  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
  bool active_ = false;
};

}  // namespace pstap::obs
