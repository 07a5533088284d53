// The benchmark's workloads, the timed unit of work (a rep), and the
// sequential reference every measured CPI is checked against.
//
// A rep is two ThreadRunner::run() calls in one process, cpis = 2 and
// cpis = N, both with warmup = 1, each timed from outside. The difference
// of the two cancels everything a run pays once (mount, scene generation,
// radar-side writes, rank spawn, pipeline fill/drain) and leaves the
// steady-state cost of N - 2 CPIs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "pipeline/thread_runner.hpp"

namespace pstap::bench {

struct Workload {
  std::string name;
  pipeline::PipelineSpec spec;
  pipeline::RunOptions options;  ///< everything except cpis, seed and fs_root
  int cpis = 0;  ///< N, the CPIs of the long run() of each rep
};

/// The named workload (the names BENCHMARK.json lists); throws
/// std::invalid_argument for any other name.
Workload make_workload(const std::string& name);

/// One run() timed from outside the program.
struct TimedRun {
  std::int64_t start_ns = 0, end_ns = 0;  ///< trace clock (steady_clock)
  double wall_s = 0;
  double cpu_s = 0;  ///< process CPU time, all threads (getrusage)
  pipeline::RunResult result;
};

struct Rep {
  int cpis = 0;  ///< N
  TimedRun short_run;  ///< cpis = 2
  TimedRun long_run;   ///< cpis = N

  /// (N - 2) / (T_N - T_2): steady-state CPIs per second.
  double throughput_cpi_s() const;
  /// T_2 - 2 / throughput: what one run() pays besides its CPIs.
  double setup_s() const;
  /// (C_N - C_2) / (N - 2), in milliseconds.
  double cpu_ms_per_cpi() const;
};

/// Run one rep of `w` on a file system rooted at `fs_root`, which is
/// deleted after each run().
Rep run_rep(const Workload& w, std::uint64_t seed, int cpis,
            const std::filesystem::path& fs_root);

/// Detections of the sequential stap::StapChain on the same input files.
/// The radar rotates `round_robin_files` files and weights train on the
/// previous CPI, so CPI c >= 1 depends only on files (c-1) % F and c % F:
/// F reference sets cover every such CPI, plus CPI 0 (conventional weights).
class Reference {
 public:
  Reference(const Workload& w, std::uint64_t seed);

  /// CPIs of both runs of a rep that were dropped, or whose (bin, beam,
  /// range) keys differ from the reference.
  int failed_cpis(const Rep& rep) const;

  /// Reference detections summed over CPI 0 and the F steady-state sets.
  std::size_t detections() const;

 private:
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;
  int failed_cpis(const pipeline::RunResult& run, int cpis) const;

  std::vector<std::set<Key>> expected_;  ///< [0]: CPI 0; [k]: (c-1) % F == k-1
};

}  // namespace pstap::bench
