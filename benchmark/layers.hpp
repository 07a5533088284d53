// Traced-mode measurement, split by the repository's layers: pfs (striped
// file system + IoEngine), mp (thread-rank message passing), stap (the
// kernels; fft/linalg run inside them), pipeline (ThreadRunner stages,
// eqs. 1-4) and obs (tracing itself).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace pstap::bench {

/// Per-call seconds of each replayed function, keyed by span name.
using Samples = std::map<std::string, std::vector<double>>;

/// Bench-side replays at the workload's geometry: >= 20 timed calls into
/// each layer's public functions (stap kernels, pfs write/read of a CPI
/// file on a scratch mount at `scratch_root`, mp ping-pong between two
/// ranks). Each call runs under an obs::ScopedSpan, so with a trace
/// session active it lands in the same trace as the program's spans.
Samples replay_layers(const Workload& w, std::uint64_t seed,
                      const std::filesystem::path& scratch_root);

/// Every per-layer metric, in BENCHMARK.json order: replay quantiles, the
/// untraced rep's I/O counters and eq. 1/2 model values, and the traced
/// rep's spans (`events`: per-task phases, per-CPI latency, I/O service
/// and submit times). The per-task phase table goes to `log`.
Metrics layer_metrics(const Workload& w, const Samples& replays, const Rep& untraced,
                      const Rep& traced, const std::vector<obs::TraceEvent>& events,
                      std::ostream& log);

/// Print the `top` span kinds by total self time: a span's duration minus
/// the part of it covered by spans nested inside it on the same thread.
void print_self_times(const std::vector<obs::TraceEvent>& events, std::size_t top,
                      std::ostream& log);

}  // namespace pstap::bench
