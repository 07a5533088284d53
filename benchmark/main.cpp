// Measured end-to-end benchmark of the functional STAP pipeline.
//
//   pstap_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--allow-env] [--cpis N] [--out-dir DIR]
//
// A single-threaded program: it calls pipeline::ThreadRunner::run() and
// times each call from outside, checks every CPI's detections against the
// sequential stap::StapChain reference, and prints as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones (medians over timed reps); with
// --trace 1 they are the per-layer ones, and a Chrome trace is written to
// DIR/out/<workload>.trace.json. Lines before the result start with '#'.
//
// Exit status: 0 correct, 1 some CPI dropped or wrong (the result line is
// still printed), 2 refused to run (bad arguments, PSTAP_* overrides
// without --allow-env, non-Release build), 3 any other error.
#include <malloc.h>
#include <sched.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"
#include "workloads.hpp"

extern char** environ;

namespace pstap::bench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool allow_env = false;
  int cpis = 0;  ///< 0: the workload's own N
  fs::path out_dir = "build-benchmark";
};

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw std::invalid_argument(flag + " expects a number, got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--allow-env") {
      a.allow_env = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " expects a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--cpis") {
      a.cpis = parse_number<int>(flag, value);
      if (a.cpis < 3) throw std::invalid_argument("--cpis must be at least 3");
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

/// PSTAP_* variables silently change a workload (PSTAP_STRAGGLER_SCHED
/// flips the scheduler at mount, PSTAP_SIMD / PSTAP_FTZ change the
/// kernels, PSTAP_TRACE / PSTAP_REPORT add output work).
std::vector<std::string> pstap_overrides() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::string_view(*e).starts_with("PSTAP_")) found.emplace_back(*e);
  }
  return found;
}

std::string fs_type(const fs::path& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

// Per-rep peak RSS. ru_maxrss cannot be reset: every exited rank thread
// folds the process high-water mark into it. The kernel's VmHWM can, so
// each rep gets its own peak. A stalled rank's unbounded inbox, and the
// flight ring every exited rank thread leaves behind, only ever add to a
// rep's peak: the smallest peak over the reps is the footprint every rep
// needs.
void reset_peak_rss() {
  malloc_trim(0);  // start from live memory, not what earlier reps left in arenas
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // reset VmHWM to the current RSS
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS (/proc/self/clear_refs)");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Removes the pfs root on every exit path.
struct ScratchDir {
  fs::path path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

void print_result(int attempted, int failed, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    if (std::isfinite(m.value)) {
      std::printf("%.17g", m.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
}

void print_rep(const char* label, const Rep& r, double rss_mb = 0) {
  std::printf("# %-8s T2 %.4f s  TN %.4f s  -> %.4g CPI/s  setup %.4f s  cpu %.4g ms/CPI",
              label, r.short_run.wall_s, r.long_run.wall_s, r.throughput_cpi_s(),
              r.setup_s(), r.cpu_ms_per_cpi());
  if (rss_mb > 0) std::printf("  peak RSS %.1f MB", rss_mb);
  std::printf("\n");
}

/// Warm-up rep (discarded), then timed reps until at least three are done
/// and `seconds` have passed; reports medians, and the smallest peak RSS.
int run_end_to_end(const Args& a, const Workload& w, const fs::path& fs_root) {
  const int n = a.cpis > 0 ? a.cpis : w.cpis;
  // Built before any run, and each rep is checked as soon as it ends, so
  // neither the reference nor old detections count in a rep's peak RSS.
  const Reference ref(w, a.seed);
  print_rep("warm-up", run_rep(w, a.seed, n, fs_root));
  int attempted = 0, failed = 0;
  std::vector<double> throughput, setup, cpu, rss;
  const auto start = std::chrono::steady_clock::now();
  while (throughput.size() < 3 ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
             a.seconds) {
    reset_peak_rss();
    const Rep r = run_rep(w, a.seed, n, fs_root);
    rss.push_back(peak_rss_mb());
    print_rep("rep", r, rss.back());
    attempted += 2 + n;
    failed += ref.failed_cpis(r);
    throughput.push_back(r.throughput_cpi_s());
    setup.push_back(r.setup_s());
    cpu.push_back(r.cpu_ms_per_cpi());
  }
  std::printf("# %zu timed reps; failed_cpi_frac %d/%d; reference detections %zu\n",
              throughput.size(), failed, attempted, ref.detections());
  print_result(attempted, failed,
               {{"throughput_cpi_s", median(throughput), "CPI/s"},
                {"setup_s", median(setup), "s"},
                {"cpu_ms_per_cpi", median(cpu), "ms"},
                {"peak_rss_mb", *std::min_element(rss.begin(), rss.end()), "MB"}});
  return failed == 0 ? 0 : 1;
}

/// Warm-up rep, one untraced rep, one traced rep plus bench-side replays
/// of each layer; reports the per-layer metrics.
int run_traced(const Args& a, const Workload& w, const fs::path& fs_root) {
  const int n = a.cpis > 0 ? a.cpis : w.cpis;
  const Reference ref(w, a.seed);
  print_rep("warm-up", run_rep(w, a.seed, n, fs_root));
  const Rep untraced = run_rep(w, a.seed, n, fs_root);
  print_rep("untraced", untraced);

  const fs::path trace_file = a.out_dir / "out" / (w.name + ".trace.json");
  fs::create_directories(trace_file.parent_path());
  Rep traced;
  Samples replays;
  std::vector<obs::TraceEvent> events;
  {
    // One session spans the traced rep and the replays, so the bench-side
    // spans share the program's trace (run()'s own session stays passive
    // inside it).
    const obs::TraceSession session(trace_file);
    traced = run_rep(w, a.seed, n, fs_root);
    replays = replay_layers(w, a.seed, fs_root);
    events = obs::TraceRecorder::global().snapshot();
  }
  print_rep("traced", traced);
  std::printf("# trace: %s (%zu events)\n", trace_file.c_str(), events.size());
  print_self_times(events, 12, std::cout);
  const Metrics metrics = layer_metrics(w, replays, untraced, traced, events, std::cout);
  const int failed = ref.failed_cpis(untraced) + ref.failed_cpis(traced);
  const int attempted = 2 * (2 + n);
  std::printf("# failed_cpi_frac %d/%d; reference detections %zu\n", failed, attempted,
              ref.detections());
  print_result(attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  Args a;
  Workload w;
  try {
    a = parse_args(argc, argv);
    w = make_workload(a.workload);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr,
                 "pstap_bench: %s\nusage: pstap_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--allow-env] [--cpis N] [--out-dir DIR]\n",
                 e.what());
    return 2;
  }
  const std::vector<std::string> overrides = pstap_overrides();
  if (!overrides.empty() && !a.allow_env) {
    std::fprintf(stderr,
                 "pstap_bench: refusing to run with %s set (it changes the workload); "
                 "unset it or pass --allow-env\n",
                 overrides.front().c_str());
    return 2;
  }
  const std::string build_type = PSTAP_BENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "pstap_bench: refusing to time a '%s' build; configure Release\n",
                 build_type.c_str());
    return 2;
  }

  fs::create_directories(a.out_dir);
  const ScratchDir scratch{a.out_dir / ("pfs-" + w.name + "-" + std::to_string(::getpid()))};
  std::string env = overrides.empty() ? "none" : "";
  for (const std::string& o : overrides) env += (env.empty() ? "" : ",") + o;
  const auto& p = w.spec.params;
  std::printf("# pstap benchmark: workload %s  seed %llu  seconds %g  trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);
  std::printf("# simd %s  nproc %d  build %s  pfs root fs %s  env overrides %s\n",
              simd::backend_name(simd::active()), online_cpus(), build_type.c_str(),
              fs_type(a.out_dir).c_str(), env.c_str());
  std::printf("# geometry %zux%zux%zu (%.1f MB/CPI), %zu tasks on %d ranks, %s\n",
              p.channels, p.pulses, p.ranges, static_cast<double>(p.cube_bytes()) * 1e-6,
              w.spec.tasks.size(), w.spec.total_nodes(), w.options.fs_config.name.c_str());
  std::fflush(stdout);
  return a.trace ? run_traced(a, w, scratch.path) : run_end_to_end(a, w, scratch.path);
}

}  // namespace
}  // namespace pstap::bench

int main(int argc, char** argv) {
  // A fixed mmap threshold (which also stops glibc from raising it after
  // the first large free) returns every CPI-sized buffer to the system when
  // it is freed. With the sliding default, freed cubes stay in per-thread
  // arenas and peak RSS on paper-embedded read 360-510 MB from run to run
  // for about 133 MB of live data; fixed, it reads 132.4-133.3 MB.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  try {
    return pstap::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pstap_bench: %s\n", e.what());
    return 3;
  }
}
