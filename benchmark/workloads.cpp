#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"
#include "stap/chain.hpp"
#include "stap/scene.hpp"

namespace pstap::bench {

namespace {

/// Clutter plus one easy-bin and one hard-bin target, placed relative to
/// the geometry, so every CPI has detections to compare.
stap::SceneConfig scene_for(const stap::RadarParams& p) {
  stap::SceneConfig scene;
  scene.cnr_db = 40.0;
  const double easy_bin = static_cast<double>(p.doppler_bins() / 2);
  scene.targets = {{p.ranges * 3 / 10, easy_bin, 0.0, 18.0},
                   {p.ranges * 7 / 10, 1.0, -0.35, 25.0}};
  return scene;
}

Workload base(std::string name, pipeline::PipelineSpec spec, int cpis) {
  Workload w;
  w.name = std::move(name);
  w.options.scene = scene_for(spec.params);
  w.options.fs_config = pfs::paragon_pfs(4);
  w.spec = std::move(spec);
  w.cpis = cpis;
  return w;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

TimedRun timed_run(const pipeline::PipelineSpec& spec,
                   const pipeline::RunOptions& opt) {
  pipeline::ThreadRunner runner(spec, opt);
  TimedRun run;
  const double cpu0 = cpu_seconds();
  run.start_ns = obs::trace_now_ns();
  run.result = runner.run();
  run.end_ns = obs::trace_now_ns();
  run.cpu_s = cpu_seconds() - cpu0;
  run.wall_s = static_cast<double>(run.end_ns - run.start_ns) * 1e-9;
  std::filesystem::remove_all(opt.fs_root);
  return run;
}

}  // namespace

Workload make_workload(const std::string& name) {
  // Every task gets one node, the minimum each organization allows.
  const stap::RadarParams paper;  // 16 x 128 x 1024, the EXPERIMENTS.md geometry
  if (name == "paper-embedded") {
    return base(name, pipeline::PipelineSpec::embedded_io(paper, {1, 1, 1, 1, 1, 1, 1}),
                130);
  }
  if (name == "small-separate") {
    return base(name,
                pipeline::PipelineSpec::separate_io(stap::RadarParams::test_small(),
                                                    {1, 1, 1, 1, 1, 1, 1, 1}),
                4000);
  }
  if (name == "paper-io-straggler") {
    Workload w =
        base(name, pipeline::PipelineSpec::combined(paper, {1, 1, 1, 1, 1, 1}), 24);
    pfs::PfsConfig& fs = w.options.fs_config;
    fs.server_bandwidth = 96.0 * MiB;
    fs.replicas = 2;
    fs.straggler_servers = 1;  // stripe directory 0 ...
    fs.straggler_slowdown = 4.0;  // ... serves 4x slower
    fs.straggler_sched = true;
    w.options.detection_log = "detections";
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double Rep::throughput_cpi_s() const {
  return (cpis - 2) / (long_run.wall_s - short_run.wall_s);
}

double Rep::setup_s() const { return short_run.wall_s - 2.0 / throughput_cpi_s(); }

double Rep::cpu_ms_per_cpi() const {
  return 1e3 * (long_run.cpu_s - short_run.cpu_s) / (cpis - 2);
}

Rep run_rep(const Workload& w, std::uint64_t seed, int cpis,
            const std::filesystem::path& fs_root) {
  pipeline::RunOptions opt = w.options;
  opt.seed = seed;
  opt.fs_root = fs_root;
  opt.warmup = 1;
  Rep rep;
  rep.cpis = cpis;
  opt.cpis = 2;
  rep.short_run = timed_run(w.spec, opt);
  opt.cpis = cpis;
  rep.long_run = timed_run(w.spec, opt);
  return rep;
}

Reference::Reference(const Workload& w, std::uint64_t seed) {
  const std::size_t files = w.options.round_robin_files;
  const stap::SceneGenerator gen(w.spec.params, w.options.scene, seed);
  stap::StapChain chain(w.spec.params);
  for (std::size_t k = 0; k <= files; ++k) {
    auto& keys = expected_.emplace_back();
    for (const stap::Detection& d : chain.push(gen.generate(k % files))) {
      keys.insert({d.bin, d.beam, d.range});
    }
  }
}

int Reference::failed_cpis(const Rep& rep) const {
  return failed_cpis(rep.short_run.result, 2) + failed_cpis(rep.long_run.result, rep.cpis);
}

int Reference::failed_cpis(const pipeline::RunResult& run, int cpis) const {
  std::vector<std::set<Key>> got(static_cast<std::size_t>(cpis));
  int failed = 0;
  for (const stap::Detection& d : run.detections) {
    if (d.cpi >= got.size()) {
      ++failed;  // a report for a CPI the run never pushed
      continue;
    }
    got[d.cpi].insert({d.bin, d.beam, d.range});
  }
  const std::size_t files = expected_.size() - 1;
  for (int c = 0; c < cpis; ++c) {
    const auto& want = expected_[c == 0 ? 0 : (static_cast<std::size_t>(c) - 1) % files + 1];
    const bool dropped =
        std::binary_search(run.dropped_cpis.begin(), run.dropped_cpis.end(), c);
    if (dropped || got[static_cast<std::size_t>(c)] != want) ++failed;
  }
  return failed;
}

std::size_t Reference::detections() const {
  std::size_t n = 0;
  for (const auto& keys : expected_) n += keys.size();
  return n;
}

}  // namespace pstap::bench
