#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string_view>

#include "mp/world.hpp"
#include "pipeline/partition.hpp"
#include "stap/beamform.hpp"
#include "stap/cfar.hpp"
#include "stap/chain.hpp"
#include "stap/cube_io.hpp"
#include "stap/doppler.hpp"
#include "stap/pulse_compress.hpp"
#include "stap/scene.hpp"
#include "stap/weights.hpp"
#include "stap/workload.hpp"

namespace pstap::bench {

namespace {

constexpr int kCalls = 20;               // timed calls per replayed function
constexpr std::int32_t kBenchPid = 800;  // trace stream of the bench-side spans

/// One untimed call (first-touch allocation, lazy set-up), then kCalls
/// timed ones. `prepare(i)` runs before call i, outside its span.
template <typename Call, typename Prepare>
void replay(Samples& samples, const char* name, Call&& call, Prepare&& prepare) {
  std::vector<double>& out = samples[name];
  for (int i = 0; i <= kCalls; ++i) {
    prepare(i);
    double seconds = 0;
    {
      obs::ScopedSpan span("bench", name, kBenchPid, &seconds);
      call(i);
    }
    if (i > 0) out.push_back(seconds);
  }
}

template <typename Call>
void replay(Samples& samples, const char* name, Call&& call) {
  replay(samples, name, std::forward<Call>(call), [](int) {});
}

/// Ping-pong between two ranks through pooled zero-copy buffers, packing
/// and unpacking each payload as the pipeline's stages do. Rank 0 times
/// the round trips.
void replay_mp(Samples& samples, std::size_t small_bytes, std::size_t bulk_bytes) {
  constexpr int kTag = 1;
  struct Stream {
    const char* name;
    std::size_t bytes;
  };
  const Stream streams[] = {{"mp.pingpong", small_bytes}, {"mp.bulk_msg", bulk_bytes}};
  std::deque<mp::BufferPool> pools(2);  // before the world: payloads die first
  mp::World world(2);
  world.run([&](mp::Comm& comm) {
    const int peer = 1 - comm.rank();
    mp::BufferPool& pool = pools[static_cast<std::size_t>(comm.rank())];
    std::vector<std::byte> src(bulk_bytes), dst(bulk_bytes);
    const auto send = [&](std::size_t bytes) {
      mp::Buffer payload = pool.acquire(bytes);
      std::memcpy(payload.data(), src.data(), bytes);
      comm.send_buffer(peer, kTag, std::move(payload));
    };
    const auto recv = [&] {
      const mp::Buffer payload = comm.recv_buffer(peer, kTag);
      std::memcpy(dst.data(), payload.data(), payload.size());
    };
    for (const Stream& stream : streams) {
      if (comm.rank() == 0) {
        replay(samples, stream.name, [&](int) {
          send(stream.bytes);
          recv();
        });
      } else {
        for (int i = 0; i <= kCalls; ++i) {
          recv();
          send(stream.bytes);
        }
      }
    }
  });
}

/// Doppler's easy-bin spectra to easy beamforming: the bulk per-CPI stream.
std::size_t bulk_message_bytes(const stap::RadarParams& p) {
  return p.easy_bin_count() * p.easy_dof() * p.ranges * sizeof(cfloat);
}

bool is_span(const obs::TraceEvent& e, std::string_view cat, const TimedRun& window) {
  return e.kind == obs::TraceEvent::Kind::kComplete && cat == e.cat &&
         e.ts_ns >= window.start_ns && e.ts_ns <= window.end_ns;
}

}  // namespace

Samples replay_layers(const Workload& w, std::uint64_t seed,
                      const std::filesystem::path& scratch_root) {
  obs::TraceRecorder::global().set_process_name(kBenchPid, "pstap_bench");
  const stap::RadarParams& p = w.spec.params;
  const std::size_t files = w.options.round_robin_files;
  Samples s;

  // stap: each kernel is fed the previous one's output, as in StapChain.
  const stap::SceneGenerator gen(p, w.options.scene, seed);
  stap::DataCube cube;
  replay(s, "stap.scene_generate",
         [&](int i) { cube = gen.generate(static_cast<std::uint64_t>(i) % files); });
  const stap::DopplerFilter doppler(p);
  stap::DopplerOutput spectra;
  replay(s, "stap.doppler", [&](int) { doppler.process_into(cube, spectra); });
  const stap::WeightComputer wc_easy(p, spectra.easy_bin_ids, p.easy_dof());
  const stap::WeightComputer wc_hard(p, spectra.hard_bin_ids, p.hard_dof());
  stap::WeightSet w_easy, w_hard;
  replay(s, "stap.weights_easy", [&](int) { w_easy = wc_easy.compute(spectra.easy); });
  replay(s, "stap.weights_hard", [&](int) { w_hard = wc_hard.compute(spectra.hard); });
  const stap::Beamformer bf(p);
  stap::BeamArray beams_easy, beams_hard;
  replay(s, "stap.beamform_easy", [&](int) { beams_easy = bf.apply(spectra.easy, w_easy); });
  replay(s, "stap.beamform_hard", [&](int) { beams_hard = bf.apply(spectra.hard, w_hard); });
  // Compression works in place, so each call gets a fresh copy of the
  // beams, made outside its span.
  const stap::PulseCompressor pc(p);
  stap::BeamArray pc_easy(beams_easy.bins(), p.beams, p.ranges);
  stap::BeamArray pc_hard(beams_hard.bins(), p.beams, p.ranges);
  replay(
      s, "stap.pulse_compress",
      [&](int) {
        pc.compress(pc_easy);
        pc.compress(pc_hard);
      },
      [&](int) {
        std::ranges::copy(beams_easy.flat(), pc_easy.flat().begin());
        std::ranges::copy(beams_hard.flat(), pc_hard.flat().begin());
      });
  const stap::CfarDetector cfar(p);
  std::vector<stap::Detection> hits;
  replay(s, "stap.cfar", [&](int) {
    hits = cfar.detect(pc_easy, spectra.easy_bin_ids);
    const auto hard_hits = cfar.detect(pc_hard, spectra.hard_bin_ids);
    hits.insert(hits.end(), hard_hits.begin(), hard_hits.end());
  });
  stap::StapChain chain(p);
  replay(s, "stap.chain", [&](int) { hits = chain.push(cube); });

  // pfs: the radar-side write and the first stage's per-CPI read, on a
  // scratch mount with the workload's file-system configuration.
  {
    pfs::StripedFileSystem fs(scratch_root, w.options.fs_config);
    replay(s, "pfs.write_cpi", [&](int i) {
      stap::write_cpi(fs, stap::round_robin_name(static_cast<std::uint64_t>(i), files),
                      cube, w.options.file_layout);
    });
    const pipeline::BlockPartition slabs(
        p.ranges, static_cast<std::size_t>(w.spec.tasks.front().nodes));
    std::vector<pfs::StripedFile> handles;
    for (std::size_t f = 0; f < files; ++f) {
      handles.push_back(fs.open(stap::round_robin_name(f, files)));
    }
    replay(s, "pfs.read_slab", [&](int i) {
      cube = stap::read_cpi_slab(handles[static_cast<std::size_t>(i) % files], p,
                                 slabs.begin(0), slabs.end(0), w.options.file_layout);
    });
  }
  std::filesystem::remove_all(scratch_root);

  // mp: the weight sets are every organization's smallest per-CPI message.
  const stap::WorkloadModel model(p);
  replay_mp(s,
            static_cast<std::size_t>(
                std::min(model.weights_easy().out_bytes, model.weights_hard().out_bytes)),
            bulk_message_bytes(p));
  return s;
}

Metrics layer_metrics(const Workload& w, const Samples& replays, const Rep& untraced,
                      const Rep& traced, const std::vector<obs::TraceEvent>& events,
                      std::ostream& log) {
  const stap::RadarParams& p = w.spec.params;
  const pipeline::PipelineSpec& spec = w.spec;
  const stap::WorkloadModel model(p);
  const TimedRun& window = traced.long_run;  // spans of the traced N-CPI run
  Metrics m;
  const auto at = [&](const char* name, double q) { return quantile(replays.at(name), q); };
  const auto gflops = [&](double flops, const char* name) {
    return flops / at(name, 0.5) * 1e-9;
  };

  // ---- stap (bench-side replays)
  m.push_back({"stap.scene_generate_s_p50", at("stap.scene_generate", 0.5), "s"});
  m.push_back({"stap.doppler_s_p50", at("stap.doppler", 0.5), "s"});
  m.push_back({"stap.doppler_s_p90", at("stap.doppler", 0.9), "s"});
  m.push_back({"stap.doppler_gflops", gflops(model.doppler().flops, "stap.doppler"),
               "GFLOP/s"});
  m.push_back({"stap.weights_easy_s_p50", at("stap.weights_easy", 0.5), "s"});
  m.push_back({"stap.weights_hard_s_p50", at("stap.weights_hard", 0.5), "s"});
  m.push_back({"stap.weights_hard_gflops",
               gflops(model.weights_hard().flops, "stap.weights_hard"), "GFLOP/s"});
  m.push_back({"stap.beamform_easy_s_p50", at("stap.beamform_easy", 0.5), "s"});
  m.push_back({"stap.beamform_hard_s_p50", at("stap.beamform_hard", 0.5), "s"});
  m.push_back({"stap.pulse_compress_s_p50", at("stap.pulse_compress", 0.5), "s"});
  m.push_back({"stap.pulse_compress_gflops",
               gflops(model.pulse_compression().flops, "stap.pulse_compress"),
               "GFLOP/s"});
  m.push_back({"stap.cfar_s_p50", at("stap.cfar", 0.5), "s"});
  const double chain_s = at("stap.chain", 0.5);
  m.push_back({"stap.chain_s_p50", chain_s, "s"});

  // ---- pfs: replays, the untraced rep's engine counters, traced spans
  const double cube_mb = static_cast<double>(p.cube_bytes()) * 1e-6;
  const pipeline::BlockPartition slabs(p.ranges,
                                       static_cast<std::size_t>(spec.tasks.front().nodes));
  const double slab_mb = cube_mb * static_cast<double>(slabs.size(0)) /
                         static_cast<double>(p.ranges);
  m.push_back({"pfs.write_cpi_s_p50", at("pfs.write_cpi", 0.5), "s"});
  m.push_back({"pfs.write_mb_s", cube_mb / at("pfs.write_cpi", 0.5), "MB/s"});
  m.push_back({"pfs.read_slab_s_p50", at("pfs.read_slab", 0.5), "s"});
  m.push_back({"pfs.read_slab_s_p90", at("pfs.read_slab", 0.9), "s"});
  m.push_back({"pfs.read_mb_s", slab_mb / at("pfs.read_slab", 0.5), "MB/s"});

  const auto& io = untraced.long_run.result.metrics.io;
  m.push_back({"pfs.queue_depth_p50", io.queue_depth.quantile(0.5), "jobs"});
  m.push_back({"pfs.queue_depth_p99", io.queue_depth.quantile(0.99), "jobs"});
  std::vector<double> service, submit;
  std::vector<std::vector<double>> per_server(w.options.fs_config.stripe_factor);
  for (const obs::TraceEvent& e : events) {
    if (!is_span(e, "io", window)) continue;
    const double seconds = static_cast<double>(e.dur_ns) * 1e-9;
    if (e.name == "serve.read") {
      service.push_back(seconds);
      per_server.at(static_cast<std::size_t>(e.pid - obs::kIoServerPidBase))
          .push_back(seconds);
    } else if (e.name == "submit.read" || e.name == "submit.gather") {
      submit.push_back(seconds);
    }
  }
  std::vector<double> server_p50;
  for (const auto& v : per_server) {
    if (!v.empty()) server_p50.push_back(median(v));
  }
  const double skew = server_p50.empty()
                          ? 0.0
                          : *std::max_element(server_p50.begin(), server_p50.end()) /
                                median(server_p50);
  m.push_back({"pfs.service_s_p50", quantile(service, 0.5), "s"});
  m.push_back({"pfs.service_s_p99", quantile(service, 0.99), "s"});
  m.push_back({"pfs.submit_s_p50", quantile(submit, 0.5), "s"});
  m.push_back({"pfs.submit_s_p99", quantile(submit, 0.99), "s"});
  const auto& io_short = untraced.short_run.result.metrics.io;
  m.push_back({"pfs.bytes_per_cpi",
               static_cast<double>(io.bytes_serviced - io_short.bytes_serviced) /
                   (untraced.cpis - 2),
               "B"});
  m.push_back({"pfs.server_skew", skew, "ratio"});
  m.push_back({"pfs.retries", static_cast<double>(io.retries), "count"});
  m.push_back({"pfs.deadline_expired", static_cast<double>(io.deadline_expired), "count"});
  m.push_back({"pfs.hedges_launched", static_cast<double>(io.hedges_launched), "count"});
  m.push_back({"pfs.hedge_win_frac",
               io.hedges_launched == 0 ? 0.0
                                       : static_cast<double>(io.hedge_wins) /
                                             static_cast<double>(io.hedges_launched),
               "fraction"});
  m.push_back({"pfs.chunks_stolen", static_cast<double>(io.chunks_stolen), "count"});
  log << "# pfs straggler defense (untraced N run): hedges " << io.hedge_wins
      << " won of " << io.hedges_launched << " launched, " << io.chunks_stolen
      << " chunks stolen, " << io.deadline_expired << " deadlines expired\n";

  // ---- mp (one-way time = half a round trip)
  m.push_back({"mp.pingpong_s_p50", at("mp.pingpong", 0.5) / 2, "s"});
  m.push_back({"mp.bulk_msg_s_p50", at("mp.bulk_msg", 0.5) / 2, "s"});
  m.push_back({"mp.bulk_mb_s",
               static_cast<double>(bulk_message_bytes(p)) * 1e-6 /
                   (at("mp.bulk_msg", 0.5) / 2),
               "MB/s"});

  // ---- pipeline: per-task phases from the traced run's rank spans. Tasks
  // own contiguous rank blocks in pipeline order.
  std::vector<int> task_of_rank;
  for (std::size_t t = 0; t < spec.tasks.size(); ++t) {
    task_of_rank.insert(task_of_rank.end(), static_cast<std::size_t>(spec.tasks[t].nodes),
                        static_cast<int>(t));
  }
  const auto task_of = [&](const obs::TraceEvent& e) {
    return e.pid >= 0 && static_cast<std::size_t>(e.pid) < task_of_rank.size()
               ? task_of_rank[static_cast<std::size_t>(e.pid)]
               : -1;
  };
  const std::array<const char*, 3> phases = {"receive", "compute", "send"};
  std::vector<std::array<std::vector<double>, 3>> phase_s(spec.tasks.size());
  const int tail = static_cast<int>(spec.tasks.size()) - 1;
  std::map<std::int64_t, std::int64_t> born, done;  // cpi -> head start / tail end
  for (const obs::TraceEvent& e : events) {
    if (!is_span(e, "pipeline", window) || e.cpi < 1) continue;  // CPI 0 is warm-up
    const int t = task_of(e);
    for (std::size_t ph = 0; ph < phases.size(); ++ph) {
      if (t >= 0 && e.name == phases[ph]) {
        phase_s[static_cast<std::size_t>(t)][ph].push_back(
            static_cast<double>(e.dur_ns) * 1e-9);
      }
    }
    if (t == 0 && e.name == "receive") {
      const auto [it, fresh] = born.try_emplace(e.cpi, e.ts_ns);
      if (!fresh) it->second = std::min(it->second, e.ts_ns);
    } else if (t == tail && e.name == "compute") {
      const auto [it, fresh] = done.try_emplace(e.cpi, e.ts_ns + e.dur_ns);
      if (!fresh) it->second = std::max(it->second, e.ts_ns + e.dur_ns);
    }
  }
  std::vector<std::array<double, 3>> phase_p50(spec.tasks.size());
  char line[160];
  log << "# task             nodes  receive_p50_s  compute_p50_s  send_p50_s\n";
  for (std::size_t t = 0; t < spec.tasks.size(); ++t) {
    for (std::size_t ph = 0; ph < phases.size(); ++ph) {
      phase_p50[t][ph] = median(phase_s[t][ph]);
    }
    std::snprintf(line, sizeof line, "# %-16s %5d  %13.6g  %13.6g  %10.6g\n",
                  pipeline::task_name(spec.tasks[t].kind), spec.tasks[t].nodes,
                  phase_p50[t][0], phase_p50[t][1], phase_p50[t][2]);
    log << line;
  }
  // Stages every organization has; head is the stage that reads the files
  // (the read task, or Doppler with embedded I/O) and tail emits detections.
  using pipeline::TaskKind;
  const std::pair<const char*, int> stages[] = {
      {"head", 0},
      {"doppler", spec.find(TaskKind::kDoppler)},
      {"weights_easy", spec.find(TaskKind::kWeightsEasy)},
      {"weights_hard", spec.find(TaskKind::kWeightsHard)},
      {"beamform_easy", spec.find(TaskKind::kBeamformEasy)},
      {"beamform_hard", spec.find(TaskKind::kBeamformHard)},
      {"tail", tail}};
  for (const auto& [label, t] : stages) {
    for (std::size_t ph = 0; ph < phases.size(); ++ph) {
      m.push_back({std::string("pipeline.") + label + "." + phases[ph] + "_s_p50",
                   phase_p50.at(static_cast<std::size_t>(t))[ph], "s"});
    }
  }

  // ---- pipeline model check against the untraced rep
  const double throughput = untraced.throughput_cpi_s();
  const double eq1 = untraced.long_run.result.metrics.throughput();
  const double eq2 = untraced.long_run.result.metrics.latency();
  m.push_back({"pipeline.eq1_throughput_cpi_s", eq1, "CPI/s"});
  m.push_back({"pipeline.eq1_residual", eq1 / throughput - 1, "ratio"});
  m.push_back({"pipeline.eq2_latency_s", eq2, "s"});
  m.push_back({"pipeline.cores_busy", untraced.cpu_ms_per_cpi() * throughput * 1e-3,
               "cores"});
  m.push_back({"pipeline.speedup_vs_chain", throughput * chain_s, "ratio"});

  // ---- measured per-CPI latency: the head's receive start to the tail's
  // compute end, for the same CPI
  std::vector<double> latency;
  for (const auto& [cpi, start] : born) {
    if (const auto it = done.find(cpi); it != done.end()) {
      latency.push_back(static_cast<double>(it->second - start) * 1e-9);
    }
  }
  const double latency_p50 = quantile(latency, 0.5);
  m.push_back({"pipeline.cpi_latency_s_p50", latency_p50, "s"});
  m.push_back({"pipeline.cpi_latency_s_p90", quantile(latency, 0.9), "s"});
  m.push_back({"pipeline.eq2_residual", eq2 / latency_p50 - 1, "ratio"});
  m.push_back({"trace.overhead_frac", throughput / traced.throughput_cpi_s() - 1,
               "fraction"});
  return m;
}

void print_self_times(const std::vector<obs::TraceEvent>& events, std::size_t top,
                      std::ostream& log) {
  std::map<std::int64_t, std::vector<const obs::TraceEvent*>> by_thread;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::TraceEvent::Kind::kComplete) by_thread[e.tid].push_back(&e);
  }
  struct Total {
    std::size_t count = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Total> totals;  // "cat/name" -> self time
  for (auto& [tid, spans] : by_thread) {
    // Parents first: earlier start, then longer span.
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    std::vector<std::pair<const obs::TraceEvent*, std::int64_t>> open;  // span, self
    const auto close = [&] {
      Total& t = totals[std::string(open.back().first->cat) + "/" +
                        open.back().first->name];
      ++t.count;
      t.self_ns += open.back().second;
      open.pop_back();
    };
    for (const obs::TraceEvent* e : spans) {
      while (!open.empty() &&
             open.back().first->ts_ns + open.back().first->dur_ns <= e->ts_ns) {
        close();
      }
      if (!open.empty()) open.back().second -= e->dur_ns;  // direct parent only
      open.emplace_back(e, e->dur_ns);
    }
    while (!open.empty()) close();
  }
  std::vector<std::pair<std::string, Total>> ranked(totals.begin(), totals.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  ranked.resize(std::min(top, ranked.size()));
  log << "# self time by span (whole trace)       spans       self_s\n";
  char line[160];
  for (const auto& [name, t] : ranked) {
    std::snprintf(line, sizeof line, "# %-36s %8zu %12.6f\n", name.c_str(), t.count,
                  static_cast<double>(t.self_ns) * 1e-9);
    log << line;
  }
}

}  // namespace pstap::bench
