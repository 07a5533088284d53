// google-benchmark microbenches of every STAP kernel — the real flop rates
// behind the workload model's W_i terms. Results are also dumped as
// BENCH_kernels.json (override the path with PSTAP_BENCH_JSON) for the
// tracked perf baseline; see bench/perf_json.hpp.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "perf_json.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fft/fft.hpp"
#include "linalg/cgemm.hpp"
#include "linalg/cmatrix.hpp"
#include "mp/world.hpp"
#include "obs/metrics.hpp"
#include "stap/beamform.hpp"
#include "stap/cfar.hpp"
#include "stap/doppler.hpp"
#include "stap/pulse_compress.hpp"
#include "stap/scene.hpp"
#include "stap/weights.hpp"

namespace {

using namespace pstap;
using namespace pstap::stap;

RadarParams bench_params() {
  RadarParams p = RadarParams::test_small();
  p.ranges = 256;
  return p;
}

void BM_FftPow2(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  fft::FftPlan plan(n);
  Rng rng(1);
  std::vector<cfloat> data(n);
  for (auto& v : data) v = rng.complex_normal();
  for (auto _ : state) {
    plan.transform(data, fft::Direction::kForward);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(cfloat)));
}
BENCHMARK(BM_FftPow2)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FftBatchPow2(benchmark::State& state) {
  const std::size_t n = 256;
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  fft::FftPlan plan(n);
  fft::BatchScratch scratch;
  Rng rng(8);
  std::vector<cfloat> data(n * count);
  for (auto& v : data) v = rng.complex_normal();
  for (auto _ : state) {
    plan.transform_strided_batch(data.data(), count, n, 1, fft::Direction::kForward,
                                 scratch);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * count));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * count * sizeof(cfloat)));
}
BENCHMARK(BM_FftBatchPow2)->Arg(16)->Arg(64);

// 127 (the paper's Doppler length) is a Rader prime over a 126-point
// mixed-radix convolution.
void BM_FftBatchNonPow2(benchmark::State& state) {
  const std::size_t n = 127;
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  fft::FftPlan plan(n);
  fft::BatchScratch scratch;
  Rng rng(9);
  std::vector<cfloat> data(n * count);
  for (auto& v : data) v = rng.complex_normal();
  for (auto _ : state) {
    plan.transform_strided_batch(data.data(), count, n, 1, fft::Direction::kForward,
                                 scratch);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * count));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * count * sizeof(cfloat)));
}
BENCHMARK(BM_FftBatchNonPow2)->Arg(16)->Arg(64);

// 126 is mixed radix (2 3 3 7), 127 Rader, 1000 mixed radix (2^3 5^3).
void BM_FftNonPow2(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  fft::FftPlan plan(n);
  Rng rng(2);
  std::vector<cfloat> data(n);
  for (auto& v : data) v = rng.complex_normal();
  for (auto _ : state) {
    plan.transform(data, fft::Direction::kForward);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(cfloat)));
}
BENCHMARK(BM_FftNonPow2)->Arg(126)->Arg(127)->Arg(1000);

// Into reused output storage, as the pipeline's Doppler node runs it (it
// hands in pooled storage each CPI; nothing is allocated or zero-filled).
void BM_DopplerFilter(benchmark::State& state) {
  const RadarParams p = bench_params();
  SceneGenerator gen(p, SceneConfig{}, 1);
  const DataCube cube = gen.generate(0);
  DopplerFilter filter(p);
  DopplerOutput out;
  for (auto _ : state) {
    filter.process_into(cube, out);
    benchmark::DoNotOptimize(out.easy.flat().data());
    benchmark::DoNotOptimize(out.hard.flat().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cube.samples()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cube.samples() * sizeof(cfloat)));
}
BENCHMARK(BM_DopplerFilter);

// The paper geometry (16 channels x 128 pulses x 1024 ranges, 127 Doppler
// bins): the stage that sets the paper-embedded pipeline period. One chunk,
// so this times the per-core kernel, not the host's idle cores.
void BM_DopplerFilterPaper(benchmark::State& state) {
  const RadarParams p;
  SceneGenerator gen(p, SceneConfig{}, 1);
  const DataCube cube = gen.generate(0);
  DopplerFilter filter(p);
  DopplerOutput out;
  for (auto _ : state) {
    filter.process_into(cube, out, /*chunks=*/1);
    benchmark::DoNotOptimize(out.easy.flat().data());
    benchmark::DoNotOptimize(out.hard.flat().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cube.samples()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cube.samples() * sizeof(cfloat)));
}
BENCHMARK(BM_DopplerFilterPaper);

// The paper geometry through the raw-slab entry on a range-major slab, as
// the embedded pipeline's Doppler node runs it: each 32-gate block of the
// file-order buffer is transposed into the filter's tile, then filtered
// (one chunk, as above).
void BM_DopplerFilterPaperRaw(benchmark::State& state) {
  const RadarParams p;
  SceneGenerator gen(p, SceneConfig{}, 1);
  const DataCube cube = gen.generate(0);
  std::vector<cfloat> raw(cube.samples());
  cube.pack_file_order(0, p.ranges, raw);
  DopplerFilter filter(p);
  DopplerOutput out;
  for (auto _ : state) {
    filter.process_into(raw, p.ranges, FileLayout::kRangeMajor, out, /*chunks=*/1);
    benchmark::DoNotOptimize(out.easy.flat().data());
    benchmark::DoNotOptimize(out.hard.flat().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cube.samples()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cube.samples() * sizeof(cfloat)));
}
BENCHMARK(BM_DopplerFilterPaperRaw);

// The whole-cube file-order transpose at the paper geometry (16.8 MB), the
// decode read_cpi_slab runs after every slab read.
void BM_UnpackFileOrderPaper(benchmark::State& state) {
  const RadarParams p;
  SceneGenerator gen(p, SceneConfig{}, 1);
  const DataCube src = gen.generate(0);
  std::vector<cfloat> raw(src.samples());
  src.pack_file_order(0, p.ranges, raw);
  DataCube cube(p.channels, p.pulses, p.ranges);
  for (auto _ : state) {
    cube.unpack_file_order(0, p.ranges, raw);
    benchmark::DoNotOptimize(cube.flat().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cube.samples()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cube.bytes()));
}
BENCHMARK(BM_UnpackFileOrderPaper);

void BM_WeightsEasy(benchmark::State& state) {
  const RadarParams p = bench_params();
  SceneGenerator gen(p, SceneConfig{}, 2);
  DopplerFilter filter(p);
  const auto out = filter.process(gen.generate(0));
  WeightComputer wc(p, out.easy_bin_ids, p.easy_dof());
  for (auto _ : state) {
    auto ws = wc.compute(out.easy);
    benchmark::DoNotOptimize(ws.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.easy.samples()));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(out.easy.samples() * sizeof(cfloat)));
}
BENCHMARK(BM_WeightsEasy);

void BM_WeightsHard(benchmark::State& state) {
  const RadarParams p = bench_params();
  SceneGenerator gen(p, SceneConfig{}, 3);
  DopplerFilter filter(p);
  const auto out = filter.process(gen.generate(0));
  WeightComputer wc(p, out.hard_bin_ids, p.hard_dof());
  for (auto _ : state) {
    auto ws = wc.compute(out.hard);
    benchmark::DoNotOptimize(ws.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.hard.samples()));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(out.hard.samples() * sizeof(cfloat)));
}
BENCHMARK(BM_WeightsHard);

void BM_Beamform(benchmark::State& state) {
  const RadarParams p = bench_params();
  SceneGenerator gen(p, SceneConfig{}, 4);
  DopplerFilter filter(p);
  const auto out = filter.process(gen.generate(0));
  WeightComputer wc(p, out.hard_bin_ids, p.hard_dof());
  const auto ws = wc.compute(out.hard);
  Beamformer bf(p);
  for (auto _ : state) {
    auto y = bf.apply(out.hard, ws);
    benchmark::DoNotOptimize(y.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.hard.samples()));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(out.hard.samples() * sizeof(cfloat)));
}
BENCHMARK(BM_Beamform);

// Raw GEMM micro-kernel at the beamform shape: 4 weight rows (beams) x 32
// DOFs applied across 256 range gates per call.
void BM_Cgemm(benchmark::State& state) {
  const std::size_t m = 4, k = 32, n = 256;
  Rng rng(11);
  std::vector<cfloat> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = rng.complex_normal();
  for (auto& v : b) v = rng.complex_normal();
  linalg::CgemmScratch scratch;
  for (auto _ : state) {
    linalg::cgemm(true, m, k, n, a.data(), k, b.data(), n, c.data(), n,
                  scratch);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * k * n));
  // A + B streamed in, C read-modify-written.
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>((m * k + k * n + 2 * m * n) * sizeof(cfloat)));
}
BENCHMARK(BM_Cgemm);

// Covariance-forming Hermitian rank-k update at the hard-bin shape: 32 DOFs
// over 128 training gates, range series strided a full 256-gate row apart.
void BM_Cherk(benchmark::State& state) {
  const std::size_t dof = 32, t = 128, lds = 256;
  Rng rng(12);
  std::vector<cfloat> s(dof * lds);
  for (auto& v : s) v = rng.complex_normal();
  linalg::CMatrix<double> r(dof, dof);
  const double alpha = 1.0 / static_cast<double>(t);
  for (auto _ : state) {
    r.set_zero();
    linalg::cherk_lower(r, s.data(), lds, t, alpha);
    benchmark::DoNotOptimize(r.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dof * (dof + 1) / 2 * t));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(dof * t * sizeof(cfloat) +
                                dof * (dof + 1) / 2 * sizeof(cdouble)));
}
BENCHMARK(BM_Cherk);

// One full adaptive-weight solve for a single hard Doppler bin: cherk
// covariance, diagonal loading, Cholesky factor, and a per-beam solve +
// MVDR normalization. This is the per-bin unit of BM_WeightsHard without
// the scene/Doppler setup around it.
void BM_WeightsSolve(benchmark::State& state) {
  const RadarParams p = bench_params();
  Rng rng(13);
  BinArray spectra(1, p.hard_dof(), p.ranges);
  for (auto& v : spectra.flat()) v = rng.complex_normal();
  WeightComputer wc(p, {0}, p.hard_dof());
  for (auto _ : state) {
    auto ws = wc.compute(spectra);
    benchmark::DoNotOptimize(ws.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spectra.samples()));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(spectra.samples() * sizeof(cfloat)));
}
BENCHMARK(BM_WeightsSolve);

void BM_PulseCompression(benchmark::State& state) {
  const RadarParams p = bench_params();
  PulseCompressor pc(p);
  Rng rng(5);
  BeamArray beams(p.doppler_bins(), p.beams, p.ranges);
  for (auto& v : beams.flat()) v = rng.complex_normal();
  for (auto _ : state) {
    pc.compress(beams);
    benchmark::DoNotOptimize(beams.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(beams.samples()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(beams.samples() * sizeof(cfloat)));
}
BENCHMARK(BM_PulseCompression);

void BM_Cfar(benchmark::State& state) {
  const RadarParams p = bench_params();
  CfarDetector cfar(p);
  Rng rng(6);
  BeamArray beams(p.doppler_bins(), p.beams, p.ranges);
  for (auto& v : beams.flat()) v = rng.complex_normal();
  const auto ids = [&] {
    std::vector<std::size_t> v(p.doppler_bins());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
    return v;
  }();
  for (auto _ : state) {
    auto dets = cfar.detect(beams, ids);
    benchmark::DoNotOptimize(dets.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(beams.samples()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(beams.samples() * sizeof(cfloat)));
}
BENCHMARK(BM_Cfar);

// CRC32C over one 16 MiB CPI, as the pfs verifies a whole CPI of stripe
// units on read and checksums it on write: the SSE4.2 instruction under
// auto dispatch, the byte table under PSTAP_SIMD=scalar.
void BM_Crc32c(benchmark::State& state) {
  constexpr std::size_t kBytes = std::size_t{16} << 20;
  Rng rng(5);
  std::vector<unsigned char> data(kBytes);
  for (auto& b : data) b = static_cast<unsigned char>(rng.uniform_index(256));
  for (auto _ : state) {
    std::uint32_t crc = crc32c(data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBytes));
}
BENCHMARK(BM_Crc32c);

void BM_SceneGeneration(benchmark::State& state) {
  const RadarParams p = bench_params();
  SceneConfig cfg;
  cfg.clutter_patches = 16;
  SceneGenerator gen(p, cfg, 7);
  std::uint64_t cpi = 0;
  for (auto _ : state) {
    auto cube = gen.generate(cpi++);
    benchmark::DoNotOptimize(cube.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p.cube_samples()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p.cube_bytes()));
}
BENCHMARK(BM_SceneGeneration);

// Strong scaling of the pinned mp::World backend: a fixed pile of batch FFT
// work (the pipeline's dominant kernel) split evenly across N pinned rank
// threads. On a machine with >= N cores the time should drop ~linearly with
// N; the "pinned_ranks" counter records how many ranks the OS actually let
// us pin. Includes World::run() thread spawn/join, which is the real
// per-CPI cost the pipeline pays.
void BM_WorldScaling(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  constexpr std::size_t kN = 256;
  constexpr std::size_t kCount = 16;
  constexpr std::size_t kTotalBatches = 64;  // divisible by 1, 2, 4
  mp::WorldOptions opts;
  opts.pin_threads = true;
  mp::World world(ranks, opts);
  std::vector<fft::FftPlan> plans;
  plans.reserve(static_cast<std::size_t>(ranks));
  std::vector<fft::BatchScratch> scratch(static_cast<std::size_t>(ranks));
  std::vector<std::vector<cfloat>> data(static_cast<std::size_t>(ranks));
  Rng rng(10);
  for (int r = 0; r < ranks; ++r) {
    plans.emplace_back(kN);
    data[static_cast<std::size_t>(r)].resize(kN * kCount);
    for (auto& v : data[static_cast<std::size_t>(r)]) v = rng.complex_normal();
  }
  const std::size_t per_rank = kTotalBatches / static_cast<std::size_t>(ranks);
  for (auto _ : state) {
    world.run([&](mp::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      for (std::size_t b = 0; b < per_rank; ++b) {
        plans[r].transform_strided_batch(data[r].data(), kCount, kN, 1,
                                         fft::Direction::kForward, scratch[r]);
        benchmark::DoNotOptimize(data[r].data());
      }
    });
  }
  state.counters["pinned_ranks"] =
      static_cast<double>(world.pinned_ranks());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTotalBatches * kN * kCount));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kTotalBatches * kN * kCount * sizeof(cfloat)));
}
BENCHMARK(BM_WorldScaling)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// Console reporter that also captures each run as a PerfRecord for the
/// JSON baseline dump: one record per repetition, no aggregate rows.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(std::vector<pstap::bench::PerfRecord>* out)
      : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type == Run::RT_Aggregate) continue;
      pstap::bench::PerfRecord rec;
      rec.name = run.benchmark_name();
      rec.iterations = static_cast<double>(run.iterations);
      rec.ns_per_op = run.GetAdjustedRealTime();  // default time unit is ns
      const auto it = run.counters.find("bytes_per_second");
      if (it != run.counters.end()) rec.bytes_per_second = it->second;
      out_->push_back(rec);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  std::vector<pstap::bench::PerfRecord>* out_;
};

}  // namespace

int main(int argc, char** argv) {
  // Resolve the SIMD backend (honouring PSTAP_SIMD) and set FTZ/DAZ before
  // any kernel runs — the benches must measure the same float environment
  // the pipeline's rank threads run in. The printed line is parsed by the
  // CI perf-smoke job to assert dispatch actually engaged.
  pstap::simd::init_thread();
  const auto backend = pstap::simd::active();
  std::printf("PSTAP SIMD backend: %s (simd.backend=%lld)\n",
              pstap::simd::backend_name(backend),
              static_cast<long long>(
                  pstap::obs::Registry::global().gauge("simd.backend").value()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::vector<pstap::bench::PerfRecord> records;
  JsonCapturingReporter reporter(&records);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* path = std::getenv("PSTAP_BENCH_JSON");
  pstap::bench::write_perf_json(path != nullptr ? path : "BENCH_kernels.json",
                                records);
  benchmark::Shutdown();
  return 0;
}
