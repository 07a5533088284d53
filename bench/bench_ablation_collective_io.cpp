// Ablation: direct strided reads vs two-phase collective I/O on the real
// striped file system.
//
// With pulse-major CPI files (ADC streaming order), every node's range
// slab is pulses*channels small strided segments; per-request overhead at
// the I/O servers dominates. The two-phase collective read takes one large
// conforming read per node and redistributes over the interconnect —
// the classic result this group published around the same era.
#include <cstdio>
#include <filesystem>
#include <vector>

#include "chart.hpp"
#include "common/wall_clock.hpp"
#include "experiment_config.hpp"
#include "mp/world.hpp"
#include "pipeline/collective_read.hpp"
#include "pipeline/partition.hpp"
#include "stap/scene.hpp"

using namespace pstap;
namespace fsys = std::filesystem;

namespace {

stap::RadarParams io_params() {
  stap::RadarParams p;
  p.channels = 8;
  p.pulses = 64;
  p.ranges = 2048;  // cube = 8 MB
  p.training_ranges = 64;
  p.hard_halfwidth = 3;
  return p;
}

// Both sides end with the same raw pulse-major slab per rank — the buffer
// the Doppler filter takes — so only the read strategy differs.
double timed_run(pfs::StripedFileSystem& fs, const stap::RadarParams& p, int nranks,
                 bool collective, int repeats) {
  mp::World world(nranks);
  std::vector<std::vector<cfloat>> slabs(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    const auto [r0, r1] = pipeline::doppler_range_window(
        p.ranges, static_cast<std::size_t>(nranks), static_cast<std::size_t>(r));
    slabs[static_cast<std::size_t>(r)].resize(stap::slab_elements(p, r0, r1));
  }
  Seconds total = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    Timer t;
    world.run([&](mp::Comm& comm) {
      pfs::StripedFile file = fs.open("pm");
      auto& raw = slabs[static_cast<std::size_t>(comm.rank())];
      if (collective) {
        pipeline::collective_read_slab(comm, file, p, raw);
      } else {
        const auto [r0, r1] = pipeline::doppler_range_window(
            p.ranges, static_cast<std::size_t>(comm.size()),
            static_cast<std::size_t>(comm.rank()));
        stap::start_read_cpi_slab(file, p, r0, r1, raw, stap::FileLayout::kPulseMajor)
            .wait();
      }
    });
    total += t.elapsed();
  }
  return total / repeats;
}

}  // namespace

int main() {
  std::printf("== Ablation: strided direct reads vs two-phase collective I/O ==\n");
  std::printf("(pulse-major 8 MB CPI file, 8 I/O servers with per-chunk latency)\n\n");

  const auto p = io_params();
  const fsys::path root =
      fsys::temp_directory_path() / ("pstap_bench_cio_" + std::to_string(::getpid()));
  pfs::PfsConfig cfg = pfs::paragon_pfs(8);
  cfg.stripe_unit = 16 * KiB;
  cfg.server_bandwidth = 256.0 * MiB;  // fast pipes, slow per-request setup:
  cfg.server_latency = 0.2e-3;         // the small-request regime
  pfs::StripedFileSystem fs(root, cfg);

  stap::SceneGenerator gen(p, stap::SceneConfig{}, 1);
  stap::write_cpi(fs, "pm", gen.generate(0), stap::FileLayout::kPulseMajor);

  bool all_ok = true;
  bench::BarSeries series{"slab read time, 4 reading nodes", "s", {}};
  const double direct = timed_run(fs, p, 4, /*collective=*/false, 3);
  const double twophase = timed_run(fs, p, 4, /*collective=*/true, 3);
  series.bars.emplace_back("direct strided", direct);
  series.bars.emplace_back("two-phase", twophase);
  bench::print_bars(series);

  std::printf("speedup from collective I/O: %.2fx\n\n", direct / twophase);
  all_ok &= bench::shape_check("two-phase collective beats direct strided reads",
                               twophase < direct);

  std::error_code ec;
  fsys::remove_all(root, ec);
  std::printf("Collective-I/O ablation shape checks: %s\n",
              all_ok ? "ALL PASS" : "FAILURES");
  return all_ok ? 0 : 1;
}
