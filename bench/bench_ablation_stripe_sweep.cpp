// Ablation: throughput vs PFS stripe factor at the largest node case —
// locates the knee where the pipeline stops being I/O-bound (the
// mechanism behind the paper's §5.1 bottleneck discussion).
#include <cstdio>
#include <filesystem>

#include "chart.hpp"
#include "experiment_config.hpp"
#include "pfs/striped_file_system.hpp"

#include "obs/report.hpp"

using namespace pstap;
using namespace pstap::bench;

namespace {

struct IoProbe {
  double queue_p95 = 0;
  double queue_max = 0;
  double service_p99 = 0;
  double submit_p99 = 0;
};

/// Drive the real IoEngine with one identical logical read pattern at the
/// given stripe factor and report its per-engine distributions. The chunk
/// count is fixed (the logical request), so a small stripe factor funnels
/// the same chunks through fewer queues — deeper at every submit sample.
IoProbe probe_engine(std::size_t stripe_factor) {
  namespace sfs = std::filesystem;
  const sfs::path root = sfs::temp_directory_path() /
                         ("pstap_stripe_sweep_sf" + std::to_string(stripe_factor));
  sfs::remove_all(root);
  pfs::PfsConfig cfg = pfs::paragon_pfs(stripe_factor);
  cfg.server_latency = 200e-6;  // make service visibly finite, as in a bench
  IoProbe probe;
  {
    pfs::StripedFileSystem fs(root, cfg);
    constexpr std::size_t kChunks = 64;
    std::vector<std::byte> data(kChunks * cfg.stripe_unit);
    fs.write_file("sweep", data);
    pfs::StripedFile file = fs.open("sweep");
    for (int rep = 0; rep < 4; ++rep) {
      file.read(0, data);
    }
    const obs::IoStats io = fs.engine().stats();
    probe.queue_p95 = io.queue_depth.quantile(0.95);
    probe.queue_max = io.queue_depth.max();
    probe.service_p99 = io.service_time.p99();
    probe.submit_p99 = io.submit_latency.p99();
  }
  sfs::remove_all(root);
  return probe;
}

}  // namespace

int main() {
  // RunReport collection for the whole sweep: with PSTAP_REPORT set,
  // every run below lands in one document (obs/report.hpp).
  pstap::obs::ReportSession report_session;
  std::printf("== Ablation: stripe-factor sweep (embedded I/O, 100 nodes) ==\n\n");

  const auto spec = embedded_spec(100);
  BarSeries thr{"throughput vs stripe factor", "CPI/s", {}};
  std::vector<double> recv_phase;
  for (const std::size_t sf : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    const auto result = sim::SimRunner(spec, sim::paragon_like(sf)).run();
    thr.bars.emplace_back("sf=" + std::to_string(sf), result.measured_throughput);
    const int dop = spec.find(pipeline::TaskKind::kDoppler);
    recv_phase.push_back(result.costs[static_cast<std::size_t>(dop)].receive);
  }
  print_bars(thr);

  TablePrinter table("Doppler receive phase (residual I/O wait) vs stripe factor");
  table.set_header({"stripe factor", "receive (s)"});
  const std::size_t sfs[] = {4, 8, 16, 32, 64, 128, 256};
  for (std::size_t i = 0; i < recv_phase.size(); ++i) {
    table.add_row({static_cast<int>(sfs[i]), TableCell(recv_phase[i], 4)});
  }
  std::puts(table.to_string().c_str());

  // Functional corroboration: the same logical read against the real
  // IoEngine at a small and a large stripe factor. The simulator above
  // predicts the bottleneck; these distributions show its mechanism —
  // fewer queues means deeper queues at every submit.
  const IoProbe sf4 = probe_engine(4);
  const IoProbe sf16 = probe_engine(16);
  TablePrinter io_table("Functional IoEngine distributions (64-chunk reads)");
  io_table.set_header({"stripe factor", "queue depth p95", "queue depth max",
                       "service p99 (s)", "submit p99 (s)"});
  io_table.add_row({4, TableCell(sf4.queue_p95, 2), TableCell(sf4.queue_max, 2),
                    TableCell(sf4.service_p99, 6), TableCell(sf4.submit_p99, 6)});
  io_table.add_row({16, TableCell(sf16.queue_p95, 2), TableCell(sf16.queue_max, 2),
                    TableCell(sf16.service_p99, 6), TableCell(sf16.submit_p99, 6)});
  std::puts(io_table.to_string().c_str());

  bool all_ok = true;
  all_ok &= shape_check("small stripe factor funnels: queue depth p95 sf=4 > sf=16",
                        sf4.queue_p95 > sf16.queue_p95);
  all_ok &= shape_check("small stripe factor funnels: queue depth max sf=4 > sf=16",
                        sf4.queue_max > sf16.queue_max);
  all_ok &= shape_check("per-chunk service time observed (p99 > 0)",
                        sf4.service_p99 > 0 && sf16.service_p99 > 0);
  all_ok &= shape_check("throughput monotonically non-decreasing in stripe factor",
                        std::is_sorted(thr.bars.begin(), thr.bars.end(),
                                       [](const auto& a, const auto& b) {
                                         return a.second < b.second * 0.999;
                                       }));
  all_ok &= shape_check("sf=4 is I/O bound (nonzero Doppler receive residual)",
                        recv_phase.front() > 1e-3);
  all_ok &= shape_check("sf=256 is compute bound (no receive residual)",
                        recv_phase.back() < 1e-6);
  all_ok &= shape_check("knee: sf=64 already within 2% of sf=256 throughput",
                        thr.bars[4].second > 0.98 * thr.bars.back().second);

  std::printf("Stripe-sweep shape checks: %s\n", all_ok ? "ALL PASS" : "FAILURES");
  return all_ok ? 0 : 1;
}
