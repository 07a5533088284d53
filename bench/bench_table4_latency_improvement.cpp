// Reproduces Table 4: percentage of latency improvement when the pulse
// compression and CFAR tasks are combined into a single task, per file
// system per node case — no extra nodes added.
//
// Shape targets: positive improvement everywhere, and the percentage
// *decreases* as the node count grows (parallel efficiency of the merged
// task falls off, paper §6.1).
#include <cstdio>
#include <iostream>

#include "experiment_config.hpp"

#include "obs/report.hpp"

using namespace pstap;
using namespace pstap::bench;

int main() {
  // RunReport collection for the whole sweep: with PSTAP_REPORT set,
  // every run below lands in one document (obs/report.hpp).
  pstap::obs::ReportSession report_session;
  std::printf("== Table 4: %% latency improvement from combining PC + CFAR ==\n\n");

  TablePrinter table("latency improvement (%)");
  std::vector<TableCell> header{"file system"};
  for (const int total : node_cases()) header.push_back(std::to_string(total) + " nodes");
  table.set_header(header);

  bool all_ok = true;
  for (const auto& machine : paper_machines()) {
    std::vector<double> improvement;
    for (const int total : node_cases()) {
      const double lat7 =
          sim::SimRunner(embedded_spec(total), machine).run().measured_latency;
      const double lat6 =
          sim::SimRunner(combined_spec(total), machine).run().measured_latency;
      improvement.push_back(100.0 * (lat7 - lat6) / lat7);
    }
    std::vector<TableCell> row{machine.name};
    for (const double v : improvement) row.emplace_back(v, 1);
    table.add_row(row);

    for (std::size_t i = 0; i < improvement.size(); ++i) {
      all_ok &= shape_check(machine.name + " case " + std::to_string(i + 1) +
                                ": improvement > 0",
                            improvement[i] > 0.0);
    }
    all_ok &= shape_check(machine.name + ": improvement decreases with node count",
                          improvement.front() > improvement.back());
  }

  table.print(std::cout);
  std::printf("\nTable 4 shape checks: %s\n", all_ok ? "ALL PASS" : "FAILURES");
  return all_ok ? 0 : 1;
}
