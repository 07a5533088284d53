// Ablation of the paper's §6 analysis: is merging PC+CFAR better than ANY
// way of splitting the same node budget between separate PC and CFAR
// tasks? Eq. 8-11 say yes: the merged task avoids the PC->CFAR transfer
// and uses the pooled nodes for both phases. We sweep every split of the
// pooled budget and compare latencies.
#include <cstdio>

#include "experiment_config.hpp"

using namespace pstap;
using namespace pstap::bench;

int main() {
  std::printf("== Ablation: merged PC+CFAR vs every split of the same budget ==\n\n");

  const auto machine = sim::paragon_like(64);
  bool all_ok = true;
  for (const int total : node_cases()) {
    const auto base = embedded_spec(total);
    const int budget = base.tasks[base.tasks.size() - 2].nodes +
                       base.tasks.back().nodes;

    std::vector<int> head_nodes;
    for (std::size_t i = 0; i + 2 < base.tasks.size(); ++i) {
      head_nodes.push_back(base.tasks[i].nodes);
    }

    auto merged_nodes = head_nodes;
    merged_nodes.push_back(budget);
    const double merged_latency =
        sim::SimRunner(pipeline::PipelineSpec::combined(paper_params(), merged_nodes),
                       machine)
            .run()
            .measured_latency;

    TablePrinter table("node budget " + std::to_string(budget) +
                       " for the pipeline tail @" + std::to_string(total) +
                       " total nodes (" + machine.name + ")");
    table.set_header({"PC nodes", "CFAR nodes", "latency (s)", "vs merged"});
    double best_split = 1e300;
    for (int pc = 1; pc < budget; ++pc) {
      auto nodes = head_nodes;
      nodes.push_back(pc);
      nodes.push_back(budget - pc);
      const double lat =
          sim::SimRunner(pipeline::PipelineSpec::embedded_io(paper_params(), nodes),
                         machine)
              .run()
              .measured_latency;
      best_split = std::min(best_split, lat);
      table.add_row({pc, budget - pc, TableCell(lat, 4),
                     TableCell(100.0 * (lat - merged_latency) / merged_latency, 1)});
    }
    table.add_row({"merged", "-", TableCell(merged_latency, 4), TableCell(0.0, 1)});
    std::puts(table.to_string().c_str());

    all_ok &= shape_check(std::string("@") + std::to_string(total) +
                              " nodes: merged beats the best split",
                          merged_latency < best_split);
  }

  std::printf("Merge-vs-split shape checks: %s\n", all_ok ? "ALL PASS" : "FAILURES");
  return all_ok ? 0 : 1;
}
