// E4 — the Section 5 data-distribution experiment: two distributions, one
// with no intersection between neighbours' initial data, one where linked
// nodes' data intersects with probability 50%. Overlap shrinks the volume of
// genuinely new data each answer carries (visible in bytes and inserts); the
// time shape (driven by depth) is unchanged, the paper's qualitative effect.
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace p2pdb::bench {
namespace {

Result<std::vector<Row>> Distribution() {
  const size_t records = FullScale() ? 1000 : 300;
  using Kind = workload::TopologySpec::Kind;
  std::vector<Row> rows;
  for (Kind kind : {Kind::kTree, Kind::kLayeredDag}) {
    for (int overlap_percent : {0, 50}) {
      workload::ScenarioOptions options;
      options.topology.kind = kind;
      options.topology.nodes = 15;
      options.topology.layers = 4;
      options.records_per_node = records;
      options.link_overlap_prob = overlap_percent / 100.0;
      P2PDB_ASSIGN_OR_RETURN(RunMetrics m, RunScenario(options));
      rows.push_back(ScenarioRow(std::string("e4_distribution_") +
                                     workload::TopologyKindName(kind) +
                                     "_overlap" +
                                     std::to_string(overlap_percent),
                                 m));
    }
  }
  return rows;
}

}  // namespace

std::vector<Case> DistributionCases() {
  return {Case{"paper", "e4_distribution",
               [](const RunArgs&) { return Distribution(); }}};
}

}  // namespace p2pdb::bench
