// E3 — the Section 5 scalability experiment: up to 31 nodes, DBLP-like data
// (~1000 records/node on trees and layered DAGs, as in the paper's setup),
// three topologies (tree, layered acyclic, clique). Reports execution time
// (simulated network time and host wall time) and message statistics.
//
// Expected shape (paper): execution time grows linearly with the depth of
// tree/layered topologies (e5_depth fits it); cliques are much more
// expensive in messages.
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace p2pdb::bench {
namespace {

Result<std::vector<Row>> Scalability() {
  const bool full = FullScale();
  const size_t tree_records = full ? 1000 : 650;  // ~20k total at 31 nodes.
  // Cliques are the protocol's worst case: n^2 rules, and every peer re-mints
  // labeled nulls for existential translations, so deltas between peers stay
  // large in every convergence round (an O(n^3 * records) tuple volume).
  // Default scale keeps them tractable; P2PDB_BENCH_FULL=1 restores the
  // paper's record counts.
  const size_t clique_records = full ? 650 : 25;

  using Kind = workload::TopologySpec::Kind;
  struct Config {
    Kind kind;
    size_t records;
  };
  std::vector<Row> rows;
  for (const Config& config :
       {Config{Kind::kTree, tree_records},
        Config{Kind::kLayeredDag, tree_records},
        Config{Kind::kClique, clique_records}}) {
    for (size_t nodes : {7u, 15u, 21u, 31u}) {
      workload::ScenarioOptions options;
      options.topology.kind = config.kind;
      options.topology.nodes = nodes;
      options.topology.layers = 4;
      options.records_per_node = config.records;
      P2PDB_ASSIGN_OR_RETURN(RunMetrics m, RunScenario(options));
      Row row = ScenarioRow(std::string("e3_scalability_") +
                                workload::TopologyKindName(config.kind) + "_" +
                                std::to_string(nodes),
                            m);
      row.metrics.emplace_back("nodes", nodes);
      row.metrics.emplace_back("records", config.records);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace

std::vector<Case> ScalabilityCases() {
  return {Case{"paper", "e3_scalability",
               [](const RunArgs&) { return Scalability(); }}};
}

}  // namespace p2pdb::bench
