// A3 — ablation: discovery strategies.
//   * super-peer single origin + closure broadcast (our default reading of
//     A1-A3),
//   * one instance per node (what running Discover everywhere yields),
//   * eager duplicate answers (the paper's gossip-style extra messages).
// A single origin costs O(edges) messages plus a closure wave; per-node
// origins multiply that by n (every node must learn its own paths when the
// super-peer cannot reach it); eager answers add bytes, never messages — the
// asynchronous surplus the paper describes.
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/sim_runtime.h"

namespace p2pdb::bench {
namespace {

Result<std::vector<Row>> Discovery() {
  using Kind = workload::TopologySpec::Kind;
  using Mode = core::Session::Options::DiscoveryMode;
  struct Strategy {
    const char* name;
    Mode mode;
    bool eager;
  };
  std::vector<Row> rows;
  for (Kind kind : {Kind::kTree, Kind::kClique, Kind::kRandom}) {
    for (size_t nodes : {15u, 31u}) {
      workload::ScenarioOptions options;
      options.topology.kind = kind;
      options.topology.nodes = nodes;
      options.records_per_node = 1;  // Discovery ignores data.
      P2PDB_ASSIGN_OR_RETURN(core::P2PSystem system,
                             workload::BuildScenario(options));
      for (const Strategy& strategy :
           {Strategy{"super_peer", Mode::kSuperPeer, false},
            Strategy{"per_node", Mode::kAll, false},
            Strategy{"per_node_eager", Mode::kAll, true}}) {
        core::Session::Options session_options;
        session_options.discovery = strategy.mode;
        session_options.peer.eager_discovery_answers = strategy.eager;
        net::SimRuntime rt;
        core::Session session(system, &rt, session_options);
        P2PDB_RETURN_IF_ERROR(session.RunDiscovery());
        rows.push_back(Row{
            std::string("a3_discovery_") + workload::TopologyKindName(kind) +
                "_" + std::to_string(nodes) + "_" + strategy.name,
            {{"sim_ms", static_cast<double>(rt.NowMicros()) / 1000.0},
             {"messages", static_cast<double>(rt.stats().total_messages())},
             {"bytes", static_cast<double>(rt.stats().total_bytes())}}});
      }
    }
  }
  return rows;
}

}  // namespace

std::vector<Case> DiscoveryCases() {
  return {Case{"paper", "a3_discovery",
               [](const RunArgs&) { return Discovery(); }}};
}

}  // namespace p2pdb::bench
