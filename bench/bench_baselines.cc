// B1 — baseline comparison implied by the related-work discussion (Section 1):
//   * distributed update (this paper),
//   * centralized global fix-point ([Calvanese et al. 2003]-style),
//   * acyclic single-pass pull ([Halevy et al. 2003]-style; DAGs only).
// All three must produce the same instances on DAGs (agree = 1); the
// distributed algorithm additionally handles cycles, at a message cost. The
// acyclic pull is the message lower bound on DAGs but fails on rings
// (pull_wall_ms = -1); the centralized baseline needs no messages but a
// global coordinator.
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/acyclic_pull.h"
#include "src/core/global_fixpoint.h"
#include "src/relational/null_iso.h"

namespace p2pdb::bench {
namespace {

rel::ChaseOptions HomChase() {
  rel::ChaseOptions chase;
  chase.policy = rel::ChasePolicy::kHomomorphismCheck;
  return chase;
}

Result<std::vector<Row>> Baselines() {
  const size_t records = FullScale() ? 650 : 150;
  using Kind = workload::TopologySpec::Kind;
  std::vector<Row> rows;
  for (Kind kind : {Kind::kTree, Kind::kLayeredDag, Kind::kRing}) {
    workload::ScenarioOptions options;
    options.topology.kind = kind;
    options.topology.nodes = kind == Kind::kRing ? 8 : 15;
    options.topology.layers = 4;
    options.records_per_node = kind == Kind::kRing ? records / 3 : records;

    core::Session::Options session_options;
    session_options.peer.update.chase = HomChase();
    P2PDB_ASSIGN_OR_RETURN(RunMetrics dist,
                           RunScenario(options, session_options));
    P2PDB_ASSIGN_OR_RETURN(core::P2PSystem system,
                           workload::BuildScenario(options));

    auto start = Clock::now();
    auto global = core::ComputeGlobalFixpoint(system, HomChase());
    double global_ms = MsSince(start);

    double pull_ms = -1;
    uint64_t pull_msgs = 0;
    bool agree = global.ok();
    start = Clock::now();
    auto pull = core::RunAcyclicPull(system, HomChase());
    if (pull.ok()) {
      pull_ms = MsSince(start);
      pull_msgs = pull->messages;
      if (global.ok()) {
        for (size_t n = 0; n < system.node_count(); ++n) {
          if (!rel::DatabasesCertainEqual(pull->node_dbs[n],
                                          global->node_dbs[n])) {
            agree = false;
          }
        }
      }
    }
    rows.push_back(
        Row{std::string("b1_baselines_") + workload::TopologyKindName(kind),
            {{"nodes", static_cast<double>(options.topology.nodes)},
             {"dist_wall_ms", dist.wall_ms},
             {"dist_messages", static_cast<double>(dist.messages)},
             {"global_wall_ms", global_ms},
             {"pull_wall_ms", pull_ms},
             {"pull_messages", static_cast<double>(pull_msgs)},
             {"agree", agree ? 1.0 : 0.0}}});
  }
  return rows;
}

}  // namespace

std::vector<Case> BaselinesCases() {
  return {Case{"paper", "b1_baselines",
               [](const RunArgs&) { return Baselines(); }}};
}

}  // namespace p2pdb::bench
