// E1 — regenerates the Section 2 in-text table: the maximal dependency paths
// of the running example (nodes A..E, rules r1..r7), computed both offline
// (from the rule set) and by the distributed discovery algorithm, which must
// agree. The row counts the paths and records the check.
#include <set>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/dependency.h"
#include "src/net/sim_runtime.h"

namespace p2pdb::bench {
namespace {

Result<std::vector<Row>> ExamplePaths() {
  P2PDB_ASSIGN_OR_RETURN(core::P2PSystem system,
                         workload::MakeRunningExample());
  net::SimRuntime rt;
  core::Session session(system, &rt);
  P2PDB_RETURN_IF_ERROR(session.RunDiscovery());
  core::DependencyGraph offline =
      core::DependencyGraph::FromRules(system.rules());
  bool all_match = true;
  size_t path_count = 0;
  for (size_t n = 0; n < session.peer_count(); ++n) {
    auto paths = session.peer(n).MaximalPaths();
    auto expected = offline.MaximalPathsFrom(static_cast<NodeId>(n));
    std::set<std::vector<NodeId>> a(paths.begin(), paths.end());
    std::set<std::vector<NodeId>> b(expected.begin(), expected.end());
    if (a != b) all_match = false;
    path_count += paths.size();
  }
  if (!all_match) {
    return Status::Internal("discovery does not match offline enumeration");
  }
  return std::vector<Row>{
      {"e1_example_paths",
       {{"nodes", static_cast<double>(session.peer_count())},
        {"maximal_paths", static_cast<double>(path_count)},
        {"discovery_matches_offline", 1}}}};
}

}  // namespace

std::vector<Case> ExamplePathsCases() {
  return {Case{"paper", "e1_example_paths",
               [](const RunArgs&) { return ExamplePaths(); }}};
}

}  // namespace p2pdb::bench
