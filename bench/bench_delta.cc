// A1 — ablation: the delta optimization (Section 3 mentions it as an
// optimization "to minimize data transfer and duplication"). With deltas a
// re-answer carries only new tuples; without, the full result set travels on
// every change. On trees each link fires once, so deltas help little; around
// cycles every convergence round re-sends the whole (growing) result without
// deltas, so the advantage grows with cyclicity and data size — the effect
// the paper anticipates.
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace p2pdb::bench {
namespace {

Result<std::vector<Row>> Delta() {
  const size_t records = FullScale() ? 400 : 120;
  using Kind = workload::TopologySpec::Kind;
  std::vector<Row> rows;
  for (Kind kind : {Kind::kTree, Kind::kRing, Kind::kLayeredDag}) {
    workload::ScenarioOptions options;
    options.topology.kind = kind;
    options.topology.nodes = kind == Kind::kRing ? 6 : 15;
    options.topology.layers = 4;
    options.records_per_node = kind == Kind::kRing ? records / 2 : records;

    core::Session::Options with_delta;
    with_delta.peer.update.delta_answers = true;
    P2PDB_ASSIGN_OR_RETURN(RunMetrics delta, RunScenario(options, with_delta));

    core::Session::Options without_delta;
    without_delta.peer.update.delta_answers = false;
    P2PDB_ASSIGN_OR_RETURN(RunMetrics full,
                           RunScenario(options, without_delta));

    rows.push_back(Row{
        std::string("a1_delta_") + workload::TopologyKindName(kind),
        {{"nodes", static_cast<double>(options.topology.nodes)},
         {"records", static_cast<double>(options.records_per_node)},
         {"delta_messages", static_cast<double>(delta.messages)},
         {"delta_bytes", static_cast<double>(delta.bytes)},
         {"full_messages", static_cast<double>(full.messages)},
         {"full_bytes", static_cast<double>(full.bytes)},
         {"bytes_ratio", delta.bytes > 0 ? static_cast<double>(full.bytes) /
                                               static_cast<double>(delta.bytes)
                                         : 0.0}}});
  }
  return rows;
}

}  // namespace

std::vector<Case> DeltaCases() {
  return {
      Case{"paper", "a1_delta", [](const RunArgs&) { return Delta(); }}};
}

}  // namespace p2pdb::bench
