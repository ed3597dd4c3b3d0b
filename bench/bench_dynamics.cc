// A4 — dynamics (Section 4): finite change scripts during a run (Theorem 2),
// the Definition 9 sound/complete envelope, and the Theorem 3 separation
// scenario: a separated sub-network closes while churn continues elsewhere.
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/dynamics.h"
#include "src/lang/parser.h"
#include "src/net/sim_runtime.h"
#include "src/workload/rulegen.h"

namespace p2pdb::bench {
namespace {

Result<std::vector<Row>> Dynamics() {
  // Tree of 7 nodes; mid-run, add a link from the root to a fresh branch and
  // delete one existing link.
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = 7;
  options.records_per_node = FullScale() ? 300 : 60;
  P2PDB_ASSIGN_OR_RETURN(core::P2PSystem system,
                         workload::BuildScenario(options));

  // addLink: node 1 additionally pulls from node 6 (no prior link).
  core::CoordinationRule added = workload::MakeTranslationRule(
      "dyn_add", 1, workload::StyleForNode(1), 6, workload::StyleForNode(6));
  core::ChangeScript changes = {
      core::AtomicChange::Add(2000, added),
      core::AtomicChange::Delete(3000, 2, system.rules()[4].id),
  };

  std::vector<Row> rows;
  for (bool with_changes : {false, true}) {
    net::SimRuntime rt(net::SimRuntime::Options{.seed = 3,
                                                .max_events = 500'000'000});
    core::Session session(system, &rt);
    P2PDB_RETURN_IF_ERROR(session.RunDiscovery());
    rt.stats().Reset();
    if (with_changes) {
      for (const auto& c : changes) session.ScheduleChange(c);
    }
    uint64_t t0 = rt.NowMicros();
    P2PDB_RETURN_IF_ERROR(session.RunUpdate());
    Row row{with_changes ? "a4_dynamics_add_delete" : "a4_dynamics_static",
            {{"sim_ms", static_cast<double>(rt.NowMicros() - t0) / 1000.0},
             {"messages", static_cast<double>(rt.stats().total_messages())},
             {"all_closed", session.AllClosed() ? 1.0 : 0.0}}};
    if (with_changes) {
      auto envelope =
          core::ComputeEnvelope(system, changes, rel::ChaseOptions{});
      bool in_envelope =
          envelope.ok() &&
          core::WithinEnvelope(session.SnapshotDatabases(), *envelope);
      row.metrics.emplace_back("within_envelope", in_envelope ? 1.0 : 0.0);
    }
    rows.push_back(std::move(row));
  }

  // Theorem 3: churn confined to one sub-network.
  P2PDB_ASSIGN_OR_RETURN(core::P2PSystem two_chains, lang::ParseSystem(R"(
node A { rel a(v); }
node B { rel b(v); fact b("b1"); fact b("b2"); }
node X { rel x(v); }
node Y { rel y(v); fact y("y1"); }
rule ra: B.b(V) => A.a(V);
rule rx: Y.y(V) => X.x(V);
)"));
  auto rx = **two_chains.RuleById("rx");
  core::ChangeScript churn;
  for (int i = 0; i < 8; ++i) {
    churn.push_back(core::AtomicChange::Delete(1000 + i * 1500, 2, "rx"));
    churn.push_back(core::AtomicChange::Add(1750 + i * 1500, rx));
  }
  bool separated = core::IsSeparatedUnderChange(two_chains, churn, {0, 1},
                                                {2, 3});
  net::SimRuntime rt;
  core::Session session(two_chains, &rt);
  P2PDB_RETURN_IF_ERROR(session.RunDiscovery());
  for (const auto& c : churn) session.ScheduleChange(c);
  P2PDB_RETURN_IF_ERROR(session.RunUpdate());
  rows.push_back(Row{
      "a4b_separation",
      {{"separated", separated ? 1.0 : 0.0},
       {"a_closed", session.peer(0).update().state() ==
                            core::UpdateEngine::State::kClosed
                        ? 1.0
                        : 0.0},
       {"a_tuples", static_cast<double>((*session.peer(0).db().Get("a"))
                                            ->size())}}});
  return rows;
}

}  // namespace

std::vector<Case> DynamicsCases() {
  return {Case{"paper", "a4_dynamics",
               [](const RunArgs&) { return Dynamics(); }}};
}

}  // namespace p2pdb::bench
