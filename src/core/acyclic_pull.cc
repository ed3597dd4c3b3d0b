#include "src/core/acyclic_pull.h"

#include <algorithm>

#include "src/core/dependency.h"
#include "src/core/wire.h"
#include "src/relational/eval.h"

namespace p2pdb::core {

namespace {
constexpr uint32_t kAcyclicChaseNode = 0xfffffffdu;
}  // namespace

Result<AcyclicPullResult> RunAcyclicPull(
    const P2PSystem& system, const rel::ChaseOptions& chase_options) {
  DependencyGraph graph = DependencyGraph::FromRules(system.rules());
  if (!graph.IsAcyclic()) {
    return Status::InvalidArgument(
        "acyclic pull requires an acyclic dependency graph");
  }

  AcyclicPullResult result;
  result.node_dbs.reserve(system.node_count());
  for (const NodeInfo& info : system.nodes()) {
    result.node_dbs.push_back(info.db);
  }
  rel::NullFactory nulls(kAcyclicChaseNode);

  // Topological order has every dependency edge (head -> body) pointing
  // forward, so processing in reverse order finalizes body nodes first.
  auto order = graph.TopologicalOrder();
  if (!order.ok()) return order.status();
  std::vector<NodeId> processing(*order);
  std::reverse(processing.begin(), processing.end());
  // Nodes absent from the graph (no rules touch them) need no processing.

  for (NodeId node : processing) {
    for (const CoordinationRule* rule : system.RulesWithHead(node)) {
      // Pull each part from its (already final) source: one request + one
      // answer per part; payload sizes measured with the real wire encoding.
      std::vector<std::set<rel::Tuple>> answers;
      for (size_t p = 0; p < rule->body.size(); ++p) {
        const CoordinationRule::BodyPart& part = rule->body[p];
        rel::ConjunctiveQuery part_query = rule->PartQuery(p);
        auto answer =
            rel::EvaluateQuery(result.node_dbs[part.node], part_query);
        if (!answer.ok()) return answer.status();

        wire::QueryRequest req;
        req.rule_id = rule->id;
        req.part = static_cast<uint32_t>(p);
        req.query = part_query;
        wire::QueryAnswer ans;
        ans.rule_id = rule->id;
        ans.part = static_cast<uint32_t>(p);
        ans.tuples = *answer;
        result.messages += 2;
        result.bytes += req.Encode().size() + ans.Encode().size() + 26;
        answers.push_back(rule->domain_map.ApplyToSet(*answer));
      }
      std::vector<const std::set<rel::Tuple>*> parts;
      for (const std::set<rel::Tuple>& a : answers) parts.push_back(&a);
      auto bindings = rule->JoinParts(parts);
      if (!bindings.ok()) return bindings.status();
      rel::ChaseStats step;
      P2PDB_RETURN_IF_ERROR(
          rel::ApplyRuleHeadAll(&result.node_dbs[node], rule->head_atoms,
                                *bindings, &nulls, chase_options, &step));
    }
  }
  return result;
}

}  // namespace p2pdb::core
