#include "src/core/global_fixpoint.h"

#include "src/relational/eval.h"

namespace p2pdb::core {

namespace {
// The centralized chase mints nulls under a reserved pseudo-node id so they
// cannot collide with nulls minted by real peers in comparisons.
constexpr uint32_t kGlobalChaseNode = 0xfffffffeu;
}  // namespace

Result<GlobalFixpointResult> ComputeGlobalFixpoint(
    const P2PSystem& system, const rel::ChaseOptions& chase_options) {
  auto combined = system.CombinedDatabase();
  if (!combined.ok()) return combined.status();
  rel::Database db = combined.MoveValue();
  rel::NullFactory nulls(kGlobalChaseNode);

  GlobalFixpointResult result;
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;
    for (const CoordinationRule& rule : system.rules()) {
      Result<std::vector<rel::Binding>> bindings =
          Status::Internal("unevaluated");
      if (rule.domain_map.empty()) {
        // Node signatures are disjoint, so the full body evaluates directly
        // against the union database.
        rel::ConjunctiveQuery body;
        for (const CoordinationRule::BodyPart& p : rule.body) {
          body.atoms.insert(body.atoms.end(), p.atoms.begin(), p.atoms.end());
          body.builtins.insert(body.builtins.end(), p.builtins.begin(),
                               p.builtins.end());
        }
        body.builtins.insert(body.builtins.end(), rule.cross_builtins.begin(),
                             rule.cross_builtins.end());
        bindings = rel::EvaluateBindings(db, body);
      } else {
        // Domain relation: evaluate each part, translate its exported values,
        // then join — mirroring what the distributed head node does.
        std::vector<std::set<rel::Tuple>> answers;
        for (size_t p = 0; p < rule.body.size(); ++p) {
          auto part_result = rel::EvaluateQuery(db, rule.PartQuery(p));
          if (!part_result.ok()) return part_result.status();
          answers.push_back(rule.domain_map.ApplyToSet(*part_result));
        }
        std::vector<const std::set<rel::Tuple>*> parts;
        for (const std::set<rel::Tuple>& a : answers) parts.push_back(&a);
        bindings = rule.JoinParts(parts);
      }
      if (!bindings.ok()) return bindings.status();
      rel::ChaseStats step;
      P2PDB_RETURN_IF_ERROR(rel::ApplyRuleHeadAll(
          &db, rule.head_atoms, *bindings, &nulls, chase_options, &step));
      result.chase.inserted += step.inserted;
      result.chase.skipped += step.skipped;
      result.chase.truncated += step.truncated;
      if (step.inserted > 0) changed = true;
    }
  }

  // Split the union instance back into per-node databases by relation
  // ownership.
  result.node_dbs.resize(system.node_count());
  for (const NodeInfo& info : system.nodes()) {
    rel::Database& out = result.node_dbs[info.id];
    for (const auto& [name, relation] : info.db.relations()) {
      P2PDB_RETURN_IF_ERROR(out.CreateRelation(relation.schema()));
      auto final_rel = db.Get(name);
      if (!final_rel.ok()) return final_rel.status();
      rel::Relation* dst = *out.GetMutable(name);
      for (const rel::Tuple& t : (*final_rel)->tuples()) {
        P2PDB_RETURN_IF_ERROR(dst->Insert(t).status());
      }
    }
  }
  return result;
}

}  // namespace p2pdb::core
