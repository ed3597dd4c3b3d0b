// A5 — ablation: chase policies for algorithm A6. The paper's per-head-atom
// projection check vs the standard restricted-chase homomorphism check.
// Includes the order-dependence demonstration behind finding F1 in
// EXPERIMENTS.md: under the projection policy, an unlinked pub/wrote pair can
// suppress the linked witness a later derivation needs. That row's
// linked_witness = 0 is the expected finding, not a failure: with prior
// unlinked facts the projection policy skips both head atoms and never
// creates a linked pub-wrote witness, so downstream joins lose answers; the
// homomorphism policy always leaves one. This makes the paper's A6
// completeness claim order-sensitive.
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/relational/chase.h"
#include "src/relational/eval.h"

namespace p2pdb::bench {
namespace {

const char* PolicyName(rel::ChasePolicy policy) {
  return policy == rel::ChasePolicy::kProjectionCheck ? "projection"
                                                      : "homomorphism";
}

Result<std::vector<Row>> PolicySweep() {
  using Kind = workload::TopologySpec::Kind;
  std::vector<Row> rows;
  for (Kind kind : {Kind::kTree, Kind::kClique}) {
    for (rel::ChasePolicy policy : {rel::ChasePolicy::kProjectionCheck,
                                    rel::ChasePolicy::kHomomorphismCheck}) {
      workload::ScenarioOptions options;
      options.topology.kind = kind;
      options.topology.nodes = kind == Kind::kClique ? 7 : 15;
      options.records_per_node =
          FullScale() ? 250 : (kind == Kind::kClique ? 40 : 120);
      core::Session::Options session_options;
      session_options.peer.update.chase.policy = policy;
      P2PDB_ASSIGN_OR_RETURN(RunMetrics m,
                             RunScenario(options, session_options));
      rows.push_back(ScenarioRow(std::string("a5_chase_") +
                                     workload::TopologyKindName(kind) + "_" +
                                     PolicyName(policy),
                                 m));
    }
  }
  return rows;
}

// Finding F1: the paper's A6 projection check is evaluation-order dependent.
Result<std::vector<Row>> OrderDependenceDemo() {
  // Database with pub/wrote; rule head pub(I,T,Y) ∧ wrote(A,I), I,Y
  // existential, applied for (T=t1, A=alice).
  auto build = [](bool pre_populate_unlinked) {
    rel::Database db;
    (void)db.CreateRelation(rel::RelationSchema("pub", {"i", "t", "y"}));
    (void)db.CreateRelation(rel::RelationSchema("wrote", {"a", "i"}));
    if (pre_populate_unlinked) {
      // Unlinked facts mentioning the same title and author.
      (void)db.Insert("pub", rel::Tuple({rel::Value::Str("i9"),
                                         rel::Value::Str("t1"),
                                         rel::Value::Int(2000)}));
      (void)db.Insert("wrote", rel::Tuple({rel::Value::Str("alice"),
                                           rel::Value::Str("i7")}));
    }
    return db;
  };
  rel::Atom pub;
  pub.relation = "pub";
  pub.terms = {rel::Term::Var("I"), rel::Term::Var("T"), rel::Term::Var("Y")};
  rel::Atom wrote;
  wrote.relation = "wrote";
  wrote.terms = {rel::Term::Var("A"), rel::Term::Var("I")};
  rel::Binding binding{{"T", rel::Value::Str("t1")},
                       {"A", rel::Value::Str("alice")}};

  std::vector<Row> rows;
  for (bool pre : {false, true}) {
    for (rel::ChasePolicy policy : {rel::ChasePolicy::kProjectionCheck,
                                    rel::ChasePolicy::kHomomorphismCheck}) {
      rel::Database db = build(pre);
      rel::NullFactory nulls(1);
      rel::ChaseOptions chase;
      chase.policy = policy;
      rel::ChaseStats stats;
      (void)rel::ApplyRuleHead(&db, {pub, wrote}, binding, &nulls, chase,
                               &stats);
      // Does a *linked* witness exist afterwards?
      rel::ConjunctiveQuery probe;
      probe.head_vars = {"I"};
      rel::Atom p2 = pub, w2 = wrote;
      p2.terms[1] = rel::Term::Const(rel::Value::Str("t1"));
      w2.terms[0] = rel::Term::Const(rel::Value::Str("alice"));
      probe.atoms = {p2, w2};
      auto linked = rel::EvaluateQuery(db, probe);
      rows.push_back(
          Row{std::string("a5b_f1_") + (pre ? "prior_unlinked_" : "empty_") +
                  PolicyName(policy),
              {{"inserted", static_cast<double>(stats.inserted)},
               {"linked_witness",
                linked.ok() && !linked->empty() ? 1.0 : 0.0}}});
    }
  }
  return rows;
}

}  // namespace

std::vector<Case> ChaseCases() {
  return {Case{"paper", "a5_chase",
               [](const RunArgs&) { return PolicySweep(); }},
          Case{"paper", "a5b_f1_order_dependence",
               [](const RunArgs&) { return OrderDependenceDemo(); }}};
}

}  // namespace p2pdb::bench
