// The P2P system model of Section 2: local databases + coordination rules.
#ifndef P2PDB_CORE_SYSTEM_H_
#define P2PDB_CORE_SYSTEM_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/domain_map.h"
#include "src/relational/cq.h"
#include "src/relational/database.h"
#include "src/util/ids.h"
#include "src/util/status.h"

namespace p2pdb::core {

/// A coordination rule (Definition 2):
///   j1:b1(x1,y1) ∧ ... ∧ jk:bk(xk,yk)  =>  i:h(x)
/// The body is split into per-node parts (j1..jk distinct, all != i); the head
/// is a conjunction of atoms at node i whose variables either occur in the body
/// (frontier variables) or are existential. Built-ins local to one body node
/// live in that part; built-ins spanning parts are evaluated at the head after
/// the cross-node join.
struct CoordinationRule {
  /// Rule name; unique per (head, body-node) pair per Section 4's addLink.
  std::string id;
  NodeId head_node = kNoNode;
  std::vector<rel::Atom> head_atoms;

  struct BodyPart {
    NodeId node = kNoNode;
    std::vector<rel::Atom> atoms;
    std::vector<rel::Builtin> builtins;
  };
  std::vector<BodyPart> body;
  /// Built-ins whose variables span several body parts.
  std::vector<rel::Builtin> cross_builtins;
  /// Optional domain relation (extension; Serafini et al. 2003): constants in
  /// body answers are translated through this map before the head join, so
  /// equal objects need not share a constant across nodes.
  DomainMap domain_map;

  /// Body variables that must travel to the head: variables of part `index`
  /// that occur in the head, in another part, or in a cross built-in.
  std::vector<std::string> PartExportVars(size_t index) const;

  /// The conjunctive query a body node evaluates for part `index`: that part's
  /// atoms and built-ins, projecting onto PartExportVars(index).
  rel::ConjunctiveQuery PartQuery(size_t index) const;

  /// The head-side join of per-part answers: one scratch relation per part
  /// over PartExportVars, an atom over each, the natural join on shared
  /// variable names, plus cross_builtins. parts[p] holds part p's answers
  /// (already in this node's vocabulary); tuples of the wrong arity are
  /// skipped. The bindings cover every exported variable, hence every
  /// frontier variable of the head, in rel::EvaluateBindings order.
  Result<std::vector<rel::Binding>> JoinParts(
      const std::vector<const std::set<rel::Tuple>*>& parts) const;

  /// Head variables not bound by any body part (materialized as nulls).
  std::vector<std::string> ExistentialVars() const;

  /// All body nodes, in part order.
  std::vector<NodeId> BodyNodes() const;

  std::string ToString() const;
};

/// One peer's static description: name, id, and its local database (the
/// initial instance; the update algorithm mutates copies of it).
struct NodeInfo {
  NodeId id = kNoNode;
  std::string name;
  rel::Database db;
};

/// A P2P system MDB = <LDB, CR> (Definition 3).
class P2PSystem {
 public:
  /// Adds a node; ids must be dense (0..n-1) and names unique.
  Status AddNode(std::string name, rel::Database db);

  /// Validates and adds a coordination rule: nodes exist, head/body nodes are
  /// distinct, relations exist at the right nodes with matching arities, rule
  /// id is unique, and every head variable that is not existential occurs in
  /// the body.
  Status AddRule(CoordinationRule rule);

  /// Removes a rule by id; NotFound if absent.
  Status RemoveRule(const std::string& rule_id);

  size_t node_count() const { return nodes_.size(); }
  const std::vector<NodeInfo>& nodes() const { return nodes_; }
  const NodeInfo& node(NodeId id) const { return nodes_[id]; }
  rel::Database* mutable_db(NodeId id) { return &nodes_[id].db; }

  Result<NodeId> NodeByName(const std::string& name) const;

  const std::vector<CoordinationRule>& rules() const { return rules_; }
  Result<const CoordinationRule*> RuleById(const std::string& id) const;

  /// Rules whose head is at `node`.
  std::vector<const CoordinationRule*> RulesWithHead(NodeId node) const;

  /// Merges every node's database into one instance (node signatures are
  /// disjoint, so relation names cannot clash). Used by the global baseline.
  Result<rel::Database> CombinedDatabase() const;

  std::string ToString() const;

 private:
  Status ValidateRule(const CoordinationRule& rule) const;

  std::vector<NodeInfo> nodes_;
  std::map<std::string, NodeId> name_to_id_;
  std::vector<CoordinationRule> rules_;
};

}  // namespace p2pdb::core

#endif  // P2PDB_CORE_SYSTEM_H_
