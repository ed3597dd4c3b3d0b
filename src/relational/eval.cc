#include "src/relational/eval.h"

#include <algorithm>
#include <cstdint>

namespace p2pdb::rel {

namespace {

constexpr uint32_t kNoSlot = UINT32_MAX;

// Where a run-time value comes from: a constant of the query, or a slot.
struct Operand {
  const Value* constant = nullptr;
  uint32_t slot = kNoSlot;
};

// One position of a step's atom: bind its slot to the candidate's value, or
// check the value against an operand.
struct PositionOp {
  uint32_t column = 0;
  bool bind = false;
  Operand operand;  // The slot to bind, or the value to check against.
};

struct BuiltinCheck {
  BuiltinOp op;
  Operand lhs;
  Operand rhs;
};

struct Step {
  const Atom* atom = nullptr;
  // Probed through the relation's index on this column with `key`; a full
  // scan when every position is free (kNoSlot).
  uint32_t lookup_column = kNoSlot;
  Operand key;
  // Every position but the lookup column, which the probe already matched.
  std::vector<PositionOp> ops;
  // Built-ins that become decidable once this step has bound its slots.
  std::vector<BuiltinCheck> checks;
};

// A conjunctive query compiled for one evaluation call. With a seed atom,
// that atom is step 0 and is matched against caller-supplied tuples.
class Plan {
 public:
  static constexpr size_t kNoSeed = SIZE_MAX;

  Plan(const ConjunctiveQuery& query, size_t seed_atom) : query_(query) {
    term_slots_.reserve(query.atoms.size());
    for (const Atom& atom : query.atoms) {
      std::vector<uint32_t> slots;
      slots.reserve(atom.terms.size());
      for (const Term& t : atom.terms) {
        slots.push_back(t.is_var() ? SlotOf(t.var, /*add=*/true) : kNoSlot);
      }
      term_slots_.push_back(std::move(slots));
    }
    // Range restriction (ConjunctiveQuery::CheckSafe): every head and
    // built-in variable must have a slot from some atom.
    for (const std::string& v : query.head_vars) {
      uint32_t slot = SlotOf(v, /*add=*/false);
      if (slot == kNoSlot) {
        status_ = Status::Unsupported("unsafe query: head variable " + v +
                                      " not bound by any atom");
        return;
      }
      head_slots_.push_back(slot);
    }
    std::vector<const Builtin*> pending_builtins;
    for (const Builtin& b : query.builtins) {
      for (const Term* t : {&b.lhs, &b.rhs}) {
        if (t->is_var() && SlotOf(t->var, /*add=*/false) == kNoSlot) {
          status_ = Status::Unsupported("unsafe query: built-in variable " +
                                        t->var + " not bound by any atom");
          return;
        }
      }
      pending_builtins.push_back(&b);
    }

    bound_.assign(names_.size(), false);
    // Moves the pending built-ins that just became decidable into `out`,
    // keeping their query order.
    auto attach_ready = [&](std::vector<BuiltinCheck>* out) {
      auto ready = [&](const Term& t) {
        return !t.is_var() || bound_[SlotOf(t.var, /*add=*/false)];
      };
      std::erase_if(pending_builtins, [&](const Builtin* b) {
        if (!ready(b->lhs) || !ready(b->rhs)) return false;
        out->push_back({b->op, OperandOf(b->lhs), OperandOf(b->rhs)});
        return true;
      });
    };

    std::vector<size_t> pending;
    pending.reserve(query.atoms.size());
    for (size_t i = 0; i < query.atoms.size(); ++i) {
      if (i != seed_atom) pending.push_back(i);
    }
    if (seed_atom != kNoSeed) {
      AddStep(seed_atom, /*probe=*/false);
      attach_ready(&steps_.back().checks);
    } else {
      attach_ready(&ground_checks_);
    }
    // Greedy ordering: repeatedly take the atom with the most bound
    // positions; std::max_element keeps the first of equally good atoms.
    while (!pending.empty()) {
      auto best = std::max_element(
          pending.begin(), pending.end(),
          [&](size_t a, size_t b) { return BoundScore(a) < BoundScore(b); });
      AddStep(*best, /*probe=*/true);
      pending.erase(best);
      attach_ready(&steps_.back().checks);
    }

    named_slots_.reserve(names_.size());
    for (uint32_t s = 0; s < names_.size(); ++s) {
      named_slots_.emplace_back(names_[s], s);
    }
    std::sort(named_slots_.begin(), named_slots_.end(),
              [](const auto& a, const auto& b) { return *a.first < *b.first; });
  }

  const Status& status() const { return status_; }
  size_t slot_count() const { return names_.size(); }
  const std::vector<Step>& steps() const { return steps_; }
  const std::vector<BuiltinCheck>& ground_checks() const {
    return ground_checks_;
  }

  Tuple HeadTuple(const std::vector<const Value*>& slots) const {
    std::vector<Value> row;
    row.reserve(head_slots_.size());
    for (uint32_t s : head_slots_) row.push_back(*slots[s]);
    return Tuple(std::move(row));
  }

  Binding MakeBinding(const std::vector<const Value*>& slots) const {
    Binding binding;
    for (const auto& [name, slot] : named_slots_) {
      binding.emplace_hint(binding.end(), *name, *slots[slot]);
    }
    return binding;
  }

 private:
  uint32_t SlotOf(const std::string& var, bool add) {
    for (uint32_t s = 0; s < names_.size(); ++s) {
      if (*names_[s] == var) return s;
    }
    if (!add) return kNoSlot;
    names_.push_back(&var);
    return static_cast<uint32_t>(names_.size() - 1);
  }

  Operand OperandOf(const Term& t) {
    if (!t.is_var()) return Operand{&t.constant, kNoSlot};
    return Operand{nullptr, SlotOf(t.var, /*add=*/false)};
  }

  // Positions of atom `a` that are constants or already-bound variables.
  size_t BoundScore(size_t a) const {
    size_t score = 0;
    for (uint32_t slot : term_slots_[a]) {
      if (slot == kNoSlot || bound_[slot]) ++score;
    }
    return score;
  }

  // Appends the step for atom `a`. A probing step looks its candidates up
  // by its first constant or already-bound position; the seed step scans
  // the caller's tuples and checks every position.
  void AddStep(size_t a, bool probe) {
    const Atom& atom = query_.atoms[a];
    const std::vector<uint32_t>& slots = term_slots_[a];
    Step step;
    step.atom = &atom;
    // The lookup column is decided on what was bound before this step.
    for (uint32_t i = 0; probe && i < slots.size(); ++i) {
      if (slots[i] == kNoSlot || bound_[slots[i]]) {
        step.lookup_column = i;
        step.key = OperandOf(atom.terms[i]);
        break;
      }
    }
    for (uint32_t i = 0; i < slots.size(); ++i) {
      if (i == step.lookup_column) continue;
      PositionOp op;
      op.column = i;
      op.operand = OperandOf(atom.terms[i]);
      if (slots[i] != kNoSlot && !bound_[slots[i]]) {
        op.bind = true;  // First occurrence; later ones check this slot.
        bound_[slots[i]] = true;
      }
      step.ops.push_back(op);
    }
    steps_.push_back(std::move(step));
  }

  const ConjunctiveQuery& query_;
  Status status_ = Status::OK();
  std::vector<const std::string*> names_;  // Slot -> variable name.
  std::vector<std::vector<uint32_t>> term_slots_;  // Per atom, per position.
  std::vector<bool> bound_;  // Compile-time: slots bound by earlier steps.
  std::vector<Step> steps_;
  std::vector<BuiltinCheck> ground_checks_;  // Decidable before any step.
  std::vector<uint32_t> head_slots_;
  std::vector<std::pair<const std::string*, uint32_t>> named_slots_;
};

// One run of a plan: the relations its steps read and the slot binding.
// emit(plan, slots) is called at every complete match, in depth-first order.
template <typename Emit>
class Run {
 public:
  Run(const Plan& plan, Emit& emit)
      : plan_(plan), emit_(emit), slots_(plan.slot_count(), nullptr) {}

  // Runs the plan over `db`; with `seed`, step 0 scans those tuples instead.
  void Execute(const ReadView& db, const std::set<Tuple>* seed) {
    for (const BuiltinCheck& c : plan_.ground_checks()) {
      if (!EvalBuiltin(c.op, Resolve(c.lhs), Resolve(c.rhs))) return;
    }
    const std::vector<Step>& steps = plan_.steps();
    views_.reserve(steps.size());
    for (size_t d = 0; d < steps.size(); ++d) {
      if (d == 0 && seed != nullptr) {
        views_.emplace_back();
        continue;
      }
      views_.push_back(db.View(steps[d].atom->relation));
      if (!views_.back().exists()) return;  // Missing relation: empty answer.
    }
    if (seed == nullptr) {
      Descend(0);
      return;
    }
    for (const Tuple& t : *seed) {
      if (Match(steps[0], t)) Descend(1);
    }
  }

 private:
  const Value& Resolve(const Operand& o) const {
    return o.constant != nullptr ? *o.constant : *slots_[o.slot];
  }

  bool Match(const Step& step, const Tuple& tuple) {
    if (tuple.arity() != step.atom->terms.size()) return false;
    for (const PositionOp& op : step.ops) {
      const Value& v = tuple.at(op.column);
      if (op.bind) {
        slots_[op.operand.slot] = &v;
      } else if (!(Resolve(op.operand) == v)) {
        return false;
      }
    }
    for (const BuiltinCheck& c : step.checks) {
      if (!EvalBuiltin(c.op, Resolve(c.lhs), Resolve(c.rhs))) return false;
    }
    return true;
  }

  void Descend(size_t depth) {
    const std::vector<Step>& steps = plan_.steps();
    if (depth == steps.size()) {
      emit_(plan_, slots_);
      return;
    }
    const Step& step = steps[depth];
    auto visit = [&](const Tuple& tuple) {
      if (Match(step, tuple)) Descend(depth + 1);
    };
    if (step.lookup_column == kNoSlot) {
      views_[depth].ForEach(visit);
    } else {
      views_[depth].ForEachMatch(step.lookup_column, Resolve(step.key), visit);
    }
  }

  const Plan& plan_;
  Emit& emit_;
  std::vector<const Value*> slots_;
  std::vector<RelationView> views_;
};

template <typename Emit>
Status RunPlan(const ReadView& db, const ConjunctiveQuery& query,
               size_t seed_atom, const std::set<Tuple>* seed, Emit emit) {
  Plan plan(query, seed_atom);
  if (!plan.status().ok()) return plan.status();
  Run<Emit>(plan, emit).Execute(db, seed);
  return Status::OK();
}

}  // namespace

bool UnifyAtomWithTuple(const Atom& atom, const Tuple& tuple,
                        Binding* binding) {
  if (atom.terms.size() != tuple.arity()) return false;
  // Record variables newly bound here so we can roll back on failure.
  std::vector<std::string> added;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    const Value& v = tuple.at(i);
    if (!t.is_var()) {
      if (!(t.constant == v)) {
        for (const auto& name : added) binding->erase(name);
        return false;
      }
      continue;
    }
    auto it = binding->find(t.var);
    if (it == binding->end()) {
      binding->emplace(t.var, v);
      added.push_back(t.var);
    } else if (!(it->second == v)) {
      for (const auto& name : added) binding->erase(name);
      return false;
    }
  }
  return true;
}

Result<std::set<Tuple>> EvaluateQuery(const ReadView& db,
                                      const ConjunctiveQuery& query) {
  std::set<Tuple> out;
  P2PDB_RETURN_IF_ERROR(RunPlan(
      db, query, Plan::kNoSeed, nullptr,
      [&](const Plan& plan, const std::vector<const Value*>& slots) {
        out.insert(plan.HeadTuple(slots));
      }));
  return out;
}

Result<std::vector<Binding>> EvaluateBindings(const ReadView& db,
                                              const ConjunctiveQuery& query) {
  std::vector<Binding> out;
  P2PDB_RETURN_IF_ERROR(RunPlan(
      db, query, Plan::kNoSeed, nullptr,
      [&](const Plan& plan, const std::vector<const Value*>& slots) {
        out.push_back(plan.MakeBinding(slots));
      }));
  return out;
}

Result<std::set<Tuple>> EvaluateQueryDelta(const ReadView& db,
                                           const ConjunctiveQuery& query,
                                           size_t delta_atom,
                                           const std::set<Tuple>& delta) {
  if (delta_atom >= query.atoms.size()) {
    return Status::InvalidArgument("delta_atom out of range");
  }
  std::set<Tuple> out;
  P2PDB_RETURN_IF_ERROR(RunPlan(
      db, query, delta_atom, &delta,
      [&](const Plan& plan, const std::vector<const Value*>& slots) {
        out.insert(plan.HeadTuple(slots));
      }));
  return out;
}

}  // namespace p2pdb::rel
