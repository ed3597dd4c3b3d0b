// Property tests: the compiled evaluator (greedy ordering + column indexes)
// must agree with a brute-force reference on randomized databases and
// conjunctive queries, its semi-naive delta evaluation must equal the
// reference restricted to answers that use a delta tuple, and
// EvaluateBindings must enumerate bindings in exactly the order of the
// map-based backtracker it replaced (the projection-check chase is order
// dependent), over a live database and over an MVCC snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/relational/eval.h"
#include "src/relational/mvcc.h"
#include "src/util/rng.h"

namespace p2pdb::rel {
namespace {

// Reference: enumerate every assignment of tuples to atoms, check
// consistency and built-ins by direct unification, no ordering tricks.
// Atom `i` ranges over candidates(i).
std::set<Tuple> ReferenceEvaluate(
    const ConjunctiveQuery& query,
    const std::function<const std::set<Tuple>*(size_t)>& candidates) {
  std::set<Tuple> results;
  std::vector<const std::set<Tuple>*> relations;
  for (size_t i = 0; i < query.atoms.size(); ++i) {
    const std::set<Tuple>* tuples = candidates(i);
    if (tuples == nullptr) return results;  // Empty.
    relations.push_back(tuples);
  }
  std::vector<const Tuple*> chosen(query.atoms.size(), nullptr);
  std::function<void(size_t)> enumerate = [&](size_t depth) {
    if (depth == query.atoms.size()) {
      Binding binding;
      for (size_t i = 0; i < query.atoms.size(); ++i) {
        if (!UnifyAtomWithTuple(query.atoms[i], *chosen[i], &binding)) return;
      }
      for (const Builtin& b : query.builtins) {
        auto value = [&](const Term& t) {
          return t.is_var() ? binding.at(t.var) : t.constant;
        };
        if (!EvalBuiltin(b.op, value(b.lhs), value(b.rhs))) return;
      }
      std::vector<Value> row;
      for (const std::string& v : query.head_vars) row.push_back(binding.at(v));
      results.insert(Tuple(std::move(row)));
      return;
    }
    for (const Tuple& t : *relations[depth]) {
      chosen[depth] = &t;
      enumerate(depth + 1);
    }
  };
  enumerate(0);
  return results;
}

std::set<Tuple> ReferenceEvaluate(const Database& db,
                                  const ConjunctiveQuery& query) {
  return ReferenceEvaluate(query, [&](size_t i) -> const std::set<Tuple>* {
    const Relation* r = db.FindRelation(query.atoms[i].relation);
    return r != nullptr ? &r->tuples() : nullptr;
  });
}

// The map-based backtracker the compiled evaluator replaced, kept here
// verbatim in behaviour as the order oracle: greedy most-bound-first atom
// order (first of equals wins), index lookup on the first constant or bound
// position, built-ins as soon as decidable, one Binding copy per candidate.
std::vector<Binding> LegacyBindings(const ReadView& db,
                                    const ConjunctiveQuery& query) {
  std::vector<const Atom*> order;
  std::vector<std::vector<const Builtin*>> builtins_at;
  std::vector<const Atom*> pending;
  for (const Atom& a : query.atoms) pending.push_back(&a);
  std::set<std::string> bound;
  auto score = [&](const Atom& atom) {
    size_t s = 0;
    for (const Term& t : atom.terms) {
      if (!t.is_var() || bound.count(t.var)) ++s;
    }
    return s;
  };
  auto ready = [&](const Builtin& b) {
    for (const Term* t : {&b.lhs, &b.rhs}) {
      if (t->is_var() && !bound.count(t->var)) return false;
    }
    return true;
  };
  std::vector<const Builtin*> pending_builtins;
  for (const Builtin& b : query.builtins) pending_builtins.push_back(&b);
  auto take_ready = [&] {
    std::vector<const Builtin*> now;
    std::erase_if(pending_builtins, [&](const Builtin* b) {
      if (!ready(*b)) return false;
      now.push_back(b);
      return true;
    });
    return now;
  };
  std::vector<const Builtin*> immediate = take_ready();
  while (!pending.empty()) {
    auto best = std::max_element(
        pending.begin(), pending.end(),
        [&](const Atom* a, const Atom* b) { return score(*a) < score(*b); });
    order.push_back(*best);
    pending.erase(best);
    for (const std::string& v : order.back()->Variables()) bound.insert(v);
    builtins_at.push_back(take_ready());
  }

  std::vector<Binding> results;
  auto resolve = [](const Term& t, const Binding& b) {
    return t.is_var() ? b.at(t.var) : t.constant;
  };
  for (const Builtin* b : immediate) {
    if (!EvalBuiltin(b->op, resolve(b->lhs, {}), resolve(b->rhs, {}))) {
      return results;
    }
  }
  std::function<void(size_t, const Binding&)> backtrack =
      [&](size_t depth, const Binding& binding) {
        if (depth == order.size()) {
          results.push_back(binding);
          return;
        }
        const Atom& atom = *order[depth];
        const RelationView rel = db.View(atom.relation);
        if (!rel.exists()) return;
        auto try_tuple = [&](const Tuple& tuple) {
          Binding extended = binding;
          if (!UnifyAtomWithTuple(atom, tuple, &extended)) return;
          for (const Builtin* b : builtins_at[depth]) {
            if (!EvalBuiltin(b->op, resolve(b->lhs, extended),
                             resolve(b->rhs, extended))) {
              return;
            }
          }
          backtrack(depth + 1, extended);
        };
        for (size_t i = 0; i < atom.terms.size(); ++i) {
          const Term& t = atom.terms[i];
          if (!t.is_var()) {
            rel.ForEachMatch(i, t.constant, try_tuple);
            return;
          }
          auto it = binding.find(t.var);
          if (it != binding.end()) {
            rel.ForEachMatch(i, it->second, try_tuple);
            return;
          }
        }
        rel.ForEach(try_tuple);
      };
  backtrack(0, Binding{});
  return results;
}

struct RandomCase {
  uint64_t seed;
  friend std::ostream& operator<<(std::ostream& os, const RandomCase& c) {
    return os << "seed" << c.seed;
  }
};

// Random database: 2-3 relations of arity 1-3, small integer domain so joins
// actually hit.
struct RandomDb {
  Database db;
  std::vector<std::string> names;
  std::vector<size_t> arities;
};

Tuple RandomRow(Rng& rng, size_t arity) {
  std::vector<Value> row;
  for (size_t i = 0; i < arity; ++i) {
    row.push_back(Value::Int(static_cast<int64_t>(rng.NextBelow(4))));
  }
  return Tuple(std::move(row));
}

RandomDb MakeRandomDb(Rng& rng) {
  RandomDb out;
  size_t relation_count = 2 + rng.NextBelow(2);
  for (size_t r = 0; r < relation_count; ++r) {
    std::string name = "r" + std::to_string(r);
    size_t arity = 1 + rng.NextBelow(3);
    std::vector<std::string> attrs;
    for (size_t i = 0; i < arity; ++i) attrs.push_back("c" + std::to_string(i));
    EXPECT_TRUE(out.db.CreateRelation(RelationSchema(name, attrs)).ok());
    size_t rows = rng.NextBelow(12);
    for (size_t k = 0; k < rows; ++k) {
      (void)out.db.Insert(name, RandomRow(rng, arity)).status();
    }
    out.names.push_back(name);
    out.arities.push_back(arity);
  }
  return out;
}

// Random query: 1-3 atoms over a pool of 4 variables, optional builtin.
// Returns false when the query came out with no variable at all.
bool MakeRandomQuery(Rng& rng, const RandomDb& rdb, ConjunctiveQuery* q) {
  const char* vars[] = {"X", "Y", "Z", "W"};
  std::set<std::string> used_vars;
  size_t atom_count = 1 + rng.NextBelow(3);
  for (size_t a = 0; a < atom_count; ++a) {
    size_t r = rng.NextBelow(rdb.names.size());
    Atom atom;
    atom.relation = rdb.names[r];
    for (size_t i = 0; i < rdb.arities[r]; ++i) {
      if (rng.NextBool(0.2)) {
        atom.terms.push_back(
            Term::Const(Value::Int(static_cast<int64_t>(rng.NextBelow(4)))));
      } else {
        const char* v = vars[rng.NextBelow(4)];
        atom.terms.push_back(Term::Var(v));
        used_vars.insert(v);
      }
    }
    q->atoms.push_back(std::move(atom));
  }
  if (used_vars.empty()) return false;
  std::vector<std::string> var_list(used_vars.begin(), used_vars.end());
  // Head: random non-empty subset of used variables.
  for (const std::string& v : var_list) {
    if (rng.NextBool(0.6)) q->head_vars.push_back(v);
  }
  if (q->head_vars.empty()) q->head_vars.push_back(var_list[0]);
  // Optional builtin over used variables.
  if (rng.NextBool(0.5) && var_list.size() >= 2) {
    Builtin b;
    b.op = static_cast<BuiltinOp>(rng.NextBelow(6));
    b.lhs = Term::Var(var_list[rng.NextBelow(var_list.size())]);
    b.rhs = rng.NextBool(0.5)
                ? Term::Var(var_list[rng.NextBelow(var_list.size())])
                : Term::Const(
                      Value::Int(static_cast<int64_t>(rng.NextBelow(4))));
    q->builtins.push_back(std::move(b));
  }
  return true;
}

class EvalPropertySweep : public ::testing::TestWithParam<RandomCase> {};

TEST_P(EvalPropertySweep, MatchesBruteForceReference) {
  Rng rng(GetParam().seed);
  RandomDb rdb = MakeRandomDb(rng);
  for (int trial = 0; trial < 10; ++trial) {
    ConjunctiveQuery q;
    if (!MakeRandomQuery(rng, rdb, &q)) continue;
    auto fast = EvaluateQuery(rdb.db, q);
    ASSERT_TRUE(fast.ok()) << q.ToString();
    std::set<Tuple> reference = ReferenceEvaluate(rdb.db, q);
    EXPECT_EQ(*fast, reference) << q.ToString() << "\n" << rdb.db.ToString();
  }
}

// Semi-naive evaluation after random inserts into one relation: for every
// occurrence of that relation, EvaluateQueryDelta equals the reference with
// that atom restricted to the inserted tuples (the other atoms reading the
// updated database).
TEST_P(EvalPropertySweep, DeltaMatchesReferenceOverDeltaTuples) {
  Rng rng(GetParam().seed + 1000);
  RandomDb rdb = MakeRandomDb(rng);
  for (int trial = 0; trial < 10; ++trial) {
    ConjunctiveQuery q;
    if (!MakeRandomQuery(rng, rdb, &q)) continue;
    size_t r = rng.NextBelow(rdb.names.size());
    const std::string& changed = rdb.names[r];
    std::set<Tuple> delta;
    size_t inserts = 1 + rng.NextBelow(4);
    for (size_t k = 0; k < inserts; ++k) {
      Tuple t = RandomRow(rng, rdb.arities[r]);
      auto added = rdb.db.Insert(changed, t);
      ASSERT_TRUE(added.ok());
      if (*added) delta.insert(std::move(t));
    }

    std::set<Tuple> union_fast;
    std::set<Tuple> union_reference;
    for (size_t i = 0; i < q.atoms.size(); ++i) {
      if (q.atoms[i].relation != changed) continue;
      auto fast = EvaluateQueryDelta(rdb.db, q, i, delta);
      ASSERT_TRUE(fast.ok()) << q.ToString();
      std::set<Tuple> reference =
          ReferenceEvaluate(q, [&](size_t a) -> const std::set<Tuple>* {
            if (a == i) return &delta;
            return &rdb.db.FindRelation(q.atoms[a].relation)->tuples();
          });
      EXPECT_EQ(*fast, reference)
          << "occurrence " << i << " of " << q.ToString() << "\n"
          << rdb.db.ToString();
      union_fast.insert(fast->begin(), fast->end());
      union_reference.insert(reference.begin(), reference.end());
    }
    // The union over occurrences is every answer with a delta tuple in it.
    EXPECT_EQ(union_fast, union_reference) << q.ToString();
  }
}

std::string Describe(const std::vector<Binding>& bindings) {
  std::string out;
  for (const Binding& b : bindings) {
    out += "{";
    for (const auto& [name, value] : b) {
      out += name + "=" + value.ToString() + " ";
    }
    out += "} ";
  }
  return out;
}

// EvaluateBindings must produce exactly the legacy backtracker's sequence:
// over the live database (sorted sets, multimap indexes) and over a snapshot
// (row-log append order, hash chains newest first), where rows appended
// after the snapshot stay invisible.
TEST_P(EvalPropertySweep, BindingOrderMatchesLegacyBacktracker) {
  Rng rng(GetParam().seed + 2000);
  RandomDb rdb = MakeRandomDb(rng);
  SnapshotPtr snapshot = BuildSnapshot(rdb.db, 0);
  for (size_t r = 0; r < rdb.names.size(); ++r) {
    for (size_t k = 0; k < 3; ++k) {
      (void)rdb.db.Insert(rdb.names[r], RandomRow(rng, rdb.arities[r]));
    }
  }
  for (int trial = 0; trial < 10; ++trial) {
    ConjunctiveQuery q;
    if (!MakeRandomQuery(rng, rdb, &q)) continue;
    for (const ReadView* view :
         {static_cast<const ReadView*>(&rdb.db),
          static_cast<const ReadView*>(snapshot.get())}) {
      auto fast = EvaluateBindings(*view, q);
      ASSERT_TRUE(fast.ok()) << q.ToString();
      std::vector<Binding> legacy = LegacyBindings(*view, q);
      EXPECT_EQ(*fast, legacy)
          << (view == &rdb.db ? "live " : "snapshot ") << q.ToString()
          << "\ncompiled: " << Describe(*fast)
          << "\nlegacy:   " << Describe(legacy);
    }
  }
}

std::vector<RandomCase> Seeds() {
  std::vector<RandomCase> out;
  for (uint64_t s = 1; s <= 25; ++s) out.push_back(RandomCase{s});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Randomized, EvalPropertySweep,
                         ::testing::ValuesIn(Seeds()));

}  // namespace
}  // namespace p2pdb::rel
