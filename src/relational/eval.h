// Conjunctive query evaluation over any ReadView (a live database or an
// immutable MVCC snapshot).
//
// Every entry point compiles the query once per call into a slot plan, then
// runs that plan:
//   - Slots: each variable gets a dense slot number. The run-time binding is
//     a vector of pointers, one per slot, into the tuples being joined (live
//     relations are not mutated during an evaluation, and row-log rows never
//     move), so matching a candidate tuple copies no value.
//   - Steps: atoms are ordered greedily, most-bound first (constants count as
//     bound; ties go to the earliest atom). Each step knows at compile time
//     its lookup column (the first constant or already-bound position, probed
//     through the relation's index; a full scan when every position is free),
//     which positions bind a slot and which check one against a slot or a
//     constant, and which built-ins become decidable after it.
//   - Relations are resolved once per step per call; nothing is cached across
//     calls (snapshot readers run on many threads, and a recovered peer
//     replaces its database).
//
// Order guarantee: EvaluateBindings returns bindings in depth-first order of
// the greedy step sequence, each step visiting candidates in the relation's
// own order (its index order for a lookup, its scan order otherwise). The
// order-dependent projection-check chase consumes that sequence, in the
// distributed update and in the centralized oracle alike, so it is part of
// the contract: tests/eval_property_test.cc pins it.
#ifndef P2PDB_RELATIONAL_EVAL_H_
#define P2PDB_RELATIONAL_EVAL_H_

#include <set>
#include <vector>

#include "src/relational/cq.h"
#include "src/relational/database.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// Evaluates the query body and returns the projection onto head_vars as a
/// sorted, duplicate-free set of tuples (set semantics). Fails on an unsafe
/// query (see ConjunctiveQuery::CheckSafe).
Result<std::set<Tuple>> EvaluateQuery(const ReadView& db,
                                      const ConjunctiveQuery& query);

/// Like EvaluateQuery but returns the full bindings (one per result, in the
/// order guaranteed above), used by the chase when applying rule heads that
/// need body variable values.
Result<std::vector<Binding>> EvaluateBindings(const ReadView& db,
                                              const ConjunctiveQuery& query);

/// Semi-naive (incremental) evaluation: answers of `query` that use at least
/// one tuple of `delta` in the occurrence `delta_atom` (index into
/// query.atoms). The delta atom is matched against `delta` only; the other
/// atoms read the (already updated) database. Union over all atom occurrences
/// of a changed relation yields the exact new answers of a monotone update.
/// One plan serves the whole delta set.
Result<std::set<Tuple>> EvaluateQueryDelta(const ReadView& db,
                                           const ConjunctiveQuery& query,
                                           size_t delta_atom,
                                           const std::set<Tuple>& delta);

/// True if the atom matches the tuple under `binding`, extending it in place.
/// On mismatch the binding is left unchanged.
bool UnifyAtomWithTuple(const Atom& atom, const Tuple& tuple, Binding* binding);

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_EVAL_H_
