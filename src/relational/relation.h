// Relation: a schema plus a set of tuples (set semantics, as in the paper).
#ifndef P2PDB_RELATIONAL_RELATION_H_
#define P2PDB_RELATIONAL_RELATION_H_

#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/relational/row_log.h"
#include "src/relational/schema.h"
#include "src/relational/tuple.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// An extensional relation instance. Tuples are kept in a sorted set so that
/// iteration, printing and comparison are deterministic.
class Relation {
 public:
  Relation() = default;
  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {}

  /// Copies drop index state and the row log: a copied ColumnIndex would point
  /// at the SOURCE relation's tuple nodes, and a shared log would receive the
  /// copy's inserts. The copy rebuilds both lazily.
  Relation(const Relation& other)
      : schema_(other.schema_), tuples_(other.tuples_) {}
  Relation& operator=(const Relation& other) {
    if (this == &other) return *this;
    schema_ = other.schema_;
    tuples_ = other.tuples_;
    indexes_.clear();
    log_.reset();
    return *this;
  }
  // Moves keep indexes and the log: std::set is node-based, so the moved-from
  // set's tuple nodes (and the index pointers into them) stay valid in the
  // destination.
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const RelationSchema& schema() const { return schema_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Inserts a tuple; returns true if it was new. Fails on arity mismatch.
  /// Relations only grow: the chase is monotone, and snapshots share the
  /// append-only row log.
  Result<bool> Insert(Tuple tuple);

  bool Contains(const Tuple& tuple) const { return tuples_.count(tuple) > 0; }

  const std::set<Tuple>& tuples() const { return tuples_; }

  /// Tuples containing no labeled null (the "certain" part of the instance).
  std::set<Tuple> CertainTuples() const;

  /// Lazy index: value at `column` -> tuples. Built on first use and kept up
  /// to date by Insert; lets the evaluator turn nested-loop joins into index
  /// lookups. Writer side only (the lazy build mutates under const); tuples_
  /// is node-based, so the pointers stay valid.
  using ColumnIndex = std::multimap<Value, const Tuple*>;
  const ColumnIndex& IndexOn(size_t column) const;

  /// The relation's append-only row log, which MVCC snapshots share (see
  /// src/relational/row_log.h). Writer side only: the first call starts the
  /// log with the current tuples, and every later Insert appends to it.
  std::shared_ptr<const RowLog> SharedLog() const;

  /// Multi-line listing for debugging / example output.
  std::string ToString() const;

 private:
  RelationSchema schema_;
  std::set<Tuple> tuples_;
  mutable std::map<size_t, ColumnIndex> indexes_;
  // Started by the first SharedLog(); null for relations no snapshot has
  // seen (scratch join relations, copies), which then pay nothing for it.
  mutable std::shared_ptr<RowLog> log_;
};

/// What the evaluator reads a relation through: the live relation (writer
/// side: its sorted set and column indexes, whose order the order-dependent
/// projection-check chase relies on) or a snapshot's prefix of a row log (any
/// reader thread). Templates, not std::function, carry the per-tuple
/// callback.
class RelationView {
 public:
  RelationView() = default;  // A missing relation: empty.
  explicit RelationView(const Relation* live) : live_(live) {}
  RelationView(const RowLog* log, uint32_t rows) : log_(log), rows_(rows) {}

  bool exists() const { return live_ != nullptr || log_ != nullptr; }

  bool Contains(const Tuple& tuple) const {
    if (live_ != nullptr) return live_->Contains(tuple);
    return log_ != nullptr && log_->Contains(tuple, rows_);
  }

  /// Calls f(tuple) for every tuple.
  template <typename F>
  void ForEach(F&& f) const {
    if (live_ != nullptr) {
      for (const Tuple& t : live_->tuples()) f(t);
    } else if (log_ != nullptr) {
      log_->ForEach(rows_, f);
    }
  }

  /// Calls f(tuple) for every tuple whose `column` equals `key`.
  template <typename F>
  void ForEachMatch(size_t column, const Value& key, F&& f) const {
    if (live_ != nullptr) {
      auto [begin, end] = live_->IndexOn(column).equal_range(key);
      for (auto it = begin; it != end; ++it) f(*it->second);
    } else if (log_ != nullptr) {
      log_->ForEachMatch(column, key, rows_, f);
    }
  }

 private:
  const Relation* live_ = nullptr;
  const RowLog* log_ = nullptr;
  uint32_t rows_ = 0;
};

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_RELATION_H_
