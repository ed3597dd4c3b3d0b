#include "src/relational/relation.h"

#include "src/util/string_util.h"

namespace p2pdb::rel {

Result<bool> Relation::Insert(Tuple tuple) {
  if (tuple.arity() != schema_.arity()) {
    return Status::InvalidArgument(
        StrFormat("arity mismatch inserting into %s: got %zu, want %zu",
                  schema_.name().c_str(), tuple.arity(), schema_.arity()));
  }
  auto [it, added] = tuples_.insert(std::move(tuple));
  if (added) {
    if (log_ != nullptr) log_->Append(*it);
    // Keep built indexes fresh incrementally: rebuilding on every insert
    // would make chase loops quadratic.
    for (auto& [column, index] : indexes_) {
      if (column < it->arity()) index.emplace(it->at(column), &*it);
    }
  }
  return added;
}

const Relation::ColumnIndex& Relation::IndexOn(size_t column) const {
  auto it = indexes_.find(column);
  if (it == indexes_.end()) {
    ColumnIndex index;
    for (const Tuple& t : tuples_) {
      if (column < t.arity()) index.emplace(t.at(column), &t);
    }
    it = indexes_.emplace(column, std::move(index)).first;
  }
  return it->second;
}

std::shared_ptr<const RowLog> Relation::SharedLog() const {
  if (log_ == nullptr) {
    log_ = std::make_shared<RowLog>(schema_.arity());
    for (const Tuple& t : tuples_) log_->Append(t);
  }
  return log_;
}

std::set<Tuple> Relation::CertainTuples() const {
  std::set<Tuple> out;
  for (const Tuple& t : tuples_) {
    if (!t.HasNull()) out.insert(t);
  }
  return out;
}

std::string Relation::ToString() const {
  std::string out = schema_.ToString() + " {" +
                    std::to_string(tuples_.size()) + " tuples}\n";
  for (const Tuple& t : tuples_) {
    out += "  " + t.ToString() + "\n";
  }
  return out;
}

}  // namespace p2pdb::rel
