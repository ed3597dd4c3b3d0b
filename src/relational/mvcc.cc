#include "src/relational/mvcc.h"

namespace p2pdb::rel {

namespace {

DbSnapshot::Entry EntryOf(const Relation& live) {
  std::shared_ptr<const RowLog> log = live.SharedLog();
  uint32_t rows = log->size();
  return {std::move(log), rows};
}

}  // namespace

size_t DbSnapshot::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, entry] : relations_) {
    (void)name;
    total += entry.rows;
  }
  return total;
}

SnapshotPtr BuildSnapshot(const Database& db, uint64_t version) {
  DbSnapshot::RelationMap relations;
  for (const auto& [name, relation] : db.relations()) {
    relations.emplace(name, EntryOf(relation));
  }
  return std::make_shared<const DbSnapshot>(version, std::move(relations));
}

SnapshotPtr AdvanceSnapshot(const SnapshotPtr& prev, const Database& db,
                            const std::vector<std::string>& touched,
                            uint64_t version) {
  // The chase only inserts, so a relation absent from `touched` has the same
  // rows as in `prev`; its entry is reused as is.
  DbSnapshot::RelationMap relations =
      prev != nullptr ? prev->relations() : DbSnapshot::RelationMap{};
  for (const std::string& name : touched) {
    const Relation* live = db.FindRelation(name);
    if (live == nullptr) continue;  // Touched then dropped: nothing to carry.
    relations[name] = EntryOf(*live);
  }
  // A relation created since `prev` that the batch did not name (schema
  // growth outside the delta path) must still appear.
  for (const auto& [name, relation] : db.relations()) {
    if (relations.count(name) == 0) relations.emplace(name, EntryOf(relation));
  }
  return std::make_shared<const DbSnapshot>(version, std::move(relations));
}

SnapshotStore::SnapshotStore()
    : current_(new SnapshotPtr(std::make_shared<const DbSnapshot>())) {}

SnapshotStore::~SnapshotStore() {
  delete current_.load(std::memory_order_relaxed);
}

SnapshotPtr SnapshotStore::Acquire() const {
  // Announce in the current epoch, then confirm the epoch did not flip in
  // between: a writer that flipped may already have checked this counter.
  uint64_t epoch = epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    readers_[epoch & 1].fetch_add(1, std::memory_order_seq_cst);
    uint64_t now = epoch_.load(std::memory_order_seq_cst);
    if (now == epoch) break;
    readers_[epoch & 1].fetch_sub(1, std::memory_order_release);
    epoch = now;
  }
  SnapshotPtr snap = *current_.load(std::memory_order_seq_cst);
  readers_[epoch & 1].fetch_sub(1, std::memory_order_release);
  return snap;
}

void SnapshotStore::Publish(SnapshotPtr next) {
  uint64_t version = next->version();
  Holder holder = std::make_unique<const SnapshotPtr>(std::move(next));
  std::lock_guard<std::mutex> lock(writer_mutex_);
  retired_.emplace_back(
      current_.exchange(holder.release(), std::memory_order_seq_cst));
  published_version_.store(version, std::memory_order_relaxed);
  Reclaim();
}

void SnapshotStore::Reclaim() {
  // A reader that loaded a holder announced itself in the epoch current when
  // the holder was unlinked (or the epoch before it, if that one has not
  // drained yet — and then no flip happens). Holders unlinked before a flip
  // are therefore unreachable once the pre-flip epoch's counter reads 0.
  uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (!draining_.empty()) {
    if (readers_[(epoch - 1) & 1].load(std::memory_order_seq_cst) != 0) {
      return;  // A reader is still inside Acquire; retry on a later publish.
    }
    draining_.clear();
  }
  if (retired_.empty()) return;
  draining_.swap(retired_);
  epoch_.store(epoch + 1, std::memory_order_seq_cst);
  if (readers_[epoch & 1].load(std::memory_order_seq_cst) == 0) {
    draining_.clear();
  }
}

size_t SnapshotStore::RetainedCount() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return 1 + retired_.size() + draining_.size();
}

}  // namespace p2pdb::rel
