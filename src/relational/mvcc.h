// MVCC read snapshots: immutable, shareable point-in-time views of one
// peer's database, published through a lock-free SnapshotStore so any number
// of reader threads can answer point lookups and conjunctive queries while
// the chase keeps applying deltas to the live database underneath.
//
// Relations only grow (the chase is monotone), so a snapshot copies nothing.
// Each live relation appends every inserted tuple to a shared, append-only
// row log (src/relational/row_log.h), and a snapshot is just, per relation,
// that log plus a row-count watermark. Readers see the rows below the
// watermark and skip the newer rows the writer keeps appending.
//
// Writer protocol (one writer per store — the peer's runtime-serialized
// update path): on each committed delta batch, record the new row counts of
// the relations the batch touched (sharing every other entry with the
// previous snapshot), then Publish(). The batch's rows were appended before
// the publishing release store, so a reader that acquires the snapshot sees
// them all: readers observe a prefix of committed batches.
//
// Reclamation: Publish() unlinks the superseded snapshot and frees it once no
// reader can still be copying it. Readers announce themselves in one of two
// epoch counters only while they copy the current pointer into their own
// shared_ptr (a handful of instructions); the writer flips the epoch and
// frees what it unlinked before the flip once the old epoch's counter drains,
// checking again on later publishes instead of waiting. With no reader
// mid-Acquire the store keeps only the current snapshot; a reader that holds
// a SnapshotPtr keeps that snapshot (and its logs) alive on its own.
//
// Why not std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic guards its
// pointer field with a lock bit but unlocks the read side with a relaxed
// fetch_sub, so a reader's critical section has no release edge to the next
// writer — a (benign on x86, but real per the memory model) data race that
// TSan reports. The epoch counters here give every reader an explicit
// release edge to the writer that frees.
#ifndef P2PDB_RELATIONAL_MVCC_H_
#define P2PDB_RELATIONAL_MVCC_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/relational/database.h"

namespace p2pdb::rel {

/// An immutable point-in-time view of one peer's database. Evaluates queries
/// directly (it is a ReadView) and is safe to share across threads: reads
/// only touch row-log rows below the watermarks, which never change.
class DbSnapshot : public ReadView {
 public:
  /// One relation as of this snapshot: its row log and how many of its rows
  /// are visible.
  struct Entry {
    std::shared_ptr<const RowLog> log;
    uint32_t rows = 0;
  };
  using RelationMap = std::map<std::string, Entry>;

  DbSnapshot() = default;
  DbSnapshot(uint64_t version, RelationMap relations)
      : version_(version), relations_(std::move(relations)) {}

  RelationView View(const std::string& name) const override {
    auto it = relations_.find(name);
    if (it == relations_.end()) return RelationView();
    return RelationView(it->second.log.get(), it->second.rows);
  }

  /// Number of delta batches folded in (0 = the peer's initial database).
  uint64_t version() const { return version_; }
  size_t relation_count() const { return relations_.size(); }
  size_t TotalTuples() const;
  const RelationMap& relations() const { return relations_; }

 private:
  uint64_t version_ = 0;
  RelationMap relations_;
};

using SnapshotPtr = std::shared_ptr<const DbSnapshot>;

/// Snapshots every relation of `db` at its current row count, tagged
/// `version`. Used at peer construction and after recovery. Writer side: it
/// starts the row logs of relations no snapshot has seen yet.
SnapshotPtr BuildSnapshot(const Database& db, uint64_t version);

/// Successor of `prev` after a committed batch: relations named in `touched`
/// get their current row count in `db` (which already holds the batch);
/// every other entry is shared with `prev`. Relations present in `db` but
/// absent from `prev` are added too, so a relation created since the last
/// snapshot is never dropped. Costs O(relations), copies no tuple.
SnapshotPtr AdvanceSnapshot(const SnapshotPtr& prev, const Database& db,
                            const std::vector<std::string>& touched,
                            uint64_t version);

/// Lock-free publication point between one writer and any number of reader
/// threads. The store always holds a snapshot (initially an empty one), so
/// Acquire() never returns null and a reader that outlives its peer (churn)
/// keeps getting the last committed state.
class SnapshotStore {
 public:
  SnapshotStore();
  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// The read path: announce in the current epoch, copy the current
  /// snapshot's shared_ptr, leave. Never takes a lock and never waits for
  /// the writer; the returned reference stays valid whatever the writer does.
  SnapshotPtr Acquire() const;

  /// Publishes a fully built snapshot and reclaims superseded ones no reader
  /// can still reach. Writer-side only; the mutex never appears on the read
  /// path.
  void Publish(SnapshotPtr next);

  /// Version of the currently published snapshot.
  uint64_t PublishedVersion() const {
    return published_version_.load(std::memory_order_relaxed);
  }

  /// Delta batches the writer has committed to the live database. Bumped by
  /// the writer before it builds the successor snapshot, so
  /// CommittedBatches() - snapshot->version() is how many batches a reader's
  /// view lags (normally 0; briefly 1 while the writer publishes).
  uint64_t CommittedBatches() const {
    return committed_batches_.load(std::memory_order_relaxed);
  }
  uint64_t NoteBatchCommitted() {
    return committed_batches_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Snapshots the store itself still references: the current one plus the
  /// superseded ones not yet reclaimed.
  size_t RetainedCount() const;

 private:
  using Holder = std::unique_ptr<const SnapshotPtr>;

  /// Frees what readers can no longer reach and, when nothing is waiting on
  /// the previous epoch, flips the epoch. Called under writer_mutex_.
  void Reclaim();

  std::atomic<const SnapshotPtr*> current_;
  std::atomic<uint64_t> epoch_{0};
  // Readers inside Acquire, by the parity of the epoch they announced in.
  mutable std::atomic<uint64_t> readers_[2] = {};

  // Guards the two lists; taken by writers only.
  mutable std::mutex writer_mutex_;
  std::vector<Holder> retired_;   // Unlinked in the current epoch.
  std::vector<Holder> draining_;  // Unlinked before the last flip.

  std::atomic<uint64_t> committed_batches_{0};
  std::atomic<uint64_t> published_version_{0};
};

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_MVCC_H_
