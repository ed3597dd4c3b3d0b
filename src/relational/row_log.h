// RowLog: the append-only, reader-safe row store behind a relation's MVCC
// snapshots.
//
// One writer appends rows; any number of reader threads read a prefix of
// them concurrently, without locks. A reader names its prefix by a row-count
// watermark that the writer published after appending those rows (through a
// release store, see SnapshotStore), so everything below the watermark is
// fully written before the reader can know the watermark.
//
// Layout:
//   - Rows live in segments that never move: segment k holds
//     kFirstSegmentRows << k rows, and the directory of segment pointers is a
//     fixed array of atomics. Appending never relocates a row a reader may be
//     looking at.
//   - Each column has a hash-chain index: an open-addressing table of atomic
//     head row ids, one slot per distinct value, and per-row `next` links.
//     The writer writes a row's links before it release-stores the row as the
//     new chain head, and never rewrites a link afterwards, so a reader that
//     acquire-loads a head can follow the chain. Chains run newest first; a
//     reader skips rows at or beyond its watermark.
//   - A whole-row table (one slot per row; rows are distinct) answers point
//     lookups.
// When a table fills up the writer builds a twice-as-large copy of its heads
// and release-stores it as current. Superseded tables stay allocated until
// the log is destroyed (their sizes are geometric, so together they are
// smaller than the current one): a reader still probing one finds every row
// below its watermark there.
#ifndef P2PDB_RELATIONAL_ROW_LOG_H_
#define P2PDB_RELATIONAL_ROW_LOG_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/relational/tuple.h"

namespace p2pdb::rel {

class RowLog {
 public:
  explicit RowLog(size_t arity);
  ~RowLog();

  RowLog(const RowLog&) = delete;
  RowLog& operator=(const RowLog&) = delete;

  // --- Writer side (one thread at a time) ---

  /// Appends a row the caller has already deduplicated, of the log's arity.
  /// It becomes visible to readers once a watermark above it is published.
  void Append(const Tuple& tuple);

  /// Rows appended so far: the watermark a snapshot taken now records.
  uint32_t size() const { return size_; }

  // --- Reader side: rows [0, rows) of a published watermark ---

  /// Calls f(tuple) for every row below `rows`, in append order.
  template <typename F>
  void ForEach(uint32_t rows, F&& f) const {
    uint32_t id = 0;
    for (size_t s = 0; id < rows; ++s) {
      const Segment* segment = segments_[s].load(std::memory_order_acquire);
      size_t n = std::min<size_t>(SegmentRows(s), rows - id);
      for (size_t i = 0; i < n; ++i) f(segment->rows[i]);
      id += static_cast<uint32_t>(n);
    }
  }

  /// Calls f(tuple) for every row below `rows` whose `column` equals `key`,
  /// newest first. A column beyond the arity matches nothing.
  template <typename F>
  void ForEachMatch(size_t column, const Value& key, uint32_t rows,
                    F&& f) const {
    if (column >= arity_) return;
    for (uint32_t link = ChainHead(column, key); link != 0;
         link = NextLink(link - 1, column)) {
      if (link - 1 < rows) f(Row(link - 1));
    }
  }

  /// True if `tuple` is one of the rows below `rows`.
  bool Contains(const Tuple& tuple, uint32_t rows) const;

 private:
  // Row ids are stored as links, id + 1, so that 0 means "none" and a freshly
  // zeroed table or link array is empty.
  static constexpr size_t kFirstSegmentBits = 4;
  static constexpr size_t kFirstSegmentRows = size_t{1} << kFirstSegmentBits;
  // Enough segments for every link a uint32_t can hold.
  static constexpr size_t kMaxSegments = 33 - kFirstSegmentBits;
  static constexpr size_t kFirstTableSlots = 16;

  struct Segment {
    Segment(size_t rows, size_t arity);
    std::unique_ptr<Tuple[]> rows;
    std::unique_ptr<uint32_t[]> next;  // next[offset * arity + column].
  };

  struct HeadTable {
    explicit HeadTable(size_t slots);
    size_t mask;
    std::unique_ptr<std::atomic<uint32_t>[]> heads;
  };

  /// One hash index: over a column (chains of equal values) or, at position
  /// arity_, over whole rows (each slot holds exactly one row).
  struct Index {
    std::atomic<const HeadTable*> current{nullptr};
    std::vector<std::unique_ptr<HeadTable>> generations;  // Writer-owned.
    size_t keys = 0;                                       // Writer-owned.
  };

  static size_t SegmentRows(size_t segment) {
    return kFirstSegmentRows << segment;
  }
  /// (segment, offset) of row `id`.
  static std::pair<size_t, size_t> Locate(uint32_t id) {
    uint64_t n = uint64_t{id} + kFirstSegmentRows;
    size_t top = static_cast<size_t>(std::bit_width(n)) - 1;
    return {top - kFirstSegmentBits,
            static_cast<size_t>(n - (uint64_t{1} << top))};
  }

  const Tuple& Row(uint32_t id) const {
    auto [segment, offset] = Locate(id);
    return segments_[segment].load(std::memory_order_acquire)->rows[offset];
  }

  uint32_t NextLink(uint32_t id, size_t column) const {
    auto [segment, offset] = Locate(id);
    const Segment* s = segments_[segment].load(std::memory_order_acquire);
    return s->next[offset * arity_ + column];
  }

  /// The newest row whose `column` equals `key`, as a link (0 = none).
  uint32_t ChainHead(size_t column, const Value& key) const;

  /// Hash of row `id` under index `which` (a column, or arity_ = whole row).
  size_t HashOf(uint32_t id, size_t which) const;
  /// Makes row `id` the head of its key's chain in index `which`.
  void Link(uint32_t id, size_t which);
  void Grow(Index* index, size_t which);

  size_t arity_;
  uint32_t size_ = 0;  // Writer-owned.
  std::atomic<Segment*> segments_[kMaxSegments] = {};
  std::unique_ptr<Index[]> indexes_;  // arity_ + 1 of them.
};

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_ROW_LOG_H_
