#include "src/relational/row_log.h"

#include <cstdlib>

namespace p2pdb::rel {

namespace {

// Spreads a value hash over the table's low bits (murmur3's finalizer):
// integer values hash to near-sequential numbers.
size_t Mix(size_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

// Linear probe for the slot of the key `same_key` recognises: the slot whose
// head row has that key, or the empty slot where it would go. Slots only ever
// go from empty to a key, and a slot's key never changes, so a probe never
// stops short of a key that was present when the table was published.
template <typename Table, typename SameKey>
size_t FindSlot(const Table& table, size_t hash, SameKey&& same_key,
                uint32_t* head) {
  for (size_t i = Mix(hash) & table.mask;; i = (i + 1) & table.mask) {
    uint32_t link = table.heads[i].load(std::memory_order_acquire);
    if (link == 0 || same_key(link - 1)) {
      *head = link;
      return i;
    }
  }
}

}  // namespace

RowLog::Segment::Segment(size_t rows, size_t arity)
    : rows(new Tuple[rows]),
      next(arity > 0 ? new uint32_t[rows * arity] : nullptr) {}

RowLog::HeadTable::HeadTable(size_t slots)
    : mask(slots - 1), heads(new std::atomic<uint32_t>[slots]) {
  for (size_t i = 0; i < slots; ++i) {
    heads[i].store(0, std::memory_order_relaxed);
  }
}

RowLog::RowLog(size_t arity) : arity_(arity), indexes_(new Index[arity + 1]) {
  for (size_t which = 0; which <= arity_; ++which) {
    auto table = std::make_unique<HeadTable>(kFirstTableSlots);
    indexes_[which].current.store(table.get(), std::memory_order_release);
    indexes_[which].generations.push_back(std::move(table));
  }
}

RowLog::~RowLog() {
  for (auto& segment : segments_) {
    delete segment.load(std::memory_order_relaxed);
  }
}

void RowLog::Append(const Tuple& tuple) {
  // Links are id + 1 in a uint32_t; far beyond any relation a peer holds.
  if (size_ == UINT32_MAX - 1) std::abort();
  uint32_t id = size_;
  auto [s, offset] = Locate(id);
  Segment* segment = segments_[s].load(std::memory_order_relaxed);
  if (segment == nullptr) {
    segment = new Segment(SegmentRows(s), arity_);
    segments_[s].store(segment, std::memory_order_release);
  }
  segment->rows[offset] = tuple;
  for (size_t which = 0; which <= arity_; ++which) Link(id, which);
  ++size_;
}

size_t RowLog::HashOf(uint32_t id, size_t which) const {
  const Tuple& row = Row(id);
  return which < arity_ ? row.at(which).Hash() : row.Hash();
}

void RowLog::Link(uint32_t id, size_t which) {
  Index& index = indexes_[which];
  const Tuple& row = Row(id);
  auto same_key = [&](uint32_t other) {
    return which < arity_ ? Row(other).at(which) == row.at(which)
                          : Row(other) == row;
  };
  size_t hash = HashOf(id, which);
  HeadTable* table = index.generations.back().get();
  uint32_t head = 0;
  size_t slot = FindSlot(*table, hash, same_key, &head);
  if (head == 0) {
    // A new key: keep the table at most half full.
    if (2 * (index.keys + 1) > table->mask + 1) {
      Grow(&index, which);
      table = index.generations.back().get();
      slot = FindSlot(*table, hash, same_key, &head);
    }
    ++index.keys;
  }
  // The row's link is written before the release store that makes it the
  // head readers start from, and never again.
  if (which < arity_) {
    auto [s, offset] = Locate(id);
    Segment* segment = segments_[s].load(std::memory_order_relaxed);
    segment->next[offset * arity_ + which] = head;
  }
  table->heads[slot].store(id + 1, std::memory_order_release);
}

void RowLog::Grow(Index* index, size_t which) {
  const HeadTable& old = *index->generations.back();
  auto bigger = std::make_unique<HeadTable>(2 * (old.mask + 1));
  for (size_t i = 0; i <= old.mask; ++i) {
    uint32_t link = old.heads[i].load(std::memory_order_relaxed);
    if (link == 0) continue;
    for (size_t j = Mix(HashOf(link - 1, which)) & bigger->mask;;
         j = (j + 1) & bigger->mask) {
      if (bigger->heads[j].load(std::memory_order_relaxed) == 0) {
        bigger->heads[j].store(link, std::memory_order_relaxed);
        break;
      }
    }
  }
  index->current.store(bigger.get(), std::memory_order_release);
  index->generations.push_back(std::move(bigger));
}

uint32_t RowLog::ChainHead(size_t column, const Value& key) const {
  const HeadTable* table =
      indexes_[column].current.load(std::memory_order_acquire);
  auto same_key = [&](uint32_t other) { return Row(other).at(column) == key; };
  uint32_t head = 0;
  FindSlot(*table, key.Hash(), same_key, &head);
  return head;
}

bool RowLog::Contains(const Tuple& tuple, uint32_t rows) const {
  if (tuple.arity() != arity_) return false;
  const HeadTable* table =
      indexes_[arity_].current.load(std::memory_order_acquire);
  auto same_row = [&](uint32_t other) { return Row(other) == tuple; };
  uint32_t head = 0;
  FindSlot(*table, tuple.Hash(), same_row, &head);
  return head != 0 && head - 1 < rows;
}

}  // namespace p2pdb::rel
