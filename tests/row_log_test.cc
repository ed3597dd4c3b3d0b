// RowLog: the append-only row store MVCC snapshots read. Covers watermark
// prefixes of scans, chain lookups and point lookups, growth across many
// segments and table generations, and a TSan-targeted test where readers
// probe published prefixes while the writer keeps appending.
#include "src/relational/row_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace p2pdb::rel {
namespace {

Tuple Row(int64_t key, int64_t id) {
  return Tuple({Value::Int(key), Value::Str("v" + std::to_string(id))});
}

std::vector<Tuple> Matches(const RowLog& log, size_t column, const Value& key,
                           uint32_t rows) {
  std::vector<Tuple> out;
  log.ForEachMatch(column, key, rows,
                   [&](const Tuple& t) { out.push_back(t); });
  return out;
}

TEST(RowLogTest, WatermarksBoundScansChainsAndLookups) {
  RowLog log(2);
  log.Append(Row(7, 0));
  log.Append(Row(8, 1));
  uint32_t first = log.size();
  log.Append(Row(7, 2));
  EXPECT_EQ(first, 2u);
  EXPECT_EQ(log.size(), 3u);

  std::vector<Tuple> scanned;
  log.ForEach(first, [&](const Tuple& t) { scanned.push_back(t); });
  EXPECT_EQ(scanned, (std::vector<Tuple>{Row(7, 0), Row(8, 1)}));

  // Chains run newest first and stop at the watermark.
  EXPECT_EQ(Matches(log, 0, Value::Int(7), first),
            (std::vector<Tuple>{Row(7, 0)}));
  EXPECT_EQ(Matches(log, 0, Value::Int(7), log.size()),
            (std::vector<Tuple>{Row(7, 2), Row(7, 0)}));
  EXPECT_TRUE(Matches(log, 0, Value::Int(9), log.size()).empty());
  EXPECT_EQ(Matches(log, 1, Value::Str("v1"), log.size()),
            (std::vector<Tuple>{Row(8, 1)}));
  // A column past the arity matches nothing.
  EXPECT_TRUE(Matches(log, 2, Value::Int(7), log.size()).empty());

  EXPECT_FALSE(log.Contains(Row(7, 2), first));
  EXPECT_TRUE(log.Contains(Row(7, 2), log.size()));
  EXPECT_FALSE(log.Contains(Row(7, 3), log.size()));
  EXPECT_FALSE(log.Contains(Tuple({Value::Int(7)}), log.size()));
}

TEST(RowLogTest, GrowsAcrossSegmentsAndTableGenerations) {
  constexpr int64_t kRows = 20'000;
  constexpr int64_t kKeys = 97;
  RowLog log(2);
  for (int64_t i = 0; i < kRows; ++i) log.Append(Row(i % kKeys, i));
  ASSERT_EQ(log.size(), static_cast<uint32_t>(kRows));

  int64_t next = 0;
  bool in_order = true;
  log.ForEach(log.size(), [&](const Tuple& t) {
    in_order = in_order && t == Row(next % kKeys, next);
    ++next;
  });
  EXPECT_TRUE(in_order);
  EXPECT_EQ(next, kRows);

  for (int64_t key : {int64_t{0}, int64_t{42}, kKeys - 1}) {
    size_t expected = static_cast<size_t>((kRows - key + kKeys - 1) / kKeys);
    EXPECT_EQ(Matches(log, 0, Value::Int(key), log.size()).size(), expected);
    // A mid-log watermark cuts the chain at exactly that row.
    std::vector<Tuple> half = Matches(log, 0, Value::Int(key), kRows / 2);
    for (const Tuple& t : half) {
      EXPECT_LT(std::stoll(t.at(1).AsStr().substr(1)), kRows / 2);
    }
  }
  for (int64_t i = 0; i < kRows; i += 997) {
    Value unique = Value::Str("v" + std::to_string(i));
    EXPECT_TRUE(log.Contains(Row(i % kKeys, i), log.size()));
    EXPECT_EQ(Matches(log, 1, unique, log.size()).size(), 1u);
  }
}

// Readers only ever see rows below a watermark the writer release-stored
// after appending them, as SnapshotStore publishes snapshots. Every row below
// it must be complete and reachable through every index, while the writer
// keeps appending (new segments, table growth) underneath.
TEST(RowLogTest, ReadersSeePublishedPrefixesDuringAppends) {
  constexpr int64_t kRows = 30'000;
  constexpr int64_t kKeys = 61;
  RowLog log(2);
  std::atomic<uint32_t> published{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> checks{0};

  auto reader = [&](int64_t salt) {
    uint64_t round = 0;
    while (!done.load(std::memory_order_acquire)) {
      uint32_t rows = published.load(std::memory_order_acquire);
      if (rows == 0) continue;
      int64_t probe = static_cast<int64_t>((round++ * 7919 + salt) % rows);
      if (!log.Contains(Row(probe % kKeys, probe), rows)) {
        violations.fetch_add(1);
      }
      Value key = Value::Int(probe % kKeys);
      size_t chained = 0;
      auto count = [&](const Tuple& t) {
        if (t.at(0) != key) violations.fetch_add(1);
        ++chained;
      };
      log.ForEachMatch(0, key, rows, count);
      size_t expected =
          static_cast<size_t>((rows - probe % kKeys + kKeys - 1) / kKeys);
      if (chained != expected) violations.fetch_add(1);
      checks.fetch_add(1);
    }
  };

  std::vector<std::thread> readers;
  for (int64_t salt : {1, 2}) readers.emplace_back(reader, salt);
  for (int64_t i = 0; i < kRows; ++i) {
    log.Append(Row(i % kKeys, i));
    if (i % 13 == 0 || i == kRows - 1) {
      published.store(log.size(), std::memory_order_release);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(checks.load(), 0u);
}

}  // namespace
}  // namespace p2pdb::rel
