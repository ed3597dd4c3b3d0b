#include "src/relational/relation.h"

#include <gtest/gtest.h>

#include "src/relational/database.h"

namespace p2pdb::rel {
namespace {

RelationSchema PairSchema() { return RelationSchema("r", {"x", "y"}); }

TEST(SchemaTest, AttributeLookup) {
  RelationSchema s("r", {"a", "b", "c"});
  EXPECT_EQ(s.arity(), 3u);
  EXPECT_EQ(*s.AttributeIndex("b"), 1u);
  EXPECT_FALSE(s.AttributeIndex("z").ok());
  EXPECT_EQ(s.ToString(), "r(a, b, c)");
}

TEST(TupleTest, OrderingAndHash) {
  Tuple a({Value::Int(1), Value::Int(2)});
  Tuple b({Value::Int(1), Value::Int(3)});
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(a.Hash(), Tuple({Value::Int(1), Value::Int(2)}).Hash());
  Tuple shorter({Value::Int(1)});
  EXPECT_LT(shorter, a);
}

TEST(TupleTest, HasNull) {
  EXPECT_FALSE(Tuple({Value::Int(1)}).HasNull());
  EXPECT_TRUE(Tuple({Value::Int(1), Value::Null(9)}).HasNull());
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(PairSchema());
  EXPECT_TRUE(*r.Insert(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_FALSE(*r.Insert(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, InsertChecksArity) {
  Relation r(PairSchema());
  EXPECT_FALSE(r.Insert(Tuple({Value::Int(1)})).ok());
}

TEST(RelationTest, Contains) {
  Relation r(PairSchema());
  Tuple t({Value::Int(1), Value::Int(2)});
  EXPECT_FALSE(r.Contains(t));
  (void)r.Insert(t);
  EXPECT_TRUE(r.Contains(t));
}

TEST(RelationTest, CertainTuplesExcludeNulls) {
  Relation r(PairSchema());
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  (void)r.Insert(Tuple({Value::Int(1), Value::Null(5)}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.CertainTuples().size(), 1u);
}

TEST(RelationTest, IndexFindsMatches) {
  Relation r(PairSchema());
  for (int i = 0; i < 10; ++i) {
    (void)r.Insert(Tuple({Value::Int(i % 3), Value::Int(i)}));
  }
  const Relation::ColumnIndex& index = r.IndexOn(0);
  auto [begin, end] = index.equal_range(Value::Int(1));
  size_t count = 0;
  for (auto it = begin; it != end; ++it) {
    EXPECT_EQ(it->second->at(0), Value::Int(1));
    ++count;
  }
  EXPECT_EQ(count, 3u);  // i = 1, 4, 7.
}

TEST(RelationTest, IndexFollowsInserts) {
  Relation r(PairSchema());
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(1)}));
  EXPECT_EQ(r.IndexOn(0).count(Value::Int(1)), 1u);
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(r.IndexOn(0).count(Value::Int(1)), 2u);
}

TEST(RelationTest, SharedLogStartsWithTheTuplesAndFollowsInserts) {
  Relation r(PairSchema());
  (void)r.Insert(Tuple({Value::Int(2), Value::Int(0)}));
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(0)}));
  std::shared_ptr<const RowLog> log = r.SharedLog();
  EXPECT_EQ(log, r.SharedLog());  // Started once, then shared.
  EXPECT_EQ(log->size(), 2u);
  (void)r.Insert(Tuple({Value::Int(3), Value::Int(0)}));
  (void)r.Insert(Tuple({Value::Int(3), Value::Int(0)}));  // Duplicate.
  EXPECT_EQ(log->size(), 3u);
  EXPECT_TRUE(log->Contains(Tuple({Value::Int(3), Value::Int(0)}), 3));
}

TEST(RelationTest, CopiesNeverShareTheLog) {
  Relation r(PairSchema());
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  std::shared_ptr<const RowLog> log = r.SharedLog();

  Relation copy = r;
  (void)copy.Insert(Tuple({Value::Int(5), Value::Int(6)}));
  EXPECT_EQ(log->size(), 1u);  // The copy's insert stayed out of r's log.
  EXPECT_NE(copy.SharedLog(), log);
  EXPECT_EQ(copy.SharedLog()->size(), 2u);

  Relation assigned(PairSchema());
  (void)assigned.SharedLog();
  assigned = r;
  EXPECT_NE(assigned.SharedLog(), log);
  EXPECT_EQ(assigned.SharedLog()->size(), 1u);

  Relation moved = std::move(r);
  EXPECT_EQ(moved.SharedLog(), log);  // A move keeps the relation's log.
}

TEST(DatabaseTest, CreateAndLookup) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(PairSchema()).ok());
  EXPECT_TRUE(db.HasRelation("r"));
  EXPECT_FALSE(db.HasRelation("q"));
  EXPECT_TRUE(db.Get("r").ok());
  EXPECT_FALSE(db.Get("q").ok());
  EXPECT_FALSE(db.CreateRelation(PairSchema()).ok());  // Duplicate.
}

TEST(DatabaseTest, InsertThroughCatalog) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(PairSchema()).ok());
  EXPECT_TRUE(*db.Insert("r", Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_FALSE(db.Insert("missing", Tuple({Value::Int(1)})).ok());
  EXPECT_EQ(db.TotalTuples(), 1u);
}

TEST(DatabaseTest, DeepEquality) {
  Database a, b;
  (void)a.CreateRelation(PairSchema());
  (void)b.CreateRelation(PairSchema());
  EXPECT_TRUE(a == b);
  (void)a.Insert("r", Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(a == b);
  (void)b.Insert("r", Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace p2pdb::rel
