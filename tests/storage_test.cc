#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "storage/database.h"
#include "storage/table.h"
#include "test_seed.h"
#include "util/random.h"
#include "util/shard.h"

namespace inverda {
namespace {

TableSchema TwoCol() {
  return TableSchema("t", {{"a", DataType::kInt64}, {"b", DataType::kString}});
}

TEST(TableTest, InsertFindUpdateErase) {
  Table t(TwoCol());
  ASSERT_TRUE(t.Insert(1, {Value::Int(10), Value::String("x")}).ok());
  EXPECT_FALSE(t.Insert(1, {Value::Int(11), Value::String("y")}).ok());
  ASSERT_NE(t.Find(1), nullptr);
  EXPECT_EQ((*t.Find(1))[0], Value::Int(10));
  ASSERT_TRUE(t.Update(1, {Value::Int(20), Value::String("z")}).ok());
  EXPECT_EQ((*t.Find(1))[0], Value::Int(20));
  EXPECT_FALSE(t.Update(2, {Value::Int(0), Value::String("")}).ok());
  EXPECT_TRUE(t.Erase(1));
  EXPECT_FALSE(t.Erase(1));
  EXPECT_TRUE(t.empty());
}

TEST(TableTest, RejectsWrongWidth) {
  Table t(TwoCol());
  EXPECT_FALSE(t.Insert(1, {Value::Int(10)}).ok());
  EXPECT_FALSE(t.Upsert(1, {Value::Int(1), Value::Int(2), Value::Int(3)}).ok());
}

TEST(TableTest, ScanIsKeyOrdered) {
  Table t(TwoCol());
  ASSERT_TRUE(t.Upsert(3, {Value::Int(3), Value::String("c")}).ok());
  ASSERT_TRUE(t.Upsert(1, {Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(t.Upsert(2, {Value::Int(2), Value::String("b")}).ok());
  std::vector<int64_t> keys;
  t.Scan([&](int64_t k, const Row&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2, 3}));
}

TEST(TableTest, ContentEquals) {
  Table a(TwoCol()), b(TwoCol());
  ASSERT_TRUE(a.Upsert(1, {Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(b.Upsert(1, {Value::Int(1), Value::String("x")}).ok());
  EXPECT_TRUE(a.ContentEquals(b));
  ASSERT_TRUE(b.Upsert(1, {Value::Int(2), Value::String("x")}).ok());
  EXPECT_FALSE(a.ContentEquals(b));
}

TEST(DatabaseTest, CreateDropRename) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TwoCol()).ok());
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_FALSE(db.CreateTable(TwoCol()).ok());
  ASSERT_TRUE(db.RenameTable("t", "u").ok());
  EXPECT_FALSE(db.HasTable("t"));
  ASSERT_TRUE(db.GetTable("u").ok());
  EXPECT_EQ((*db.GetTable("u"))->schema().name(), "u");
  ASSERT_TRUE(db.DropTable("u").ok());
  EXPECT_FALSE(db.DropTable("u").ok());
}

TEST(DatabaseTest, SnapshotRestore) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TwoCol()).ok());
  Table* t = *db.GetTable("t");
  ASSERT_TRUE(t->Insert(db.sequence().Next(),
                        {Value::Int(1), Value::String("a")}).ok());
  Database::SnapshotState snap = db.Snapshot();
  int64_t seq_before = db.sequence().Peek();

  ASSERT_TRUE(t->Insert(db.sequence().Next(),
                        {Value::Int(2), Value::String("b")}).ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("extra", {})).ok());

  db.Restore(std::move(snap));
  EXPECT_FALSE(db.HasTable("extra"));
  EXPECT_EQ((*db.GetTable("t"))->size(), 1);
  EXPECT_EQ(db.sequence().Peek(), seq_before);
}

TEST(TableTest, ShardRoutingPartitionsEveryRow) {
  Table t(TwoCol(), 4);
  EXPECT_EQ(t.shard_count(), 4);
  for (int64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(t.Insert(k, {Value::Int(k), Value::String("r")}).ok());
  }
  int64_t total = 0;
  for (int s = 0; s < t.shard_count(); ++s) {
    for (const auto& [key, row] : t.ShardItems(s)) {
      (void)row;
      EXPECT_EQ(t.ShardOfKey(key), s);
    }
    // Fibonacci hashing spreads dense keys: no shard may hog everything.
    EXPECT_LT(t.shard_size(s), 150);
    total += t.shard_size(s);
  }
  EXPECT_EQ(total, t.size());
}

TEST(TableTest, ShardItemsAreKeyOrderedPerShard) {
  Table t(TwoCol(), 8);
  for (int64_t k = 100; k > 0; --k) {
    ASSERT_TRUE(t.Insert(k, {Value::Int(k), Value::String("x")}).ok());
  }
  for (int s = 0; s < t.shard_count(); ++s) {
    std::vector<std::pair<int64_t, const Row*>> items = t.ShardItems(s);
    EXPECT_TRUE(std::is_sorted(
        items.begin(), items.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }));
  }
  // The whole-table scan stays globally key-ordered at any shard count.
  std::vector<int64_t> keys;
  t.Scan([&](int64_t k, const Row&) { keys.push_back(k); });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), 100u);
}

TEST(TableTest, ReshardMovesRowsWithoutChangingContent) {
  Table t(TwoCol(), 1);
  for (int64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(t.Insert(k, {Value::Int(k * 2), Value::String("y")}).ok());
  }
  Table reference = t;
  for (int shards : {4, kMaxShards, 2, 1}) {
    t.Reshard(shards);
    EXPECT_EQ(t.shard_count(), shards);
    EXPECT_EQ(t.size(), 64);
    EXPECT_TRUE(t.ContentEquals(reference));
    ASSERT_NE(t.Find(33), nullptr);
    EXPECT_EQ((*t.Find(33))[0], Value::Int(66));
  }
}

TEST(TableTest, ContentEqualsIsShardCountAgnostic) {
  Table a(TwoCol(), 1), b(TwoCol(), 16);
  for (int64_t k = 0; k < 40; ++k) {
    Row row = {Value::Int(k), Value::String("s")};
    ASSERT_TRUE(a.Upsert(k, row).ok());
    ASSERT_TRUE(b.Upsert(k, std::move(row)).ok());
  }
  EXPECT_TRUE(a.ContentEquals(b));
  EXPECT_TRUE(b.ContentEquals(a));
  ASSERT_TRUE(b.Upsert(7, {Value::Int(-1), Value::String("s")}).ok());
  EXPECT_FALSE(a.ContentEquals(b));
}

TEST(DatabaseTest, ReshardAppliesToEveryTableAndNewOnes) {
  Database db(4);
  EXPECT_EQ(db.shards(), 4);
  ASSERT_TRUE(db.CreateTable(TwoCol()).ok());
  EXPECT_EQ((*db.GetTable("t"))->shard_count(), 4);
  db.Reshard(2);
  EXPECT_EQ(db.shards(), 2);
  EXPECT_EQ((*db.GetTable("t"))->shard_count(), 2);
  ASSERT_TRUE(db.CreateTable(TableSchema(
      "u", {{"a", DataType::kInt64}})).ok());
  EXPECT_EQ((*db.GetTable("u"))->shard_count(), 2);
}

TEST(DatabaseTest, RestoreReshardsSnapshotTables) {
  Database db(1);
  ASSERT_TRUE(db.CreateTable(TwoCol()).ok());
  Database::SnapshotState snap = db.Snapshot();
  db.Reshard(8);
  db.Restore(std::move(snap));
  EXPECT_EQ((*db.GetTable("t"))->shard_count(), 8);
}

// An IDR-shaped table: payload (t INT, note TEXT) indexed on t.
TableSchema IndexedSchema() {
  TableSchema schema("idr",
                     {{"t", DataType::kInt64}, {"note", DataType::kString}});
  schema.set_indexed_column(0);
  return schema;
}

std::vector<int64_t> IndexKeys(const Table& t, int64_t value) {
  std::vector<int64_t> keys;
  t.ScanIndex(value, [&](int64_t key) {
    keys.push_back(key);
    return true;
  });
  return keys;
}

// The full-scan oracle: ascending keys of the rows whose t is `value`.
std::vector<int64_t> ScanKeys(const Table& t, int64_t value) {
  std::vector<int64_t> keys;
  t.Scan([&](int64_t key, const Row& row) {
    if (row[0].is_int() && row[0].AsInt() == value) keys.push_back(key);
  });
  return keys;
}

constexpr int64_t kIndexValues = 6;  // t drawn from [0, kIndexValues)

void ExpectIndexMatchesScan(const Table& t, const std::string& after) {
  for (int64_t v = -1; v <= kIndexValues; ++v) {
    ASSERT_EQ(IndexKeys(t, v), ScanKeys(t, v))
        << "value " << v << " after " << after << " at "
        << t.shard_count() << " shards";
  }
}

TEST(TableIndexTest, MatchesFullScanOracleUnderRandomMutations) {
  const uint64_t seed = TestSeed(20260);
  INVERDA_TRACE_SEED(seed);
  Random rng(seed);
  Table t(IndexedSchema(), 1);
  auto random_row = [&]() {
    // NULL and a non-integer stand in for unindexed cells.
    uint64_t pick = rng.NextUint64(10);
    Value cell = pick == 0   ? Value::Null()
                 : pick == 1 ? Value::String("x")
                             : Value::Int(rng.NextInt64(0, kIndexValues - 1));
    return Row{cell, Value::String(rng.NextString(2))};
  };
  for (int step = 0; step < 3000; ++step) {
    const int64_t key = rng.NextInt64(0, 199);
    // Key-level mutations are the common case; clear, clone, move,
    // reshard and rename each take about one step in twenty.
    const uint64_t roll = rng.NextUint64(20);
    std::string op;
    if (roll < 4) {
      op = "insert";
      (void)t.Insert(key, random_row());
    } else if (roll < 7) {
      op = "update";
      (void)t.Update(key, random_row());
    } else if (roll < 11) {
      op = "upsert";
      ASSERT_TRUE(t.Upsert(key, random_row()).ok());
    } else if (roll < 14) {
      op = "erase";
      t.Erase(key);
    } else if (roll == 14) {
      op = rng.NextBool(0.1) ? "clear" : "no-op";
      if (op == "clear") t.Clear();
    } else if (roll == 15) {
      op = "clone";
      Table copy = t.Clone();
      t = copy;  // copy assignment from a clone
    } else if (roll == 16) {
      op = "move";
      Table moved(std::move(t));
      t = std::move(moved);
    } else if (roll == 17) {
      op = "reshard";
      t.Reshard(t.shard_count() == 1 ? 8 : 1);
    } else {
      op = "rename";
      TableSchema schema = t.schema();
      schema.set_name("idr2");
      t.set_schema(std::move(schema));
    }
    ExpectIndexMatchesScan(t, op + " of key " + std::to_string(key));
  }
}

TEST(TableIndexTest, ScanIndexStopsEarlyAndMergesShardsInKeyOrder) {
  Table t(IndexedSchema(), 8);
  for (int64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(t.Insert(k, {Value::Int(k % 2), Value::String("")}).ok());
  }
  EXPECT_EQ(IndexKeys(t, 1), ScanKeys(t, 1));
  std::vector<int64_t> first_two;
  ExchangeRowsVisited(0);
  t.ScanIndex(0, [&](int64_t key) {
    first_two.push_back(key);
    return first_two.size() < 2;
  });
  EXPECT_EQ(first_two, (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(RowsVisited(), 2);  // an early stop visits only what it consumed
}

TEST(TableIndexTest, DatabaseCarriesTheIndexThroughItsLifecycle) {
  Database db(2);
  ASSERT_TRUE(db.CreateTable(IndexedSchema()).ok());
  Table* t = *db.GetTable("idr");
  ASSERT_TRUE(t->Insert(5, {Value::Int(1), Value::String("")}).ok());
  Database::SnapshotState snap = db.Snapshot();
  ASSERT_TRUE(t->Update(5, {Value::Int(2), Value::String("")}).ok());
  db.Restore(std::move(snap));
  ASSERT_TRUE(db.RenameTable("idr", "idr_renamed").ok());
  db.Reshard(8);
  const Table* restored = *db.GetTableConst("idr_renamed");
  EXPECT_EQ(IndexKeys(*restored, 1), (std::vector<int64_t>{5}));
  EXPECT_TRUE(IndexKeys(*restored, 2).empty());
}

TEST(SequenceTest, MonotonicAndBumpable) {
  Sequence s(10);
  EXPECT_EQ(s.Next(), 10);
  EXPECT_EQ(s.Next(), 11);
  s.BumpPast(100);
  EXPECT_EQ(s.Next(), 101);
  s.BumpPast(5);  // no-op
  EXPECT_EQ(s.Next(), 102);
}

TEST(SequenceTest, StripedDrawsStayGloballyUnique) {
  Sequence s(1);
  s.EnableStriping(/*stripes=*/4, /*chunk=*/16);
  ASSERT_TRUE(s.striped());
  constexpr int kThreads = 4;
  constexpr int kDraws = 500;
  std::vector<std::vector<int64_t>> drawn(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&s, &drawn, t] {
      for (int i = 0; i < kDraws; ++i) drawn[t].push_back(s.Next());
    });
  }
  for (std::thread& t : threads) t.join();
  std::set<int64_t> unique;
  for (const std::vector<int64_t>& ids : drawn) {
    // Per-stripe monotonic: one thread always maps to one stripe.
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    unique.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(unique.size(), static_cast<size_t>(kThreads * kDraws));
  // Peek is a floor no later draw dips under, never an exact next id.
  EXPECT_GT(s.Peek(), *unique.rbegin() - 16);
}

TEST(SequenceTest, BumpPastInvalidatesReservedChunks) {
  Sequence s(1);
  s.EnableStriping(/*stripes=*/2, /*chunk=*/32);
  int64_t first = s.Next();  // reserves a chunk on this thread's stripe
  s.BumpPast(1000);
  int64_t after = s.Next();  // the stale chunk remainder must be discarded
  EXPECT_GT(after, 1000);
  EXPECT_GT(after, first);
}

TEST(SequenceTest, StripingOffIsDenseAndMonotonic) {
  Sequence s(5);
  s.EnableStriping(4, 16);
  s.EnableStriping(0, 0);  // turn it back off
  EXPECT_FALSE(s.striped());
  EXPECT_EQ(s.Next(), 5);
  EXPECT_EQ(s.Next(), 6);
  EXPECT_EQ(s.Peek(), 7);
}

}  // namespace
}  // namespace inverda
