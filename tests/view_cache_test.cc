#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "genealogy_builder.h"
#include "handwritten/reference_sql.h"
#include "inverda/inverda.h"
#include "test_seed.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace inverda {
namespace {

class ViewCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute(BidelInitialScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelDoScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelEvolutionScript()).ok());
    key_ = *db_.Insert("TasKy", "Task",
                       {Value::String("Ann"), Value::String("Paper"),
                        Value::Int(1)});
    db_.access().set_cache_enabled(true);
  }
  Inverda db_;
  int64_t key_ = 0;
};

TEST_F(ViewCacheTest, RepeatedScansHitTheCache) {
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  int64_t misses = db_.Metrics().value("view_cache.misses");
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  EXPECT_EQ(db_.Metrics().value("view_cache.misses"), misses);
  EXPECT_GE(db_.Metrics().value("view_cache.hits"), 2);
}

TEST_F(ViewCacheTest, WritesInvalidate) {
  size_t before = db_.Select("TasKy2", "Task")->size();
  ASSERT_TRUE(db_.Insert("TasKy", "Task",
                         {Value::String("Ben"), Value::String("Exam"),
                          Value::Int(2)})
                  .ok());
  EXPECT_EQ(db_.Select("TasKy2", "Task")->size(), before + 1);
}

TEST_F(ViewCacheTest, WritesThroughVirtualVersionInvalidate) {
  size_t before = db_.Select("TasKy", "Task")->size();
  ASSERT_TRUE(db_.Insert("Do!", "Todo",
                         {Value::String("Cleo"), Value::String("Call")})
                  .ok());
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), before + 1);
  EXPECT_EQ(db_.Select("Do!", "Todo")->size(), 2u);
}

TEST_F(ViewCacheTest, UpdatesAndDeletesInvalidate) {
  ASSERT_TRUE(db_.Select("Do!", "Todo").ok());  // warm
  ASSERT_TRUE(db_.Update("TasKy", "Task", key_,
                         {Value::String("Ann"), Value::String("Paper"),
                          Value::Int(3)})
                  .ok());
  // Priority 3: no longer visible in Do!.
  EXPECT_EQ(db_.Select("Do!", "Todo")->size(), 0u);
  ASSERT_TRUE(db_.Delete("TasKy", "Task", key_).ok());
  EXPECT_EQ(db_.Select("TasKy2", "Task")->size(), 0u);
}

TEST_F(ViewCacheTest, MigrationInvalidates) {
  size_t tasky2 = db_.Select("TasKy2", "Task")->size();
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"})).ok());
  EXPECT_EQ(db_.Select("TasKy2", "Task")->size(), tasky2);
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), tasky2);
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy"})).ok());
  EXPECT_EQ(db_.Select("Do!", "Todo")->size(), 1u);
}

// MATERIALIZE's backfill reads derive the pre-migration content of every
// staged version; they must not park it in the view cache, where it would
// sit until the flip evicts it.
TEST_F(ViewCacheTest, MigrationReadsStoreNoCacheEntries) {
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());  // warm one entry
  db_.access().InvalidateCache();
  const int64_t size = db_.Metrics().value("view_cache.size");
  const int64_t invalidations = db_.Metrics().value("view_cache.invalidations");
  ASSERT_EQ(size, 0);
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"})).ok());
  EXPECT_EQ(db_.Metrics().value("view_cache.size"), size);
  EXPECT_EQ(db_.Metrics().value("view_cache.invalidations"), invalidations);
  // The cache still serves ordinary reads after the migration.
  ASSERT_TRUE(db_.Select("TasKy", "Task").ok());
  EXPECT_GT(db_.Metrics().value("view_cache.size"), 0);
}

TEST_F(ViewCacheTest, PointLookupsUseCachedScans) {
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());  // warm
  int64_t hits = db_.Metrics().value("view_cache.hits");
  Result<std::optional<Row>> row = db_.Get("TasKy2", "Task", key_);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(row->has_value());
  EXPECT_GT(db_.Metrics().value("view_cache.hits"), hits);
}

TEST_F(ViewCacheTest, DisabledCacheIsBypassed) {
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  db_.access().set_cache_enabled(false);
  ASSERT_TRUE(db_.Insert("TasKy", "Task",
                         {Value::String("Zoe"), Value::String("Z"),
                          Value::Int(1)})
                  .ok());
  EXPECT_EQ(db_.Select("TasKy2", "Task")->size(), 2u);
}

TEST_F(ViewCacheTest, ReenablingKeepsEntriesButNeverServesStaleData) {
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());  // warm
  EXPECT_EQ(db_.Metrics().value("view_cache.size"), 1);
  // Toggling off and on no longer discards the entry...
  db_.access().set_cache_enabled(false);
  db_.access().set_cache_enabled(true);
  EXPECT_EQ(db_.Metrics().value("view_cache.size"), 1);
  int64_t hits = db_.Metrics().value("view_cache.hits");
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  EXPECT_GT(db_.Metrics().value("view_cache.hits"), hits);
  // ...and a write landing while the cache was disabled is caught by the
  // dirty-epoch validation once it is re-enabled.
  db_.access().set_cache_enabled(false);
  ASSERT_TRUE(db_.Insert("TasKy", "Task",
                         {Value::String("Zoe"), Value::String("Z"),
                          Value::Int(1)})
                  .ok());
  db_.access().set_cache_enabled(true);
  EXPECT_EQ(db_.Select("TasKy2", "Task")->size(), 2u);
}

// The single reset point: Inverda::ResetMetrics() zeroes the view-cache
// counters through the component's registered reset hook (the pre-registry
// per-component getters are gone) without discarding cached entries.
TEST_F(ViewCacheTest, ResetMetricsKeepsEntries) {
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  EXPECT_GT(db_.Metrics().value("view_cache.hits") +
                db_.Metrics().value("view_cache.misses"),
            0);
  db_.ResetMetrics();
  EXPECT_EQ(db_.Metrics().value("view_cache.hits"), 0);
  EXPECT_EQ(db_.Metrics().value("view_cache.misses"), 0);
  EXPECT_EQ(db_.Metrics().value("view_cache.invalidations"), 0);
  EXPECT_TRUE(db_.access().cache_stats().empty());
  // Entries survive the reset and keep serving hits.
  EXPECT_EQ(db_.Metrics().value("view_cache.size"), 1);
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  EXPECT_EQ(db_.Metrics().value("view_cache.hits"), 1);
}

TEST_F(ViewCacheTest, WriteTraceReportsTouchedTables) {
  ASSERT_TRUE(db_.Insert("Do!", "Todo",
                         {Value::String("Cleo"), Value::String("Call")})
                  .ok());
  const WriteTrace& trace = db_.access().last_write_trace();
  EXPECT_FALSE(trace.versions.empty());
  EXPECT_FALSE(trace.physical_tables.empty()) << trace.ToString();
}

TEST_F(ViewCacheTest, UnrelatedLineagesKeepTheirEntries) {
  // A second, disconnected genealogy: writes there must not evict the
  // cached TasKy2 view (genealogy-scoped invalidation).
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION Iso WITH "
                          "CREATE TABLE log(msg TEXT);")
                  .ok());
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION Iso2 FROM Iso WITH "
                          "ADD COLUMN lvl INT AS 0 INTO log;")
                  .ok());
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());   // warm lineage A
  ASSERT_TRUE(db_.Select("Iso2", "log").ok());      // warm lineage B
  int64_t invalidations = db_.Metrics().value("view_cache.invalidations");
  ASSERT_TRUE(
      db_.Insert("Iso", "log", {Value::String("hello")}).ok());
  // Only the Iso lineage's entry may fall.
  int64_t hits = db_.Metrics().value("view_cache.hits");
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  EXPECT_GT(db_.Metrics().value("view_cache.hits"), hits);
  EXPECT_LE(db_.Metrics().value("view_cache.invalidations"),
            invalidations + 1);
}

// Randomized staleness property: on a random genealogy under random writes
// and random materialization switches, a cached read must always equal a
// cold recomputation. This is the cache-correctness analogue of the
// bidirectionality property in random_genealogy_test.
class CacheStalenessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheStalenessTest, CachedViewsNeverGoStale) {
  const uint64_t seed = TestSeed(GetParam());
  INVERDA_TRACE_SEED(seed);
  Inverda db;
  testutil::GenealogyBuilder builder(&db, seed);
  ASSERT_TRUE(builder.Init().ok());
  for (int step = 0; step < 4; ++step) {
    ASSERT_TRUE(builder.Step().ok());
  }
  db.access().set_cache_enabled(true);
  Random rng(seed * 31 + 7);

  Result<std::vector<std::set<SmoId>>> schemas =
      db.catalog().EnumerateValidMaterializations(/*limit=*/8);
  ASSERT_TRUE(schemas.ok()) << schemas.status().ToString();

  for (int round = 0; round < 12; ++round) {
    // Warm the cache with a full read of every version.
    (void)testutil::Snapshot(&db);
    // Mutate: mostly random writes through random versions, sometimes a
    // materialization switch.
    if (round % 4 == 3 && schemas->size() > 1) {
      const std::set<SmoId>& m =
          (*schemas)[rng.NextUint64(schemas->size())];
      ASSERT_TRUE(db.Materialize(MaterializeRequest::Schema(m)).ok());
    } else {
      for (int w = 0; w < 3; ++w) {
        testutil::RandomInsert(&db, &rng, builder.versions());
      }
    }
    // A possibly-cached snapshot must match a cold recomputation.
    auto cached = testutil::Snapshot(&db);
    db.access().InvalidateCache();
    auto cold = testutil::Snapshot(&db);
    std::string diff = testutil::DiffSnapshots(cold, cached);
    ASSERT_TRUE(diff.empty()) << "seed " << seed << ", round " << round
                              << ": cached view went stale: " << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheStalenessTest,
                         ::testing::Values(2, 7, 11, 17, 23, 42));

// A cache miss derives through the kernels' batch entry points: the
// physical leaf of the chain is then read by ScanVersionBatch, which counts
// a parallel scan on a sharded table. The row-at-a-time reference
// (batching off) never does.
TEST(ViewCacheBatchTest, CacheMissesDeriveBatched) {
  ResetScanPoolForTest(2);
  const int64_t prev_min_rows = ParallelScanMinRows();
  SetParallelScanMinRows(1);
  {
    Inverda db(/*shards=*/4);
    ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V0 WITH "
                           "CREATE TABLE tab(k0 INT, v0 TEXT);"
                           "CREATE SCHEMA VERSION V1 FROM V0 WITH "
                           "ADD COLUMN c1 INT AS k0 + 1 INTO tab;")
                    .ok());
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(
          db.Insert("V0", "tab", {Value::Int(i), Value::String("r")}).ok());
    }
    db.access().set_cache_enabled(true);
    db.ResetMetrics();
    ASSERT_EQ(db.Select("V1", "tab")->size(), 64u);
    EXPECT_EQ(db.Metrics().value("view_cache.misses"), 1);
    EXPECT_GT(db.Metrics().value("storage.parallel_scans"), 0);

    db.access().InvalidateCache();
    db.access().set_batch_enabled(false);
    db.ResetMetrics();
    ASSERT_EQ(db.Select("V1", "tab")->size(), 64u);
    EXPECT_EQ(db.Metrics().value("view_cache.misses"), 1);
    EXPECT_EQ(db.Metrics().value("storage.parallel_scans"), 0);
  }
  SetParallelScanMinRows(prev_min_rows);
  ResetScanPoolForTest(0);
}

// Lockstep property: two instances grow the same random genealogy and
// receive the same inserts, updates, deletes and MATERIALIZEs; one runs
// with the view cache on, the other with it off. After every round, every
// table version must read identically through Select, Get (every key plus
// an absent one) and a top-level batch scan, whose kernels recurse through
// the batch path.
class CacheLockstepTest : public ::testing::TestWithParam<uint64_t> {};

// One random write through a random version and table, applied alike to
// both instances (`plain` picks the keys).
void LockstepWrite(Inverda* cached, Inverda* plain, Random* rng,
                   const std::vector<std::string>& versions) {
  const std::string& version = versions[rng->NextUint64(versions.size())];
  const SchemaVersionInfo* info = *plain->catalog().FindVersion(version);
  if (info->tables.empty()) return;
  auto it = info->tables.begin();
  std::advance(it, static_cast<long>(rng->NextUint64(info->tables.size())));
  const std::string& table = it->first;
  Row row;
  for (const Column& c :
       plain->catalog().table_version(it->second).schema.columns()) {
    row.push_back(c.type == DataType::kInt64
                      ? Value::Int(rng->NextInt64(0, 99))
                      : Value::String(rng->NextString(3)));
  }
  const uint64_t kind = rng->NextUint64(3);
  Result<std::vector<KeyedRow>> rows = plain->Select(version, table);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  if (kind == 0 || rows->empty()) {
    Result<int64_t> a = cached->Insert(version, table, row);
    Result<int64_t> b = plain->Insert(version, table, row);
    ASSERT_EQ(a.ok(), b.ok()) << a.status().ToString() << " vs "
                              << b.status().ToString();
    if (a.ok()) {
      EXPECT_EQ(*a, *b);
    }
    return;
  }
  const int64_t key = (*rows)[rng->NextUint64(rows->size())].key;
  Status a = kind == 1 ? cached->Update(version, table, key, row)
                       : cached->Delete(version, table, key);
  Status b = kind == 1 ? plain->Update(version, table, key, row)
                       : plain->Delete(version, table, key);
  ASSERT_EQ(a.ok(), b.ok()) << a.ToString() << " vs " << b.ToString();
}

// Every version's rows through a top-level batch scan, keyed like Snapshot.
std::map<std::string, std::vector<KeyedRow>> BatchSnapshot(Inverda* db) {
  std::map<std::string, std::vector<KeyedRow>> out;
  for (const std::string& version : db->catalog().VersionNames()) {
    const SchemaVersionInfo* info = *db->catalog().FindVersion(version);
    for (const auto& [table, tv] : info->tables) {
      RowBatch batch;
      Status status = db->access().ScanVersionBatch(tv, &batch);
      EXPECT_TRUE(status.ok()) << version << "." << table << ": "
                               << status.ToString();
      std::vector<KeyedRow>& rows = out[version + "." + table];
      for (int64_t i = 0; i < batch.size(); ++i) {
        if (batch.selected(i)) rows.push_back({batch.key_at(i), batch.RowAt(i)});
      }
    }
  }
  return out;
}

TEST_P(CacheLockstepTest, CachedAndUncachedInstancesReadAlike) {
  const uint64_t seed = TestSeed(GetParam());
  INVERDA_TRACE_SEED(seed);
  Inverda cached;
  Inverda plain;
  testutil::GenealogyBuilder cached_builder(&cached, seed);
  testutil::GenealogyBuilder plain_builder(&plain, seed);
  ASSERT_TRUE(cached_builder.Init().ok());
  ASSERT_TRUE(plain_builder.Init().ok());
  for (int step = 0; step < 4; ++step) {
    ASSERT_TRUE(cached_builder.Step().ok());
    ASSERT_TRUE(plain_builder.Step().ok());
  }
  ASSERT_EQ(cached_builder.versions(), plain_builder.versions());
  cached.access().set_cache_enabled(true);
  Random rng(seed * 131 + 5);

  Result<std::vector<std::set<SmoId>>> schemas =
      plain.catalog().EnumerateValidMaterializations(/*limit=*/8);
  ASSERT_TRUE(schemas.ok()) << schemas.status().ToString();

  for (int round = 0; round < 12; ++round) {
    if (round % 4 == 3 && schemas->size() > 1) {
      const std::set<SmoId>& m = (*schemas)[rng.NextUint64(schemas->size())];
      ASSERT_TRUE(cached.Materialize(MaterializeRequest::Schema(m)).ok());
      ASSERT_TRUE(plain.Materialize(MaterializeRequest::Schema(m)).ok());
    } else {
      for (int w = 0; w < 4; ++w) {
        ASSERT_NO_FATAL_FAILURE(
            LockstepWrite(&cached, &plain, &rng, plain_builder.versions()));
      }
    }
    // Select, twice on the cached side so the second read is a hit.
    (void)testutil::Snapshot(&cached);
    auto selected = testutil::Snapshot(&cached);
    auto expected = testutil::Snapshot(&plain);
    ASSERT_EQ(testutil::DiffSnapshots(expected, selected), "")
        << "seed " << seed << ", round " << round << ": Select";
    // A batch scan on each side.
    ASSERT_EQ(testutil::DiffSnapshots(BatchSnapshot(&plain),
                                      BatchSnapshot(&cached)),
              "")
        << "seed " << seed << ", round " << round << ": batch scan";
    // Get for every key of every version, plus one absent key.
    for (const auto& [name, rows] : expected) {
      const size_t dot = name.find('.');
      const std::string version = name.substr(0, dot);
      const std::string table = name.substr(dot + 1);
      std::vector<int64_t> keys = {-1};
      for (const KeyedRow& kr : rows) keys.push_back(kr.key);
      for (int64_t key : keys) {
        Result<std::optional<Row>> a = cached.Get(version, table, key);
        Result<std::optional<Row>> b = plain.Get(version, table, key);
        ASSERT_TRUE(a.ok() && b.ok()) << name << "@" << key;
        ASSERT_EQ(a->has_value(), b->has_value()) << name << "@" << key;
        if (a->has_value()) {
          EXPECT_TRUE(RowsEqual(**a, **b))
              << "seed " << seed << ", round " << round << ": Get " << name
              << "@" << key;
        }
      }
    }
  }
  EXPECT_GT(cached.Metrics().value("view_cache.hits"), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheLockstepTest,
                         ::testing::Values(3, 8, 13, 29, 31, 57));

}  // namespace
}  // namespace inverda
