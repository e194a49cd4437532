// Lockstep equivalence of the sharded row store: two engines — one shard
// vs. many shards — driven through the *same* random genealogy and the
// same random DML must stay byte-identical in every version's view at
// every step. Sharding is pure physical partitioning (docs/storage.md):
// it may change latching and scan parallelism, never results or ordering.
//
// The scan pool is forced on and the parallel-scan threshold dropped to 1
// so the multi-shard engine actually exercises the shard-parallel batch
// fill (otherwise the small test tables would stay on the sequential
// path, and on 1-core CI hosts the pool would have no workers at all).
//
// Replay a failing run with INVERDA_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "genealogy_builder.h"
#include "inverda/inverda.h"
#include "mapping/side.h"
#include "test_seed.h"
#include "util/random.h"
#include "util/shard.h"
#include "util/thread_pool.h"

namespace inverda {
namespace {

class ShardPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    ResetScanPoolForTest(4);
    prev_min_rows_ = ParallelScanMinRows();
    SetParallelScanMinRows(1);
  }
  void TearDown() override {
    SetParallelScanMinRows(prev_min_rows_);
    ResetScanPoolForTest(0);
  }

 private:
  int64_t prev_min_rows_ = 0;
};

// Both engines see the same choices: the builders and the insert RNGs are
// seeded identically, and since the engines hold identical catalogs and
// data at every step, every random pick resolves to the same operation.
void BuildLockstep(int steps, testutil::GenealogyBuilder* builder_a,
                   testutil::GenealogyBuilder* builder_b) {
  ASSERT_TRUE(builder_a->Init().ok());
  ASSERT_TRUE(builder_b->Init().ok());
  for (int step = 0; step < steps; ++step) {
    ASSERT_TRUE(builder_a->Step().ok());
    ASSERT_TRUE(builder_b->Step().ok());
  }
  ASSERT_EQ(builder_a->versions(), builder_b->versions());
}

TEST_P(ShardPropertyTest, SingleVsMultiShardLockstep) {
  const uint64_t seed = TestSeed(GetParam());
  INVERDA_TRACE_SEED(seed);
  Inverda single(1);
  Inverda sharded(8);
  ASSERT_EQ(single.shards(), 1);
  ASSERT_EQ(sharded.shards(), 8);

  testutil::GenealogyBuilder builder_a(&single, seed);
  testutil::GenealogyBuilder builder_b(&sharded, seed);
  BuildLockstep(/*steps=*/4, &builder_a, &builder_b);

  // Interleave inserts with point updates/deletes picked from the live key
  // set; both engines draw sequence keys in the same order, so the key
  // lists stay identical and every pick lands on the same row.
  Random rng_a(seed * 31 + 7);
  Random rng_b(seed * 31 + 7);
  Random ops(seed * 101 + 3);
  const std::string& root = builder_a.versions().front();
  for (int i = 0; i < 120; ++i) {
    switch (ops.NextUint64(4)) {
      case 0:
      case 1: {
        testutil::RandomInsert(&single, &rng_a, builder_a.versions());
        testutil::RandomInsert(&sharded, &rng_b, builder_b.versions());
        break;
      }
      case 2: {  // point update on t0 through the root version
        Result<std::vector<KeyedRow>> rows = single.Select(root, "t0");
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        if (rows->empty()) break;
        int64_t key = (*rows)[ops.NextUint64(rows->size())].key;
        Row row = {Value::Int(ops.NextInt64(0, 99)),
                   Value::String(ops.NextString(3))};
        Status sa = single.Update(root, "t0", key, row);
        Status sb = sharded.Update(root, "t0", key, row);
        ASSERT_EQ(sa.ok(), sb.ok())
            << sa.ToString() << " vs " << sb.ToString();
        break;
      }
      default: {  // point delete on t0 through the root version
        Result<std::vector<KeyedRow>> rows = single.Select(root, "t0");
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        if (rows->empty()) break;
        int64_t key = (*rows)[ops.NextUint64(rows->size())].key;
        Status sa = single.Delete(root, "t0", key);
        Status sb = sharded.Delete(root, "t0", key);
        ASSERT_EQ(sa.ok(), sb.ok())
            << sa.ToString() << " vs " << sb.ToString();
        break;
      }
    }
    if (i % 30 == 29) {
      auto va = testutil::Snapshot(&single);
      auto vb = testutil::Snapshot(&sharded);
      std::string diff = testutil::DiffSnapshots(va, vb);
      ASSERT_TRUE(diff.empty()) << "after op " << i << ": " << diff;
    }
  }

  // Migration equivalence: every valid materialization schema leaves both
  // engines agreeing — batch write propagation (the shard-parallel path in
  // the multi-shard engine) moves the same tuples either way.
  Result<std::vector<std::set<SmoId>>> schemas =
      single.catalog().EnumerateValidMaterializations(/*limit=*/6);
  ASSERT_TRUE(schemas.ok()) << schemas.status().ToString();
  for (const std::set<SmoId>& m : *schemas) {
    ASSERT_TRUE(single.Materialize(MaterializeRequest::Schema(m)).ok());
    ASSERT_TRUE(sharded.Materialize(MaterializeRequest::Schema(m)).ok());
    // Staged tables are installed with the store's shard count, not the
    // process default.
    for (const std::string& name : sharded.db().TableNames()) {
      EXPECT_EQ((*sharded.db().GetTable(name))->shard_count(),
                sharded.shards())
          << name;
    }
    auto va = testutil::Snapshot(&single);
    auto vb = testutil::Snapshot(&sharded);
    std::string diff = testutil::DiffSnapshots(va, vb);
    ASSERT_TRUE(diff.empty()) << diff;
  }
}

// Resharding a live engine is invisible to every reader: rows only move
// between buckets, and the ascending-key contract holds at any S.
TEST_P(ShardPropertyTest, ReshardPreservesEveryView) {
  const uint64_t seed = TestSeed(GetParam() + 1000);
  INVERDA_TRACE_SEED(seed);
  Inverda db(1);
  testutil::GenealogyBuilder builder(&db, seed);
  ASSERT_TRUE(builder.Init().ok());
  for (int step = 0; step < 3; ++step) ASSERT_TRUE(builder.Step().ok());
  Random rng(seed * 7 + 11);
  for (int i = 0; i < 60; ++i) {
    testutil::RandomInsert(&db, &rng, builder.versions());
  }

  auto before = testutil::Snapshot(&db);
  ASSERT_FALSE(before.empty());
  for (int shards : {4, 16, kMaxShards, 1, 8}) {
    ASSERT_TRUE(db.Reshard(shards).ok());
    ASSERT_EQ(db.shards(), shards);
    auto now = testutil::Snapshot(&db);
    std::string diff = testutil::DiffSnapshots(before, now);
    ASSERT_TRUE(diff.empty()) << "at " << shards << " shards: " << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardPropertyTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace inverda
