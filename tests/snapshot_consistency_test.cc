// Snapshot consistency across materialization-epoch bumps.
//
// Two angles on the same guarantee:
//  1. Concurrent: readers hammering Selects while a DBA thread flips the
//     materialization must always observe exactly the rows of the single
//     consistent snapshot — migrations preserve every version's view, so a
//     reader that catches a torn route (half pre-flip, half post-flip)
//     would see wrong rows.
//  2. Single-threaded property: after any sequence of epoch bumps and
//     writes, a read served through the plan cache equals a fresh compile
//     with the cache disabled — a plan held across an epoch bump is either
//     re-resolved or still describes the old, consistent route.
//
// Replay a failing run with INVERDA_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "genealogy_builder.h"
#include "inverda/inverda.h"
#include "plan_oracle.h"
#include "test_seed.h"
#include "util/random.h"

namespace inverda {
namespace {

TEST(SnapshotConsistencyTest, ConcurrentReadersSeeOnlyTheOneSnapshot) {
  const uint64_t seed = TestSeed(31);
  INVERDA_TRACE_SEED(seed);
  Inverda db;
  testutil::GenealogyBuilder builder(&db, seed);
  ASSERT_TRUE(builder.Init().ok());
  for (int step = 0; step < 4; ++step) ASSERT_TRUE(builder.Step().ok());
  Random rng(seed * 19 + 3);
  for (int i = 0; i < 50; ++i) {
    testutil::RandomInsert(&db, &rng, builder.versions());
  }

  Result<std::vector<std::set<SmoId>>> schemas =
      db.catalog().EnumerateValidMaterializations(/*limit=*/8);
  ASSERT_TRUE(schemas.ok()) << schemas.status().ToString();
  ASSERT_GE(schemas->size(), 2u);

  // The one logical snapshot: migrations never change any version's view,
  // so every concurrent read must reproduce it bit for bit.
  const auto expected = testutil::Snapshot(&db);
  ASSERT_FALSE(expected.empty());

  constexpr int kReadsPerReader = 150;
  std::atomic<int> running{0};
  std::atomic<bool> mismatch{false};
  std::vector<std::string> errors(expected.size());
  std::vector<std::thread> readers;
  size_t idx = 0;
  for (const auto& [name, rows] : expected) {
    std::string version = name.substr(0, name.find('.'));
    std::string table = name.substr(name.find('.') + 1);
    running.fetch_add(1, std::memory_order_relaxed);
    readers.emplace_back([&, version, table, idx, want = rows] {
      for (int i = 0; i < kReadsPerReader && !mismatch.load(); ++i) {
        Result<std::vector<KeyedRow>> got = db.Select(version, table);
        if (!got.ok()) {
          errors[idx] = version + "." + table + ": " +
                        got.status().ToString();
          mismatch.store(true);
          break;
        }
        std::map<std::string, std::vector<KeyedRow>> a{{version, want}};
        std::map<std::string, std::vector<KeyedRow>> b{{version, *got}};
        std::string diff = testutil::DiffSnapshots(a, b);
        if (!diff.empty()) {
          errors[idx] = version + "." + table + " read #" +
                        std::to_string(i) + ": " + diff;
          mismatch.store(true);
          break;
        }
      }
      running.fetch_sub(1, std::memory_order_release);
    });
    ++idx;
  }

  // The DBA keeps flipping until every reader is done.
  std::string dba_error;
  std::thread dba([&] {
    size_t next = 0;
    while (running.load(std::memory_order_acquire) > 0) {
      Status s = db.Materialize(MaterializeRequest::Schema((*schemas)[next++ % schemas->size()]));
      if (!s.ok()) {
        dba_error = "DBA: " + s.ToString();
        mismatch.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& t : readers) t.join();
  dba.join();

  EXPECT_TRUE(dba_error.empty()) << dba_error;
  for (const std::string& e : errors) EXPECT_TRUE(e.empty()) << e;
  EXPECT_FALSE(mismatch.load());
}

// Single-threaded epoch property over random genealogies: a cached plan is
// never served across an epoch bump — every plan the cache serves equals a
// fresh compile (tests/plan_oracle.h), and GetPlan after a bump returns a
// re-resolved plan stamped with the new epoch.
class EpochResolveTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EpochResolveTest, CachedReadsEqualFreshCompileAcrossEpochBumps) {
  const uint64_t seed = TestSeed(GetParam());
  INVERDA_TRACE_SEED(seed);
  Inverda db;
  testutil::GenealogyBuilder builder(&db, seed);
  ASSERT_TRUE(builder.Init().ok());
  for (int step = 0; step < 4; ++step) ASSERT_TRUE(builder.Step().ok());
  Random rng(seed * 23 + 9);

  Result<std::vector<std::set<SmoId>>> schemas =
      db.catalog().EnumerateValidMaterializations(/*limit=*/8);
  ASSERT_TRUE(schemas.ok()) << schemas.status().ToString();
  ASSERT_GE(schemas->size(), 2u);

  // Pin one table version at the head and watch its plan across bumps.
  const std::string head = builder.versions().back();
  const SchemaVersionInfo* info = *db.catalog().FindVersion(head);
  ASSERT_FALSE(info->tables.empty());
  const TvId watched = info->tables.begin()->second;

  for (int round = 0; round < 8; ++round) {
    // Warm the plan cache with a full read of every version.
    (void)testutil::Snapshot(&db);
    Result<const plan::TvPlan*> before = db.access().GetPlan(watched);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    const uint64_t epoch_before = (*before)->epoch;

    // Bump the epoch (materialization flip) and mutate some data.
    const std::set<SmoId>& m = (*schemas)[rng.NextUint64(schemas->size())];
    ASSERT_TRUE(db.Materialize(MaterializeRequest::Schema(m)).ok());
    for (int w = 0; w < 3; ++w) {
      testutil::RandomInsert(&db, &rng, builder.versions());
    }

    // A reader resolving after the bump gets a plan stamped with the new
    // epoch (or the same one, when the flip was a no-op for this round).
    Result<const plan::TvPlan*> after = db.access().GetPlan(watched);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_GE((*after)->epoch, epoch_before);

    // Every cached plan equals a fresh compile.
    (void)testutil::Snapshot(&db);
    std::string diff = testutil::DiffCachedPlans(&db);
    ASSERT_TRUE(diff.empty()) << "seed " << seed << ", round " << round
                              << ": cached plan served stale route: "
                              << diff;
  }
  // Epoch bumps showed up as plan-cache invalidations.
  EXPECT_GT(db.Metrics().value("plan_cache.invalidations"), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpochResolveTest,
                         ::testing::Values(3, 7, 19, 41));

}  // namespace
}  // namespace inverda
