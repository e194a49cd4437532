// Unit tests for the compiled access-plan layer (src/plan): plan shape on
// the Tasky genealogy, distance = step count, materialization-epoch
// invalidation, the zero-catalog-walks-on-hit guarantee, and the unified
// view-cache accounting of ScanVersion and FindVersion.

#include <gtest/gtest.h>

#include "handwritten/reference_sql.h"
#include "inverda/inverda.h"
#include "plan/plan.h"

namespace inverda {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute(BidelInitialScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelDoScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelEvolutionScript()).ok());
    task0_ = *db_.catalog().ResolveTable("TasKy", "Task");
    todo1_ = *db_.catalog().ResolveTable("Do!", "Todo");
    task1_ = *db_.catalog().ResolveTable("TasKy2", "Task");
    author1_ = *db_.catalog().ResolveTable("TasKy2", "Author");
  }

  Inverda db_;
  TvId task0_ = -1;
  TvId todo1_ = -1;
  TvId task1_ = -1;
  TvId author1_ = -1;
};

TEST_F(PlanTest, PlanShapeMatchesGenealogy) {
  const plan::TvPlan* p0 = *db_.access().GetPlan(task0_);
  EXPECT_TRUE(p0->physical);
  EXPECT_EQ(p0->distance(), 0);
  EXPECT_EQ(p0->data_table, db_.catalog().DataTableName(task0_));
  ASSERT_EQ(p0->footprint.size(), 1u);
  EXPECT_EQ(p0->footprint[0], p0->data_table);
  EXPECT_TRUE(p0->traversed_smos.empty());

  const plan::TvPlan* p2 = *db_.access().GetPlan(todo1_);
  EXPECT_FALSE(p2->physical);
  ASSERT_EQ(p2->distance(), 2);  // drop column + split
  EXPECT_EQ(p2->steps[0].route, plan::RouteCase::kBackward);
  EXPECT_EQ(p2->steps[1].route, plan::RouteCase::kBackward);
  EXPECT_EQ(p2->steps[0].side, SmoSide::kTarget);
  EXPECT_NE(p2->steps[0].kernel, nullptr);
  EXPECT_EQ(p2->data_table, db_.catalog().DataTableName(task0_));

  EXPECT_EQ((*db_.access().GetPlan(task1_))->distance(), 1);   // decompose
  EXPECT_EQ((*db_.access().GetPlan(author1_))->distance(), 2);  // rename+dec
}

TEST_F(PlanTest, DistanceEqualsStepCount) {
  for (TvId tv : {task0_, todo1_, task1_, author1_}) {
    const plan::TvPlan* p = *db_.access().GetPlan(tv);
    EXPECT_EQ(p->distance(), static_cast<int>(p->steps.size()));
    EXPECT_EQ(*db_.access().PropagationDistance(tv), p->distance());
  }
}

TEST_F(PlanTest, EpochBumpsOnEvolutionMigrationAndDrop) {
  const uint64_t e0 = db_.catalog().materialization_epoch();
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION E FROM TasKy2 WITH "
                          "ADD COLUMN extra INT AS 0 INTO Task;")
                  .ok());
  const uint64_t e1 = db_.catalog().materialization_epoch();
  EXPECT_GT(e1, e0);
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"})).ok());
  const uint64_t e2 = db_.catalog().materialization_epoch();
  EXPECT_GT(e2, e1);
  ASSERT_TRUE(db_.Execute("DROP SCHEMA VERSION E;").ok());
  EXPECT_GT(db_.catalog().materialization_epoch(), e2);
}

TEST_F(PlanTest, MigrationInvalidatesCachedPlans) {
  const uint64_t epoch_before = (*db_.access().GetPlan(task0_))->epoch;
  EXPECT_TRUE((*db_.access().GetPlan(task0_))->physical);
  const int64_t compiles_before = db_.Metrics().value("plan_cache.compiles");

  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"})).ok());

  const plan::TvPlan* after = *db_.access().GetPlan(task0_);
  EXPECT_GT(after->epoch, epoch_before);
  EXPECT_FALSE(after->physical);  // the route flipped to the forward case
  ASSERT_EQ(after->distance(), 1);
  EXPECT_EQ(after->steps[0].route, plan::RouteCase::kForward);
  EXPECT_EQ(after->steps[0].side, SmoSide::kSource);
  EXPECT_GT(db_.Metrics().value("plan_cache.invalidations"), 0);
  EXPECT_GT(db_.Metrics().value("plan_cache.compiles"), compiles_before);
}

// The tentpole's acceptance criterion: once plans are cached, reads,
// point lookups, and writes perform zero route resolutions and zero
// context assemblies — the counters only move while compiling.
TEST_F(PlanTest, CacheHitsPerformZeroCatalogWalks) {
  auto run_ops = [&]() {
    ASSERT_TRUE(db_.Select("TasKy", "Task").ok());
    ASSERT_TRUE(db_.Select("Do!", "Todo").ok());
    ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
    ASSERT_TRUE(db_.Select("TasKy2", "Author").ok());
    Result<int64_t> key = db_.Insert(
        "TasKy", "Task",
        {Value::String("Ann"), Value::String("write"), Value::Int(1)});
    ASSERT_TRUE(key.ok());
    ASSERT_TRUE(db_.Get("TasKy2", "Task", *key).ok());
    ASSERT_TRUE(db_.Delete("TasKy", "Task", *key).ok());
  };
  run_ops();  // warm every plan the operations (and their recursion) touch

  const obs::MetricsSnapshot warm = db_.Metrics().Snapshot();
  EXPECT_GT(warm.value("plan_cache.compiles"), 0);
  EXPECT_GT(warm.value("plan_cache.route_walks"), 0);
  for (int i = 0; i < 3; ++i) run_ops();
  const obs::MetricsSnapshot after = db_.Metrics().Snapshot();

  EXPECT_EQ(after.value("plan_cache.compiles"),
            warm.value("plan_cache.compiles"));
  EXPECT_EQ(after.value("plan_cache.route_walks"),
            warm.value("plan_cache.route_walks"));
  EXPECT_EQ(after.value("plan_cache.context_builds"),
            warm.value("plan_cache.context_builds"));
  EXPECT_GT(after.value("plan_cache.hits"), warm.value("plan_cache.hits"));
}

// Satellite: FindVersion used to neither count a miss nor store on the
// view-cache miss path, unlike ScanVersion. Both now go through the single
// accounting point (RecordCacheLookupLocked), so hit/miss/store counts are
// identical whichever entry touches the cache first.
TEST_F(PlanTest, FindAndScanShareViewCacheAccounting) {
  Result<int64_t> key = db_.Insert(
      "TasKy", "Task",
      {Value::String("Cleo"), Value::String("call"), Value::Int(2)});
  ASSERT_TRUE(key.ok());
  db_.access().set_cache_enabled(true);
  db_.ResetMetrics();

  // A point lookup on a virtual version misses once and stores the view.
  ASSERT_TRUE(db_.Get("TasKy2", "Task", *key)->has_value());
  EXPECT_EQ(db_.Metrics().value("view_cache.misses"), 1);
  EXPECT_EQ(db_.Metrics().value("view_cache.size"), 1);
  // Both a second lookup and a full scan now hit the stored entry.
  ASSERT_TRUE(db_.Get("TasKy2", "Task", *key)->has_value());
  EXPECT_EQ(db_.Metrics().value("view_cache.hits"), 1);
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  EXPECT_EQ(db_.Metrics().value("view_cache.hits"), 2);
  EXPECT_EQ(db_.Metrics().value("view_cache.misses"), 1);

  // Symmetric: scan first, then lookups hit.
  db_.access().InvalidateCache();
  db_.ResetMetrics();
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  EXPECT_EQ(db_.Metrics().value("view_cache.misses"), 1);
  ASSERT_TRUE(db_.Get("TasKy2", "Task", *key)->has_value());
  EXPECT_EQ(db_.Metrics().value("view_cache.hits"), 1);
  EXPECT_EQ(db_.Metrics().value("view_cache.misses"), 1);

  // Physical versions bypass the view cache entirely, in both entries.
  ASSERT_TRUE(db_.Get("TasKy", "Task", *key)->has_value());
  ASSERT_TRUE(db_.Select("TasKy", "Task").ok());
  EXPECT_EQ(db_.Metrics().value("view_cache.misses"), 1);
}

}  // namespace
}  // namespace inverda
