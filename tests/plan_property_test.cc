// Randomized property test for compiled-plan correctness: grow a random
// genealogy while interleaving evolutions, migrations, version drops, and
// writes, and after every mutation assert that every plan the plan cache
// serves equals a fresh compile field by field (tests/plan_oracle.h),
// propagation distances included. This exercises the materialization-epoch
// invalidation across all three mutation kinds.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "genealogy_builder.h"
#include "inverda/inverda.h"
#include "plan/fused.h"
#include "plan_oracle.h"
#include "test_seed.h"
#include "util/random.h"

namespace inverda {
namespace {

TEST(PlanPropertyTest, CompiledPlansMatchFreshCompileUnderMutations) {
  for (uint64_t base = 1; base <= 4; ++base) {
    const uint64_t seed = TestSeed(base);
    INVERDA_TRACE_SEED(seed);
    Inverda db;
    testutil::GenealogyBuilder builder(&db, seed);
    ASSERT_TRUE(builder.Init().ok());
    Random rng(seed * 7919 + 3);
    std::set<std::string> dropped;

    auto live = [&]() {
      std::vector<std::string> out;
      for (const std::string& v : builder.versions()) {
        if (!dropped.count(v)) out.push_back(v);
      }
      return out;
    };

    for (int step = 0; step < 14; ++step) {
      const std::vector<std::string> versions = live();
      const uint64_t action = rng.NextUint64(8);
      if (action < 4) {  // evolve (the head is never dropped)
        ASSERT_TRUE(builder.Step().ok()) << "seed " << seed;
      } else if (action < 6) {  // migrate to a random live version
        const std::string& v = versions[rng.NextUint64(versions.size())];
        Status s = db.Materialize(MaterializeRequest::Targets({v}));
        ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << s.ToString();
      } else if (versions.size() >= 3) {  // drop a non-head version
        const std::string& v =
            versions[rng.NextUint64(versions.size() - 1)];
        Status s = db.Execute("DROP SCHEMA VERSION " + v + ";");
        // Dropping may legitimately strand materialized data; anything
        // else must succeed.
        if (s.ok()) {
          dropped.insert(v);
        } else {
          EXPECT_EQ(s.code(), StatusCode::kInvalidState) << s.ToString();
        }
      }

      for (int i = 0; i < 2; ++i) testutil::RandomInsert(&db, &rng, live());

      // Every version stays readable through its cached plan, and every
      // cached plan equals a fresh compile.
      (void)testutil::Snapshot(&db);
      EXPECT_EQ(testutil::DiffCachedPlans(&db), "")
          << "seed " << seed << " step " << step;
    }
  }
}

// Randomized equivalence property for fusion and batch execution: two
// instances grow the same random genealogy from the same seed and apply
// the same inserts and migrations, one with fusion + batch execution on
// (the default) and one with both off (the hop-by-hop row-at-a-time
// baseline). After every step, every version's view must be byte-identical
// across the instances, and fusion must not change propagation distances
// (a fused step still counts the SMO hops it stands for).
TEST(PlanPropertyTest, FusedBatchPathsMatchRowAtATimeUnfused) {
  // Fused layouts seen with a dead widen (an ADD COLUMN a later DROP
  // COLUMN of the same run undoes), built for its Status or dropped.
  int dead_widens = 0;
  for (uint64_t base = 1; base <= 3; ++base) {
    const uint64_t seed = TestSeed(base + 100);
    INVERDA_TRACE_SEED(seed);
    Inverda fused_db;
    Inverda plain_db;
    plain_db.access().set_fusion_enabled(false);
    plain_db.access().set_batch_enabled(false);
    testutil::GenealogyBuilder fused_builder(&fused_db, seed);
    testutil::GenealogyBuilder plain_builder(&plain_db, seed);
    ASSERT_TRUE(fused_builder.Init().ok());
    ASSERT_TRUE(plain_builder.Init().ok());
    Random fused_rng(seed * 104729 + 5);
    Random plain_rng(seed * 104729 + 5);

    for (int step = 0; step < 10; ++step) {
      ASSERT_TRUE(fused_builder.Step().ok()) << "seed " << seed;
      ASSERT_TRUE(plain_builder.Step().ok()) << "seed " << seed;
      ASSERT_EQ(fused_builder.versions(), plain_builder.versions())
          << "seed " << seed;
      for (int i = 0; i < 3; ++i) {
        testutil::RandomInsert(&fused_db, &fused_rng,
                               fused_builder.versions());
        testutil::RandomInsert(&plain_db, &plain_rng,
                               plain_builder.versions());
      }
      if (step % 3 == 2) {  // migrate both to the same random version
        const std::vector<std::string>& versions = fused_builder.versions();
        const std::string& v =
            versions[fused_rng.NextUint64(versions.size())];
        plain_rng.NextUint64(versions.size());  // keep the rngs in lockstep
        ASSERT_TRUE(fused_db.Materialize(MaterializeRequest::Targets({v})).ok()) << "seed " << seed;
        ASSERT_TRUE(plain_db.Materialize(MaterializeRequest::Targets({v})).ok()) << "seed " << seed;
      }

      auto fused_snap = testutil::Snapshot(&fused_db);
      auto plain_snap = testutil::Snapshot(&plain_db);
      EXPECT_EQ(testutil::DiffSnapshots(fused_snap, plain_snap), "")
          << "seed " << seed << " step " << step;

      // A fused instance with batching toggled off exercises the fused
      // row-path (FusedDerive through a scratch table) — same bytes again.
      fused_db.access().set_batch_enabled(false);
      auto fused_row_snap = testutil::Snapshot(&fused_db);
      fused_db.access().set_batch_enabled(true);
      EXPECT_EQ(testutil::DiffSnapshots(fused_snap, fused_row_snap), "")
          << "seed " << seed << " step " << step;

      for (const std::string& version : fused_builder.versions()) {
        const SchemaVersionInfo* info = *fused_db.catalog().FindVersion(version);
        for (const auto& [table, tv] : info->tables) {
          int fused_distance = *fused_db.access().PropagationDistance(tv);
          int plain_distance = *plain_db.access().PropagationDistance(tv);
          EXPECT_EQ(fused_distance, plain_distance)
              << "seed " << seed << " step " << step << " " << version << "."
              << table;
          for (const plan::PlanStep& hop :
               (*fused_db.access().GetPlan(tv))->steps) {
            if (!hop.is_fused()) continue;
            dead_widens += hop.layout->dead_dropped;
            for (const plan::WidenBuild& widen : hop.layout->widens) {
              dead_widens += widen.dead ? 1 : 0;
            }
          }
        }
      }
    }
  }
  if (!TestSeedOverridden()) EXPECT_GT(dead_widens, 0);
}

}  // namespace
}  // namespace inverda
