#include <gtest/gtest.h>

#include "plan/fused.h"
#include "workload/wikimedia.h"

namespace inverda {
namespace {

class WikimediaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Building the 171-version genealogy is expensive; share it.
    WikimediaOptions options;
    Result<WikimediaScenario> scenario = BuildWikimedia(options);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = new WikimediaScenario(std::move(*scenario));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  static WikimediaScenario* scenario_;
};

WikimediaScenario* WikimediaTest::scenario_ = nullptr;

TEST_F(WikimediaTest, Has171Versions) {
  EXPECT_EQ(scenario_->versions.size(), 171u);
  EXPECT_EQ(scenario_->versions.front(), "v001");
  EXPECT_EQ(scenario_->versions.back(), "v171");
  for (const std::string& v : scenario_->versions) {
    EXPECT_TRUE(scenario_->db->catalog().HasVersion(v)) << v;
  }
}

TEST_F(WikimediaTest, HistogramMatchesTable4) {
  const auto& h = scenario_->histogram;
  EXPECT_EQ(h.at(SmoKind::kCreateTable), 42);
  EXPECT_EQ(h.at(SmoKind::kDropTable), 10);
  EXPECT_EQ(h.at(SmoKind::kRenameTable), 1);
  EXPECT_EQ(h.at(SmoKind::kAddColumn), 95);
  EXPECT_EQ(h.at(SmoKind::kDropColumn), 21);
  EXPECT_EQ(h.at(SmoKind::kRenameColumn), 36);
  EXPECT_EQ(h.at(SmoKind::kDecompose), 4);
  EXPECT_EQ(h.at(SmoKind::kMerge), 2);
  EXPECT_EQ(h.count(SmoKind::kJoin), 0u);
  EXPECT_EQ(h.count(SmoKind::kSplit), 0u);
  int total = 0;
  for (const auto& [kind, count] : h) {
    (void)kind;
    total += count;
  }
  EXPECT_EQ(total, 211);
}

TEST_F(WikimediaTest, PageLineageExistsInEveryVersion) {
  for (size_t i = 0; i < scenario_->versions.size(); ++i) {
    Result<TableSchema> schema = scenario_->db->GetSchema(
        scenario_->versions[i], scenario_->page_table[i]);
    ASSERT_TRUE(schema.ok())
        << scenario_->versions[i] << ": " << schema.status().ToString();
    EXPECT_GE(schema->num_columns(), 1);
  }
}

TEST_F(WikimediaTest, DataLoadedMidHistoryIsVisibleEverywhere) {
  Result<std::vector<int64_t>> keys =
      LoadWikimediaData(scenario_, /*version_index=*/108, /*pages=*/20,
                        /*links=*/30, /*seed=*/1);
  ASSERT_TRUE(keys.ok()) << keys.status().ToString();
  // Pages are visible at the first, a middle, and the last version.
  for (int index : {0, 27, 108, 170}) {
    Result<std::vector<KeyedRow>> rows = scenario_->db->Select(
        scenario_->versions[static_cast<size_t>(index)],
        scenario_->page_table[static_cast<size_t>(index)]);
    ASSERT_TRUE(rows.ok())
        << scenario_->versions[static_cast<size_t>(index)] << ": "
        << rows.status().ToString();
    EXPECT_EQ(rows->size(), 20u) << "at index " << index;
  }
}

TEST_F(WikimediaTest, WritesAtOldVersionsReachNewOnes) {
  Result<TableSchema> v1_schema =
      scenario_->db->GetSchema("v001", scenario_->page_table[0]);
  ASSERT_TRUE(v1_schema.ok());
  Row row;
  for (const Column& c : v1_schema->columns()) {
    row.push_back(c.type == DataType::kInt64 ? Value::Int(1)
                                             : Value::String("w"));
  }
  Result<int64_t> key =
      scenario_->db->Insert("v001", scenario_->page_table[0], row);
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  Result<std::optional<Row>> at_latest = scenario_->db->Get(
      "v171", scenario_->page_table.back(), *key);
  ASSERT_TRUE(at_latest.ok()) << at_latest.status().ToString();
  EXPECT_TRUE(at_latest->has_value());
}

// With the data materialized at v109, the page table of a far version
// reads through one fused column run whose layout scans only the columns
// the version keeps and builds only the widens it shows (plus any that can
// fail). The counts pin what the layout compiles to on this genealogy.
TEST(WikimediaLayoutTest, FusedRunsReadOnlyTheColumnsTheyKeep) {
  Result<WikimediaScenario> built = BuildWikimedia(WikimediaOptions{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  WikimediaScenario& scenario = *built;
  ASSERT_TRUE(scenario.db
                  ->Materialize(MaterializeRequest::Targets(
                      {scenario.versions[108]}))
                  .ok());
  struct Expected {
    size_t index;
    size_t inner_reads;
    size_t widens;
    int dead_dropped;
  };
  for (const Expected& want : {Expected{0, 2, 1, 7}, Expected{27, 25, 8, 0},
                               Expected{170, 45, 10, 8}}) {
    const std::string& version = scenario.versions[want.index];
    SCOPED_TRACE(version);
    TvId tv = *scenario.db->catalog().ResolveTable(
        version, scenario.page_table[want.index]);
    const plan::TvPlan* plan = *scenario.db->access().GetPlan(tv);
    ASSERT_EQ(plan->steps.size(), 1u);
    const plan::PlanStep& step = plan->steps.front();
    ASSERT_TRUE(step.is_fused());
    const plan::ColumnLayout& layout = *step.layout;
    EXPECT_EQ(layout.inner_width, 47);
    EXPECT_EQ(layout.inner_reads.size(), want.inner_reads);
    EXPECT_EQ(layout.widens.size(), want.widens);
    EXPECT_EQ(layout.dead_dropped, want.dead_dropped);
    EXPECT_EQ(layout.output.size(),
              static_cast<size_t>(plan->schema->num_columns()));
  }
}

}  // namespace
}  // namespace inverda
