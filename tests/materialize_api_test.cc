// The unified Materialize(MaterializeRequest) entry point. One call shape
// covers targets-vs-schema × blocking-vs-online(-nowait).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "handwritten/reference_sql.h"
#include "inverda/inverda.h"

namespace inverda {
namespace {

class MaterializeApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute(BidelInitialScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelDoScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelEvolutionScript()).ok());
    for (int i = 0; i < 30; ++i) {
      std::string author = "a";
      author += std::to_string(i % 4);
      std::string task = "task ";
      task += std::to_string(i);
      ASSERT_TRUE(db_.Insert("TasKy", "Task",
                             {Value::String(author), Value::String(task),
                              Value::Int(1 + i % 3)})
                      .ok());
    }
  }

  bool Physical(const std::string& version, const std::string& table) {
    return db_.catalog().IsPhysical(*db_.catalog().ResolveTable(version,
                                                                table));
  }

  Inverda db_;
};

TEST_F(MaterializeApiTest, TargetsBlocking) {
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"})).ok());
  EXPECT_TRUE(Physical("TasKy2", "Task"));
  EXPECT_TRUE(Physical("TasKy2", "Author"));
  EXPECT_FALSE(db_.MigrationState().active);
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 30u);
}

TEST_F(MaterializeApiTest, SchemaBlocking) {
  // Enumerate the valid schemas and pick one that is not current.
  Result<std::vector<std::set<SmoId>>> schemas =
      db_.catalog().EnumerateValidMaterializations(/*limit=*/16);
  ASSERT_TRUE(schemas.ok());
  const std::set<SmoId> current = db_.catalog().CurrentMaterialization();
  for (const std::set<SmoId>& m : *schemas) {
    if (m == current) continue;
    ASSERT_TRUE(db_.Materialize(MaterializeRequest::Schema(m)).ok());
    EXPECT_EQ(db_.catalog().CurrentMaterialization(), m);
    break;
  }
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 30u);
}

TEST_F(MaterializeApiTest, OnlineWaitBlocksUntilDone) {
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets(
                                  {"TasKy2"}, /*online=*/true, /*wait=*/true))
                  .ok());
  EXPECT_FALSE(db_.MigrationState().active);
  EXPECT_EQ(db_.MigrationState().phase, migrate::Phase::kDone);
  EXPECT_TRUE(Physical("TasKy2", "Task"));
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 30u);
}

TEST_F(MaterializeApiTest, OnlineNoWaitReturnsImmediately) {
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets(
                                  {"Do!"}, /*online=*/true, /*wait=*/false))
                  .ok());
  // The request returned with the migration possibly still running; both
  // joining paths are legal, and Wait drains it.
  ASSERT_TRUE(db_.WaitForMigration().ok());
  EXPECT_TRUE(Physical("Do!", "Todo"));
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 30u);
}

TEST_F(MaterializeApiTest, SchemaOnlineNoWait) {
  Result<std::vector<std::set<SmoId>>> schemas =
      db_.catalog().EnumerateValidMaterializations(/*limit=*/16);
  ASSERT_TRUE(schemas.ok());
  const std::set<SmoId> current = db_.catalog().CurrentMaterialization();
  for (const std::set<SmoId>& m : *schemas) {
    if (m == current) continue;
    ASSERT_TRUE(db_.Materialize(MaterializeRequest::Schema(
                                    m, /*online=*/true, /*wait=*/false))
                    .ok());
    ASSERT_TRUE(db_.WaitForMigration().ok());
    EXPECT_EQ(db_.catalog().CurrentMaterialization(), m);
    break;
  }
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 30u);
}

// A blocking run is the coordinator's inline schedule: it gets a migration
// id, a terminal phase and the migrate.* counters like an online one.
TEST_F(MaterializeApiTest, BlockingRunsShowInMigrationState) {
  obs::MetricsRegistry& metrics = db_.Metrics();
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"})).ok());
  migrate::MigrationStatus done = db_.MigrationState();
  EXPECT_EQ(done.id, 1);
  EXPECT_EQ(done.phase, migrate::Phase::kDone);
  EXPECT_EQ(done.label, "TasKy2");
  EXPECT_FALSE(done.active);
  EXPECT_GT(done.refreshes, 0);
  EXPECT_EQ(metrics.counter("migrate.started")->value(), 1);
  EXPECT_EQ(metrics.counter("migrate.committed")->value(), 1);

  // A commit that fails (its target name is occupied) counts as failed.
  TvId todo = *db_.catalog().ResolveTable("Do!", "Todo");
  ASSERT_TRUE(db_.db()
                  .CreateTable(TableSchema(db_.catalog().DataTableName(todo),
                                           {}))
                  .ok());
  EXPECT_FALSE(db_.Materialize(MaterializeRequest::Targets({"Do!"})).ok());
  migrate::MigrationStatus failed = db_.MigrationState();
  EXPECT_EQ(failed.id, 2);
  EXPECT_EQ(failed.phase, migrate::Phase::kFailed);
  EXPECT_FALSE(failed.result.ok());
  EXPECT_EQ(metrics.counter("migrate.failed")->value(), 1);
  EXPECT_EQ(db_.Select("Do!", "Todo")->size(), 10u);
}

TEST_F(MaterializeApiTest, RejectsBothTargetsAndSchema) {
  MaterializeRequest request;
  request.targets = {"TasKy2"};
  request.schema = std::set<SmoId>{};
  Status s = db_.Materialize(request);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST_F(MaterializeApiTest, RejectsEmptyRequest) {
  Status s = db_.Materialize(MaterializeRequest{});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

}  // namespace
}  // namespace inverda
