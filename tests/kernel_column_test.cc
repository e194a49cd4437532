#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "inverda/inverda.h"
#include "plan/fused.h"

namespace inverda {
namespace {

// ADD COLUMN / DROP COLUMN semantics (Appendix B.1), exercised end-to-end
// through the facade in both materialization states.
class AddColumnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V1 WITH "
                            "CREATE TABLE T(a INT, b TEXT);"
                            "CREATE SCHEMA VERSION V2 FROM V1 WITH "
                            "ADD COLUMN c INT AS a * 10 INTO T;")
                    .ok());
  }
  Inverda db_;
};

TEST_F(AddColumnTest, ComputedValueVisibleInNewVersion) {
  int64_t key = *db_.Insert("V1", "T", {Value::Int(4), Value::String("x")});
  Row row = **db_.Get("V2", "T", key);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[2], Value::Int(40));
}

TEST_F(AddColumnTest, ExplicitValueWrittenThroughNewVersionIsStable) {
  int64_t key = *db_.Insert(
      "V2", "T", {Value::Int(4), Value::String("x"), Value::Int(99)});
  // Not recomputed to 40: the auxiliary B table keeps the written value.
  EXPECT_EQ((**db_.Get("V2", "T", key))[2], Value::Int(99));
  // The old version sees the row without c.
  Row old = **db_.Get("V1", "T", key);
  ASSERT_EQ(old.size(), 2u);
  EXPECT_EQ(old[0], Value::Int(4));
}

TEST_F(AddColumnTest, SourceUpdateRecomputesOnlyUnpinnedValues) {
  int64_t computed = *db_.Insert("V1", "T", {Value::Int(1), Value::String("x")});
  int64_t pinned = *db_.Insert(
      "V2", "T", {Value::Int(2), Value::String("y"), Value::Int(7)});
  ASSERT_TRUE(db_.Update("V1", "T", computed,
                         {Value::Int(5), Value::String("x")})
                  .ok());
  ASSERT_TRUE(db_.Update("V1", "T", pinned,
                         {Value::Int(6), Value::String("y")})
                  .ok());
  EXPECT_EQ((**db_.Get("V2", "T", computed))[2], Value::Int(50));
  // The pinned value survives updates of the other columns.
  EXPECT_EQ((**db_.Get("V2", "T", pinned))[2], Value::Int(7));
}

TEST_F(AddColumnTest, MaterializedStateKeepsColumnPhysically) {
  int64_t key = *db_.Insert(
      "V2", "T", {Value::Int(4), Value::String("x"), Value::Int(99)});
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"V2"})).ok());
  EXPECT_EQ((**db_.Get("V2", "T", key))[2], Value::Int(99));
  // Updating through V1 keeps the stored c value (rule 127).
  ASSERT_TRUE(db_.Update("V1", "T", key,
                         {Value::Int(8), Value::String("z")})
                  .ok());
  Row row = **db_.Get("V2", "T", key);
  EXPECT_EQ(row[0], Value::Int(8));
  EXPECT_EQ(row[2], Value::Int(99));
  // New inserts through V1 compute c.
  int64_t key2 = *db_.Insert("V1", "T", {Value::Int(3), Value::String("w")});
  EXPECT_EQ((**db_.Get("V2", "T", key2))[2], Value::Int(30));
}

TEST_F(AddColumnTest, DeleteThroughEitherVersion) {
  int64_t key = *db_.Insert("V1", "T", {Value::Int(1), Value::String("x")});
  ASSERT_TRUE(db_.Delete("V2", "T", key).ok());
  EXPECT_FALSE(db_.Get("V1", "T", key)->has_value());
  int64_t key2 = *db_.Insert(
      "V2", "T", {Value::Int(2), Value::String("y"), Value::Int(5)});
  ASSERT_TRUE(db_.Delete("V1", "T", key2).ok());
  EXPECT_FALSE(db_.Get("V2", "T", key2)->has_value());
}

class DropColumnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V1 WITH "
                            "CREATE TABLE T(a INT, note TEXT);"
                            "CREATE SCHEMA VERSION V2 FROM V1 WITH "
                            "DROP COLUMN note FROM T DEFAULT 'none';")
                    .ok());
  }
  Inverda db_;
};

TEST_F(DropColumnTest, NewVersionLacksColumn) {
  int64_t key = *db_.Insert("V1", "T", {Value::Int(1), Value::String("hi")});
  Row row = **db_.Get("V2", "T", key);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0], Value::Int(1));
}

TEST_F(DropColumnTest, BackwardInsertUsesDefaultFunction) {
  int64_t key = *db_.Insert("V2", "T", {Value::Int(2)});
  Row row = **db_.Get("V1", "T", key);
  EXPECT_EQ(row[1], Value::String("none"));
}

TEST_F(DropColumnTest, UpdateThroughNewVersionPreservesDroppedValue) {
  int64_t key = *db_.Insert("V1", "T", {Value::Int(1), Value::String("keep")});
  ASSERT_TRUE(db_.Update("V2", "T", key, {Value::Int(9)}).ok());
  Row row = **db_.Get("V1", "T", key);
  EXPECT_EQ(row[0], Value::Int(9));
  EXPECT_EQ(row[1], Value::String("keep"));
}

TEST_F(DropColumnTest, MaterializedKeepsDroppedValuesInAux) {
  int64_t key = *db_.Insert("V1", "T", {Value::Int(1), Value::String("keep")});
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"V2"})).ok());
  // The dropped column is still reconstructable in V1 (aux B).
  EXPECT_EQ((**db_.Get("V1", "T", key))[1], Value::String("keep"));
  // Writes through V1 keep maintaining it.
  ASSERT_TRUE(db_.Update("V1", "T", key,
                         {Value::Int(2), Value::String("changed")})
                  .ok());
  EXPECT_EQ((**db_.Get("V1", "T", key))[1], Value::String("changed"));
  EXPECT_EQ((**db_.Get("V2", "T", key))[0], Value::Int(2));
  // And migrating back re-inlines the column.
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"V1"})).ok());
  EXPECT_EQ((**db_.Get("V1", "T", key))[1], Value::String("changed"));
}

TEST_F(DropColumnTest, ChainedColumnSmos) {
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V3 FROM V2 WITH "
                          "ADD COLUMN flag INT AS a % 2 INTO T;")
                  .ok());
  int64_t key = *db_.Insert("V1", "T", {Value::Int(3), Value::String("x")});
  Row v3 = **db_.Get("V3", "T", key);
  ASSERT_EQ(v3.size(), 2u);
  EXPECT_EQ(v3[1], Value::Int(1));
  // Write at the far end, read at the origin.
  int64_t key2 = *db_.Insert("V3", "T", {Value::Int(4), Value::Int(0)});
  Row v1 = **db_.Get("V1", "T", key2);
  EXPECT_EQ(v1[0], Value::Int(4));
  EXPECT_EQ(v1[1], Value::String("none"));
}

// --- the widen path of a fused column layout ----------------------------

// Everything one configuration of the access layer reads from `version`.T:
// Select, a top-level ScanVersionBatch and a Get of every key in `keys`
// (the first failure, if any, is kept as `status`).
struct WidenReads {
  Status status = Status::OK();
  std::vector<KeyedRow> select;
  std::vector<KeyedRow> batch;
  std::vector<std::optional<Row>> gets;
};

WidenReads ReadAll(Inverda* db, const std::string& version,
                   const std::vector<int64_t>& keys, bool fusion, bool batch) {
  db->access().set_fusion_enabled(fusion);
  db->access().set_batch_enabled(batch);
  WidenReads out;
  Result<std::vector<KeyedRow>> rows = db->Select(version, "T");
  if (!rows.ok()) {
    out.status = rows.status();
    return out;
  }
  out.select = std::move(rows).value();
  RowBatch scanned;
  out.status = db->access().ScanVersionBatch(
      *db->catalog().ResolveTable(version, "T"), &scanned);
  if (!out.status.ok()) return out;
  for (int64_t i = 0; i < scanned.size(); ++i) {
    if (scanned.selected(i)) {
      out.batch.push_back({scanned.key_at(i), scanned.RowAt(i)});
    }
  }
  for (int64_t key : keys) {
    Result<std::optional<Row>> row = db->Get(version, "T", key);
    if (!row.ok()) {
      out.status = row.status();
      return out;
    }
    out.gets.push_back(std::move(row).value());
  }
  return out;
}

void ExpectSameRows(const std::vector<KeyedRow>& a,
                    const std::vector<KeyedRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].row, b[i].row) << "key " << a[i].key;
  }
}

// Three ADD COLUMN hops over physical V1 fuse into one layout of three
// widens: d reads c, which the first widen of the same run produced, and
// e is a literal. Rows written through V4 keep c, d and e in the aux
// tables (hits), rows written through V2 keep only c, and rows written
// through V1 compute all three (misses). Every combination of fusion and
// batching reads the same rows through Select, ScanVersionBatch and Get.
TEST(WidenChainTest, FusedWidensAgreeAcrossFusionAndBatching) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE T(a INT, b TEXT);"
                         "CREATE SCHEMA VERSION V2 FROM V1 WITH "
                         "ADD COLUMN c INT AS a * 10 INTO T;"
                         "CREATE SCHEMA VERSION V3 FROM V2 WITH "
                         "ADD COLUMN d INT AS c + 1 INTO T;"
                         "CREATE SCHEMA VERSION V4 FROM V3 WITH "
                         "ADD COLUMN e INT AS 7 INTO T;")
                  .ok());
  std::vector<int64_t> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(*db.Insert("V1", "T", {Value::Int(i), Value::String("n")}));
    keys.push_back(*db.Insert("V4", "T",
                              {Value::Int(i), Value::String("w"),
                               Value::Int(100 + i), Value::Int(200 + i),
                               Value::Int(300 + i)}));
    keys.push_back(*db.Insert("V2", "T", {Value::Int(i), Value::String("m"),
                                          Value::Int(50 + i)}));
  }
  // A V1 update of a V4-written row keeps its stored c, d and e.
  ASSERT_TRUE(db.Update("V1", "T", keys[1],
                        {Value::Int(9), Value::String("u")})
                  .ok());
  keys.push_back(keys.back() + 1000);  // absent key

  db.access().set_fusion_enabled(true);
  const plan::TvPlan* plan =
      *db.access().GetPlan(*db.catalog().ResolveTable("V4", "T"));
  ASSERT_EQ(plan->steps.size(), 1u);
  ASSERT_EQ(plan->steps[0].fused.size(), 3u);
  ASSERT_EQ(plan->steps[0].layout->widens.size(), 3u);
  EXPECT_EQ(plan->steps[0].layout->inner_reads, (std::vector<int>{0, 1}));

  const WidenReads reference = ReadAll(&db, "V4", keys, false, false);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  ASSERT_EQ(reference.select.size(), keys.size() - 1);
  // Pinned values: a miss computes c = a * 10, d = c + 1, e = 7 ...
  EXPECT_EQ(*reference.gets[3],
            (Row{Value::Int(1), Value::String("n"), Value::Int(10),
                 Value::Int(11), Value::Int(7)}));
  // ... a V4 write keeps all three, through a V1 update too ...
  EXPECT_EQ(*reference.gets[1],
            (Row{Value::Int(9), Value::String("u"), Value::Int(100),
                 Value::Int(200), Value::Int(300)}));
  // ... and a V2 write keeps c, from which d is computed.
  EXPECT_EQ(*reference.gets[5],
            (Row{Value::Int(1), Value::String("m"), Value::Int(51),
                 Value::Int(52), Value::Int(7)}));
  EXPECT_FALSE(reference.gets.back().has_value());

  for (bool fusion : {false, true}) {
    for (bool batch : {false, true}) {
      SCOPED_TRACE("fusion=" + std::to_string(fusion) +
                   " batch=" + std::to_string(batch));
      const WidenReads reads = ReadAll(&db, "V4", keys, fusion, batch);
      ASSERT_TRUE(reads.status.ok()) << reads.status.ToString();
      ExpectSameRows(reads.select, reference.select);
      ExpectSameRows(reads.batch, reference.select);
      EXPECT_EQ(reads.gets, reference.gets);
    }
  }
}

// A payload function that fails on some rows: the first failing row in key
// order decides the Status, on the batch path exactly as row at a time.
TEST(WidenChainTest, FailingPayloadFunctionFailsAlikeOnEveryPath) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE T(a INT, b TEXT);"
                         "CREATE SCHEMA VERSION V2 FROM V1 WITH "
                         "ADD COLUMN c INT AS a * 10 INTO T;"
                         "CREATE SCHEMA VERSION V3 FROM V2 WITH "
                         "ADD COLUMN f INT AS 100 / (a - 5) + b INTO T;"
                         "CREATE SCHEMA VERSION V4 FROM V3 WITH "
                         "ADD COLUMN e INT AS 7 INTO T;")
                  .ok());
  // f: NULL, then division by zero, then arithmetic on text.
  const int64_t fine = *db.Insert("V1", "T", {Value::Int(1), Value::Null()});
  const int64_t by_zero =
      *db.Insert("V1", "T", {Value::Int(5), Value::Null()});
  const int64_t text =
      *db.Insert("V1", "T", {Value::Int(2), Value::String("x")});

  const WidenReads reference = ReadAll(&db, "V4", {}, false, false);
  ASSERT_FALSE(reference.status.ok());
  EXPECT_EQ(reference.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reference.status.message(), "division by zero");
  for (bool fusion : {false, true}) {
    for (bool batch : {false, true}) {
      SCOPED_TRACE("fusion=" + std::to_string(fusion) +
                   " batch=" + std::to_string(batch));
      EXPECT_EQ(ReadAll(&db, "V4", {}, fusion, batch).status.ToString(),
                reference.status.ToString());
      // Point reads fail row by row: NULL, division, text.
      db.access().set_fusion_enabled(fusion);
      db.access().set_batch_enabled(batch);
      EXPECT_TRUE(db.Get("V4", "T", fine).ok());
      EXPECT_EQ(db.Get("V4", "T", by_zero).status().message(),
                "division by zero");
      EXPECT_EQ(db.Get("V4", "T", text).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_NE(db.Get("V4", "T", text).status().message(),
                "division by zero");
    }
  }
}

// A dead failing widen: f is added by a function that divides by zero on
// one row, and the next hop drops f again. Fusion discards f's column but
// still evaluates it, so every path fails with the unfused chain's Status;
// a dead literal widen is dropped from the layout outright.
TEST(WidenChainTest, DeadFailingWidenFailsAlikeOnEveryPath) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE T(a INT, b TEXT);"
                         "CREATE SCHEMA VERSION V2 FROM V1 WITH "
                         "ADD COLUMN f INT AS 100 / (a - 5) INTO T;"
                         "CREATE SCHEMA VERSION V3 FROM V2 WITH "
                         "DROP COLUMN f FROM T DEFAULT 0;"
                         "CREATE SCHEMA VERSION V4 FROM V3 WITH "
                         "ADD COLUMN e INT AS 7 INTO T;"
                         "CREATE SCHEMA VERSION V5 FROM V4 WITH "
                         "DROP COLUMN e FROM T DEFAULT 0;")
                  .ok());
  const int64_t fine = *db.Insert("V1", "T", {Value::Int(1), Value::Null()});
  const int64_t by_zero =
      *db.Insert("V1", "T", {Value::Int(5), Value::String("z")});

  db.access().set_fusion_enabled(true);
  const plan::TvPlan* plan =
      *db.access().GetPlan(*db.catalog().ResolveTable("V5", "T"));
  ASSERT_EQ(plan->steps.size(), 1u);
  ASSERT_EQ(plan->steps[0].fused.size(), 4u);
  const plan::ColumnLayout& layout = *plan->steps[0].layout;
  EXPECT_EQ(layout.inner_reads, (std::vector<int>{0, 1}));
  ASSERT_EQ(layout.widens.size(), 1u);
  EXPECT_TRUE(layout.widens[0].dead);
  EXPECT_EQ(layout.dead_dropped, 1);
  EXPECT_EQ(layout.Summary(),
            "reads 2/2 inner columns, builds 1 widens (1 dead dropped)");

  const WidenReads reference = ReadAll(&db, "V5", {}, false, false);
  ASSERT_FALSE(reference.status.ok());
  EXPECT_EQ(reference.status.message(), "division by zero");
  for (bool fusion : {false, true}) {
    for (bool batch : {false, true}) {
      SCOPED_TRACE("fusion=" + std::to_string(fusion) +
                   " batch=" + std::to_string(batch));
      EXPECT_EQ(ReadAll(&db, "V5", {}, fusion, batch).status.ToString(),
                reference.status.ToString());
      db.access().set_fusion_enabled(fusion);
      db.access().set_batch_enabled(batch);
      EXPECT_EQ(*db.Get("V5", "T", fine),
                (std::optional<Row>(Row{Value::Int(1), Value::Null()})));
      EXPECT_EQ(db.Get("V5", "T", by_zero).status().ToString(),
                reference.status.ToString());
    }
  }
}

}  // namespace
}  // namespace inverda
