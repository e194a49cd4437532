#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "handwritten/reference_sql.h"
#include "inverda/inverda.h"
#include "plan/plan.h"

namespace inverda {
namespace {

// Documents and pins the batch semantics of the write path: a WriteSet is
// applied op-by-op in order (like a sequence of trigger invocations); a
// failing op stops the batch, earlier ops remain applied. Callers needing
// all-or-nothing semantics snapshot first (the migration operation does).

class BatchSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V1 WITH "
                            "CREATE TABLE T(a INT);")
                    .ok());
  }
  Inverda db_;
};

TEST_F(BatchSemanticsTest, OpsApplyInOrder) {
  TvId tv = *db_.catalog().ResolveTable("V1", "T");
  int64_t key = db_.db().sequence().Next();
  WriteSet batch;
  batch.Add(WriteOp::Insert(key, {Value::Int(1)}));
  batch.Add(WriteOp::Update(key, {Value::Int(2)}));
  batch.Add(WriteOp::Update(key, {Value::Int(3)}));
  ASSERT_TRUE(db_.access().ApplyToVersion(tv, batch).ok());
  EXPECT_EQ((**db_.Get("V1", "T", key))[0], Value::Int(3));
}

TEST_F(BatchSemanticsTest, FailingOpStopsTheBatch) {
  TvId tv = *db_.catalog().ResolveTable("V1", "T");
  int64_t existing = *db_.Insert("V1", "T", {Value::Int(0)});
  int64_t fresh = db_.db().sequence().Next();
  int64_t never = db_.db().sequence().Next();
  WriteSet batch;
  batch.Add(WriteOp::Insert(fresh, {Value::Int(1)}));
  batch.Add(WriteOp::Insert(existing, {Value::Int(2)}));  // duplicate -> fail
  batch.Add(WriteOp::Insert(never, {Value::Int(3)}));
  Status s = db_.access().ApplyToVersion(tv, batch);
  EXPECT_FALSE(s.ok());
  // Earlier op applied, later op not.
  EXPECT_TRUE(db_.Get("V1", "T", fresh)->has_value());
  EXPECT_FALSE(db_.Get("V1", "T", never)->has_value());
  // The pre-existing row is untouched.
  EXPECT_EQ((**db_.Get("V1", "T", existing))[0], Value::Int(0));
}

TEST_F(BatchSemanticsTest, DeleteOfMissingKeyIsIdempotent) {
  TvId tv = *db_.catalog().ResolveTable("V1", "T");
  WriteSet batch;
  batch.Add(WriteOp::Delete(424242));
  batch.Add(WriteOp::Delete(424242));
  EXPECT_TRUE(db_.access().ApplyToVersion(tv, batch).ok());
}

TEST_F(BatchSemanticsTest, VirtualVersionUpdateOfInvisibleRowIsNoOp) {
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V2 FROM V1 WITH "
                          "SPLIT TABLE T INTO Hot WITH a = 1;")
                  .ok());
  int64_t cold = *db_.Insert("V1", "T", {Value::Int(2)});  // not in Hot
  TvId hot = *db_.catalog().ResolveTable("V2", "Hot");
  WriteSet batch;
  batch.Add(WriteOp::Update(cold, {Value::Int(1)}));
  batch.Add(WriteOp::Delete(cold));
  // Updates/deletes of rows invisible through the version are no-ops, as
  // an UPDATE affecting zero rows is in SQL.
  EXPECT_TRUE(db_.access().ApplyToVersion(hot, batch).ok());
  EXPECT_EQ((**db_.Get("V1", "T", cold))[0], Value::Int(2));
}

// Batch reads: ScanVersionBatch must return exactly the rows ScanVersion
// yields, in the same ascending-key order, with the batch width fixed to
// the queried version's schema width.
TEST_F(BatchSemanticsTest, BatchScanMatchesRowScanAcrossVersions) {
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V2 FROM V1 WITH "
                          "ADD COLUMN b INT AS a INTO T;")
                  .ok());
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V3 FROM V2 WITH "
                          "SPLIT TABLE T INTO Hot WITH a = 1;")
                  .ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_.Insert("V1", "T", {Value::Int(i % 2)}).ok());
  }
  const struct {
    const char* version;
    const char* table;
  } cases[] = {{"V1", "T"}, {"V2", "T"}, {"V3", "Hot"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.version) + "." + c.table);
    TvId tv = *db_.catalog().ResolveTable(c.version, c.table);
    std::vector<std::pair<int64_t, Row>> row_path;
    ASSERT_TRUE(db_.access()
                    .ScanVersion(tv,
                                 [&](int64_t k, const Row& r) {
                                   row_path.emplace_back(k, r);
                                 })
                    .ok());
    RowBatch batch;
    ASSERT_TRUE(db_.access().ScanVersionBatch(tv, &batch).ok());
    int width = db_.GetSchema(c.version, c.table)->num_columns();
    EXPECT_EQ(batch.num_columns(), width);
    std::vector<std::pair<int64_t, Row>> batch_path;
    batch.ForEach(
        [&](int64_t k, const Row& r) { batch_path.emplace_back(k, r); });
    EXPECT_EQ(batch_path, row_path);
  }
}

// A projected batch scan (the `columns` list a fused layout's inner scan
// passes) holds exactly the listed columns of the full scan, in list
// order, whether the version is physical or derived, batched or bridged
// row at a time, cached or not.
TEST_F(BatchSemanticsTest, ProjectedBatchScanMatchesFullScan) {
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V2 FROM V1 WITH "
                          "ADD COLUMN b INT AS a + 10 INTO T;"
                          "ADD COLUMN c TEXT AS 'x' INTO T;")
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_.Insert("V1", "T", {Value::Int(i)}).ok());
  }
  const std::vector<int> columns = {2, 0};
  for (const char* version : {"V1", "V2"}) {
    TvId tv = *db_.catalog().ResolveTable(version, "T");
    const std::vector<int> kept =
        std::string(version) == "V1" ? std::vector<int>{0} : columns;
    for (bool batched : {true, false}) {
      for (bool cached : {false, true}) {
        SCOPED_TRACE(std::string(version) + " batched=" +
                     std::to_string(batched) +
                     " cached=" + std::to_string(cached));
        db_.access().set_batch_enabled(batched);
        db_.access().set_cache_enabled(cached);
        RowBatch full;
        ASSERT_TRUE(db_.access().ScanVersionBatch(tv, &full).ok());
        RowBatch projected;
        ASSERT_TRUE(
            db_.access().ScanVersionBatch(tv, &projected, &kept).ok());
        ASSERT_EQ(projected.num_columns(), static_cast<int>(kept.size()));
        ASSERT_EQ(projected.keys(), full.keys());
        for (size_t c = 0; c < kept.size(); ++c) {
          EXPECT_EQ(projected.column(static_cast<int>(c)),
                    full.column(kept[c]));
        }
        RowBatch bad;
        const std::vector<int> out_of_range = {7};
        EXPECT_FALSE(
            db_.access().ScanVersionBatch(tv, &bad, &out_of_range).ok());
        // A projection never appends: every route rejects a non-empty
        // `out` alike, and leaves it as it was.
        Status into_full = db_.access().ScanVersionBatch(tv, &full, &kept);
        EXPECT_EQ(into_full.code(), StatusCode::kInternal);
        EXPECT_EQ(full.keys(), projected.keys());
      }
    }
  }
  db_.access().set_batch_enabled(true);
  db_.access().set_cache_enabled(false);
}

// Regression: a caller must be able to scan through a width-changing chain
// (here SPLIT above ADD COLUMN) without the intermediate narrow width
// conflicting with the queried version's width — the batch enters every
// inner scan width-unset and only the final shape is pinned.
TEST_F(BatchSemanticsTest, BatchScanThroughWidthChangingChain) {
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V2 FROM V1 WITH "
                          "ADD COLUMN b INT AS a + 10 INTO T;")
                  .ok());
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V3 FROM V2 WITH "
                          "SPLIT TABLE T INTO Hot WITH a = 1;")
                  .ok());
  int64_t hot = *db_.Insert("V1", "T", {Value::Int(1)});
  ASSERT_TRUE(db_.Insert("V1", "T", {Value::Int(2)}).ok());
  // Data stays physical at V1 (width 1); V3.Hot reads partition-over-column
  // (widths 1 -> 2). With fusion disabled, the partition kernel itself
  // drives the inner column hop in batch form.
  for (bool fusion : {true, false}) {
    SCOPED_TRACE(fusion ? "fused" : "unfused");
    db_.access().set_fusion_enabled(fusion);
    TvId tv = *db_.catalog().ResolveTable("V3", "Hot");
    RowBatch batch;
    ASSERT_TRUE(db_.access().ScanVersionBatch(tv, &batch).ok());
    EXPECT_EQ(batch.num_columns(), 2);
    ASSERT_EQ(batch.selected_count(), 1);
    EXPECT_EQ(batch.key_at(0), hot);
    EXPECT_EQ(batch.RowAt(0), (Row{Value::Int(1), Value::Int(11)}));
  }
  db_.access().set_fusion_enabled(true);
}

// Fused write propagation applies the same per-hop trigger sequence the
// unfused plan would: an insert through a fused projection run lands in
// the physical table and reads back identically everywhere.
TEST_F(BatchSemanticsTest, FusedWritePropagationMatchesUnfused) {
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V2 FROM V1 WITH "
                          "ADD COLUMN b INT AS a INTO T;")
                  .ok());
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V3 FROM V2 WITH "
                          "RENAME TABLE T INTO U;")
                  .ok());
  // V3.U -> V2.T -> V1.T is one fused projection run over the V1 data.
  TvId tv = *db_.catalog().ResolveTable("V3", "U");
  const plan::TvPlan* p = *db_.access().GetPlan(tv);
  ASSERT_EQ(p->steps.size(), 1u);
  ASSERT_TRUE(p->steps[0].is_fused());

  int64_t via_fused = *db_.Insert("V3", "U", {Value::Int(5), Value::Int(9)});
  db_.access().set_fusion_enabled(false);
  int64_t via_plain = *db_.Insert("V3", "U", {Value::Int(6), Value::Int(8)});
  auto all_plain = *db_.Select("V1", "T");
  db_.access().set_fusion_enabled(true);
  auto all_fused = *db_.Select("V1", "T");
  ASSERT_EQ(all_fused.size(), all_plain.size());
  for (size_t i = 0; i < all_fused.size(); ++i) {
    EXPECT_EQ(all_fused[i].key, all_plain[i].key);
    EXPECT_EQ(all_fused[i].row, all_plain[i].row);
  }
  // Both writes survived propagation to the physical side and read back
  // with their stored b-values through either plan shape.
  EXPECT_EQ(**db_.Get("V3", "U", via_fused),
            (Row{Value::Int(5), Value::Int(9)}));
  EXPECT_EQ(**db_.Get("V3", "U", via_plain),
            (Row{Value::Int(6), Value::Int(8)}));
  EXPECT_EQ(**db_.Get("V1", "T", via_fused), (Row{Value::Int(5)}));
}

TEST_F(BatchSemanticsTest, MigrationIsAllOrNothingDespiteBatching) {
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V2 FROM V1 WITH "
                          "ADD COLUMN b INT AS a INTO T;")
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_.Insert("V1", "T", {Value::Int(i)}).ok());
  }
  // Force the migration to fail mid-install.
  TvId t2 = *db_.catalog().ResolveTable("V2", "T");
  std::string doomed = db_.catalog().DataTableName(t2);
  ASSERT_TRUE(db_.db().CreateTable(TableSchema(doomed, {})).ok());
  EXPECT_FALSE(db_.Materialize(MaterializeRequest::Targets({"V2"})).ok());
  EXPECT_EQ(db_.Select("V1", "T")->size(), 5u);
  EXPECT_EQ(db_.Select("V2", "T")->size(), 5u);
}

}  // namespace
}  // namespace inverda
