#include <gtest/gtest.h>

#include "expr/parser.h"
#include "inverda/inverda.h"

namespace inverda {
namespace {

TEST(InverdaBasicTest, CreateAndUseSingleVersion) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE T(a INT, b TEXT);")
                  .ok());
  Result<int64_t> key =
      db.Insert("V1", "T", {Value::Int(1), Value::String("x")});
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  Result<std::optional<Row>> row = db.Get("V1", "T", *key);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[1], Value::String("x"));

  ASSERT_TRUE(db.Update("V1", "T", *key,
                        {Value::Int(2), Value::String("y")})
                  .ok());
  EXPECT_EQ((**db.Get("V1", "T", *key))[0], Value::Int(2));
  ASSERT_TRUE(db.Delete("V1", "T", *key).ok());
  EXPECT_FALSE(db.Get("V1", "T", *key)->has_value());
}

// An ADD COLUMN function of 16 000 terms used to evolve and insert fine,
// then overflow the stack on the first read of the new version; its
// operator chain is now rejected when the script is parsed.
TEST(InverdaBasicTest, LongOperatorChainIsRejectedAtExecute) {
  Inverda db;
  ASSERT_TRUE(
      db.Execute("CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a INT);").ok());
  std::string fn = "a";
  for (int i = 1; i < 16000; ++i) fn += "+a";
  Status status = db.Execute("CREATE SCHEMA VERSION V2 FROM V1 WITH "
                             "ADD COLUMN b INT AS " +
                             fn + " INTO T;");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("deeper than 256 levels at 1:"),
            std::string::npos)
      << status.ToString();
  EXPECT_FALSE(db.catalog().FindVersion("V2").ok());
  int64_t key = *db.Insert("V1", "T", {Value::Int(2)});
  EXPECT_EQ((**db.Get("V1", "T", key))[0], Value::Int(2));
}

TEST(InverdaBasicTest, SelectAndSelectWhere) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE T(a INT);")
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Insert("V1", "T", {Value::Int(i)}).ok());
  }
  EXPECT_EQ(db.Select("V1", "T")->size(), 10u);
  ExprPtr pred = *ParseExpression("a >= 5");
  EXPECT_EQ(db.SelectWhere("V1", "T", *pred)->size(), 5u);
}

TEST(InverdaBasicTest, UpdateWhereAndDeleteWhere) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE T(a INT);")
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Insert("V1", "T", {Value::Int(i)}).ok());
  }
  ExprPtr low = *ParseExpression("a < 3");
  Result<int64_t> updated = db.UpdateWhere(
      "V1", "T", *low, [](const Row&) { return Row{Value::Int(100)}; });
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 3);
  ExprPtr high = *ParseExpression("a = 100");
  Result<int64_t> deleted = db.DeleteWhere("V1", "T", *high);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 3);
  EXPECT_EQ(db.Select("V1", "T")->size(), 7u);
}

TEST(InverdaBasicTest, WidthValidation) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE T(a INT, b TEXT);")
                  .ok());
  EXPECT_FALSE(db.Insert("V1", "T", {Value::Int(1)}).ok());
  EXPECT_FALSE(db.Update("V1", "T", 1, {Value::Int(1)}).ok());
}

TEST(InverdaBasicTest, UnknownVersionOrTable) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE T(a INT);")
                  .ok());
  EXPECT_FALSE(db.Select("V2", "T").ok());
  EXPECT_FALSE(db.Select("V1", "U").ok());
}

TEST(InverdaBasicTest, RenameTableVersionsShareData) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE T(a INT);")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V2 FROM V1 WITH "
                         "RENAME TABLE T INTO U;")
                  .ok());
  Result<int64_t> key = db.Insert("V1", "T", {Value::Int(7)});
  ASSERT_TRUE(key.ok());
  // Visible through the renamed table in V2.
  Result<std::optional<Row>> via_v2 = db.Get("V2", "U", *key);
  ASSERT_TRUE(via_v2.ok()) << via_v2.status().ToString();
  ASSERT_TRUE(via_v2->has_value());
  EXPECT_EQ((**via_v2)[0], Value::Int(7));
  // And writes through V2 appear in V1.
  Result<int64_t> key2 = db.Insert("V2", "U", {Value::Int(8)});
  ASSERT_TRUE(key2.ok()) << key2.status().ToString();
  EXPECT_TRUE(db.Get("V1", "T", *key2)->has_value());
}

TEST(InverdaBasicTest, RenameColumnVersionsShareData) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE T(a INT);"
                         "CREATE SCHEMA VERSION V2 FROM V1 WITH "
                         "RENAME COLUMN a IN T TO alpha;")
                  .ok());
  Result<TableSchema> schema = db.GetSchema("V2", "T");
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->FindColumn("alpha").has_value());
  Result<int64_t> key = db.Insert("V2", "T", {Value::Int(5)});
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  EXPECT_EQ((**db.Get("V1", "T", *key))[0], Value::Int(5));
}

TEST(InverdaBasicTest, GeneratedKeysAreUniqueAcrossVersions) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE T(a INT); CREATE TABLE U(b INT);")
                  .ok());
  int64_t k1 = *db.Insert("V1", "T", {Value::Int(1)});
  int64_t k2 = *db.Insert("V1", "U", {Value::Int(2)});
  EXPECT_NE(k1, k2);
}

}  // namespace
}  // namespace inverda
