#include <gtest/gtest.h>

#include <map>
#include <string>

#include "expr/parser.h"
#include "handwritten/reference_sql.h"
#include "inverda/inverda.h"
#include "util/random.h"
#include "workload/tasky.h"

namespace inverda {
namespace {

// End-to-end coverage of the paper's Figure 1 scenario: three co-existing
// schema versions over one data set, with writes through any version
// visible in all others.
class TaskyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute(BidelInitialScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelDoScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelEvolutionScript()).ok());
    // The four tasks of Figure 1.
    p1_ = Insert("Ann", "Organize party", 3);
    p2_ = Insert("Ben", "Learn for exam", 2);
    p3_ = Insert("Ann", "Write paper", 1);
    p4_ = Insert("Ben", "Clean room", 1);
  }

  int64_t Insert(const char* author, const char* task, int64_t prio) {
    Result<int64_t> key = db_.Insert(
        "TasKy", "Task",
        {Value::String(author), Value::String(task), Value::Int(prio)});
    EXPECT_TRUE(key.ok()) << key.status().ToString();
    return key.ok() ? *key : -1;
  }

  Inverda db_;
  int64_t p1_ = 0, p2_ = 0, p3_ = 0, p4_ = 0;
};

TEST_F(TaskyTest, DoShowsOnlyUrgentTasksWithoutPrio) {
  Result<std::vector<KeyedRow>> todos = db_.Select("Do!", "Todo");
  ASSERT_TRUE(todos.ok()) << todos.status().ToString();
  ASSERT_EQ(todos->size(), 2u);
  Result<TableSchema> schema = db_.GetSchema("Do!", "Todo");
  EXPECT_EQ(schema->ColumnNames(),
            (std::vector<std::string>{"author", "task"}));
  // Figure 1: tasks 3 and 4 are the urgent ones.
  Result<std::optional<Row>> todo3 = db_.Get("Do!", "Todo", p3_);
  ASSERT_TRUE(todo3->has_value());
  EXPECT_EQ((**todo3)[1], Value::String("Write paper"));
  EXPECT_FALSE(db_.Get("Do!", "Todo", p1_)->has_value());
}

TEST_F(TaskyTest, TasKy2NormalizesAuthors) {
  Result<std::vector<KeyedRow>> tasks = db_.Select("TasKy2", "Task");
  ASSERT_TRUE(tasks.ok()) << tasks.status().ToString();
  EXPECT_EQ(tasks->size(), 4u);
  Result<std::vector<KeyedRow>> authors = db_.Select("TasKy2", "Author");
  ASSERT_TRUE(authors.ok()) << authors.status().ToString();
  // Ann and Ben, deduplicated.
  ASSERT_EQ(authors->size(), 2u);
  // The foreign keys of the tasks reference the author rows.
  Result<std::optional<Row>> task3 = db_.Get("TasKy2", "Task", p3_);
  ASSERT_TRUE(task3->has_value());
  Value fk = (**task3)[2];
  ASSERT_TRUE(fk.is_int());
  Result<std::optional<Row>> ann = db_.Get("TasKy2", "Author", fk.AsInt());
  ASSERT_TRUE(ann->has_value());
  EXPECT_EQ((**ann)[0], Value::String("Ann"));
}

TEST_F(TaskyTest, SameAuthorSharesForeignKey) {
  Row t1 = **db_.Get("TasKy2", "Task", p1_);
  Row t3 = **db_.Get("TasKy2", "Task", p3_);
  EXPECT_EQ(t1[2], t3[2]);  // both Ann
  Row t2 = **db_.Get("TasKy2", "Task", p2_);
  EXPECT_NE(t1[2], t2[2]);  // Ann vs Ben
}

TEST_F(TaskyTest, InsertThroughDoAppearsEverywhere) {
  Result<int64_t> key = db_.Insert(
      "Do!", "Todo", {Value::String("Cleo"), Value::String("Call mum")});
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  // In TasKy with the default priority 1 (the DROP COLUMN default).
  Result<std::optional<Row>> task = db_.Get("TasKy", "Task", *key);
  ASSERT_TRUE(task->has_value());
  EXPECT_EQ((**task)[0], Value::String("Cleo"));
  EXPECT_EQ((**task)[2], Value::Int(1));
  // In TasKy2 with a new author row.
  EXPECT_TRUE(db_.Get("TasKy2", "Task", *key)->has_value());
  EXPECT_EQ(db_.Select("TasKy2", "Author")->size(), 3u);
}

TEST_F(TaskyTest, InsertThroughTasKy2AppearsEverywhere) {
  // Find Ben's author id.
  ExprPtr is_ben = *ParseExpression("name = 'Ben'");
  Result<std::vector<KeyedRow>> ben =
      db_.SelectWhere("TasKy2", "Author", *is_ben);
  ASSERT_EQ(ben->size(), 1u);
  int64_t ben_id = (*ben)[0].key;

  Result<int64_t> key = db_.Insert(
      "TasKy2", "Task",
      {Value::String("Buy milk"), Value::Int(1), Value::Int(ben_id)});
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  Row task = **db_.Get("TasKy", "Task", *key);
  EXPECT_EQ(task[0], Value::String("Ben"));
  EXPECT_EQ(task[1], Value::String("Buy milk"));
  EXPECT_EQ(task[2], Value::Int(1));
  // Priority 1, so Do! shows it as well.
  EXPECT_TRUE(db_.Get("Do!", "Todo", *key)->has_value());
}

TEST_F(TaskyTest, UpdateThroughDoPropagatesBack) {
  ASSERT_TRUE(db_.Update("Do!", "Todo", p3_,
                         {Value::String("Ann"), Value::String("Review paper")})
                  .ok());
  Row task = **db_.Get("TasKy", "Task", p3_);
  EXPECT_EQ(task[1], Value::String("Review paper"));
  EXPECT_EQ(task[2], Value::Int(1));  // priority preserved
}

TEST_F(TaskyTest, DeleteThroughDoDeletesTheTask) {
  ASSERT_TRUE(db_.Delete("Do!", "Todo", p4_).ok());
  EXPECT_FALSE(db_.Get("TasKy", "Task", p4_)->has_value());
  EXPECT_FALSE(db_.Get("TasKy2", "Task", p4_)->has_value());
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 3u);
}

TEST_F(TaskyTest, RenamedAuthorPropagatesToTasky) {
  ExprPtr is_ann = *ParseExpression("name = 'Ann'");
  Result<std::vector<KeyedRow>> ann =
      db_.SelectWhere("TasKy2", "Author", *is_ann);
  ASSERT_EQ(ann->size(), 1u);
  ASSERT_TRUE(
      db_.Update("TasKy2", "Author", (*ann)[0].key, {Value::String("Anna")})
          .ok());
  Row task = **db_.Get("TasKy", "Task", p1_);
  EXPECT_EQ(task[0], Value::String("Anna"));
  Row task3 = **db_.Get("TasKy", "Task", p3_);
  EXPECT_EQ(task3[0], Value::String("Anna"));
}

TEST_F(TaskyTest, UpdatePriorityMovesTaskInAndOutOfDo) {
  // Task 1 has priority 3 and is invisible in Do!.
  EXPECT_FALSE(db_.Get("Do!", "Todo", p1_)->has_value());
  ASSERT_TRUE(db_.Update("TasKy", "Task", p1_,
                         {Value::String("Ann"), Value::String("Organize party"),
                          Value::Int(1)})
                  .ok());
  EXPECT_TRUE(db_.Get("Do!", "Todo", p1_)->has_value());
  ASSERT_TRUE(db_.Update("TasKy", "Task", p1_,
                         {Value::String("Ann"), Value::String("Organize party"),
                          Value::Int(2)})
                  .ok());
  EXPECT_FALSE(db_.Get("Do!", "Todo", p1_)->has_value());
}

TEST_F(TaskyTest, AuthorWithoutTasksSurvivesTaskDeletion) {
  // Deleting Ben's tasks through TasKy2.Task keeps Ben as an author (the
  // paper's information-preservation guarantee: the ω-padded row).
  ASSERT_TRUE(db_.Delete("TasKy2", "Task", p2_).ok());
  ASSERT_TRUE(db_.Delete("TasKy2", "Task", p4_).ok());
  ExprPtr is_ben = *ParseExpression("name = 'Ben'");
  EXPECT_EQ(db_.SelectWhere("TasKy2", "Author", *is_ben)->size(), 1u);
  // TasKy sees only Ann's tasks plus the ω row for Ben.
  Result<std::vector<KeyedRow>> tasks = db_.Select("TasKy", "Task");
  int omega_rows = 0;
  for (const KeyedRow& kr : *tasks) {
    if (kr.row[1].is_null()) ++omega_rows;
  }
  EXPECT_EQ(omega_rows, 1);
}

TEST_F(TaskyTest, AllVersionsAgreeOnTaskCount) {
  // Insert through each version, then compare counts.
  ASSERT_TRUE(db_.Insert("TasKy", "Task",
                         {Value::String("Zoe"), Value::String("A"),
                          Value::Int(2)})
                  .ok());
  ASSERT_TRUE(
      db_.Insert("Do!", "Todo", {Value::String("Zoe"), Value::String("B")})
          .ok());
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 6u);
  EXPECT_EQ(db_.Select("TasKy2", "Task")->size(), 6u);
  EXPECT_EQ(db_.Select("Do!", "Todo")->size(), 3u);  // prio-1 tasks only
}

// --- DECOMPOSE ON FK identities under direct writes --------------------------
//
// While TasKy holds the data, TasKy2.Task's foreign keys are remembered in
// the IDR aux table. A write through TasKy changes a task's author without
// passing the DECOMPOSE kernel, so the remembered key must not outlive the
// author it was assigned for.

// TasKy.Task = TasKy2.Task ⋈ TasKy2.Author, row for row.
void ExpectJoinHolds(Inverda* db, const std::string& context) {
  Result<std::vector<KeyedRow>> tasks = db->Select("TasKy", "Task");
  ASSERT_TRUE(tasks.ok()) << tasks.status().ToString();
  for (const KeyedRow& task : *tasks) {
    if (task.row[1].is_null()) continue;  // ω row: an author without tasks
    Result<std::optional<Row>> normalized =
        db->Get("TasKy2", "Task", task.key);
    ASSERT_TRUE(normalized.ok() && normalized->has_value())
        << context << ": task " << task.key;
    const Value& fk = (**normalized)[2];
    ASSERT_TRUE(fk.is_int()) << context << ": task " << task.key;
    Result<std::optional<Row>> author =
        db->Get("TasKy2", "Author", fk.AsInt());
    ASSERT_TRUE(author.ok() && author->has_value())
        << context << ": author " << fk.AsInt();
    EXPECT_TRUE((**author)[0] == task.row[0])
        << context << ": task " << task.key << " is by "
        << task.row[0].ToString() << " but references "
        << (**author)[0].ToString();
  }
}

TEST(FkIdentityTest, DirectTaskyWriteRetargetsTasKy2Reference) {
  Inverda db;
  ASSERT_TRUE(db.Execute(BidelInitialScript()).ok());
  ASSERT_TRUE(db.Execute(BidelEvolutionScript()).ok());
  std::vector<int64_t> keys;
  for (int i = 0; i < 5; ++i) {
    keys.push_back(*db.Insert("TasKy", "Task",
                              {Value::String("author" + std::to_string(i % 3)),
                               Value::String("task" + std::to_string(i)),
                               Value::Int(1)}));
  }
  // The scan assigns every task its author id.
  ASSERT_TRUE(db.Select("TasKy2", "Task").ok());

  // Task 3 moves from author0 to the existing author1 ...
  ASSERT_TRUE(db.Update("TasKy", "Task", keys[3],
                        {Value::String("author1"), Value::String("task3"),
                         Value::Int(1)})
                  .ok());
  Row moved = **db.Get("TasKy2", "Task", keys[3]);
  EXPECT_EQ(moved[2].ToString(),
            (**db.Get("TasKy2", "Task", keys[1]))[2].ToString());
  EXPECT_EQ((**db.Get("TasKy2", "Author", moved[2].AsInt()))[0].ToString(),
            Value::String("author1").ToString());
  ExpectJoinHolds(&db, "existing author");

  // ... and task 4 to an author nobody had before.
  ASSERT_TRUE(db.Update("TasKy", "Task", keys[4],
                        {Value::String("author9"), Value::String("task4"),
                         Value::Int(1)})
                  .ok());
  ExpectJoinHolds(&db, "new author");
  EXPECT_EQ(db.Select("TasKy2", "Author")->size(), 4u);
}

// MATERIALIZE TasKy2; MATERIALIZE TasKy; author updates through TasKy;
// MATERIALIZE TasKy2 — every update must survive, under either schedule.
void AuthorUpdatesSurviveMigration(bool online) {
  TaskyOptions options;
  options.num_tasks = 200;
  Result<TaskyScenario> scenario = BuildTasky(options);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  Inverda* db = scenario->db.get();
  auto materialize = [&](const char* target) {
    return db->Materialize(MaterializeRequest::Targets({target}, online));
  };
  ASSERT_TRUE(materialize("TasKy2").ok());
  ASSERT_TRUE(materialize("TasKy").ok());

  Random rng(11);
  std::map<int64_t, Value> written;  // key -> author last written
  const std::vector<int64_t>& keys = scenario->task_keys;
  for (int i = 0; i < 50; ++i) {
    int64_t key = keys[rng.NextUint64(keys.size())];
    Row row = **db->Get("TasKy", "Task", key);
    row[0] = Value::String(
        "author" + std::to_string(rng.NextUint64(
                       static_cast<uint64_t>(options.num_authors))));
    ASSERT_TRUE(db->Update("TasKy", "Task", key, row).ok());
    written[key] = row[0];
  }
  ASSERT_TRUE(materialize("TasKy2").ok());

  int lost = 0;
  for (const auto& [key, author] : written) {
    if (!((**db->Get("TasKy", "Task", key))[0] == author)) ++lost;
  }
  EXPECT_EQ(lost, 0) << "of " << written.size() << " updated tasks";
  ExpectJoinHolds(db, online ? "online" : "blocking");
}

TEST(FkIdentityTest, AuthorUpdatesSurviveBlockingMigration) {
  AuthorUpdatesSurviveMigration(/*online=*/false);
}

TEST(FkIdentityTest, AuthorUpdatesSurviveOnlineMigration) {
  AuthorUpdatesSurviveMigration(/*online=*/true);
}

}  // namespace
}  // namespace inverda
