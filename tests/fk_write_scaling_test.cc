#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "inverda/inverda.h"
#include "workload/tasky.h"

namespace inverda {
namespace {

// Write propagation is key-scoped: a single-row write to a virtual table
// version reads the same number of table rows whatever the table size.
// Covered: DECOMPOSE ON FK and JOIN ON FK left writes while the combined
// side holds the data (TasKy2.Task, the joined pair's Task), SPLIT + DROP
// COLUMN (Do!.Todo over physical TasKy) and an ADD COLUMN -> RENAME COLUMN
// chain. The count is the sum of every kernel's kernel.<name>.rows_visited
// counter (storage RowsVisited, attributed per propagate step), so a
// regression to an O(n) scan in any hop of the write's propagation shows
// up as a size-dependent count.

constexpr int kSmall = 2500;
constexpr int kLarge = 10000;  // 4 x kSmall
constexpr int kAuthors = 50;

int64_t TotalRowsVisited(const Inverda& db) {
  int64_t total = 0;
  for (const obs::MetricValue& m : db.Metrics().Snapshot().counters) {
    const std::string suffix = ".rows_visited";
    if (m.name.size() > suffix.size() &&
        m.name.compare(m.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      total += m.value;
    }
  }
  return total;
}

struct WriteVisits {
  int64_t insert = 0;
  int64_t update = 0;
  int64_t erase = 0;
};

// Inserts `inserted`, updates row `probe` to `updated` and deletes row
// `victim` on `version`.`table`; returns the rows each write visited.
WriteVisits MeasureWrites(Inverda* db, const std::string& version,
                          const std::string& table, const Row& inserted,
                          int64_t probe, const Row& updated, int64_t victim) {
  WriteVisits visits;
  db->Metrics().set_timing_enabled(true);
  int64_t before = TotalRowsVisited(*db);
  Result<int64_t> key = db->Insert(version, table, inserted);
  EXPECT_TRUE(key.ok()) << key.status().ToString();
  visits.insert = TotalRowsVisited(*db) - before;

  before = TotalRowsVisited(*db);
  Status status = db->Update(version, table, probe, updated);
  EXPECT_TRUE(status.ok()) << status.ToString();
  visits.update = TotalRowsVisited(*db) - before;

  before = TotalRowsVisited(*db);
  status = db->Delete(version, table, victim);
  EXPECT_TRUE(status.ok()) << status.ToString();
  visits.erase = TotalRowsVisited(*db) - before;
  db->Metrics().set_timing_enabled(false);
  return visits;
}

// Runs one insert, one update that moves a row to another right-hand
// tuple, and one delete on `version`.`table`, whose payload is `row_of(fk)`
// with the foreign key at position `fk_index`; returns the rows each one
// visited. `keys` are existing rows of the table.
template <typename RowOf>
WriteVisits MeasureLeftWrites(Inverda* db, const std::string& version,
                              const std::string& table,
                              const std::vector<int64_t>& keys, int fk_index,
                              RowOf row_of) {
  auto fk_of = [&](int64_t key) {
    Result<std::optional<Row>> row = db->Get(version, table, key);
    EXPECT_TRUE(row.ok() && row->has_value()) << "key " << key;
    if (!row.ok() || !*row) return Value::Null();
    return (**row)[static_cast<size_t>(fk_index)];
  };
  // The probe row, and the next row that references another tuple.
  size_t at = keys.size() / 2;
  const int64_t probe = keys[at];
  const Value fk = fk_of(probe);
  while (++at < keys.size() && fk_of(keys[at]) == fk) {
  }
  EXPECT_LT(at, keys.size()) << "every row references the same tuple";
  if (at == keys.size() || fk.is_null()) return {};
  const int64_t other = keys[at];
  return MeasureWrites(db, version, table, row_of(fk), probe,
                       row_of(fk_of(other)), other);
}

// TasKy2.Task(task, prio, author) under the initial materialization: the
// DECOMPOSE ON FK's combined side (TasKy.Task) holds the data.
WriteVisits Tasky2Visits(int num_tasks) {
  TaskyOptions options;
  options.num_tasks = num_tasks;
  options.num_authors = kAuthors;
  Result<TaskyScenario> scenario = BuildTasky(options);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  if (!scenario.ok()) return {};
  Inverda* db = scenario->db.get();
  // A full read assigns every task its author id, so IDR holds n entries.
  EXPECT_TRUE(db->Select("TasKy2", "Task").ok());
  return MeasureLeftWrites(
      db, "TasKy2", "Task", scenario->task_keys, /*fk_index=*/2,
      [](const Value& fk) {
        return Row{Value::String("measured"), Value::Int(1), fk};
      });
}

// The mirror genealogy: V1's normalized Task/Person pair joined ON FK into
// V2.Flat, with V2 materialized so the join's combined side holds the data
// and writes to V1.Task propagate through the target-side IDR.
WriteVisits JoinVisits(int num_tasks) {
  Inverda db;
  EXPECT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE Task(what TEXT, author INT); "
                         "CREATE TABLE Person(name TEXT);"
                         "CREATE SCHEMA VERSION V2 FROM V1 WITH "
                         "OUTER JOIN TABLE Task, Person INTO Flat "
                         "ON FK author;")
                  .ok());
  std::vector<int64_t> people;
  for (int i = 0; i < kAuthors; ++i) {
    people.push_back(
        *db.Insert("V1", "Person", {Value::String("p" + std::to_string(i))}));
  }
  std::vector<int64_t> tasks;
  for (int i = 0; i < num_tasks; ++i) {
    tasks.push_back(*db.Insert(
        "V1", "Task",
        {Value::String("t" + std::to_string(i)),
         Value::Int(people[static_cast<size_t>(i % kAuthors)])}));
  }
  EXPECT_TRUE(db.Materialize(MaterializeRequest::Targets({"V2"})).ok());
  return MeasureLeftWrites(&db, "V1", "Task", tasks, /*fk_index=*/1,
                           [](const Value& fk) {
                             return Row{Value::String("measured"), fk};
                           });
}

// Do!.Todo(author, task): SPLIT Task INTO Todo WITH prio = 1, then DROP
// COLUMN prio, over the physical TasKy.Task.
WriteVisits DoVisits(int num_tasks) {
  TaskyOptions options;
  options.num_tasks = num_tasks;
  options.num_authors = kAuthors;
  options.create_tasky2 = false;
  Result<TaskyScenario> scenario = BuildTasky(options);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  if (!scenario.ok()) return {};
  Inverda* db = scenario->db.get();
  Result<std::vector<KeyedRow>> todos = db->Select("Do!", "Todo");
  EXPECT_TRUE(todos.ok() && todos->size() >= 2);
  if (!todos.ok() || todos->size() < 2) return {};
  const size_t mid = todos->size() / 2;
  return MeasureWrites(
      db, "Do!", "Todo", {Value::String("measured"), Value::String("new")},
      (*todos)[mid].key, {Value::String("measured"), Value::String("moved")},
      (*todos)[mid + 1].key);
}

// V3.T(a, bb, c): ADD COLUMN c AS a + 1, then RENAME COLUMN b TO bb, over
// the physical V1.T(a, b).
WriteVisits ColumnChainVisits(int num_rows) {
  Inverda db;
  EXPECT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 WITH "
                         "CREATE TABLE T(a INT, b TEXT);"
                         "CREATE SCHEMA VERSION V2 FROM V1 WITH "
                         "ADD COLUMN c INT AS a + 1 INTO T;"
                         "CREATE SCHEMA VERSION V3 FROM V2 WITH "
                         "RENAME COLUMN b IN T TO bb;")
                  .ok());
  std::vector<int64_t> keys;
  for (int i = 0; i < num_rows; ++i) {
    keys.push_back(*db.Insert(
        "V1", "T", {Value::Int(i), Value::String("r" + std::to_string(i))}));
  }
  const size_t mid = keys.size() / 2;
  return MeasureWrites(
      &db, "V3", "T", {Value::Int(-1), Value::String("new"), Value::Int(7)},
      keys[mid], {Value::Int(-2), Value::String("moved"), Value::Int(9)},
      keys[mid + 1]);
}

void ExpectSameVisits(const WriteVisits& small, const WriteVisits& large) {
  EXPECT_EQ(small.insert, large.insert) << "insert";
  EXPECT_EQ(small.update, large.update) << "update";
  EXPECT_EQ(small.erase, large.erase) << "delete";
}

// Kinds whose writes read stored rows (id lookups, visibility checks):
// the counts must be non-zero, which also proves the counter is wired.
void ExpectCountedVisits(const WriteVisits& small) {
  EXPECT_GT(small.insert, 0);
  EXPECT_GT(small.update, 0);
  EXPECT_GT(small.erase, 0);
}

TEST(FkWriteScalingTest, Tasky2LeftWritesVisitTheSameRowsAtNAnd4N) {
  if (!obs::kObsBuild) GTEST_SKIP() << "rows_visited records under obs only";
  const WriteVisits small = Tasky2Visits(kSmall);
  ExpectCountedVisits(small);
  ExpectSameVisits(small, Tasky2Visits(kLarge));
}

TEST(FkWriteScalingTest, JoinOnFkLeftWritesVisitTheSameRowsAtNAnd4N) {
  if (!obs::kObsBuild) GTEST_SKIP() << "rows_visited records under obs only";
  const WriteVisits small = JoinVisits(kSmall);
  ExpectCountedVisits(small);
  ExpectSameVisits(small, JoinVisits(kLarge));
}

TEST(FkWriteScalingTest, SplitDropColumnWritesVisitTheSameRowsAtNAnd4N) {
  if (!obs::kObsBuild) GTEST_SKIP() << "rows_visited records under obs only";
  const WriteVisits small = DoVisits(kSmall);
  ExpectCountedVisits(small);
  ExpectSameVisits(small, DoVisits(kLarge));
}

// The column hops write their aux tables blind (upsert or erase of the
// written key), so the chain reads no stored rows at all: the counts are
// equal at zero, and any scan introduced later would make them differ.
TEST(FkWriteScalingTest, AddRenameColumnWritesVisitTheSameRowsAtNAnd4N) {
  if (!obs::kObsBuild) GTEST_SKIP() << "rows_visited records under obs only";
  ExpectSameVisits(ColumnChainVisits(kSmall), ColumnChainVisits(kLarge));
}

TEST(FkWriteScalingTest, PropagateSpansCarryRowsVisited) {
  if (!obs::kObsBuild) GTEST_SKIP() << "spans record under obs only";
  TaskyOptions options;
  options.num_tasks = 200;
  Result<TaskyScenario> scenario = BuildTasky(options);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  Inverda* db = scenario->db.get();
  const int64_t key = scenario->task_keys[7];
  Row row = **db->Get("TasKy2", "Task", key);
  row[1] = Value::Int(3);
  db->tracer().set_enabled(true);
  ASSERT_TRUE(db->Update("TasKy2", "Task", key, row).ok());
  db->tracer().set_enabled(false);
  auto traces = db->tracer().Last(1);
  ASSERT_EQ(traces.size(), 1u);
  std::vector<const obs::TraceSpan*> steps;
  traces[0]->Collect("propagate", &steps);
  ASSERT_FALSE(steps.empty());
  int64_t fk_visits = -1;
  for (const obs::TraceSpan* span : steps) {
    if (span->kernel == "fk") fk_visits = span->rows_visited;
  }
  EXPECT_GT(fk_visits, 0);
  EXPECT_NE(traces[0]->ToJson().find("\"rows_visited\":"), std::string::npos);
}

}  // namespace
}  // namespace inverda
