#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "inverda/inverda.h"
#include "workload/tasky.h"

namespace inverda {
namespace {

// Write propagation through DECOMPOSE ON FK and JOIN ON FK is key-scoped:
// while the combined side holds the data, a single-row write to the left
// table (TasKy2.Task, or the joined pair's Task) reads the same number of
// table rows whatever the table size. The count is the sum of every
// kernel's kernel.<name>.rows_visited counter (storage RowsVisited,
// attributed per propagate step), so a regression to an O(n) scan in any
// hop of the write's propagation shows up as a size-dependent count.

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

// Runs one insert, one update that moves a row to another right-hand
// tuple, and one delete on `version`.`table`, whose payload is `row_of(fk)`
// with the foreign key at position `fk_index`; returns the rows each one
// visited. `keys` are existing rows of the table.
template <typename RowOf>
WriteVisits MeasureLeftWrites(Inverda* db, const std::string& version,
                              const std::string& table,
                              const std::vector<int64_t>& keys, int fk_index,
                              RowOf row_of) {
  WriteVisits visits;
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
  if (at == keys.size() || fk.is_null()) return visits;
  const int64_t other = keys[at];
  const Value other_fk = fk_of(other);

  db->Metrics().set_timing_enabled(true);
  int64_t before = TotalRowsVisited(*db);
  Result<int64_t> inserted = db->Insert(version, table, row_of(fk));
  EXPECT_TRUE(inserted.ok()) << inserted.status().ToString();
  visits.insert = TotalRowsVisited(*db) - before;

  before = TotalRowsVisited(*db);
  Status updated = db->Update(version, table, probe, row_of(other_fk));
  EXPECT_TRUE(updated.ok()) << updated.ToString();
  visits.update = TotalRowsVisited(*db) - before;

  before = TotalRowsVisited(*db);
  Status erased = db->Delete(version, table, other);
  EXPECT_TRUE(erased.ok()) << erased.ToString();
  visits.erase = TotalRowsVisited(*db) - before;
  db->Metrics().set_timing_enabled(false);
  return visits;
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

void ExpectSameVisits(const WriteVisits& small, const WriteVisits& large) {
  EXPECT_GT(small.insert, 0);
  EXPECT_GT(small.update, 0);
  EXPECT_GT(small.erase, 0);
  EXPECT_EQ(small.insert, large.insert) << "insert";
  EXPECT_EQ(small.update, large.update) << "update";
  EXPECT_EQ(small.erase, large.erase) << "delete";
}

TEST(FkWriteScalingTest, Tasky2LeftWritesVisitTheSameRowsAtNAnd4N) {
  if (!obs::kObsBuild) GTEST_SKIP() << "rows_visited records under obs only";
  ExpectSameVisits(Tasky2Visits(kSmall), Tasky2Visits(kLarge));
}

TEST(FkWriteScalingTest, JoinOnFkLeftWritesVisitTheSameRowsAtNAnd4N) {
  if (!obs::kObsBuild) GTEST_SKIP() << "rows_visited records under obs only";
  ExpectSameVisits(JoinVisits(kSmall), JoinVisits(kLarge));
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
