#ifndef INVERDA_TESTS_GENEALOGY_BUILDER_H_
#define INVERDA_TESTS_GENEALOGY_BUILDER_H_

// Shared machinery for property tests over *random genealogies*: a builder
// that grows a random chain of schema versions with randomly chosen SMOs,
// plus snapshot/diff helpers over every version's view. Used by
// random_genealogy_test (bidirectionality under materialization) and
// view_cache_test (cache staleness under random writes and migrations).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "inverda/inverda.h"
#include "util/random.h"
#include "util/strings.h"

namespace inverda {
namespace testutil {

// Tracks the generator's view of the current version's tables.
struct GenTable {
  std::string name;
  int int_cols = 1;   // k0, k1, ... (k0 is always present and INT)
  int text_cols = 1;  // v0, v1, ...
};

class GenealogyBuilder {
 public:
  GenealogyBuilder(Inverda* db, uint64_t seed) : db_(db), rng_(seed) {}

  Status Init() {
    tables_.push_back({"t0", 1, 1});
    tables_.push_back({"t1", 1, 1});
    versions_.push_back("g0");
    return db_->Execute(
        "CREATE SCHEMA VERSION g0 WITH "
        "CREATE TABLE t0(k0 INT, v0 TEXT); CREATE TABLE t1(k0 INT, v0 TEXT);");
  }

  // Applies one random feasible SMO, creating the next schema version.
  Status Step() {
    std::string from = versions_.back();
    std::string to = "g" + std::to_string(versions_.size());
    for (int attempt = 0; attempt < 20; ++attempt) {
      std::string smo = RandomSmo();
      if (smo.empty()) continue;
      Status s = db_->Execute("CREATE SCHEMA VERSION " + to + " FROM " +
                              from + " WITH " + smo + ";");
      if (s.ok()) {
        versions_.push_back(to);
        return Status::OK();
      }
      // Infeasible pick (e.g. name collision): roll the dice again.
      pending_rollback_();
    }
    return Status::Internal("no feasible SMO found");
  }

  const std::vector<std::string>& versions() const { return versions_; }
  const std::vector<GenTable>& tables() const { return tables_; }

 private:
  GenTable& RandomTable() {
    return tables_[rng_.NextUint64(tables_.size())];
  }

  std::string RandomSmo() {
    pending_rollback_ = [] {};
    switch (rng_.NextUint64(6)) {
      case 0: {  // ADD COLUMN
        GenTable& t = RandomTable();
        std::string col = "k" + std::to_string(t.int_cols);
        ++t.int_cols;
        pending_rollback_ = [&t] { --t.int_cols; };
        return "ADD COLUMN " + col + " INT AS k0 + 1 INTO " + t.name;
      }
      case 1: {  // DROP COLUMN (keep k0 and at least one column)
        GenTable& t = RandomTable();
        if (t.int_cols > 1 && rng_.NextUint64(2) == 0) {
          // Drop the last int column an earlier ADD COLUMN added, so a
          // dead widen->narrow pair (non-literal payload) reaches fusion.
          std::string col = "k" + std::to_string(t.int_cols - 1);
          --t.int_cols;
          pending_rollback_ = [&t] { ++t.int_cols; };
          return "DROP COLUMN " + col + " FROM " + t.name + " DEFAULT k0 + 2";
        }
        if (t.text_cols < 1) return std::string();
        std::string col = "v" + std::to_string(t.text_cols - 1);
        --t.text_cols;
        pending_rollback_ = [&t] { ++t.text_cols; };
        return "DROP COLUMN " + col + " FROM " + t.name + " DEFAULT 'd'";
      }
      case 2: {  // RENAME TABLE to a fresh name
        GenTable& t = RandomTable();
        if (t.text_cols < 1) return std::string();
        std::string fresh = t.name + "x";
        std::string smo = "RENAME TABLE " + t.name + " INTO " + fresh;
        std::string old = t.name;
        t.name = fresh;
        pending_rollback_ = [&t, old] { t.name = old; };
        return smo;
      }
      case 3: {  // SPLIT on k0
        if (tables_.size() > 4) return std::string();
        GenTable t = RandomTable();
        std::string r = t.name + "lo", s = t.name + "hi";
        std::string smo = "SPLIT TABLE " + t.name + " INTO " + r +
                          " WITH k0 < 50, " + s + " WITH k0 >= 50";
        ReplaceTable(t.name, {GenTable{r, t.int_cols, t.text_cols},
                              GenTable{s, t.int_cols, t.text_cols}});
        return smo;
      }
      case 4: {  // DECOMPOSE ON PK: (k-cols) vs (v-cols)
        if (tables_.size() > 4) return std::string();
        GenTable t = RandomTable();
        if (t.text_cols < 1 || t.int_cols < 1) return std::string();
        std::vector<std::string> ks, vs;
        for (int i = 0; i < t.int_cols; ++i) {
          ks.push_back("k" + std::to_string(i));
        }
        for (int i = 0; i < t.text_cols; ++i) {
          vs.push_back("v" + std::to_string(i));
        }
        std::string a = t.name + "a", b = t.name + "b";
        std::string smo = "DECOMPOSE TABLE " + t.name + " INTO " + a + "(" +
                          Join(ks, ", ") + "), " + b + "(" + Join(vs, ", ") +
                          ") ON PK";
        ReplaceTable(t.name, {GenTable{a, t.int_cols, 0},
                              GenTable{b, 0, t.text_cols}});
        return smo;
      }
      default: {  // ADD COLUMN on the other table (bias toward simple ops)
        GenTable& t = RandomTable();
        std::string col = "v" + std::to_string(t.text_cols);
        ++t.text_cols;
        pending_rollback_ = [&t] { --t.text_cols; };
        return "ADD COLUMN " + col + " TEXT AS 'n' INTO " + t.name;
      }
    }
  }

  void ReplaceTable(const std::string& name, std::vector<GenTable> with) {
    for (size_t i = 0; i < tables_.size(); ++i) {
      if (tables_[i].name == name) {
        tables_.erase(tables_.begin() + static_cast<long>(i));
        break;
      }
    }
    tables_.insert(tables_.end(), with.begin(), with.end());
    pending_rollback_ = [] {};  // structural; assume feasible
  }

  Inverda* db_;
  Random rng_;
  std::vector<GenTable> tables_;
  std::vector<std::string> versions_;
  std::function<void()> pending_rollback_ = [] {};
};

/// Every version's view of every table, keyed "Version.table".
inline std::map<std::string, std::vector<KeyedRow>> Snapshot(Inverda* db) {
  std::map<std::string, std::vector<KeyedRow>> out;
  for (const std::string& version : db->catalog().VersionNames()) {
    const SchemaVersionInfo* info = *db->catalog().FindVersion(version);
    for (const auto& [table, tv] : info->tables) {
      (void)tv;
      Result<std::vector<KeyedRow>> rows = db->Select(version, table);
      EXPECT_TRUE(rows.ok()) << version << "." << table << ": "
                             << rows.status().ToString();
      if (rows.ok()) out[version + "." + table] = *rows;
    }
  }
  return out;
}

/// First difference between two snapshots, or "" when they agree.
inline std::string DiffSnapshots(
    const std::map<std::string, std::vector<KeyedRow>>& a,
    const std::map<std::string, std::vector<KeyedRow>>& b) {
  for (const auto& [name, rows_a] : a) {
    auto it = b.find(name);
    if (it == b.end()) return "missing " + name;
    if (rows_a.size() != it->second.size()) {
      return name + ": " + std::to_string(rows_a.size()) + " vs " +
             std::to_string(it->second.size()) + " rows";
    }
    for (size_t i = 0; i < rows_a.size(); ++i) {
      if (rows_a[i].key != it->second[i].key ||
          !RowsEqual(rows_a[i].row, it->second[i].row)) {
        return name + "@" + std::to_string(rows_a[i].key) + ": " +
               RowToString(rows_a[i].row) + " vs " +
               RowToString(it->second[i].row);
      }
    }
  }
  return "";
}

/// Inserts a schema-conforming random row through a random version and
/// table. Inserts may be legally rejected (key collisions with invisible
/// tuples); any other error fails the calling test.
inline void RandomInsert(Inverda* db, Random* rng,
                         const std::vector<std::string>& versions) {
  const std::string& version = versions[rng->NextUint64(versions.size())];
  const SchemaVersionInfo* info = *db->catalog().FindVersion(version);
  if (info->tables.empty()) return;
  auto it = info->tables.begin();
  std::advance(it, static_cast<long>(rng->NextUint64(info->tables.size())));
  const TableSchema& schema = db->catalog().table_version(it->second).schema;
  Row row;
  for (const Column& c : schema.columns()) {
    row.push_back(c.type == DataType::kInt64
                      ? Value::Int(rng->NextInt64(0, 99))
                      : Value::String(rng->NextString(3)));
  }
  Result<int64_t> key = db->Insert(version, it->first, std::move(row));
  if (!key.ok()) {
    EXPECT_TRUE(key.status().code() == StatusCode::kConstraintViolation ||
                key.status().code() == StatusCode::kInvalidArgument)
        << key.status().ToString();
  }
}

}  // namespace testutil
}  // namespace inverda

#endif  // INVERDA_TESTS_GENEALOGY_BUILDER_H_
