// Migration-under-traffic stress: client threads pinned to different schema
// versions run mixed workloads while a MigrationCoordinator moves the
// materialization underneath them (online Materialize — chunked background
// copy, delta-log capture, brief exclusive flip; docs/migration.md). The
// coordinator is paced through its test hooks so the copy and catch-up
// phases demonstrably overlap the workload, and the oracle is exact:
//
//  - every live version commits operations *while* the migration runs
//    (the paper's co-existence promise, now including the one operation
//    that used to stall everything), and
//  - zero writes are lost or duplicated: the surviving key set of every
//    version equals exactly the initial keys plus every client's surviving
//    inserts — a key copied before a concurrent delete, or a captured
//    write dropped by the drain, breaks set equality.
//
// Runs under TSan in the stress label (scripts/check.sh --tsan, including
// the INVERDA_SHARDS=4 rerun); replay with INVERDA_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "genealogy_builder.h"
#include "inverda/inverda.h"
#include "test_seed.h"
#include "util/random.h"
#include "workload/driver.h"

namespace inverda {
namespace {

std::function<Row(Random*)> RowGenerator(const TableSchema& schema) {
  std::vector<DataType> types;
  for (const Column& c : schema.columns()) types.push_back(c.type);
  return [types](Random* rng) {
    Row row;
    for (DataType t : types) {
      row.push_back(t == DataType::kInt64
                        ? Value::Int(rng->NextInt64(0, 99))
                        : Value::String(rng->NextString(3)));
    }
    return row;
  };
}

// Slows the coordinator down enough that the copy and catch-up phases
// span a real slice of the workload, so ops_during_migration and the
// delta log are genuinely exercised rather than won by luck.
migrate::TestHooks PacedHooks() {
  migrate::TestHooks hooks;
  hooks.chunk_keys = 8;
  hooks.after_chunk = [] {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  };
  hooks.on_phase = [](migrate::Phase phase) {
    if (phase == migrate::Phase::kCatchUp) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return Status::OK();
  };
  return hooks;
}

TEST(OnlineMigrationStressTest, ZeroLostWritesDuringOnlineMaterialize) {
  const uint64_t seed = TestSeed(31);
  INVERDA_TRACE_SEED(seed);
  Inverda db;
  // A column-only chain: every row is visible under every version and the
  // key `p` is carried unchanged, so the final key set of each version is
  // exactly predictable — the strongest lost/duplicated-write oracle.
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION w0 WITH "
                         "CREATE TABLE item(a INT, b TEXT);")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION w1 FROM w0 WITH "
                         "ADD COLUMN c INT AS a + 1 INTO item;")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION w2 FROM w1 WITH "
                         "RENAME TABLE item INTO entry;")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION w3 FROM w2 WITH "
                         "DROP COLUMN b FROM entry DEFAULT 'd';")
                  .ok());

  // Seed rows (owned by no client — they must survive untouched) so the
  // chunked copy has real work to pace through.
  Random rng(seed);
  std::set<int64_t> expected;
  for (int i = 0; i < 200; ++i) {
    Result<int64_t> key = db.Insert(
        "w0", "item",
        {Value::Int(rng.NextInt64(0, 99)), Value::String(rng.NextString(3))});
    ASSERT_TRUE(key.ok()) << key.status().ToString();
    expected.insert(*key);
  }

  db.set_migration_test_hooks(PacedHooks());

  // Each client owns a private starter set (RunClient only writes once it
  // holds keys) plus everything it inserts; deletes stay within that pool,
  // so `expected` = untouched seed keys + every client's surviving keys.
  const std::vector<std::pair<std::string, std::string>> targets = {
      {"w0", "item"}, {"w1", "item"}, {"w2", "entry"}, {"w3", "entry"}};
  std::vector<ConcurrentClientSpec> clients;
  for (const auto& [version, table] : targets) {
    ConcurrentClientSpec spec;
    spec.target.version = version;
    spec.target.table = table;
    TvId tv = *db.catalog().ResolveTable(version, table);
    spec.target.make_row = RowGenerator(db.catalog().table_version(tv).schema);
    for (int i = 0; i < 30; ++i) {
      Result<int64_t> key =
          db.Insert(version, table, spec.target.make_row(&rng));
      ASSERT_TRUE(key.ok()) << key.status().ToString();
      spec.initial_keys.push_back(*key);
    }
    clients.push_back(std::move(spec));
  }

  ConcurrentOptions options;
  options.ops_per_client = 1500;
  options.seed = seed;
  options.migrate_after_ops = 50;
  options.migrate_during = [&]() -> Status {
    INVERDA_RETURN_IF_ERROR(db.Materialize(MaterializeRequest::Targets({"w3"}, /*online=*/true, /*wait=*/false)));
    return db.WaitForMigration();
  };

  ConcurrentResult result = RunConcurrentWorkload(&db, clients, options);
  ASSERT_TRUE(result.first_error().ok()) << result.first_error().ToString();
  ASSERT_TRUE(result.migrate_fired);
  ASSERT_TRUE(result.migrate_status.ok()) << result.migrate_status.ToString();

  // The co-existence promise under migration: every live version committed
  // operations while MATERIALIZE was in flight.
  for (size_t i = 0; i < result.clients.size(); ++i) {
    EXPECT_GT(result.clients[i].ops_during_migration, 0)
        << targets[i].first << " stalled for the whole migration";
  }
  // The delta log was exercised: concurrent writes were captured and
  // drained, not just raced past.
  migrate::MigrationStatus status = db.MigrationState();
  EXPECT_EQ(status.phase, migrate::Phase::kDone);
  EXPECT_GT(status.rows_copied, 0);
  EXPECT_GT(status.keys_captured, 0);
  EXPECT_GE(status.keys_drained, status.flip_keys);

  // The migration really moved the data: w3's table is physical now.
  TvId w3_entry = *db.catalog().ResolveTable("w3", "entry");
  EXPECT_TRUE(db.catalog().IsPhysical(w3_entry));

  // Exact zero-lost/zero-duplicated-write oracle: each version's key set
  // is the untouched seed keys plus every client's surviving inserts.
  for (const ConcurrentClientResult& c : result.clients) {
    for (int64_t key : c.final_keys) {
      EXPECT_TRUE(expected.insert(key).second)
          << "key " << key << " duplicated across clients";
    }
  }
  for (const auto& [version, table] : targets) {
    Result<std::vector<KeyedRow>> rows = db.Select(version, table);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    std::set<int64_t> got;
    for (const KeyedRow& kr : *rows) got.insert(kr.key);
    EXPECT_EQ(got.size(), rows->size()) << version << ": duplicated keys";
    EXPECT_EQ(got, expected) << version << "." << table
                             << ": lost or resurrected rows";
  }
}

TEST(OnlineMigrationStressTest, RandomGenealogyStaysConsistentUnderTraffic) {
  const uint64_t seed = TestSeed(37);
  INVERDA_TRACE_SEED(seed);
  Inverda db;
  testutil::GenealogyBuilder builder(&db, seed);
  ASSERT_TRUE(builder.Init().ok());
  for (int step = 0; step < 4; ++step) ASSERT_TRUE(builder.Step().ok());
  Random rng(seed * 13 + 7);
  for (int i = 0; i < 60; ++i) {
    testutil::RandomInsert(&db, &rng, builder.versions());
  }

  Result<std::vector<std::set<SmoId>>> schemas =
      db.catalog().EnumerateValidMaterializations(/*limit=*/8);
  ASSERT_TRUE(schemas.ok()) << schemas.status().ToString();
  std::set<SmoId> current = db.catalog().CurrentMaterialization();
  const std::set<SmoId>* target = nullptr;
  for (const std::set<SmoId>& m : *schemas) {
    if (m != current) target = &m;
  }
  ASSERT_NE(target, nullptr);

  db.set_migration_test_hooks(PacedHooks());

  std::vector<ConcurrentClientSpec> clients;
  for (const std::string& version : builder.versions()) {
    const SchemaVersionInfo* info = *db.catalog().FindVersion(version);
    if (info->tables.empty()) continue;
    auto it = info->tables.begin();
    std::advance(it, static_cast<long>(rng.NextUint64(info->tables.size())));
    ConcurrentClientSpec spec;
    spec.target.version = version;
    spec.target.table = it->first;
    spec.target.make_row =
        RowGenerator(db.catalog().table_version(it->second).schema);
    // Starter keys so the client actually writes (random rows may be
    // legally rejected by partition/decompose constraints — keep trying).
    for (int attempt = 0; attempt < 40 && spec.initial_keys.size() < 10;
         ++attempt) {
      Result<int64_t> key =
          db.Insert(version, it->first, spec.target.make_row(&rng));
      if (key.ok()) spec.initial_keys.push_back(*key);
    }
    clients.push_back(std::move(spec));
  }
  ASSERT_GE(clients.size(), 4u);

  ConcurrentOptions options;
  options.ops_per_client = 800;
  options.seed = seed;
  options.tolerate_rejections = true;
  options.migrate_after_ops = 50;
  options.migrate_during = [&]() -> Status {
    INVERDA_RETURN_IF_ERROR(db.Materialize(MaterializeRequest::Schema(*target, /*online=*/true, /*wait=*/false)));
    return db.WaitForMigration();
  };

  ConcurrentResult result = RunConcurrentWorkload(&db, clients, options);
  ASSERT_TRUE(result.first_error().ok()) << result.first_error().ToString();
  ASSERT_TRUE(result.migrate_fired);
  EXPECT_EQ(db.catalog().CurrentMaterialization(), *target);

  int64_t during = 0;
  for (const ConcurrentClientResult& c : result.clients) {
    during += c.ops_during_migration;
  }
  EXPECT_GT(during, 0);

  // Quiesce reconciliation: the views are invariant under one more
  // stop-the-world migration to every valid schema — a write lost or
  // duplicated by the online copy/capture/flip would break this.
  auto before = testutil::Snapshot(&db);
  ASSERT_FALSE(before.empty());
  for (const std::set<SmoId>& m : *schemas) {
    ASSERT_TRUE(db.Materialize(MaterializeRequest::Schema(m)).ok());
    auto now = testutil::Snapshot(&db);
    std::string diff = testutil::DiffSnapshots(before, now);
    ASSERT_TRUE(diff.empty()) << diff;
  }
}

}  // namespace
}  // namespace inverda
