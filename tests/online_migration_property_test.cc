// Lockstep equivalence: an online migration (Materialize with
// request.online — chunked copy under shared locks + delta-log capture +
// brief exclusive flip) must be observationally identical to the blocking
// Materialize. Both are schedules of the one MigrationCoordinator engine:
// the blocking one stages, derives and commits inline. Twin instances get
// the same random genealogy and the same interleaved DML stream; instance
// A migrates online *while* the DML is applied (a phase gate guarantees
// the overlap), instance B migrates inline afterwards — every version's
// final view must agree. Fault injection at each phase boundary
// additionally proves that a migration failing mid-flight leaves A exactly
// equal to an untouched B, with the materialization and plan-cache epoch
// restored bit-for-bit.
//
// Since one engine could make both twins wrong together, a TasKy case also
// checks both schedules against a test-side client model (PutGet): every
// row a client wrote reads back as last written through its own version.
// Random genealogies only build DECOMPOSE ON PK, so this is the suite's
// DECOMPOSE ON FK coverage.
//
// Replay with INVERDA_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "genealogy_builder.h"
#include "inverda/inverda.h"
#include "test_seed.h"
#include "util/random.h"
#include "workload/tasky.h"

namespace inverda {
namespace {

// Grows the same random genealogy on both twins (same seed => the builders
// draw identical SMO sequences against identical catalogs).
void BuildTwinGenealogy(Inverda* a, Inverda* b, uint64_t seed, int steps,
                        std::vector<std::string>* versions) {
  testutil::GenealogyBuilder builder_a(a, seed);
  testutil::GenealogyBuilder builder_b(b, seed);
  ASSERT_TRUE(builder_a.Init().ok());
  ASSERT_TRUE(builder_b.Init().ok());
  for (int i = 0; i < steps; ++i) {
    ASSERT_TRUE(builder_a.Step().ok());
    ASSERT_TRUE(builder_b.Step().ok());
  }
  ASSERT_EQ(builder_a.versions(), builder_b.versions());
  *versions = builder_a.versions();
}

// Applies `n` random DML operations to both twins in lockstep and asserts
// the outcomes agree operation by operation (same status, same generated
// keys) — the two instances stay logically identical by construction, so
// any later divergence is the migration's fault.
void LockstepDml(Inverda* a, Inverda* b, Random* rng,
                 const std::vector<std::string>& versions, int n,
                 std::vector<int64_t>* keys) {
  for (int i = 0; i < n; ++i) {
    const std::string& version = versions[rng->NextUint64(versions.size())];
    const SchemaVersionInfo* info = *a->catalog().FindVersion(version);
    if (info->tables.empty()) continue;
    auto it = info->tables.begin();
    std::advance(it, static_cast<long>(rng->NextUint64(info->tables.size())));
    const std::string& table = it->first;
    const TableSchema& schema = a->catalog().table_version(it->second).schema;
    Row row;
    for (const Column& c : schema.columns()) {
      row.push_back(c.type == DataType::kInt64
                        ? Value::Int(rng->NextInt64(0, 99))
                        : Value::String(rng->NextString(3)));
    }
    const uint64_t roll = rng->NextUint64(100);
    if (roll < 55 || keys->empty()) {
      Result<int64_t> ka = a->Insert(version, table, row);
      Result<int64_t> kb = b->Insert(version, table, row);
      ASSERT_EQ(ka.ok(), kb.ok())
          << version << "." << table << ": " << ka.status().ToString()
          << " vs " << kb.status().ToString();
      if (ka.ok()) {
        ASSERT_EQ(*ka, *kb) << "twin key assignment diverged";
        keys->push_back(*ka);
      }
    } else if (roll < 85) {
      int64_t key = (*keys)[rng->NextUint64(keys->size())];
      Result<std::optional<Row>> cur_a = a->Get(version, table, key);
      Result<std::optional<Row>> cur_b = b->Get(version, table, key);
      ASSERT_EQ(cur_a.ok(), cur_b.ok());
      if (!cur_a.ok()) continue;
      ASSERT_EQ(cur_a->has_value(), cur_b->has_value())
          << version << "." << table << "@" << key << " visibility diverged";
      if (!cur_a->has_value()) continue;
      Status sa = a->Update(version, table, key, row);
      Status sb = b->Update(version, table, key, row);
      ASSERT_EQ(sa.code(), sb.code())
          << sa.ToString() << " vs " << sb.ToString();
    } else {
      size_t pick = rng->NextUint64(keys->size());
      int64_t key = (*keys)[pick];
      Status sa = a->Delete(version, table, key);
      Status sb = b->Delete(version, table, key);
      ASSERT_EQ(sa.code(), sb.code())
          << sa.ToString() << " vs " << sb.ToString();
      (*keys)[pick] = keys->back();
      keys->pop_back();
    }
  }
}

void ExpectTwinsEqual(Inverda* a, Inverda* b, const std::string& context) {
  auto snap_a = testutil::Snapshot(a);
  auto snap_b = testutil::Snapshot(b);
  ASSERT_EQ(snap_a.size(), snap_b.size()) << context;
  std::string diff = testutil::DiffSnapshots(snap_a, snap_b);
  EXPECT_TRUE(diff.empty()) << context << ": " << diff;
}

TEST(OnlineMigrationPropertyTest, OnlineEqualsStopTheWorld) {
  for (int round = 0; round < 3; ++round) {
    const uint64_t seed = TestSeed(41 + static_cast<uint64_t>(round) * 7);
    INVERDA_TRACE_SEED(seed);
    Inverda a, b;
    std::vector<std::string> versions;
    BuildTwinGenealogy(&a, &b, seed, 4, &versions);
    Random rng(seed * 31 + 3);
    std::vector<int64_t> keys;
    LockstepDml(&a, &b, &rng, versions, 30, &keys);
    if (::testing::Test::HasFatalFailure()) return;

    // Gate the flip behind the DML: A may not commit its migration until
    // the whole interleaved stream has run, so every op after Start lands
    // under an in-flight copy/catch-up and must be captured and replayed.
    std::mutex gate_mu;
    std::condition_variable gate_cv;
    bool dml_done = false;
    migrate::TestHooks hooks;
    hooks.chunk_keys = 2;
    hooks.on_phase = [&](migrate::Phase phase) {
      if (phase == migrate::Phase::kFlip) {
        std::unique_lock<std::mutex> lock(gate_mu);
        gate_cv.wait(lock, [&] { return dml_done; });
      }
      return Status::OK();
    };
    a.set_migration_test_hooks(hooks);

    const std::string target = versions.back();
    ASSERT_TRUE(a.Materialize(MaterializeRequest::Targets({target}, /*online=*/true, /*wait=*/false)).ok());
    LockstepDml(&a, &b, &rng, versions, 40, &keys);
    {
      std::lock_guard<std::mutex> lock(gate_mu);
      dml_done = true;
    }
    gate_cv.notify_all();
    if (::testing::Test::HasFatalFailure()) {
      (void)a.AbortMigration();
      return;
    }
    Status online = a.WaitForMigration();
    ASSERT_TRUE(online.ok()) << online.ToString();
    EXPECT_GT(a.MigrationState().keys_captured, 0)
        << "the interleaved DML never hit the delta log";

    ASSERT_TRUE(b.Materialize(MaterializeRequest::Targets({target})).ok());
    ExpectTwinsEqual(&a, &b, "online vs stop-the-world, seed " +
                                 std::to_string(seed));
    // And the twins keep agreeing on post-migration traffic.
    LockstepDml(&a, &b, &rng, versions, 15, &keys);
    if (::testing::Test::HasFatalFailure()) return;
    ExpectTwinsEqual(&a, &b, "post-migration DML, seed " +
                                 std::to_string(seed));
  }
}

TEST(OnlineMigrationPropertyTest, FaultAtEachPhaseBoundaryLeavesTwinEqual) {
  const migrate::Phase boundaries[] = {
      migrate::Phase::kCopy, migrate::Phase::kCatchUp, migrate::Phase::kFlip};
  for (migrate::Phase fail_at : boundaries) {
    const uint64_t seed = TestSeed(53);
    INVERDA_TRACE_SEED(seed);
    Inverda a, b;
    std::vector<std::string> versions;
    BuildTwinGenealogy(&a, &b, seed, 4, &versions);
    Random rng(seed * 19 + 11);
    std::vector<int64_t> keys;
    LockstepDml(&a, &b, &rng, versions, 30, &keys);
    if (::testing::Test::HasFatalFailure()) return;

    const uint64_t epoch_before = a.catalog().materialization_epoch();
    const std::set<SmoId> m_before = a.catalog().CurrentMaterialization();

    migrate::TestHooks hooks;
    hooks.chunk_keys = 2;
    hooks.on_phase = [fail_at](migrate::Phase phase) {
      if (phase == fail_at) return Status::Internal("injected fault");
      return Status::OK();
    };
    a.set_migration_test_hooks(hooks);

    const std::string target = versions.back();
    ASSERT_TRUE(a.Materialize(MaterializeRequest::Targets({target}, /*online=*/true, /*wait=*/false)).ok());
    Status failed = a.WaitForMigration();
    ASSERT_FALSE(failed.ok()) << "fault at " << migrate::PhaseName(fail_at)
                              << " was swallowed";
    EXPECT_EQ(a.MigrationState().phase, migrate::Phase::kFailed);

    // The unwind is exact: materialization, plan-cache epoch and every
    // version's view are bit-for-bit as if the migration never started.
    EXPECT_EQ(a.catalog().materialization_epoch(), epoch_before)
        << migrate::PhaseName(fail_at);
    EXPECT_EQ(a.catalog().CurrentMaterialization(), m_before);
    ExpectTwinsEqual(&a, &b, std::string("after fault at ") +
                                 migrate::PhaseName(fail_at));

    // The engine is fully live after the unwind: more lockstep DML agrees,
    // and a clean retry of the same migration converges the twins.
    LockstepDml(&a, &b, &rng, versions, 10, &keys);
    if (::testing::Test::HasFatalFailure()) return;
    a.set_migration_test_hooks({});
    ASSERT_TRUE(a.Materialize(MaterializeRequest::Targets({target}, /*online=*/true, /*wait=*/false)).ok());
    ASSERT_TRUE(a.WaitForMigration().ok());
    ASSERT_TRUE(b.Materialize(MaterializeRequest::Targets({target})).ok());
    ExpectTwinsEqual(&a, &b, std::string("retry after fault at ") +
                                 migrate::PhaseName(fail_at));
  }
}

TEST(OnlineMigrationPropertyTest, AbortRequestRestoresOrCommitsAtomically) {
  const uint64_t seed = TestSeed(61);
  INVERDA_TRACE_SEED(seed);
  Inverda a, b;
  std::vector<std::string> versions;
  BuildTwinGenealogy(&a, &b, seed, 4, &versions);
  Random rng(seed * 23 + 5);
  std::vector<int64_t> keys;
  LockstepDml(&a, &b, &rng, versions, 30, &keys);
  if (::testing::Test::HasFatalFailure()) return;

  const uint64_t epoch_before = a.catalog().materialization_epoch();
  const std::set<SmoId> m_before = a.catalog().CurrentMaterialization();

  // Hold the coordinator at the flip boundary while the abort request
  // lands; the abort check after the gate must unwind the whole staging.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool reached_flip = false, released = false;
  migrate::TestHooks hooks;
  hooks.chunk_keys = 2;
  hooks.on_phase = [&](migrate::Phase phase) {
    if (phase == migrate::Phase::kFlip) {
      std::unique_lock<std::mutex> lock(gate_mu);
      reached_flip = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return released; });
    }
    return Status::OK();
  };
  a.set_migration_test_hooks(hooks);

  const std::string target = versions.back();
  ASSERT_TRUE(a.Materialize(MaterializeRequest::Targets({target}, /*online=*/true, /*wait=*/false)).ok());
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return reached_flip; });
  }
  std::thread aborter([&] { EXPECT_TRUE(a.AbortMigration().ok()); });
  // Give the abort request time to land before releasing the gate; if it
  // loses the race anyway, the migration commits — both outcomes must be
  // atomic, and the assertions below cover each.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    released = true;
  }
  gate_cv.notify_all();
  aborter.join();
  (void)a.WaitForMigration();

  migrate::Phase outcome = a.MigrationState().phase;
  if (outcome == migrate::Phase::kAborted) {
    EXPECT_EQ(a.catalog().materialization_epoch(), epoch_before);
    EXPECT_EQ(a.catalog().CurrentMaterialization(), m_before);
    ExpectTwinsEqual(&a, &b, "after abort");
  } else {
    ASSERT_EQ(outcome, migrate::Phase::kDone);
    ASSERT_TRUE(b.Materialize(MaterializeRequest::Targets({target})).ok());
    ExpectTwinsEqual(&a, &b, "abort raced commit");
  }

  // Either way the coordinator is reusable and the twins converge.
  a.set_migration_test_hooks({});
  ASSERT_TRUE(a.Materialize(MaterializeRequest::Targets({target}, /*online=*/true, /*wait=*/false)).ok());
  ASSERT_TRUE(a.WaitForMigration().ok());
  if (outcome == migrate::Phase::kAborted) {
    ASSERT_TRUE(b.Materialize(MaterializeRequest::Targets({target})).ok());
  }
  ExpectTwinsEqual(&a, &b, "final convergence");
}

// --- TasKy against a client model -------------------------------------------

// One TasKy client per version, each owning a disjoint set of tasks and
// remembering the row it last wrote for each of them.
struct TaskyClient {
  std::string version;
  std::string table;
  std::vector<int64_t> keys;
  std::map<int64_t, Row> written;
};

// Rewrites one owned row through the client's own version: authors move
// between existing and brand-new names, TasKy2 keeps its foreign key and
// rewrites the task text. Do! rows keep prio 1 (they stay visible in Do!).
void ClientWrite(Inverda* db, TaskyClient* client, Random* rng, int round) {
  int64_t key = client->keys[rng->NextUint64(client->keys.size())];
  Result<std::optional<Row>> current = db->Get(client->version, client->table,
                                               key);
  ASSERT_TRUE(current.ok() && current->has_value())
      << client->version << "@" << key;
  Row row = **current;
  const std::string author =
      rng->NextUint64(4) == 0 ? "new" + std::to_string(round)
                              : "author" + std::to_string(rng->NextUint64(8));
  const std::string task = "t" + std::to_string(round);
  if (client->version == "TasKy") {
    row = {Value::String(author), Value::String(task),
           Value::Int(2 + rng->NextInt64(0, 1))};
  } else if (client->version == "Do!") {
    row = {Value::String(author), Value::String(task)};
  } else {
    row[0] = Value::String(task);
  }
  Status status = db->Update(client->version, client->table, key, row);
  ASSERT_TRUE(status.ok()) << client->version << "@" << key << ": "
                           << status.ToString();
  client->written[key] = row;
}

void ExpectClientsReadOwnWrites(Inverda* db,
                                const std::vector<TaskyClient>& clients,
                                const std::string& context) {
  for (const TaskyClient& client : clients) {
    for (const auto& [key, row] : client.written) {
      Result<std::optional<Row>> got = db->Get(client.version, client.table,
                                               key);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(got->has_value())
          << context << ": " << client.version << "@" << key << " vanished";
      EXPECT_EQ(RowToString(**got), RowToString(row))
          << context << ": " << client.version << "@" << key;
    }
  }
}

// MATERIALIZE TasKy2; MATERIALIZE TasKy; client writes; MATERIALIZE TasKy2.
// Online, the writes land while the last migration copies and catches up.
void TaskyClientModel(bool online) {
  const uint64_t seed = TestSeed(71);
  INVERDA_TRACE_SEED(seed);
  TaskyOptions options;
  options.num_tasks = 150;
  options.num_authors = 8;
  options.seed = seed;
  Result<TaskyScenario> scenario = BuildTasky(options);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  Inverda* db = scenario->db.get();
  auto schedule = [online](const char* target) {
    return MaterializeRequest::Targets({target}, online);
  };
  ASSERT_TRUE(db->Materialize(schedule("TasKy2")).ok());
  ASSERT_TRUE(db->Materialize(schedule("TasKy")).ok());

  std::vector<TaskyClient> clients = {{"TasKy", "Task", {}, {}},
                                      {"Do!", "Todo", {}, {}},
                                      {"TasKy2", "Task", {}, {}}};
  Result<std::vector<KeyedRow>> tasks = db->Select("TasKy", "Task");
  ASSERT_TRUE(tasks.ok());
  for (size_t i = 0; i < tasks->size(); ++i) {
    const size_t slot = i % 3;
    if (slot == 1 && !((*tasks)[i].row[2] == Value::Int(1))) continue;
    clients[slot].keys.push_back((*tasks)[i].key);
  }
  for (const TaskyClient& client : clients) ASSERT_FALSE(client.keys.empty());

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool writes_done = false;
  if (online) {
    migrate::TestHooks hooks;
    hooks.chunk_keys = 4;
    hooks.on_phase = [&](migrate::Phase phase) {
      if (phase == migrate::Phase::kFlip) {
        std::unique_lock<std::mutex> lock(gate_mu);
        gate_cv.wait(lock, [&] { return writes_done; });
      }
      return Status::OK();
    };
    db->set_migration_test_hooks(hooks);
    ASSERT_TRUE(db->Materialize(MaterializeRequest::Targets(
                                    {"TasKy2"}, /*online=*/true,
                                    /*wait=*/false))
                    .ok());
  }
  Random rng(seed * 13 + 1);
  for (int round = 0; round < 90; ++round) {
    ClientWrite(db, &clients[static_cast<size_t>(round) % 3], &rng, round);
    if (::testing::Test::HasFatalFailure()) break;
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    writes_done = true;
  }
  gate_cv.notify_all();
  if (online) {
    ASSERT_TRUE(db->WaitForMigration().ok());
    db->set_migration_test_hooks({});
  } else {
    ASSERT_TRUE(db->Materialize(schedule("TasKy2")).ok());
  }
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(db->catalog().IsPhysical(
      *db->catalog().ResolveTable("TasKy2", "Task")));
  ExpectClientsReadOwnWrites(db, clients, online ? "online" : "inline");
}

TEST(OnlineMigrationPropertyTest, TaskyClientsReadOwnWritesInline) {
  TaskyClientModel(/*online=*/false);
}

TEST(OnlineMigrationPropertyTest, TaskyClientsReadOwnWritesOnline) {
  TaskyClientModel(/*online=*/true);
}

}  // namespace
}  // namespace inverda
