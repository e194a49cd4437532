#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "genealogy_builder.h"
#include "handwritten/reference_sql.h"
#include "inverda/inverda.h"

namespace inverda {
namespace {

// Failure injection for the migration operation: the Database Migration
// Operation promises all-or-nothing semantics ("maintaining transaction
// guarantees"). We inject failures by occupying physical table names the
// migration needs and verify the full rollback.
class MigrationFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute(BidelInitialScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelDoScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelEvolutionScript()).ok());
    for (int i = 0; i < 10; ++i) {
      keys_.push_back(*db_.Insert(
          "TasKy", "Task",
          {Value::String("a" + std::to_string(i % 3)),
           Value::String("t" + std::to_string(i)), Value::Int(1 + i % 3)}));
    }
  }

  Inverda db_;
  std::vector<int64_t> keys_;
};

TEST_F(MigrationFailureTest, CollidingStagingTableRollsBack) {
  // Occupy the physical name the migration will want for TasKy2's Task.
  TvId task2 = *db_.catalog().ResolveTable("TasKy2", "Task");
  std::string doomed_name = db_.catalog().DataTableName(task2);
  ASSERT_TRUE(db_.db().CreateTable(TableSchema(doomed_name, {})).ok());

  std::set<SmoId> old_m = db_.catalog().CurrentMaterialization();
  size_t tables_before = db_.db().TableNames().size();

  Status s = db_.Materialize(MaterializeRequest::Targets({"TasKy2"}));
  EXPECT_FALSE(s.ok());

  // Everything rolled back: states, physical tables, views. (Id
  // assignments made while *reading* during staging may persist — they are
  // repeatable-read bookkeeping, not data.)
  EXPECT_EQ(db_.catalog().CurrentMaterialization(), old_m);
  EXPECT_EQ(db_.db().TableNames().size(), tables_before);
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 10u);
  EXPECT_EQ(db_.Select("TasKy2", "Task")->size(), 10u);
  TvId task0 = *db_.catalog().ResolveTable("TasKy", "Task");
  EXPECT_TRUE(db_.catalog().IsPhysical(task0));

  // After removing the obstruction the migration succeeds.
  ASSERT_TRUE(db_.db().DropTable(doomed_name).ok());
  EXPECT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"})).ok());
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 10u);
}

TEST_F(MigrationFailureTest, InvalidTargetsFailCleanly) {
  int64_t rows_before = db_.db().TotalRows();
  EXPECT_FALSE(db_.Materialize(MaterializeRequest::Targets({"NoSuchVersion"})).ok());
  EXPECT_FALSE(db_.Materialize(MaterializeRequest::Targets({"TasKy2.NoSuchTable"})).ok());
  EXPECT_FALSE(db_.Materialize(MaterializeRequest::Targets({"Do!", "TasKy2"})).ok());  // condition (56)
  EXPECT_FALSE(db_.Materialize(MaterializeRequest::Targets({"a.b.c"})).ok());
  EXPECT_EQ(db_.db().TotalRows(), rows_before);
  EXPECT_EQ(db_.Select("Do!", "Todo")->size(),
            static_cast<size_t>(
                std::count_if(keys_.begin(), keys_.end(), [this](int64_t k) {
                  Result<std::optional<Row>> row = db_.Get("TasKy", "Task", k);
                  return row.ok() && row->has_value() &&
                         (**row)[2] == Value::Int(1);
                })));
}

TEST_F(MigrationFailureTest, ExplicitInvalidSchemaIsRejected) {
  // Build the invalid {SPLIT, DECOMPOSE} schema by hand.
  std::set<SmoId> bad;
  for (SmoId id : db_.catalog().AllSmos()) {
    SmoKind kind = db_.catalog().smo(id).smo->kind();
    if (kind == SmoKind::kSplit || kind == SmoKind::kDecompose) {
      bad.insert(id);
    }
  }
  ASSERT_EQ(bad.size(), 2u);
  Status s = db_.Materialize(MaterializeRequest::Schema(bad));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Views unaffected.
  EXPECT_EQ(db_.Select("TasKy2", "Task")->size(), 10u);
}

TEST_F(MigrationFailureTest, RepeatedFailureThenSuccessKeepsStateClean) {
  TvId todo = *db_.catalog().ResolveTable("Do!", "Todo");
  std::string doomed_name = db_.catalog().DataTableName(todo);
  ASSERT_TRUE(db_.db().CreateTable(TableSchema(doomed_name, {})).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(db_.Materialize(MaterializeRequest::Targets({"Do!"})).ok());
  }
  ASSERT_TRUE(db_.db().DropTable(doomed_name).ok());
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"Do!"})).ok());
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy"})).ok());
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 10u);
  EXPECT_EQ(db_.Select("TasKy2", "Author")->size(), 3u);
}

// --- online (background) migration fault injection --------------------------
//
// An online Materialize runs copy/catch-up on a worker thread and commits in a
// brief exclusive flip. Faults injected at every phase boundary (coordinator
// TestHooks) must unwind to exactly the pre-migration state: materialization,
// plan-cache epoch, physical tables, and every version's view.

class OnlineMigrationFailureTest : public MigrationFailureTest {
 protected:
  struct StateFingerprint {
    uint64_t epoch;
    std::set<SmoId> materialization;
    size_t physical_tables;
    std::map<std::string, std::vector<KeyedRow>> views;
  };

  StateFingerprint Fingerprint() {
    StateFingerprint fp;
    fp.epoch = db_.catalog().materialization_epoch();
    fp.materialization = db_.catalog().CurrentMaterialization();
    fp.physical_tables = db_.db().TableNames().size();
    fp.views = testutil::Snapshot(&db_);
    return fp;
  }

  void ExpectUnchanged(const StateFingerprint& before, const char* context) {
    EXPECT_EQ(db_.catalog().materialization_epoch(), before.epoch) << context;
    EXPECT_EQ(db_.catalog().CurrentMaterialization(), before.materialization)
        << context;
    EXPECT_EQ(db_.db().TableNames().size(), before.physical_tables) << context;
    std::string diff = testutil::DiffSnapshots(before.views,
                                               testutil::Snapshot(&db_));
    EXPECT_TRUE(diff.empty()) << context << ": " << diff;
  }
};

TEST_F(OnlineMigrationFailureTest, FaultAtEachPhaseRollsBack) {
  const migrate::Phase boundaries[] = {
      migrate::Phase::kCopy, migrate::Phase::kCatchUp, migrate::Phase::kFlip};
  for (migrate::Phase fail_at : boundaries) {
    StateFingerprint before = Fingerprint();
    migrate::TestHooks hooks;
    hooks.on_phase = [fail_at](migrate::Phase phase) {
      if (phase == fail_at) return Status::Internal("injected fault");
      return Status::OK();
    };
    db_.set_migration_test_hooks(hooks);
    ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
    Status s = db_.WaitForMigration();
    EXPECT_FALSE(s.ok()) << "fault at " << migrate::PhaseName(fail_at)
                         << " was swallowed";
    EXPECT_EQ(db_.MigrationState().phase, migrate::Phase::kFailed);
    ExpectUnchanged(before, migrate::PhaseName(fail_at));
    db_.set_migration_test_hooks({});
  }
  // The unwind left the engine fully functional: a clean online retry
  // commits and bumps the epoch exactly once.
  uint64_t epoch = db_.catalog().materialization_epoch();
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
  ASSERT_TRUE(db_.WaitForMigration().ok());
  EXPECT_EQ(db_.MigrationState().phase, migrate::Phase::kDone);
  EXPECT_EQ(db_.catalog().materialization_epoch(), epoch + 1);
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 10u);
  EXPECT_EQ(db_.Select("TasKy2", "Task")->size(), 10u);
}

TEST_F(OnlineMigrationFailureTest, FaultInsideFlipCommitRollsBack) {
  // before_flip_commit fires inside the exclusive flip section, after the
  // final drain — the worst possible moment to fail.
  StateFingerprint before = Fingerprint();
  migrate::TestHooks hooks;
  hooks.before_flip_commit = [] {
    return Status::Internal("injected fault inside flip");
  };
  db_.set_migration_test_hooks(hooks);
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
  EXPECT_FALSE(db_.WaitForMigration().ok());
  EXPECT_EQ(db_.MigrationState().phase, migrate::Phase::kFailed);
  ExpectUnchanged(before, "before_flip_commit");
  db_.set_migration_test_hooks({});
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
  EXPECT_TRUE(db_.WaitForMigration().ok());
}

TEST_F(OnlineMigrationFailureTest, CollidingStagingTableRollsBackOnline) {
  // The same obstruction as the stop-the-world test, hit by the background
  // path: the commit fails mid-flip and Restore must bring the obstruction
  // and the old materialization back bit-for-bit.
  TvId task2 = *db_.catalog().ResolveTable("TasKy2", "Task");
  std::string doomed_name = db_.catalog().DataTableName(task2);
  ASSERT_TRUE(db_.db().CreateTable(TableSchema(doomed_name, {})).ok());
  StateFingerprint before = Fingerprint();

  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
  EXPECT_FALSE(db_.WaitForMigration().ok());
  EXPECT_EQ(db_.MigrationState().phase, migrate::Phase::kFailed);
  ExpectUnchanged(before, "staging collision");

  ASSERT_TRUE(db_.db().DropTable(doomed_name).ok());
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
  EXPECT_TRUE(db_.WaitForMigration().ok());
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 10u);
}

TEST_F(OnlineMigrationFailureTest, InvalidTargetsFailSynchronously) {
  EXPECT_FALSE(db_.Materialize(MaterializeRequest::Targets({"NoSuchVersion"}, /*online=*/true, /*wait=*/false)).ok());
  EXPECT_FALSE(db_.Materialize(MaterializeRequest::Targets({"TasKy2.NoSuchTable"}, /*online=*/true, /*wait=*/false)).ok());
  EXPECT_FALSE(db_.Materialize(MaterializeRequest::Targets({"a.b.c"}, /*online=*/true, /*wait=*/false)).ok());
  EXPECT_FALSE(db_.MigrationState().active);
  // A bad start never poisons the coordinator for the next migration.
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
  EXPECT_TRUE(db_.WaitForMigration().ok());
}

TEST_F(OnlineMigrationFailureTest, DdlIsRejectedWhileMigrationInFlight) {
  // Hold the coordinator in catch-up; every DDL entry point must refuse
  // with InvalidState instead of racing the background copy.
  std::mutex mu;
  std::condition_variable cv;
  bool gated = false, release = false;
  migrate::TestHooks hooks;
  hooks.on_phase = [&](migrate::Phase phase) {
    if (phase == migrate::Phase::kCatchUp) {
      std::unique_lock<std::mutex> lock(mu);
      gated = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    return Status::OK();
  };
  db_.set_migration_test_hooks(hooks);
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gated; });
  }

  auto expect_rejected = [](const Status& s, const char* what) {
    EXPECT_FALSE(s.ok()) << what << " admitted during migration";
    EXPECT_EQ(s.code(), StatusCode::kInvalidState) << what;
  };
  expect_rejected(db_.Materialize(MaterializeRequest::Targets({"Do!"})), "Materialize");
  expect_rejected(db_.Materialize(MaterializeRequest::Targets({"Do!"}, /*online=*/true, /*wait=*/false)), "second online Materialize");
  expect_rejected(db_.Execute("CREATE SCHEMA VERSION Late FROM TasKy WITH "
                              "ADD COLUMN late INT AS 0 INTO Task;"),
                  "CREATE SCHEMA VERSION");
  expect_rejected(db_.DropSchemaVersion("Do!"), "DROP SCHEMA VERSION");
  expect_rejected(db_.Reshard(2), "Reshard");
  // DML stays admitted: that is the whole point of the online path.
  EXPECT_TRUE(db_.Insert("TasKy", "Task",
                         {Value::String("a9"), Value::String("t9"),
                          Value::Int(2)})
                  .ok());

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(db_.WaitForMigration().ok());
  EXPECT_EQ(db_.Select("TasKy2", "Task")->size(), 11u);
  // With the migration done, DDL is admitted again.
  db_.set_migration_test_hooks({});
  EXPECT_TRUE(db_.Materialize(MaterializeRequest::Targets({"Do!"})).ok());
}

TEST_F(OnlineMigrationFailureTest, ConcurrentStartsAdmitExactlyOne) {
  // Admission is serialized by the coordinator's start mutex: when many
  // threads race an online Materialize, exactly one is admitted and every other
  // gets InvalidState — never a second job overwriting the first's staged
  // state or a re-assignment of the live worker thread.
  std::mutex mu;
  std::condition_variable cv;
  bool gated = false, release = false;
  migrate::TestHooks hooks;
  hooks.on_phase = [&](migrate::Phase phase) {
    if (phase == migrate::Phase::kCatchUp) {
      std::unique_lock<std::mutex> lock(mu);
      gated = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    return Status::OK();
  };
  db_.set_migration_test_hooks(hooks);

  constexpr int kStarters = 8;
  std::atomic<int> admitted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> starters;
  for (int i = 0; i < kStarters; ++i) {
    starters.emplace_back([&, i] {
      Status s = db_.Materialize(MaterializeRequest::Targets({i % 2 == 0 ? "TasKy2" : "Do!"}, /*online=*/true, /*wait=*/false));
      if (s.ok()) {
        admitted.fetch_add(1);
      } else {
        EXPECT_EQ(s.code(), StatusCode::kInvalidState);
        rejected.fetch_add(1);
      }
    });
  }
  for (std::thread& t : starters) t.join();
  // The winner is gated in catch-up, so it stays active for the whole race:
  // the counts are deterministic.
  EXPECT_EQ(admitted.load(), 1);
  EXPECT_EQ(rejected.load(), kStarters - 1);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(db_.WaitForMigration().ok());
  EXPECT_EQ(db_.MigrationState().phase, migrate::Phase::kDone);
  db_.set_migration_test_hooks({});
  EXPECT_EQ(db_.Select("TasKy", "Task")->size(), 10u);
  EXPECT_EQ(db_.Select("TasKy2", "Task")->size(), 10u);
}

TEST_F(OnlineMigrationFailureTest, TrivialNoOpMigrationResetsCounters) {
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
  ASSERT_TRUE(db_.WaitForMigration().ok());
  migrate::MigrationStatus real = db_.MigrationState();
  ASSERT_EQ(real.phase, migrate::Phase::kDone);
  // Progress lands in rows_copied for key-stable components and refreshes
  // for wholesale-refresh ones; either way the real migration did work.
  ASSERT_GT(real.rows_copied + real.refreshes, 0);

  // Same target again: the no-op path commits trivially and must not pair
  // its fresh id with the previous migration's progress counters.
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
  ASSERT_TRUE(db_.WaitForMigration().ok());
  migrate::MigrationStatus trivial = db_.MigrationState();
  EXPECT_EQ(trivial.id, real.id + 1);
  EXPECT_EQ(trivial.phase, migrate::Phase::kDone);
  EXPECT_FALSE(trivial.active);
  EXPECT_TRUE(trivial.result.ok());
  EXPECT_EQ(trivial.rows_copied, 0);
  EXPECT_EQ(trivial.chunks, 0);
  EXPECT_EQ(trivial.keys_captured, 0);
  EXPECT_EQ(trivial.keys_drained, 0);
  EXPECT_EQ(trivial.refreshes, 0);
  EXPECT_EQ(trivial.catchup_rounds, 0);
  EXPECT_EQ(trivial.flip_keys, 0);
}

TEST_F(OnlineMigrationFailureTest, RejectedAdmissionLeavesSnapshotIntact) {
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
  ASSERT_TRUE(db_.WaitForMigration().ok());
  migrate::MigrationStatus before = db_.MigrationState();
  ASSERT_EQ(before.phase, migrate::Phase::kDone);

  // An invalid explicit schema fails inside admission, after validation has
  // begun; the failure must not publish a new id/label over the previous
  // migration's terminal phase and result.
  std::set<SmoId> bad;
  for (SmoId id : db_.catalog().AllSmos()) {
    SmoKind kind = db_.catalog().smo(id).smo->kind();
    if (kind == SmoKind::kSplit || kind == SmoKind::kDecompose) {
      bad.insert(id);
    }
  }
  ASSERT_EQ(bad.size(), 2u);
  EXPECT_FALSE(db_.Materialize(MaterializeRequest::Schema(bad, /*online=*/true, /*wait=*/false)).ok());

  migrate::MigrationStatus after = db_.MigrationState();
  EXPECT_EQ(after.id, before.id);
  EXPECT_EQ(after.label, before.label);
  EXPECT_EQ(after.phase, migrate::Phase::kDone);
  EXPECT_TRUE(after.result.ok());
}

TEST_F(OnlineMigrationFailureTest, AbortMidCopyRestores) {
  StateFingerprint before = Fingerprint();
  migrate::TestHooks hooks;
  hooks.chunk_keys = 1;
  hooks.after_chunk = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  db_.set_migration_test_hooks(hooks);
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
  ASSERT_TRUE(db_.AbortMigration().ok());
  migrate::Phase outcome = db_.MigrationState().phase;
  if (outcome == migrate::Phase::kAborted) {
    ExpectUnchanged(before, "abort mid-copy");
  } else {
    // The abort can lose the race to a fast commit; then the migration's
    // full effect (and nothing else) is visible.
    ASSERT_EQ(outcome, migrate::Phase::kDone);
    EXPECT_EQ(db_.catalog().materialization_epoch(), before.epoch + 1);
  }
  // Either way the coordinator accepts the next migration.
  db_.set_migration_test_hooks({});
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"}, /*online=*/true, /*wait=*/false)).ok());
  EXPECT_TRUE(db_.WaitForMigration().ok());
  EXPECT_EQ(db_.Select("TasKy2", "Task")->size(), 10u);
}

}  // namespace
}  // namespace inverda
