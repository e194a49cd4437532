#ifndef INVERDA_MIGRATE_COORDINATOR_H_
#define INVERDA_MIGRATE_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "mapping/write_set.h"
#include "storage/table.h"
#include "util/status.h"

namespace inverda {

class Inverda;
struct MaterializeRequest;

namespace obs {
struct Observability;
class Counter;
class Histogram;
}  // namespace obs

namespace migrate {

/// Lifecycle of one migration (docs/migration.md). kIdle only before the
/// first one; every admitted migration ends in exactly one of the three
/// terminal phases. The inline schedule goes straight to kFlip.
enum class Phase {
  kIdle,     ///< no migration has run yet
  kCopy,     ///< chunked backfill of the staged tables under shared DDL
  kCatchUp,  ///< delta-log replay of concurrently captured keys
  kFlip,     ///< brief exclusive window: final drain, swap, epoch bump
  kDone,     ///< committed
  kAborted,  ///< unwound on request; live state untouched
  kFailed,   ///< unwound on error; live state untouched
};

const char* PhaseName(Phase phase);

/// Point-in-time progress snapshot of the coordinator (shell MIGRATIONS,
/// bidel_lint --migrations, the test battery).
struct MigrationStatus {
  int64_t id = 0;  ///< 0 until the first migration is admitted
  bool active = false;
  Phase phase = Phase::kIdle;
  std::string label;  ///< human-readable target description
  int64_t rows_copied = 0;
  int64_t chunks = 0;
  int64_t keys_captured = 0;
  int64_t keys_drained = 0;
  int64_t catchup_rounds = 0;
  int64_t refreshes = 0;
  int64_t flip_keys = 0;  ///< keys drained inside the exclusive flip window
  int64_t flip_ns = 0;    ///< duration of the exclusive flip window
  Status result;          ///< terminal status of the last finished migration
};

/// One-line rendering ("#3 done targets=TasKy2 copied=120 captured=14 ...").
std::string FormatMigrationStatus(const MigrationStatus& status);

/// Write-capture sink: installed on the access layer for the duration of a
/// migration and invoked at the top level of every write after the data
/// landed, while the writer still holds the shared catalog lock. The
/// implementation must only touch leaf state (nothing that can wait on a
/// table latch or the catalog lock).
class WriteObserver {
 public:
  virtual ~WriteObserver() = default;
  virtual void OnWrite(TvId tv, const WriteSet& writes) = 0;
};

/// Test-only fault-injection and pacing hooks (install before Start; never
/// used in production paths).
struct TestHooks {
  /// Called on entering each phase of the online schedule, outside all
  /// locks. Returning an error fails the migration at that boundary; the
  /// unwind must leave the engine exactly as before Start.
  std::function<Status(Phase)> on_phase;
  /// Called after each copied chunk / refresh, outside all locks — pacing
  /// for the under-traffic tests.
  std::function<void()> after_chunk;
  /// Called inside the exclusive flip window of either schedule, after the
  /// final drain but before any physical table is touched.
  std::function<Status()> before_flip_commit;
  /// Keys per copy chunk; 0 keeps the default (512).
  int chunk_keys = 0;
};

/// The migration engine behind MATERIALIZE (docs/migration.md), with two
/// schedules of one staging step, one derivation (RefreshEntry/DrainEntry)
/// and one commit. Online (Start): copies the target physical tables
/// chunk-by-chunk while readers and writers keep running under the normal
/// shared DDL lock, captures concurrent writes through a key-scoped delta
/// log fed by the access layer's write observer, replays them in catch-up
/// rounds, and commits with a brief exclusive epoch flip. Inline
/// (RunInlineLocked): the blocking MATERIALIZE — stage, derive wholesale
/// and commit inside the caller's exclusive section. Abort or failure at
/// any phase before the commit leaves the live database bit-for-bit
/// untouched (staging happens off to the side and the materialization
/// epoch never moves).
///
/// One migration runs at a time. The facade rejects all other DDL while a
/// migration is active, so the genealogy the coordinator captured at Start
/// stays structurally frozen until the terminal phase.
class MigrationCoordinator : public WriteObserver {
 public:
  MigrationCoordinator(Inverda* owner, obs::Observability* obs);
  ~MigrationCoordinator() override;

  MigrationCoordinator(const MigrationCoordinator&) = delete;
  MigrationCoordinator& operator=(const MigrationCoordinator&) = delete;

  /// Admits a background migration to the materialization `request` names
  /// (its targets — "Version" or "Version.table", as MATERIALIZE — or its
  /// explicit schema). Returns once the migration is staged and the capture
  /// hook is live; the copy runs on a background thread. Rejects with
  /// InvalidState when one is active.
  Status Start(const MaterializeRequest& request);

  /// The stop-the-world schedule of the same migration: stages the job
  /// Start would stage, derives every staged table wholesale and commits,
  /// all inside the caller's critical section — no write capture, no delta
  /// log, no thread. Requires the facade's exclusive catalog lock, taken
  /// after its no-active-migration check; never takes start_mu_.
  Status RunInlineLocked(const MaterializeRequest& request);

  /// Blocks until no migration is active and returns the terminal status
  /// of the last migration (OK when none ever ran). Must not be called
  /// while holding the facade's catalog lock.
  Status Wait();

  /// Requests abort of the active migration and waits for it to unwind.
  /// OK when the migration ended aborted (or raced to completion).
  Status Abort();

  bool active() const { return active_.load(std::memory_order_acquire); }

  /// Progress snapshot; safe to call concurrently with a running migration.
  MigrationStatus Snapshot() const;

  /// Installs fault-injection/pacing hooks. Only valid while idle.
  void set_test_hooks(TestHooks hooks);

  // WriteObserver: records the keys of a top-level write into the delta
  // log of every staged table in the write's genealogy component (or bumps
  // the dirty stamp of entries that re-derive wholesale). Called by the
  // access layer under the shared catalog lock.
  void OnWrite(TvId tv, const WriteSet& writes) override;

 private:
  /// One staged physical table: the content it will have after the flip,
  /// built off to the side while the old materialization keeps serving.
  struct StagedEntry {
    explicit StagedEntry(Table t) : content(std::move(t)) {}

    TvId tv = -1;        ///< staged data table's version; -1 for aux entries
    SmoId aux_smo = -1;  ///< aux entries: owning SMO instance
    std::string aux_short;      ///< aux entries: short name ("B", ...)
    std::string physical_name;  ///< target physical table name
    /// True when every SMO in the component maps a write with key set K to
    /// view changes at keys within K (everything except DECOMPOSE/JOIN with
    /// a non-PK method) — the precondition for key-scoped capture. Aux
    /// entries are always refreshed wholesale.
    bool key_stable = false;
    std::set<TvId> component;  ///< genealogy component, for capture routing
    Table content;
    /// Delta log: keys written concurrently and not yet re-derived into
    /// `content`. `mu` is a leaf lock in the global order — held only
    /// around set/content operations, never while acquiring anything else.
    std::mutex mu;
    std::set<int64_t> pending;
    /// Wholesale-refresh entries: captures bump `dirty`; a refresh records
    /// the stamp it derived from, so "dirty != refreshed_at" means stale.
    std::atomic<uint64_t> dirty{0};
    uint64_t refreshed_at = kNeverRefreshed;  // coordinator thread only
    static constexpr uint64_t kNeverRefreshed = ~uint64_t{0};
  };

  /// Everything one migration stages. Created and destroyed under the
  /// exclusive catalog lock; entry addresses are stable for the lifetime
  /// of the job (capture threads index into them).
  struct Job {
    std::string label;
    std::set<SmoId> target_m;
    std::vector<SmoId> flipping;
    std::set<TvId> old_physical;
    std::set<TvId> new_physical;
    std::vector<std::unique_ptr<StagedEntry>> entries;
  };

  using DerivedRows = std::vector<std::pair<int64_t, std::optional<Row>>>;

  /// The staging step both schedules share: resolves `request` to its
  /// materialization schema, validates it and fills `job` with the flipping
  /// SMOs, the old and new physical sets and one empty entry per newly
  /// physical data or aux table. Touches no live state. Returns false when
  /// the schema is already current (the job then holds only its label).
  /// `capture` marks the entries that key-scoped capture can keep fresh;
  /// without it every entry derives wholesale. Requires the exclusive
  /// catalog lock.
  Result<bool> StageLocked(const MaterializeRequest& request, bool capture,
                           Job* job);

  /// Publishes a freshly admitted migration: zeroes the progress counters,
  /// assigns the next id and the label, enters `phase`. Called only once
  /// staging succeeded, so a rejected admission leaves the previous
  /// migration's snapshot intact.
  void Admit(std::string label, Phase phase);

  /// Rejects when active; joins the previous worker otherwise. Caller must
  /// hold start_mu_.
  Status Reap();

  void Run();  // worker thread body
  Status RunPhases();
  Status EnterPhase(Phase phase);

  Status CopyPhase();
  Status CatchUpPhase();
  Status FlipPhase();

  /// The exclusive flip window of either schedule: brings every entry up to
  /// date (final delta-log drain for captured entries, wholesale refresh
  /// for the rest) and commits. Records the window as flip_keys/flip_ns.
  /// Requires the exclusive catalog lock.
  Status FlipLocked(Job* job);

  /// The commit: drop stale tables, install staged content, flip the
  /// materialization bits, bump the epoch (last, so every failure path
  /// leaves the epoch — and with it the plan cache — exactly untouched)
  /// and prewarm the plan cache for the new epoch. Requires the exclusive
  /// catalog lock. All-or-nothing via a storage snapshot.
  Status CommitLocked(Job* job);

  /// Derives `keys` of `e->tv` through the normal latched point-read path.
  /// Requires the catalog lock (shared or exclusive).
  Status DeriveKeysLocked(StagedEntry* e, const std::vector<int64_t>& keys,
                          DerivedRows* out);

  /// Takes the whole delta log of `e` and re-derives it; keys rewritten
  /// mid-drain stay pending for the next round. `final_drain` (exclusive
  /// lock held, no writers) applies unconditionally and must leave the log
  /// empty. Adds the number of keys drained to `*work`.
  Status DrainEntry(StagedEntry* e, bool final_drain, int64_t* work);

  /// Wholesale re-derivation of a refresh-path entry (non-key-stable data
  /// table or aux table) when its dirty stamp moved. Data tables re-derive
  /// under the shared lock through the latched scan path; aux derivation
  /// reads aux state outside the latch protocol, so it runs under a brief
  /// exclusive section unless the caller already holds one.
  Status RefreshEntry(StagedEntry* e, bool exclusive_held, int64_t* work);

  Status AbortedStatus() const;
  /// Worker exit: detaches capture, destroys the job, then Conclude.
  void Finish(Status status);
  /// Records the terminal phase, result and counters of the current
  /// migration and wakes Wait().
  void Conclude(Status status);

  Inverda* owner_;
  obs::Observability* obs_;

  // Push metrics, cached at construction.
  obs::Counter* mig_started_;
  obs::Counter* mig_committed_;
  obs::Counter* mig_aborted_;
  obs::Counter* mig_failed_;
  obs::Counter* mig_rows_copied_;
  obs::Counter* mig_chunks_;
  obs::Counter* mig_keys_captured_;
  obs::Counter* mig_keys_drained_;
  obs::Counter* mig_refreshes_;
  obs::Histogram* mig_chunk_ns_;
  obs::Histogram* mig_flip_ns_;

  // Progress counters (atomic: capture threads and Snapshot() read/write
  // them while the worker runs).
  std::atomic<int64_t> rows_copied_{0};
  std::atomic<int64_t> chunks_{0};
  std::atomic<int64_t> keys_captured_{0};
  std::atomic<int64_t> keys_drained_{0};
  std::atomic<int64_t> catchup_rounds_{0};
  std::atomic<int64_t> refreshes_{0};
  std::atomic<int64_t> flip_keys_{0};
  std::atomic<int64_t> flip_ns_{0};

  std::atomic<bool> active_{false};
  std::atomic<bool> abort_{false};
  std::atomic<int> phase_{static_cast<int>(Phase::kIdle)};

  // The staged state. Written only under the facade's exclusive catalog
  // lock (Start installs, Finish tears down); capture threads read it under
  // the shared lock, so the pointer never races.
  std::unique_ptr<Job> job_;

  mutable std::mutex mu_;  // guards label_/result_/last_id_ and the cv
  std::condition_variable cv_;
  std::string label_;
  Status result_;
  int64_t last_id_ = 0;

  /// Serializes admission: held across Reap, staging and the worker_
  /// spawn, so two concurrent Start calls can never both pass the active()
  /// check (the loser would overwrite job_ under the winner's live worker
  /// and assign to a still-joinable worker_). Acquired before catalog_mu_;
  /// never taken by the worker thread or the inline schedule.
  std::mutex start_mu_;
  std::thread worker_;
  TestHooks hooks_;
};

}  // namespace migrate
}  // namespace inverda

#endif  // INVERDA_MIGRATE_COORDINATOR_H_
