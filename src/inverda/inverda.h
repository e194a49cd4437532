#ifndef INVERDA_INVERDA_INVERDA_H_
#define INVERDA_INVERDA_INVERDA_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "catalog/catalog.h"
#include "expr/expression.h"
#include "mapping/side.h"
#include "migrate/coordinator.h"
#include "obs/observability.h"
#include "plan/compiler.h"
#include "plan/plan.h"
#include "storage/database.h"
#include "util/status.h"
#include "verify/verifier.h"

namespace inverda {

class Inverda;

/// Implements AccessBackend on top of the catalog and physical storage: it
/// is the executable form of the generated delta code. A thin executor
/// over compiled access plans (src/plan): each operation resolves the
/// table version's plan — a cache hit on the hot path, one compile per
/// materialization epoch otherwise — and executes its first step; the
/// mapping kernels recurse through the rest of the chain (Figure 6's three
/// cases applied transitively).
///
/// Concurrency (docs/concurrency.md): every top-level operation latches the
/// physical tables in its plan's footprint through the database's
/// LatchRegistry — shared for pure reads, exclusive for writes and for
/// plans whose read path mutates id state (TvPlan::derive_mutates) — so
/// reads across any mix of schema versions run fully in parallel and
/// conflict only when their footprints overlap a writer's. Kernel recursion
/// re-enters under the top-level latch set (a thread-local depth counter
/// suppresses nested acquisition). Catalog-shape changes never race with
/// operations: the Inverda facade serializes DDL against all data access.
/// The configuration setters (set_cache_enabled, set_batch_enabled,
/// set_fusion_enabled, set_verify_enabled) are not thread-safe; configure
/// before going concurrent.
class AccessLayer : public AccessBackend {
 public:
  /// `obs` is the owning facade's observability bundle: the constructor
  /// caches counter/histogram pointers for the hot paths and registers the
  /// plan cache, view cache and compiler as pull-sources of the registry.
  AccessLayer(VersionCatalog* catalog, Database* db, obs::Observability* obs);

  Status ScanVersion(TvId tv, const RowCallback& fn) override;
  Status ScanVersionBatch(TvId tv, RowBatch* out,
                          const std::vector<int>* columns = nullptr) override;
  Result<std::optional<Row>> FindVersion(TvId tv, int64_t key) override;
  Status ApplyToVersion(TvId tv, const WriteSet& writes) override;
  Database& db() override { return *db_; }

  /// Builds the execution context of one SMO instance under the current
  /// materialization (delegates to the plan compiler; used by migration to
  /// derive aux tables for a flipped state).
  Result<SmoContext> BuildContext(SmoId id);

  /// Number of SMO instances a read/write of `tv` is propagated through
  /// before reaching physical data (0 when physical). This is the compiled
  /// plan's step count.
  Result<int> PropagationDistance(TvId tv);

  /// The compiled access plan of `tv` under the current materialization
  /// epoch, caching on first use. The pointer stays valid until the next
  /// evolution, migration, or drop. Used by EXPLAIN and the executor.
  Result<const plan::TvPlan*> GetPlan(TvId tv);

  /// Always true: every access executes its version's cached compiled
  /// plan (there is no per-access resolution mode). Kept as a constant for
  /// configuration reports that print it.
  bool plan_cache_enabled() const { return true; }

  /// Batch-execution toggle: when enabled (default) full scans — and view
  /// cache fills — derive through the kernels' columnar batch entry
  /// points; when disabled they run row-at-a-time, the unbatched reference
  /// that bench/microbench_plan and the batch/fusion equivalence tests
  /// compare against. Not thread-safe; configure before going concurrent.
  void set_batch_enabled(bool enabled) { batch_enabled_ = enabled; }
  bool batch_enabled() const { return batch_enabled_; }

  /// Fusion toggle (plan/fused.h): forwards to the plan compiler and drops
  /// every cached plan so subsequent compiles reflect the setting. On by
  /// default; the off state is the hop-by-hop baseline. Not thread-safe.
  void set_fusion_enabled(bool enabled) {
    compiler_.set_fusion_enabled(enabled);
    plan_cache_.Clear();
  }
  bool fusion_enabled() const { return compiler_.fusion_enabled(); }

  /// Post-compile verification gate (verify/verifier.h): forwards to the
  /// plan compiler and drops every cached plan so subsequent compiles pass
  /// through the gate. Off by default; rejected fusions are counted in the
  /// registry as plan_verify.fusion_rejected. Not thread-safe.
  void set_verify_enabled(bool enabled) {
    compiler_.set_verify_enabled(enabled);
    plan_cache_.Clear();
  }
  bool verify_enabled() const { return compiler_.verify_enabled(); }

  /// Arms the compiler's intentional fusion miscompile (mutation self-test)
  /// and drops cached plans so it takes effect immediately. Test-only; not
  /// thread-safe.
  void set_fusion_mutation_for_test(plan::FusionMutation mutation) {
    compiler_.set_fusion_mutation_for_test(mutation);
    plan_cache_.Clear();
  }

  /// Diagnostics the verify gate emitted while rejecting fusions (drains).
  std::vector<Diagnostic> TakeVerifyDiagnostics() {
    return compiler_.TakeVerifyDiagnostics();
  }

  /// The plan compiler, for catalog-wide verification (VerifyGenealogy)
  /// and other read-only consumers.
  const plan::PlanCompiler& compiler() const { return compiler_; }

  /// Optional derived-view cache — the paper's future-work item (4),
  /// "optimized delta code": full scans of virtual table versions are
  /// memoized as compacted, key-ordered RowBatches together with a
  /// dependency fingerprint (the name and dirty epoch of every physical
  /// table the derivation can read). Scans stream or copy the stored
  /// columns; point lookups binary-search its keys. Entries validate in
  /// O(path length) against the current epochs, writes
  /// invalidate only the entries whose derivation path shares a physical
  /// table with the write's propagation chain, and migrations invalidate
  /// only the versions whose access path passes through a flipped SMO
  /// instance (via the catalog's reachability index). Off by default (the
  /// paper's prototype recomputes views per query, which is what the
  /// figures measure); see bench/ablation_view_cache.
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  bool cache_enabled() const { return cache_enabled_; }

  /// While alive, the calling thread's reads neither consult nor fill the
  /// view cache (writes still invalidate it). Migration backfill reads
  /// derive pre-migration content the flip evicts anyway; caching it would
  /// hold a full copy of each staged view until then.
  class CacheBypass {
   public:
    CacheBypass();
    ~CacheBypass();
    CacheBypass(const CacheBypass&) = delete;
    CacheBypass& operator=(const CacheBypass&) = delete;
  };

  /// Drops all cached derived views (schema drops and explicit resets;
  /// bench/ablation_view_cache also calls it to emulate clear-all
  /// invalidation).
  void InvalidateCache();

  /// Genealogy-scoped invalidation after the materialization state of the
  /// `flipped` SMO instances changed: drops exactly the cached versions
  /// whose access path can pass through one of them. Called by the
  /// migration operation.
  void InvalidateForMigration(const std::set<SmoId>& flipped);

  /// Migration write capture (docs/migration.md): when an observer is
  /// installed — always under the facade's exclusive DDL lock — every
  /// top-level ApplyToVersion reports its write set after the data landed,
  /// while the writer still holds the shared catalog lock. That ordering is
  /// what makes the coordinator's delta log complete: a backfill derivation
  /// that read pre-write data either finds the key queued for replay or is
  /// followed by the key (re)entering the log.
  void set_write_observer(migrate::WriteObserver* observer) {
    write_observer_.store(observer, std::memory_order_release);
  }

  /// Compiles the plan of every live table version under the current
  /// materialization epoch into the plan cache. The migration flip calls
  /// this inside its exclusive window (the dual-plan epoch window): the old
  /// epoch's plans serve until the flip, and the first post-flip access of
  /// each version hits a warm cache. Returns the first compile error.
  Status PrewarmPlans();

  /// Per-table-version cache statistics (returned by value: a snapshot).
  struct VersionCacheStats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t invalidations = 0;
  };
  std::map<TvId, VersionCacheStats> cache_stats() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_stats_;
  }

  /// The trace of the calling thread's most recent top-level write
  /// propagation: the table versions it traversed and the physical tables
  /// it may have touched. Thread-local, so concurrent clients never see
  /// each other's traces.
  const WriteTrace& last_write_trace() const { return last_trace_; }

  /// Per-table-version operation counters — the advisor's lifetime
  /// workload signal: top-level reads (scan/find) and writes (apply) per
  /// TvId since startup or the last ResetMetrics. Always on (one relaxed
  /// fetch_add per top-level operation); table versions beyond
  /// kMaxProfiledTvs go uncounted. Returns (reads, writes) per TvId,
  /// zero-count versions omitted.
  std::map<TvId, std::pair<int64_t, int64_t>> AccessProfile() const;
  void ResetAccessProfile();

 private:
  /// The body of ApplyToVersion; the public entry point wraps it with the
  /// migration write-capture hook so every exit path reports exactly once.
  Status ApplyToVersionImpl(TvId tv, const WriteSet& writes);

  /// Latches the operation's physical footprint at the top level of an
  /// access (a no-op when the calling thread is already inside one — kernel
  /// recursion runs under the enclosing latch set). Pure reads take shared
  /// latches on the plan's footprint; writes and plans whose Derive mutates
  /// id state take them exclusively.
  void AcquireLatches(TableLatchSet* latches, const plan::TvPlan& p,
                      bool write, bool timed);

  /// Key-scoped variant for operations on a *physical* single-table plan:
  /// with a sharded store, latches only the shards `keys` route to, so
  /// writers hitting different shards of the same data table run in
  /// parallel. Falls back to AcquireLatches whenever key-scoping does not
  /// apply (virtual plan, unsharded registry, plans whose
  /// footprint is wider than the data table).
  void AcquireLatchesForKeys(TableLatchSet* latches, const plan::TvPlan& p,
                             const std::vector<int64_t>& keys, bool write,
                             bool timed);

  /// True when AcquireLatchesForKeys would actually key-scope for plan `p`
  /// (callers check this before materializing a key vector, so the
  /// unsharded hot path never allocates).
  bool KeyScopedEligible(const plan::TvPlan& p) const;

  /// One memoized derived view plus its dependency fingerprint: the name
  /// and dirty epoch of every physical table (data and auxiliary) the
  /// derivation can read under the materialization it was built in. The
  /// entry is valid iff every epoch still matches. The view is a compacted
  /// batch (no selection bitmap) in ascending key order, shared so a
  /// returned view survives a concurrent eviction.
  struct CacheEntry {
    std::shared_ptr<const RowBatch> view;
    std::vector<std::pair<std::string, uint64_t>> deps;  // name -> epoch
  };

  /// The cached view of virtual plan `p`'s version: a validated hit, or on
  /// a miss a full derivation (batched when batching is on) that is stored
  /// before it is returned. Every lookup is accounted as exactly one hit or
  /// one miss through RecordCacheLookupLocked — the single accounting
  /// point for the aggregate and per-version counters. `span` (may be
  /// null) is the operation's trace span, noted on a hit.
  Result<std::shared_ptr<const RowBatch>> CachedView(const plan::TvPlan& p,
                                                     uint32_t hot,
                                                     obs::TraceSpan* span);
  void RecordCacheLookupLocked(TvId tv, bool hit);  // requires cache_mu_

  /// The one instrumented derive: runs `p`'s first step into `out` — a
  /// columnar full derive for a RowBatch, a row-at-a-time derive
  /// restricted to `key` (if given) for a Table. With a gate on (`hot`)
  /// it records a "derive" span, the kernel's derive timer and its
  /// derive_rows counter.
  template <typename Out>
  Status DeriveFirstStep(const plan::TvPlan& p, uint32_t hot, Out* out,
                         std::optional<int64_t> key = std::nullopt);

  /// Eager scoped invalidation before a write propagates along plan `p`:
  /// drops the entries whose fingerprint intersects the write's possible
  /// footprint, using the genealogy component as a cheap pre-filter.
  void InvalidateForWrite(const plan::TvPlan& p);
  void EraseCacheEntryLocked(TvId tv);  // requires cache_mu_ held

  /// Internal accounting behind the registry's view_cache pull-source and
  /// its reset hook. The public surface is Inverda::Metrics() /
  /// Inverda::ResetMetrics() (docs/observability.md).
  void ResetCacheStats();
  int64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  int64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }
  int64_t cache_invalidations() const {
    return cache_invalidations_.load(std::memory_order_relaxed);
  }
  int64_t cache_size() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return static_cast<int64_t>(cache_.size());
  }

  /// Per-kernel latency/row metrics, resolved from the kernel's stable
  /// singleton pointer through a small lock-free slot array (the mutex is
  /// only taken once per distinct kernel, to register it). Returns nullptr
  /// past kMaxKernels distinct kernels (such a kernel goes unmetered).
  struct KernelMetrics {
    obs::Histogram* derive_ns = nullptr;
    obs::Histogram* propagate_ns = nullptr;
    obs::Counter* derive_rows = nullptr;
    obs::Counter* rows_visited = nullptr;  // propagate steps (RowsVisited)
  };
  KernelMetrics* MetricsForKernel(const Kernel* kernel);

  VersionCatalog* catalog_;
  Database* db_;

  obs::Observability* obs_;
  // Hot-path metric pointers, cached once at construction.
  obs::Histogram* scan_ns_;
  obs::Histogram* find_ns_;
  obs::Histogram* apply_ns_;
  obs::Histogram* latch_ns_;
  obs::Counter* latch_fine_;
  obs::Counter* latch_escalations_;
  obs::Counter* latch_key_scoped_;
  // Shard-parallel executor counters, bumped when a fan-out actually runs.
  obs::Counter* parallel_scans_;
  obs::Counter* parallel_applies_;

  static constexpr size_t kMaxKernels = 16;
  struct KernelSlot {
    std::atomic<const Kernel*> kernel{nullptr};
    KernelMetrics metrics;
  };
  std::array<KernelSlot, kMaxKernels> kernel_slots_;
  std::mutex kernel_slots_mu_;  // serializes slot registration only

  /// Per-version access counters, indexed directly by TvId (ids are small
  /// and dense — the catalog hands them out sequentially). Lock-free on
  /// the hot path: one relaxed fetch_add at the top level of an access.
  static constexpr int kMaxProfiledTvs = 256;
  struct TvAccessSlot {
    std::atomic<int64_t> reads{0};
    std::atomic<int64_t> writes{0};
  };
  std::array<TvAccessSlot, kMaxProfiledTvs> tv_access_;
  void CountAccess(TvId tv, bool write) {
    if (access_depth_ != 0) return;  // kernel recursion is one client op
    if (tv < 0 || tv >= kMaxProfiledTvs) return;
    TvAccessSlot& slot = tv_access_[static_cast<size_t>(tv)];
    (write ? slot.writes : slot.reads).fetch_add(1, std::memory_order_relaxed);
  }

  plan::PlanCompiler compiler_;
  plan::PlanCache plan_cache_;
  bool batch_enabled_ = true;

  bool cache_enabled_ = false;
  // Guards cache_ and cache_stats_. Never held while deriving or latching.
  mutable std::mutex cache_mu_;
  std::map<TvId, CacheEntry> cache_;
  std::map<TvId, VersionCacheStats> cache_stats_;
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> cache_invalidations_{0};
  // Migration write-capture sink; null outside an active migration.
  std::atomic<migrate::WriteObserver*> write_observer_{nullptr};
  // Recursion depth of the calling thread across ScanVersion / FindVersion
  // / ApplyToVersion: latches are taken and the write trace collected only
  // at the top level of an access chain.
  static thread_local int access_depth_;
  static thread_local WriteTrace last_trace_;
  // Live CacheBypass guards on the calling thread.
  static thread_local int cache_bypass_depth_;

  // Whether this thread's reads go through the view cache.
  bool UseCache() const { return cache_enabled_ && cache_bypass_depth_ == 0; }
};

/// One materialization request — the single argument of the unified
/// Materialize entry point. Exactly one variant must be set: `targets`
/// (MATERIALIZE syntax, "Version" or "Version.table") or an explicit
/// materialization `schema` (SMO instance ids). `online` selects the
/// non-blocking coordinator path (docs/migration.md); `wait` (online only)
/// additionally blocks until the background migration reaches a terminal
/// phase and returns its terminal status. The blocking path is inherently
/// synchronous, so it ignores `wait`.
struct MaterializeRequest {
  std::vector<std::string> targets;
  std::optional<std::set<SmoId>> schema;
  bool online = false;
  bool wait = true;

  static MaterializeRequest Targets(std::vector<std::string> t,
                                    bool online = false, bool wait = true) {
    MaterializeRequest r;
    r.targets = std::move(t);
    r.online = online;
    r.wait = wait;
    return r;
  }
  static MaterializeRequest Schema(std::set<SmoId> m, bool online = false,
                                   bool wait = true) {
    MaterializeRequest r;
    r.schema = std::move(m);
    r.online = online;
    r.wait = wait;
    return r;
  }
};

/// The InVerDa facade: schema evolution (BiDEL), migration (MATERIALIZE),
/// and per-version data access against a single shared data set.
///
/// Thread-safe: any number of client threads may run the data-access
/// operations concurrently (each takes the catalog lock shared; actual
/// data conflicts are resolved by the access layer's per-table latches),
/// while the DDL operations — CreateSchemaVersion, DropSchemaVersion,
/// Materialize — take it exclusively, so every access observes the catalog
/// and its materialization epoch either entirely before or entirely after
/// a schema change, never a torn route. Introspection accessors (catalog(),
/// db(), access()) hand out unguarded references; use them from a single
/// thread or during quiesce.
class Inverda {
 public:
  /// `shards` <= 0 takes the process default (INVERDA_SHARDS, else 1): the
  /// number of hash-partitioned shards every physical table splits its rows
  /// into (docs/storage.md). One shard is the pre-sharding engine, bit for
  /// bit.
  explicit Inverda(int shards = 0);

  Inverda(const Inverda&) = delete;
  Inverda& operator=(const Inverda&) = delete;

  // --- developer interface --------------------------------------------------

  /// Parses and executes a BiDEL script: any number of CREATE SCHEMA
  /// VERSION / DROP SCHEMA VERSION / MATERIALIZE statements.
  Status Execute(const std::string& bidel_script);

  /// The Database Evolution Operation: registers the evolution and creates
  /// all physical tables and delta code state. The new schema version is
  /// immediately readable and writable.
  Status CreateSchemaVersion(const EvolutionStatement& stmt);

  Status DropSchemaVersion(const std::string& name);

  // --- DBA interface ---------------------------------------------------------

  /// The Database Migration Operation, unified entry point: moves the
  /// physical data so the requested targets (or the explicit schema) are
  /// physically stored, migrates auxiliary state, and drops stale physical
  /// tables. One engine, the MigrationCoordinator, with two schedules.
  /// Blocking by default: the coordinator stages, derives and commits
  /// inline under the exclusive DDL lock, all-or-nothing with rollback on
  /// failure. `request.online` runs it in the background instead — readers
  /// and writers keep running while the coordinator backfills
  /// chunk-by-chunk and replays concurrently captured writes, and the
  /// commit is a brief exclusive epoch flip. Both schedules count in the
  /// migrate.* metrics and MigrationState(). While an online migration is
  /// active all other DDL (evolution, drops, blocking MATERIALIZE,
  /// Reshard, a second online migration) is rejected with InvalidState.
  Status Materialize(const MaterializeRequest& request);

  // --- online migration (docs/migration.md) ----------------------------------

  /// Blocks until no migration is active; returns the terminal status of
  /// the last migration (OK when none ran or it committed).
  Status WaitForMigration();

  /// Requests abort of the active migration and waits for the unwind; the
  /// live database and the plan-cache epoch come back untouched. OK when
  /// the migration ended aborted or had already committed.
  Status AbortMigration();

  /// Progress snapshot of the migration coordinator (shell MIGRATIONS).
  migrate::MigrationStatus MigrationState() const { return migrate_.Snapshot(); }

  /// Fault-injection/pacing hooks for the migration test battery.
  void set_migration_test_hooks(migrate::TestHooks hooks) {
    migrate_.set_test_hooks(std::move(hooks));
  }

  // --- materialization advisor (docs/advisor.md) ------------------------------

  /// Profiles the observed workload (or explicit weights), prices every
  /// valid materialization schema through the cost model, and returns the
  /// ranked report. Runs under the shared catalog lock, concurrently with
  /// client traffic.
  Result<advisor::AdviseReport> Advise(
      const advisor::AdviseOptions& options = {}) {
    return advisor_.Recommend(options);
  }

  /// The advisor subsystem itself: auto-materialize knobs
  /// (set_auto_materialize_enabled, threshold, cooldown) and AutoTick.
  advisor::Advisor& advisor() { return advisor_; }
  const advisor::Advisor& advisor() const { return advisor_; }

  // --- data access -----------------------------------------------------------

  /// Full scan of `table` as visible in schema version `version`.
  Result<std::vector<KeyedRow>> Select(const std::string& version,
                                       const std::string& table);

  /// Scan with a predicate over the version's payload columns.
  Result<std::vector<KeyedRow>> SelectWhere(const std::string& version,
                                            const std::string& table,
                                            const Expression& predicate);

  /// Point lookup by the InVerDa-managed key.
  Result<std::optional<Row>> Get(const std::string& version,
                                 const std::string& table, int64_t key);

  /// Inserts a row; the key is drawn from the global sequence and returned.
  Result<int64_t> Insert(const std::string& version, const std::string& table,
                         Row row);

  Status Update(const std::string& version, const std::string& table,
                int64_t key, Row row);
  Status Delete(const std::string& version, const std::string& table,
                int64_t key);

  /// Updates all rows matching `predicate` with `make_row(old)`; returns the
  /// number of affected rows.
  Result<int64_t> UpdateWhere(const std::string& version,
                              const std::string& table,
                              const Expression& predicate,
                              const std::function<Row(const Row&)>& make_row);

  /// Deletes all rows matching `predicate`; returns the number deleted.
  Result<int64_t> DeleteWhere(const std::string& version,
                              const std::string& table,
                              const Expression& predicate);

  // --- introspection ----------------------------------------------------------

  const VersionCatalog& catalog() const { return catalog_; }
  VersionCatalog& catalog() { return catalog_; }
  Database& db() { return db_; }
  AccessLayer& access() { return access_; }

  /// The active shard count of the physical store.
  int shards() const { return db_.shards(); }

  /// Re-partitions every physical table into `shards` shards (clamped to
  /// [1, kMaxShards]). Takes the DDL-exclusive lock, so it never races
  /// with data access; content, plans and footprints are unchanged.
  Status Reshard(int shards);

  // --- observability ---------------------------------------------------------

  /// The unified stats surface (docs/observability.md): every component's
  /// counters and latency histograms — plan cache, view cache, compiler,
  /// latches, per-kernel timings, tracer — in one registry. Safe to
  /// snapshot concurrently with client traffic.
  obs::MetricsRegistry& Metrics() { return obs_.metrics; }
  const obs::MetricsRegistry& Metrics() const { return obs_.metrics; }

  /// The single reset point: zeroes every push metric and invokes every
  /// component's reset hook (plan-cache stats, view-cache stats).
  /// Monotonic sources (compiler walk counters, trace.completed) keep
  /// their values. Replaces ResetPlanStats() + ResetCacheStats().
  void ResetMetrics() { obs_.metrics.Reset(); }

  /// Per-operation access tracing (TRACE ON|OFF|LAST in the shell). Off by
  /// default; toggling is safe while clients run.
  obs::Tracer& tracer() { return obs_.tracer; }
  const obs::Tracer& tracer() const { return obs_.tracer; }

  obs::Observability& observability() { return obs_; }

  /// Statically verifies every compiled plan of the current genealogy
  /// (verify/verifier.h): GetPut/PutGet round-trip obligations per hop,
  /// translation validation of fused steps, and the cross-plan lock-order
  /// analysis. Runs under the shared catalog lock, so it can execute
  /// concurrently with client traffic; fails only on compile errors —
  /// verification findings come back as diagnostics in the summary.
  Result<verify::VerifySummary> VerifyPlans(
      const verify::VerifyOptions& options = {});

  /// The payload schema of `table` in `version`.
  Result<TableSchema> GetSchema(const std::string& version,
                                const std::string& table);

 private:
  friend class AccessLayer;
  friend class migrate::MigrationCoordinator;
  friend class advisor::Advisor;

  // Creates the physical tables required by a freshly registered SMO
  // instance (data tables of physically-stored targets + aux tables of the
  // initial state).
  Status ProvisionSmo(SmoId id);

  Result<TvId> Resolve(const std::string& version, const std::string& table);

  // Bodies of the public operations that other operations call internally;
  // they assume the caller already holds catalog_mu_ (shared_mutex is not
  // recursive, so the public wrappers must not re-enter each other).
  Result<std::vector<KeyedRow>> SelectWhereLocked(const std::string& version,
                                                  const std::string& table,
                                                  const Expression& predicate);

  /// Resolves MATERIALIZE targets ("Version" or "Version.table") to the
  /// materialization schema they imply (requires catalog_mu_).
  Result<std::set<SmoId>> ResolveMaterializationLocked(
      const std::vector<std::string>& targets);

  /// InvalidState while an online migration is active; DDL callers check
  /// this after taking the exclusive lock.
  Status CheckNoActiveMigration() const;

  // The DDL/DML boundary: shared for data access, exclusive for schema
  // evolution, migration, and version drops.
  mutable std::shared_mutex catalog_mu_;

  VersionCatalog catalog_;
  Database db_;
  // Declared before access_: the access layer caches registry pointers and
  // registers pull-sources in its constructor, and those sources must
  // outlive it on destruction (members destroy in reverse order).
  obs::Observability obs_;
  AccessLayer access_;
  // No background thread of its own; evaluations run on whichever client
  // thread crosses the check interval (after releasing its shared lock).
  advisor::Advisor advisor_;
  // Declared last: destroys first, joining any in-flight migration worker
  // while the catalog, storage, access layer and advisor are still alive.
  migrate::MigrationCoordinator migrate_;
};

}  // namespace inverda

#endif  // INVERDA_INVERDA_INVERDA_H_
