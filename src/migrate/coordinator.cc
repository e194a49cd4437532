#include "migrate/coordinator.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <utility>

#include "inverda/inverda.h"
#include "obs/observability.h"

namespace inverda {
namespace migrate {
namespace {

constexpr int kDefaultChunkKeys = 512;
constexpr int kMaxCatchUpRounds = 8;

// True when every SMO touching `component` maps a write with key set K to
// view changes at keys within K. Column SMOs, renames, partition SPLIT/
// MERGE and PK-method DECOMPOSE/JOIN all carry the InVerDa key `p`
// unchanged between source and target rows; DECOMPOSE/JOIN with an FK or
// condition method generate rows under fresh identifiers, so a write with
// key k can move a derived row with a different key — those components
// fall back to wholesale refresh.
bool ComponentKeyStable(const VersionCatalog& catalog,
                        const std::set<TvId>& component) {
  for (SmoId id : catalog.AllSmos()) {
    const SmoInstance& inst = catalog.smo(id);
    bool touches = false;
    for (TvId tv : inst.sources) touches = touches || component.count(tv) > 0;
    for (TvId tv : inst.targets) touches = touches || component.count(tv) > 0;
    if (!touches) continue;
    if (inst.smo->kind() == SmoKind::kDecompose) {
      const auto& smo = static_cast<const DecomposeSmo&>(*inst.smo);
      if (smo.method() != VerticalMethod::kPk) return false;
    } else if (inst.smo->kind() == SmoKind::kJoin) {
      const auto& smo = static_cast<const JoinSmo&>(*inst.smo);
      if (smo.method() != VerticalMethod::kPk) return false;
    }
  }
  return true;
}

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kIdle:
      return "idle";
    case Phase::kCopy:
      return "copy";
    case Phase::kCatchUp:
      return "catchup";
    case Phase::kFlip:
      return "flip";
    case Phase::kDone:
      return "done";
    case Phase::kAborted:
      return "aborted";
    case Phase::kFailed:
      return "failed";
  }
  return "?";
}

std::string FormatMigrationStatus(const MigrationStatus& status) {
  if (status.id == 0) return "no migration has run";
  std::ostringstream out;
  out << "#" << status.id << " " << PhaseName(status.phase)
      << " targets=" << status.label << " copied=" << status.rows_copied
      << " chunks=" << status.chunks << " captured=" << status.keys_captured
      << " drained=" << status.keys_drained
      << " rounds=" << status.catchup_rounds
      << " refreshes=" << status.refreshes
      << " flip_keys=" << status.flip_keys << " flip_us=" << status.flip_ns / 1000;
  if (!status.active && !status.result.ok()) {
    out << " error=" << status.result.message();
  }
  return out.str();
}

MigrationCoordinator::MigrationCoordinator(Inverda* owner,
                                           obs::Observability* obs)
    : owner_(owner), obs_(obs) {
  obs::MetricsRegistry& m = obs_->metrics;
  mig_started_ = m.counter("migrate.started");
  mig_committed_ = m.counter("migrate.committed");
  mig_aborted_ = m.counter("migrate.aborted");
  mig_failed_ = m.counter("migrate.failed");
  mig_rows_copied_ = m.counter("migrate.rows_copied");
  mig_chunks_ = m.counter("migrate.chunks");
  mig_keys_captured_ = m.counter("migrate.keys_captured");
  mig_keys_drained_ = m.counter("migrate.keys_drained");
  mig_refreshes_ = m.counter("migrate.refreshes");
  mig_chunk_ns_ = m.histogram("migrate.chunk_ns");
  mig_flip_ns_ = m.histogram("migrate.flip_ns");
  m.RegisterSource("migration", [this] {
    return std::vector<obs::MetricValue>{
        {"migration.active", active() ? 1 : 0},
        {"migration.phase",
         static_cast<int64_t>(phase_.load(std::memory_order_acquire))}};
  });
}

MigrationCoordinator::~MigrationCoordinator() {
  abort_.store(true, std::memory_order_release);
  if (worker_.joinable()) worker_.join();
}

void MigrationCoordinator::set_test_hooks(TestHooks hooks) {
  hooks_ = std::move(hooks);
}

Status MigrationCoordinator::Reap() {
  if (active()) {
    return Status::InvalidState("an online migration is already in progress");
  }
  if (worker_.joinable()) worker_.join();
  return Status::OK();
}

Status MigrationCoordinator::Start(const MaterializeRequest& request) {
  std::lock_guard<std::mutex> admission(start_mu_);
  INVERDA_RETURN_IF_ERROR(Reap());
  std::unique_lock<std::shared_mutex> ddl(owner_->catalog_mu_);
  auto job = std::make_unique<Job>();
  INVERDA_ASSIGN_OR_RETURN(bool has_work,
                           StageLocked(request, /*capture=*/true, job.get()));
  if (!has_work) {
    // Nothing to move: record a trivially committed migration.
    Admit(std::move(job->label), Phase::kDone);
    Conclude(Status::OK());
    return Status::OK();
  }
  Admit(std::move(job->label), Phase::kCopy);
  job_ = std::move(job);
  // Go live: from here every top-level write reports into the delta logs.
  owner_->access_.set_write_observer(this);
  active_.store(true, std::memory_order_release);
  ddl.unlock();
  worker_ = std::thread([this] { Run(); });
  return Status::OK();
}

Status MigrationCoordinator::RunInlineLocked(
    const MaterializeRequest& request) {
  Job job;
  INVERDA_ASSIGN_OR_RETURN(bool has_work,
                           StageLocked(request, /*capture=*/false, &job));
  // The whole inline run is one exclusive window, so it reports as a flip.
  Admit(std::move(job.label), has_work ? Phase::kFlip : Phase::kDone);
  Status status = has_work ? FlipLocked(&job) : Status::OK();
  Conclude(status);
  return status;
}

Result<bool> MigrationCoordinator::StageLocked(
    const MaterializeRequest& request, bool capture, Job* job) {
  // Re-check under the exclusive catalog lock, like every other DDL path
  // (start_mu_ already serializes the Start calls; this keeps the invariant
  // local and covers the inline schedule).
  if (active()) {
    return Status::InvalidState("an online migration is already in progress");
  }
  VersionCatalog& catalog = owner_->catalog_;
  std::set<SmoId> m;
  if (request.schema.has_value()) {
    m = *request.schema;
    job->label = "schema{";
    for (SmoId id : m) job->label += std::to_string(id) + " ";
    if (job->label.back() == ' ') job->label.back() = '}';
    else job->label += "}";
  } else {
    INVERDA_ASSIGN_OR_RETURN(
        m, owner_->ResolveMaterializationLocked(request.targets));
    for (const std::string& t : request.targets) {
      if (!job->label.empty()) job->label += ",";
      job->label += t;
    }
  }
  INVERDA_RETURN_IF_ERROR(catalog.CheckValidMaterialization(m));

  std::set<SmoId> old_m = catalog.CurrentMaterialization();
  if (old_m == m) return false;

  job->target_m = m;
  for (SmoId id : catalog.AllSmos()) {
    const SmoInstance& inst = catalog.smo(id);
    if (inst.smo->kind() == SmoKind::kCreateTable ||
        inst.smo->kind() == SmoKind::kDropTable) {
      continue;
    }
    bool was = old_m.count(id) > 0;
    bool will = m.count(id) > 0;
    if (was != will) job->flipping.push_back(id);
  }
  for (TvId tv : catalog.PhysicalTables(old_m)) job->old_physical.insert(tv);
  for (TvId tv : catalog.PhysicalTables(m)) job->new_physical.insert(tv);

  // Staged data tables: every newly physical relation.
  for (TvId tv : job->new_physical) {
    if (job->old_physical.count(tv)) continue;
    TableSchema schema = catalog.table_version(tv).schema;
    schema.set_name(catalog.DataTableName(tv));
    auto entry = std::make_unique<StagedEntry>(
        Table(std::move(schema), owner_->db_.shards()));
    entry->tv = tv;
    entry->physical_name = catalog.DataTableName(tv);
    entry->component = catalog.ComponentOf(tv);
    entry->key_stable =
        capture && ComponentKeyStable(catalog, entry->component);
    job->entries.push_back(std::move(entry));
  }
  // Staged aux tables: the flipped side's newly required aux, always on the
  // wholesale-refresh path (aux derivation bypasses the latched scan path).
  for (SmoId id : job->flipping) {
    const SmoInstance& inst = catalog.smo(id);
    bool new_state = m.count(id) > 0;
    std::vector<std::string> old_aux =
        catalog.PhysicalAuxNames(id, inst.materialized);
    for (const std::string& aux : catalog.PhysicalAuxNames(id, new_state)) {
      bool existed = false;
      for (const std::string& o : old_aux) {
        if (o == aux) existed = true;
      }
      if (existed) continue;
      const AuxDef* def = nullptr;
      for (const AuxDef& d : inst.aux_defs) {
        if (d.short_name == aux) def = &d;
      }
      if (def == nullptr) {
        return Status::Internal("aux definition missing: " + aux);
      }
      std::string physical_name = catalog.AuxTableName(id, aux);
      auto entry = std::make_unique<StagedEntry>(
          Table(def->PhysicalSchema(physical_name), owner_->db_.shards()));
      entry->aux_smo = id;
      entry->aux_short = aux;
      entry->physical_name = std::move(physical_name);
      TvId anchor = inst.targets.empty() ? inst.sources[0] : inst.targets[0];
      entry->component = catalog.ComponentOf(anchor);
      entry->key_stable = false;
      job->entries.push_back(std::move(entry));
    }
  }
  return true;
}

void MigrationCoordinator::Admit(std::string label, Phase phase) {
  rows_copied_.store(0);
  chunks_.store(0);
  keys_captured_.store(0);
  keys_drained_.store(0);
  catchup_rounds_.store(0);
  refreshes_.store(0);
  flip_keys_.store(0);
  flip_ns_.store(0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    label_ = std::move(label);
    last_id_ += 1;
  }
  abort_.store(false, std::memory_order_release);
  phase_.store(static_cast<int>(phase), std::memory_order_release);
  mig_started_->Add(1);
}

Status MigrationCoordinator::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !active(); });
  return result_;
}

Status MigrationCoordinator::Abort() {
  if (!active()) return Status::OK();
  abort_.store(true, std::memory_order_release);
  Status terminal = Wait();
  Phase phase = static_cast<Phase>(phase_.load(std::memory_order_acquire));
  if (phase == Phase::kAborted || phase == Phase::kDone) return Status::OK();
  return terminal;
}

MigrationStatus MigrationCoordinator::Snapshot() const {
  MigrationStatus s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.id = last_id_;
    s.label = label_;
    s.result = result_;
  }
  s.active = active();
  s.phase = static_cast<Phase>(phase_.load(std::memory_order_acquire));
  s.rows_copied = rows_copied_.load(std::memory_order_relaxed);
  s.chunks = chunks_.load(std::memory_order_relaxed);
  s.keys_captured = keys_captured_.load(std::memory_order_relaxed);
  s.keys_drained = keys_drained_.load(std::memory_order_relaxed);
  s.catchup_rounds = catchup_rounds_.load(std::memory_order_relaxed);
  s.refreshes = refreshes_.load(std::memory_order_relaxed);
  s.flip_keys = flip_keys_.load(std::memory_order_relaxed);
  s.flip_ns = flip_ns_.load(std::memory_order_relaxed);
  return s;
}

void MigrationCoordinator::OnWrite(TvId tv, const WriteSet& writes) {
  Job* job = job_.get();
  if (job == nullptr) return;
  int64_t captured = 0;
  for (const auto& entry : job->entries) {
    if (entry->component.count(tv) == 0) continue;
    if (entry->key_stable) {
      std::lock_guard<std::mutex> lock(entry->mu);
      for (const WriteOp& op : writes.ops) {
        if (entry->pending.insert(op.key).second) ++captured;
      }
    } else {
      entry->dirty.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  if (captured > 0) {
    keys_captured_.fetch_add(captured, std::memory_order_relaxed);
    mig_keys_captured_->Add(captured);
  }
}

Status MigrationCoordinator::AbortedStatus() const {
  return Status::InvalidState("online migration aborted");
}

void MigrationCoordinator::Run() { Finish(RunPhases()); }

Status MigrationCoordinator::RunPhases() {
  INVERDA_RETURN_IF_ERROR(EnterPhase(Phase::kCopy));
  INVERDA_RETURN_IF_ERROR(CopyPhase());
  INVERDA_RETURN_IF_ERROR(EnterPhase(Phase::kCatchUp));
  INVERDA_RETURN_IF_ERROR(CatchUpPhase());
  INVERDA_RETURN_IF_ERROR(EnterPhase(Phase::kFlip));
  return FlipPhase();
}

Status MigrationCoordinator::EnterPhase(Phase phase) {
  if (abort_.load(std::memory_order_acquire)) return AbortedStatus();
  phase_.store(static_cast<int>(phase), std::memory_order_release);
  if (hooks_.on_phase) INVERDA_RETURN_IF_ERROR(hooks_.on_phase(phase));
  return Status::OK();
}

Status MigrationCoordinator::CopyPhase() {
  Job* job = job_.get();
  const int chunk =
      hooks_.chunk_keys > 0 ? hooks_.chunk_keys : kDefaultChunkKeys;
  for (const auto& ep : job->entries) {
    StagedEntry* e = ep.get();
    if (e->tv < 0 || !e->key_stable) continue;
    // Candidate keys: one key-collecting scan of the staged view itself —
    // exact by definition (covers rows living only in aux state, e.g. a
    // SPLIT's non-matching remainder). The scan takes shared latches, so
    // concurrent readers proceed and only writers of this component wait
    // out the single pass; rows arriving later land in the delta log.
    std::vector<int64_t> keys;
    {
      std::shared_lock<std::shared_mutex> ddl(owner_->catalog_mu_);
      AccessLayer::CacheBypass uncached;
      INVERDA_RETURN_IF_ERROR(owner_->access_.ScanVersion(
          e->tv, [&keys](int64_t key, const Row&) { keys.push_back(key); }));
    }
    // Chunked backfill: each chunk re-acquires the shared DDL lock and
    // derives through the normal latched point-read path, so writers and
    // readers interleave between (and during) chunks.
    for (size_t at = 0; at < keys.size(); at += static_cast<size_t>(chunk)) {
      if (abort_.load(std::memory_order_acquire)) return AbortedStatus();
      size_t end = std::min(keys.size(), at + static_cast<size_t>(chunk));
      std::vector<int64_t> slice(keys.begin() + static_cast<int64_t>(at),
                                 keys.begin() + static_cast<int64_t>(end));
      {
        obs::ScopedTimer timer(mig_chunk_ns_);
        DerivedRows derived;
        {
          std::shared_lock<std::shared_mutex> ddl(owner_->catalog_mu_);
          INVERDA_RETURN_IF_ERROR(DeriveKeysLocked(e, slice, &derived));
        }
        std::lock_guard<std::mutex> lock(e->mu);
        for (auto& [key, row] : derived) {
          // A concurrently captured key is newer than this chunk's
          // derivation may be; leave it to the drain.
          if (e->pending.count(key) > 0) continue;
          if (row.has_value()) {
            INVERDA_RETURN_IF_ERROR(e->content.Upsert(key, std::move(*row)));
          } else {
            e->content.Erase(key);
          }
        }
      }
      rows_copied_.fetch_add(static_cast<int64_t>(slice.size()),
                             std::memory_order_relaxed);
      chunks_.fetch_add(1, std::memory_order_relaxed);
      mig_rows_copied_->Add(static_cast<int64_t>(slice.size()));
      mig_chunks_->Add(1);
      if (hooks_.after_chunk) hooks_.after_chunk();
    }
  }
  // Initial derivation of the wholesale-refresh entries.
  for (const auto& ep : job->entries) {
    StagedEntry* e = ep.get();
    if (e->tv >= 0 && e->key_stable) continue;
    if (abort_.load(std::memory_order_acquire)) return AbortedStatus();
    int64_t work = 0;
    INVERDA_RETURN_IF_ERROR(RefreshEntry(e, /*exclusive_held=*/false, &work));
    if (hooks_.after_chunk) hooks_.after_chunk();
  }
  return Status::OK();
}

Status MigrationCoordinator::CatchUpPhase() {
  Job* job = job_.get();
  for (int round = 0; round < kMaxCatchUpRounds; ++round) {
    if (abort_.load(std::memory_order_acquire)) return AbortedStatus();
    int64_t work = 0;
    for (const auto& ep : job->entries) {
      StagedEntry* e = ep.get();
      if (e->tv >= 0 && e->key_stable) {
        INVERDA_RETURN_IF_ERROR(DrainEntry(e, /*final_drain=*/false, &work));
      } else {
        INVERDA_RETURN_IF_ERROR(
            RefreshEntry(e, /*exclusive_held=*/false, &work));
      }
    }
    catchup_rounds_.fetch_add(1, std::memory_order_relaxed);
    if (work == 0) break;  // converged; a busy writer is cut off by the flip
  }
  return Status::OK();
}

Status MigrationCoordinator::FlipPhase() {
  std::unique_lock<std::shared_mutex> ddl(owner_->catalog_mu_);
  Status flipped = FlipLocked(job_.get());
  // Detach capture on every outcome: after a commit writes route into the
  // new physical tables directly and need no replay.
  owner_->access_.set_write_observer(nullptr);
  return flipped;
}

Status MigrationCoordinator::FlipLocked(Job* job) {
  obs::ScopedTimer flip_timer(mig_flip_ns_);
  auto flip_start = std::chrono::steady_clock::now();
  // Final pass. Captures happen under the shared catalog lock, so holding
  // it exclusively makes the delta logs complete and frozen: replaying them
  // now is exact, and the remaining work is proportional to the keys
  // written since the last catch-up round — the bounded flip window. The
  // inline schedule captured nothing, so every entry derives wholesale here.
  int64_t flip_work = 0;
  for (const auto& ep : job->entries) {
    StagedEntry* e = ep.get();
    if (e->tv >= 0 && e->key_stable) {
      INVERDA_RETURN_IF_ERROR(DrainEntry(e, /*final_drain=*/true, &flip_work));
    } else {
      INVERDA_RETURN_IF_ERROR(
          RefreshEntry(e, /*exclusive_held=*/true, &flip_work));
    }
  }
  flip_keys_.store(flip_work, std::memory_order_relaxed);
  if (hooks_.before_flip_commit) {
    INVERDA_RETURN_IF_ERROR(hooks_.before_flip_commit());
  }
  if (abort_.load(std::memory_order_acquire)) return AbortedStatus();
  Status committed = CommitLocked(job);
  flip_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - flip_start)
                     .count(),
                 std::memory_order_relaxed);
  return committed;
}

Status MigrationCoordinator::CommitLocked(Job* job) {
  VersionCatalog& catalog = owner_->catalog_;
  Database& db = owner_->db_;
  // Snapshot first so any failure restores the old world bit-for-bit. The
  // materialization bits flip — and the epoch bumps — only after every
  // fallible step succeeded, so a rolled-back commit leaves the plan cache
  // epoch exactly where it was.
  Database::SnapshotState snapshot = db.Snapshot();
  Status status = Status::OK();
  // Drop stale physical data tables.
  for (TvId tv : job->old_physical) {
    if (job->new_physical.count(tv)) continue;
    Status s = db.DropTable(catalog.DataTableName(tv));
    if (!s.ok()) status = s;
  }
  // Drop stale aux tables.
  for (SmoId id : job->flipping) {
    const SmoInstance& inst = catalog.smo(id);
    bool new_state = job->target_m.count(id) > 0;
    std::vector<std::string> keep = catalog.PhysicalAuxNames(id, new_state);
    for (const std::string& aux :
         catalog.PhysicalAuxNames(id, inst.materialized)) {
      bool kept = false;
      for (const std::string& k : keep) {
        if (k == aux) kept = true;
      }
      if (kept) continue;
      Status s = db.DropTable(catalog.AuxTableName(id, aux));
      if (!s.ok()) status = s;
    }
  }
  // Install the staged tables.
  if (status.ok()) {
    for (const auto& ep : job->entries) {
      Status s = db.CreateTable(ep->content.schema());
      if (!s.ok()) {
        status = s;
        break;
      }
      Result<Table*> table = db.GetTable(ep->physical_name);
      if (!table.ok()) {
        status = table.status();
        break;
      }
      **table = std::move(ep->content);
    }
  }
  if (!status.ok()) {
    db.Restore(std::move(snapshot));
    return status;
  }
  // Point of no return: flip the bits, bump the epoch, refresh caches.
  for (SmoId id : job->flipping) {
    catalog.mutable_smo(id).materialized = job->target_m.count(id) > 0;
  }
  if (!job->flipping.empty()) catalog.BumpMaterializationEpoch();
  owner_->access_.InvalidateForMigration(
      std::set<SmoId>(job->flipping.begin(), job->flipping.end()));
  // Dual-plan epoch window: while still exclusive, compile every live
  // version's plan under the new epoch so the first post-flip access of
  // each version hits a warm cache instead of paying a compile in its read
  // path. Best effort — a lazy compile would surface the same error.
  (void)owner_->access_.PrewarmPlans();
  return Status::OK();
}

Status MigrationCoordinator::DeriveKeysLocked(StagedEntry* e,
                                              const std::vector<int64_t>& keys,
                                              DerivedRows* out) {
  out->clear();
  out->reserve(keys.size());
  AccessLayer::CacheBypass uncached;
  for (int64_t key : keys) {
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> row,
                             owner_->access_.FindVersion(e->tv, key));
    out->emplace_back(key, std::move(row));
  }
  return Status::OK();
}

Status MigrationCoordinator::DrainEntry(StagedEntry* e, bool final_drain,
                                        int64_t* work) {
  // Take the whole delta log in one move; keys rewritten while we derive
  // re-enter `pending` through capture and are redone next round (or by the
  // final drain, which runs under the exclusive lock with no writers left).
  std::vector<int64_t> batch;
  {
    std::lock_guard<std::mutex> lock(e->mu);
    batch.assign(e->pending.begin(), e->pending.end());
    e->pending.clear();
  }
  if (batch.empty()) return Status::OK();
  const int chunk =
      hooks_.chunk_keys > 0 ? hooks_.chunk_keys : kDefaultChunkKeys;
  for (size_t at = 0; at < batch.size(); at += static_cast<size_t>(chunk)) {
    size_t end = std::min(batch.size(), at + static_cast<size_t>(chunk));
    std::vector<int64_t> slice(batch.begin() + static_cast<int64_t>(at),
                               batch.begin() + static_cast<int64_t>(end));
    DerivedRows derived;
    if (final_drain) {
      // Caller holds the catalog lock exclusively already.
      INVERDA_RETURN_IF_ERROR(DeriveKeysLocked(e, slice, &derived));
    } else {
      std::shared_lock<std::shared_mutex> ddl(owner_->catalog_mu_);
      INVERDA_RETURN_IF_ERROR(DeriveKeysLocked(e, slice, &derived));
    }
    std::lock_guard<std::mutex> lock(e->mu);
    for (auto& [key, row] : derived) {
      if (!final_drain && e->pending.count(key) > 0) continue;
      if (row.has_value()) {
        INVERDA_RETURN_IF_ERROR(e->content.Upsert(key, std::move(*row)));
      } else {
        e->content.Erase(key);
      }
    }
  }
  *work += static_cast<int64_t>(batch.size());
  keys_drained_.fetch_add(static_cast<int64_t>(batch.size()),
                          std::memory_order_relaxed);
  mig_keys_drained_->Add(static_cast<int64_t>(batch.size()));
  return Status::OK();
}

Status MigrationCoordinator::RefreshEntry(StagedEntry* e, bool exclusive_held,
                                          int64_t* work) {
  uint64_t before = e->dirty.load(std::memory_order_acquire);
  if (e->refreshed_at == before &&
      e->refreshed_at != StagedEntry::kNeverRefreshed) {
    return Status::OK();  // still fresh
  }
  Table fresh(e->content.schema(), owner_->db_.shards());
  AccessLayer::CacheBypass uncached;
  auto derive = [&]() -> Status {
    if (e->tv >= 0) {
      // Non-key-stable data table: re-derive the whole view through the
      // latched scan path.
      Status upserted = Status::OK();
      INVERDA_RETURN_IF_ERROR(owner_->access_.ScanVersion(
          e->tv, [&](int64_t key, const Row& row) {
            if (upserted.ok()) upserted = fresh.Upsert(key, row);
          }));
      return upserted;
    }
    const SmoInstance& inst = owner_->catalog_.smo(e->aux_smo);
    INVERDA_ASSIGN_OR_RETURN(SmoContext ctx,
                             owner_->access_.BuildContext(e->aux_smo));
    INVERDA_ASSIGN_OR_RETURN(const Kernel* kernel, KernelForSmo(*inst.smo));
    return kernel->DeriveAux(ctx, e->aux_short, &fresh);
  };
  if (exclusive_held) {
    INVERDA_RETURN_IF_ERROR(derive());
  } else if (e->tv >= 0) {
    // The latched scan path is safe under the shared lock.
    std::shared_lock<std::shared_mutex> ddl(owner_->catalog_mu_);
    INVERDA_RETURN_IF_ERROR(derive());
  } else {
    // Aux derivation reads aux tables outside the latch protocol, so it
    // needs a brief exclusive section (typically small tables).
    std::unique_lock<std::shared_mutex> ddl(owner_->catalog_mu_);
    INVERDA_RETURN_IF_ERROR(derive());
  }
  {
    std::lock_guard<std::mutex> lock(e->mu);
    e->content = std::move(fresh);
  }
  e->refreshed_at = before;
  *work += 1;
  refreshes_.fetch_add(1, std::memory_order_relaxed);
  mig_refreshes_->Add(1);
  return Status::OK();
}

void MigrationCoordinator::Finish(Status status) {
  // Quiesce capture: acquiring the catalog lock exclusively waits out every
  // in-flight writer (captures run under the shared lock), after which the
  // observer is detached and the staged state can be destroyed. On the
  // committed path the flip already detached it — this is idempotent.
  {
    std::unique_lock<std::shared_mutex> ddl(owner_->catalog_mu_);
    owner_->access_.set_write_observer(nullptr);
    job_.reset();
  }
  Conclude(std::move(status));
}

void MigrationCoordinator::Conclude(Status status) {
  bool aborted = !status.ok() && abort_.load(std::memory_order_acquire);
  Phase terminal = status.ok() ? Phase::kDone
                   : aborted   ? Phase::kAborted
                               : Phase::kFailed;
  if (status.ok()) {
    mig_committed_->Add(1);
  } else if (aborted) {
    mig_aborted_->Add(1);
  } else {
    mig_failed_->Add(1);
  }
  phase_.store(static_cast<int>(terminal), std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    result_ = std::move(status);
    active_.store(false, std::memory_order_release);
  }
  cv_.notify_all();
}

}  // namespace migrate
}  // namespace inverda
