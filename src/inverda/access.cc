#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "inverda/inverda.h"
#include "plan/fused.h"
#include "util/thread_pool.h"

namespace inverda {

thread_local int AccessLayer::access_depth_ = 0;
thread_local int AccessLayer::cache_bypass_depth_ = 0;

// Out of line: the guard is used from other translation units, which reach
// the thread_local through its defining one.
AccessLayer::CacheBypass::CacheBypass() { ++cache_bypass_depth_; }
AccessLayer::CacheBypass::~CacheBypass() { --cache_bypass_depth_; }
thread_local WriteTrace AccessLayer::last_trace_;

namespace {

// Decrements the access recursion depth on every exit path.
struct DepthGuard {
  int* depth;
  explicit DepthGuard(int* d) : depth(d) { ++*depth; }
  ~DepthGuard() { --*depth; }
};

// Copies the step metadata EXPLAIN prints into a derive/propagate span, so
// a trace is directly comparable to the compiled plan it executed.
void FillStepSpan(obs::TraceSpan* span, const plan::PlanStep& step) {
  span->smo = step.smo;
  span->route =
      step.route == plan::RouteCase::kForward ? "forward" : "backward";
  span->side = step.side == SmoSide::kSource ? "source" : "target";
  span->index = step.index;
  span->kernel = step.kernel->name();
  span->smo_text = step.smo_text;
  for (const auto& [aux, physical_name] : step.ctx.aux_names) {
    span->aux.emplace_back(aux, physical_name);
  }
  if (step.is_fused()) {
    span->fused = static_cast<int>(step.fused.size());
    for (const plan::PlanStep& sub : step.fused) {
      span->fused_hops.emplace_back(sub.kernel->name(), sub.smo_text);
    }
    span->fused_layout = step.layout->Summary();
  }
}

// Write sets below this size apply sequentially even on a sharded table:
// the fan-out costs a pool wake-up, which a handful of hash-map writes
// never amortizes.
constexpr size_t kParallelApplyMinOps = 128;

Status ApplyOpToTable(Table* table, const WriteOp& op) {
  switch (op.kind) {
    case WriteOp::Kind::kInsert:
      return table->Insert(op.key, op.row);
    case WriteOp::Kind::kUpdate:
      return table->Update(op.key, op.row);
    case WriteOp::Kind::kDelete:
      table->Erase(op.key);
      return Status::OK();
  }
  return Status::OK();
}

}  // namespace

// --- observability wiring ---------------------------------------------------

AccessLayer::AccessLayer(VersionCatalog* catalog, Database* db,
                         obs::Observability* obs)
    : catalog_(catalog), db_(db), obs_(obs), compiler_(catalog, this) {
  obs::MetricsRegistry& m = obs_->metrics;
  // Push metrics: pointers cached once, bumped lock-free on the hot path.
  scan_ns_ = m.histogram("access.scan_ns");
  find_ns_ = m.histogram("access.find_ns");
  apply_ns_ = m.histogram("access.apply_ns");
  latch_ns_ = m.histogram("latch.acquire_ns");
  latch_fine_ = m.counter("latch.fine_grained");
  latch_escalations_ = m.counter("latch.escalations");
  latch_key_scoped_ = m.counter("latch.key_scoped");
  parallel_scans_ = m.counter("storage.parallel_scans");
  parallel_applies_ = m.counter("storage.parallel_applies");
  // Pull sources: the plan/view caches already keep their own counters —
  // exporting them through callbacks keeps one source of truth, so the
  // registry can never drift from the components' own view.
  m.RegisterSource(
      "plan_cache",
      [this] {
        plan::PlanCacheStats s = plan_cache_.stats();
        return std::vector<obs::MetricValue>{
            {"plan_cache.hits", s.hits},
            {"plan_cache.compiles", s.compiles},
            {"plan_cache.invalidations", s.invalidations},
            {"plan_cache.route_walks", s.route_walks},
            {"plan_cache.context_builds", s.context_builds},
            {"plan_cache.size", plan_cache_.size()}};
      },
      [this] { plan_cache_.ResetStats(); });
  m.RegisterSource(
      "view_cache",
      [this] {
        return std::vector<obs::MetricValue>{
            {"view_cache.hits", cache_hits()},
            {"view_cache.misses", cache_misses()},
            {"view_cache.invalidations", cache_invalidations()},
            {"view_cache.size", cache_size()}};
      },
      [this] { ResetCacheStats(); });
  // The compiler's walk counters are monotonic by contract (the plan cache
  // diffs them around compiles), so this source has no reset hook.
  m.RegisterSource("plan_compiler", [this] {
    return std::vector<obs::MetricValue>{
        {"plan_compiler.route_walks", compiler_.route_walks()},
        {"plan_compiler.context_builds", compiler_.context_builds()}};
  });
  // Verify-gate rejections are monotonic too: a rejection means a fused
  // step failed translation validation and fell back to its unfused hops.
  m.RegisterSource("plan_verify", [this] {
    return std::vector<obs::MetricValue>{
        {"plan_verify.fusion_rejected", compiler_.fusion_rejections()}};
  });
  // Storage-shape source: the active shard count and the scan pool's
  // worker count, so METRICS shows the sharding configuration in effect.
  m.RegisterSource("storage", [this] {
    return std::vector<obs::MetricValue>{
        {"storage.shards", db_->shards()},
        {"storage.scan_threads", ScanPool().threads()}};
  });
  // Per-version access totals feed the advisor's workload profiler; a reset
  // via the registry opens a fresh observation window.
  m.RegisterSource(
      "access_profile",
      [this] {
        int64_t reads = 0, writes = 0;
        for (const TvAccessSlot& slot : tv_access_) {
          reads += slot.reads.load(std::memory_order_relaxed);
          writes += slot.writes.load(std::memory_order_relaxed);
        }
        return std::vector<obs::MetricValue>{{"profile.reads", reads},
                                             {"profile.writes", writes}};
      },
      [this] { ResetAccessProfile(); });
}

std::map<TvId, std::pair<int64_t, int64_t>> AccessLayer::AccessProfile() const {
  std::map<TvId, std::pair<int64_t, int64_t>> profile;
  for (int tv = 0; tv < kMaxProfiledTvs; ++tv) {
    const int64_t reads = tv_access_[tv].reads.load(std::memory_order_relaxed);
    const int64_t writes =
        tv_access_[tv].writes.load(std::memory_order_relaxed);
    if (reads != 0 || writes != 0) profile[tv] = {reads, writes};
  }
  return profile;
}

void AccessLayer::ResetAccessProfile() {
  for (TvAccessSlot& slot : tv_access_) {
    slot.reads.store(0, std::memory_order_relaxed);
    slot.writes.store(0, std::memory_order_relaxed);
  }
}

AccessLayer::KernelMetrics* AccessLayer::MetricsForKernel(
    const Kernel* kernel) {
  // Lock-free fast path: kernels are static singletons, so a handful of
  // pointer compares resolves every kernel after its first access.
  for (KernelSlot& slot : kernel_slots_) {
    const Kernel* cur = slot.kernel.load(std::memory_order_acquire);
    if (cur == kernel) return &slot.metrics;
    if (cur == nullptr) break;
  }
  std::lock_guard<std::mutex> lock(kernel_slots_mu_);
  for (KernelSlot& slot : kernel_slots_) {
    const Kernel* cur = slot.kernel.load(std::memory_order_relaxed);
    if (cur == kernel) return &slot.metrics;
    if (cur != nullptr) continue;
    const std::string base = std::string("kernel.") + kernel->name();
    slot.metrics.derive_ns = obs_->metrics.histogram(base + ".derive_ns");
    slot.metrics.propagate_ns = obs_->metrics.histogram(base + ".propagate_ns");
    slot.metrics.derive_rows = obs_->metrics.counter(base + ".derive_rows");
    slot.metrics.rows_visited = obs_->metrics.counter(base + ".rows_visited");
    // Publish last: readers that see the kernel pointer see wired metrics.
    slot.kernel.store(kernel, std::memory_order_release);
    return &slot.metrics;
  }
  return nullptr;  // more than kMaxKernels distinct kernels: unmetered
}

// --- compiled plans ---------------------------------------------------------

Result<SmoContext> AccessLayer::BuildContext(SmoId id) {
  return compiler_.BuildContext(id);
}

Result<const plan::TvPlan*> AccessLayer::GetPlan(TvId tv) {
  return plan_cache_.Get(tv, catalog_->materialization_epoch(), compiler_);
}

Status AccessLayer::PrewarmPlans() {
  // Compile every table version's plan at the current epoch. Called inside
  // the migration flip window (exclusive catalog lock held) right after the
  // epoch bump, so the first post-flip access of every version hits a warm
  // cache instead of paying compilation inside its own critical path — the
  // "dual-plan epoch window" collapses to the flip itself.
  for (TvId tv : catalog_->AllTableVersions()) {
    INVERDA_RETURN_IF_ERROR(GetPlan(tv).status());
  }
  return Status::OK();
}

Result<int> AccessLayer::PropagationDistance(TvId tv) {
  INVERDA_ASSIGN_OR_RETURN(const plan::TvPlan* p, GetPlan(tv));
  return p->distance();
}

template <typename Out>
Status AccessLayer::DeriveFirstStep(const plan::TvPlan& p, uint32_t hot,
                                    Out* out, std::optional<int64_t> key) {
  const plan::PlanStep& step = p.steps.front();
  const auto derive = [&] {
    if constexpr (std::is_same_v<Out, RowBatch>) {
      return step.DeriveBatch(out);  // batch derives are always full
    } else {
      return step.Derive(key, out);
    }
  };
  // Fast path: no guard objects at all when every gate is off — nested
  // kernel recursion multiplies this block's entry cost.
  if (hot == 0) [[likely]] return derive();
  obs::SpanGuard span((hot & obs::Observability::kTracingBit) != 0
                          ? &obs_->tracer
                          : nullptr,
                      "derive");
  if (span) FillStepSpan(span.get(), step);
  KernelMetrics* km = (hot & obs::Observability::kTimingBit) != 0
                          ? MetricsForKernel(step.kernel)
                          : nullptr;
  obs::ScopedTimer kernel_timer(km != nullptr ? km->derive_ns : nullptr);
  INVERDA_RETURN_IF_ERROR(derive());
  int64_t rows = 0;
  if constexpr (std::is_same_v<Out, RowBatch>) {
    rows = out->selected_count();
  } else {
    rows = out->size();
  }
  if (km != nullptr) km->derive_rows->Add(rows);
  if (span) span->rows_out = rows;
  return Status::OK();
}

// --- latching ---------------------------------------------------------------

void AccessLayer::AcquireLatches(TableLatchSet* latches, const plan::TvPlan& p,
                                 bool write, bool timed) {
  // Kernel recursion (and migration staging inside the DDL-exclusive
  // facade section) runs under the top-level latch set; re-acquiring here
  // would self-deadlock on exclusive latches.
  if (access_depth_ > 0) return;
  // Latch instrumentation sits on every operation, so it records only
  // under the detailed-timing gate (`timed` is the caller's single
  // hot-flags load, see Observability::hot()).
  obs::ScopedTimer timer(timed ? latch_ns_ : nullptr);
  // The footprint lists every physical table any access path of the
  // version can touch, so it covers both the derivation closure of reads
  // and the sibling derivations of a write's propagation chain.
  latches->Acquire(&db_->latches(), p.footprint, write || p.derive_mutates);
  if (timed) [[unlikely]] {
    // Accounted after the fact: with shards, escalation can also trigger
    // on the total latch budget, which only Acquire itself knows.
    if (latches->escalated()) {
      latch_escalations_->Add(1);
    } else {
      latch_fine_->Add(1);
    }
  }
}

bool AccessLayer::KeyScopedEligible(const plan::TvPlan& p) const {
  // Physical single-table plans only: the footprint must be exactly the
  // data table, otherwise shard-scoping would leave other tables unlatched.
  return access_depth_ == 0 && p.physical && p.footprint.size() == 1 &&
         p.footprint.front() == p.data_table && db_->latches().shards() > 1;
}

void AccessLayer::AcquireLatchesForKeys(TableLatchSet* latches,
                                        const plan::TvPlan& p,
                                        const std::vector<int64_t>& keys,
                                        bool write, bool timed) {
  if (!KeyScopedEligible(p)) {
    AcquireLatches(latches, p, write, timed);
    return;
  }
  obs::ScopedTimer timer(timed ? latch_ns_ : nullptr);
  latches->AcquireKeyScoped(&db_->latches(), p.data_table, keys,
                            write || p.derive_mutates);
  if (timed) [[unlikely]] latch_key_scoped_->Add(1);
}

// --- derived-view cache -----------------------------------------------------

Result<std::shared_ptr<const RowBatch>> AccessLayer::CachedView(
    const plan::TvPlan& p, uint32_t hot, obs::TraceSpan* span) {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(p.tv);
    if (it != cache_.end()) {
      bool valid = true;
      for (const auto& [name, epoch] : it->second.deps) {
        std::optional<uint64_t> current = db_->TableEpoch(name);
        if (!current || *current != epoch) {
          valid = false;
          break;
        }
      }
      if (valid) {
        RecordCacheLookupLocked(p.tv, /*hit=*/true);
        if (span != nullptr) [[unlikely]] span->note = "view-cache hit";
        return it->second.view;
      }
      EraseCacheEntryLocked(p.tv);
    }
    RecordCacheLookupLocked(p.tv, /*hit=*/false);
  }
  // Miss: derive the whole view outside cache_mu_. Batches keep ascending
  // key order (row_batch.h), which point lookups' binary search relies on.
  RowBatch view;
  if (batch_enabled_) {
    INVERDA_RETURN_IF_ERROR(DeriveFirstStep(p, hot, &view));
    view.Compact();
  } else {
    Table rows(*p.schema);
    INVERDA_RETURN_IF_ERROR(DeriveFirstStep(p, hot, &rows));
    INVERDA_RETURN_IF_ERROR(BatchFromTable(rows, &view));
  }
  INVERDA_RETURN_IF_ERROR(view.SetNumColumns(p.schema->num_columns()));
  auto shared = std::make_shared<const RowBatch>(std::move(view));
  // The footprint covers every table the derivation could read; stamping
  // after the derive is exact because the operation's latches exclude
  // writers of those tables until it returns.
  std::vector<std::pair<std::string, uint64_t>> deps;
  deps.reserve(p.footprint.size());
  for (const std::string& name : p.footprint) {
    deps.emplace_back(name, db_->TableEpoch(name).value_or(0));
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.insert_or_assign(p.tv, CacheEntry{shared, std::move(deps)});
  return shared;
}

void AccessLayer::RecordCacheLookupLocked(TvId tv, bool hit) {
  // The single accounting point for view-cache lookups, shared by scans,
  // batch scans and point lookups, so the aggregate and per-version
  // counters move together on every path.
  if (hit) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    ++cache_stats_[tv].hits;
  } else {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    ++cache_stats_[tv].misses;
  }
}

void AccessLayer::EraseCacheEntryLocked(TvId tv) {
  if (cache_.erase(tv) == 0) return;
  cache_invalidations_.fetch_add(1, std::memory_order_relaxed);
  ++cache_stats_[tv].invalidations;
}

void AccessLayer::InvalidateCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (const auto& [tv, entry] : cache_) {
    (void)entry;
    cache_invalidations_.fetch_add(1, std::memory_order_relaxed);
    ++cache_stats_[tv].invalidations;
  }
  cache_.clear();
}

void AccessLayer::ResetCacheStats() {
  cache_hits_.store(0, std::memory_order_relaxed);
  cache_misses_.store(0, std::memory_order_relaxed);
  cache_invalidations_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_stats_.clear();
}

void AccessLayer::InvalidateForWrite(const plan::TvPlan& p) {
  const std::set<TvId>& component = catalog_->ComponentOf(p.tv);
  std::lock_guard<std::mutex> lock(cache_mu_);
  std::vector<TvId> doomed;
  for (const auto& [cached_tv, entry] : cache_) {
    if (!component.count(cached_tv)) continue;  // disjoint lineage
    if (cached_tv == p.tv) {
      doomed.push_back(cached_tv);
      continue;
    }
    for (const auto& [name, epoch] : entry.deps) {
      (void)epoch;
      if (std::find(p.footprint.begin(), p.footprint.end(), name) !=
          p.footprint.end()) {
        doomed.push_back(cached_tv);
        break;
      }
    }
  }
  for (TvId dead : doomed) EraseCacheEntryLocked(dead);
}

void AccessLayer::InvalidateForMigration(const std::set<SmoId>& flipped) {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_.empty()) return;
  }
  std::set<TvId> affected = catalog_->AffectedBySmos(flipped);
  std::lock_guard<std::mutex> lock(cache_mu_);
  std::vector<TvId> doomed;
  for (const auto& [tv, entry] : cache_) {
    (void)entry;
    if (affected.count(tv)) doomed.push_back(tv);
  }
  for (TvId dead : doomed) EraseCacheEntryLocked(dead);
}

// --- reads ------------------------------------------------------------------

Status AccessLayer::ScanVersion(TvId tv, const RowCallback& fn) {
  CountAccess(tv, /*write=*/false);
  // Latency lands in the histogram only at the top level of an access
  // chain; nested (kernel-recursive) scans are part of the enclosing op.
  // Timers and per-kernel metrics record only under the detailed-timing
  // gate — two clock reads per measurement are unaffordable on a
  // sub-microsecond point get — and both gates arrive in one packed
  // relaxed load (see Observability::hot()).
  const uint32_t hot = obs_->hot();
  const bool timed = (hot & obs::Observability::kTimingBit) != 0;
  obs::Tracer* tracer =
      (hot & obs::Observability::kTracingBit) != 0 ? &obs_->tracer : nullptr;
  obs::ScopedTimer op_timer(timed && access_depth_ == 0 ? scan_ns_ : nullptr);
  obs::SpanGuard span(tracer, "scan");
  INVERDA_ASSIGN_OR_RETURN(const plan::TvPlan* plan, GetPlan(tv));
  const plan::TvPlan& p = *plan;
  if (span) [[unlikely]] span->label = p.label;
  TableLatchSet latches;
  AcquireLatches(&latches, p, /*write=*/false, timed);
  DepthGuard guard(&access_depth_);
  if (p.physical) {
    INVERDA_ASSIGN_OR_RETURN(const Table* table,
                             db_->GetTableConst(p.data_table));
    if (span) [[unlikely]] {
      span->route = "physical";
      span->note = "data table " + p.data_table;
      if (table->shard_count() > 1) {
        span->note += " [" + std::to_string(table->shard_count()) + " shards]";
      }
      span->rows_out = table->size();
    }
    table->Scan(fn);
    return Status::OK();
  }
  if (UseCache()) {
    INVERDA_ASSIGN_OR_RETURN(std::shared_ptr<const RowBatch> view,
                             CachedView(p, hot, span.get()));
    if (span) [[unlikely]] span->rows_out = view->size();
    view->ForEach(fn);
    return Status::OK();
  }
  if (batch_enabled_) {
    // Columnar derivation: the chain below runs through the kernels' batch
    // entry points and the result streams straight to the caller — no
    // intermediate row-major table.
    RowBatch batch;
    INVERDA_RETURN_IF_ERROR(DeriveFirstStep(p, hot, &batch));
    if (span) [[unlikely]] span->rows_out = batch.selected_count();
    batch.ForEach(fn);
    return Status::OK();
  }
  Table tmp(*p.schema);
  INVERDA_RETURN_IF_ERROR(DeriveFirstStep(p, hot, &tmp));
  if (span) [[unlikely]] span->rows_out = tmp.size();
  tmp.Scan(fn);
  return Status::OK();
}

Status AccessLayer::ScanVersionBatch(TvId tv, RowBatch* out,
                                     const std::vector<int>* columns) {
  // The columnar counterpart of ScanVersion: physical versions fill the
  // batch straight from the data table, virtual ones derive through the
  // kernels' batch entry points (PlanStep::DeriveBatch). Kernel recursion
  // re-enters here, so a batch scan stays columnar down the whole chain.
  // With batching disabled, the base-class bridge collects rows through
  // the ordinary ScanVersion — the row-at-a-time baseline. A `columns`
  // projection copies only those cells of a physical table; a derived
  // version is derived whole and its kept columns moved out. Either way a
  // projection needs an empty `out` (side.h), checked before any route.
  if (columns != nullptr && !out->empty()) {
    return Status::Internal("projected scan into a non-empty batch");
  }
  if (!batch_enabled_) {
    return AccessBackend::ScanVersionBatch(tv, out, columns);
  }
  CountAccess(tv, /*write=*/false);
  const uint32_t hot = obs_->hot();
  const bool timed = (hot & obs::Observability::kTimingBit) != 0;
  obs::Tracer* tracer =
      (hot & obs::Observability::kTracingBit) != 0 ? &obs_->tracer : nullptr;
  obs::ScopedTimer op_timer(timed && access_depth_ == 0 ? scan_ns_ : nullptr);
  obs::SpanGuard span(tracer, "scan");
  INVERDA_ASSIGN_OR_RETURN(const plan::TvPlan* plan, GetPlan(tv));
  const plan::TvPlan& p = *plan;
  if (span) [[unlikely]] span->label = p.label;
  TableLatchSet latches;
  AcquireLatches(&latches, p, /*write=*/false, timed);
  DepthGuard guard(&access_depth_);
  if (p.physical) {
    INVERDA_ASSIGN_OR_RETURN(const Table* table,
                             db_->GetTableConst(p.data_table));
    const bool parallel = ParallelScanEligible(*table) && !out->has_selection();
    if (parallel) parallel_scans_->Add(1);
    if (span) [[unlikely]] {
      span->route = "physical";
      span->note = "data table " + p.data_table;
      if (table->shard_count() > 1) {
        span->note += parallel
                          ? " [" + std::to_string(table->shard_count()) +
                                " shards, parallel]"
                          : " [" + std::to_string(table->shard_count()) +
                                " shards]";
      }
      span->rows_out = table->size();
    }
    return BatchFromTable(*table, out, columns);
  }
  if (UseCache()) {
    INVERDA_ASSIGN_OR_RETURN(std::shared_ptr<const RowBatch> view,
                             CachedView(p, hot, span.get()));
    if (span) [[unlikely]] span->rows_out = view->size();
    if (columns != nullptr) return out->AssignProjection(*view, *columns);
    INVERDA_RETURN_IF_ERROR(out->SetNumColumns(view->num_columns()));
    if (out->empty() && !out->has_selection()) {
      *out = *view;  // the usual case: a fresh batch takes the columns
      return Status::OK();
    }
    for (int64_t i = 0; i < view->size(); ++i) {
      INVERDA_RETURN_IF_ERROR(out->AppendRow(view->key_at(i), view->RowAt(i)));
    }
    return Status::OK();
  }
  if (columns != nullptr) {
    RowBatch full;
    INVERDA_RETURN_IF_ERROR(DeriveFirstStep(p, hot, &full));
    if (span) [[unlikely]] span->rows_out = full.selected_count();
    return out->AssignProjection(std::move(full), *columns);
  }
  INVERDA_RETURN_IF_ERROR(DeriveFirstStep(p, hot, out));
  if (span) [[unlikely]] span->rows_out = out->selected_count();
  return Status::OK();
}

Result<std::optional<Row>> AccessLayer::FindVersion(TvId tv, int64_t key) {
  CountAccess(tv, /*write=*/false);
  const uint32_t hot = obs_->hot();
  const bool timed = (hot & obs::Observability::kTimingBit) != 0;
  obs::Tracer* tracer =
      (hot & obs::Observability::kTracingBit) != 0 ? &obs_->tracer : nullptr;
  obs::ScopedTimer op_timer(timed && access_depth_ == 0 ? find_ns_ : nullptr);
  obs::SpanGuard span(tracer, "find");
  INVERDA_ASSIGN_OR_RETURN(const plan::TvPlan* plan, GetPlan(tv));
  const plan::TvPlan& p = *plan;
  if (span) [[unlikely]] span->label = p.label;
  TableLatchSet latches;
  if (KeyScopedEligible(p)) [[unlikely]] {
    // Point lookup on a sharded physical table: latch only the shard the
    // key routes to, so lookups and key-scoped writes on other shards of
    // the same table proceed in parallel.
    AcquireLatchesForKeys(&latches, p, std::vector<int64_t>{key},
                          /*write=*/false, timed);
  } else {
    AcquireLatches(&latches, p, /*write=*/false, timed);
  }
  DepthGuard guard(&access_depth_);
  if (p.physical) {
    INVERDA_ASSIGN_OR_RETURN(const Table* table,
                             db_->GetTableConst(p.data_table));
    if (span) [[unlikely]] {
      span->route = "physical";
      span->note = "data table " + p.data_table;
      if (table->shard_count() > 1) {
        span->note +=
            " [shard " + std::to_string(table->ShardOfKey(key)) + "/" +
            std::to_string(table->shard_count()) + "]";
      }
    }
    const Row* row = table->Find(key);
    if (row == nullptr) return std::optional<Row>();
    if (span) [[unlikely]] span->rows_out = 1;
    return std::optional<Row>(*row);
  }
  if (UseCache()) {
    // Answered from the whole cached view (derived and stored on a miss,
    // exactly like a scan): binary search over its ascending keys.
    INVERDA_ASSIGN_OR_RETURN(std::shared_ptr<const RowBatch> view,
                             CachedView(p, hot, span.get()));
    const std::vector<int64_t>& keys = view->keys();
    auto it = std::lower_bound(keys.begin(), keys.end(), key);
    if (it == keys.end() || *it != key) return std::optional<Row>();
    if (span) [[unlikely]] span->rows_out = 1;
    return std::optional<Row>(view->RowAt(it - keys.begin()));
  }
  Table tmp(*p.schema);
  INVERDA_RETURN_IF_ERROR(DeriveFirstStep(p, hot, &tmp, key));
  const Row* row = tmp.Find(key);
  if (row == nullptr) return std::optional<Row>();
  if (span) [[unlikely]] span->rows_out = 1;
  return std::optional<Row>(*row);
}

// --- writes -----------------------------------------------------------------

Status AccessLayer::ApplyToVersion(TvId tv, const WriteSet& writes) {
  if (!writes.empty()) CountAccess(tv, /*write=*/true);
  const bool top_level = access_depth_ == 0;
  Status status = ApplyToVersionImpl(tv, writes);
  if (top_level) {
    // Online-migration capture: notify after the data landed (all latches
    // released) but while the writer still holds its shared catalog lock,
    // so the coordinator's final exclusive drain can never miss a capture.
    // Notified even on failure — a partially applied write set may have
    // propagated some ops, and re-deriving a clean key is harmless.
    migrate::WriteObserver* observer =
        write_observer_.load(std::memory_order_acquire);
    if (observer != nullptr && !writes.empty()) [[unlikely]] {
      observer->OnWrite(tv, writes);
    }
  }
  return status;
}

Status AccessLayer::ApplyToVersionImpl(TvId tv, const WriteSet& writes) {
  if (writes.empty()) return Status::OK();
  const bool top_level = access_depth_ == 0;
  const uint32_t hot = obs_->hot();
  const bool timed = (hot & obs::Observability::kTimingBit) != 0;
  obs::Tracer* tracer =
      (hot & obs::Observability::kTracingBit) != 0 ? &obs_->tracer : nullptr;
  obs::ScopedTimer op_timer(timed && top_level ? apply_ns_ : nullptr);
  obs::SpanGuard span(tracer, "apply");
  if (span) [[unlikely]] span->rows_in = static_cast<int64_t>(writes.ops.size());
  INVERDA_ASSIGN_OR_RETURN(const plan::TvPlan* plan, GetPlan(tv));
  const plan::TvPlan& p = *plan;
  if (span) [[unlikely]] span->label = p.label;
  TableLatchSet latches;
  if (KeyScopedEligible(p)) [[unlikely]] {
    // Direct write to a sharded physical table: latch only the shards the
    // write set routes to (exclusive), so batches landing on different
    // shards of the same table run in parallel.
    std::vector<int64_t> keys;
    keys.reserve(writes.ops.size());
    for (const WriteOp& op : writes.ops) keys.push_back(op.key);
    AcquireLatchesForKeys(&latches, p, keys, /*write=*/true, timed);
  } else {
    AcquireLatches(&latches, p, /*write=*/true, timed);
  }
  DepthGuard guard(&access_depth_);
  if (top_level) {
    last_trace_.Clear();
    // Invalidate before the write lands: entries (re)stored by reads that
    // happen mid-propagation capture the post-write epochs and stay valid.
    if (cache_enabled_) InvalidateForWrite(p);
  }
  last_trace_.AddVersion(tv);
  if (p.physical) {
    last_trace_.AddTable(p.data_table);
    INVERDA_ASSIGN_OR_RETURN(Table * table, db_->GetTable(p.data_table));
    if (span) [[unlikely]] {
      span->route = "physical";
      span->note = "data table " + p.data_table;
      if (table->shard_count() > 1) {
        span->note +=
            " [" + std::to_string(table->shard_count()) + " shards]";
      }
      span->rows_out = static_cast<int64_t>(writes.ops.size());
    }
    const int shards = table->shard_count();
    if (shards > 1 && ScanPool().threads() > 0 &&
        writes.ops.size() >= kParallelApplyMinOps) {
      // Group op indices by destination shard. Each group applies in op
      // order on its own shard map (disjoint by construction; size and
      // epoch stamps are atomic), so groups run in parallel.
      std::vector<std::vector<size_t>> by_shard(
          static_cast<size_t>(shards));
      for (size_t i = 0; i < writes.ops.size(); ++i) {
        by_shard[static_cast<size_t>(table->ShardOfKey(writes.ops[i].key))]
            .push_back(i);
      }
      int busy = 0;
      for (const auto& group : by_shard) busy += group.empty() ? 0 : 1;
      if (busy > 1) {
        parallel_applies_->Add(1);
        // Each worker records its shard's first failure; the op-order
        // earliest one is reported, like the sequential loop would. (On
        // failure other shards may have applied ops past the failing
        // index — the sequential path stops instead; both leave a
        // partially applied set, which the caller already treats as an
        // operation failure.)
        struct ShardFailure {
          size_t op_index = SIZE_MAX;
          Status status;
        };
        std::vector<ShardFailure> failures(static_cast<size_t>(shards));
        ScanPool().ParallelFor(shards, [&](int64_t s) {
          for (size_t i : by_shard[static_cast<size_t>(s)]) {
            Status status = ApplyOpToTable(table, writes.ops[i]);
            if (!status.ok()) {
              failures[static_cast<size_t>(s)] = {i, std::move(status)};
              return;
            }
          }
        });
        const ShardFailure* first = nullptr;
        for (const ShardFailure& failure : failures) {
          if (failure.op_index == SIZE_MAX) continue;
          if (first == nullptr || failure.op_index < first->op_index) {
            first = &failure;
          }
        }
        if (first != nullptr) return first->status;
        return Status::OK();
      }
    }
    for (const WriteOp& op : writes.ops) {
      INVERDA_RETURN_IF_ERROR(ApplyOpToTable(table, op));
    }
    return Status::OK();
  }
  const plan::PlanStep& step = p.steps.front();
  for (const auto& [aux, physical_name] : step.ctx.aux_names) {
    (void)aux;
    last_trace_.AddTable(physical_name);
  }
  if (step.is_fused()) {
    // A fused step flattens the run's recursion, so the in-run versions and
    // aux tables the per-hop propagation traverses are recorded here (the
    // chain below the fusion boundary traces itself as usual).
    for (size_t i = 0; i < step.fused.size(); ++i) {
      const plan::PlanStep& sub = step.fused[i];
      if (i + 1 < step.fused.size()) last_trace_.AddVersion(sub.next);
      for (const auto& [aux, physical_name] : sub.ctx.aux_names) {
        (void)aux;
        last_trace_.AddTable(physical_name);
      }
    }
  }
  if (hot == 0) [[likely]] return step.Propagate(writes);
  obs::SpanGuard step_span(tracer, "propagate");
  if (step_span) {
    FillStepSpan(step_span.get(), step);
    step_span->rows_in = static_cast<int64_t>(writes.ops.size());
  }
  KernelMetrics* km = nullptr;
  if (timed) km = MetricsForKernel(step.kernel);
  // Rows visited are counted per step, exclusive of nested propagate steps:
  // each one restores its caller's tally on the way out.
  const int64_t outer_visits = ExchangeRowsVisited(0);
  Status status;
  {
    obs::ScopedTimer kernel_timer(km != nullptr ? km->propagate_ns : nullptr);
    status = step.Propagate(writes);
  }
  const int64_t visited = ExchangeRowsVisited(outer_visits);
  if (step_span) step_span->rows_visited = visited;
  if (km != nullptr) km->rows_visited->Add(visited);
  return status;
}

}  // namespace inverda
