#ifndef INVERDA_PLAN_PLAN_H_
#define INVERDA_PLAN_PLAN_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "mapping/side.h"
#include "util/status.h"

namespace inverda {
namespace plan {

class PlanCompiler;

/// Which of the paper's Figure-6 access cases one hop of a compiled plan
/// executes.
enum class RouteCase {
  kPhysical,  // case 1: the table version is physically stored
  kForward,   // case 2: through an outgoing materialized SMO instance
  kBackward,  // case 3: through the (virtualized) incoming SMO instance
};

/// One hop of a compiled access plan: everything the executor needs to
/// derive the table version from (or propagate a write toward) the data
/// side of one SMO instance, resolved once at compile time — the SMO
/// instance, the side/index the version occupies, the mapping kernel, and
/// a fully pre-bound SmoContext (TvRefs, physical aux-table names, id
/// memo, backend). Executing a step performs no catalog lookups.
struct ColumnLayout;  // plan/fused.h

struct PlanStep {
  SmoId smo = -1;
  RouteCase route = RouteCase::kBackward;
  SmoSide side = SmoSide::kSource;  // side the planned version is on
  int index = 0;                    // position of the version on that side
  const Kernel* kernel = nullptr;
  SmoContext ctx;
  std::string smo_text;  // BiDEL text of the SMO, for EXPLAIN

  /// The data-side table version this step derives from (the next hop of
  /// the chain, or the physical boundary for the last step). For a fused
  /// step this is the inner boundary version below the whole run.
  TvId next = -1;

  /// Fusion (plan/fused.h): a fused step replaces a maximal run of
  /// projection-only hops. `fused` holds the original steps in plan order
  /// (planned version first), `layout` the run's compiled output layout
  /// that executes the whole run in one pass. Empty on ordinary steps.
  std::vector<PlanStep> fused;
  std::shared_ptr<const ColumnLayout> layout;

  bool is_fused() const { return !fused.empty(); }

  /// SMO hops this step stands for (1 for ordinary steps).
  int fused_count() const {
    return is_fused() ? static_cast<int>(fused.size()) : 1;
  }

  /// Derives the planned version's content into `out` (restricted to `key`
  /// if given) — the read entry point that skips per-call context assembly.
  /// Fused steps run their output layout off one inner access.
  Status Derive(std::optional<int64_t> key, Table* out) const;

  /// Batch read: derives the full planned version into a columnar batch,
  /// through the kernel's batch entry point (or the fused layout).
  Status DeriveBatch(RowBatch* out) const;

  /// Propagates `writes` issued against the planned version one hop toward
  /// the data side (for a fused step: through the whole run).
  Status Propagate(const WriteSet& writes) const;
};

/// The compiled access plan of one table version under one materialization
/// epoch: the ordered step chain from the version to physical data
/// (Figure 6 applied transitively), the terminal data table, the dependency
/// footprint, and the SMO instances traversed anywhere on the access
/// paths. Immutable once compiled; staleness is a single epoch compare.
struct TvPlan {
  TvId tv = -1;
  uint64_t epoch = 0;  // materialization epoch the plan was compiled at
  std::string label;   // catalog TvLabel, e.g. "Task-0"
  const TableSchema* schema = nullptr;  // payload schema of the version
  bool physical = false;                // Figure 6 case 1: `steps` is empty

  /// True when executing the plan's read path can mutate shared state: an
  /// SMO on the access paths is id-generating (DECOMPOSE ON FK/condition,
  /// JOIN ON condition assign fresh ids during Derive). The access layer
  /// latches such plans exclusively even for reads; all other reads take
  /// shared latches and run fully in parallel.
  bool derive_mutates = false;

  /// Hops from the version toward physical data, following the first
  /// data-side table version per hop. The executor runs steps[0]; the
  /// kernels reach the remaining chain by recursing through the backend.
  std::vector<PlanStep> steps;

  /// Physical data table terminating the chain above.
  std::string data_table;

  /// Every physical table (data and auxiliary) any access path of the
  /// version can touch, in deterministic discovery order. The view cache
  /// stamps these with dirty epochs at store time.
  std::vector<std::string> footprint;

  /// Every SMO instance on any access path of the version (the closure the
  /// footprint walk traverses — a superset of the SMOs in `steps`). Reused
  /// by sqlgen's per-version delta-code generation.
  std::vector<SmoId> traversed_smos;

  /// Propagation distance = number of SMO hops to physical data. Fusion
  /// does not change it: a fused step counts the hops it stands for.
  int distance() const {
    int hops = 0;
    for (const PlanStep& step : steps) hops += step.fused_count();
    return hops;
  }
};

/// Reads and writes execute the same compiled chain (a read derives
/// through the first step, a write propagates through it); the aliases
/// keep the paper's vocabulary of generated read views vs. write triggers.
using ReadPlan = TvPlan;
using WritePlan = TvPlan;

/// Counters of the plan cache (a coherent snapshot; see PlanCache::stats).
/// `route_walks`/`context_builds` only grow while compiling: zero growth
/// across a window of accesses proves every access in the window was served
/// without a catalog walk.
struct PlanCacheStats {
  int64_t hits = 0;           // plans served without touching the catalog
  int64_t compiles = 0;       // cache misses compiled from the catalog
  int64_t invalidations = 0;  // cached plans dropped by an epoch change
  int64_t route_walks = 0;    // per-version route resolutions spent compiling
  int64_t context_builds = 0;  // SmoContext assemblies spent compiling
};

/// Compiled-plan cache keyed by table version and pinned to the catalog's
/// materialization epoch: every evolution, migration, or drop bumps the
/// epoch, so invalidation is one integer compare on the next access
/// instead of scoped clearing.
///
/// Thread-safe. The hot path — an atomic epoch compare plus a map lookup
/// under a reader latch — never blocks other readers; compiles and epoch
/// flushes take the writer side. Returned plan pointers stay valid until
/// the next epoch change, which can only happen under the facade's
/// exclusive catalog lock (no reader can be in flight then), so readers may
/// execute a plan without holding any cache lock.
class PlanCache {
 public:
  /// The cached plan of `tv` under `epoch`, compiling (and caching) on
  /// miss. A changed epoch flushes every entry first. The returned pointer
  /// stays valid until the next epoch change.
  Result<const TvPlan*> Get(TvId tv, uint64_t epoch,
                            const PlanCompiler& compiler);

  /// Drops every cached plan (counted as invalidations).
  void Clear();

  int64_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return static_cast<int64_t>(plans_.size());
  }

  /// A coherent snapshot of the counters.
  PlanCacheStats stats() const;
  void ResetStats();

 private:
  mutable std::shared_mutex mu_;  // guards plans_ (epoch_ is atomic)
  std::map<TvId, TvPlan> plans_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> compiles_{0};
  std::atomic<int64_t> invalidations_{0};
  std::atomic<int64_t> route_walks_{0};
  std::atomic<int64_t> context_builds_{0};
};

}  // namespace plan
}  // namespace inverda

#endif  // INVERDA_PLAN_PLAN_H_
