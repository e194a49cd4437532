#ifndef INVERDA_ADVISOR_ADVISOR_H_
#define INVERDA_ADVISOR_ADVISOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "obs/observability.h"
#include "util/status.h"

namespace inverda {

class Inverda;

/// The traffic-driven materialization advisor (docs/advisor.md) — the
/// paper's Section-8.2 DBA story made executable: pick the materialization
/// schema that minimizes the modeled cost of the *observed* workload, and
/// (opt-in) apply it through the online-migration path without stalling
/// clients.
///
/// Three parts compose:
///  - CostModel prices one SMO hop per kernel, either uniformly (every hop
///    costs 1, the seed advisor's metric) or from the observed per-kernel
///    latency histograms in the MetricsRegistry;
///  - WorkloadProfile is the per-table-version weight vector mined from the
///    access layer's per-version counters or the trace ring (reads and
///    writes weighted separately — propagation cost is asymmetric);
///  - ScoreMaterializations walks every valid materialization schema's
///    hypothetical route chains and ranks the candidates.
namespace advisor {

/// Per-SMO-hop cost table, keyed by kernel name ("identity", "column",
/// "partition", "vertical-pk", "join-pk", "fk", "cond"). Reads price a hop
/// with the kernel's derive cost, writes with its propagate cost.
struct CostModel {
  /// Cost of the physical access itself (identical for every candidate, so
  /// it only scales the projected improvement, never the ordering).
  double base_read = 1.0;
  double base_write = 1.0;

  std::map<std::string, double> derive_cost;
  std::map<std::string, double> propagate_cost;

  /// Total histogram samples behind the observed entries (0 for Uniform).
  int64_t observed_samples = 0;
  /// True when built from observed latencies (costs are nanoseconds);
  /// false for the uniform model (costs are SMO hops).
  bool observed = false;

  /// Every hop costs 1 regardless of kernel — the seed advisor's
  /// propagation-distance metric, and the fallback when nothing has been
  /// measured yet.
  static CostModel Uniform();

  /// Prices hops with the mean of each kernel's observed derive/propagate
  /// histogram (`kernel.<name>.derive_ns` / `.propagate_ns`), falling back
  /// to a fixed per-kernel default (rough relative magnitudes, in ns) for
  /// kernels with fewer than `min_samples` recordings. Enable detailed
  /// timing (MetricsRegistry::set_timing_enabled) to feed the histograms.
  static CostModel FromMetrics(const obs::MetricsSnapshot& snapshot,
                               int64_t min_samples = 8);

  double DeriveCost(const std::string& kernel) const;
  double PropagateCost(const std::string& kernel) const;
};

/// One table version's share of the observed (or declared) workload.
struct ProfileEntry {
  TvId tv = -1;
  std::string name;  ///< catalog TvLabel, as EXPLAIN/TRACE print it
  double read_weight = 0.0;
  double write_weight = 0.0;
};

/// Per-table-version weight vector; read and write weights jointly sum
/// to 1. Built by the profiler functions below, all of which validate and
/// normalize through the same code path.
struct WorkloadProfile {
  std::vector<ProfileEntry> entries;  ///< heaviest first
  int64_t observed_reads = 0;         ///< raw op counts behind the weights
  int64_t observed_writes = 0;
  std::string source;  ///< "explicit-weights" | "access-counters" | "trace-ring"
};

/// Which signal the profiler mines when no explicit weights are given.
enum class ProfileWindow {
  /// The access layer's per-version op counters: everything since startup
  /// (or the last ResetMetrics). The default.
  kLifetime,
  /// The trace ring's most recent completed operations (requires tracing
  /// enabled; at most Tracer::capacity() ops). The "what is hot right now"
  /// window.
  kRecent,
};

struct AdviseOptions {
  ProfileWindow window = ProfileWindow::kLifetime;

  /// Explicit per-version workload shares; when non-empty the profiler is
  /// bypassed entirely.
  /// Validated and normalized: negative, empty-after-merge, or all-zero
  /// weight vectors are rejected with a diagnostic Status.
  std::map<std::string, double> version_weights;
  /// How explicit weights split into reads vs writes (profiled windows
  /// carry their own split). Must be within [0, 1].
  double read_fraction = 1.0;

  /// Price hops with observed kernel latencies when available; false gives
  /// the uniform hop model unconditionally.
  bool use_observed_latencies = true;
  /// Minimum histogram samples before an observed mean replaces the
  /// per-kernel default cost.
  int64_t min_kernel_samples = 8;

  /// Candidate-SMO cap forwarded to EnumerateValidMaterializations.
  int candidate_limit = 20;
};

/// One scored candidate materialization schema.
struct CandidateScore {
  std::set<SmoId> materialization;
  std::string label;  ///< "{Kind#id, ...}" or "{}"
  double read_cost = 0.0;
  double write_cost = 0.0;
  double total_cost = 0.0;  ///< weighted: what the ranking sorts by
  /// (cost - current_cost) / current_cost: negative means cheaper than the
  /// schema currently in effect.
  double delta_vs_current = 0.0;
  bool is_current = false;
};

/// The ranked report Advise/ADVISE return: every valid candidate, best
/// first, plus the profile and model that produced the scores.
struct AdviseReport {
  std::vector<CandidateScore> ranked;  ///< best (lowest cost) first
  WorkloadProfile profile;
  /// True when the scores are in observed nanoseconds; false when they are
  /// uniform hop counts.
  bool observed_costs = false;
  double current_cost = 0.0;
  /// (current - best) / current: fraction of modeled cost the best
  /// candidate saves over the current schema (0 when current is best).
  double projected_improvement = 0.0;

  const CandidateScore& best() const { return ranked.front(); }
  /// The entry whose materialization is currently in effect.
  const CandidateScore& current() const;

  std::string ToText() const;
  std::string ToJson() const;
};

/// The single weight sanity gate: rejects negative weights, empty vectors
/// and all-zero vectors with a diagnostic Status; scales the survivors to
/// sum 1. Every profiler path funnels through this.
Result<std::map<std::string, double>> NormalizeWeights(
    const std::map<std::string, double>& weights);

/// Profile from explicit per-version shares (weights validated through
/// NormalizeWeights; a version's weight splits evenly over its tables and
/// into reads/writes by `read_fraction`).
Result<WorkloadProfile> ProfileFromWeights(
    const VersionCatalog& catalog,
    const std::map<std::string, double>& version_weights,
    double read_fraction);

/// Profile from the access layer's per-version (reads, writes) counters.
/// Counts of table versions no longer in the catalog are dropped; an
/// all-zero signal is rejected (run traffic first, or pass weights).
Result<WorkloadProfile> ProfileFromCounters(
    const VersionCatalog& catalog,
    const std::map<TvId, std::pair<int64_t, int64_t>>& counts);

/// Profile from the trace ring: top-level "scan"/"find" spans count as
/// reads, "apply" spans as writes, mapped back to table versions by their
/// catalog label. Rejects an empty ring (enable TRACE and run traffic).
Result<WorkloadProfile> ProfileFromTrace(const VersionCatalog& catalog,
                                         const obs::Tracer& tracer);

/// The scoring core: enumerates every valid materialization schema (the
/// catalog's validity rules), walks each candidate's hypothetical route
/// chain per profiled table version, prices the hops through `model`, and
/// returns the ranked report. Pure function of the catalog — callers hold
/// whatever lock the catalog needs.
Result<AdviseReport> ScoreMaterializations(const VersionCatalog& catalog,
                                           const WorkloadProfile& profile,
                                           const CostModel& model,
                                           int candidate_limit = 20);

/// The facade-attached advisor: Recommend() under the engine's own lock
/// and signals, plus the opt-in auto-materialize mode that turns the
/// recommendation loop into a background self-management policy executed
/// through the online-migration path.
class Advisor {
 public:
  Advisor(Inverda* owner, obs::Observability* obs);

  Advisor(const Advisor&) = delete;
  Advisor& operator=(const Advisor&) = delete;

  /// Profiles the workload, builds the cost model, scores every candidate.
  /// Takes the facade's shared catalog lock (callable concurrently with
  /// client traffic; must not be called under the exclusive DDL lock).
  Result<AdviseReport> Recommend(const AdviseOptions& options = {});

  // --- auto-materialize (docs/advisor.md) -----------------------------------

  /// Master switch. Off by default. When on, every `auto_check_interval`
  /// completed facade operations one client thread evaluates Recommend()
  /// and — if the best candidate beats the current schema by at least
  /// `auto_improvement_threshold` — starts an online migration to it
  /// (non-blocking; traffic keeps flowing while the coordinator works).
  void set_auto_materialize_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool auto_materialize_enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Minimum projected improvement (fraction of current modeled cost, e.g.
  /// 0.10 = 10%) before an automatic migration fires. Default 0.10.
  void set_auto_improvement_threshold(double fraction) {
    threshold_.store(fraction, std::memory_order_relaxed);
  }
  double auto_improvement_threshold() const {
    return threshold_.load(std::memory_order_relaxed);
  }

  /// Operations between evaluations (default 256) and after an applied
  /// migration before the next evaluation (default 4096). Measured in
  /// completed facade operations, so tests are deterministic.
  void set_auto_check_interval(int64_t ops) {
    check_interval_.store(ops > 0 ? ops : 1, std::memory_order_relaxed);
  }
  int64_t auto_check_interval() const {
    return check_interval_.load(std::memory_order_relaxed);
  }
  void set_auto_cooldown(int64_t ops) {
    cooldown_.store(ops > 0 ? ops : 0, std::memory_order_relaxed);
  }
  int64_t auto_cooldown() const {
    return cooldown_.load(std::memory_order_relaxed);
  }

  /// What one evaluation did.
  enum class AutoAction {
    kBusy,        ///< another evaluation holds the tick lock
    kRetryLater,  ///< a migration is in flight (or admission raced a DDL):
                  ///< nothing applied, re-check scheduled after one interval
    kKeep,        ///< current schema is (close enough to) the best
    kApplied,     ///< online migration to the best candidate started
    kError,       ///< Recommend failed (e.g. no observed workload yet)
  };
  struct AutoTickResult {
    AutoAction action = AutoAction::kKeep;
    std::string detail;
  };

  /// Forces one evaluation now, ignoring the enabled flag and the
  /// interval/cooldown schedule (tests, shell). The traffic-driven path
  /// runs the same evaluation when an operation crosses the schedule.
  AutoTickResult AutoTick();

  /// Called by the facade after every completed top-level operation, with
  /// no locks held: one relaxed counter bump, plus the evaluation when it
  /// falls due. Never blocks other clients (the tick lock is try-only).
  void OnOperationFinished();

  /// Point-in-time auto-materialize state (shell ADVISE AUTO, tests).
  struct AutoStatus {
    bool enabled = false;
    int64_t ops = 0;            ///< operations observed so far
    int64_t next_check_at = 0;  ///< op count at which the next tick is due
    int64_t evaluations = 0;
    int64_t applied = 0;
    int64_t retries = 0;
    std::string last_action;
  };
  AutoStatus auto_status() const;

 private:
  AutoTickResult TickNow();
  void RecordAction(const AutoTickResult& result);

  Inverda* owner_;
  obs::Observability* obs_;

  obs::Counter* recommendations_;
  obs::Counter* auto_evaluations_;
  obs::Counter* auto_applied_;
  obs::Counter* auto_retries_;
  obs::Histogram* advise_ns_;

  std::atomic<bool> enabled_{false};
  std::atomic<double> threshold_{0.10};
  std::atomic<int64_t> check_interval_{256};
  std::atomic<int64_t> cooldown_{4096};

  std::atomic<int64_t> ops_{0};
  std::atomic<int64_t> next_check_at_{0};
  std::atomic<int64_t> evaluations_{0};
  std::atomic<int64_t> applied_{0};
  std::atomic<int64_t> retries_{0};

  /// Serializes evaluations; OnOperationFinished only try-locks, so client
  /// threads never queue behind an evaluation in progress.
  std::mutex tick_mu_;
  mutable std::mutex state_mu_;  ///< guards last_action_
  std::string last_action_;
};

/// RAII hook the facade's DML wrappers declare *before* their shared
/// catalog lock: the destructor then runs strictly after the lock is
/// released, so an evaluation that starts a migration (exclusive lock) can
/// never self-deadlock.
class AutoTickGuard {
 public:
  explicit AutoTickGuard(Advisor* advisor) : advisor_(advisor) {}
  ~AutoTickGuard() { advisor_->OnOperationFinished(); }
  AutoTickGuard(const AutoTickGuard&) = delete;
  AutoTickGuard& operator=(const AutoTickGuard&) = delete;

 private:
  Advisor* advisor_;
};

}  // namespace advisor
}  // namespace inverda

#endif  // INVERDA_ADVISOR_ADVISOR_H_
