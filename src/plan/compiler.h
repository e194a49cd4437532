#ifndef INVERDA_PLAN_COMPILER_H_
#define INVERDA_PLAN_COMPILER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "analysis/diagnostic.h"
#include "catalog/catalog.h"
#include "plan/plan.h"
#include "util/status.h"

namespace inverda {
namespace plan {

/// Intentional fusion-miscompile modes for the verifier's mutation
/// self-test: each corrupts the ColumnLayout of the first fused step of
/// every subsequent Compile in a distinct way, proving the translation
/// validator — not the runtime tests — catches the bug.
enum class FusionMutation {
  kNone,             ///< disarmed (production state)
  kDropWiden,        ///< drop the last built widen
  kDropInnerRead,    ///< drop the first inner column the scan reads
  kPerturbInnerRead, ///< shift the first inner column read by one
  kWrongAux,         ///< point the first widen at a non-existent aux table
  kWrongSource,      ///< swap the sources of the first two output columns
};

/// Compiles access plans from the catalog: the one place the genealogy is
/// walked on behalf of data access. The executor (AccessLayer), the tools
/// (EXPLAIN) and sqlgen all consume compiled plans instead of re-deriving
/// routes per operation — the paper's "generate delta code once"
/// discipline (Section 5).
class PlanCompiler {
 public:
  /// `backend` is bound into every compiled step's context; pass nullptr
  /// for catalog-only consumers that render but never execute plans
  /// (sqlgen, bidel_lint --explain).
  PlanCompiler(const VersionCatalog* catalog, AccessBackend* backend)
      : catalog_(catalog), backend_(backend) {}

  /// Compiles the full access plan of `tv` under the catalog's current
  /// materialization state: step chain, terminal data table, dependency
  /// footprint, and traversed-SMO closure.
  Result<TvPlan> Compile(TvId tv) const;

  /// Builds the execution context of one SMO instance (the per-call work a
  /// compiled step amortizes; migration still assembles contexts directly
  /// to derive aux tables for the flipped state).
  Result<SmoContext> BuildContext(SmoId id) const;

  /// Cumulative catalog walks: per-version route resolutions and SmoContext
  /// assemblies. Monotonic; the plan cache diffs them around compiles so
  /// its stats prove cache hits perform zero walks. Atomic because
  /// catalog-wide consumers (VerifyGenealogy, tests) may compile alongside
  /// the plan cache.
  int64_t route_walks() const {
    return route_walks_.load(std::memory_order_relaxed);
  }
  int64_t context_builds() const {
    return context_builds_.load(std::memory_order_relaxed);
  }

  /// Toggles the fusion pass on Compile (default on). Callers owning a plan
  /// cache must clear it when flipping this (AccessLayer does).
  void set_fusion_enabled(bool enabled) {
    fusion_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool fusion_enabled() const {
    return fusion_enabled_.load(std::memory_order_relaxed);
  }

  /// Opt-in post-compile verification gate (default off): when enabled,
  /// every fused step of a compiled plan is translation-validated
  /// (verify::ValidateFusedStep) before the plan leaves the compiler. A
  /// step whose column layout is not provably equivalent to its unfused
  /// kernel chain is spliced back into the original hops — graceful
  /// unfused fallback instead of a silent miscompile — and the diagnostics
  /// are retained (TakeVerifyDiagnostics). Callers owning a plan cache
  /// must clear it when flipping this (AccessLayer does).
  void set_verify_enabled(bool enabled) {
    verify_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool verify_enabled() const {
    return verify_enabled_.load(std::memory_order_relaxed);
  }

  /// Arms an intentional fusion miscompile applied to the first fused step
  /// of every subsequent Compile. kNone disarms. Test-only.
  void set_fusion_mutation_for_test(FusionMutation mutation) {
    fusion_mutation_.store(mutation, std::memory_order_relaxed);
  }

  /// Fused steps the verify gate rejected (unfused fallback taken).
  int64_t fusion_rejections() const {
    return fusion_rejections_.load(std::memory_order_relaxed);
  }

  /// Drains the diagnostics emitted while rejecting fusions.
  std::vector<Diagnostic> TakeVerifyDiagnostics() const;

 private:
  // How an access to a non-physical table version reaches the data:
  // forward through an outgoing materialized SMO (Figure 6 case 2) or
  // backward through the virtualized incoming SMO (case 3).
  struct Route {
    SmoId smo = -1;
    SmoSide side = SmoSide::kSource;  // the side `tv` is on for that SMO
    int index = 0;                    // position of tv within that side
  };
  Result<std::optional<Route>> ResolveRoute(TvId tv) const;
  Result<PlanStep> MakeStep(const Route& route) const;
  void ApplyFusionMutation(TvPlan* compiled) const;
  void RejectInvalidFusions(TvPlan* compiled) const;

  const VersionCatalog* catalog_;
  AccessBackend* backend_;
  mutable std::atomic<int64_t> route_walks_{0};
  mutable std::atomic<int64_t> context_builds_{0};
  std::atomic<bool> fusion_enabled_{true};
  std::atomic<bool> verify_enabled_{false};
  std::atomic<FusionMutation> fusion_mutation_{FusionMutation::kNone};
  mutable std::atomic<int64_t> fusion_rejections_{0};
  mutable std::mutex verify_mu_;
  mutable std::vector<Diagnostic> verify_diagnostics_;
};

}  // namespace plan
}  // namespace inverda

#endif  // INVERDA_PLAN_COMPILER_H_
