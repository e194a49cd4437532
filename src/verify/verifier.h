#ifndef INVERDA_VERIFY_VERIFIER_H_
#define INVERDA_VERIFY_VERIFIER_H_

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "catalog/catalog.h"
#include "plan/compiler.h"
#include "plan/plan.h"

namespace inverda {
namespace verify {

/// Static verification of compiled access plans (docs/verifier.md): the
/// plan-IR counterpart of the src/analysis lint pass. Where the analyzer
/// checks BiDEL scripts before they enter the catalog, the verifier checks
/// what the compiler *made of* the catalog — the TvPlan chains the executor
/// actually runs — and discharges three families of obligations:
///
///  1. Round-trip (GetPut/PutGet, the paper's Section 5 / Table 2): each
///     hop of a plan is symbolically executed over an abstract row/column
///     domain. Column provenance must be exact (every payload column of the
///     planned version recoverable from the data side), and every
///     information channel the data side cannot carry must be backed by a
///     physical auxiliary table — or proven unreachable by the analyzer's
///     partition-witness engine (a condition gap/violation that no row can
///     exercise needs no aux).
///  2. Fusion translation validation: a fused step's ColumnLayout is
///     checked against column provenance recomputed independently from the
///     SMO descriptions of its original hops; any divergence is a
///     miscompile, reported instead of silently executed.
///  3. Lock order: the latch acquisition sequences of all plans in the
///     genealogy must embed into one global total order (acyclic precedence
///     graph), the deadlock-freedom-by-construction argument of
///     TableLatchSet. Footprints above the escalation limit take the
///     exclusive global latch and are exempt.
///
/// Rule catalogue (docs/diagnostics.md):
///   errors:   plan-roundtrip-loss, plan-chain-broken,
///             plan-footprint-incomplete, fusion-mismatch,
///             lock-order-violation
///   warnings: plan-roundtrip-undecidable

/// Which obligation families VerifyPlan / VerifyGenealogy discharge.
struct VerifyOptions {
  bool roundtrip = true;
  bool fusion = true;
  bool lock_order = true;

  /// Shard count the lock-order analysis models: with more than one shard,
  /// every whole-table acquisition expands to the (table, shard) latch
  /// chain TableLatchSet actually takes, and the escalation rule includes
  /// the total latch budget. <= 1 models the unsharded engine.
  /// Inverda::VerifyPlans injects the database's active count when left at
  /// the default.
  int shards = 0;
};

/// Proof accounting: what was checked and how obligations were discharged.
struct ProofStats {
  int plans = 0;
  int hops = 0;         ///< SMO hops symbolically executed (fused expanded)
  int fused_steps = 0;  ///< fused steps validated against their runs
  int obligations = 0;  ///< information-channel obligations encountered
  int by_aux = 0;       ///< ... discharged by a physical auxiliary table
  int by_witness = 0;   ///< ... discharged by a witness unsatisfiability proof
  int lock_sequences = 0;    ///< latch sequences fed to the order analysis
  int lock_tables = 0;       ///< distinct latch names across all sequences
  int lock_escalations = 0;  ///< sequences exempt via global-latch escalation
  int lock_shards = 1;       ///< shard count the lock analysis modeled
};

/// The outcome of verifying a genealogy: every diagnostic plus the proof
/// accounting. `ok()` is the verdict the CI gate keys on.
struct VerifySummary {
  AnalysisReport report;
  ProofStats stats;

  bool ok() const { return !report.has_errors(); }
};

/// Verifies one compiled plan: round-trip obligations per hop (fused runs
/// are expanded to their original hops) and translation validation of every
/// fused step. `stats` (optional) accumulates proof accounting.
AnalysisReport VerifyPlan(const VersionCatalog& catalog,
                          const plan::TvPlan& compiled,
                          const VerifyOptions& options = {},
                          ProofStats* stats = nullptr);

/// Translation validation of one fused step: recomputes the run's column
/// provenance independently from the SMO descriptions of the original hops
/// and compares `step.layout` against it — every output source, the mapped
/// reads of every widen, and that only literal widens no kept column reads
/// are dropped. Empty report == the
/// fusion is proven equivalent to the unfused kernel composition. Used by
/// the compiler's opt-in post-compile gate (PlanCompiler::set_verify_enabled)
/// to reject miscompiled fusions with an unfused fallback.
AnalysisReport ValidateFusedStep(const plan::PlanStep& step,
                                 const std::string& plan_label = "");

/// One latch acquisition sequence (a plan's footprint in acquisition
/// order). Exposed so tests can feed hand-built sequences; genealogy
/// verification feeds the canonical sorted-unique order TableLatchSet uses.
struct LockSequence {
  std::string label;
  std::vector<std::string> tables;
};

/// Static lock-order analysis: builds the precedence graph of consecutive
/// acquisitions across all sequences and reports any cycle (no single
/// global order exists). Sequences longer than `escalation_limit` escalate
/// to the exclusive global latch and are exempt from the graph.
AnalysisReport CheckLockOrder(const std::vector<LockSequence>& sequences,
                              size_t escalation_limit,
                              ProofStats* stats = nullptr);

/// Shard-aware variant: with `shards` > 1 every table in a sequence
/// expands to the hierarchical latch chain a whole-table reader takes
/// (`table, table#0, ..., table#S-1` — the maximal fine acquisition), and
/// a sequence additionally escalates when its total latch count would
/// exceed TableLatchSet::kShardLatchBudget, mirroring the runtime rule.
/// `shards` <= 1 behaves exactly like the three-argument form.
AnalysisReport CheckLockOrder(const std::vector<LockSequence>& sequences,
                              size_t escalation_limit, int shards,
                              ProofStats* stats);

/// Latch-graph name of the migration coordinator's delta-log leaf lock
/// (StagedEntry::mu). During an online migration every top-level write may
/// take it after its table latches; '~' sorts after every physical table
/// name, so appending it keeps a sorted sequence sorted.
inline constexpr char kMigrationCaptureLatch[] = "~migration.capture";

/// Lock-order analysis of the online-migration acquisition pattern
/// (docs/migration.md): every write sequence may additionally take the
/// coordinator's capture leaf lock after its table latches, so each
/// sequence is extended by kMigrationCaptureLatch and the extended set
/// must still embed into one global order. The escalation limit is raised
/// by one so exactly the sequences that escalate at runtime stay exempt.
AnalysisReport CheckMigrationLockOrder(std::vector<LockSequence> sequences,
                                       size_t escalation_limit, int shards,
                                       ProofStats* stats = nullptr);

/// Verifies every table version of the genealogy under the current
/// materialization: compiles a fresh full plan per version through
/// `compiler` and runs all enabled checks, including the cross-plan lock
/// order analysis. Fails only on compile errors; verification findings are
/// returned as diagnostics in the summary.
Result<VerifySummary> VerifyGenealogy(const VersionCatalog& catalog,
                                      const plan::PlanCompiler& compiler,
                                      const VerifyOptions& options = {});

/// Human-readable rendering: the proof accounting plus every diagnostic.
std::string FormatVerifySummary(const VerifySummary& summary);

/// Machine-readable rendering: {"verified": bool, "stats": {...},
/// "diagnostics": [...]} — the VERIFY JSON / --verify-plans --json output.
std::string VerifySummaryToJson(const VerifySummary& summary);

}  // namespace verify
}  // namespace inverda

#endif  // INVERDA_VERIFY_VERIFIER_H_
