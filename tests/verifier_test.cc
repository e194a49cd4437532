// Golden and negative tests for the plan-IR verifier (src/verify): the
// seed genealogies verify with zero diagnostics, the compiler's opt-in
// verify gate catches every injected fusion miscompile (the mutation
// self-test), the static lock-order analysis accepts the canonical sorted
// order and reports cycles, and hand-corrupted plans trip each round-trip
// rule. The bad-evolution corpus is shared with analyzer_test: after every
// rejected script the surviving genealogy must still verify.

#include "verify/verifier.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bad_scripts.h"
#include "genealogy_builder.h"
#include "handwritten/reference_sql.h"
#include "inverda/inverda.h"
#include "storage/latch.h"
#include "workload/wikimedia.h"

namespace inverda {
namespace {

const Diagnostic* FindRule(const AnalysisReport& report,
                           const std::string& rule) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

TvId Tv(const Inverda& db, const std::string& version,
        const std::string& table) {
  const SchemaVersionInfo* info = *db.catalog().FindVersion(version);
  return info->tables.at(table);
}

// A copy of `plan` with auxiliary `aux` stripped from every hop's context,
// simulating a plan compiled against a materialization that never
// provisioned (or has since dropped) that aux table.
plan::TvPlan StripAux(const plan::TvPlan& plan, const std::string& aux) {
  plan::TvPlan out = plan;
  for (plan::PlanStep& step : out.steps) {
    step.ctx.aux_names.erase(aux);
    for (plan::PlanStep& sub : step.fused) sub.ctx.aux_names.erase(aux);
  }
  return out;
}

// --- golden: the seed genealogies verify with zero diagnostics --------------

TEST(VerifierGoldenTest, TaskyGenealogyVerifiesUnderEveryMaterialization) {
  Inverda db;
  ASSERT_TRUE(db.Execute(BidelInitialScript()).ok());
  ASSERT_TRUE(db.Execute(BidelDoScript()).ok());
  ASSERT_TRUE(db.Execute(BidelEvolutionScript()).ok());
  ASSERT_TRUE(db.Insert("TasKy", "Task",
                        {Value::String("Ann"), Value::String("Paper"),
                         Value::Int(1)})
                  .ok());

  Result<verify::VerifySummary> summary = db.VerifyPlans();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->ok()) << verify::FormatVerifySummary(*summary);
  EXPECT_TRUE(summary->report.diagnostics.empty())
      << verify::FormatVerifySummary(*summary);
  EXPECT_GT(summary->stats.plans, 0);
  EXPECT_GT(summary->stats.hops, 0);
  EXPECT_GT(summary->stats.obligations, 0);
  // Every obligation was discharged one way or the other.
  EXPECT_EQ(summary->stats.obligations,
            summary->stats.by_aux + summary->stats.by_witness);
  EXPECT_EQ(summary->stats.lock_sequences, summary->stats.plans);

  // The renderings agree with the verdict.
  std::string text = verify::FormatVerifySummary(*summary);
  EXPECT_NE(text.find("verified:"), std::string::npos) << text;
  std::string json = verify::VerifySummaryToJson(*summary);
  EXPECT_NE(json.find("\"verified\": true"), std::string::npos) << json;

  // Migrating forth and back re-provisions different aux tables; the proof
  // must go through under every materialized state.
  ASSERT_TRUE(db.Materialize(MaterializeRequest::Targets({"TasKy2"})).ok());
  summary = db.VerifyPlans();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->report.diagnostics.empty())
      << verify::FormatVerifySummary(*summary);
  ASSERT_TRUE(db.Materialize(MaterializeRequest::Targets({"TasKy"})).ok());
  summary = db.VerifyPlans();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->report.diagnostics.empty())
      << verify::FormatVerifySummary(*summary);
}

TEST(VerifierGoldenTest, WikimediaGenealogyVerifies) {
  WikimediaOptions options;
  Result<WikimediaScenario> scenario = BuildWikimedia(options);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  Result<verify::VerifySummary> summary = scenario->db->VerifyPlans();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->report.diagnostics.empty())
      << verify::FormatVerifySummary(*summary);
  EXPECT_GE(summary->stats.plans, 171);
  EXPECT_EQ(summary->stats.obligations,
            summary->stats.by_aux + summary->stats.by_witness);

  // Data at v109: the far versions read through fused runs whose layouts
  // drop dead widens, and every layout must still translation-validate.
  ASSERT_TRUE(scenario->db
                  ->Materialize(MaterializeRequest::Targets(
                      {scenario->versions[108]}))
                  .ok());
  summary = scenario->db->VerifyPlans();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->report.diagnostics.empty())
      << verify::FormatVerifySummary(*summary);
}

TEST(VerifierGoldenTest, GenealogySurvivesEveryRejectedEvolution) {
  // The analyzer-gate corpus: each script is rejected before touching the
  // catalog, so the plans compiled afterwards must still all verify.
  for (const testutil::BadScript& bad : testutil::kBadScripts) {
    Inverda db;
    ASSERT_TRUE(db.Execute(testutil::kBadScriptsBase).ok()) << bad.name;
    Status status = db.Execute(bad.script);
    ASSERT_FALSE(status.ok()) << bad.name << " was accepted";
    EXPECT_EQ(status.code(), bad.code) << bad.name;
    Result<verify::VerifySummary> summary = db.VerifyPlans();
    ASSERT_TRUE(summary.ok()) << bad.name << ": "
                              << summary.status().ToString();
    EXPECT_TRUE(summary->report.diagnostics.empty())
        << bad.name << ": " << verify::FormatVerifySummary(*summary);
  }
}

// --- the mutation self-test: the verify gate catches miscompiles ------------

class FusionMutationTest
    : public ::testing::TestWithParam<plan::FusionMutation> {};

TEST_P(FusionMutationTest, VerifyGateRejectsInjectedMiscompile) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION F0 WITH "
                         "CREATE TABLE tab(k0 INT, v0 TEXT);")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION F1 FROM F0 WITH "
                         "ADD COLUMN c1 INT AS k0 + 1 INTO tab;")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION F2 FROM F1 WITH "
                         "ADD COLUMN c2 INT AS k0 + 2 INTO tab;")
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        db.Insert("F0", "tab", {Value::Int(i), Value::String("r")}).ok());
  }
  const TvId head = Tv(db, "F2", "tab");

  // Premise: the healthy compile fuses the two column hops.
  Result<const plan::TvPlan*> healthy = db.access().GetPlan(head);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  bool fused = false;
  for (const plan::PlanStep& step : (*healthy)->steps) {
    fused = fused || step.is_fused();
  }
  ASSERT_TRUE(fused) << "the F0->F2 chain did not fuse; the self-test "
                        "would not exercise the validator";
  const auto baseline = testutil::Snapshot(&db);

  // Inject the miscompile with the gate armed: the validator must reject
  // the fusion statically (diagnostic + counter), fall back to the unfused
  // chain, and serve exactly the same data.
  db.access().set_verify_enabled(true);
  db.access().set_fusion_mutation_for_test(GetParam());
  (void)db.access().TakeVerifyDiagnostics();
  const int64_t rejected_before =
      db.Metrics().value("plan_verify.fusion_rejected");

  const auto snapshot = testutil::Snapshot(&db);
  EXPECT_EQ(testutil::DiffSnapshots(baseline, snapshot), "");

  Result<const plan::TvPlan*> plan = db.access().GetPlan(head);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (const plan::PlanStep& step : (*plan)->steps) {
    EXPECT_FALSE(step.is_fused())
        << "a corrupted fused step survived the verify gate";
  }

  std::vector<Diagnostic> diagnostics = db.access().TakeVerifyDiagnostics();
  bool reported = false;
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == "fusion-mismatch") reported = true;
  }
  EXPECT_TRUE(reported) << "no fusion-mismatch diagnostic for the injected "
                           "miscompile";
  EXPECT_GT(db.Metrics().value("plan_verify.fusion_rejected"),
            rejected_before);

  // With the gate off, the corrupted layout survives compilation — and
  // the validator, applied directly, is exactly what catches it.
  db.access().set_verify_enabled(false);
  db.access().set_fusion_mutation_for_test(GetParam());
  Result<const plan::TvPlan*> corrupted = db.access().GetPlan(head);
  ASSERT_TRUE(corrupted.ok()) << corrupted.status().ToString();
  bool still_fused = false;
  for (const plan::PlanStep& step : (*corrupted)->steps) {
    if (!step.is_fused()) continue;
    still_fused = true;
    AnalysisReport report = verify::ValidateFusedStep(step, "F2.tab");
    EXPECT_NE(FindRule(report, "fusion-mismatch"), nullptr)
        << "validator missed the corrupted layout";
  }
  EXPECT_TRUE(still_fused);
  db.access().set_fusion_mutation_for_test(plan::FusionMutation::kNone);
}

INSTANTIATE_TEST_SUITE_P(Mutations, FusionMutationTest,
                         ::testing::Values(
                             plan::FusionMutation::kDropWiden,
                             plan::FusionMutation::kDropInnerRead,
                             plan::FusionMutation::kPerturbInnerRead,
                             plan::FusionMutation::kWrongAux,
                             plan::FusionMutation::kWrongSource));

// --- static lock-order analysis ---------------------------------------------

TEST(LockOrderTest, SortedSequencesEmbedIntoOneGlobalOrder) {
  verify::ProofStats stats;
  AnalysisReport report = verify::CheckLockOrder(
      {{"p1", {"a", "b", "c"}}, {"p2", {"b", "c", "d"}}, {"p3", {"a", "d"}}},
      TableLatchSet::kEscalationLimit, &stats);
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report, "");
  EXPECT_EQ(stats.lock_sequences, 3);
  EXPECT_EQ(stats.lock_tables, 4);
  EXPECT_EQ(stats.lock_escalations, 0);
}

TEST(LockOrderTest, ConflictingOrdersReportTheCycle) {
  AnalysisReport report = verify::CheckLockOrder(
      {{"p1", {"a", "b"}}, {"p2", {"b", "a"}}},
      TableLatchSet::kEscalationLimit, nullptr);
  const Diagnostic* d = FindRule(report, "lock-order-violation");
  ASSERT_NE(d, nullptr) << FormatReport(report, "");
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_NE(d->message.find("a"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("b"), std::string::npos) << d->message;
}

TEST(LockOrderTest, EscalatedSequencesAreExemptFromTheGraph) {
  // The long sequence contradicts the short one, but it escalates to the
  // exclusive global latch and never takes per-table latches.
  verify::ProofStats stats;
  AnalysisReport report = verify::CheckLockOrder(
      {{"small", {"a", "b"}}, {"big", {"b", "a", "c"}}},
      /*escalation_limit=*/2, &stats);
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report, "");
  EXPECT_EQ(stats.lock_escalations, 1);
}

TEST(LockOrderTest, ShardedExpansionEmbedsIntoOneGlobalOrder) {
  // Under sharding every table expands to (table, shard 0..S-1) in
  // ascending shard order — the maximal reader chain; writer and
  // key-scoped acquisition orders are subsequences of it, so proving the
  // expansion acyclic proves them all.
  verify::ProofStats stats;
  AnalysisReport report = verify::CheckLockOrder(
      {{"p1", {"a", "b", "c"}}, {"p2", {"b", "c", "d"}}, {"p3", {"a", "d"}}},
      TableLatchSet::kEscalationLimit, /*shards=*/4, &stats);
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report, "");
  EXPECT_EQ(stats.lock_sequences, 3);
  EXPECT_EQ(stats.lock_shards, 4);
}

TEST(LockOrderTest, ShardedExpansionStillCatchesConflicts) {
  AnalysisReport report = verify::CheckLockOrder(
      {{"p1", {"a", "b"}}, {"p2", {"b", "a"}}},
      TableLatchSet::kEscalationLimit, /*shards=*/8, nullptr);
  EXPECT_NE(FindRule(report, "lock-order-violation"), nullptr)
      << FormatReport(report, "");
}

TEST(LockOrderTest, ShardLatchBudgetForcesEscalation) {
  // Three tables at 20 shards is 3 * (1 + 20) = 63 latches — over the
  // kShardLatchBudget of 48 — so that sequence escalates to the global
  // latch and leaves the per-table graph, exactly as
  // TableLatchSet::Acquire does; the two-table sequence (42 latches)
  // stays fine-grained.
  verify::ProofStats stats;
  AnalysisReport report = verify::CheckLockOrder(
      {{"wide", {"a", "b", "c"}}, {"narrow", {"a", "b"}}},
      TableLatchSet::kEscalationLimit, /*shards=*/20, &stats);
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report, "");
  EXPECT_EQ(stats.lock_escalations, 1);
  EXPECT_EQ(stats.lock_shards, 20);
}

// --- negatives: corrupted plans trip each round-trip rule -------------------

class StrippedAuxTest : public ::testing::Test {
 protected:
  // Builds P0 -> P1 with one SPLIT whose condition is `cond` and returns
  // the compiled plan of P1.lo (one partition hop, R_star physical).
  Result<const plan::TvPlan*> CompileSplit(const std::string& cond) {
    Status s = db_.Execute(
        "CREATE SCHEMA VERSION P0 WITH CREATE TABLE tab(k0 INT, v0 TEXT);");
    if (!s.ok()) return s;
    s = db_.Execute("CREATE SCHEMA VERSION P1 FROM P0 WITH "
                    "SPLIT TABLE tab INTO lo WITH " +
                    cond + ";");
    if (!s.ok()) return s;
    return db_.access().GetPlan(Tv(db_, "P1", "lo"));
  }
  Inverda db_;
};

TEST_F(StrippedAuxTest, MissingPartitionAuxIsReportedWithAWitness) {
  Result<const plan::TvPlan*> plan = CompileSplit("k0 = 1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // The intact plan proves clean, discharged by the physical aux.
  verify::ProofStats stats;
  AnalysisReport clean = verify::VerifyPlan(db_.catalog(), **plan, {}, &stats);
  EXPECT_FALSE(clean.has_errors()) << FormatReport(clean, "");
  EXPECT_GT(stats.by_aux, 0);

  // Stripped of R_star, the loss case is reachable: any row with k0 <> 1
  // kept in lo would be unrecoverable. The report carries a witness.
  AnalysisReport report =
      verify::VerifyPlan(db_.catalog(), StripAux(**plan, "R_star"));
  const Diagnostic* d = FindRule(report, "plan-roundtrip-loss");
  ASSERT_NE(d, nullptr) << FormatReport(report, "");
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_NE(d->message.find("witness row"), std::string::npos) << d->message;
}

TEST_F(StrippedAuxTest, FullyCoveringConditionIsProvenVacuous) {
  // This condition holds for every k0 (including NULL), so no row can ever
  // violate it: the missing aux is discharged by the witness engine.
  Result<const plan::TvPlan*> plan =
      CompileSplit("k0 = 1 OR k0 <> 1 OR k0 IS NULL");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  verify::ProofStats stats;
  AnalysisReport report = verify::VerifyPlan(
      db_.catalog(), StripAux(**plan, "R_star"), {}, &stats);
  EXPECT_FALSE(report.has_errors()) << FormatReport(report, "");
  EXPECT_EQ(FindRule(report, "plan-roundtrip-loss"), nullptr);
  EXPECT_GT(stats.by_witness, 0);
}

TEST_F(StrippedAuxTest, UndecidableConditionWarnsInsteadOfGuessing) {
  // The condition covers every row, but the arithmetic leg is outside the
  // witness engine's decidable fragment, so the refutation is not sound:
  // the verifier must refuse to claim either verdict.
  Result<const plan::TvPlan*> plan =
      CompileSplit("k0 + 1 = 2 OR k0 <> 1 OR k0 IS NULL");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  AnalysisReport report =
      verify::VerifyPlan(db_.catalog(), StripAux(**plan, "R_star"));
  EXPECT_FALSE(report.has_errors()) << FormatReport(report, "");
  const Diagnostic* d = FindRule(report, "plan-roundtrip-undecidable");
  ASSERT_NE(d, nullptr) << FormatReport(report, "");
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
}

TEST_F(StrippedAuxTest, CorruptedFootprintAndBoundaryAreReported) {
  Result<const plan::TvPlan*> plan = CompileSplit("k0 = 1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  plan::TvPlan no_footprint = **plan;
  no_footprint.footprint.clear();
  AnalysisReport report = verify::VerifyPlan(db_.catalog(), no_footprint);
  EXPECT_NE(FindRule(report, "plan-footprint-incomplete"), nullptr)
      << FormatReport(report, "");

  plan::TvPlan wrong_boundary = **plan;
  wrong_boundary.data_table = "nonsense";
  report = verify::VerifyPlan(db_.catalog(), wrong_boundary);
  EXPECT_NE(FindRule(report, "plan-chain-broken"), nullptr)
      << FormatReport(report, "");
}

}  // namespace
}  // namespace inverda
