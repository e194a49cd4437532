// The traffic-driven materialization advisor (src/advisor): profiling,
// weight validation, candidate scoring, the facade Advise() surface, and
// the one-PR compatibility shim for the legacy free-function advisor.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "advisor/advisor.h"
#include "genealogy_builder.h"
#include "handwritten/reference_sql.h"
#include "inverda/inverda.h"
#include "test_seed.h"

namespace inverda {
namespace {

using advisor::AdviseOptions;
using advisor::AdviseReport;
using advisor::CandidateScore;
using advisor::CostModel;
using advisor::WorkloadProfile;

AdviseOptions WeightsOnly(std::map<std::string, double> weights,
                          bool observed = false) {
  AdviseOptions options;
  options.version_weights = std::move(weights);
  options.use_observed_latencies = observed;
  return options;
}

// True when every table of `version` is physically stored under `m`.
bool AllPhysicalUnder(const VersionCatalog& catalog, const std::string& version,
                      const std::set<SmoId>& m) {
  const SchemaVersionInfo* info = *catalog.FindVersion(version);
  std::vector<TvId> tables = catalog.PhysicalTables(m);
  std::set<TvId> physical(tables.begin(), tables.end());
  for (const auto& [table, tv] : info->tables) {
    (void)table;
    if (physical.count(tv) == 0) return false;
  }
  return true;
}

class AdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute(BidelInitialScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelDoScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelEvolutionScript()).ok());
  }
  Inverda db_;
};

// The headline property on the TasKy genealogy: a workload 100% on one
// version recommends a schema under which that version's tables are all
// physical — with the uniform hop model and with the modeled-ns one.
TEST_F(AdvisorTest, FullWorkloadOnOneVersionRecommendsItsMaterialization) {
  for (const std::string& version : {"TasKy", "Do!", "TasKy2"}) {
    for (bool observed : {false, true}) {
      Result<AdviseReport> report =
          db_.Advise(WeightsOnly({{version, 1.0}}, observed));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(AllPhysicalUnder(db_.catalog(), version,
                                   report->best().materialization))
          << version << (observed ? " (observed)" : " (uniform)")
          << " got " << report->best().label;
    }
  }
}

TEST_F(AdvisorTest, RecommendationIsAppliable) {
  Result<AdviseReport> report = db_.Advise(WeightsOnly({{"TasKy2", 1.0}}));
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(
      db_.Materialize(MaterializeRequest::Schema(report->best().materialization))
          .ok());
  EXPECT_TRUE(db_.catalog().IsPhysical(
      *db_.catalog().ResolveTable("TasKy2", "Task")));
  EXPECT_TRUE(db_.catalog().IsPhysical(
      *db_.catalog().ResolveTable("TasKy2", "Author")));
}

// The TasKy genealogy has exactly five valid materialization schemas; the
// report ranks all of them, cheapest first, with exactly one marked current
// and deltas consistent with the current schema's cost.
TEST_F(AdvisorTest, RanksAllFiveCandidates) {
  Result<AdviseReport> report =
      db_.Advise(WeightsOnly({{"TasKy", 0.5}, {"TasKy2", 0.5}}));
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->ranked.size(), 5u);
  int current = 0;
  for (size_t i = 0; i < report->ranked.size(); ++i) {
    const CandidateScore& score = report->ranked[i];
    if (i > 0) {
      EXPECT_GE(score.total_cost, report->ranked[i - 1].total_cost);
    }
    if (score.is_current) {
      ++current;
      EXPECT_DOUBLE_EQ(score.total_cost, report->current_cost);
      EXPECT_DOUBLE_EQ(score.delta_vs_current, 0.0);
    }
  }
  EXPECT_EQ(current, 1);
  EXPECT_GE(report->projected_improvement, 0.0);
  EXPECT_FALSE(report->ToText().empty());
  EXPECT_FALSE(report->ToJson().empty());
}

TEST_F(AdvisorTest, MixedWorkloadShiftsWithWeights) {
  Result<AdviseReport> mostly_old =
      db_.Advise(WeightsOnly({{"TasKy", 0.9}, {"TasKy2", 0.1}}));
  Result<AdviseReport> mostly_new =
      db_.Advise(WeightsOnly({{"TasKy", 0.1}, {"TasKy2", 0.9}}));
  ASSERT_TRUE(mostly_old.ok() && mostly_new.ok());
  EXPECT_TRUE(mostly_old->best().materialization.empty());
  EXPECT_FALSE(mostly_new->best().materialization.empty());
}

// Writes are priced with propagate costs, so a write-heavy profile carries
// write cost and a read-only one does not.
TEST_F(AdvisorTest, ReadFractionSplitsReadAndWriteCost) {
  AdviseOptions writes = WeightsOnly({{"TasKy2", 1.0}});
  writes.read_fraction = 0.0;
  Result<AdviseReport> write_report = db_.Advise(writes);
  Result<AdviseReport> read_report = db_.Advise(WeightsOnly({{"TasKy2", 1.0}}));
  ASSERT_TRUE(write_report.ok() && read_report.ok());
  EXPECT_GT(write_report->best().write_cost, 0.0);
  EXPECT_DOUBLE_EQ(write_report->best().read_cost, 0.0);
  EXPECT_GT(read_report->best().read_cost, 0.0);
  EXPECT_DOUBLE_EQ(read_report->best().write_cost, 0.0);
}

// --- input validation (the single NormalizeWeights gate) --------------------

TEST_F(AdvisorTest, RejectsNegativeWeights) {
  Result<AdviseReport> report =
      db_.Advise(WeightsOnly({{"TasKy", -0.5}, {"TasKy2", 1.0}}));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("negative"), std::string::npos);
}

TEST_F(AdvisorTest, RejectsAllZeroWeights) {
  Result<AdviseReport> report =
      db_.Advise(WeightsOnly({{"TasKy", 0.0}, {"TasKy2", 0.0}}));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AdvisorTest, RejectsUnknownVersion) {
  EXPECT_FALSE(db_.Advise(WeightsOnly({{"NoSuchVersion", 1.0}})).ok());
}

TEST_F(AdvisorTest, RejectsOutOfRangeReadFraction) {
  AdviseOptions options = WeightsOnly({{"TasKy", 1.0}});
  options.read_fraction = 1.5;
  Result<AdviseReport> report = db_.Advise(options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AdvisorTest, NormalizeWeightsScalesToUnitSum) {
  Result<std::map<std::string, double>> normalized =
      advisor::NormalizeWeights({{"a", 3.0}, {"b", 1.0}});
  ASSERT_TRUE(normalized.ok());
  EXPECT_DOUBLE_EQ((*normalized)["a"], 0.75);
  EXPECT_DOUBLE_EQ((*normalized)["b"], 0.25);
  EXPECT_FALSE(advisor::NormalizeWeights({}).ok());
}

// --- profiled windows -------------------------------------------------------

// With no explicit weights the advisor mines the access layer's per-version
// counters; before any traffic that is an error, after skewed traffic it
// recommends the hot version's materialization.
TEST_F(AdvisorTest, ProfilesAccessCounters) {
  Result<AdviseReport> cold = db_.Advise();
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kInvalidArgument);

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
    ASSERT_TRUE(db_.Select("TasKy2", "Author").ok());
  }
  AdviseOptions uniform;
  uniform.use_observed_latencies = false;
  Result<AdviseReport> report = db_.Advise(uniform);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->profile.source, "access-counters");
  EXPECT_GT(report->profile.observed_reads, 0);
  EXPECT_TRUE(AllPhysicalUnder(db_.catalog(), "TasKy2",
                               report->best().materialization));
}

TEST_F(AdvisorTest, WritesCountSeparatelyFromReads) {
  ASSERT_TRUE(db_.Insert("TasKy", "Task",
                         {Value::String("ann"), Value::String("t"),
                          Value::Int(1)})
                  .ok());
  ASSERT_TRUE(db_.Select("TasKy", "Task").ok());
  Result<AdviseReport> report = db_.Advise();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->profile.observed_reads, 1);
  EXPECT_GE(report->profile.observed_writes, 1);
}

// ResetMetrics resets the per-version counters through the registry's
// "access_profile" source, opening a fresh observation window.
TEST_F(AdvisorTest, ResetMetricsOpensFreshWindow) {
  ASSERT_TRUE(db_.Select("TasKy", "Task").ok());
  ASSERT_TRUE(db_.Advise().ok());
  db_.ResetMetrics();
  Result<AdviseReport> report = db_.Advise();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// The recent window mines the trace ring instead of the lifetime counters.
TEST_F(AdvisorTest, ProfilesTraceRing) {
  AdviseOptions recent;
  recent.window = advisor::ProfileWindow::kRecent;
  Result<AdviseReport> cold = db_.Advise(recent);
  ASSERT_FALSE(cold.ok());  // tracing off: no usable spans

  db_.tracer().set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_.Select("Do!", "Todo").ok());
  }
  Result<AdviseReport> report = db_.Advise(recent);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->profile.source, "trace-ring");
  EXPECT_GT(report->profile.observed_reads, 0);
  EXPECT_TRUE(AllPhysicalUnder(db_.catalog(), "Do!",
                               report->best().materialization));
}

// --- cost model -------------------------------------------------------------

TEST(CostModelTest, UniformPricesEveryHopAtOne) {
  CostModel model = CostModel::Uniform();
  EXPECT_FALSE(model.observed);
  EXPECT_DOUBLE_EQ(model.DeriveCost("column"), 1.0);
  EXPECT_DOUBLE_EQ(model.PropagateCost("fk"), 1.0);
}

TEST(CostModelTest, FromMetricsUsesObservedMeansAboveMinSamples) {
  obs::MetricsRegistry registry;
  registry.set_timing_enabled(true);
  obs::Histogram* derive = registry.histogram("kernel.column.derive_ns");
  for (int i = 0; i < 20; ++i) derive->Record(1000);
  obs::Histogram* sparse = registry.histogram("kernel.fk.derive_ns");
  sparse->Record(9999);  // below min_samples: default stands

  CostModel model = CostModel::FromMetrics(registry.Snapshot(), 8);
  EXPECT_TRUE(model.observed);
  EXPECT_DOUBLE_EQ(model.DeriveCost("column"), 1000.0);
  EXPECT_NE(model.DeriveCost("fk"), 9999.0);
  EXPECT_GT(model.observed_samples, 0);
}

// --- random genealogies -----------------------------------------------------

// The single-version property generalized beyond TasKy: on random
// genealogies, 100% of the workload on any one version recommends a schema
// that stores all of that version's tables physically.
class AdvisorGenealogyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdvisorGenealogyTest, FullWorkloadRecommendsVersionMaterialization) {
  const uint64_t seed = TestSeed(GetParam());
  INVERDA_TRACE_SEED(seed);
  Inverda db;
  testutil::GenealogyBuilder builder(&db, seed);
  ASSERT_TRUE(builder.Init().ok());
  for (int step = 0; step < 4; ++step) {
    ASSERT_TRUE(builder.Step().ok()) << "seed " << seed;
  }
  for (const std::string& version : builder.versions()) {
    AdviseOptions options;
    options.version_weights = {{version, 1.0}};
    options.use_observed_latencies = false;
    Result<AdviseReport> report = db.Advise(options);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    EXPECT_TRUE(AllPhysicalUnder(db.catalog(), version,
                                 report->best().materialization))
        << "seed " << seed << " version " << version << " got "
        << report->best().label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdvisorGenealogyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// --- explicit weights ---------------------------------------------------

// Explicit weights with the uniform hop model price each candidate as the
// weighted average of 1 + propagation distance: a workload wholly on a
// version that the winner stores physically costs exactly 1 per op.
TEST_F(AdvisorTest, UniformWeightsPriceLocalAccessAtOne) {
  for (const std::string version : {"TasKy", "Do!", "TasKy2"}) {
    Result<AdviseReport> report = db_.Advise(WeightsOnly({{version, 1.0}}));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_DOUBLE_EQ(report->best().total_cost, 1.0) << version;
    for (const CandidateScore& candidate : report->ranked) {
      EXPECT_GE(candidate.total_cost, 1.0) << candidate.label;
    }
  }
}

// Every degenerate weight vector is rejected: a lone negative or zero
// weight, and no weights at all on an instance without traffic to profile.
TEST_F(AdvisorTest, RejectsDegenerateWeightVectors) {
  EXPECT_FALSE(db_.Advise(WeightsOnly({{"TasKy", -1.0}})).ok());
  EXPECT_FALSE(db_.Advise(WeightsOnly({{"TasKy", 0.0}})).ok());
  EXPECT_FALSE(db_.Advise(WeightsOnly({})).ok());
}

}  // namespace
}  // namespace inverda
