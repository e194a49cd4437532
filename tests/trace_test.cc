// Tests for access tracing (src/obs/trace.h + the access-layer wiring):
// the recorded span tree matches the compiled plan for the three Figure-6
// route cases, write propagation records one span per hop, the ring
// buffer caps and orders traces newest-first, and RenderTrace prints the
// executed steps through the exact same formatter as EXPLAIN.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "handwritten/reference_sql.h"
#include "inverda/inverda.h"
#include "plan/explain.h"
#include "plan/plan.h"

namespace inverda {
namespace {

// A derive/propagate span must carry exactly the metadata EXPLAIN prints
// for the plan step it executed.
void ExpectSpanMatchesStep(const obs::TraceSpan& span,
                           const plan::PlanStep& step) {
  EXPECT_EQ(span.smo, step.smo);
  EXPECT_EQ(span.route, step.route == plan::RouteCase::kForward
                            ? "forward"
                            : "backward");
  EXPECT_EQ(span.side, step.side == SmoSide::kSource ? "source" : "target");
  EXPECT_EQ(span.index, step.index);
  EXPECT_EQ(span.kernel, step.kernel->name());
  EXPECT_EQ(span.smo_text, step.smo_text);
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kObsBuild) GTEST_SKIP() << "no-obs build: tracing compiled out";
    ASSERT_TRUE(db_.Execute(BidelInitialScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelDoScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelEvolutionScript()).ok());
    ASSERT_TRUE(db_.Insert("TasKy", "Task",
                           {Value::String("Ann"), Value::String("Paper"),
                            Value::Int(1)})
                    .ok());
    // Every scan must really derive (a view-cache hit records a note
    // instead of the derive chain).
    db_.access().set_cache_enabled(false);
  }

  // The most recent trace, asserted to exist.
  std::shared_ptr<const obs::TraceSpan> LastTrace() {
    std::vector<std::shared_ptr<const obs::TraceSpan>> traces =
        db_.tracer().Last(1);
    EXPECT_EQ(traces.size(), 1u);
    return traces.empty() ? nullptr : traces.front();
  }

  Inverda db_;
};

TEST_F(TraceTest, DisabledByDefaultAndRecordsNothing) {
  EXPECT_FALSE(db_.tracer().enabled());
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  EXPECT_EQ(db_.tracer().completed(), 0);
  EXPECT_TRUE(db_.tracer().Last(8).empty());
}

TEST_F(TraceTest, PhysicalCaseRecordsNoDeriveSpans) {
  db_.tracer().set_enabled(true);
  ASSERT_TRUE(db_.Select("TasKy", "Task").ok());  // Figure 6, case 1
  std::shared_ptr<const obs::TraceSpan> trace = LastTrace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->name, "scan");
  EXPECT_EQ(trace->route, "physical");
  EXPECT_GE(trace->rows_out, 1);
  std::vector<const obs::TraceSpan*> derives;
  trace->Collect("derive", &derives);
  EXPECT_TRUE(derives.empty());
}

TEST_F(TraceTest, BackwardChainMatchesCompiledPlan) {
  const TvId todo = *db_.catalog().ResolveTable("Do!", "Todo");
  const plan::TvPlan* plan = *db_.access().GetPlan(todo);
  ASSERT_FALSE(plan->physical);
  ASSERT_EQ(plan->distance(), 2);  // Figure 6, case 3, applied twice

  db_.tracer().set_enabled(true);
  ASSERT_TRUE(db_.Select("Do!", "Todo").ok());
  std::shared_ptr<const obs::TraceSpan> trace = LastTrace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->name, "scan");
  EXPECT_EQ(trace->label, plan->label);

  // One derive span per plan step, outermost first (kernel recursion opens
  // the next hop's span inside the current one).
  std::vector<const obs::TraceSpan*> derives;
  trace->Collect("derive", &derives);
  ASSERT_EQ(derives.size(), plan->steps.size());
  for (size_t i = 0; i < derives.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    ExpectSpanMatchesStep(*derives[i], plan->steps[i]);
  }
}

TEST_F(TraceTest, ForwardCaseMatchesCompiledPlan) {
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"})).ok());
  const TvId task = *db_.catalog().ResolveTable("TasKy", "Task");
  const plan::TvPlan* plan = *db_.access().GetPlan(task);
  ASSERT_FALSE(plan->physical);
  ASSERT_EQ(plan->distance(), 1);
  ASSERT_EQ(plan->steps[0].route, plan::RouteCase::kForward);

  db_.tracer().set_enabled(true);
  ASSERT_TRUE(db_.Select("TasKy", "Task").ok());  // Figure 6, case 2
  std::shared_ptr<const obs::TraceSpan> trace = LastTrace();
  ASSERT_NE(trace, nullptr);
  std::vector<const obs::TraceSpan*> derives;
  trace->Collect("derive", &derives);
  // The first (outermost) derive span is the plan's forward step. The fk
  // kernel additionally consults the sibling TasKy.Author version, whose
  // own derivation nests below it — the trace records that real extra
  // work, so there may be more derive spans than plan steps.
  ASSERT_GE(derives.size(), 1u);
  EXPECT_EQ(derives[0]->route, "forward");
  ExpectSpanMatchesStep(*derives[0], plan->steps[0]);
}

TEST_F(TraceTest, DeepChainRecordsOneSpanPerStep) {
  // An ADD COLUMN chain at propagation distance 3: projection-only hops
  // fuse into a single PlanStep, so the trace shows one derive span that
  // carries all three hops; with fusion disabled the original
  // one-span-per-hop shape still holds (the TRACE LAST acceptance
  // criterion either way: spans mirror the executed plan exactly).
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION D0 WITH "
                          "CREATE TABLE tab(k0 INT);")
                  .ok());
  for (int j = 1; j <= 3; ++j) {
    ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION D" + std::to_string(j) +
                            " FROM D" + std::to_string(j - 1) +
                            " WITH ADD COLUMN c" + std::to_string(j) +
                            " INT AS k0 + " + std::to_string(j) +
                            " INTO tab;")
                    .ok());
  }
  ASSERT_TRUE(db_.Insert("D0", "tab", {Value::Int(7)}).ok());
  const TvId d3 = *db_.catalog().ResolveTable("D3", "tab");
  const plan::TvPlan* plan = *db_.access().GetPlan(d3);
  ASSERT_EQ(plan->distance(), 3);  // a fused step still counts its hops
  ASSERT_EQ(plan->steps.size(), 1u);
  ASSERT_TRUE(plan->steps[0].is_fused());

  db_.tracer().set_enabled(true);
  ASSERT_TRUE(db_.Select("D3", "tab").ok());
  std::shared_ptr<const obs::TraceSpan> trace = LastTrace();
  ASSERT_NE(trace, nullptr);
  std::vector<const obs::TraceSpan*> derives;
  trace->Collect("derive", &derives);
  ASSERT_EQ(derives.size(), 1u);
  ExpectSpanMatchesStep(*derives[0], plan->steps[0]);
  EXPECT_EQ(derives[0]->fused, 3);
  ASSERT_EQ(derives[0]->fused_hops.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(derives[0]->fused_hops[i].first, "column");
  }
  // TRACE LAST prints the fused step's layout line, as EXPLAIN does.
  EXPECT_EQ(derives[0]->fused_layout,
            "reads 1/1 inner columns, builds 3 widens (0 dead dropped)");
  EXPECT_NE(plan::RenderTrace(*trace, "D3.tab")
                .find("          layout: reads 1/1 inner columns, builds 3 "
                      "widens (0 dead dropped)\n"),
            std::string::npos);

  // Fusion off: the plan falls back to one step (and one span) per hop.
  db_.access().set_fusion_enabled(false);
  const plan::TvPlan* unfused = *db_.access().GetPlan(d3);
  ASSERT_EQ(unfused->steps.size(), 3u);
  ASSERT_TRUE(db_.Select("D3", "tab").ok());
  trace = LastTrace();
  ASSERT_NE(trace, nullptr);
  derives.clear();
  trace->Collect("derive", &derives);
  ASSERT_EQ(derives.size(), 3u);
  for (size_t i = 0; i < derives.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    ExpectSpanMatchesStep(*derives[i], unfused->steps[i]);
  }
  db_.access().set_fusion_enabled(true);
}

TEST_F(TraceTest, WritePropagationRecordsOneSpanPerHop) {
  const TvId todo = *db_.catalog().ResolveTable("Do!", "Todo");
  const plan::TvPlan* plan = *db_.access().GetPlan(todo);
  ASSERT_EQ(plan->distance(), 2);

  db_.tracer().set_enabled(true);
  ASSERT_TRUE(db_.Insert("Do!", "Todo",
                         {Value::String("Cleo"), Value::String("Call")})
                  .ok());
  // The newest apply-rooted trace carries the propagation chain.
  std::vector<std::shared_ptr<const obs::TraceSpan>> traces =
      db_.tracer().Last(db_.tracer().capacity());
  const obs::TraceSpan* apply = nullptr;
  for (const auto& t : traces) {
    if (t->name == "apply") {
      apply = t.get();
      break;
    }
  }
  ASSERT_NE(apply, nullptr);
  EXPECT_GE(apply->rows_in, 1);
  std::vector<const obs::TraceSpan*> hops;
  apply->Collect("propagate", &hops);
  ASSERT_EQ(hops.size(), plan->steps.size());
  for (size_t i = 0; i < hops.size(); ++i) {
    SCOPED_TRACE("hop " + std::to_string(i));
    ExpectSpanMatchesStep(*hops[i], plan->steps[i]);
  }
}

TEST_F(TraceTest, RingBufferCapsAndOrdersNewestFirst) {
  db_.tracer().set_capacity(2);
  db_.tracer().set_enabled(true);
  ASSERT_TRUE(db_.Select("TasKy", "Task").ok());
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  ASSERT_TRUE(db_.Insert("TasKy", "Task",
                         {Value::String("Ben"), Value::String("Exam"),
                          Value::Int(2)})
                  .ok());
  EXPECT_EQ(db_.tracer().completed(), 3);
  std::vector<std::shared_ptr<const obs::TraceSpan>> traces =
      db_.tracer().Last(10);
  ASSERT_EQ(traces.size(), 2u);  // capacity evicted the oldest
  EXPECT_EQ(traces[0]->name, "apply");
  EXPECT_EQ(traces[1]->name, "scan");
  EXPECT_EQ(db_.tracer().Last(1).size(), 1u);
  db_.tracer().Clear();
  EXPECT_TRUE(db_.tracer().Last(10).empty());
  EXPECT_EQ(db_.tracer().completed(), 3);  // monotonic, unaffected by Clear
}

TEST_F(TraceTest, RenderTraceReusesTheExplainStepFormatter) {
  const TvId todo = *db_.catalog().ResolveTable("Do!", "Todo");
  const plan::TvPlan* plan = *db_.access().GetPlan(todo);
  db_.tracer().set_enabled(true);
  ASSERT_TRUE(db_.Select("Do!", "Todo").ok());
  std::shared_ptr<const obs::TraceSpan> trace = LastTrace();
  ASSERT_NE(trace, nullptr);

  const std::string rendered = plan::RenderTrace(*trace, "Do!.Todo");
  const std::string explained = plan::ExplainPlan(*plan, "Do!.Todo");
  // Every step/side/aux line EXPLAIN prints must reappear verbatim in the
  // rendered trace: both go through the shared AppendStep formatter.
  size_t pos = 0;
  int step_lines = 0;
  while (pos < explained.size()) {
    size_t end = explained.find('\n', pos);
    if (end == std::string::npos) end = explained.size();
    std::string line = explained.substr(pos, end - pos);
    if (line.rfind("  step ", 0) == 0 || line.rfind("          side=", 0) == 0 ||
        line.rfind("          aux ", 0) == 0) {
      EXPECT_NE(rendered.find(line + "\n"), std::string::npos)
          << "EXPLAIN line missing from trace: " << line;
      ++step_lines;
    }
    pos = end + 1;
  }
  EXPECT_GE(step_lines, 4);  // two steps, each at least step+side lines
  EXPECT_NE(rendered.find("observed: derive "), std::string::npos);
  EXPECT_NE(rendered.find("  observed total: "), std::string::npos);
}

TEST_F(TraceTest, ToJsonCarriesTheSpanTree) {
  db_.tracer().set_enabled(true);
  ASSERT_TRUE(db_.Select("TasKy2", "Task").ok());
  std::shared_ptr<const obs::TraceSpan> trace = LastTrace();
  ASSERT_NE(trace, nullptr);
  const std::string json = trace->ToJson();
  EXPECT_NE(json.find("\"name\":\"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"derive\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
  EXPECT_NE(json.find("\"duration_ns\":"), std::string::npos);
}

}  // namespace
}  // namespace inverda
