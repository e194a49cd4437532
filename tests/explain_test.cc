// Golden tests for the EXPLAIN rendering of compiled access plans on the
// paper's Tasky genealogy: all three Figure-6 route cases (physical,
// forward, backward) and aux-carrying SMOs (SPLIT's R_star, DECOMPOSE ON
// FK's IDR). The strings pin the exact output format of
// plan::ExplainPlan, which the shell's EXPLAIN command and
// bidel_lint --explain print verbatim.

#include <gtest/gtest.h>

#include "handwritten/reference_sql.h"
#include "inverda/inverda.h"
#include "plan/explain.h"

namespace inverda {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute(BidelInitialScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelDoScript()).ok());
    ASSERT_TRUE(db_.Execute(BidelEvolutionScript()).ok());
  }

  std::string Explain(const std::string& version, const std::string& table) {
    TvId tv = *db_.catalog().ResolveTable(version, table);
    const plan::TvPlan* compiled = *db_.access().GetPlan(tv);
    return plan::ExplainPlan(*compiled, version + "." + table);
  }

  Inverda db_;
};

TEST_F(ExplainTest, PhysicalCase) {
  EXPECT_EQ(Explain("TasKy", "Task"),
            "plan for TasKy.Task (Task-0): distance 0, epoch 4\n"
            "  physical (Figure 6, case 1): data table d0_task\n"
            "  footprint: d0_task (1 table)\n");
}

TEST_F(ExplainTest, BackwardChainWithAux) {
  EXPECT_EQ(
      Explain("Do!", "Todo"),
      "plan for Do!.Todo (Todo-1): distance 2, epoch 4\n"
      "  step 1: backward (Figure 6, case 3) via "
      "DROP COLUMN prio FROM Todo DEFAULT 1\n"
      "          side=target index=0 kernel=column\n"
      "  step 2: backward (Figure 6, case 3) via "
      "SPLIT TABLE Task INTO Todo WITH prio = 1\n"
      "          side=target index=0 kernel=partition\n"
      "          aux R_star -> a1_R_star\n"
      "  data table: d0_task\n"
      "  footprint: a1_R_star d0_task (2 tables)\n");
}

TEST_F(ExplainTest, BackwardDecomposeFkCarriesIdrAux) {
  EXPECT_EQ(
      Explain("TasKy2", "Author"),
      "plan for TasKy2.Author (Author-1): distance 2, epoch 4\n"
      "  step 1: backward (Figure 6, case 3) via "
      "RENAME COLUMN author IN Author TO name\n"
      "          side=target index=0 kernel=fused-column fused[1]\n"
      "          fuses identity via "
      "RENAME COLUMN author IN Author TO name (elided)\n"
      "          layout: reads 1/1 inner columns, builds 0 widens "
      "(0 dead dropped)\n"
      "  step 2: backward (Figure 6, case 3) via "
      "DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) "
      "ON FK author\n"
      "          side=target index=1 kernel=fk\n"
      "          aux IDR -> a3_IDR\n"
      "  data table: d0_task\n"
      "  footprint: a3_IDR d0_task (2 tables)\n");
}

TEST_F(ExplainTest, ForwardCaseAfterMigration) {
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"TasKy2"})).ok());
  EXPECT_EQ(
      Explain("TasKy", "Task"),
      "plan for TasKy.Task (Task-0): distance 1, epoch 5\n"
      "  step 1: forward (Figure 6, case 2) via "
      "DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) "
      "ON FK author\n"
      "          side=source index=0 kernel=fk\n"
      "  data table: d3_task\n"
      "  footprint: d5_author d3_task (2 tables)\n");
}

}  // namespace
}  // namespace inverda
