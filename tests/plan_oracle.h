#ifndef INVERDA_TESTS_PLAN_ORACLE_H_
#define INVERDA_TESTS_PLAN_ORACLE_H_

// The cached-plan oracle of the plan property tests: for every live table
// version, the plan the executor runs (AccessLayer::GetPlan, served from
// the plan cache) must equal a fresh PlanCompiler::Compile field by field —
// per step the SMO, route case, side, index, next version and fused hop
// count; per plan the data table, footprint, traversed SMOs, derive_mutates
// flag and propagation distance. A stale cache entry surviving an epoch
// bump shows up as a mismatch here.

#include <string>

#include "inverda/inverda.h"

namespace inverda {
namespace testutil {

// "" when every cached plan equals a fresh compile, else one line per
// mismatching field.
inline std::string DiffCachedPlans(Inverda* db) {
  std::string diff;
  auto check = [&](bool equal, TvId tv, const std::string& what) {
    if (!equal) {
      diff += "tv " + std::to_string(tv) + ": cached " + what +
              " differs from a fresh compile\n";
    }
  };
  for (TvId tv : db->catalog().AllTableVersions()) {
    Result<const plan::TvPlan*> cached = db->access().GetPlan(tv);
    Result<plan::TvPlan> fresh = db->access().compiler().Compile(tv);
    check(cached.ok() == fresh.ok(), tv, "compile status");
    if (!cached.ok() || !fresh.ok()) continue;
    const plan::TvPlan& c = **cached;
    const plan::TvPlan& f = *fresh;
    check(c.physical == f.physical, tv, "physical flag");
    check(c.steps.size() == f.steps.size(), tv, "step count");
    for (size_t i = 0; i < c.steps.size() && i < f.steps.size(); ++i) {
      const plan::PlanStep& a = c.steps[i];
      const plan::PlanStep& b = f.steps[i];
      const std::string step = "step " + std::to_string(i) + " ";
      check(a.smo == b.smo, tv, step + "smo");
      check(a.route == b.route, tv, step + "route");
      check(a.side == b.side, tv, step + "side");
      check(a.index == b.index, tv, step + "index");
      check(a.next == b.next, tv, step + "next");
      check(a.fused_count() == b.fused_count(), tv, step + "fused_count");
    }
    check(c.data_table == f.data_table, tv, "data_table");
    check(c.footprint == f.footprint, tv, "footprint");
    check(c.traversed_smos == f.traversed_smos, tv, "traversed_smos");
    check(c.derive_mutates == f.derive_mutates, tv, "derive_mutates");
    check(c.distance() == f.distance(), tv, "distance");
  }
  return diff;
}

}  // namespace testutil
}  // namespace inverda

#endif  // INVERDA_TESTS_PLAN_ORACLE_H_
