#include "plan/compiler.h"

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "plan/fused.h"
#include "verify/verifier.h"

namespace inverda {
namespace plan {

Result<std::optional<PlanCompiler::Route>> PlanCompiler::ResolveRoute(
    TvId tv) const {
  route_walks_.fetch_add(1, std::memory_order_relaxed);
  if (catalog_->IsPhysical(tv)) return std::optional<Route>();
  const TableVersion& info = catalog_->table_version(tv);
  // Case 2 (forwards): one outgoing SMO is materialized; the data is on its
  // target side, so tv is accessed as a source of that SMO.
  for (SmoId out : info.outgoing) {
    const SmoInstance& inst = catalog_->smo(out);
    if (inst.smo->kind() == SmoKind::kDropTable) continue;
    if (!inst.materialized) continue;
    Route route;
    route.smo = out;
    route.side = SmoSide::kSource;
    for (size_t i = 0; i < inst.sources.size(); ++i) {
      if (inst.sources[i] == tv) route.index = static_cast<int>(i);
    }
    return std::optional<Route>(route);
  }
  // Case 3 (backwards): the incoming SMO is virtualized; the data is on its
  // source side, so tv is accessed as a target of that SMO.
  const SmoInstance& in = catalog_->smo(info.incoming);
  if (in.smo->kind() == SmoKind::kCreateTable) {
    return Status::Internal("table version " + catalog_->TvLabel(tv) +
                            " has no data route");
  }
  Route route;
  route.smo = info.incoming;
  route.side = SmoSide::kTarget;
  for (size_t i = 0; i < in.targets.size(); ++i) {
    if (in.targets[i] == tv) route.index = static_cast<int>(i);
  }
  return std::optional<Route>(route);
}

Result<SmoContext> PlanCompiler::BuildContext(SmoId id) const {
  context_builds_.fetch_add(1, std::memory_order_relaxed);
  const SmoInstance& inst = catalog_->smo(id);
  SmoContext ctx;
  ctx.smo = inst.smo.get();
  ctx.materialized = inst.materialized;
  ctx.backend = backend_;
  ctx.memo = inst.memo.get();
  for (TvId src : inst.sources) {
    const TableVersion& tv = catalog_->table_version(src);
    ctx.sources.push_back(TvRef{src, &tv.schema});
  }
  for (TvId tgt : inst.targets) {
    const TableVersion& tv = catalog_->table_version(tgt);
    ctx.targets.push_back(TvRef{tgt, &tv.schema});
  }
  for (const std::string& aux :
       catalog_->PhysicalAuxNames(id, inst.materialized)) {
    ctx.aux_names[aux] = catalog_->AuxTableName(id, aux);
  }
  return ctx;
}

Result<PlanStep> PlanCompiler::MakeStep(const Route& route) const {
  const SmoInstance& inst = catalog_->smo(route.smo);
  PlanStep step;
  step.smo = route.smo;
  step.route = route.side == SmoSide::kSource ? RouteCase::kForward
                                              : RouteCase::kBackward;
  step.side = route.side;
  step.index = route.index;
  step.smo_text = inst.smo->ToString();
  INVERDA_ASSIGN_OR_RETURN(step.kernel, KernelForSmo(*inst.smo));
  INVERDA_ASSIGN_OR_RETURN(step.ctx, BuildContext(route.smo));
  // The data side the step derives from; the chain continues at its first
  // version (the kernels recurse into the others through the backend).
  const std::vector<TvId>& data_side =
      route.side == SmoSide::kSource ? inst.targets : inst.sources;
  if (!data_side.empty()) step.next = data_side[0];
  return step;
}

Result<TvPlan> PlanCompiler::Compile(TvId tv) const {
  TvPlan compiled;
  compiled.tv = tv;
  compiled.epoch = catalog_->materialization_epoch();
  compiled.label = catalog_->TvLabel(tv);
  compiled.schema = &catalog_->table_version(tv).schema;

  // The executable chain: Figure 6 applied transitively, following the
  // first data-side table version per hop. Further data-side versions are
  // reached by the kernels' recursion through the backend and are covered
  // by the footprint walk below.
  TvId current = tv;
  while (true) {
    INVERDA_ASSIGN_OR_RETURN(std::optional<Route> route,
                             ResolveRoute(current));
    if (!route) {
      compiled.data_table = catalog_->DataTableName(current);
      break;
    }
    INVERDA_ASSIGN_OR_RETURN(PlanStep step, MakeStep(*route));
    const SmoInstance& inst = catalog_->smo(route->smo);
    const std::vector<TvId>& data_side =
        route->side == SmoSide::kSource ? inst.targets : inst.sources;
    compiled.steps.push_back(std::move(step));
    if (data_side.empty()) break;
    current = data_side[0];
    if (compiled.steps.size() > 1000) {
      return Status::Internal("access plan diverged: genealogy cycle at " +
                              catalog_->TvLabel(tv));
    }
  }
  compiled.physical = compiled.steps.empty();

  // Fusion pass: collapse maximal runs of projection-only hops into single
  // fused steps (plan/fused.h). distance() still counts SMO hops. With the
  // verify gate on, every fused step is translation-validated before the
  // plan leaves the compiler; the mutation hook runs in between so the
  // self-test corrupts exactly what the gate inspects.
  if (fusion_enabled()) {
    compiled.steps = FuseSteps(std::move(compiled.steps));
    ApplyFusionMutation(&compiled);
    if (verify_enabled()) RejectInvalidFusions(&compiled);
  }

  // Dependency footprint and traversed-SMO closure over *all* data-side
  // branches (the chain above follows only the first one).
  std::set<TvId> visited;
  std::set<std::string> seen_tables;
  std::set<SmoId> seen_smos;
  std::vector<TvId> frontier{tv};
  while (!frontier.empty()) {
    TvId cur = frontier.back();
    frontier.pop_back();
    if (!visited.insert(cur).second) continue;
    INVERDA_ASSIGN_OR_RETURN(std::optional<Route> route, ResolveRoute(cur));
    if (!route) {
      std::string name = catalog_->DataTableName(cur);
      if (seen_tables.insert(name).second) {
        compiled.footprint.push_back(std::move(name));
      }
      continue;
    }
    const SmoInstance& inst = catalog_->smo(route->smo);
    if (seen_smos.insert(route->smo).second) {
      compiled.traversed_smos.push_back(route->smo);
    }
    for (const std::string& aux :
         catalog_->PhysicalAuxNames(route->smo, inst.materialized)) {
      std::string name = catalog_->AuxTableName(route->smo, aux);
      if (seen_tables.insert(name).second) {
        compiled.footprint.push_back(std::move(name));
      }
    }
    // The kernel derives `cur` from the data side of the SMO; every table
    // version there is a (possibly virtual) further dependency.
    const std::vector<TvId>& data_side =
        route->side == SmoSide::kSource ? inst.targets : inst.sources;
    frontier.insert(frontier.end(), data_side.begin(), data_side.end());
  }

  // Reads through id-generating kernels (DECOMPOSE ON FK / condition joins)
  // upsert id tables and draw sequence values while deriving; the access
  // layer must latch such plans exclusively even for SELECTs.
  for (SmoId id : compiled.traversed_smos) {
    const SmoInstance& inst = catalog_->smo(id);
    INVERDA_ASSIGN_OR_RETURN(const Kernel* kernel, KernelForSmo(*inst.smo));
    if (kernel->DeriveMutates()) {
      compiled.derive_mutates = true;
      break;
    }
  }
  return compiled;
}

void PlanCompiler::ApplyFusionMutation(TvPlan* compiled) const {
  FusionMutation mutation = fusion_mutation_.load(std::memory_order_relaxed);
  if (mutation == FusionMutation::kNone) return;
  for (PlanStep& step : compiled->steps) {
    if (!step.is_fused() || step.layout == nullptr) continue;
    auto corrupted = std::make_shared<ColumnLayout>(*step.layout);
    // A layout without the corrupted part (no widens, a single column)
    // gets the equivalent observable miscompile: a skewed inner width.
    bool applied = false;
    switch (mutation) {
      case FusionMutation::kDropWiden:
        if (!corrupted->widens.empty()) {
          corrupted->widens.pop_back();
          applied = true;
        }
        break;
      case FusionMutation::kDropInnerRead:
        if (!corrupted->inner_reads.empty()) {
          corrupted->inner_reads.erase(corrupted->inner_reads.begin());
          applied = true;
        }
        break;
      case FusionMutation::kPerturbInnerRead:
        if (!corrupted->inner_reads.empty()) {
          ++corrupted->inner_reads.front();
          applied = true;
        }
        break;
      case FusionMutation::kWrongAux:
        if (!corrupted->widens.empty()) {
          corrupted->widens.front().aux_table += "_corrupt";
          applied = true;
        }
        break;
      case FusionMutation::kWrongSource:
        if (corrupted->output.size() >= 2) {
          std::swap(corrupted->output[0], corrupted->output[1]);
          applied = true;
        }
        break;
      case FusionMutation::kNone:
        break;
    }
    if (!applied) ++corrupted->inner_width;
    step.layout = std::move(corrupted);
    return;  // the self-test corrupts the first fused step only
  }
}

void PlanCompiler::RejectInvalidFusions(TvPlan* compiled) const {
  std::vector<PlanStep> checked;
  checked.reserve(compiled->steps.size());
  for (PlanStep& step : compiled->steps) {
    if (step.is_fused()) {
      AnalysisReport report =
          verify::ValidateFusedStep(step, compiled->label);
      if (report.has_errors()) {
        fusion_rejections_.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(verify_mu_);
          verify_diagnostics_.insert(verify_diagnostics_.end(),
                                     report.diagnostics.begin(),
                                     report.diagnostics.end());
        }
        // Graceful fallback: splice the original hops back in place of the
        // rejected fused step; they carry their own contexts and kernels
        // and execute exactly as an unfused compile would.
        for (PlanStep& sub : step.fused) checked.push_back(std::move(sub));
        continue;
      }
    }
    checked.push_back(std::move(step));
  }
  compiled->steps = std::move(checked);
}

std::vector<Diagnostic> PlanCompiler::TakeVerifyDiagnostics() const {
  std::lock_guard<std::mutex> lock(verify_mu_);
  return std::move(verify_diagnostics_);
}

}  // namespace plan
}  // namespace inverda
