#include "plan/explain.h"

#include <vector>

#include "plan/fused.h"

namespace inverda {
namespace plan {

namespace {

// The renderer-neutral view of one executed or planned step: ExplainPlan
// fills it from a PlanStep, RenderTrace from a derive/propagate TraceSpan,
// and both print through AppendStep — the single place that knows the step
// block's layout, so EXPLAIN and TRACE can never drift apart.
struct StepView {
  int number = 0;
  bool forward = false;
  std::string smo_text;
  std::string side;  // "source" | "target"
  int index = 0;
  std::string kernel;
  std::vector<std::pair<std::string, std::string>> aux;  // short -> physical
  // Fusion: SMO hops this step stands for (0 = ordinary step), the
  // per-hop kernel name + BiDEL text, in plan order, and the layout summary.
  int fused = 0;
  std::vector<std::pair<std::string, std::string>> fused_hops;
  std::string fused_layout;
};

void AppendStep(std::string* out, const StepView& v) {
  *out += "  step " + std::to_string(v.number) + ": " +
          (v.forward ? "forward (Figure 6, case 2) via "
                     : "backward (Figure 6, case 3) via ") +
          v.smo_text + "\n";
  *out += "          side=" + v.side + " index=" + std::to_string(v.index) +
          " kernel=" + v.kernel;
  if (v.fused > 0) *out += " fused[" + std::to_string(v.fused) + "]";
  *out += "\n";
  for (const auto& [hop_kernel, hop_smo] : v.fused_hops) {
    *out += "          fuses " + hop_kernel + " via " + hop_smo;
    if (hop_kernel == "identity") *out += " (elided)";
    *out += "\n";
  }
  if (v.fused > 0) *out += "          layout: " + v.fused_layout + "\n";
  for (const auto& [short_name, physical_name] : v.aux) {
    *out += "          aux " + short_name + " -> " + physical_name + "\n";
  }
}

StepView ViewOf(int number, const PlanStep& step) {
  StepView v;
  v.number = number;
  v.forward = step.route == RouteCase::kForward;
  v.smo_text = step.smo_text;
  v.side = step.side == SmoSide::kSource ? "source" : "target";
  v.index = step.index;
  v.kernel = step.kernel->name();
  for (const auto& [short_name, physical_name] : step.ctx.aux_names) {
    v.aux.emplace_back(short_name, physical_name);
  }
  if (step.is_fused()) {
    v.fused = static_cast<int>(step.fused.size());
    for (const PlanStep& sub : step.fused) {
      v.fused_hops.emplace_back(sub.kernel->name(), sub.smo_text);
    }
    v.fused_layout = step.layout->Summary();
  }
  return v;
}

StepView ViewOf(int number, const obs::TraceSpan& span) {
  StepView v;
  v.number = number;
  v.forward = span.route == "forward";
  v.smo_text = span.smo_text;
  v.side = span.side;
  v.index = span.index;
  v.kernel = span.kernel;
  v.aux = span.aux;
  v.fused = span.fused;
  v.fused_hops = span.fused_hops;
  v.fused_layout = span.fused_layout;
  return v;
}

// Depth-first collection of the executed step spans: outermost first, which
// matches the compiled plan's step order (kernel recursion opens the next
// hop's span inside the current one).
void CollectSteps(const obs::TraceSpan& span,
                  std::vector<const obs::TraceSpan*>* out) {
  if (span.name == "derive" || span.name == "propagate") out->push_back(&span);
  for (const obs::TraceSpan& child : span.children) CollectSteps(child, out);
}

}  // namespace

std::string ExplainPlan(const TvPlan& compiled, const std::string& title,
                        int shards) {
  std::string out = "plan for " + title + " (" + compiled.label +
                    "): distance " + std::to_string(compiled.distance()) +
                    ", epoch " + std::to_string(compiled.epoch) + "\n";
  if (compiled.physical) {
    out += "  physical (Figure 6, case 1): data table " +
           compiled.data_table + "\n";
  } else {
    int n = 0;
    for (const PlanStep& step : compiled.steps) {
      AppendStep(&out, ViewOf(++n, step));
    }
    if (!compiled.data_table.empty()) {
      out += "  data table: " + compiled.data_table + "\n";
    }
  }
  out += "  footprint:";
  for (const std::string& name : compiled.footprint) out += " " + name;
  out += " (" + std::to_string(compiled.footprint.size()) +
         (compiled.footprint.size() == 1 ? " table)\n" : " tables)\n");
  if (shards > 1) {
    out += "  shards: " + std::to_string(shards) +
           " per physical table (hash of p)\n";
  }
  return out;
}

std::string RenderTrace(const obs::TraceSpan& root, const std::string& title) {
  std::vector<const obs::TraceSpan*> steps;
  CollectSteps(root, &steps);
  std::string out = "trace for " + (title.empty() ? root.name : title) + " (" +
                    root.label + "): " + root.name + ", " +
                    std::to_string(steps.size()) +
                    (steps.size() == 1 ? " step, " : " steps, ") +
                    std::to_string(root.duration_ns) + " ns\n";
  if (root.route == "physical") {
    // Same line EXPLAIN prints for a physically stored version.
    out += "  physical (Figure 6, case 1): " + root.note + "\n";
  } else if (!root.note.empty()) {
    out += "  " + root.note + " (derivation skipped)\n";
  }
  int n = 0;
  for (const obs::TraceSpan* step : steps) {
    AppendStep(&out, ViewOf(++n, *step));
    out += "          observed: " + step->name + " " +
           std::to_string(step->duration_ns) + " ns, rows in " +
           std::to_string(step->rows_in) + ", rows out " +
           std::to_string(step->rows_out);
    if (step->name == "propagate") {
      out += ", rows visited " + std::to_string(step->rows_visited);
    }
    out += "\n";
  }
  out += "  observed total: " + std::to_string(root.duration_ns) +
         " ns, rows in " + std::to_string(root.rows_in) + ", rows out " +
         std::to_string(root.rows_out) + "\n";
  return out;
}

}  // namespace plan
}  // namespace inverda
