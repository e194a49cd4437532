#include "verify/verifier.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "expr/domain.h"
#include "mapping/kernels.h"
#include "plan/fused.h"
#include "storage/latch.h"

namespace inverda {
namespace verify {
namespace {

// --- shared plumbing --------------------------------------------------------

void Emit(AnalysisReport* report, const char* rule, DiagSeverity severity,
          std::string message, std::string fixit = "") {
  Diagnostic d;
  d.rule = rule;
  d.severity = severity;
  d.message = std::move(message);
  d.fixit = std::move(fixit);
  report->diagnostics.push_back(std::move(d));
}

SmoSide Opposite(SmoSide side) {
  return side == SmoSide::kSource ? SmoSide::kTarget : SmoSide::kSource;
}

// The table version a hop derives (the planned / virtual side slot).
const TvRef& PlannedRef(const plan::PlanStep& hop) {
  return hop.ctx.side(hop.side)[static_cast<size_t>(hop.index)];
}

// Flattens a plan's step chain to original SMO hops (fused runs expanded).
std::vector<const plan::PlanStep*> FlattenHops(const plan::TvPlan& compiled) {
  std::vector<const plan::PlanStep*> hops;
  for (const plan::PlanStep& step : compiled.steps) {
    if (step.is_fused()) {
      for (const plan::PlanStep& sub : step.fused) hops.push_back(&sub);
    } else {
      hops.push_back(&step);
    }
  }
  return hops;
}

std::string HopLabel(const std::string& plan_label,
                     const plan::PlanStep& hop) {
  return "plan " + plan_label + ": hop [" + hop.kernel->name() + "] " +
         hop.smo_text;
}

// --- symbolic round-trip: column provenance (geometry) ----------------------

// Resolves the wide/narrow geometry of an ADD/DROP COLUMN hop directly from
// the SMO description (independent of mapping/ResolveColumnHop, so the
// verifier cross-checks the executable geometry rather than repeating it).
struct ColumnGeometry {
  SmoSide wide_side = SmoSide::kSource;
  const TableSchema* wide = nullptr;
  const TableSchema* narrow = nullptr;
  int b_index = 0;
  const Expression* fn = nullptr;
  std::string column;
};

Result<ColumnGeometry> ResolveColumnGeometry(const SmoContext& ctx) {
  ColumnGeometry g;
  if (ctx.smo->kind() == SmoKind::kAddColumn) {
    const auto* smo = static_cast<const AddColumnSmo*>(ctx.smo);
    g.wide_side = SmoSide::kTarget;
    g.fn = smo->fn().get();
    g.column = smo->column();
  } else if (ctx.smo->kind() == SmoKind::kDropColumn) {
    const auto* smo = static_cast<const DropColumnSmo*>(ctx.smo);
    g.wide_side = SmoSide::kSource;
    g.fn = smo->default_fn().get();
    g.column = smo->column();
  } else {
    return Status::Internal("column kernel bound to non-column SMO: " +
                            ctx.smo->ToString());
  }
  g.wide = ctx.side(g.wide_side)[0].schema;
  g.narrow = ctx.side(Opposite(g.wide_side))[0].schema;
  std::optional<int> idx = g.wide->FindColumn(g.column);
  if (!idx) {
    return Status::Internal("column " + g.column + " missing from wide side " +
                            g.wide->ToString());
  }
  g.b_index = *idx;
  return g;
}

// Checks that the planned version's payload columns are recoverable from
// the data side by the hop's kernel: the per-kernel column provenance rules
// over the abstract column domain. Violations are miscompiles (the step's
// contexts disagree with the SMO's own schema derivation).
void CheckHopGeometry(const std::string& plan_label,
                      const plan::PlanStep& hop, AnalysisReport* report) {
  const SmoContext& ctx = hop.ctx;
  const std::string kernel = hop.kernel->name();
  const std::string where = HopLabel(plan_label, hop);

  auto broken = [&](const std::string& detail) {
    Emit(report, "plan-chain-broken", DiagSeverity::kError,
         where + ": " + detail);
  };

  if (kernel == "identity") {
    const TableSchema* planned = ctx.side(hop.side)[0].schema;
    const TableSchema* data = ctx.side(Opposite(hop.side))[0].schema;
    if (planned->num_columns() != data->num_columns()) {
      broken("identity hop changes payload width (" +
             std::to_string(data->num_columns()) + " -> " +
             std::to_string(planned->num_columns()) + ")");
      return;
    }
    if (ctx.smo->kind() == SmoKind::kRenameColumn) {
      // Positions are preserved; exactly the renamed column may differ.
      const auto* smo = static_cast<const RenameColumnSmo*>(ctx.smo);
      const auto& src = ctx.sources[0].schema->columns();
      const auto& tgt = ctx.targets[0].schema->columns();
      for (size_t i = 0; i < src.size(); ++i) {
        if (src[i].name == tgt[i].name) continue;
        if (src[i].name != smo->from() || tgt[i].name != smo->to()) {
          broken("rename-column hop moves column " + src[i].name);
          return;
        }
      }
    }
    return;
  }

  if (kernel == "column") {
    Result<ColumnGeometry> g = ResolveColumnGeometry(ctx);
    if (!g.ok()) {
      broken(g.status().message());
      return;
    }
    if (g->wide->num_columns() != g->narrow->num_columns() + 1) {
      broken("wide/narrow widths differ by " +
             std::to_string(g->wide->num_columns() -
                            g->narrow->num_columns()) +
             ", expected 1");
      return;
    }
    if (g->narrow->FindColumn(g->column)) {
      broken("column " + g->column + " present on the narrow side");
      return;
    }
    // Erasing b from the wide column list must yield the narrow list: every
    // other column's provenance is positional identity.
    const auto& wide_cols = g->wide->columns();
    const auto& narrow_cols = g->narrow->columns();
    size_t n = 0;
    for (size_t w = 0; w < wide_cols.size(); ++w) {
      if (static_cast<int>(w) == g->b_index) continue;
      if (n >= narrow_cols.size() ||
          wide_cols[w].name != narrow_cols[n].name) {
        broken("column provenance broken at wide position " +
               std::to_string(w) + " (" + wide_cols[w].name + ")");
        return;
      }
      ++n;
    }
    return;
  }

  if (kernel == "partition") {
    // SPLIT/MERGE: all side tables are union-compatible, so every payload
    // column survives both directions positionally.
    const TableSchema* reference = ctx.sources[0].schema;
    for (const std::vector<TvRef>* side : {&ctx.sources, &ctx.targets}) {
      for (const TvRef& ref : *side) {
        if (ref.schema->columns() != reference->columns()) {
          broken("partition sides are not union-compatible: " +
                 ref.schema->ToString() + " vs " + reference->ToString());
          return;
        }
      }
    }
    return;
  }

  if (kernel == "vertical-pk" || kernel == "join-pk" || kernel == "fk" ||
      kernel == "cond") {
    if (ctx.smo->kind() == SmoKind::kDecompose) {
      // The named column lists must partition the combined payload; that is
      // the provenance proof for both directions (ON FK adds the generated
      // fk column to S, which maps to identifier state, not payload).
      const auto* smo = static_cast<const DecomposeSmo*>(ctx.smo);
      const TableSchema* combined = ctx.sources[0].schema;
      std::set<std::string> seen;
      size_t named = 0;
      for (const std::vector<std::string>* cols :
           {&smo->s_columns(), &smo->t_columns()}) {
        for (const std::string& name : *cols) {
          ++named;
          if (!combined->FindColumn(name)) {
            broken("decomposed column " + name +
                   " missing from combined payload " + combined->ToString());
            return;
          }
          if (!seen.insert(name).second) {
            broken("decomposed column " + name + " named twice");
            return;
          }
        }
      }
      if (smo->has_t() &&
          named != static_cast<size_t>(combined->num_columns())) {
        broken("decomposition drops columns: " + std::to_string(named) +
               " named of " + std::to_string(combined->num_columns()));
        return;
      }
    } else if (ctx.smo->kind() == SmoKind::kJoin &&
               (kernel == "vertical-pk" || kernel == "join-pk")) {
      // JOIN ON PK: the join result carries both source payloads.
      const TableSchema* joined = ctx.targets[0].schema;
      int sources_width = ctx.sources[0].schema->num_columns() +
                          ctx.sources[1].schema->num_columns();
      if (joined->num_columns() != sources_width) {
        broken("join payload width " +
               std::to_string(joined->num_columns()) + " != sources " +
               std::to_string(sources_width));
        return;
      }
    }
    return;
  }

  broken("unknown kernel in compiled plan");
}

// --- symbolic round-trip: information obligations ---------------------------

// Human description of the information channel each auxiliary table backs.
std::string AuxChannel(const std::string& short_name) {
  if (short_name == "B") return "explicit b-values written on the wide side";
  if (short_name == "T_prime") {
    return "tuples matching neither partition condition";
  }
  if (short_name == "R_minus" || short_name == "S_minus") {
    return "twin deletions (a tuple removed from one partition only)";
  }
  if (short_name == "S_plus") return "diverged twin payloads";
  if (short_name == "R_star" || short_name == "S_star") {
    return "tuples kept despite violating their partition condition";
  }
  if (short_name == "IDR" || short_name == "ID") {
    return "generated-identifier stability across derivations";
  }
  if (short_name == "L_plus" || short_name == "R_plus") {
    return "tuples unmatched by the inner join";
  }
  return "information the data side cannot carry";
}

// Whether the loss case an aux table guards is reachable, decided by the
// analyzer's small-domain witness engine over the partition conditions.
// kNo means the obligation is vacuous (provably no row can exercise the
// channel); non-partition aux channels are reachable unconditionally.
// On kYes, `witness` (when found) carries a concrete exercising row.
Tri ChannelReachable(const SmoContext& ctx, const std::string& short_name,
                     Row* witness) {
  ExprPtr c_r;
  ExprPtr c_s;
  const TableSchema* payload = nullptr;
  if (ctx.smo->kind() == SmoKind::kSplit) {
    const auto* smo = static_cast<const SplitSmo*>(ctx.smo);
    c_r = smo->r_cond();
    if (smo->has_s()) c_s = smo->s_cond();
    payload = ctx.sources[0].schema;  // union side of a SPLIT
  } else if (ctx.smo->kind() == SmoKind::kMerge) {
    const auto* smo = static_cast<const MergeSmo*>(ctx.smo);
    c_r = smo->r_cond();
    c_s = smo->s_cond();
    payload = ctx.targets[0].schema;  // union side of a MERGE
  } else {
    return Tri::kYes;  // id tables, B, join preserves: always load-bearing
  }

  std::vector<ExprPtr> pos;
  std::vector<ExprPtr> neg;
  if (short_name == "R_star") {
    neg = {c_r};  // a tuple kept in R despite violating cR
  } else if (short_name == "S_star") {
    neg = {c_s};
  } else if (short_name == "R_minus") {
    pos = {c_r};  // a twin deletion needs a tuple S would surface into R
  } else if (short_name == "S_minus") {
    pos = {c_s};
  } else if (short_name == "T_prime") {
    neg.push_back(c_r);  // the partition gap
    if (c_s) neg.push_back(c_s);
  } else {
    return Tri::kYes;  // S_plus: twin divergence needs no condition
  }
  return FindWitness(*payload, pos, neg, witness);
}

// Discharges the hop's information obligations: every auxiliary channel the
// current materialization requires must be physically present — or its loss
// case proven unreachable by the witness engine. This is the Table 2
// argument, applied per compiled hop instead of per BiDEL statement.
void CheckHopObligations(const VersionCatalog& catalog,
                         const std::string& plan_label,
                         const plan::PlanStep& hop, AnalysisReport* report,
                         ProofStats* stats) {
  if (!catalog.HasSmo(hop.smo)) {
    Emit(report, "plan-chain-broken", DiagSeverity::kError,
         HopLabel(plan_label, hop) + ": SMO instance " +
             std::to_string(hop.smo) + " no longer exists in the catalog");
    return;
  }
  const SmoInstance& inst = catalog.smo(hop.smo);
  const SmoSide data_side = hop.ctx.data_side();
  const std::string where = HopLabel(plan_label, hop);

  for (const AuxDef& def : inst.aux_defs) {
    if (!def.both_sides && def.side != data_side) continue;  // virtual-side
    if (stats != nullptr) ++stats->obligations;
    if (hop.ctx.aux_names.count(def.short_name) > 0) {
      if (stats != nullptr) ++stats->by_aux;
      continue;
    }
    // The channel has no physical backing; only a reachability refutation
    // can still prove the round trip.
    Row witness;
    switch (ChannelReachable(hop.ctx, def.short_name, &witness)) {
      case Tri::kNo:
        if (stats != nullptr) ++stats->by_witness;
        break;
      case Tri::kYes:
        Emit(report, "plan-roundtrip-loss", DiagSeverity::kError,
             where + ": auxiliary " + def.short_name + " (" +
                 AuxChannel(def.short_name) +
                 ") is not physical under the compiled materialization" +
                 (witness.empty()
                      ? ""
                      : "; witness row " + RowToString(witness) +
                            " exercises the lost channel"),
             "materialize a state that provisions " + def.short_name +
                 " or re-run the migration that dropped it");
        break;
      case Tri::kUnknown:
        Emit(report, "plan-roundtrip-undecidable", DiagSeverity::kWarning,
             where + ": auxiliary " + def.short_name + " (" +
                 AuxChannel(def.short_name) +
                 ") is not physical and the witness engine cannot refute "
                 "the loss case (condition outside the decidable fragment)");
        break;
    }
  }
}

// --- fusion translation validation ------------------------------------------

// One abstract column flowing through a fused run: either a column of the
// inner boundary payload or a value widened in by an aux/function channel.
// A layout is column-wise equivalent to the unfused hops iff it maps the
// inner payload to the same sequence of these.
struct SymCol {
  bool widened = false;
  int inner_index = 0;  // !widened: position in the inner payload
  std::string aux;      // widened: physical aux table consulted
  const Expression* fn = nullptr;
  const TableSchema* narrow_schema = nullptr;

  bool operator==(const SymCol& other) const {
    return widened == other.widened && inner_index == other.inner_index &&
           aux == other.aux && fn == other.fn &&
           narrow_schema == other.narrow_schema;
  }

  std::string ToString() const {
    if (!widened) return "inner[" + std::to_string(inner_index) + "]";
    return "widen(aux=" + aux + ")";
  }
};

std::string SymColsToString(const std::vector<SymCol>& cols) {
  std::string out = "[";
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out += ", ";
    out += cols[i].ToString();
  }
  return out + "]";
}

// One widen of the reference composition: the column it adds and, by
// narrow position, the column each cell its payload function reads is.
struct RefWiden {
  SymCol col;
  bool literal = false;
  std::map<int, SymCol> reads;
};

SymCol WidenSym(const std::string& aux, const Expression* fn,
                const TableSchema* narrow_schema) {
  SymCol col;
  col.widened = true;
  col.aux = aux;
  col.fn = fn;
  col.narrow_schema = narrow_schema;
  return col;
}

std::vector<SymCol> InnerColumns(int width) {
  std::vector<SymCol> cols(static_cast<size_t>(width));
  for (int i = 0; i < width; ++i) {
    cols[static_cast<size_t>(i)].inner_index = i;
  }
  return cols;
}

}  // namespace

AnalysisReport ValidateFusedStep(const plan::PlanStep& step,
                                 const std::string& plan_label) {
  AnalysisReport report;
  if (!step.is_fused() || step.layout == nullptr) return report;
  const plan::ColumnLayout& layout = *step.layout;
  const std::string where =
      "plan " + (plan_label.empty() ? "?" : plan_label) + ": fused[" +
      std::to_string(step.fused.size()) + "] " + step.smo_text;
  auto mismatch = [&](const std::string& detail) {
    Emit(&report, "fusion-mismatch", DiagSeverity::kError,
         where + ": " + detail,
         "fusion for this plan is rejected; the unfused kernel chain is the "
         "executable fallback");
  };

  // The inner boundary payload both compositions start from.
  const plan::PlanStep& innermost = step.fused.back();
  const TableSchema* inner_schema =
      innermost.ctx.side(Opposite(innermost.side))[0].schema;
  if (layout.inner_width != inner_schema->num_columns()) {
    mismatch("layout inner width " + std::to_string(layout.inner_width) +
             " != inner payload width " +
             std::to_string(inner_schema->num_columns()));
    return report;
  }
  if (step.next != innermost.next) {
    mismatch("fused step reads inner version " + std::to_string(step.next) +
             " but the run terminates at " + std::to_string(innermost.next));
    return report;
  }

  // Reference composition: re-derive every hop's projection geometry from
  // the SMO descriptions (not from ResolveColumnHop, which the fusion pass
  // itself used) and apply it to the abstract inner payload, recording
  // each widen and the columns its payload function reads.
  std::vector<SymCol> expected = InnerColumns(layout.inner_width);
  std::vector<RefWiden> ref_widens;
  for (auto it = step.fused.rbegin(); it != step.fused.rend(); ++it) {
    const plan::PlanStep& sub = *it;
    const std::string kernel = sub.kernel->name();
    if (kernel == "identity") continue;
    if (kernel != "column") {
      mismatch("non-projection kernel '" + kernel + "' inside a fused run");
      return report;
    }
    Result<ColumnGeometry> g = ResolveColumnGeometry(sub.ctx);
    if (!g.ok()) {
      mismatch(g.status().message());
      return report;
    }
    if (sub.side == g->wide_side) {
      // Deriving the wide side widens: b comes from the physical B aux per
      // key, falling back to the SMO's payload function.
      auto aux = sub.ctx.aux_names.find("B");
      if (aux == sub.ctx.aux_names.end()) {
        mismatch("widening hop " + sub.smo_text +
                 " has no physical B aux; the run must not have fused");
        return report;
      }
      if (g->b_index > static_cast<int>(expected.size()) ||
          g->narrow->num_columns() != static_cast<int>(expected.size())) {
        mismatch("widen index " + std::to_string(g->b_index) +
                 " out of range for width " +
                 std::to_string(expected.size()));
        return report;
      }
      RefWiden widen;
      widen.col = WidenSym(aux->second, g->fn, g->narrow);
      widen.literal = g->fn->AsLiteral() != nullptr;
      std::set<std::string> names;
      g->fn->CollectColumns(&names);
      for (const std::string& name : names) {
        if (std::optional<int> idx = g->narrow->FindColumn(name)) {
          widen.reads[*idx] = expected[static_cast<size_t>(*idx)];
        }
      }
      expected.insert(expected.begin() + static_cast<ptrdiff_t>(g->b_index),
                      widen.col);
      ref_widens.push_back(std::move(widen));
    } else {
      if (g->b_index >= static_cast<int>(expected.size())) {
        mismatch("narrow index " + std::to_string(g->b_index) +
                 " out of range for width " +
                 std::to_string(expected.size()));
        return report;
      }
      expected.erase(expected.begin() + static_cast<ptrdiff_t>(g->b_index));
    }
  }
  const TableSchema* planned = PlannedRef(step.fused.front()).schema;
  if (static_cast<int>(expected.size()) != planned->num_columns()) {
    mismatch("reference composition yields width " +
             std::to_string(expected.size()) + " but the planned payload has " +
             std::to_string(planned->num_columns()) + " columns");
    return report;
  }

  // Candidate: the compiled layout. Its inner reads are a projection of
  // the inner payload ...
  for (size_t i = 0; i < layout.inner_reads.size(); ++i) {
    const int c = layout.inner_reads[i];
    if (c < 0 || c >= layout.inner_width ||
        (i > 0 && c <= layout.inner_reads[i - 1])) {
      mismatch("inner read " + std::to_string(i) + " (column " +
               std::to_string(c) + ") is not an ascending inner column");
      return report;
    }
  }
  // ... its widens are the reference widens in program order, less
  // dropped ones ...
  std::vector<bool> ref_built(ref_widens.size());
  size_t next = 0;
  for (size_t r = 0; r < ref_widens.size(); ++r) {
    if (next < layout.widens.size()) {
      const plan::WidenBuild& w = layout.widens[next];
      if (WidenSym(w.aux_table, w.payload.fn, w.payload.narrow_schema) ==
          ref_widens[r].col) {
        ref_built[r] = true;
        ++next;
      }
    }
  }
  if (next != layout.widens.size()) {
    const plan::WidenBuild& w = layout.widens[next];
    mismatch("layout widen " + std::to_string(next) + " (aux=" +
             w.aux_table + ") matches no widen of the run in program order");
    return report;
  }
  // ... and every source resolves to the column the reference has there.
  // A widen's reads may only name earlier widens; nothing may name a dead
  // widen, whose column is discarded.
  auto resolve = [&](const plan::ColumnSource& src,
                     size_t widen_limit) -> std::optional<SymCol> {
    if (src.kind == plan::ColumnSource::Kind::kInner) {
      if (src.index < 0 ||
          src.index >= static_cast<int>(layout.inner_reads.size())) {
        return std::nullopt;
      }
      SymCol col;
      col.inner_index = layout.inner_reads[static_cast<size_t>(src.index)];
      return col;
    }
    if (src.index < 0 || static_cast<size_t>(src.index) >= widen_limit) {
      return std::nullopt;
    }
    const plan::WidenBuild& w = layout.widens[static_cast<size_t>(src.index)];
    if (w.dead) return std::nullopt;
    return WidenSym(w.aux_table, w.payload.fn, w.payload.narrow_schema);
  };
  auto source_text = [](const plan::ColumnSource& src) {
    return std::string(src.kind == plan::ColumnSource::Kind::kInner
                           ? "inner#"
                           : "widen#") +
           std::to_string(src.index);
  };
  for (size_t j = 0, r = 0; j < layout.widens.size(); ++j, ++r) {
    while (!ref_built[r]) ++r;
    const plan::WidenBuild& w = layout.widens[j];
    const RefWiden& ref = ref_widens[r];
    if (w.reads.size() != w.payload.reads.size() ||
        w.payload.reads.size() != ref.reads.size()) {
      mismatch("layout widen " + std::to_string(j) + " maps " +
               std::to_string(w.reads.size()) + " reads, its function reads " +
               std::to_string(ref.reads.size()) + " columns");
      return report;
    }
    for (size_t i = 0; i < w.reads.size(); ++i) {
      auto want = ref.reads.find(w.payload.reads[i]);
      std::optional<SymCol> got = resolve(w.reads[i], j);
      if (want == ref.reads.end() || !got || !(*got == want->second)) {
        mismatch("layout widen " + std::to_string(j) + " (aux=" +
                 w.aux_table + ") reads narrow column " +
                 std::to_string(w.payload.reads[i]) + " from " +
                 source_text(w.reads[i]) + ", the kernels read " +
                 (want == ref.reads.end() ? std::string("no such column")
                                          : want->second.ToString()));
        return report;
      }
    }
  }
  if (layout.output.size() != expected.size()) {
    mismatch("layout yields width " + std::to_string(layout.output.size()) +
             ", kernels yield " + std::to_string(expected.size()));
    return report;
  }
  std::vector<SymCol> actual;
  for (size_t i = 0; i < layout.output.size(); ++i) {
    std::optional<SymCol> got = resolve(layout.output[i], layout.widens.size());
    if (!got) {
      mismatch("output column " + std::to_string(i) + " names " +
               source_text(layout.output[i]) +
               ", which the layout does not build");
      return report;
    }
    actual.push_back(*got);
  }
  if (actual != expected) {
    mismatch("layout is not column-wise equivalent to the unfused kernel "
             "composition: layout yields " +
             SymColsToString(actual) + ", kernels yield " +
             SymColsToString(expected));
    return report;
  }
  // Only literal widens may be dropped: a non-literal one decides the
  // read's Status even when its column is discarded. (A dropped widen that
  // a kept column needs already failed the source checks above.)
  int dropped = 0;
  for (size_t r = 0; r < ref_widens.size(); ++r) {
    if (ref_built[r]) continue;
    ++dropped;
    if (!ref_widens[r].literal) {
      mismatch("layout drops widen " + ref_widens[r].col.ToString() +
               ", whose non-literal payload can fail");
      return report;
    }
  }
  if (dropped != layout.dead_dropped) {
    mismatch("layout reports " + std::to_string(layout.dead_dropped) +
             " dead widens dropped but drops " + std::to_string(dropped));
  }
  return report;
}

// --- per-plan verification --------------------------------------------------

AnalysisReport VerifyPlan(const VersionCatalog& catalog,
                          const plan::TvPlan& compiled,
                          const VerifyOptions& options, ProofStats* stats) {
  AnalysisReport report;
  if (stats != nullptr) ++stats->plans;
  const std::string& label =
      compiled.label.empty() ? std::to_string(compiled.tv) : compiled.label;
  const bool current =
      compiled.epoch == catalog.materialization_epoch();
  if (!current) {
    Emit(&report, "plan-roundtrip-undecidable", DiagSeverity::kWarning,
         "plan " + label + ": compiled at materialization epoch " +
             std::to_string(compiled.epoch) + " but the catalog is at " +
             std::to_string(catalog.materialization_epoch()) +
             "; catalog-dependent obligations are skipped");
  }

  std::vector<const plan::PlanStep*> hops = FlattenHops(compiled);

  if (options.roundtrip) {
    // Chain continuity: each hop must derive exactly the version the
    // previous hop reads, ending at the plan's physical boundary.
    TvId expected_tv = compiled.tv;
    for (const plan::PlanStep* hop : hops) {
      if (stats != nullptr) ++stats->hops;
      TvId planned = PlannedRef(*hop).id;
      if (planned != expected_tv) {
        Emit(&report, "plan-chain-broken", DiagSeverity::kError,
             HopLabel(label, *hop) + ": derives table version " +
                 std::to_string(planned) + " but the chain expects " +
                 std::to_string(expected_tv));
        break;
      }
      expected_tv = hop->next;
    }
    if (current) {
      TvId boundary = hops.empty() ? compiled.tv : hops.back()->next;
      if (!catalog.IsPhysical(boundary)) {
        Emit(&report, "plan-chain-broken", DiagSeverity::kError,
             "plan " + label + ": chain terminates at " +
                 catalog.TvLabel(boundary) +
                 ", which is not physically stored");
      } else if (catalog.DataTableName(boundary) != compiled.data_table) {
        Emit(&report, "plan-chain-broken", DiagSeverity::kError,
             "plan " + label + ": data table " + compiled.data_table +
                 " does not back boundary version " +
                 catalog.TvLabel(boundary));
      }
    }

    for (const plan::PlanStep* hop : hops) {
      CheckHopGeometry(label, *hop, &report);
      if (current) {
        CheckHopObligations(catalog, label, *hop, &report, stats);
      }
    }

    if (current) {
      // The derive_mutates flag gates exclusive latching of the read path;
      // an understated flag would let an id-generating derivation run under
      // shared latches.
      bool mutates = false;
      for (SmoId id : compiled.traversed_smos) {
        if (!catalog.HasSmo(id)) continue;
        Result<const Kernel*> kernel = KernelForSmo(*catalog.smo(id).smo);
        if (kernel.ok() && (*kernel)->DeriveMutates()) mutates = true;
      }
      if (mutates && !compiled.derive_mutates) {
        Emit(&report, "plan-chain-broken", DiagSeverity::kError,
             "plan " + label +
                 ": traverses an id-generating kernel but derive_mutates is "
                 "false; reads would run under shared latches while mutating "
                 "identifier state");
      }

      // Footprint completeness: every physical table the executable chain
      // can touch must be in the latched footprint.
      std::set<std::string> declared(compiled.footprint.begin(),
                                     compiled.footprint.end());
      auto require = [&](const std::string& name, const std::string& role) {
        if (declared.count(name) > 0) return;
        Emit(&report, "plan-footprint-incomplete", DiagSeverity::kError,
             "plan " + label + ": " + role + " " + name +
                 " is missing from the latched footprint; accesses would "
                 "touch it without holding its latch");
      };
      if (!compiled.data_table.empty()) {
        require(compiled.data_table, "data table");
      }
      for (const plan::PlanStep* hop : hops) {
        for (const auto& [aux, physical] : hop->ctx.aux_names) {
          require(physical, "auxiliary table " + aux + " =");
        }
      }
    }
  }

  if (options.fusion) {
    for (const plan::PlanStep& step : compiled.steps) {
      if (!step.is_fused()) continue;
      if (stats != nullptr) ++stats->fused_steps;
      AnalysisReport fused = ValidateFusedStep(step, label);
      report.diagnostics.insert(report.diagnostics.end(),
                                fused.diagnostics.begin(),
                                fused.diagnostics.end());
    }
  }
  return report;
}

// --- static lock-order analysis ---------------------------------------------

AnalysisReport CheckLockOrder(const std::vector<LockSequence>& sequences,
                              size_t escalation_limit, ProofStats* stats) {
  return CheckLockOrder(sequences, escalation_limit, /*shards=*/1, stats);
}

AnalysisReport CheckLockOrder(const std::vector<LockSequence>& sequences,
                              size_t escalation_limit, int shards,
                              ProofStats* stats) {
  AnalysisReport report;
  const bool sharded = shards > 1;
  if (stats != nullptr) stats->lock_shards = sharded ? shards : 1;
  // Precedence graph: an edge a -> b for every consecutive acquisition,
  // remembering one inducing sequence per edge for the report. With
  // shards, each table node expands to the hierarchical chain a
  // whole-table reader acquires — table latch first, then every shard
  // latch ascending (`name#i`) — the maximal fine-grained sequence; the
  // writer and key-scoped orders are subsequences of it, so acyclicity of
  // the expanded graph covers them too.
  std::map<std::string, std::map<std::string, const std::string*>> graph;
  std::set<std::string> tables;
  std::vector<std::string> expanded;
  for (const LockSequence& seq : sequences) {
    if (stats != nullptr) ++stats->lock_sequences;
    const size_t per_table = sharded ? 1 + static_cast<size_t>(shards) : 1;
    if (seq.tables.size() > escalation_limit ||
        seq.tables.size() * per_table > TableLatchSet::kShardLatchBudget) {
      // Escalated to the exclusive global latch: no per-table order taken.
      // The budget term mirrors TableLatchSet::Acquire's sharded rule.
      if (stats != nullptr) ++stats->lock_escalations;
      continue;
    }
    const std::vector<std::string>* names = &seq.tables;
    if (sharded) {
      expanded.clear();
      expanded.reserve(seq.tables.size() * per_table);
      for (const std::string& name : seq.tables) {
        expanded.push_back(name);
        for (int i = 0; i < shards; ++i) {
          expanded.push_back(name + "#" + std::to_string(i));
        }
      }
      names = &expanded;
    }
    for (const std::string& name : *names) tables.insert(name);
    for (size_t i = 0; i + 1 < names->size(); ++i) {
      graph[(*names)[i]].emplace((*names)[i + 1], &seq.label);
    }
  }
  if (stats != nullptr) {
    stats->lock_tables = static_cast<int>(tables.size());
  }

  // A single global order exists iff the precedence graph is acyclic
  // (any topological order serves as the global order). Iterative
  // three-color DFS; on a back edge, reconstruct the cycle for the report.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> path;
  for (const auto& [start, unused] : graph) {
    (void)unused;
    if (color[start] != 0) continue;
    struct Frame {
      std::string node;
      std::map<std::string, const std::string*>::const_iterator next;
      bool entered = false;
    };
    std::vector<Frame> dfs;
    dfs.push_back({start, {}, false});
    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      if (!frame.entered) {
        frame.entered = true;
        color[frame.node] = 1;
        path.push_back(frame.node);
        auto it = graph.find(frame.node);
        frame.next = it == graph.end()
                         ? std::map<std::string,
                                    const std::string*>::const_iterator()
                         : it->second.begin();
      }
      auto edges = graph.find(frame.node);
      if (edges == graph.end() || frame.next == edges->second.end()) {
        color[frame.node] = 2;
        path.pop_back();
        dfs.pop_back();
        continue;
      }
      const std::string& to = frame.next->first;
      const std::string* via = frame.next->second;
      ++frame.next;
      if (color[to] == 1) {
        // Back edge: the grey path from `to` to the top is the cycle.
        std::string cycle;
        auto at = std::find(path.begin(), path.end(), to);
        for (auto p = at; p != path.end(); ++p) cycle += *p + " -> ";
        cycle += to;
        Emit(&report, "lock-order-violation", DiagSeverity::kError,
             "latch acquisition cycle: " + cycle + " (closing edge from " +
                 frame.node + " induced by " + *via +
                 "); no single global latch order exists, concurrent plans "
                 "can deadlock",
             "acquire per-table latches in one canonical (sorted) order "
             "for every plan");
        return report;
      }
      if (color[to] == 0) dfs.push_back({to, {}, false});
    }
  }
  return report;
}

AnalysisReport CheckMigrationLockOrder(std::vector<LockSequence> sequences,
                                       size_t escalation_limit, int shards,
                                       ProofStats* stats) {
  // Model the capture protocol: a top-level write during an online
  // migration acquires its plan's latches (canonical sorted order), and
  // the coordinator's delta-log lock is a leaf taken strictly after them
  // (OnWrite runs once the write's latches are released, and the
  // coordinator never holds an entry lock while acquiring anything else).
  // Appending the leaf to every sequence encodes exactly that claim; a
  // cycle through kMigrationCaptureLatch would mean some sequence acquires
  // a table latch after the capture lock — the deadlock the protocol
  // forbids. The limit is raised by one so the escalation set matches the
  // runtime's (the capture lock is not a table latch and never counts
  // toward escalation).
  for (LockSequence& seq : sequences) {
    seq.label += " +migration-capture";
    seq.tables.push_back(kMigrationCaptureLatch);
  }
  return CheckLockOrder(sequences, escalation_limit + 1, shards, stats);
}

// --- genealogy-wide verification --------------------------------------------

Result<VerifySummary> VerifyGenealogy(const VersionCatalog& catalog,
                                      const plan::PlanCompiler& compiler,
                                      const VerifyOptions& options) {
  VerifySummary summary;
  std::vector<LockSequence> sequences;
  for (TvId tv : catalog.AllTableVersions()) {
    INVERDA_ASSIGN_OR_RETURN(plan::TvPlan compiled, compiler.Compile(tv));
    AnalysisReport plan_report =
        VerifyPlan(catalog, compiled, options, &summary.stats);
    summary.report.diagnostics.insert(summary.report.diagnostics.end(),
                                      plan_report.diagnostics.begin(),
                                      plan_report.diagnostics.end());
    if (options.lock_order) {
      // The canonical acquisition order TableLatchSet produces: the
      // footprint deduplicated and sorted.
      LockSequence seq;
      seq.label = "plan " + compiled.label;
      seq.tables = compiled.footprint;
      std::sort(seq.tables.begin(), seq.tables.end());
      seq.tables.erase(std::unique(seq.tables.begin(), seq.tables.end()),
                       seq.tables.end());
      sequences.push_back(std::move(seq));
    }
  }
  if (options.lock_order) {
    AnalysisReport locks =
        CheckLockOrder(sequences, TableLatchSet::kEscalationLimit,
                       options.shards, &summary.stats);
    if (locks.diagnostics.empty()) {
      // Base order proven: additionally discharge the online-migration
      // acquisition pattern (every write may take the coordinator's
      // capture leaf after its latches). Stats stay those of the base
      // pass — this is the same sequence set extended by one leaf.
      locks = CheckMigrationLockOrder(std::move(sequences),
                                      TableLatchSet::kEscalationLimit,
                                      options.shards, /*stats=*/nullptr);
    }
    summary.report.diagnostics.insert(summary.report.diagnostics.end(),
                                      locks.diagnostics.begin(),
                                      locks.diagnostics.end());
  }
  return summary;
}

// --- rendering ---------------------------------------------------------------

std::string FormatVerifySummary(const VerifySummary& summary) {
  const ProofStats& s = summary.stats;
  std::ostringstream out;
  out << "plan verifier: " << s.plans << " plans, " << s.hops << " hops, "
      << s.fused_steps << " fused steps\n";
  out << "  round-trip obligations: " << s.obligations << " (aux-backed "
      << s.by_aux << ", witness-proven " << s.by_witness << ")\n";
  out << "  lock order: " << s.lock_sequences << " sequences over "
      << s.lock_tables << " tables, " << s.lock_escalations
      << " escalated to the global latch\n";
  if (s.lock_shards > 1) {
    out << "  lock model: " << s.lock_shards
        << " shards per table ((table, shard) latch expansion)\n";
  }
  if (summary.report.diagnostics.empty()) {
    out << "verified: round-trip, fusion and lock order hold for every "
           "compiled plan\n";
    return out.str();
  }
  out << FormatReport(summary.report, "");
  return out.str();
}

std::string VerifySummaryToJson(const VerifySummary& summary) {
  const ProofStats& s = summary.stats;
  std::ostringstream out;
  out << "{\"verified\": " << (summary.ok() ? "true" : "false")
      << ", \"stats\": {\"plans\": " << s.plans << ", \"hops\": " << s.hops
      << ", \"fused_steps\": " << s.fused_steps
      << ", \"obligations\": " << s.obligations
      << ", \"by_aux\": " << s.by_aux
      << ", \"by_witness\": " << s.by_witness
      << ", \"lock_sequences\": " << s.lock_sequences
      << ", \"lock_tables\": " << s.lock_tables
      << ", \"lock_escalations\": " << s.lock_escalations
      << ", \"lock_shards\": " << s.lock_shards
      << "}, \"report\": " << ReportToJson(summary.report, "") << "}";
  return out.str();
}

}  // namespace verify
}  // namespace inverda
