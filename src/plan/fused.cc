#include "plan/fused.h"

#include <cstring>
#include <string>
#include <memory>
#include <utility>

#include "mapping/kernels.h"

namespace inverda {
namespace plan {
namespace {

class FusedColumnKernel : public Kernel {
 public:
  const char* name() const override { return "fused-column"; }
  bool ProjectionOnly() const override { return true; }
  Status Derive(const SmoContext&, SmoSide, int, std::optional<int64_t>,
                Table*) const override {
    return Status::Internal("fused marker kernel is not executable");
  }
  Status Propagate(const SmoContext&, SmoSide, int,
                   const WriteSet&) const override {
    return Status::Internal("fused marker kernel is not executable");
  }
};

bool IsIdentity(const PlanStep& step) {
  return std::strcmp(step.kernel->name(), "identity") == 0;
}

/// Compiles the output layout of one run (plan order: planned version
/// first). One symbolic pass applies the hops inner -> planned to a list
/// of column sources; a liveness pass (planned -> inner) then keeps the
/// inner columns and widens that the output or a kept widen reads, plus
/// every non-literal widen, and renumbers what survives.
Result<ColumnLayout> BuildColumnLayout(const std::vector<PlanStep>& run) {
  ColumnLayout layout;
  const PlanStep& innermost = run.back();
  SmoSide inner_side = innermost.side == SmoSide::kSource ? SmoSide::kTarget
                                                          : SmoSide::kSource;
  layout.inner_width =
      innermost.ctx.side(inner_side)[0].schema->num_columns();
  // Sources over the full inner payload (kInner index = inner position)
  // and over every widen of the run (kWiden index = program position).
  std::vector<ColumnSource> cols(static_cast<size_t>(layout.inner_width));
  for (int i = 0; i < layout.inner_width; ++i) {
    cols[static_cast<size_t>(i)].index = i;
  }
  std::vector<WidenBuild> widens;
  // Data flows inner -> planned, so hops apply in reverse plan order.
  for (auto it = run.rbegin(); it != run.rend(); ++it) {
    if (IsIdentity(*it)) continue;  // pure passthrough
    INVERDA_ASSIGN_OR_RETURN(ColumnHopInfo hop,
                             ResolveColumnHop(it->ctx, it->side));
    const size_t width = cols.size();
    if (!hop.widen) {
      if (hop.b_index < 0 || static_cast<size_t>(hop.b_index) >= width) {
        return Status::Internal("narrow of column " +
                                std::to_string(hop.b_index) + " at width " +
                                std::to_string(width));
      }
      cols.erase(cols.begin() + hop.b_index);
      continue;
    }
    if (hop.b_index < 0 || static_cast<size_t>(hop.b_index) > width ||
        hop.payload.narrow_schema->num_columns() != static_cast<int>(width)) {
      return Status::Internal("widen of " + it->smo_text + " at width " +
                              std::to_string(width));
    }
    WidenBuild widen;
    widen.aux_table = std::move(hop.aux_b);
    widen.payload = std::move(hop.payload);
    for (int r : widen.payload.reads) {
      widen.reads.push_back(cols[static_cast<size_t>(r)]);
    }
    cols.insert(cols.begin() + hop.b_index,
                ColumnSource{ColumnSource::Kind::kWiden,
                             static_cast<int>(widens.size())});
    widens.push_back(std::move(widen));
  }

  // Liveness: a consumer of widen j is the output or a widen after j, so
  // one reverse pass settles every widen before its own reads are marked.
  std::vector<bool> inner_live(static_cast<size_t>(layout.inner_width));
  std::vector<bool> widen_live(widens.size());
  auto mark = [&](const ColumnSource& src) {
    if (src.kind == ColumnSource::Kind::kInner) {
      inner_live[static_cast<size_t>(src.index)] = true;
    } else {
      widen_live[static_cast<size_t>(src.index)] = true;
    }
  };
  for (const ColumnSource& src : cols) mark(src);
  std::vector<bool> built(widens.size());
  for (size_t j = widens.size(); j-- > 0;) {
    built[j] = widen_live[j] || widens[j].payload.literal == nullptr;
    if (!built[j]) continue;
    for (const ColumnSource& src : widens[j].reads) mark(src);
  }

  // Renumber into the compact layout.
  std::vector<int> inner_at(static_cast<size_t>(layout.inner_width), -1);
  for (int i = 0; i < layout.inner_width; ++i) {
    if (!inner_live[static_cast<size_t>(i)]) continue;
    inner_at[static_cast<size_t>(i)] =
        static_cast<int>(layout.inner_reads.size());
    layout.inner_reads.push_back(i);
  }
  std::vector<int> widen_at(widens.size(), -1);
  auto remap = [&](ColumnSource src) {
    src.index = src.kind == ColumnSource::Kind::kInner
                    ? inner_at[static_cast<size_t>(src.index)]
                    : widen_at[static_cast<size_t>(src.index)];
    return src;
  };
  for (size_t j = 0; j < widens.size(); ++j) {
    if (!built[j]) {
      ++layout.dead_dropped;
      continue;
    }
    WidenBuild widen = std::move(widens[j]);
    for (ColumnSource& src : widen.reads) src = remap(src);
    widen.dead = !widen_live[j];
    widen_at[j] = static_cast<int>(layout.widens.size());
    layout.widens.push_back(std::move(widen));
  }
  for (const ColumnSource& src : cols) layout.output.push_back(remap(src));
  return layout;
}

Result<PlanStep> MakeFusedStep(std::vector<PlanStep> run) {
  INVERDA_ASSIGN_OR_RETURN(ColumnLayout layout, BuildColumnLayout(run));
  PlanStep fused;
  fused.smo = run.front().smo;
  fused.route = run.front().route;
  fused.side = run.front().side;
  fused.index = run.front().index;
  fused.kernel = FusedColumnMarker();
  fused.ctx = run.front().ctx;
  fused.smo_text = run.front().smo_text;
  fused.next = run.back().next;
  fused.layout = std::make_shared<const ColumnLayout>(std::move(layout));
  fused.fused = std::move(run);
  return fused;
}

/// Backend shim for the fused write path: ApplyToVersion calls aimed at
/// `capture_tv` (the next in-run version) are captured instead of executed,
/// so the run hands the transformed WriteSet to its next hop directly;
/// everything else (reads, aux access, out-of-run writes) passes through.
class CapturingBackend : public AccessBackend {
 public:
  CapturingBackend(AccessBackend* real, TvId capture_tv)
      : real_(real), capture_tv_(capture_tv) {}

  Status ScanVersion(TvId tv, const RowCallback& fn) override {
    return real_->ScanVersion(tv, fn);
  }
  Status ScanVersionBatch(TvId tv, RowBatch* out,
                          const std::vector<int>* columns) override {
    return real_->ScanVersionBatch(tv, out, columns);
  }
  Result<std::optional<Row>> FindVersion(TvId tv, int64_t key) override {
    return real_->FindVersion(tv, key);
  }
  Status ApplyToVersion(TvId tv, const WriteSet& writes) override {
    if (tv != capture_tv_) return real_->ApplyToVersion(tv, writes);
    for (const WriteOp& op : writes.ops) captured_.Add(op);
    return Status::OK();
  }
  Database& db() override { return real_->db(); }

  WriteSet& captured() { return captured_; }

 private:
  AccessBackend* real_;
  TvId capture_tv_;
  WriteSet captured_;
};

}  // namespace

std::string ColumnLayout::Summary() const {
  return "reads " + std::to_string(inner_reads.size()) + "/" +
         std::to_string(inner_width) + " inner columns, builds " +
         std::to_string(widens.size()) + " widens (" +
         std::to_string(dead_dropped) + " dead dropped)";
}

const Kernel* FusedColumnMarker() {
  static const FusedColumnKernel* kernel = new FusedColumnKernel();
  return kernel;
}

std::vector<PlanStep> FuseSteps(std::vector<PlanStep> steps) {
  std::vector<PlanStep> out;
  out.reserve(steps.size());
  size_t i = 0;
  while (i < steps.size()) {
    if (!steps[i].kernel->ProjectionOnly()) {
      out.push_back(std::move(steps[i]));
      ++i;
      continue;
    }
    size_t j = i;
    while (j < steps.size() && steps[j].kernel->ProjectionOnly()) ++j;
    // Fuse runs of >= 2 hops, and standalone identity hops (pure elision).
    // A standalone column hop executes identically fused or not, so it
    // stays plain and keeps its own kernel identity in EXPLAIN/metrics.
    bool fuse = (j - i >= 2) || IsIdentity(steps[i]);
    if (!fuse) {
      out.push_back(std::move(steps[i]));
      ++i;
      continue;
    }
    std::vector<PlanStep> run(
        std::make_move_iterator(steps.begin() + static_cast<ptrdiff_t>(i)),
        std::make_move_iterator(steps.begin() + static_cast<ptrdiff_t>(j)));
    Result<PlanStep> fused = MakeFusedStep(std::move(run));
    if (fused.ok()) {
      out.push_back(std::move(fused).value());
    } else {
      // Composition failed (e.g. aux not physical): keep the run unfused.
      for (size_t k = i; k < j; ++k) out.push_back(std::move(steps[k]));
    }
    i = j;
  }
  return out;
}

Status FusedDerive(const PlanStep& step, std::optional<int64_t> key,
                   Table* out) {
  if (!key) {
    RowBatch batch;
    INVERDA_RETURN_IF_ERROR(FusedDeriveBatch(step, &batch));
    return BatchToTable(batch, out);
  }
  const ColumnLayout& layout = *step.layout;
  AccessBackend* backend = step.ctx.backend;
  INVERDA_ASSIGN_OR_RETURN(std::optional<Row> inner,
                           backend->FindVersion(step.next, *key));
  if (!inner) return Status::OK();
  if (static_cast<int>(inner->size()) != layout.inner_width) {
    return Status::Internal("fused inner row width " +
                            std::to_string(inner->size()) + " != " +
                            std::to_string(layout.inner_width));
  }
  std::vector<Value> built(layout.widens.size());
  auto cell = [&](const ColumnSource& src) -> Value& {
    return src.kind == ColumnSource::Kind::kInner
               ? (*inner)[static_cast<size_t>(
                     layout.inner_reads[static_cast<size_t>(src.index)])]
               : built[static_cast<size_t>(src.index)];
  };
  for (size_t j = 0; j < layout.widens.size(); ++j) {
    const WidenBuild& widen = layout.widens[j];
    INVERDA_ASSIGN_OR_RETURN(Table * aux,
                             backend->db().GetTable(widen.aux_table));
    if (widen.reads.size() != widen.payload.reads.size()) {
      return Status::Internal("widen " + std::to_string(j) +
                              " maps the wrong number of reads");
    }
    Row narrow;
    INVERDA_RETURN_IF_ERROR(WidenValue(
        *aux, *key, widen.payload,
        [&](size_t i) -> const Value& { return cell(widen.reads[i]); },
        &narrow, &built[j]));
  }
  Row row;
  row.reserve(layout.output.size());
  for (const ColumnSource& src : layout.output) {
    row.push_back(std::move(cell(src)));
  }
  return out->Upsert(*key, std::move(row));
}

Status FusedDeriveBatch(const PlanStep& step, RowBatch* out) {
  const ColumnLayout& layout = *step.layout;
  AccessBackend* backend = step.ctx.backend;
  // The inner chain may itself pass through width-changing hops, so the
  // batch enters the scan width-unset; the post-scan call fixes the width
  // of an empty scan and rejects a mis-shaped result before any widen
  // indexes into it.
  RowBatch inner;
  INVERDA_RETURN_IF_ERROR(
      backend->ScanVersionBatch(step.next, &inner, &layout.inner_reads));
  const int kept = static_cast<int>(layout.inner_reads.size());
  INVERDA_RETURN_IF_ERROR(inner.SetNumColumns(kept));
  // Kept widens are appended after the inner columns as they are built,
  // so an output source resolves to one column of `inner`; a dead widen's
  // column is only built for its Status and then dropped.
  std::vector<int> widen_column(layout.widens.size(), -1);
  auto column_of = [&](const ColumnSource& src) {
    return src.kind == ColumnSource::Kind::kInner
               ? src.index
               : widen_column[static_cast<size_t>(src.index)];
  };
  for (size_t j = 0; j < layout.widens.size(); ++j) {
    const WidenBuild& widen = layout.widens[j];
    std::vector<const std::vector<Value>*> cells;
    cells.reserve(widen.reads.size());
    for (const ColumnSource& src : widen.reads) {
      const int c = column_of(src);
      if (c < 0 || c >= inner.num_columns()) {
        return Status::Internal("widen " + std::to_string(j) +
                                " reads an unbuilt column");
      }
      cells.push_back(&inner.column(c));
    }
    INVERDA_ASSIGN_OR_RETURN(Table * aux,
                             backend->db().GetTable(widen.aux_table));
    INVERDA_ASSIGN_OR_RETURN(std::vector<Value> b,
                             BuildWidenColumn(inner, cells, *aux,
                                              widen.payload));
    if (widen.dead) continue;
    widen_column[j] = inner.num_columns();
    INVERDA_RETURN_IF_ERROR(
        inner.InsertColumn(inner.num_columns(), std::move(b)));
  }
  std::vector<int> columns;
  columns.reserve(layout.output.size());
  for (const ColumnSource& src : layout.output) {
    columns.push_back(column_of(src));
  }
  return out->AssignProjection(std::move(inner), columns);
}

Status FusedPropagate(const PlanStep& step, const WriteSet& writes) {
  // Replay the original per-hop Propagate sequence, but capture each hop's
  // output WriteSet instead of recursing through the backend; only the
  // innermost hop applies against the real backend (which then continues
  // below the fusion boundary if needed).
  WriteSet current = writes;
  for (size_t i = 0; i + 1 < step.fused.size(); ++i) {
    const PlanStep& sub = step.fused[i];
    CapturingBackend shim(sub.ctx.backend, sub.next);
    SmoContext ctx = sub.ctx;
    ctx.backend = &shim;
    INVERDA_RETURN_IF_ERROR(
        sub.kernel->Propagate(ctx, sub.side, sub.index, current));
    if (shim.captured().empty()) return Status::OK();  // hop absorbed it
    current = std::move(shim.captured());
  }
  const PlanStep& last = step.fused.back();
  return last.kernel->Propagate(last.ctx, last.side, last.index, current);
}

}  // namespace plan
}  // namespace inverda
