#include "plan/fused.h"

#include <cstring>
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

/// The composed program of one run (plan order: planned version first).
Result<ColumnProgram> BuildColumnProgram(const std::vector<PlanStep>& run) {
  ColumnProgram program;
  const PlanStep& innermost = run.back();
  SmoSide inner_side = innermost.side == SmoSide::kSource ? SmoSide::kTarget
                                                          : SmoSide::kSource;
  program.inner_width =
      innermost.ctx.side(inner_side)[0].schema->num_columns();
  // Data flows inner -> planned, so ops compose in reverse plan order.
  for (auto it = run.rbegin(); it != run.rend(); ++it) {
    if (IsIdentity(*it)) continue;  // pure passthrough: no op
    INVERDA_ASSIGN_OR_RETURN(ColumnHopInfo hop,
                             ResolveColumnHop(it->ctx, it->side));
    ColumnOp op;
    op.index = hop.b_index;
    if (hop.widen) {
      op.kind = ColumnOp::Kind::kWiden;
      op.aux_table = std::move(hop.aux_b);
      op.payload = std::move(hop.payload);
    } else {
      op.kind = ColumnOp::Kind::kNarrow;
    }
    program.ops.push_back(std::move(op));
  }
  return program;
}

Result<PlanStep> MakeFusedStep(std::vector<PlanStep> run) {
  INVERDA_ASSIGN_OR_RETURN(ColumnProgram program, BuildColumnProgram(run));
  PlanStep fused;
  fused.smo = run.front().smo;
  fused.route = run.front().route;
  fused.side = run.front().side;
  fused.index = run.front().index;
  fused.kernel = FusedColumnMarker();
  fused.ctx = run.front().ctx;
  fused.smo_text = run.front().smo_text;
  fused.next = run.back().next;
  fused.program = std::make_shared<const ColumnProgram>(std::move(program));
  fused.fused = std::move(run);
  return fused;
}

/// Applies the composed program to one row-major tuple (point reads).
Status ApplyProgramRow(const ColumnProgram& program, AccessBackend& backend,
                       int64_t key, Row* row) {
  for (const ColumnOp& op : program.ops) {
    if (op.kind == ColumnOp::Kind::kNarrow) {
      row->erase(row->begin() + static_cast<Row::difference_type>(op.index));
      continue;
    }
    INVERDA_ASSIGN_OR_RETURN(Table * aux, backend.db().GetTable(op.aux_table));
    Value b;
    if (const Row* stored = aux->Find(key)) {
      b = (*stored)[0];
    } else if (op.payload.literal) {
      b = *op.payload.literal;
    } else {
      INVERDA_ASSIGN_OR_RETURN(
          b, op.payload.fn->Eval(*op.payload.narrow_schema, *row));
    }
    row->insert(row->begin() + static_cast<Row::difference_type>(op.index),
                std::move(b));
  }
  return Status::OK();
}

/// Applies the composed program to a whole batch: narrowing is one column
/// erase, widening one column build (BuildWidenColumn: aux lookup per row,
/// then a literal copy or an Eval over the cells the function reads) and
/// one column insert. No row is ever gathered whole.
Status ApplyProgramBatch(const ColumnProgram& program, AccessBackend& backend,
                         RowBatch* batch) {
  for (const ColumnOp& op : program.ops) {
    if (op.kind == ColumnOp::Kind::kNarrow) {
      batch->RemoveColumn(op.index);
      continue;
    }
    INVERDA_ASSIGN_OR_RETURN(Table * aux, backend.db().GetTable(op.aux_table));
    INVERDA_ASSIGN_OR_RETURN(std::vector<Value> b,
                             BuildWidenColumn(*batch, *aux, op.payload));
    INVERDA_RETURN_IF_ERROR(batch->InsertColumn(op.index, std::move(b)));
  }
  return Status::OK();
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
  Status ScanVersionBatch(TvId tv, RowBatch* out) override {
    return real_->ScanVersionBatch(tv, out);
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
  AccessBackend* backend = step.ctx.backend;
  if (key) {
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> row,
                             backend->FindVersion(step.next, *key));
    if (!row) return Status::OK();
    INVERDA_RETURN_IF_ERROR(
        ApplyProgramRow(*step.program, *backend, *key, &*row));
    return out->Upsert(*key, std::move(*row));
  }
  RowBatch batch;
  INVERDA_RETURN_IF_ERROR(FusedDeriveBatch(step, &batch));
  return BatchToTable(batch, out);
}

Status FusedDeriveBatch(const PlanStep& step, RowBatch* out) {
  AccessBackend* backend = step.ctx.backend;
  // The inner chain may itself pass through width-changing hops, so the
  // batch must enter the scan width-unset; the post-scan call fixes the
  // width of an empty scan and rejects a mis-shaped inner result before
  // the column program indexes into it.
  INVERDA_RETURN_IF_ERROR(backend->ScanVersionBatch(step.next, out));
  INVERDA_RETURN_IF_ERROR(out->SetNumColumns(step.program->inner_width));
  return ApplyProgramBatch(*step.program, *backend, out);
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
