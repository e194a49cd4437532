#include "mapping/kernels.h"

#include <set>

namespace inverda {

// ---------------------------------------------------------------------------
// IdentityKernel: RENAME TABLE / RENAME COLUMN
// ---------------------------------------------------------------------------

Status IdentityKernel::Derive(const SmoContext& ctx, SmoSide side, int which,
                              std::optional<int64_t> key, Table* out) const {
  if (which != 0) return Status::Internal("identity SMO has one table");
  const TvRef& other = ctx.side(side == SmoSide::kSource ? SmoSide::kTarget
                                                         : SmoSide::kSource)[0];
  if (key) {
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> row,
                             ctx.backend->FindVersion(other.id, *key));
    if (row) INVERDA_RETURN_IF_ERROR(out->Upsert(*key, std::move(*row)));
    return Status::OK();
  }
  Status status = Status::OK();
  INVERDA_RETURN_IF_ERROR(
      ctx.backend->ScanVersion(other.id, [&](int64_t k, const Row& row) {
        if (status.ok()) status = out->Upsert(k, row);
      }));
  return status;
}

Status IdentityKernel::DeriveReadBatch(const SmoContext& ctx, SmoSide side,
                                       int which, RowBatch* out) const {
  if (which != 0) return Status::Internal("identity SMO has one table");
  const TvRef& other = ctx.side(side == SmoSide::kSource ? SmoSide::kTarget
                                                         : SmoSide::kSource)[0];
  return ctx.backend->ScanVersionBatch(other.id, out);
}

Status IdentityKernel::Propagate(const SmoContext& ctx, SmoSide side,
                                 int which, const WriteSet& writes) const {
  if (which != 0) return Status::Internal("identity SMO has one table");
  const TvRef& other = ctx.side(side == SmoSide::kSource ? SmoSide::kTarget
                                                         : SmoSide::kSource)[0];
  return ctx.backend->ApplyToVersion(other.id, writes);
}

// ---------------------------------------------------------------------------
// ColumnKernel: ADD COLUMN / DROP COLUMN
// ---------------------------------------------------------------------------

namespace {

// Resolved geometry of an ADD/DROP COLUMN instance.
struct ColumnRoles {
  SmoSide wide_side;        // side that has column b
  const TvRef* wide = nullptr;
  const TvRef* narrow = nullptr;
  int b_index = 0;          // position of b in the wide schema
  const Expression* fn = nullptr;  // computes b from the narrow payload
};

Result<ColumnRoles> ResolveColumnRoles(const SmoContext& ctx) {
  ColumnRoles roles;
  const std::string* column = nullptr;
  if (ctx.smo->kind() == SmoKind::kAddColumn) {
    const auto* smo = static_cast<const AddColumnSmo*>(ctx.smo);
    roles.wide_side = SmoSide::kTarget;
    roles.fn = smo->fn().get();
    column = &smo->column();
  } else {
    const auto* smo = static_cast<const DropColumnSmo*>(ctx.smo);
    roles.wide_side = SmoSide::kSource;
    roles.fn = smo->default_fn().get();
    column = &smo->column();
  }
  roles.wide = &ctx.side(roles.wide_side)[0];
  roles.narrow = &ctx.side(roles.wide_side == SmoSide::kTarget
                               ? SmoSide::kSource
                               : SmoSide::kTarget)[0];
  std::optional<int> idx = roles.wide->schema->FindColumn(*column);
  if (!idx) {
    return Status::Internal("column " + *column + " missing from " +
                            roles.wide->schema->ToString());
  }
  roles.b_index = *idx;
  return roles;
}

Row WidenRow(const Row& narrow, int b_index, Value b) {
  Row out;
  out.reserve(narrow.size() + 1);
  out.insert(out.end(), narrow.begin(),
             narrow.begin() + static_cast<Row::difference_type>(b_index));
  out.push_back(std::move(b));
  out.insert(out.end(),
             narrow.begin() + static_cast<Row::difference_type>(b_index),
             narrow.end());
  return out;
}

Row NarrowRow(const Row& wide, int b_index) {
  Row out;
  out.reserve(wide.size() - 1);
  for (size_t i = 0; i < wide.size(); ++i) {
    if (static_cast<int>(i) != b_index) out.push_back(wide[i]);
  }
  return out;
}

}  // namespace

Status ColumnKernel::Derive(const SmoContext& ctx, SmoSide side, int which,
                            std::optional<int64_t> key, Table* out) const {
  if (which != 0) return Status::Internal("column SMO has one table");
  INVERDA_ASSIGN_OR_RETURN(ColumnRoles roles, ResolveColumnRoles(ctx));

  if (side == roles.wide_side) {
    // Data on the narrow side; aux B is physical there.
    INVERDA_ASSIGN_OR_RETURN(Table * b_aux, ctx.Aux("B"));
    Status status = Status::OK();
    auto emit = [&](int64_t k, const Row& narrow_row) {
      if (!status.ok()) return;
      Value b;
      if (const Row* stored = b_aux->Find(k)) {
        b = (*stored)[0];
      } else {
        Result<Value> computed =
            roles.fn->Eval(*roles.narrow->schema, narrow_row);
        if (!computed.ok()) {
          status = computed.status();
          return;
        }
        b = std::move(computed).value();
      }
      status = out->Upsert(k, WidenRow(narrow_row, roles.b_index, std::move(b)));
    };
    if (key) {
      INVERDA_ASSIGN_OR_RETURN(std::optional<Row> row,
                               ctx.backend->FindVersion(roles.narrow->id, *key));
      if (row) emit(*key, *row);
      return status;
    }
    INVERDA_RETURN_IF_ERROR(ctx.backend->ScanVersion(roles.narrow->id, emit));
    return status;
  }

  // Deriving the narrow side: data on the wide side; plain projection.
  Status status = Status::OK();
  auto emit = [&](int64_t k, const Row& wide_row) {
    if (!status.ok()) return;
    status = out->Upsert(k, NarrowRow(wide_row, roles.b_index));
  };
  if (key) {
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> row,
                             ctx.backend->FindVersion(roles.wide->id, *key));
    if (row) emit(*key, *row);
    return status;
  }
  INVERDA_RETURN_IF_ERROR(ctx.backend->ScanVersion(roles.wide->id, emit));
  return status;
}

Status ColumnKernel::DeriveReadBatch(const SmoContext& ctx, SmoSide side,
                                     int which, RowBatch* out) const {
  if (which != 0) return Status::Internal("column SMO has one table");
  INVERDA_ASSIGN_OR_RETURN(ColumnRoles roles, ResolveColumnRoles(ctx));

  if (side != roles.wide_side) {
    // Narrow from wide: projection is one whole-column erase.
    INVERDA_RETURN_IF_ERROR(
        ctx.backend->ScanVersionBatch(roles.wide->id, out));
    out->RemoveColumn(roles.b_index);
    return Status::OK();
  }

  // Wide from narrow: scan the narrow side, then splice in the b column —
  // stored aux value per key, payload function on aux miss (same rule the
  // row path applies per tuple).
  INVERDA_RETURN_IF_ERROR(
      ctx.backend->ScanVersionBatch(roles.narrow->id, out));
  const int width = roles.narrow->schema->num_columns();
  if (!out->empty() && out->num_columns() != width) {
    return Status::Internal("widen input has " +
                            std::to_string(out->num_columns()) +
                            " columns, " + roles.narrow->schema->ToString() +
                            " has " + std::to_string(width));
  }
  INVERDA_RETURN_IF_ERROR(out->SetNumColumns(width));
  INVERDA_ASSIGN_OR_RETURN(Table * b_aux, ctx.Aux("B"));
  const WidenFn payload = ResolveWidenFn(roles.fn, roles.narrow->schema);
  std::vector<const std::vector<Value>*> cells;
  for (int c : payload.reads) cells.push_back(&out->column(c));
  INVERDA_ASSIGN_OR_RETURN(std::vector<Value> b,
                           BuildWidenColumn(*out, cells, *b_aux, payload));
  return out->InsertColumn(roles.b_index, std::move(b));
}

Status ColumnKernel::DeriveAux(const SmoContext& ctx,
                               const std::string& aux_short_name,
                               Table* out) const {
  if (aux_short_name != "B") {
    return Status::Internal("unknown aux " + aux_short_name);
  }
  // The narrow side is about to become the data side; preserve the current
  // b-values of the wide side so reads stay repeatable (rule 131).
  INVERDA_ASSIGN_OR_RETURN(ColumnRoles roles, ResolveColumnRoles(ctx));
  Status status = Status::OK();
  INVERDA_RETURN_IF_ERROR(ctx.backend->ScanVersion(
      roles.wide->id, [&](int64_t k, const Row& wide_row) {
        if (!status.ok()) return;
        status =
            out->Upsert(k, Row{wide_row[static_cast<size_t>(roles.b_index)]});
      }));
  return status;
}

Status ColumnKernel::Propagate(const SmoContext& ctx, SmoSide side, int which,
                               const WriteSet& writes) const {
  if (which != 0) return Status::Internal("column SMO has one table");
  INVERDA_ASSIGN_OR_RETURN(ColumnRoles roles, ResolveColumnRoles(ctx));

  if (side == roles.wide_side) {
    // Writes on the wide (virtual) side; data on the narrow side.
    INVERDA_ASSIGN_OR_RETURN(Table * b_aux, ctx.Aux("B"));
    WriteSet narrow_writes;
    for (const WriteOp& op : writes.ops) {
      switch (op.kind) {
        case WriteOp::Kind::kInsert:
          narrow_writes.Add(
              WriteOp::Insert(op.key, NarrowRow(op.row, roles.b_index)));
          INVERDA_RETURN_IF_ERROR(b_aux->Upsert(
              op.key, Row{op.row[static_cast<size_t>(roles.b_index)]}));
          break;
        case WriteOp::Kind::kUpdate:
          narrow_writes.Add(
              WriteOp::Update(op.key, NarrowRow(op.row, roles.b_index)));
          INVERDA_RETURN_IF_ERROR(b_aux->Upsert(
              op.key, Row{op.row[static_cast<size_t>(roles.b_index)]}));
          break;
        case WriteOp::Kind::kDelete:
          narrow_writes.Add(WriteOp::Delete(op.key));
          b_aux->Erase(op.key);
          break;
      }
    }
    return ctx.backend->ApplyToVersion(roles.narrow->id, narrow_writes);
  }

  // Writes on the narrow (virtual) side; data on the wide side.
  WriteSet wide_writes;
  for (const WriteOp& op : writes.ops) {
    switch (op.kind) {
      case WriteOp::Kind::kInsert: {
        INVERDA_ASSIGN_OR_RETURN(
            Value b, roles.fn->Eval(*roles.narrow->schema, op.row));
        wide_writes.Add(WriteOp::Insert(
            op.key, WidenRow(op.row, roles.b_index, std::move(b))));
        break;
      }
      case WriteOp::Kind::kUpdate: {
        // Keep the wide side's current b value.
        INVERDA_ASSIGN_OR_RETURN(
            std::optional<Row> wide_row,
            ctx.backend->FindVersion(roles.wide->id, op.key));
        if (!wide_row) break;  // row vanished; nothing to update
        wide_writes.Add(WriteOp::Update(
            op.key,
            WidenRow(op.row, roles.b_index,
                     (*wide_row)[static_cast<size_t>(roles.b_index)])));
        break;
      }
      case WriteOp::Kind::kDelete:
        wide_writes.Add(WriteOp::Delete(op.key));
        break;
    }
  }
  return ctx.backend->ApplyToVersion(roles.wide->id, wide_writes);
}

Result<ColumnHopInfo> ResolveColumnHop(const SmoContext& ctx, SmoSide side) {
  INVERDA_ASSIGN_OR_RETURN(ColumnRoles roles, ResolveColumnRoles(ctx));
  ColumnHopInfo info;
  info.b_index = roles.b_index;
  info.widen = side == roles.wide_side;
  if (info.widen) {
    auto it = ctx.aux_names.find("B");
    if (it == ctx.aux_names.end()) {
      return Status::Internal("aux B not physical for " + ctx.smo->ToString());
    }
    info.aux_b = it->second;
    info.payload = ResolveWidenFn(roles.fn, roles.narrow->schema);
  }
  return info;
}

WidenFn ResolveWidenFn(const Expression* fn, const TableSchema* narrow_schema) {
  WidenFn payload;
  payload.fn = fn;
  payload.narrow_schema = narrow_schema;
  payload.literal = fn->AsLiteral();
  if (payload.literal) return payload;
  std::set<std::string> names;
  fn->CollectColumns(&names);
  for (const std::string& name : names) {
    if (std::optional<int> idx = narrow_schema->FindColumn(name)) {
      payload.reads.push_back(*idx);
    }
  }
  return payload;
}

Result<std::vector<Value>> BuildWidenColumn(
    const RowBatch& batch, const std::vector<const std::vector<Value>*>& cells,
    const Table& aux, const WidenFn& payload) {
  const size_t n = static_cast<size_t>(batch.size());
  if (cells.size() != payload.reads.size()) {
    return Status::Internal("widen of " + payload.narrow_schema->ToString() +
                            " got " + std::to_string(cells.size()) +
                            " input columns for " +
                            std::to_string(payload.reads.size()) + " reads");
  }
  for (const std::vector<Value>* cell : cells) {
    if (cell->size() != n) {
      return Status::Internal("widen input column of " +
                              std::to_string(cell->size()) +
                              " values for a batch of " + std::to_string(n));
    }
  }
  if (aux.empty() && payload.literal != nullptr && !batch.has_selection()) {
    return std::vector<Value>(n, *payload.literal);  // nothing stored
  }
  std::vector<Value> b(n);
  Row narrow;
  for (size_t row = 0; row < n; ++row) {
    if (!batch.selected(static_cast<int64_t>(row))) continue;
    INVERDA_RETURN_IF_ERROR(WidenValue(
        aux, batch.key_at(static_cast<int64_t>(row)), payload,
        [&](size_t i) -> const Value& { return (*cells[i])[row]; }, &narrow,
        &b[row]));
  }
  return b;
}

}  // namespace inverda
