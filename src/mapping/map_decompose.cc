#include "mapping/kernels.h"

#include <set>

#include "util/strings.h"

namespace inverda {
namespace {

// ---------------------------------------------------------------------------
// Shared geometry of the vertical SMOs: a combined table R(p, A, B) on one
// side ("combined"), S(p, A) / T(t, B) on the other ("split"). a_indexes /
// b_indexes locate the A / B parts within the combined payload.
// ---------------------------------------------------------------------------

struct VerticalRoles {
  SmoSide combined_side;
  const TvRef* combined = nullptr;
  const TvRef* s = nullptr;
  const TvRef* t = nullptr;  // nullptr for projection-only DECOMPOSE
  std::vector<int> a_indexes;  // positions of the S payload in combined
  std::vector<int> b_indexes;  // positions of the T payload in combined
  int fk_index = -1;           // position of fk within S's payload (FK only)
  bool outer = true;           // JOIN only; DECOMPOSE is always "outer"
  const Expression* condition = nullptr;  // condition method only
};

// Builds the combined payload row from A and B parts (either may be absent
// and is then padded with ω).
Row Combine(const VerticalRoles& roles, int width, const Row* a,
            const Row* b) {
  Row out(static_cast<size_t>(width));
  if (a != nullptr) {
    for (size_t i = 0; i < roles.a_indexes.size(); ++i) {
      out[static_cast<size_t>(roles.a_indexes[i])] = (*a)[i];
    }
  }
  if (b != nullptr) {
    for (size_t i = 0; i < roles.b_indexes.size(); ++i) {
      out[static_cast<size_t>(roles.b_indexes[i])] = (*b)[i];
    }
  }
  return out;
}

Result<VerticalRoles> ResolveVertical(const SmoContext& ctx,
                                      VerticalMethod expect) {
  VerticalRoles roles;
  if (ctx.smo->kind() == SmoKind::kDecompose) {
    const auto* smo = static_cast<const DecomposeSmo*>(ctx.smo);
    if (smo->method() != expect) {
      return Status::Internal("kernel/method mismatch");
    }
    roles.combined_side = SmoSide::kSource;
    roles.combined = &ctx.sources[0];
    roles.s = &ctx.targets[0];
    roles.t = smo->has_t() ? &ctx.targets[1] : nullptr;
    INVERDA_ASSIGN_OR_RETURN(
        roles.a_indexes, roles.combined->schema->ColumnIndexes(smo->s_columns()));
    if (smo->has_t()) {
      INVERDA_ASSIGN_OR_RETURN(
          roles.b_indexes,
          roles.combined->schema->ColumnIndexes(smo->t_columns()));
    }
    if (expect == VerticalMethod::kFk) {
      std::optional<int> fk = roles.s->schema->FindColumn(smo->fk_column());
      if (!fk) return Status::Internal("fk column missing from S");
      roles.fk_index = *fk;
    }
    roles.condition = smo->condition().get();
    roles.outer = true;
    return roles;
  }
  if (ctx.smo->kind() == SmoKind::kJoin) {
    const auto* smo = static_cast<const JoinSmo*>(ctx.smo);
    if (smo->method() != expect) {
      return Status::Internal("kernel/method mismatch");
    }
    roles.combined_side = SmoSide::kTarget;
    roles.combined = &ctx.targets[0];
    roles.s = &ctx.sources[0];
    roles.t = &ctx.sources[1];
    roles.outer = smo->outer();
    roles.condition = smo->condition().get();
    // Combined payload = (S payload minus fk) ++ T payload, in order.
    int pos = 0;
    for (int i = 0; i < roles.s->schema->num_columns(); ++i) {
      const Column& c = roles.s->schema->columns()[static_cast<size_t>(i)];
      if (expect == VerticalMethod::kFk &&
          EqualsIgnoreCase(c.name, smo->fk_column())) {
        roles.fk_index = i;
        continue;
      }
      (void)c;
      roles.a_indexes.push_back(pos++);
    }
    for (int i = 0; i < roles.t->schema->num_columns(); ++i) {
      roles.b_indexes.push_back(pos++);
    }
    return roles;
  }
  return Status::Internal("vertical kernel applied to non-vertical SMO");
}

// Extracts the A part of a combined payload (in S column order, fk
// excluded). For the JOIN direction a_indexes already exclude fk.
Row APart(const VerticalRoles& roles, const Row& combined) {
  return Project(combined, roles.a_indexes);
}
Row BPart(const VerticalRoles& roles, const Row& combined) {
  return Project(combined, roles.b_indexes);
}

// For the FK variant: S's payload includes the fk column. These helpers
// build / split S payload rows.
Row MakeSPayload(const VerticalRoles& roles, const Row& a, Value fk) {
  if (roles.fk_index < 0) return a;
  Row out;
  out.reserve(a.size() + 1);
  size_t ai = 0;
  int width = static_cast<int>(a.size()) + 1;
  for (int i = 0; i < width; ++i) {
    if (i == roles.fk_index) {
      out.push_back(fk);
    } else {
      out.push_back(a[ai++]);
    }
  }
  return out;
}

Row SPayloadWithoutFk(const VerticalRoles& roles, const Row& s_payload) {
  if (roles.fk_index < 0) return s_payload;
  Row out;
  out.reserve(s_payload.size() - 1);
  for (size_t i = 0; i < s_payload.size(); ++i) {
    if (static_cast<int>(i) != roles.fk_index) out.push_back(s_payload[i]);
  }
  return out;
}

Value FkOf(const VerticalRoles& roles, const Row& s_payload) {
  return s_payload[static_cast<size_t>(roles.fk_index)];
}

}  // namespace

// ---------------------------------------------------------------------------
// VerticalPkKernel: DECOMPOSE ON PK / OUTER JOIN ON PK (B.2)
// ---------------------------------------------------------------------------

Status VerticalPkKernel::Derive(const SmoContext& ctx, SmoSide side, int which,
                                std::optional<int64_t> key, Table* out) const {
  INVERDA_ASSIGN_OR_RETURN(VerticalRoles roles,
                           ResolveVertical(ctx, VerticalMethod::kPk));

  if (side != roles.combined_side) {
    // Derive S (which == 0) or T (which == 1) from the combined table:
    // project, skipping all-ω parts (rules 133-134).
    bool want_s = (which == 0);
    if (!want_s && roles.t == nullptr) {
      return Status::Internal("projection-only DECOMPOSE has no T");
    }
    const std::vector<int>& indexes =
        want_s ? roles.a_indexes : roles.b_indexes;
    Status status = Status::OK();
    auto emit = [&](int64_t k, const Row& row) {
      if (!status.ok()) return;
      Row part = Project(row, indexes);
      if (!AllNull(part)) status = out->Upsert(k, std::move(part));
    };
    if (key) {
      INVERDA_ASSIGN_OR_RETURN(
          std::optional<Row> row,
          ctx.backend->FindVersion(roles.combined->id, *key));
      if (row) emit(*key, *row);
      return status;
    }
    INVERDA_RETURN_IF_ERROR(ctx.backend->ScanVersion(roles.combined->id, emit));
    return status;
  }

  // Derive the combined table: full outer join of S and T on the key
  // (rules 135-137).
  int width = roles.combined->schema->num_columns();
  if (key) {
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> a,
                             ctx.backend->FindVersion(roles.s->id, *key));
    std::optional<Row> b;
    if (roles.t != nullptr) {
      INVERDA_ASSIGN_OR_RETURN(b, ctx.backend->FindVersion(roles.t->id, *key));
    }
    if (!a && !b) return Status::OK();
    return out->Upsert(*key, Combine(roles, width, a ? &*a : nullptr,
                                     b ? &*b : nullptr));
  }
  INVERDA_ASSIGN_OR_RETURN(RowMap a_rows,
                           CollectVersion(ctx.backend, roles.s->id));
  RowMap b_rows;
  if (roles.t != nullptr) {
    INVERDA_ASSIGN_OR_RETURN(b_rows, CollectVersion(ctx.backend, roles.t->id));
  }
  for (const auto& [k, a] : a_rows) {
    auto it = b_rows.find(k);
    INVERDA_RETURN_IF_ERROR(out->Upsert(
        k, Combine(roles, width, &a, it == b_rows.end() ? nullptr : &it->second)));
  }
  for (const auto& [k, b] : b_rows) {
    if (a_rows.count(k)) continue;
    INVERDA_RETURN_IF_ERROR(out->Upsert(k, Combine(roles, width, nullptr, &b)));
  }
  return Status::OK();
}

Status VerticalPkKernel::DeriveReadBatch(const SmoContext& ctx, SmoSide side,
                                         int which, RowBatch* out) const {
  INVERDA_ASSIGN_OR_RETURN(VerticalRoles roles,
                           ResolveVertical(ctx, VerticalMethod::kPk));
  if (side == roles.combined_side) {
    // The combined side is a key-merge of two versions; the generic
    // scratch-table fallback is already its natural shape.
    return Kernel::DeriveReadBatch(ctx, side, which, out);
  }
  bool want_s = (which == 0);
  if (!want_s && roles.t == nullptr) {
    return Status::Internal("projection-only DECOMPOSE has no T");
  }
  const std::vector<int>& indexes = want_s ? roles.a_indexes : roles.b_indexes;
  RowBatch combined;
  // Width set post-scan: the inner chain may pass through width-changing
  // hops that need the batch width-unset on entry.
  INVERDA_RETURN_IF_ERROR(
      ctx.backend->ScanVersionBatch(roles.combined->id, &combined));
  INVERDA_RETURN_IF_ERROR(
      combined.SetNumColumns(roles.combined->schema->num_columns()));
  INVERDA_RETURN_IF_ERROR(out->AssignProjection(std::move(combined), indexes));
  // Rules 133-134: all-ω parts are invisible on the split side. Computed
  // column-wise: a row survives if any of its projected cells is non-NULL.
  std::vector<uint8_t> has_value(static_cast<size_t>(out->size()), 0);
  for (int c = 0; c < out->num_columns(); ++c) {
    const std::vector<Value>& col = out->column(c);
    for (size_t i = 0; i < col.size(); ++i) {
      if (!col[i].is_null()) has_value[i] = 1;
    }
  }
  for (int64_t i = 0; i < out->size(); ++i) {
    if (out->selected(i) && !has_value[static_cast<size_t>(i)]) {
      out->Deselect(i);
    }
  }
  return Status::OK();
}

Status VerticalPkKernel::Propagate(const SmoContext& ctx, SmoSide side,
                                   int which, const WriteSet& writes) const {
  INVERDA_ASSIGN_OR_RETURN(VerticalRoles roles,
                           ResolveVertical(ctx, VerticalMethod::kPk));

  if (side != roles.combined_side) {
    // Writes on S or T; the combined table holds the data.
    bool on_s = (which == 0);
    if (!on_s && roles.t == nullptr) {
      return Status::Internal("projection-only DECOMPOSE has no T");
    }
    const std::vector<int>& own = on_s ? roles.a_indexes : roles.b_indexes;
    int width = roles.combined->schema->num_columns();
    for (const WriteOp& op : writes.ops) {
      INVERDA_ASSIGN_OR_RETURN(
          std::optional<Row> combined,
          ctx.backend->FindVersion(roles.combined->id, op.key));
      std::optional<Row> own_part;
      if (combined) {
        Row part = Project(*combined, own);
        if (!AllNull(part)) own_part = std::move(part);
      }
      WriteSet down;
      switch (op.kind) {
        case WriteOp::Kind::kInsert: {
          if (own_part) {
            return Status::ConstraintViolation(
                "duplicate key " + std::to_string(op.key) + " in " +
                (on_s ? roles.s : roles.t)->schema->name());
          }
          Row merged = combined ? *combined : Row(static_cast<size_t>(width));
          for (size_t i = 0; i < own.size(); ++i) {
            merged[static_cast<size_t>(own[i])] = op.row[i];
          }
          if (combined) {
            down.Add(WriteOp::Update(op.key, std::move(merged)));
          } else {
            down.Add(WriteOp::Insert(op.key, std::move(merged)));
          }
          break;
        }
        case WriteOp::Kind::kUpdate: {
          if (!own_part) continue;
          Row merged = *combined;
          for (size_t i = 0; i < own.size(); ++i) {
            merged[static_cast<size_t>(own[i])] = op.row[i];
          }
          down.Add(WriteOp::Update(op.key, std::move(merged)));
          break;
        }
        case WriteOp::Kind::kDelete: {
          if (!own_part) continue;
          Row merged = *combined;
          for (int idx : own) {
            merged[static_cast<size_t>(idx)] = Value::Null();
          }
          if (AllNull(merged)) {
            down.Add(WriteOp::Delete(op.key));
          } else {
            down.Add(WriteOp::Update(op.key, std::move(merged)));
          }
          break;
        }
      }
      INVERDA_RETURN_IF_ERROR(
          ctx.backend->ApplyToVersion(roles.combined->id, down));
    }
    return Status::OK();
  }

  // Writes on the combined table; S and T hold the data.
  for (const WriteOp& op : writes.ops) {
    Row a, b;
    bool has_row = op.kind != WriteOp::Kind::kDelete;
    if (has_row) {
      a = APart(roles, op.row);
      b = roles.t != nullptr ? BPart(roles, op.row) : Row{};
    }
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> old_a,
                             ctx.backend->FindVersion(roles.s->id, op.key));
    std::optional<Row> old_b;
    if (roles.t != nullptr) {
      INVERDA_ASSIGN_OR_RETURN(old_b,
                               ctx.backend->FindVersion(roles.t->id, op.key));
    }
    if (op.kind == WriteOp::Kind::kInsert && (old_a || old_b)) {
      return Status::ConstraintViolation("duplicate key " +
                                         std::to_string(op.key) + " in " +
                                         roles.combined->schema->name());
    }
    if (op.kind == WriteOp::Kind::kInsert && AllNull(a) &&
        (roles.t == nullptr || AllNull(b))) {
      return Status::InvalidArgument(
          "cannot insert an all-NULL tuple through " + ctx.smo->ToString());
    }
    auto sync = [&](const TvRef* tv, const std::optional<Row>& before,
                    const Row& part, bool keep) -> Status {
      WriteSet down;
      if (keep && !AllNull(part)) {
        if (before) {
          if (!RowsEqual(*before, part)) down.Add(WriteOp::Update(op.key, part));
        } else {
          down.Add(WriteOp::Insert(op.key, part));
        }
      } else if (before) {
        down.Add(WriteOp::Delete(op.key));
      }
      if (down.empty()) return Status::OK();
      return ctx.backend->ApplyToVersion(tv->id, down);
    };
    INVERDA_RETURN_IF_ERROR(sync(roles.s, old_a, a, has_row));
    if (roles.t != nullptr) {
      INVERDA_RETURN_IF_ERROR(sync(roles.t, old_b, b, has_row));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FkKernel: DECOMPOSE ON FK / [OUTER] JOIN ON FK (B.3)
// ---------------------------------------------------------------------------

namespace {

// True when the id memo knows `t` to name a payload other than `b`: an IDR
// entry (p, t) for a combined row whose right part is now `b` went stale
// through a direct write to the combined table.
bool IsStaleAssignment(const SmoContext& ctx, int64_t t, const Row& b) {
  return !ctx.memo->Names("T", t, b).value_or(true);
}

// Finds the payload of the right-hand tuple `t` when the combined side
// holds the data: either an unreferenced right tuple stored under key t, or
// the first row (in key order) whose IDR entry still names t. IDR's index
// on t hands out exactly the rows that name t, so this visits 1 + the
// dead or stale entries before the first current one.
Result<std::optional<Row>> FindRightPayloadFromCombined(
    const SmoContext& ctx, const VerticalRoles& roles, Table* idr,
    int64_t t) {
  // Fast path: an R row keyed t (unreferenced right tuple, IDR(t, t)).
  INVERDA_ASSIGN_OR_RETURN(std::optional<Row> direct,
                           ctx.backend->FindVersion(roles.combined->id, t));
  if (direct && AllNull(APart(roles, *direct))) {
    return std::optional<Row>(BPart(roles, *direct));
  }
  std::optional<Row> found;
  Status status = Status::OK();
  idr->ScanIndex(t, [&](int64_t p) {
    Result<std::optional<Row>> combined =
        ctx.backend->FindVersion(roles.combined->id, p);
    if (!combined.ok()) {
      status = combined.status();
      return false;
    }
    if (!*combined) return true;
    Row b = BPart(roles, **combined);
    if (IsStaleAssignment(ctx, t, b)) return true;
    found = std::move(b);
    return false;
  });
  INVERDA_RETURN_IF_ERROR(status);
  return found;
}

// True if any IDR entry other than `except_key` references `t` through a
// still-existing combined row that still carries t's payload (stale IDR
// entries from direct physical writes are ignored). Stops at the first
// such referrer.
bool IsReferenced(const SmoContext& ctx, const VerticalRoles& roles,
                  Table* idr, int64_t t, std::optional<int64_t> except_key) {
  bool referenced = false;
  idr->ScanIndex(t, [&](int64_t p) {
    if (p == t || (except_key && p == *except_key)) return true;
    Result<std::optional<Row>> row =
        ctx.backend->FindVersion(roles.combined->id, p);
    referenced = row.ok() && *row &&
                 !IsStaleAssignment(ctx, t, BPart(roles, **row));
    return !referenced;
  });
  return referenced;
}

// The keys of every IDR entry naming `t`, ascending (collected up front:
// the callers rewrite those entries while they walk the list).
std::vector<int64_t> Referrers(const Table& idr, int64_t t) {
  std::vector<int64_t> keys;
  idr.ScanIndex(t, [&](int64_t p) {
    keys.push_back(p);
    return true;
  });
  return keys;
}

// Resolves the right-hand id for one combined row (p, a, b) while the
// combined side holds the data, lazily assigning memoized ids for rows that
// were written directly to physical storage (the idT(B) function of rule
// 142, with IDR providing repeatable reads). Returns NULL for an all-ω
// right part.
Result<Value> ResolveAssignedT(const SmoContext& ctx,
                               const VerticalRoles& roles, Table* idr,
                               int64_t p, const Row& a, const Row& b) {
  if (AllNull(b)) return Value::Null();
  if (AllNull(a)) {
    // A lone right-hand tuple is its own id (rule 152: IDR(t, t)).
    INVERDA_RETURN_IF_ERROR(idr->Upsert(p, Row{Value::Int(p)}));
    return Value::Int(p);
  }
  if (const Row* existing = idr->Find(p)) {
    const Value& t = (*existing)[0];
    // IDR(p) is a repeatable read of idT(b), not a fact about p: a direct
    // write to the combined table may have changed p's right part since.
    // Keep t while it still names b; an id the memo has not seen yet (IDR
    // written by a path that could not seed it) is trusted and learns b.
    if (!t.is_null()) {
      std::optional<bool> names = ctx.memo->Names("T", t.AsInt(), b);
      if (!names.has_value()) ctx.memo->Seed("T", b, t.AsInt());
      if (names.value_or(true)) return t;
    }
  }
  if (std::optional<int64_t> hit = ctx.memo->Find("T", b)) {
    INVERDA_RETURN_IF_ERROR(idr->Upsert(p, Row{Value::Int(*hit)}));
    return Value::Int(*hit);
  }
  // Cold memo: warm it from the existing assignments so equal payloads
  // reuse their id, then allocate if still unknown.
  Status status = Status::OK();
  std::map<int64_t, int64_t> assigned;  // p -> t
  idr->Scan([&](int64_t other, const Row& row) {
    if (!row[0].is_null()) assigned[other] = row[0].AsInt();
  });
  for (const auto& [other, t] : assigned) {
    Result<std::optional<Row>> row =
        ctx.backend->FindVersion(roles.combined->id, other);
    if (!row.ok()) {
      status = row.status();
      break;
    }
    if (!*row) continue;
    // Lone right-hand tuples (all-ω left part) keep a private id: sharing
    // it with referenced tuples of equal payload would merge them and lose
    // the lone tuple's identity on migration.
    if (AllNull(APart(roles, **row))) continue;
    Row other_b = BPart(roles, **row);
    // Only ids the memo does not know yet: a known id that names another
    // payload marks a stale entry, which must not rename that id.
    if (!AllNull(other_b) && !ctx.memo->Names("T", t, other_b).has_value()) {
      ctx.memo->Seed("T", other_b, t);
    }
  }
  INVERDA_RETURN_IF_ERROR(status);
  if (std::optional<int64_t> hit = ctx.memo->Find("T", b)) {
    INVERDA_RETURN_IF_ERROR(idr->Upsert(p, Row{Value::Int(*hit)}));
    return Value::Int(*hit);
  }
  int64_t t = ctx.seq().Next();
  ctx.memo->Seed("T", b, t);
  INVERDA_RETURN_IF_ERROR(idr->Upsert(p, Row{Value::Int(t)}));
  return Value::Int(t);
}

// Assigns ids for every combined row so IDR is complete (needed before
// right-hand-side scans while the combined side holds the data).
Status WarmAssignments(const SmoContext& ctx, const VerticalRoles& roles,
                       Table* idr) {
  INVERDA_ASSIGN_OR_RETURN(RowMap rows,
                           CollectVersion(ctx.backend, roles.combined->id));
  for (const auto& [p, row] : rows) {
    INVERDA_RETURN_IF_ERROR(
        ResolveAssignedT(ctx, roles, idr, p, APart(roles, row),
                         BPart(roles, row))
            .status());
  }
  return Status::OK();
}

// Finds an existing right-hand tuple with payload `b` when the split side
// holds the data (rule 142's ¬To(_, B) test): memo first, scan fallback.
Result<std::optional<int64_t>> FindRightByPayload(const SmoContext& ctx,
                                                  const VerticalRoles& roles,
                                                  const Row& b) {
  if (std::optional<int64_t> hit = ctx.memo->Find("T", b)) {
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> row,
                             ctx.backend->FindVersion(roles.t->id, *hit));
    if (row && RowsEqual(*row, b)) return std::optional<int64_t>(*hit);
    ctx.memo->Forget("T", b);
  }
  std::optional<int64_t> found;
  INVERDA_RETURN_IF_ERROR(
      ctx.backend->ScanVersion(roles.t->id, [&](int64_t t, const Row& row) {
        if (!found && RowsEqual(row, b)) found = t;
      }));
  if (found) ctx.memo->Seed("T", b, *found);
  return found;
}

}  // namespace

Status FkKernel::Derive(const SmoContext& ctx, SmoSide side, int which,
                        std::optional<int64_t> key, Table* out) const {
  INVERDA_ASSIGN_OR_RETURN(VerticalRoles roles,
                           ResolveVertical(ctx, VerticalMethod::kFk));

  if (side != roles.combined_side) {
    // Derive S (which == 0) or T (which == 1) from the combined side.
    INVERDA_ASSIGN_OR_RETURN(Table * idr, ctx.Aux("IDR"));
    bool want_s = (which == 0);
    Status status = Status::OK();
    auto emit = [&](int64_t p, const Row& combined) {
      if (!status.ok()) return;
      Row a = APart(roles, combined);
      Row b = BPart(roles, combined);
      Result<Value> t = ResolveAssignedT(ctx, roles, idr, p, a, b);
      if (!t.ok()) {
        status = t.status();
        return;
      }
      if (want_s) {
        // Rules 144-146: every row with a non-ω left part is an S row.
        if (AllNull(a)) return;
        status = out->Upsert(p, MakeSPayload(roles, a, std::move(*t)));
      } else {
        // Rules 141-143: deduplicated right parts under their assigned id.
        if (AllNull(b) || t->is_null()) return;
        status = out->Upsert(t->AsInt(), std::move(b));
      }
    };
    // Inner joins additionally carry the hidden unmatched tuples in the
    // keep-alive aux tables.
    Table* keep = nullptr;
    if (!roles.outer) {
      INVERDA_ASSIGN_OR_RETURN(keep, ctx.Aux(want_s ? "L_plus" : "R_plus"));
    }
    if (key) {
      if (want_s) {
        INVERDA_ASSIGN_OR_RETURN(
            std::optional<Row> row,
            ctx.backend->FindVersion(roles.combined->id, *key));
        if (row) emit(*key, *row);
        if (status.ok() && !out->Contains(*key) && keep != nullptr) {
          if (const Row* kept = keep->Find(*key)) {
            status = out->Upsert(*key, *kept);
          }
        }
        return status;
      }
      // Keyed lookup of a right-hand tuple.
      INVERDA_ASSIGN_OR_RETURN(
          std::optional<Row> payload,
          FindRightPayloadFromCombined(ctx, roles, idr, *key));
      if (payload) return out->Upsert(*key, std::move(*payload));
      if (keep != nullptr) {
        if (const Row* kept = keep->Find(*key)) {
          return out->Upsert(*key, *kept);
        }
      }
      return Status::OK();
    }
    INVERDA_RETURN_IF_ERROR(ctx.backend->ScanVersion(roles.combined->id, emit));
    INVERDA_RETURN_IF_ERROR(status);
    if (keep != nullptr) {
      keep->Scan([&](int64_t k, const Row& row) {
        if (status.ok() && !out->Contains(k)) status = out->Upsert(k, row);
      });
    }
    return status;
  }

  // Derive the combined table from S and T (rules 147-149).
  int width = roles.combined->schema->num_columns();
  INVERDA_ASSIGN_OR_RETURN(RowMap t_rows,
                           CollectVersion(ctx.backend, roles.t->id));
  std::set<int64_t> referenced;
  Status status = Status::OK();
  auto emit_s = [&](int64_t p, const Row& s_payload) {
    if (!status.ok()) return;
    Row a = SPayloadWithoutFk(roles, s_payload);
    Value fk = FkOf(roles, s_payload);
    const Row* b = nullptr;
    if (!fk.is_null()) {
      auto it = t_rows.find(fk.AsInt());
      if (it != t_rows.end()) {
        b = &it->second;
        referenced.insert(fk.AsInt());
      }
    }
    if (b == nullptr && !roles.outer) return;  // inner join: unmatched hidden
    status = out->Upsert(p, Combine(roles, width, &a, b));
  };
  if (key) {
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> s_row,
                             ctx.backend->FindVersion(roles.s->id, *key));
    if (s_row) {
      emit_s(*key, *s_row);
      return status;
    }
    // An unreferenced right tuple keyed t (rule 149) — only visible if no
    // S row references it.
    auto it = t_rows.find(*key);
    if (it == t_rows.end() || !roles.outer) return Status::OK();
    bool is_referenced = false;
    INVERDA_RETURN_IF_ERROR(
        ctx.backend->ScanVersion(roles.s->id, [&](int64_t p, const Row& row) {
          (void)p;
          Value fk = FkOf(roles, row);
          if (!fk.is_null() && fk.AsInt() == *key) is_referenced = true;
        }));
    if (!is_referenced) {
      INVERDA_RETURN_IF_ERROR(
          out->Upsert(*key, Combine(roles, width, nullptr, &it->second)));
    }
    return Status::OK();
  }
  INVERDA_RETURN_IF_ERROR(ctx.backend->ScanVersion(roles.s->id, emit_s));
  INVERDA_RETURN_IF_ERROR(status);
  if (roles.outer) {
    for (const auto& [t, b] : t_rows) {
      if (referenced.count(t)) continue;
      INVERDA_RETURN_IF_ERROR(
          out->Upsert(t, Combine(roles, width, nullptr, &b)));
    }
  }
  return Status::OK();
}

Status FkKernel::DeriveAux(const SmoContext& ctx,
                           const std::string& aux_short_name,
                           Table* out) const {
  INVERDA_ASSIGN_OR_RETURN(VerticalRoles roles,
                           ResolveVertical(ctx, VerticalMethod::kFk));
  if (aux_short_name == "L_plus" || aux_short_name == "R_plus") {
    // Inner join only: the unmatched left tuples (NULL / dangling fk) and
    // the unreferenced right tuples, computed from the split side.
    INVERDA_ASSIGN_OR_RETURN(RowMap right_rows,
                             CollectVersion(ctx.backend, roles.t->id));
    std::set<int64_t> used;
    Status status = Status::OK();
    if (aux_short_name == "L_plus") {
      INVERDA_RETURN_IF_ERROR(ctx.backend->ScanVersion(
          roles.s->id, [&](int64_t p, const Row& row) {
            if (!status.ok()) return;
            Value fk = FkOf(roles, row);
            if (fk.is_null() || !right_rows.count(fk.AsInt())) {
              status = out->Upsert(p, row);
            }
          }));
      return status;
    }
    INVERDA_RETURN_IF_ERROR(ctx.backend->ScanVersion(
        roles.s->id, [&](int64_t p, const Row& row) {
          (void)p;
          Value fk = FkOf(roles, row);
          if (!fk.is_null()) used.insert(fk.AsInt());
        }));
    for (const auto& [t, row] : right_rows) {
      if (!used.count(t)) INVERDA_RETURN_IF_ERROR(out->Upsert(t, row));
    }
    return Status::OK();
  }
  if (aux_short_name != "IDR") {
    return Status::Internal("unknown aux " + aux_short_name);
  }
  // IDR(p, t) from the split side: every S row's fk, plus (t, t) for
  // unreferenced right tuples (rules 150-152). The memo learns the payload
  // of every referenced t, so later reads can tell a current entry from a
  // stale one (lone tuples keep their private id and need no memo).
  std::set<int64_t> referenced;
  Status status = Status::OK();
  INVERDA_RETURN_IF_ERROR(
      ctx.backend->ScanVersion(roles.s->id, [&](int64_t p, const Row& row) {
        if (!status.ok()) return;
        Value fk = FkOf(roles, row);
        if (!fk.is_null()) referenced.insert(fk.AsInt());
        status = out->Upsert(p, Row{std::move(fk)});
      }));
  INVERDA_RETURN_IF_ERROR(status);
  INVERDA_RETURN_IF_ERROR(
      ctx.backend->ScanVersion(roles.t->id, [&](int64_t t, const Row& row) {
        if (!status.ok()) return;
        if (referenced.count(t)) {
          ctx.memo->Seed("T", row, t);
        } else {
          status = out->Upsert(t, Row{Value::Int(t)});
        }
      }));
  return status;
}

namespace {

// Applies a single write op to a table version through the backend.
Status ApplyOne(const SmoContext& ctx, TvId tv, WriteOp op) {
  WriteSet ws;
  ws.Add(std::move(op));
  return ctx.backend->ApplyToVersion(tv, ws);
}

// Records an unreferenced right-hand tuple (t, b) on the combined physical
// side: as an ω-padded row for DECOMPOSE / OUTER JOIN (rule 149), or in the
// R+ aux table for an inner join.
Status KeepUnreferencedRight(const SmoContext& ctx, const VerticalRoles& roles,
                             Table* idr, int width, int64_t t, const Row& b) {
  if (AllNull(b)) return Status::OK();
  if (roles.outer) {
    // Idempotent: the ω-padded representation may already exist (e.g. two
    // referencing rows deleted one after another).
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> existing,
                             ctx.backend->FindVersion(roles.combined->id, t));
    if (!existing) {
      INVERDA_RETURN_IF_ERROR(ApplyOne(
          ctx, roles.combined->id,
          WriteOp::Insert(t, Combine(roles, width, nullptr, &b))));
    }
    return idr->Upsert(t, Row{Value::Int(t)});
  }
  INVERDA_ASSIGN_OR_RETURN(Table * r_plus, ctx.Aux("R_plus"));
  return r_plus->Upsert(t, b);
}

// Resolves the right-hand payload for a given fk on the combined physical
// side (including inner-join R+ content); nullopt for NULL / dangling fk.
Result<std::optional<Row>> ResolveRightPayload(const SmoContext& ctx,
                                               const VerticalRoles& roles,
                                               Table* idr, const Value& fk) {
  if (fk.is_null()) return std::optional<Row>();
  INVERDA_ASSIGN_OR_RETURN(
      std::optional<Row> payload,
      FindRightPayloadFromCombined(ctx, roles, idr, fk.AsInt()));
  if (!payload && !roles.outer) {
    INVERDA_ASSIGN_OR_RETURN(Table * r_plus, ctx.Aux("R_plus"));
    if (const Row* row = r_plus->Find(fk.AsInt())) payload = *row;
  }
  return payload;
}

// If `fk` points at a tuple currently represented as unreferenced (ω-row or
// R+ entry), removes that representation — the tuple is referenced now.
Status ConsumeUnreferencedRight(const SmoContext& ctx,
                                const VerticalRoles& roles, Table* idr,
                                const Value& fk) {
  if (fk.is_null()) return Status::OK();
  int64_t t = fk.AsInt();
  if (roles.outer) {
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> row,
                             ctx.backend->FindVersion(roles.combined->id, t));
    if (row && AllNull(APart(roles, *row))) {
      INVERDA_RETURN_IF_ERROR(
          ApplyOne(ctx, roles.combined->id, WriteOp::Delete(t)));
      idr->Erase(t);
    }
    return Status::OK();
  }
  INVERDA_ASSIGN_OR_RETURN(Table * r_plus, ctx.Aux("R_plus"));
  r_plus->Erase(t);
  return Status::OK();
}

// Write on the left/S table while the combined side holds the data.
Status PropagateLeftWrite(const SmoContext& ctx, const VerticalRoles& roles,
                          Table* idr, int width, const WriteOp& op) {
  // The currently visible S row for this key, if any.
  INVERDA_ASSIGN_OR_RETURN(std::optional<Row> combined,
                           ctx.backend->FindVersion(roles.combined->id, op.key));
  bool is_s_row = combined && !AllNull(APart(roles, *combined));
  Table* l_plus = nullptr;
  if (!roles.outer) {
    INVERDA_ASSIGN_OR_RETURN(l_plus, ctx.Aux("L_plus"));
  }
  bool in_l_plus = l_plus != nullptr && l_plus->Contains(op.key);

  switch (op.kind) {
    case WriteOp::Kind::kInsert: {
      if (is_s_row || in_l_plus || (combined && roles.outer)) {
        return Status::ConstraintViolation("duplicate key " +
                                           std::to_string(op.key) + " in " +
                                           roles.s->schema->name());
      }
      Row a = SPayloadWithoutFk(roles, op.row);
      Value fk = FkOf(roles, op.row);
      INVERDA_ASSIGN_OR_RETURN(std::optional<Row> b,
                               ResolveRightPayload(ctx, roles, idr, fk));
      if (!fk.is_null() && !b) {
        return Status::InvalidArgument(
            "dangling foreign key " + fk.ToString() + " in insert into " +
            roles.s->schema->name());
      }
      if (!roles.outer && !b) {
        // Inner join: an unmatched left tuple is invisible in the join
        // result and preserved in L+.
        return l_plus->Upsert(op.key, op.row);
      }
      INVERDA_RETURN_IF_ERROR(ConsumeUnreferencedRight(ctx, roles, idr, fk));
      INVERDA_RETURN_IF_ERROR(ApplyOne(
          ctx, roles.combined->id,
          WriteOp::Insert(op.key,
                          Combine(roles, width, &a, b ? &*b : nullptr))));
      if (b) ctx.memo->Seed("T", *b, fk.AsInt());
      return idr->Upsert(op.key, Row{std::move(fk)});
    }
    case WriteOp::Kind::kUpdate: {
      if (!is_s_row && !in_l_plus) return Status::OK();  // not visible: no-op
      Row a = SPayloadWithoutFk(roles, op.row);
      Value fk_new = FkOf(roles, op.row);
      Value fk_old = Value::Null();
      Row b_old = is_s_row ? BPart(roles, *combined) : Row{};
      if (is_s_row) {
        INVERDA_ASSIGN_OR_RETURN(
            fk_old, ResolveAssignedT(ctx, roles, idr, op.key,
                                     APart(roles, *combined), b_old));
      }
      INVERDA_ASSIGN_OR_RETURN(std::optional<Row> b_new,
                               ResolveRightPayload(ctx, roles, idr, fk_new));
      if (!fk_new.is_null() && !b_new) {
        return Status::InvalidArgument("dangling foreign key " +
                                       fk_new.ToString() + " in update of " +
                                       roles.s->schema->name());
      }
      if (!roles.outer && !b_new) {
        // The row becomes unmatched: move it to L+.
        if (is_s_row) {
          INVERDA_RETURN_IF_ERROR(
              ApplyOne(ctx, roles.combined->id, WriteOp::Delete(op.key)));
          idr->Erase(op.key);
        }
        INVERDA_RETURN_IF_ERROR(l_plus->Upsert(op.key, op.row));
      } else {
        INVERDA_RETURN_IF_ERROR(ConsumeUnreferencedRight(ctx, roles, idr,
                                                         fk_new));
        WriteOp out = is_s_row
                          ? WriteOp::Update(
                                op.key, Combine(roles, width, &a,
                                                b_new ? &*b_new : nullptr))
                          : WriteOp::Insert(
                                op.key, Combine(roles, width, &a,
                                                b_new ? &*b_new : nullptr));
        INVERDA_RETURN_IF_ERROR(ApplyOne(ctx, roles.combined->id, out));
        if (b_new) ctx.memo->Seed("T", *b_new, fk_new.AsInt());
        INVERDA_RETURN_IF_ERROR(idr->Upsert(op.key, Row{fk_new}));
        if (in_l_plus) l_plus->Erase(op.key);
      }
      // The old partner may have lost its last reference.
      if (!fk_old.is_null() &&
          !(fk_new == fk_old) &&
          !IsReferenced(ctx, roles, idr, fk_old.AsInt(), op.key)) {
        INVERDA_RETURN_IF_ERROR(KeepUnreferencedRight(
            ctx, roles, idr, width, fk_old.AsInt(), b_old));
      }
      return Status::OK();
    }
    case WriteOp::Kind::kDelete: {
      if (in_l_plus) {
        l_plus->Erase(op.key);
        return Status::OK();
      }
      if (!is_s_row) return Status::OK();
      Row b_old = BPart(roles, *combined);
      INVERDA_ASSIGN_OR_RETURN(
          Value fk_old, ResolveAssignedT(ctx, roles, idr, op.key,
                                         APart(roles, *combined), b_old));
      INVERDA_RETURN_IF_ERROR(
          ApplyOne(ctx, roles.combined->id, WriteOp::Delete(op.key)));
      idr->Erase(op.key);
      if (!fk_old.is_null() && !IsReferenced(ctx, roles, idr, fk_old.AsInt(), op.key)) {
        INVERDA_RETURN_IF_ERROR(KeepUnreferencedRight(
            ctx, roles, idr, width, fk_old.AsInt(), b_old));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable write kind");
}

// Write on the right/T table while the combined side holds the data.
Status PropagateRightWrite(const SmoContext& ctx, const VerticalRoles& roles,
                           Table* idr, int width, const WriteOp& op) {
  // Make sure every combined row has its id assigned so the IDR lookups see
  // the complete reference relation (the one O(n) step left on this path).
  INVERDA_RETURN_IF_ERROR(WarmAssignments(ctx, roles, idr));
  INVERDA_ASSIGN_OR_RETURN(
      std::optional<Row> existing,
      ResolveRightPayload(ctx, roles, idr, Value::Int(op.key)));
  switch (op.kind) {
    case WriteOp::Kind::kInsert: {
      if (existing) {
        return Status::ConstraintViolation("duplicate key " +
                                           std::to_string(op.key) + " in " +
                                           roles.t->schema->name());
      }
      return KeepUnreferencedRight(ctx, roles, idr, width, op.key, op.row);
    }
    case WriteOp::Kind::kUpdate: {
      if (!existing) return Status::OK();
      // Update every combined row referencing this tuple.
      for (int64_t p : Referrers(*idr, op.key)) {
        INVERDA_ASSIGN_OR_RETURN(std::optional<Row> row,
                                 ctx.backend->FindVersion(roles.combined->id, p));
        if (!row) continue;
        Row a = APart(roles, *row);
        const Row* a_ptr = AllNull(a) ? nullptr : &a;
        INVERDA_RETURN_IF_ERROR(ApplyOne(
            ctx, roles.combined->id,
            WriteOp::Update(p, Combine(roles, width, a_ptr, &op.row))));
      }
      // The id keeps its identity under the new payload.
      ctx.memo->Seed("T", op.row, op.key);
      if (!roles.outer) {
        INVERDA_ASSIGN_OR_RETURN(Table * r_plus, ctx.Aux("R_plus"));
        if (r_plus->Contains(op.key)) {
          INVERDA_RETURN_IF_ERROR(r_plus->Upsert(op.key, op.row));
        }
      }
      return Status::OK();
    }
    case WriteOp::Kind::kDelete: {
      if (!existing) return Status::OK();
      for (int64_t p : Referrers(*idr, op.key)) {
        if (p == op.key) continue;
        INVERDA_ASSIGN_OR_RETURN(std::optional<Row> row,
                                 ctx.backend->FindVersion(roles.combined->id, p));
        if (!row) continue;
        Row a = APart(roles, *row);
        if (roles.outer) {
          // The referencing rows lose their partner: B part becomes ω.
          INVERDA_RETURN_IF_ERROR(ApplyOne(
              ctx, roles.combined->id,
              WriteOp::Update(p, Combine(roles, width, &a, nullptr))));
          INVERDA_RETURN_IF_ERROR(idr->Upsert(p, Row{Value::Null()}));
        } else {
          // Inner join: the rows become unmatched left tuples in L+.
          INVERDA_ASSIGN_OR_RETURN(Table * l_plus, ctx.Aux("L_plus"));
          INVERDA_RETURN_IF_ERROR(
              l_plus->Upsert(p, MakeSPayload(roles, a, Value::Null())));
          INVERDA_RETURN_IF_ERROR(
              ApplyOne(ctx, roles.combined->id, WriteOp::Delete(p)));
          idr->Erase(p);
        }
      }
      // Remove the unreferenced representation, if any.
      if (roles.outer) {
        INVERDA_ASSIGN_OR_RETURN(
            std::optional<Row> lone,
            ctx.backend->FindVersion(roles.combined->id, op.key));
        if (lone && AllNull(APart(roles, *lone))) {
          INVERDA_RETURN_IF_ERROR(
              ApplyOne(ctx, roles.combined->id, WriteOp::Delete(op.key)));
          idr->Erase(op.key);
        }
      } else {
        INVERDA_ASSIGN_OR_RETURN(Table * r_plus, ctx.Aux("R_plus"));
        r_plus->Erase(op.key);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable write kind");
}

// True if any S row other than `except` references t (split side physical).
Result<bool> IsReferencedOnSplit(const SmoContext& ctx,
                                 const VerticalRoles& roles, int64_t t,
                                 std::optional<int64_t> except) {
  bool referenced = false;
  INVERDA_RETURN_IF_ERROR(
      ctx.backend->ScanVersion(roles.s->id, [&](int64_t p, const Row& row) {
        if (referenced) return;
        if (except && p == *except) return;
        Value fk = FkOf(roles, row);
        if (!fk.is_null() && fk.AsInt() == t) referenced = true;
      }));
  return referenced;
}

// Write on the combined table while S and T hold the data.
Status PropagateCombinedWrite(const SmoContext& ctx,
                              const VerticalRoles& roles, int width,
                              const WriteOp& op) {
  (void)width;
  INVERDA_ASSIGN_OR_RETURN(std::optional<Row> old_s,
                           ctx.backend->FindVersion(roles.s->id, op.key));
  INVERDA_ASSIGN_OR_RETURN(std::optional<Row> old_t,
                           ctx.backend->FindVersion(roles.t->id, op.key));

  // Resolves or creates the right-hand tuple for payload b; returns its id
  // or NULL for an all-ω payload.
  auto resolve_t = [&](const Row& b) -> Result<Value> {
    if (AllNull(b)) return Value::Null();
    INVERDA_ASSIGN_OR_RETURN(std::optional<int64_t> existing,
                             FindRightByPayload(ctx, roles, b));
    if (existing) return Value::Int(*existing);
    int64_t t = ctx.seq().Next();
    INVERDA_RETURN_IF_ERROR(
        ApplyOne(ctx, roles.t->id, WriteOp::Insert(t, b)));
    ctx.memo->Seed("T", b, t);
    return Value::Int(t);
  };

  // Deletes the right-hand tuple t if it just lost its last reference
  // (outer semantics; inner joins keep it as invisible information).
  auto drop_if_orphaned = [&](const Value& t,
                              std::optional<int64_t> except) -> Status {
    if (t.is_null() || !roles.outer) return Status::OK();
    INVERDA_ASSIGN_OR_RETURN(
        bool referenced, IsReferencedOnSplit(ctx, roles, t.AsInt(), except));
    if (referenced) return Status::OK();
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> row,
                             ctx.backend->FindVersion(roles.t->id, t.AsInt()));
    if (row) {
      ctx.memo->Forget("T", *row);
      INVERDA_RETURN_IF_ERROR(
          ApplyOne(ctx, roles.t->id, WriteOp::Delete(t.AsInt())));
    }
    return Status::OK();
  };

  switch (op.kind) {
    case WriteOp::Kind::kInsert: {
      if (old_s || old_t) {
        return Status::ConstraintViolation("duplicate key " +
                                           std::to_string(op.key) + " in " +
                                           roles.combined->schema->name());
      }
      Row a = APart(roles, op.row);
      Row b = BPart(roles, op.row);
      if (AllNull(a) && AllNull(b)) {
        return Status::InvalidArgument(
            "cannot insert an all-NULL tuple through " + ctx.smo->ToString());
      }
      if (AllNull(a)) {
        // A lone right-hand tuple (rule 149 in reverse).
        INVERDA_RETURN_IF_ERROR(
            ApplyOne(ctx, roles.t->id, WriteOp::Insert(op.key, b)));
        ctx.memo->Seed("T", b, op.key);
        return Status::OK();
      }
      INVERDA_ASSIGN_OR_RETURN(Value fk, resolve_t(b));
      return ApplyOne(ctx, roles.s->id,
                      WriteOp::Insert(op.key, MakeSPayload(roles, a, fk)));
    }
    case WriteOp::Kind::kUpdate: {
      Row a = APart(roles, op.row);
      Row b = BPart(roles, op.row);
      if (old_s) {
        Value fk_old = FkOf(roles, *old_s);
        if (AllNull(a)) {
          // The row degenerates into a lone right-hand tuple.
          INVERDA_RETURN_IF_ERROR(
              ApplyOne(ctx, roles.s->id, WriteOp::Delete(op.key)));
          INVERDA_RETURN_IF_ERROR(drop_if_orphaned(fk_old, op.key));
          if (!AllNull(b)) {
            INVERDA_RETURN_IF_ERROR(
                ApplyOne(ctx, roles.t->id, WriteOp::Insert(op.key, b)));
          }
          return Status::OK();
        }
        INVERDA_ASSIGN_OR_RETURN(Value fk_new, resolve_t(b));
        INVERDA_RETURN_IF_ERROR(ApplyOne(
            ctx, roles.s->id,
            WriteOp::Update(op.key, MakeSPayload(roles, a, fk_new))));
        if (!(fk_old == fk_new)) {
          INVERDA_RETURN_IF_ERROR(drop_if_orphaned(fk_old, op.key));
        }
        return Status::OK();
      }
      if (old_t) {
        // Updating a lone right-hand tuple.
        if (!AllNull(b)) {
          ctx.memo->Forget("T", *old_t);
          INVERDA_RETURN_IF_ERROR(
              ApplyOne(ctx, roles.t->id, WriteOp::Update(op.key, b)));
          ctx.memo->Seed("T", b, op.key);
        } else {
          ctx.memo->Forget("T", *old_t);
          INVERDA_RETURN_IF_ERROR(
              ApplyOne(ctx, roles.t->id, WriteOp::Delete(op.key)));
        }
        if (!AllNull(a)) {
          // The tuple gains a left part and becomes a regular row.
          INVERDA_RETURN_IF_ERROR(ApplyOne(
              ctx, roles.s->id,
              WriteOp::Insert(op.key,
                              MakeSPayload(roles, a,
                                           AllNull(b) ? Value::Null()
                                                      : Value::Int(op.key)))));
        }
        return Status::OK();
      }
      return Status::OK();  // row not visible: no-op
    }
    case WriteOp::Kind::kDelete: {
      if (old_s) {
        Value fk_old = FkOf(roles, *old_s);
        INVERDA_RETURN_IF_ERROR(
            ApplyOne(ctx, roles.s->id, WriteOp::Delete(op.key)));
        return drop_if_orphaned(fk_old, op.key);
      }
      if (old_t) {
        INVERDA_ASSIGN_OR_RETURN(
            bool referenced, IsReferencedOnSplit(ctx, roles, op.key,
                                                 std::nullopt));
        if (!referenced) {
          ctx.memo->Forget("T", *old_t);
          return ApplyOne(ctx, roles.t->id, WriteOp::Delete(op.key));
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable write kind");
}

}  // namespace

Status FkKernel::Propagate(const SmoContext& ctx, SmoSide side, int which,
                           const WriteSet& writes) const {
  INVERDA_ASSIGN_OR_RETURN(VerticalRoles roles,
                           ResolveVertical(ctx, VerticalMethod::kFk));
  int width = roles.combined->schema->num_columns();

  if (side != roles.combined_side) {
    // Writes on S (which == 0) or T (which == 1); combined side physical.
    INVERDA_ASSIGN_OR_RETURN(Table * idr, ctx.Aux("IDR"));
    bool on_s = (which == 0);
    for (const WriteOp& op : writes.ops) {
      if (on_s) {
        INVERDA_RETURN_IF_ERROR(
            PropagateLeftWrite(ctx, roles, idr, width, op));
      } else {
        INVERDA_RETURN_IF_ERROR(
            PropagateRightWrite(ctx, roles, idr, width, op));
      }
    }
    return Status::OK();
  }

  // Writes on the combined table; S and T physical.
  for (const WriteOp& op : writes.ops) {
    INVERDA_RETURN_IF_ERROR(PropagateCombinedWrite(ctx, roles, width, op));
  }
  return Status::OK();
}

}  // namespace inverda
