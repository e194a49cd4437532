#ifndef INVERDA_MAPPING_KERNELS_H_
#define INVERDA_MAPPING_KERNELS_H_

#include "mapping/side.h"

namespace inverda {

/// RENAME TABLE / RENAME COLUMN: identity on payloads (positions are
/// preserved; only names differ between the sides).
class IdentityKernel : public Kernel {
 public:
  const char* name() const override { return "identity"; }
  bool ProjectionOnly() const override { return true; }
  Status Derive(const SmoContext& ctx, SmoSide side, int which,
                std::optional<int64_t> key, Table* out) const override;
  Status DeriveReadBatch(const SmoContext& ctx, SmoSide side, int which,
                         RowBatch* out) const override;
  Status Propagate(const SmoContext& ctx, SmoSide side, int which,
                   const WriteSet& writes) const override;
};

/// ADD COLUMN / DROP COLUMN (B.1). One side ("wide") carries the extra
/// column b, the other ("narrow") does not. The auxiliary table B(p, b)
/// lives on the narrow side and keeps b-values written through the wide
/// side while the narrow side holds the data.
class ColumnKernel : public Kernel {
 public:
  const char* name() const override { return "column"; }
  bool ProjectionOnly() const override { return true; }
  Status Derive(const SmoContext& ctx, SmoSide side, int which,
                std::optional<int64_t> key, Table* out) const override;
  Status DeriveReadBatch(const SmoContext& ctx, SmoSide side, int which,
                         RowBatch* out) const override;
  Status DeriveAux(const SmoContext& ctx, const std::string& aux_short_name,
                   Table* out) const override;
  Status Propagate(const SmoContext& ctx, SmoSide side, int which,
                   const WriteSet& writes) const override;
};

/// SPLIT / MERGE (Section 4). One side ("union") holds the unified table T,
/// the other ("partition") holds R and optionally S selected by conditions
/// cR / cS. Auxiliary tables on the union side track divergence of twins
/// (R-, S-, S+, R*, S*); T' on the partition side keeps tuples matching
/// neither condition.
class PartitionKernel : public Kernel {
 public:
  const char* name() const override { return "partition"; }
  Status Derive(const SmoContext& ctx, SmoSide side, int which,
                std::optional<int64_t> key, Table* out) const override;
  Status DeriveReadBatch(const SmoContext& ctx, SmoSide side, int which,
                         RowBatch* out) const override;
  Status DeriveAux(const SmoContext& ctx, const std::string& aux_short_name,
                   Table* out) const override;
  Status Propagate(const SmoContext& ctx, SmoSide side, int which,
                   const WriteSet& writes) const override;
};

/// DECOMPOSE ON PK / OUTER JOIN ON PK (B.2): the combined table R(p, A, B)
/// versus S(p, A), T(p, B) sharing the key. No auxiliary tables; missing
/// partners are padded with ω (NULL).
class VerticalPkKernel : public Kernel {
 public:
  const char* name() const override { return "vertical-pk"; }
  Status Derive(const SmoContext& ctx, SmoSide side, int which,
                std::optional<int64_t> key, Table* out) const override;
  Status DeriveReadBatch(const SmoContext& ctx, SmoSide side, int which,
                         RowBatch* out) const override;
  Status Propagate(const SmoContext& ctx, SmoSide side, int which,
                   const WriteSet& writes) const override;
};

/// Inner JOIN ON PK (B.5): like VerticalPkKernel but unmatched tuples are
/// invisible in the join result and preserved in the target-side aux tables
/// L+ / R+.
class JoinPkKernel : public Kernel {
 public:
  const char* name() const override { return "join-pk"; }
  Status Derive(const SmoContext& ctx, SmoSide side, int which,
                std::optional<int64_t> key, Table* out) const override;
  Status DeriveReadBatch(const SmoContext& ctx, SmoSide side, int which,
                         RowBatch* out) const override;
  Status DeriveAux(const SmoContext& ctx, const std::string& aux_short_name,
                   Table* out) const override;
  Status Propagate(const SmoContext& ctx, SmoSide side, int which,
                   const WriteSet& writes) const override;
};

/// DECOMPOSE ON FK / [OUTER] JOIN ON FK (B.3): the combined table
/// R(p, A, B) versus S(p, A, fk) and a deduplicated T(t, B). Fresh t ids
/// are drawn from the global sequence and memoized per payload; IDR(p, t)
/// keeps the assignment while the combined side holds the data, indexed on
/// t so left-hand writes look up a tuple's referrers instead of scanning.
class FkKernel : public Kernel {
 public:
  const char* name() const override { return "fk"; }
  // Derive assigns fresh t ids (IDR upserts, memo seeds, sequence draws).
  bool DeriveMutates() const override { return true; }
  Status Derive(const SmoContext& ctx, SmoSide side, int which,
                std::optional<int64_t> key, Table* out) const override;
  Status DeriveAux(const SmoContext& ctx, const std::string& aux_short_name,
                   Table* out) const override;
  Status Propagate(const SmoContext& ctx, SmoSide side, int which,
                   const WriteSet& writes) const override;
};

/// DECOMPOSE ON condition / [OUTER] JOIN ON condition (B.4/B.6): S(s, A)
/// and T(t, B) related by an arbitrary condition c(A, B) versus the joined
/// R(r, A, B). ID(r, s, t) keeps the generated ids of visible combinations
/// on both sides; R-(s, t) suppresses combinations deleted in the combined
/// version.
class CondKernel : public Kernel {
 public:
  const char* name() const override { return "cond"; }
  // Derive records fresh combination ids (ID upserts, memo, sequence).
  bool DeriveMutates() const override { return true; }
  Status Derive(const SmoContext& ctx, SmoSide side, int which,
                std::optional<int64_t> key, Table* out) const override;
  Status DeriveAux(const SmoContext& ctx, const std::string& aux_short_name,
                   Table* out) const override;
  Status Propagate(const SmoContext& ctx, SmoSide side, int which,
                   const WriteSet& writes) const override;
};

/// The payload function that computes column b when a widening column
/// hop finds no stored aux value, resolved once against the narrow schema
/// it evaluates on: a literal is copied as is, anything else reads only
/// the narrow positions in `reads`.
struct WidenFn {
  const Expression* fn = nullptr;
  const TableSchema* narrow_schema = nullptr;  // schema `fn` evaluates on
  const Value* literal = nullptr;  // fn->AsLiteral(): copy, never Eval
  // Narrow positions of the columns `fn` names. A name the schema lacks
  // is left out, so Eval still reports it as NotFound.
  std::vector<int> reads;
};

/// Resolves `fn` (evaluated on `narrow_schema`) for BuildWidenColumn.
WidenFn ResolveWidenFn(const Expression* fn, const TableSchema* narrow_schema);

/// The widen rule for one row, shared by BuildWidenColumn and the fused
/// point read: the value stored in `aux` under `key` (an empty `aux` is
/// never probed), else the literal payload, else the payload function
/// evaluated on `*narrow` once `cell(i)` has filled its narrow position
/// `payload.reads[i]`. `*narrow` is sized to the narrow width on first
/// use and only those positions are written, so the caller may reuse one
/// buffer across rows.
template <typename CellFn>
Status WidenValue(const Table& aux, int64_t key, const WidenFn& payload,
                  const CellFn& cell, Row* narrow, Value* out) {
  if (!aux.empty()) {
    if (const Row* stored = aux.Find(key)) {
      *out = (*stored)[0];
      return Status::OK();
    }
  }
  if (payload.literal != nullptr) {
    *out = *payload.literal;
    return Status::OK();
  }
  narrow->resize(static_cast<size_t>(payload.narrow_schema->num_columns()));
  for (size_t i = 0; i < payload.reads.size(); ++i) {
    (*narrow)[static_cast<size_t>(payload.reads[i])] = cell(i);
  }
  INVERDA_ASSIGN_OR_RETURN(*out,
                           payload.fn->Eval(*payload.narrow_schema, *narrow));
  return Status::OK();
}

/// Builds column b of a widening hop for every selected row of `batch`
/// (which supplies the keys and the selection): the value stored in `aux`
/// under the row's key, else the payload function. `cells[i]` is the
/// column holding narrow position `payload.reads[i]`, so the narrow
/// payload never has to exist as a batch. Column-wise: a literal is
/// copied, any other function is evaluated on one reused narrow-width
/// buffer that receives only the cells it reads; an empty `aux` is never
/// probed. Rows are visited in batch order, so the first failing row's
/// Status is the one returned. Deselected rows get NULL. Both the column
/// kernel and the fused column layout widen here.
Result<std::vector<Value>> BuildWidenColumn(
    const RowBatch& batch, const std::vector<const std::vector<Value>*>& cells,
    const Table& aux, const WidenFn& payload);

/// Resolved projection geometry of one ADD/DROP COLUMN plan hop, exported
/// for the plan fusion pass (plan::BuildColumnLayout): whether deriving
/// the planned side widens or narrows the payload, where column b sits in
/// the wide payload, and how to obtain b when widening (stored aux value
/// by key, else the SMO's payload function).
struct ColumnHopInfo {
  bool widen = false;   // deriving the planned side inserts column b
  int b_index = 0;      // position of b in the wide payload
  std::string aux_b;    // physical B table name (widen only)
  WidenFn payload;      // fallback b computation (widen only)
};

/// Resolves the projection geometry of a column-mapping step that derives
/// side `side`. Fails for non-column SMOs or (when widening) when the B aux
/// table is not physical in the current materialization.
Result<ColumnHopInfo> ResolveColumnHop(const SmoContext& ctx, SmoSide side);

}  // namespace inverda

#endif  // INVERDA_MAPPING_KERNELS_H_
