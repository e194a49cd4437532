#ifndef INVERDA_BIDEL_SMO_H_
#define INVERDA_BIDEL_SMO_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expr/expression.h"
#include "schema/schema.h"
#include "util/status.h"

namespace inverda {

/// The Schema Modification Operations of BiDEL (Figure 2 of the paper).
enum class SmoKind {
  kCreateTable,
  kDropTable,
  kRenameTable,
  kRenameColumn,
  kAddColumn,
  kDropColumn,
  kDecompose,  ///< vertical: DECOMPOSE TABLE R INTO S(..), T(..) ON PK|FK|cond
  kJoin,       ///< vertical inverse: [OUTER] JOIN TABLE R, S INTO T ON ...
  kSplit,      ///< horizontal: SPLIT TABLE T INTO R WITH cR [, S WITH cS]
  kMerge,      ///< horizontal inverse: MERGE TABLE R (cR), S (cS) INTO T
};

const char* SmoKindName(SmoKind kind);

/// How a vertical DECOMPOSE/JOIN matches tuples (Table 5 of the paper).
enum class VerticalMethod {
  kPk,         ///< ON PK — both sides keep the key p
  kFk,         ///< ON FK fk — target T deduplicated, S carries fk column
  kCondition,  ///< ON c(A,B) — arbitrary join condition, generated ids
};

/// Which side of an SMO instance. Data flows source -> target in the
/// schema genealogy; materialization picks the physical side.
enum class SmoSide { kSource, kTarget };

/// Definition of an auxiliary table of an SMO. The schema here contains the
/// *payload* columns; like every relation, aux tables are keyed by p (for
/// key-only aux tables like R-(p) the payload is empty). `side` states on
/// which side of the SMO the aux lives (it is physically present when that
/// side is the materialized one); `both_sides` marks aux tables that are
/// physically kept regardless of the materialization (the id tables of
/// identifier-generating SMOs).
struct AuxDef {
  std::string short_name;
  std::vector<Column> payload;
  SmoSide side = SmoSide::kSource;
  bool both_sides = false;
  /// Payload column the physical table indexes (value -> keys), or -1.
  int indexed_column = -1;

  /// The schema of this aux table's physical table `physical_name`,
  /// including its declared index.
  TableSchema PhysicalSchema(std::string physical_name) const {
    TableSchema schema(std::move(physical_name), payload);
    schema.set_indexed_column(indexed_column);
    return schema;
  }
};

/// Abstract base of all SMOs. An Smo value is a pure description: the
/// parameters the developer wrote in BiDEL. It can derive the target-side
/// table schemas from the source-side ones and enumerate its auxiliary
/// tables. Execution semantics live in the mapping kernels (src/mapping),
/// the declarative gamma rule sets in bidel/rules.h.
class Smo {
 public:
  virtual ~Smo() = default;

  virtual SmoKind kind() const = 0;

  /// Names of the affected tables in the *source* schema version.
  virtual std::vector<std::string> SourceTables() const = 0;

  /// Names of the produced tables in the *target* schema version.
  virtual std::vector<std::string> TargetTables() const = 0;

  /// Computes the schemas of the target tables given the resolved schemas of
  /// the source tables (same order as SourceTables()).
  virtual Result<std::vector<TableSchema>> DeriveTargetSchemas(
      const std::vector<TableSchema>& sources) const = 0;

  /// Auxiliary tables, given the resolved source schemas.
  virtual std::vector<AuxDef> AuxTables(
      const std::vector<TableSchema>& sources) const {
    (void)sources;
    return {};
  }

  /// The BiDEL statement text (round-trips through the parser).
  virtual std::string ToString() const = 0;
};

using SmoPtr = std::shared_ptr<const Smo>;

// ---------------------------------------------------------------------------
// Catalog-only SMOs (no data mapping): CREATE/DROP/RENAME TABLE, RENAME
// COLUMN. RENAME SMOs carry an identity mapping with renaming.
// ---------------------------------------------------------------------------

/// CREATE TABLE R(c1, ..., cn)
class CreateTableSmo : public Smo {
 public:
  explicit CreateTableSmo(TableSchema schema) : schema_(std::move(schema)) {}

  SmoKind kind() const override { return SmoKind::kCreateTable; }
  std::vector<std::string> SourceTables() const override { return {}; }
  std::vector<std::string> TargetTables() const override {
    return {schema_.name()};
  }
  Result<std::vector<TableSchema>> DeriveTargetSchemas(
      const std::vector<TableSchema>&) const override {
    return std::vector<TableSchema>{schema_};
  }
  std::string ToString() const override;

  const TableSchema& schema() const { return schema_; }

 private:
  TableSchema schema_;
};

/// DROP TABLE R
class DropTableSmo : public Smo {
 public:
  explicit DropTableSmo(std::string table) : table_(std::move(table)) {}

  SmoKind kind() const override { return SmoKind::kDropTable; }
  std::vector<std::string> SourceTables() const override { return {table_}; }
  std::vector<std::string> TargetTables() const override { return {}; }
  Result<std::vector<TableSchema>> DeriveTargetSchemas(
      const std::vector<TableSchema>&) const override {
    return std::vector<TableSchema>{};
  }
  std::string ToString() const override;

  const std::string& table() const { return table_; }

 private:
  std::string table_;
};

/// RENAME TABLE R INTO R'
class RenameTableSmo : public Smo {
 public:
  RenameTableSmo(std::string from, std::string to)
      : from_(std::move(from)), to_(std::move(to)) {}

  SmoKind kind() const override { return SmoKind::kRenameTable; }
  std::vector<std::string> SourceTables() const override { return {from_}; }
  std::vector<std::string> TargetTables() const override { return {to_}; }
  Result<std::vector<TableSchema>> DeriveTargetSchemas(
      const std::vector<TableSchema>& sources) const override;
  std::string ToString() const override;

  const std::string& from() const { return from_; }
  const std::string& to() const { return to_; }

 private:
  std::string from_;
  std::string to_;
};

/// RENAME COLUMN r IN R TO r'
class RenameColumnSmo : public Smo {
 public:
  RenameColumnSmo(std::string table, std::string from, std::string to)
      : table_(std::move(table)), from_(std::move(from)), to_(std::move(to)) {}

  SmoKind kind() const override { return SmoKind::kRenameColumn; }
  std::vector<std::string> SourceTables() const override { return {table_}; }
  std::vector<std::string> TargetTables() const override { return {table_}; }
  Result<std::vector<TableSchema>> DeriveTargetSchemas(
      const std::vector<TableSchema>& sources) const override;
  std::string ToString() const override;

  const std::string& table() const { return table_; }
  const std::string& from() const { return from_; }
  const std::string& to() const { return to_; }

 private:
  std::string table_;
  std::string from_;
  std::string to_;
};

// ---------------------------------------------------------------------------
// Column SMOs: ADD COLUMN / DROP COLUMN (inverses of each other, B.1).
// ---------------------------------------------------------------------------

/// ADD COLUMN b [type] AS f(r1,...,rn) INTO R
///
/// The value function f computes b for tuples that flow from the source
/// side to the target side. The auxiliary table B(p, b) stores explicit
/// b-values written through the target version while the SMO is virtualized.
class AddColumnSmo : public Smo {
 public:
  AddColumnSmo(std::string table, std::string column,
               std::optional<DataType> type, ExprPtr fn)
      : table_(std::move(table)),
        column_(std::move(column)),
        declared_type_(type),
        fn_(std::move(fn)) {}

  SmoKind kind() const override { return SmoKind::kAddColumn; }
  std::vector<std::string> SourceTables() const override { return {table_}; }
  std::vector<std::string> TargetTables() const override { return {table_}; }
  Result<std::vector<TableSchema>> DeriveTargetSchemas(
      const std::vector<TableSchema>& sources) const override;
  std::vector<AuxDef> AuxTables(
      const std::vector<TableSchema>& sources) const override;
  std::string ToString() const override;

  const std::string& table() const { return table_; }
  const std::string& column() const { return column_; }
  const ExprPtr& fn() const { return fn_; }
  DataType ColumnType(const TableSchema& source) const;

 private:
  std::string table_;
  std::string column_;
  std::optional<DataType> declared_type_;
  ExprPtr fn_;
};

/// DROP COLUMN r FROM R DEFAULT f(r1,...,rn)
///
/// Inverse of ADD COLUMN: f computes the dropped column's value for tuples
/// written through the *target* version; the auxiliary table B(p, b) keeps
/// the surviving b-values when the SMO is materialized.
class DropColumnSmo : public Smo {
 public:
  DropColumnSmo(std::string table, std::string column, ExprPtr default_fn)
      : table_(std::move(table)),
        column_(std::move(column)),
        default_fn_(std::move(default_fn)) {}

  SmoKind kind() const override { return SmoKind::kDropColumn; }
  std::vector<std::string> SourceTables() const override { return {table_}; }
  std::vector<std::string> TargetTables() const override { return {table_}; }
  Result<std::vector<TableSchema>> DeriveTargetSchemas(
      const std::vector<TableSchema>& sources) const override;
  std::vector<AuxDef> AuxTables(
      const std::vector<TableSchema>& sources) const override;
  std::string ToString() const override;

  const std::string& table() const { return table_; }
  const std::string& column() const { return column_; }
  const ExprPtr& default_fn() const { return default_fn_; }

 private:
  std::string table_;
  std::string column_;
  ExprPtr default_fn_;
};

// ---------------------------------------------------------------------------
// Horizontal SMOs: SPLIT / MERGE (Section 4 of the paper).
// ---------------------------------------------------------------------------

/// SPLIT TABLE T INTO R WITH cR [, S WITH cS]
///
/// Horizontally splits T into R (tuples matching cR) and optionally S
/// (tuples matching cS). Source-side aux: R-(p), R*(p), S+(p, A), S-(p),
/// S*(p); target-side aux: T'(p, A) for tuples matching neither condition.
class SplitSmo : public Smo {
 public:
  SplitSmo(std::string table, std::string r_name, ExprPtr r_cond,
           std::optional<std::string> s_name, ExprPtr s_cond)
      : table_(std::move(table)),
        r_name_(std::move(r_name)),
        r_cond_(std::move(r_cond)),
        s_name_(std::move(s_name)),
        s_cond_(std::move(s_cond)) {}

  SmoKind kind() const override { return SmoKind::kSplit; }
  std::vector<std::string> SourceTables() const override { return {table_}; }
  std::vector<std::string> TargetTables() const override;
  Result<std::vector<TableSchema>> DeriveTargetSchemas(
      const std::vector<TableSchema>& sources) const override;
  std::vector<AuxDef> AuxTables(
      const std::vector<TableSchema>& sources) const override;
  std::string ToString() const override;

  const std::string& table() const { return table_; }
  const std::string& r_name() const { return r_name_; }
  const ExprPtr& r_cond() const { return r_cond_; }
  bool has_s() const { return s_name_.has_value(); }
  const std::string& s_name() const { return *s_name_; }
  const ExprPtr& s_cond() const { return s_cond_; }

 private:
  std::string table_;
  std::string r_name_;
  ExprPtr r_cond_;
  std::optional<std::string> s_name_;
  ExprPtr s_cond_;  // null iff !has_s()
};

/// MERGE TABLE R (cR), S (cS) INTO T
///
/// Inverse of SPLIT: the union of R and S becomes T; cR/cS document which
/// partition a tuple belongs to when data flows back. Source-side aux:
/// T'(p, A) is not needed (every tuple belongs to T); target-side aux
/// mirror the SPLIT source aux: R-(p), R*(p), S+(p, A), S-(p), S*(p).
class MergeSmo : public Smo {
 public:
  MergeSmo(std::string r_name, ExprPtr r_cond, std::string s_name,
           ExprPtr s_cond, std::string target)
      : r_name_(std::move(r_name)),
        r_cond_(std::move(r_cond)),
        s_name_(std::move(s_name)),
        s_cond_(std::move(s_cond)),
        target_(std::move(target)) {}

  SmoKind kind() const override { return SmoKind::kMerge; }
  std::vector<std::string> SourceTables() const override {
    return {r_name_, s_name_};
  }
  std::vector<std::string> TargetTables() const override { return {target_}; }
  Result<std::vector<TableSchema>> DeriveTargetSchemas(
      const std::vector<TableSchema>& sources) const override;
  std::vector<AuxDef> AuxTables(
      const std::vector<TableSchema>& sources) const override;
  std::string ToString() const override;

  const std::string& r_name() const { return r_name_; }
  const ExprPtr& r_cond() const { return r_cond_; }
  const std::string& s_name() const { return s_name_; }
  const ExprPtr& s_cond() const { return s_cond_; }
  const std::string& target() const { return target_; }

 private:
  std::string r_name_;
  ExprPtr r_cond_;
  std::string s_name_;
  ExprPtr s_cond_;
  std::string target_;
};

// ---------------------------------------------------------------------------
// Vertical SMOs: DECOMPOSE / JOIN (Appendix B.2-B.6 of the paper).
// ---------------------------------------------------------------------------

/// DECOMPOSE TABLE R INTO S(s1,...,sn) [, T(t1,...,tm)] ON PK | FK fk | cond
///
/// Vertically decomposes R. The named column lists must partition R's
/// columns. ON PK keeps the key p on both outputs; ON FK deduplicates the
/// T part and adds a generated foreign key column `fk` to S; ON cond drops
/// the association and keeps an id table to make the round trip stable.
/// If T is omitted the decomposition is a plain projection (the dropped
/// columns come back as ω when data flows backwards).
class DecomposeSmo : public Smo {
 public:
  DecomposeSmo(std::string table, std::string s_name,
               std::vector<std::string> s_columns,
               std::optional<std::string> t_name,
               std::vector<std::string> t_columns, VerticalMethod method,
               std::string fk_column, ExprPtr condition)
      : table_(std::move(table)),
        s_name_(std::move(s_name)),
        s_columns_(std::move(s_columns)),
        t_name_(std::move(t_name)),
        t_columns_(std::move(t_columns)),
        method_(method),
        fk_column_(std::move(fk_column)),
        condition_(std::move(condition)) {}

  SmoKind kind() const override { return SmoKind::kDecompose; }
  std::vector<std::string> SourceTables() const override { return {table_}; }
  std::vector<std::string> TargetTables() const override;
  Result<std::vector<TableSchema>> DeriveTargetSchemas(
      const std::vector<TableSchema>& sources) const override;
  std::vector<AuxDef> AuxTables(
      const std::vector<TableSchema>& sources) const override;
  std::string ToString() const override;

  const std::string& table() const { return table_; }
  const std::string& s_name() const { return s_name_; }
  const std::vector<std::string>& s_columns() const { return s_columns_; }
  bool has_t() const { return t_name_.has_value(); }
  const std::string& t_name() const { return *t_name_; }
  const std::vector<std::string>& t_columns() const { return t_columns_; }
  VerticalMethod method() const { return method_; }
  const std::string& fk_column() const { return fk_column_; }
  const ExprPtr& condition() const { return condition_; }

 private:
  std::string table_;
  std::string s_name_;
  std::vector<std::string> s_columns_;
  std::optional<std::string> t_name_;
  std::vector<std::string> t_columns_;
  VerticalMethod method_;
  std::string fk_column_;  // only for kFk
  ExprPtr condition_;      // only for kCondition
};

/// [OUTER] JOIN TABLE R, S INTO T ON PK | FK fk | cond
///
/// Vertical inverse of DECOMPOSE. OUTER joins pad missing partners with ω;
/// INNER joins keep unmatched tuples in target-side aux tables (R+/S+) so
/// no information is lost. ON FK matches R.fk = S.p; ON cond uses an
/// arbitrary condition over both column sets and generates fresh ids for
/// the joined tuples (kept stable through the id table).
class JoinSmo : public Smo {
 public:
  JoinSmo(std::string left, std::string right, std::string target, bool outer,
          VerticalMethod method, std::string fk_column, ExprPtr condition)
      : left_(std::move(left)),
        right_(std::move(right)),
        target_(std::move(target)),
        outer_(outer),
        method_(method),
        fk_column_(std::move(fk_column)),
        condition_(std::move(condition)) {}

  SmoKind kind() const override { return SmoKind::kJoin; }
  std::vector<std::string> SourceTables() const override {
    return {left_, right_};
  }
  std::vector<std::string> TargetTables() const override { return {target_}; }
  Result<std::vector<TableSchema>> DeriveTargetSchemas(
      const std::vector<TableSchema>& sources) const override;
  std::vector<AuxDef> AuxTables(
      const std::vector<TableSchema>& sources) const override;
  std::string ToString() const override;

  const std::string& left() const { return left_; }
  const std::string& right() const { return right_; }
  const std::string& target() const { return target_; }
  bool outer() const { return outer_; }
  VerticalMethod method() const { return method_; }
  const std::string& fk_column() const { return fk_column_; }
  const ExprPtr& condition() const { return condition_; }

 private:
  std::string left_;
  std::string right_;
  std::string target_;
  bool outer_;
  VerticalMethod method_;
  std::string fk_column_;  // only for kFk
  ExprPtr condition_;      // only for kCondition
};

}  // namespace inverda

#endif  // INVERDA_BIDEL_SMO_H_
