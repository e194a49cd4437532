#include "bidel/smo.h"

#include "util/strings.h"

namespace inverda {
namespace {

// Checks that `s_columns` and `t_columns` partition the columns of `source`
// (every column appears in exactly one output).
Status CheckPartition(const TableSchema& source,
                      const std::vector<std::string>& s_columns,
                      const std::vector<std::string>& t_columns,
                      bool require_cover) {
  std::vector<int> seen(static_cast<size_t>(source.num_columns()), 0);
  for (const std::vector<std::string>* list : {&s_columns, &t_columns}) {
    for (const std::string& name : *list) {
      std::optional<int> idx = source.FindColumn(name);
      if (!idx) {
        return Status::NotFound("column " + name + " not in " +
                                source.ToString());
      }
      if (++seen[static_cast<size_t>(*idx)] > 1) {
        return Status::InvalidArgument("column " + name +
                                       " listed twice in DECOMPOSE");
      }
    }
  }
  if (require_cover) {
    for (int i = 0; i < source.num_columns(); ++i) {
      if (seen[static_cast<size_t>(i)] == 0) {
        return Status::InvalidArgument(
            "DECOMPOSE does not cover column " +
            source.columns()[static_cast<size_t>(i)].name);
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<std::string> DecomposeSmo::TargetTables() const {
  if (t_name_) return {s_name_, *t_name_};
  return {s_name_};
}

Result<std::vector<TableSchema>> DecomposeSmo::DeriveTargetSchemas(
    const std::vector<TableSchema>& sources) const {
  if (sources.size() != 1) {
    return Status::InvalidArgument("DECOMPOSE expects one source table");
  }
  const TableSchema& r = sources[0];
  // A projection-only decompose (no T part) need not cover all columns.
  INVERDA_RETURN_IF_ERROR(
      CheckPartition(r, s_columns_, t_columns_, /*require_cover=*/has_t()));

  std::vector<TableSchema> out;
  INVERDA_ASSIGN_OR_RETURN(std::vector<Column> s_cols,
                           r.SelectColumns(s_columns_));
  TableSchema s(s_name_, std::move(s_cols));
  if (method_ == VerticalMethod::kFk) {
    // The generated foreign key column referencing T.
    INVERDA_RETURN_IF_ERROR(s.AddColumn({fk_column_, DataType::kInt64}));
  }
  out.push_back(std::move(s));

  if (has_t()) {
    INVERDA_ASSIGN_OR_RETURN(std::vector<Column> t_cols,
                             r.SelectColumns(t_columns_));
    out.emplace_back(*t_name_, std::move(t_cols));
  }
  if (method_ == VerticalMethod::kCondition && condition_ == nullptr) {
    return Status::InvalidArgument("DECOMPOSE ON condition needs a condition");
  }
  return out;
}

std::vector<AuxDef> DecomposeSmo::AuxTables(
    const std::vector<TableSchema>& sources) const {
  if (sources.empty()) return {};
  switch (method_) {
    case VerticalMethod::kPk:
      // No aux needed (B.2): both outputs keep the key p; the outer join
      // back pads with ω.
      return {};
    case VerticalMethod::kFk:
      // IDR(p, t): the assigned foreign key per source row, physically kept
      // while the data lives on the source side; when the target side is
      // materialized it is derivable from S's fk column (rules 150-152).
      // Indexed on t: the write path asks "which rows reference t?".
      return {AuxDef{"IDR",
                     {Column{"t", DataType::kInt64}},
                     SmoSide::kSource,
                     /*both_sides=*/false,
                     /*indexed_column=*/0}};
    case VerticalMethod::kCondition: {
      // ID(r, s, t): generated ids of the decomposition, kept on both sides
      // (B.4). R-(s, t): combinations removed on the source side that the
      // join back must not resurrect.
      std::vector<AuxDef> aux;
      aux.push_back(AuxDef{"ID",
                           {Column{"s", DataType::kInt64},
                            Column{"t", DataType::kInt64}},
                           SmoSide::kSource,
                           /*both_sides=*/true});
      aux.push_back(AuxDef{"R_minus",
                           {Column{"s", DataType::kInt64},
                            Column{"t", DataType::kInt64}},
                           SmoSide::kTarget,
                           /*both_sides=*/false});
      return aux;
    }
  }
  return {};
}

std::string DecomposeSmo::ToString() const {
  std::string out = "DECOMPOSE TABLE " + table_ + " INTO " + s_name_ + "(" +
                    Join(s_columns_, ", ") + ")";
  if (t_name_) {
    out += ", " + *t_name_ + "(" + Join(t_columns_, ", ") + ")";
  }
  switch (method_) {
    case VerticalMethod::kPk:
      out += " ON PK";
      break;
    case VerticalMethod::kFk:
      out += " ON FK " + fk_column_;
      break;
    case VerticalMethod::kCondition:
      out += " ON " + condition_->ToString();
      break;
  }
  return out;
}

}  // namespace inverda
