#include "bidel/smo.h"

#include "util/strings.h"

namespace inverda {

Result<std::vector<TableSchema>> JoinSmo::DeriveTargetSchemas(
    const std::vector<TableSchema>& sources) const {
  if (sources.size() != 2) {
    return Status::InvalidArgument("JOIN expects two source tables");
  }
  const TableSchema& l = sources[0];
  const TableSchema& r = sources[1];

  std::vector<Column> columns;
  for (const Column& c : l.columns()) {
    // ON FK: the foreign key column is consumed by the join and replaced by
    // the right-hand payload.
    if (method_ == VerticalMethod::kFk &&
        EqualsIgnoreCase(c.name, fk_column_)) {
      continue;
    }
    columns.push_back(c);
  }
  for (const Column& c : r.columns()) {
    for (const Column& existing : columns) {
      if (EqualsIgnoreCase(existing.name, c.name)) {
        return Status::InvalidArgument(
            "JOIN column name collision on " + c.name + " between " +
            l.name() + " and " + r.name());
      }
    }
    columns.push_back(c);
  }
  if (method_ == VerticalMethod::kFk && !l.FindColumn(fk_column_)) {
    return Status::NotFound("foreign key column " + fk_column_ + " not in " +
                            l.ToString());
  }
  if (method_ == VerticalMethod::kCondition) {
    if (condition_ == nullptr) {
      return Status::InvalidArgument("JOIN ON condition needs a condition");
    }
    TableSchema combined("joined", columns);
    INVERDA_RETURN_IF_ERROR(CheckColumnsResolve(*condition_, combined));
  }
  return std::vector<TableSchema>{TableSchema(target_, std::move(columns))};
}

std::vector<AuxDef> JoinSmo::AuxTables(
    const std::vector<TableSchema>& sources) const {
  if (sources.size() != 2) return {};
  const TableSchema& l = sources[0];
  const TableSchema& r = sources[1];
  std::vector<AuxDef> aux;

  if (!outer_) {
    // Inner joins lose unmatched tuples in the target version; the target
    // side keeps them in L+/R+ so nothing is lost (B.5/B.6).
    aux.push_back(AuxDef{"L_plus", l.columns(), SmoSide::kTarget, false});
    aux.push_back(AuxDef{"R_plus", r.columns(), SmoSide::kTarget, false});
  }
  switch (method_) {
    case VerticalMethod::kPk:
      break;  // ids are shared; nothing else needed (B.5)
    case VerticalMethod::kFk:
      // IDR(p, t): which right-hand tuple each joined row came from; kept
      // while the join result is the physical side (mirror of DECOMPOSE ON
      // FK's source-side IDR), indexed on t like it.
      aux.push_back(AuxDef{"IDR",
                           {Column{"t", DataType::kInt64}},
                           SmoSide::kTarget,
                           /*both_sides=*/false,
                           /*indexed_column=*/0});
      break;
    case VerticalMethod::kCondition:
      // ID(r, s, t): generated ids of joined combinations, kept on both
      // sides (B.6). R-(s, t): combinations deleted in the target version
      // that the join must not resurrect.
      aux.push_back(AuxDef{"ID",
                           {Column{"s", DataType::kInt64},
                            Column{"t", DataType::kInt64}},
                           SmoSide::kSource,
                           /*both_sides=*/true});
      aux.push_back(AuxDef{"R_minus",
                           {Column{"s", DataType::kInt64},
                            Column{"t", DataType::kInt64}},
                           SmoSide::kSource,
                           /*both_sides=*/false});
      break;
  }
  return aux;
}

std::string JoinSmo::ToString() const {
  std::string out = outer_ ? "OUTER JOIN TABLE " : "JOIN TABLE ";
  out += left_ + ", " + right_ + " INTO " + target_;
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
