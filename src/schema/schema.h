#ifndef INVERDA_SCHEMA_SCHEMA_H_
#define INVERDA_SCHEMA_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "types/value.h"
#include "util/status.h"

namespace inverda {

/// A named, typed column of a table version.
struct Column {
  std::string name;
  DataType type = DataType::kInt64;

  bool operator==(const Column& other) const {
    return name == other.name && type == other.type;
  }
};

/// The schema of a table (version): a name plus an ordered column list.
/// Every relation additionally carries the InVerDa-managed identifier `p`,
/// which is implicit and not listed here.
class TableSchema {
 public:
  TableSchema() = default;
  TableSchema(std::string name, std::vector<Column> columns)
      : name_(std::move(name)), columns_(std::move(columns)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::vector<Column>& columns() const { return columns_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  /// Index of column `name` (case-insensitive), or nullopt.
  std::optional<int> FindColumn(const std::string& name) const;

  /// Column names in order.
  std::vector<std::string> ColumnNames() const;

  /// Appends a column. Fails with AlreadyExists on a name collision.
  Status AddColumn(Column column);

  /// Removes the column called `name`. Fails with NotFound if absent.
  Status DropColumn(const std::string& name);

  /// Renames column `from` to `to`.
  Status RenameColumn(const std::string& from, const std::string& to);

  /// The subset of columns named in `names`, in the order of `names`.
  /// Fails with NotFound on an unknown name.
  Result<std::vector<Column>> SelectColumns(
      const std::vector<std::string>& names) const;

  /// Positional indexes of `names` within this schema.
  Result<std::vector<int>> ColumnIndexes(
      const std::vector<std::string>& names) const;

  /// The payload column whose values a physical table indexes (value ->
  /// ascending keys, see Table::ScanIndex), or -1 for none. An access path,
  /// not content: equality and ToString ignore it.
  int indexed_column() const { return indexed_column_; }
  void set_indexed_column(int column) { indexed_column_ = column; }

  bool operator==(const TableSchema& other) const {
    return name_ == other.name_ && columns_ == other.columns_;
  }

  /// "Name(c1 INT, c2 TEXT)".
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<Column> columns_;
  int indexed_column_ = -1;
};

}  // namespace inverda

#endif  // INVERDA_SCHEMA_SCHEMA_H_
