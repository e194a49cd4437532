#ifndef INVERDA_TYPES_ROW_BATCH_H_
#define INVERDA_TYPES_ROW_BATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "types/row.h"
#include "util/status.h"

namespace inverda {

/// A columnar batch of keyed rows: one value vector per payload column plus
/// the key vector, with an optional selection bitmap. This is the unit the
/// batch execution path moves between mapping kernels — where the
/// row-at-a-time path pays a map insert and a Row allocation per tuple per
/// chain hop, the batch path applies projection-shaped SMOs (ADD/DROP
/// COLUMN, RENAME, DECOMPOSE projections) as whole-column operations:
/// dropping a column is one vector erase, adding one is one vector insert,
/// and filtering marks the selection bitmap without moving any data.
///
/// Invariants: every column vector has exactly size() entries; the
/// selection bitmap is either empty (all rows selected) or size() long.
/// Rows stay in ascending key order when filled from a Table or an ordered
/// scan — the batch itself never reorders.
class RowBatch {
 public:
  RowBatch() = default;

  /// A batch whose column count is known up front (e.g. from a plan's
  /// payload schema), so structure ops work even when no row is appended.
  explicit RowBatch(int num_columns) { SetNumColumns(num_columns); }

  /// Fixes the column count if not yet set (no-op when it already matches;
  /// fails on a conflicting width).
  Status SetNumColumns(int num_columns);
  bool has_columns() const { return num_columns_ >= 0; }
  int num_columns() const { return num_columns_ < 0 ? 0 : num_columns_; }

  /// Rows in the batch, including deselected ones.
  int64_t size() const { return static_cast<int64_t>(keys_.size()); }
  bool empty() const { return keys_.empty(); }

  void Reserve(int64_t rows);
  void Clear();

  /// Grows the batch to `rows` total rows (new keys zero, new cells NULL)
  /// so a parallel producer can fill keys and column cells in place via
  /// set_key()/column() — distinct row ranges may be written from distinct
  /// threads. Requires a fixed column count, no selection bitmap, and
  /// `rows` >= size().
  Status GrowRows(int64_t rows);

  /// Writes key `i` in place (pairs with GrowRows).
  void set_key(int64_t i, int64_t key) {
    keys_[static_cast<size_t>(i)] = key;
  }

  /// Appends one keyed row (sets the column count from the first row when
  /// still unset). Fails when the row width conflicts.
  Status AppendRow(int64_t key, const Row& row);
  Status AppendRow(int64_t key, Row&& row);

  /// Appends the cells of `row` at `indexes` (in order) as one keyed row:
  /// a projected append that never copies the other cells. The batch
  /// width must be unset or indexes.size(); fails on an index outside
  /// `row`.
  Status AppendProjected(int64_t key, const Row& row,
                         const std::vector<int>& indexes);

  const std::vector<int64_t>& keys() const { return keys_; }
  int64_t key_at(int64_t i) const { return keys_[static_cast<size_t>(i)]; }

  std::vector<Value>& column(int i) { return columns_[static_cast<size_t>(i)]; }
  const std::vector<Value>& column(int i) const {
    return columns_[static_cast<size_t>(i)];
  }

  /// Gathers row `i` back into row-major form (selection not consulted).
  Row RowAt(int64_t i) const;

  // --- columnar structure ops (O(columns), zero per-row work) --------------

  /// Removes the column at `index` (vector-of-columns erase; no row is
  /// touched).
  void RemoveColumn(int index);

  /// Inserts `values` as a new column at `index`. `values` must have
  /// exactly size() entries.
  Status InsertColumn(int index, std::vector<Value> values);

  /// Takes over `src`'s keys and selection bitmap and moves the columns
  /// selected by `indexes` (in order; entries must be distinct and in
  /// range) into this batch. The batch must be empty and its width unset
  /// or equal to indexes.size(). This is the whole-batch form of a
  /// projection: O(columns) vector moves, no per-row work.
  Status AssignProjection(RowBatch&& src, const std::vector<int>& indexes);

  /// Copying form of AssignProjection: `src` is left untouched and only
  /// the selected columns are copied.
  Status AssignProjection(const RowBatch& src, const std::vector<int>& indexes);

  /// Stably sorts the rows by key, carrying columns and the selection
  /// bitmap along. Batch producers that append out-of-order tail rows
  /// (aux-table leftovers) use this to restore the ordered-scan invariant.
  void SortByKey();

  // --- selection bitmap ------------------------------------------------------

  /// True when some rows are deselected (the bitmap is materialized).
  bool has_selection() const { return !selected_.empty(); }
  bool selected(int64_t i) const {
    return selected_.empty() || selected_[static_cast<size_t>(i)] != 0;
  }

  /// Marks row `i` as filtered out. Lazily materializes the bitmap — a
  /// batch that filters nothing never allocates it.
  void Deselect(int64_t i);

  int64_t selected_count() const;

  /// Physically drops deselected rows and clears the bitmap.
  void Compact();

  /// Calls `fn(key, row)` for every selected row, in batch order. Each row
  /// is gathered once (row-major callers; columnar consumers should read
  /// the columns directly).
  void ForEach(const std::function<void(int64_t, const Row&)>& fn) const;

 private:
  // Shared checks of both AssignProjection forms; fixes the width.
  Status PrepareProjection(const RowBatch& src,
                           const std::vector<int>& indexes);

  int num_columns_ = -1;  // -1: not yet fixed
  std::vector<int64_t> keys_;
  std::vector<std::vector<Value>> columns_;  // [column][row]
  std::vector<uint8_t> selected_;            // empty = all selected
};

}  // namespace inverda

#endif  // INVERDA_TYPES_ROW_BATCH_H_
