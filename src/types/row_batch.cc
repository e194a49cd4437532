#include "types/row_batch.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace inverda {

Status RowBatch::SetNumColumns(int num_columns) {
  if (num_columns < 0) {
    return Status::Internal("negative batch width");
  }
  if (num_columns_ == num_columns) return Status::OK();
  if (num_columns_ >= 0) {
    return Status::Internal("batch width already fixed at " +
                            std::to_string(num_columns_) + ", got " +
                            std::to_string(num_columns));
  }
  num_columns_ = num_columns;
  columns_.resize(static_cast<size_t>(num_columns));
  return Status::OK();
}

void RowBatch::Reserve(int64_t rows) {
  keys_.reserve(static_cast<size_t>(rows));
  for (std::vector<Value>& col : columns_) {
    col.reserve(static_cast<size_t>(rows));
  }
}

Status RowBatch::GrowRows(int64_t rows) {
  if (num_columns_ < 0) {
    return Status::Internal("GrowRows on a batch with unset width");
  }
  if (!selected_.empty()) {
    return Status::Internal("GrowRows on a batch with a selection bitmap");
  }
  if (rows < size()) {
    return Status::Internal("GrowRows would shrink the batch");
  }
  keys_.resize(static_cast<size_t>(rows), 0);
  for (std::vector<Value>& col : columns_) {
    col.resize(static_cast<size_t>(rows));
  }
  return Status::OK();
}

void RowBatch::Clear() {
  keys_.clear();
  for (std::vector<Value>& col : columns_) col.clear();
  selected_.clear();
}

Status RowBatch::AppendRow(int64_t key, const Row& row) {
  if (num_columns_ < 0) {
    INVERDA_RETURN_IF_ERROR(SetNumColumns(static_cast<int>(row.size())));
  } else if (static_cast<int>(row.size()) != num_columns_) {
    return Status::Internal("batch row width " + std::to_string(row.size()) +
                            " != " + std::to_string(num_columns_));
  }
  keys_.push_back(key);
  for (size_t c = 0; c < row.size(); ++c) columns_[c].push_back(row[c]);
  if (!selected_.empty()) selected_.push_back(1);
  return Status::OK();
}

Status RowBatch::AppendRow(int64_t key, Row&& row) {
  if (num_columns_ < 0) {
    INVERDA_RETURN_IF_ERROR(SetNumColumns(static_cast<int>(row.size())));
  } else if (static_cast<int>(row.size()) != num_columns_) {
    return Status::Internal("batch row width " + std::to_string(row.size()) +
                            " != " + std::to_string(num_columns_));
  }
  keys_.push_back(key);
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
  if (!selected_.empty()) selected_.push_back(1);
  return Status::OK();
}

Status RowBatch::AppendProjected(int64_t key, const Row& row,
                                 const std::vector<int>& indexes) {
  INVERDA_RETURN_IF_ERROR(SetNumColumns(static_cast<int>(indexes.size())));
  for (int index : indexes) {
    if (index < 0 || static_cast<size_t>(index) >= row.size()) {
      return Status::Internal("projected cell " + std::to_string(index) +
                              " outside a row of " +
                              std::to_string(row.size()));
    }
  }
  keys_.push_back(key);
  for (size_t c = 0; c < indexes.size(); ++c) {
    columns_[c].push_back(row[static_cast<size_t>(indexes[c])]);
  }
  if (!selected_.empty()) selected_.push_back(1);
  return Status::OK();
}

Row RowBatch::RowAt(int64_t i) const {
  Row out;
  out.reserve(columns_.size());
  for (const std::vector<Value>& col : columns_) {
    out.push_back(col[static_cast<size_t>(i)]);
  }
  return out;
}

void RowBatch::RemoveColumn(int index) {
  if (index < 0 || index >= num_columns()) return;
  columns_.erase(columns_.begin() + index);
  --num_columns_;
}

Status RowBatch::InsertColumn(int index, std::vector<Value> values) {
  if (num_columns_ < 0) num_columns_ = 0;
  if (index < 0 || index > num_columns_) {
    return Status::Internal("column index " + std::to_string(index) +
                            " out of range for width " +
                            std::to_string(num_columns_));
  }
  if (static_cast<int64_t>(values.size()) != size()) {
    return Status::Internal("column of " + std::to_string(values.size()) +
                            " values inserted into batch of " +
                            std::to_string(size()) + " rows");
  }
  columns_.insert(columns_.begin() + index, std::move(values));
  ++num_columns_;
  return Status::OK();
}

Status RowBatch::PrepareProjection(const RowBatch& src,
                                   const std::vector<int>& indexes) {
  if (!empty()) {
    return Status::Internal("projection into a non-empty batch");
  }
  INVERDA_RETURN_IF_ERROR(SetNumColumns(static_cast<int>(indexes.size())));
  for (int index : indexes) {
    if (index < 0 || index >= src.num_columns()) {
      return Status::Internal("projection index " + std::to_string(index) +
                              " out of range for width " +
                              std::to_string(src.num_columns()));
    }
  }
  return Status::OK();
}

Status RowBatch::AssignProjection(RowBatch&& src,
                                  const std::vector<int>& indexes) {
  INVERDA_RETURN_IF_ERROR(PrepareProjection(src, indexes));
  for (size_t i = 0; i < indexes.size(); ++i) {
    columns_[i] = std::move(src.columns_[static_cast<size_t>(indexes[i])]);
  }
  keys_ = std::move(src.keys_);
  selected_ = std::move(src.selected_);
  return Status::OK();
}

Status RowBatch::AssignProjection(const RowBatch& src,
                                  const std::vector<int>& indexes) {
  INVERDA_RETURN_IF_ERROR(PrepareProjection(src, indexes));
  for (size_t i = 0; i < indexes.size(); ++i) {
    columns_[i] = src.columns_[static_cast<size_t>(indexes[i])];
  }
  keys_ = src.keys_;
  selected_ = src.selected_;
  return Status::OK();
}

void RowBatch::SortByKey() {
  const size_t n = keys_.size();
  if (n < 2 || std::is_sorted(keys_.begin(), keys_.end())) return;
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](size_t a, size_t b) { return keys_[a] < keys_[b]; });
  std::vector<int64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = keys_[perm[i]];
  keys_.swap(keys);
  for (std::vector<Value>& col : columns_) {
    std::vector<Value> sorted(n);
    for (size_t i = 0; i < n; ++i) sorted[i] = std::move(col[perm[i]]);
    col.swap(sorted);
  }
  if (!selected_.empty()) {
    std::vector<uint8_t> sel(n);
    for (size_t i = 0; i < n; ++i) sel[i] = selected_[perm[i]];
    selected_.swap(sel);
  }
}

void RowBatch::Deselect(int64_t i) {
  if (selected_.empty()) selected_.assign(keys_.size(), 1);
  selected_[static_cast<size_t>(i)] = 0;
}

int64_t RowBatch::selected_count() const {
  if (selected_.empty()) return size();
  int64_t n = 0;
  for (uint8_t s : selected_) n += s != 0 ? 1 : 0;
  return n;
}

void RowBatch::Compact() {
  if (selected_.empty()) return;
  size_t w = 0;
  for (size_t r = 0; r < keys_.size(); ++r) {
    if (selected_[r] == 0) continue;
    if (w != r) {
      keys_[w] = keys_[r];
      for (std::vector<Value>& col : columns_) col[w] = std::move(col[r]);
    }
    ++w;
  }
  keys_.resize(w);
  for (std::vector<Value>& col : columns_) col.resize(w);
  selected_.clear();
}

void RowBatch::ForEach(
    const std::function<void(int64_t, const Row&)>& fn) const {
  // One row buffer for the whole batch: cells are assigned in place, so a
  // gathered row reuses the previous row's storage.
  Row row(columns_.size());
  for (int64_t i = 0; i < size(); ++i) {
    if (!selected(i)) continue;
    for (size_t c = 0; c < columns_.size(); ++c) {
      row[c] = columns_[c][static_cast<size_t>(i)];
    }
    fn(keys_[static_cast<size_t>(i)], row);
  }
}

}  // namespace inverda
