#include "storage/table.h"

#include <algorithm>
#include <atomic>
#include <optional>

namespace inverda {

uint64_t Table::NextEpoch() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;
}

void Table::InsortKey(std::vector<int64_t>* order, int64_t key) {
  if (order->empty() || key > order->back()) {
    order->push_back(key);  // monotonic sequence keys: the common case
    return;
  }
  order->insert(std::lower_bound(order->begin(), order->end(), key), key);
}

void Table::RemoveKey(std::vector<int64_t>* order, int64_t key) {
  auto it = std::lower_bound(order->begin(), order->end(), key);
  if (it != order->end() && *it == key) order->erase(it);
}

namespace {

// The index entry of `row` under indexed column `column`: its cell when
// that is a non-NULL integer, nothing otherwise.
std::optional<int64_t> IndexedValue(const Row* row, int column) {
  if (row == nullptr) return std::nullopt;
  const Value& cell = (*row)[static_cast<size_t>(column)];
  if (!cell.is_int()) return std::nullopt;
  return cell.AsInt();
}

}  // namespace

void Table::Reindex(int64_t key, const Row* before, const Row* after) {
  if (index_.empty()) return;
  const int column = schema_.indexed_column();
  std::optional<int64_t> from = IndexedValue(before, column);
  std::optional<int64_t> to = IndexedValue(after, column);
  if (from == to) return;
  ValueIndex& index = index_[static_cast<size_t>(ShardOfKey(key))];
  if (from) {
    auto it = index.find(*from);
    it->second.erase(key);
    if (it->second.empty()) index.erase(it);
  }
  if (to) index[*to].insert(key);
}

void Table::RebuildIndex() {
  index_.assign(schema_.indexed_column() >= 0 ? buckets_.size() : 0, {});
  for (const Bucket& bucket : buckets_) {
    for (const auto& [key, row] : bucket) Reindex(key, nullptr, &row);
  }
}

std::vector<std::pair<int64_t, const Row*>> Table::ShardItems(
    int shard) const {
  const Bucket& bucket = buckets_[static_cast<size_t>(shard)];
  const std::vector<int64_t>& keys = order_[static_cast<size_t>(shard)];
  std::vector<std::pair<int64_t, const Row*>> items;
  items.reserve(keys.size());
  for (int64_t key : keys) {
    items.emplace_back(key, &bucket.find(key)->second);
  }
  return items;
}

std::vector<std::pair<int64_t, const Row*>> Table::SortedItems() const {
  if (shard_count() == 1) return ShardItems(0);
  std::vector<std::pair<int64_t, const Row*>> items;
  items.reserve(static_cast<size_t>(size()));
  for (int shard = 0; shard < shard_count(); ++shard) {
    const Bucket& bucket = buckets_[static_cast<size_t>(shard)];
    for (int64_t key : order_[static_cast<size_t>(shard)]) {
      items.emplace_back(key, &bucket.find(key)->second);
    }
  }
  // S sorted runs concatenated; sort merges them (cheaper than a cold
  // sort — the runs are pre-ordered — and only the sequential S>1 path
  // pays it; the parallel executor merges per-shard results itself).
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return items;
}

void Table::Reshard(int shards) {
  const int target = ClampShardCount(shards);
  if (target == shard_count()) return;
  std::vector<Bucket> next(static_cast<size_t>(target));
  for (Bucket& bucket : buckets_) {
    for (auto& [key, row] : bucket) {
      next[static_cast<size_t>(ShardOf(key, target))].emplace(
          key, std::move(row));
    }
  }
  buckets_ = std::move(next);
  order_.assign(static_cast<size_t>(target), {});
  for (size_t shard = 0; shard < buckets_.size(); ++shard) {
    std::vector<int64_t>& keys = order_[shard];
    keys.reserve(buckets_[shard].size());
    for (const auto& [key, row] : buckets_[shard]) {
      (void)row;
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
  }
  RebuildIndex();
  Touch();
}

const Row* Table::Find(int64_t key) const {
  CountRowsVisited(1);
  const Bucket& bucket = BucketFor(key);
  auto it = bucket.find(key);
  return it == bucket.end() ? nullptr : &it->second;
}

Status Table::Insert(int64_t key, Row row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::ConstraintViolation(
        "row width " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString());
  }
  auto [it, inserted] = BucketFor(key).emplace(key, std::move(row));
  if (!inserted) {
    return Status::ConstraintViolation("duplicate key " + std::to_string(key) +
                                       " in " + schema_.name());
  }
  size_.fetch_add(1, std::memory_order_acq_rel);
  InsortKey(&OrderFor(key), key);
  Reindex(key, nullptr, &it->second);
  Touch();
  return Status::OK();
}

Status Table::Update(int64_t key, Row row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::ConstraintViolation(
        "row width " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString());
  }
  Bucket& bucket = BucketFor(key);
  auto it = bucket.find(key);
  if (it == bucket.end()) {
    return Status::NotFound("key " + std::to_string(key) + " not in " +
                            schema_.name());
  }
  Reindex(key, &it->second, &row);
  it->second = std::move(row);
  Touch();
  return Status::OK();
}

Status Table::Upsert(int64_t key, Row row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::ConstraintViolation(
        "row width " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString());
  }
  auto [it, inserted] = BucketFor(key).try_emplace(key);
  if (inserted) {
    size_.fetch_add(1, std::memory_order_acq_rel);
    InsortKey(&OrderFor(key), key);
    Reindex(key, nullptr, &row);
  } else {
    Reindex(key, &it->second, &row);
  }
  it->second = std::move(row);
  Touch();
  return Status::OK();
}

bool Table::Erase(int64_t key) {
  Bucket& bucket = BucketFor(key);
  auto it = bucket.find(key);
  if (it == bucket.end()) return false;
  Reindex(key, &it->second, nullptr);
  bucket.erase(it);
  size_.fetch_sub(1, std::memory_order_acq_rel);
  RemoveKey(&OrderFor(key), key);
  Touch();
  return true;
}

void Table::Clear() {
  for (Bucket& bucket : buckets_) bucket.clear();
  for (std::vector<int64_t>& keys : order_) keys.clear();
  for (ValueIndex& index : index_) index.clear();
  size_.store(0, std::memory_order_release);
  Touch();
}

void Table::Scan(const std::function<void(int64_t, const Row&)>& fn) const {
  CountRowsVisited(size());
  if (shard_count() == 1) {
    const Bucket& bucket = buckets_[0];
    for (int64_t key : order_[0]) fn(key, bucket.find(key)->second);
    return;
  }
  for (const auto& [key, row] : SortedItems()) fn(key, *row);
}

void Table::ScanIndex(int64_t value,
                      const std::function<bool(int64_t)>& fn) const {
  // One ascending run per shard holding `value`, merged lazily so an early
  // stop visits only the keys it consumed.
  using Run = std::pair<std::set<int64_t>::const_iterator,
                        std::set<int64_t>::const_iterator>;
  std::vector<Run> runs;
  for (const ValueIndex& index : index_) {
    auto it = index.find(value);
    if (it != index.end()) {
      runs.emplace_back(it->second.begin(), it->second.end());
    }
  }
  while (true) {
    Run* next = nullptr;
    for (Run& run : runs) {
      if (run.first != run.second &&
          (next == nullptr || *run.first < *next->first)) {
        next = &run;
      }
    }
    if (next == nullptr) return;
    const int64_t key = *next->first++;
    CountRowsVisited(1);
    if (!fn(key)) return;
  }
}

std::vector<KeyedRow> Table::Rows() const {
  CountRowsVisited(size());
  std::vector<KeyedRow> out;
  out.reserve(static_cast<size_t>(size()));
  for (const auto& [key, row] : SortedItems()) out.push_back({key, *row});
  return out;
}

std::vector<int64_t> Table::Keys() const {
  CountRowsVisited(size());
  if (shard_count() == 1) return order_[0];
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(size()));
  for (const std::vector<int64_t>& keys : order_) {
    out.insert(out.end(), keys.begin(), keys.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool Table::ContentEquals(const Table& other) const {
  if (!(schema_ == other.schema_)) return false;
  if (size() != other.size()) return false;
  for (const Bucket& bucket : buckets_) {
    for (const auto& [key, row] : bucket) {
      const Row* theirs = other.Find(key);
      if (theirs == nullptr || !RowsEqual(row, *theirs)) return false;
    }
  }
  return true;
}

std::string Table::ToString() const {
  std::string out = schema_.ToString() + " [" + std::to_string(size()) +
                    " rows]\n";
  for (const auto& [key, row] : SortedItems()) {
    out += "  p=" + std::to_string(key) + " " + RowToString(*row) + "\n";
  }
  return out;
}

}  // namespace inverda
