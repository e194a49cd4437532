#ifndef INVERDA_STORAGE_TABLE_H_
#define INVERDA_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "schema/schema.h"
#include "types/row.h"
#include "util/shard.h"
#include "util/status.h"

namespace inverda {

namespace storage_internal {
inline thread_local int64_t rows_visited = 0;
}  // namespace storage_internal

/// Rows the calling thread has read from tables so far: one per point probe
/// (Find), one per row a scan hands out, one per entry an index lookup
/// visits. Writes do not count. The tally is a plain per-thread integer,
/// always on; the access layer exchanges it around each propagate step to
/// attribute the visits to that step's kernel (`kernel.<name>.rows_visited`
/// and the span's `rows_visited`).
inline int64_t RowsVisited() { return storage_internal::rows_visited; }
inline void CountRowsVisited(int64_t n) { storage_internal::rows_visited += n; }
/// Sets the calling thread's tally to `value` and returns the old one.
inline int64_t ExchangeRowsVisited(int64_t value) {
  int64_t old = storage_internal::rows_visited;
  storage_internal::rows_visited = value;
  return old;
}

/// A physical table of the relational substrate: a row store keyed by the
/// InVerDa-managed identifier `p`. The key is unique per table, which gives
/// the rule sets their "unique key p" guarantee (Lemma 5) and makes the
/// multiset semantics of SQL fit the set semantics of the Datalog rules.
///
/// Rows are partitioned by hash of `p` into a fixed number of shards, each
/// an independent hash map (docs/storage.md). Key-scoped operations touch
/// exactly one shard, so writers to different shards of the same table can
/// run in parallel under per-shard latches, and full scans can fan out
/// shard-parallel. One shard (the default) is the degenerate case that
/// behaves exactly like the old single-map store.
///
/// Every order-visible API (Scan, Rows, Keys, ToString) presents the rows
/// in ascending key order regardless of the shard count, so scans stay
/// deterministic and the same data reads identically at any S — the
/// invariant the golden tests, the kernels and the cross-validation suites
/// rely on.
///
/// A schema may declare one indexed payload column
/// (TableSchema::indexed_column): the table then maintains, per shard, the
/// ascending keys of the rows carrying each value of that column, so
/// ScanIndex finds the rows holding a value without a scan.
class Table {
 public:
  /// `shards` <= 0 takes the process default (INVERDA_SHARDS, else 1).
  explicit Table(TableSchema schema, int shards = 0)
      : schema_(std::move(schema)),
        buckets_(static_cast<size_t>(
            shards <= 0 ? DefaultShardCount() : ClampShardCount(shards))),
        order_(buckets_.size()),
        index_(schema_.indexed_column() >= 0 ? buckets_.size() : 0) {}

  // Value semantics over the atomic epoch stamp and row counter: copies
  // share their original's stamp (identical content), moves carry it
  // along. Loads are acquire and stores release, pairing with the
  // latch-free validation reads of epoch().
  Table(const Table& other)
      : schema_(other.schema_),
        buckets_(other.buckets_),
        order_(other.order_),
        index_(other.index_),
        size_(other.size_.load(std::memory_order_acquire)),
        epoch_(other.epoch_.load(std::memory_order_acquire)) {}
  Table& operator=(const Table& other) {
    schema_ = other.schema_;
    buckets_ = other.buckets_;
    order_ = other.order_;
    index_ = other.index_;
    size_.store(other.size_.load(std::memory_order_acquire),
                std::memory_order_release);
    epoch_.store(other.epoch_.load(std::memory_order_acquire),
                 std::memory_order_release);
    return *this;
  }
  Table(Table&& other) noexcept
      : schema_(std::move(other.schema_)),
        buckets_(std::move(other.buckets_)),
        order_(std::move(other.order_)),
        index_(std::move(other.index_)),
        size_(other.size_.load(std::memory_order_acquire)),
        epoch_(other.epoch_.load(std::memory_order_acquire)) {}
  Table& operator=(Table&& other) noexcept {
    schema_ = std::move(other.schema_);
    buckets_ = std::move(other.buckets_);
    order_ = std::move(other.order_);
    index_ = std::move(other.index_);
    size_.store(other.size_.load(std::memory_order_acquire),
                std::memory_order_release);
    epoch_.store(other.epoch_.load(std::memory_order_acquire),
                 std::memory_order_release);
    return *this;
  }

  const TableSchema& schema() const { return schema_; }
  void set_schema(TableSchema schema) {
    const bool reindex =
        schema.indexed_column() != schema_.indexed_column();
    schema_ = std::move(schema);
    if (reindex) RebuildIndex();
    Touch();
  }

  /// Dirty epoch: a process-wide monotonic stamp renewed by every mutation
  /// (and at construction, so a dropped-and-recreated table never reuses a
  /// stamp). Copies share their original's epoch — the content is
  /// identical. The derived-view cache validates entries in O(1) per
  /// dependency by comparing stored stamps against current ones. The stamp
  /// is atomic so validation may read it without holding the table's latch.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Row count across all shards. Atomic so key-scoped writers to
  /// different shards can maintain it concurrently.
  int64_t size() const { return size_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }

  // --- shard structure -------------------------------------------------------

  int shard_count() const { return static_cast<int>(buckets_.size()); }

  /// The shard that stores key `p` (util/shard.h routing).
  int ShardOfKey(int64_t key) const { return ShardOf(key, shard_count()); }

  int64_t shard_size(int shard) const {
    return static_cast<int64_t>(buckets_[static_cast<size_t>(shard)].size());
  }

  /// The rows of one shard as (key, payload pointer) pairs in ascending
  /// key order — the unit of shard-parallel scans. Pointers stay valid
  /// until the next mutation of this shard. Runs on pool threads, so it
  /// leaves the RowsVisited tally to its caller.
  std::vector<std::pair<int64_t, const Row*>> ShardItems(int shard) const;

  /// Re-buckets every row into `shards` shards (caller must hold the table
  /// exclusively; used by Database::Reshard). Counts as a mutation.
  void Reshard(int shards);

  // --- row access ------------------------------------------------------------

  bool Contains(int64_t key) const { return Find(key) != nullptr; }

  /// Pointer to the payload of row `key`, or nullptr.
  const Row* Find(int64_t key) const;

  /// Inserts (key, row). Fails with ConstraintViolation if the key exists or
  /// the payload width does not match the schema.
  Status Insert(int64_t key, Row row);

  /// Replaces the payload of row `key`. Fails with NotFound if absent.
  Status Update(int64_t key, Row row);

  /// Inserts or replaces, with width check only.
  Status Upsert(int64_t key, Row row);

  /// Deletes row `key`; returns true if a row was removed.
  bool Erase(int64_t key);

  void Clear();

  /// Calls `fn(key, row)` for every row in ascending key order.
  void Scan(const std::function<void(int64_t, const Row&)>& fn) const;

  /// Calls `fn(key)` for every row whose indexed column holds `value`, in
  /// ascending key order, until `fn` returns false. Rows with a NULL or
  /// non-integer indexed cell are not indexed. Visits only the keys it
  /// hands out: O(S + visited) for S shards, independent of the table
  /// size. `fn` must not mutate this table. Requires an indexed column.
  void ScanIndex(int64_t value, const std::function<bool(int64_t)>& fn) const;

  /// All rows as keyed tuples, ascending by key.
  std::vector<KeyedRow> Rows() const;

  /// All keys, ascending.
  std::vector<int64_t> Keys() const;

  /// Deep copy (used by migration snapshots).
  Table Clone() const { return *this; }

  /// Set equality: same schema column names/types and same keyed rows.
  /// Shard-count agnostic — a table compares equal to a differently
  /// sharded copy of the same content.
  bool ContentEquals(const Table& other) const;

  /// Multi-line debug rendering (ascending by key).
  std::string ToString() const;

 private:
  using Bucket = std::unordered_map<int64_t, Row>;

  Bucket& BucketFor(int64_t key) {
    return buckets_[static_cast<size_t>(ShardOfKey(key))];
  }
  const Bucket& BucketFor(int64_t key) const {
    return buckets_[static_cast<size_t>(ShardOfKey(key))];
  }

  // The ascending key index of one shard, maintained incrementally by
  // every key-set mutation (in-place updates leave it alone). The hash
  // buckets lost the iteration order the old ordered-map store gave for
  // free, and sorting on every Scan doubled the FK/COND propagation path,
  // which scans its aux tables once per propagated operation. Keys are
  // drawn from the monotonic global sequence, so the sorted insert is an
  // O(1) append in the common case. The index is only written under the
  // same exclusive (table or shard) latch as the bucket it mirrors, so
  // readers need no extra synchronization.
  std::vector<int64_t>& OrderFor(int64_t key) {
    return order_[static_cast<size_t>(ShardOfKey(key))];
  }
  static void InsortKey(std::vector<int64_t>* order, int64_t key);
  static void RemoveKey(std::vector<int64_t>* order, int64_t key);

  // The value index of an indexed column: per shard, value -> ascending
  // keys of that shard's rows carrying it (no shards without an indexed
  // column). It lives beside order_ and is written by the same mutations
  // under the same latch, so it inherits order_'s synchronization. Reindex
  // moves `key` from the value of `before` to the value of `after` (either
  // may be null: insert / erase); RebuildIndex recomputes it from scratch.
  using ValueIndex = std::unordered_map<int64_t, std::set<int64_t>>;
  void Reindex(int64_t key, const Row* before, const Row* after);
  void RebuildIndex();

  /// Every row of every shard, ascending by key.
  std::vector<std::pair<int64_t, const Row*>> SortedItems() const;

  /// Draws the next process-wide epoch stamp.
  static uint64_t NextEpoch();
  void Touch() { epoch_.store(NextEpoch(), std::memory_order_release); }

  TableSchema schema_;
  std::vector<Bucket> buckets_;
  std::vector<std::vector<int64_t>> order_;
  std::vector<ValueIndex> index_;
  std::atomic<int64_t> size_{0};
  std::atomic<uint64_t> epoch_{NextEpoch()};
};

}  // namespace inverda

#endif  // INVERDA_STORAGE_TABLE_H_
