#ifndef INVERDA_STORAGE_LATCH_H_
#define INVERDA_STORAGE_LATCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "util/shard.h"

namespace inverda {

/// Registry of per-table reader/writer latches, keyed by physical table
/// name, plus one latch per (table, shard) when the database is sharded.
/// Latches outlive the tables they guard: a drop-and-recreate under a
/// migration reuses the same latch, so a concurrent access blocked on the
/// old incarnation wakes up against the new one instead of a dangling lock.
/// The registry also owns the single global latch that makes the
/// granularities compatible (see TableLatchSet).
///
/// Shard latches are allocated kMaxShards at a time per table so that
/// changing the active shard count (Database::Reshard) never invalidates a
/// latch address — only the first shards() entries are ever acquired.
class LatchRegistry {
 public:
  LatchRegistry() = default;
  LatchRegistry(const LatchRegistry&) = delete;
  LatchRegistry& operator=(const LatchRegistry&) = delete;

  /// The latch guarding physical table `name`, created on first use.
  /// The returned reference stays valid for the registry's lifetime.
  std::shared_mutex& Latch(const std::string& name);

  /// The shard-latch array of table `name` (kMaxShards entries, created on
  /// first use; indices [0, shards()) are the active ones). Stays valid
  /// for the registry's lifetime.
  std::shared_mutex* ShardLatches(const std::string& name);

  /// The coarse whole-database latch.
  std::shared_mutex& global() { return global_; }

  /// The active shard count latch sets acquire against. Updated only by
  /// Database::Reshard while no operation is in flight; TableLatchSet
  /// re-validates it after taking the global latch, so a racing reshard
  /// can never leave an acquisition with a stale count.
  int shards() const { return shards_.load(std::memory_order_acquire); }
  void set_shards(int shards) {
    shards_.store(ClampShardCount(shards), std::memory_order_release);
  }

 private:
  std::mutex mu_;  // guards the maps only; never held while latching
  std::map<std::string, std::unique_ptr<std::shared_mutex>> latches_;
  std::map<std::string, std::unique_ptr<std::shared_mutex[]>> shard_latches_;
  std::shared_mutex global_;
  std::atomic<int> shards_{1};
};

/// RAII acquisition of a set of table latches in one shot. Names are
/// deduplicated and acquired in sorted order, so any two latch sets always
/// lock their intersection in the same order — the classic deadlock-freedom
/// argument for two-phase latching without lock upgrades. Latches are
/// released in reverse order on destruction.
///
/// Granularities, kept mutually exclusive through the registry's global
/// latch:
///  - fine:   global latch *shared* + named (table, shard) latches;
///  - coarse: global latch *exclusive* only — used for footprints whose
///    latch count exceeds the escalation budget (lock escalation; also
///    keeps the per-thread lock count within ThreadSanitizer's 64-lock
///    deadlock-detector cap; AcquireGlobal).
/// A coarse holder excludes every fine holder via the global latch, so an
/// access never observes a table whose latch it skipped.
///
/// With shards (registry shards() > 1) the fine granularity is
/// hierarchical, per table in the canonical order
/// `table latch, shard 0, shard 1, ...`:
///  - whole-table writers take the table latch exclusively (no shard
///    latches — the table latch alone excludes everyone);
///  - whole-table readers take the table latch shared plus every shard
///    latch shared;
///  - key-scoped accesses (AcquireKeyScoped) take the table latch shared
///    plus exactly the shards their keys route to — shared for reads,
///    exclusive for writes — so writers to different shards of one table
///    run in parallel while still conflicting with whole-table readers
///    and writers.
/// With one shard (the default) no shard latch exists and acquisition is
/// bit for bit the pre-sharding behavior.
class TableLatchSet {
 public:
  /// Footprints of more tables than this escalate to the exclusive global
  /// latch (the pre-sharding rule, still the only one at shards() == 1).
  static constexpr size_t kEscalationLimit = 32;

  /// With shards, the total latch budget of one fine acquisition (global +
  /// table + shard latches). Kept under ThreadSanitizer's 64-lock
  /// deadlock-detector cap; exceeding it escalates to the global latch.
  static constexpr size_t kShardLatchBudget = 48;

  TableLatchSet() = default;
  ~TableLatchSet() { Release(); }

  TableLatchSet(const TableLatchSet&) = delete;
  TableLatchSet& operator=(const TableLatchSet&) = delete;

  /// Latches every named table for shared (reader) or exclusive (writer)
  /// access as described above, holding the global latch shared alongside
  /// — or escalates to the exclusive global latch when the footprint
  /// exceeds the escalation budget. Must be called at most once per
  /// instance.
  void Acquire(LatchRegistry* registry, std::vector<std::string> names,
               bool exclusive);

  /// Latches exactly the shards of `name` that `keys` route to (plus the
  /// table latch shared and the global latch shared). Falls back to
  /// Acquire({name}) when the registry is unsharded or the shard set is
  /// too large. Must be called at most once per instance.
  void AcquireKeyScoped(LatchRegistry* registry, const std::string& name,
                        const std::vector<int64_t>& keys, bool exclusive);

  /// Latches the whole database exclusively (coarse granularity; the
  /// escalation target of Acquire).
  void AcquireGlobal(LatchRegistry* registry);

  /// True when the last Acquire escalated to the exclusive global latch.
  bool escalated() const { return escalated_; }

  void Release();

 private:
  void Push(std::shared_mutex* latch, bool exclusive);

  // Each held latch with the mode it was taken in (the global latch is
  // shared while the table latches may be exclusive).
  std::vector<std::pair<std::shared_mutex*, bool>> held_;
  bool escalated_ = false;
};

}  // namespace inverda

#endif  // INVERDA_STORAGE_LATCH_H_
