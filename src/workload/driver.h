#ifndef INVERDA_WORKLOAD_DRIVER_H_
#define INVERDA_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "inverda/inverda.h"
#include "util/random.h"
#include "util/status.h"

namespace inverda {

/// Operation mix of a workload, as fractions summing to 1. The paper's
/// standard mix is 50% reads, 20% inserts, 20% updates, 10% deletes.
struct OpMix {
  double reads = 0.5;
  double inserts = 0.2;
  double updates = 0.2;
  double deletes = 0.1;

  static OpMix ReadOnly() { return {1.0, 0.0, 0.0, 0.0}; }
  static OpMix InsertOnly() { return {0.0, 1.0, 0.0, 0.0}; }
  static OpMix Standard() { return {0.5, 0.2, 0.2, 0.1}; }
};

/// One workload target: a (version, table) pair plus a row generator for
/// inserts/updates matching that version's schema.
struct WorkloadTarget {
  std::string version;
  std::string table;
  std::function<Row(Random*)> make_row;
};

/// Runs `num_ops` operations of the given mix against `target` and returns
/// the elapsed wall-clock seconds. Point updates/deletes pick random keys
/// from `keys` (newly inserted keys are appended; deleted keys removed).
Result<double> RunWorkload(Inverda* db, const WorkloadTarget& target,
                           const OpMix& mix, int num_ops, Random* rng,
                           std::vector<int64_t>* keys);

/// One client of a concurrent workload: a thread pinned to one
/// (version, table) target — the paper's co-existing-version scenario,
/// where different applications stay on different schema versions of the
/// same data set. Each client owns a private key list (give clients
/// disjoint `initial_keys`, or none, so point writes never race on the
/// same key) and a private RNG derived from the run seed and its index.
struct ConcurrentClientSpec {
  WorkloadTarget target;
  OpMix mix = OpMix::Standard();
  std::vector<int64_t> initial_keys;
};

/// Options of a concurrent run.
struct ConcurrentOptions {
  int ops_per_client = 1000;
  uint64_t seed = 1;
  /// Optional DBA loop run on its own thread while the clients work
  /// (e.g. flipping the materialization back and forth): invoked
  /// repeatedly until every client finished; a failed status stops the
  /// loop and is reported in ConcurrentResult::dba_status.
  std::function<Status()> dba_action;
  /// When true, writes rejected with kConstraintViolation or
  /// kInvalidArgument count as ConcurrentClientResult::rejections instead
  /// of stopping the client — random rows can legally collide with
  /// invisible tuples or violate partition conditions. Reads always stop
  /// the client on error.
  bool tolerate_rejections = false;
  /// Optional one-shot migration fired mid-workload on its own thread
  /// (e.g. an online Materialize + WaitForMigration). It starts once the
  /// clients completed `migrate_after_ops` operations in total, runs to
  /// completion exactly once, and its status lands in
  /// ConcurrentResult::migrate_status. Operations that complete while it
  /// is in flight count into ConcurrentClientResult::ops_during_migration
  /// — the "versions stay live while the floor moves" evidence.
  std::function<Status()> migrate_during;
  int migrate_after_ops = 0;
};

/// Per-client outcome: how many operations of each kind completed, and the
/// first error (a client stops at its first failed operation).
struct ConcurrentClientResult {
  int64_t reads = 0;
  int64_t inserts = 0;
  int64_t updates = 0;
  int64_t deletes = 0;
  int64_t rejections = 0;  // legally rejected writes (see ConcurrentOptions)
  /// Operations completed while the migrate_during migration was in
  /// flight (0 when no migration ran or it missed this client's window).
  int64_t ops_during_migration = 0;
  Status status = Status::OK();
  std::vector<int64_t> final_keys;  // surviving keys at client exit
  int64_t ops() const { return reads + inserts + updates + deletes; }
};

/// Outcome of a concurrent run.
struct ConcurrentResult {
  double seconds = 0;
  std::vector<ConcurrentClientResult> clients;
  int64_t dba_iterations = 0;
  Status dba_status = Status::OK();
  bool migrate_fired = false;  // the migrate_during migration ran
  Status migrate_status = Status::OK();

  int64_t total_ops() const {
    int64_t total = 0;
    for (const ConcurrentClientResult& c : clients) total += c.ops();
    return total;
  }
  double throughput() const {
    return seconds > 0 ? static_cast<double>(total_ops()) / seconds : 0;
  }
  /// First client or DBA error, or OK.
  Status first_error() const;
};

/// Runs every client on its own thread against the shared `db` (plus the
/// optional DBA thread) and joins them all: the multi-threaded counterpart
/// of RunWorkload. Thread-safety of the run rests on the Inverda facade's
/// DDL/DML lock and the access layer's per-table latches
/// (docs/concurrency.md).
ConcurrentResult RunConcurrentWorkload(
    Inverda* db, const std::vector<ConcurrentClientSpec>& clients,
    const ConcurrentOptions& options);

/// The Technology Adoption Life Cycle curve used by Figures 9 and 10: the
/// fraction of the workload on the *new* version at time slice `t` of
/// `total` (logistic S-curve from ~0 to ~1).
double AdoptionFraction(int t, int total);

/// Current wall-clock seconds (monotonic), for benchmark harnesses.
double NowSeconds();

}  // namespace inverda

#endif  // INVERDA_WORKLOAD_DRIVER_H_
