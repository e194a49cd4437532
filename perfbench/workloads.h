// Workloads of the repository benchmark: scenario set-up, seeded client op
// streams, the closed-loop concurrent runner, the single-threaded layer
// ledger of the traced run, and the output oracle.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "inverda/inverda.h"
#include "stats.h"
#include "util/random.h"

namespace perfbench {

using inverda::Inverda;
using inverda::Row;
using inverda::Status;
using inverda::TvId;

int64_t NowNs();

/// Client operation kinds. Writes are Insert/Update/Delete.
enum class OpKind { kGet, kUpdate, kInsert, kDelete, kScan };

/// An op class: (quarter of the sub-run, table version, op kind). Ops of
/// one class do the same work wherever they fall in the run; the quarter
/// keeps cost that grows with the writes already done apart.
using OpClass = std::tuple<int, TvId, OpKind>;

/// Latencies and outcomes one client (or the DBA) recorded, in ns.
struct Recorder {
  std::vector<double> get_ns;
  std::vector<double> write_ns;
  std::vector<double> scan_ns;
  std::map<OpClass, std::vector<double>> class_ns;
  int quarter = 0;  // the current round's quarter of its sub-run (runner-set)
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_failure;  // first non-OK Status
  std::string first_mismatch;  // first oracle violation seen inline

  /// Records one client op's latency under its kind and its class.
  void Record(TvId tv, OpKind kind, double ns);
  void Fail(const std::string& what, const Status& status);
  void Mismatch(const std::string& what);
  void Merge(const Recorder& other);
};

/// Samples of the traced run's layer ledger, for one table version.
/// Reads (Get, Select) record every level on the same key / scan:
///   l1 facade, l2 AccessLayer, l3 PlanStep (= l4 for physical plans),
///   l4 Table::Find / Table::Scan over the plan footprint,
/// plus the warm GetPlan and latch Acquire+Release cost measured beside it.
/// Writes enter at exactly one level each, rotating (w_facade, w_access,
/// w_step); `plain_*` are facade times of the same op stream without any
/// layer calls (the overhead baseline).
struct LedgerSamples {
  struct Read {
    std::vector<double> l1, l2, l3, l4, lookup, latch;
  };
  Read get, scan;
  std::vector<double> w_facade, w_access, w_step;
  std::vector<double> w_lookup, w_latch;
  std::vector<double> plain_get, plain_write, plain_scan;
  std::vector<double> first_get, first_scan;  // facade, first repetition only
  int64_t ops = 0;
  int64_t hops = 0;
  int64_t fused_steps = 0;
};

/// One client: a thread pinned to one (version, table) in the closed loop,
/// issuing a fixed number of ops per round from its seeded stream. Every
/// round reshuffles an exact op-kind (and version) mix, so the mix never
/// drifts with timing.
class Client {
 public:
  virtual ~Client() = default;
  virtual std::string name() const = 0;
  virtual void StartRound() = 0;
  virtual int RoundOps() const = 0;
  /// Issues the next op through the facade, timed at the client.
  virtual void RunOp(Inverda* db, Recorder* rec) = 0;
  /// Issues the next op in the traced run: with `traced`, through the layer
  /// ledger (samples keyed by table-version label); otherwise through the
  /// facade only, recorded as plain_*.
  virtual void RunLedgerOp(Inverda* db, bool traced,
                           std::map<std::string, LedgerSamples>* ledger,
                           Recorder* rec) = 0;
  /// Post-run oracle of this client's own state; empty when it holds.
  virtual std::string Check(Inverda* db) = 0;
  /// Self-test hook: corrupts one expectation of the client's model so a
  /// following Check must fail.
  virtual void CorruptModelForTest() = 0;
};

/// A built workload: the engine instance, its clients, and the oracle
/// state that spans clients.
struct Scenario {
  std::string workload;
  std::unique_ptr<Inverda> db;
  std::vector<std::unique_ptr<Client>> clients;
  bool dba_migrations = false;  // tasky-migrate's DBA thread
  int64_t expected_task_rows = 0;  // TasKy scenarios: steady table size

  // Set-up breakdown of this build, in ns.
  double evolve_ns = 0;
  double load_ns = 0;
  double initial_materialize_ns = 0;
  double total_ns = 0;  // build, load, MATERIALIZE and plan warm-up

  /// Cross-client oracle checks (TasKy: version-count and FK checks); empty
  /// when every check holds.
  std::string CheckGlobal();
};

/// The workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Fixed sizes of the workloads (never derived from the seed).
struct Sizes {
  int tasky_tasks = 20000;
  int tasky_authors = 50;
  int wiki_pages = 4000;
  int wiki_links = 6000;
};

/// Builds `workload` from `seed`: genealogy, data load, initial MATERIALIZE
/// and plan warm-up (timed into the Scenario's set-up fields), then, with
/// `with_clients`, the clients and their oracle models (untimed).
inverda::Result<Scenario> BuildScenario(const std::string& workload,
                                        uint64_t seed, const Sizes& sizes,
                                        bool with_clients);

/// One online migration of the DBA thread.
struct MigrationRecord {
  double call_ns = 0;     // Materialize call to return
  double copy_ns = 0;     // Copy phase entry -> CatchUp phase entry
  double catchup_ns = 0;  // CatchUp entry -> Flip entry
  double flip_ns = 0;     // exclusive flip window (MigrationState)
  int64_t rows_copied = 0;
  int64_t keys_captured = 0;
  int64_t catchup_rounds = 0;
  int64_t refreshes = 0;  // wholesale re-derivations of non-key-stable tables
};

struct RunResult {
  Recorder rec;  // all clients and the DBA
  std::vector<Recorder> per_client;
  double wall_ns = 0;  // start barrier -> the last client finished
  double cpu_ns = 0;   // process user+system CPU time over the same span
  std::vector<MigrationRecord> migrations;
  std::string oracle;  // first oracle failure after the run, or empty
};

/// Runs every client on its own thread for `rounds` barrier-separated
/// rounds, each of exactly RoundOps() ops per client, so every run does the
/// same work whatever its speed. With `dba_migrations`, the calling thread's
/// DBA loop alternates online MATERIALIZE TasKy2 / TasKy with a fixed pause
/// after each commit while the clients run; with `record_phases` it installs
/// a record-only on_phase hook. Runs the oracle afterwards.
RunResult RunConcurrent(Scenario* scenario, int64_t rounds,
                        bool record_phases);

/// The traced run's single-threaded ledger: `blocks` rounds of every
/// client, alternating plain and traced blocks.
std::map<std::string, LedgerSamples> RunLedger(Scenario* scenario, int blocks,
                                               Recorder* rec);

/// Runs the client and global oracle; empty when everything holds.
std::string RunOracle(Scenario* scenario);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
