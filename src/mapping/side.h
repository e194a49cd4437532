#ifndef INVERDA_MAPPING_SIDE_H_
#define INVERDA_MAPPING_SIDE_H_

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bidel/smo.h"
#include "mapping/write_set.h"
#include "storage/database.h"
#include "types/row_batch.h"
#include "util/status.h"

namespace inverda {

// TvId lives in mapping/write_set.h (included above) so WriteTrace can
// refer to it.

/// Callback receiving one keyed row during a scan.
using RowCallback = std::function<void(int64_t, const Row&)>;

/// The services mapping kernels need from the surrounding system: reading
/// and writing table versions (which may themselves be virtual and resolve
/// recursively along the genealogy) and direct access to physical storage
/// for auxiliary tables. Implemented by inverda::AccessLayer.
class AccessBackend {
 public:
  virtual ~AccessBackend() = default;

  /// Streams all rows of table version `tv`.
  virtual Status ScanVersion(TvId tv, const RowCallback& fn) = 0;

  /// Scans all rows of table version `tv` into a columnar batch. With
  /// `columns`, the batch holds only those payload columns, in that order
  /// (distinct, in range); a physical table then copies only their cells.
  /// A projected scan requires an empty `out` (Internal otherwise); an
  /// unprojected one appends to whatever `out` already holds.
  /// The default bridges through ScanVersion row-at-a-time; AccessLayer
  /// overrides it with the batch execution path (physical tables fill the
  /// batch directly, virtual versions derive through the kernels' batch
  /// entry points).
  virtual Status ScanVersionBatch(TvId tv, RowBatch* out,
                                  const std::vector<int>* columns = nullptr);

  /// Looks up one row of table version `tv` by key.
  virtual Result<std::optional<Row>> FindVersion(TvId tv, int64_t key) = 0;

  /// Applies `writes` to table version `tv`, propagating further if `tv`
  /// is not physical.
  virtual Status ApplyToVersion(TvId tv, const WriteSet& writes) = 0;

  /// The physical storage (auxiliary tables, sequence).
  virtual Database& db() = 0;
};

/// Payload-keyed id memo used by identifier-generating SMOs (DECOMPOSE ON
/// FK / condition, JOIN ON condition): "on every call, idT(B) returns a new
/// unique identifier ... an already generated identifier is reused for the
/// same data". One memo per generated role (target table / combo).
///
/// Also records the reverse direction, the payload each id names, so an
/// id remembered elsewhere (DECOMPOSE ON FK's IDR aux table) can be checked
/// against the data it was assigned for. The two directions stay
/// consistent: re-seeding an id with a new payload retires the old
/// payload's mapping to it.
///
/// Individually thread-safe; the logical read-modify-write sequences the
/// id-generating kernels perform across memo + aux tables are additionally
/// serialized by the access layer's exclusive latching of those kernels'
/// routes (Kernel::DeriveMutates).
class IdMemo {
 public:
  /// Returns the memoized id for (`role`, `payload`), drawing a fresh id
  /// from `seq` on first use.
  int64_t GetOrCreate(const std::string& role, const Row& payload,
                      Sequence& seq);

  /// Records that `id` names `payload` (used when rebuilding the memo from
  /// physical state, e.g. after migration, and when a payload changes).
  void Seed(const std::string& role, const Row& payload, int64_t id);

  /// Drops a mapping so the payload can be re-keyed later.
  void Forget(const std::string& role, const Row& payload);

  /// Looks up without creating.
  std::optional<int64_t> Find(const std::string& role,
                              const Row& payload) const;

  /// Whether `id` names `payload`; nullopt when the memo knows nothing of
  /// `id`.
  std::optional<bool> Names(const std::string& role, int64_t id,
                            const Row& payload) const;

 private:
  struct RoleMaps {
    std::unordered_map<Row, int64_t, RowHash> ids;
    std::unordered_map<int64_t, Row> payloads;
  };
  void SeedLocked(RoleMaps& maps, const Row& payload, int64_t id);

  mutable std::mutex mu_;
  std::map<std::string, RoleMaps> maps_;
};

/// Reference to a resolved table version (id + payload schema).
struct TvRef {
  TvId id = -1;
  const TableSchema* schema = nullptr;
};

/// Everything a mapping kernel needs about one SMO instance: the SMO
/// parameters, the resolved table versions on both sides, the
/// materialization state, the physical auxiliary tables, and the backend
/// for (possibly recursive) reads and writes of neighbouring versions.
struct SmoContext {
  const Smo* smo = nullptr;
  std::vector<TvRef> sources;
  std::vector<TvRef> targets;

  /// True when the data lives on the target side of this SMO.
  bool materialized = false;

  /// Physical table names of the aux tables that exist in the current
  /// materialization state, by short name ("T_prime", "IDR", ...).
  std::map<std::string, std::string> aux_names;

  AccessBackend* backend = nullptr;
  IdMemo* memo = nullptr;

  /// The physical aux table `short_name`. Fails if it does not exist in the
  /// current materialization state.
  Result<Table*> Aux(const std::string& short_name) const;

  Sequence& seq() const { return backend->db().sequence(); }

  /// The side data is on / the side that is derived.
  SmoSide data_side() const {
    return materialized ? SmoSide::kTarget : SmoSide::kSource;
  }
  SmoSide virtual_side() const {
    return materialized ? SmoSide::kSource : SmoSide::kTarget;
  }

  const std::vector<TvRef>& side(SmoSide s) const {
    return s == SmoSide::kSource ? sources : targets;
  }
};

/// A mapping kernel implements the executable semantics of one SMO kind:
/// the delta code the paper generates as views (Derive*) and triggers
/// (Propagate). Kernels are stateless; all instance state is in SmoContext.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Short stable kernel name ("identity", "column", ...) for EXPLAIN
  /// output and diagnostics.
  virtual const char* name() const = 0;

  /// True when Derive can mutate shared state (id memos, aux id tables,
  /// the global sequence) — the id-generating kernels assign fresh
  /// identifiers even on the read path. Plans traversing such a kernel are
  /// latched exclusively by the access layer; everything else reads under
  /// shared latches and runs fully in parallel.
  virtual bool DeriveMutates() const { return false; }

  /// True when this kernel is a pure per-row projection over exactly one
  /// inner table version (identity and column mappings): deriving a row
  /// never consults other rows, never filters, and never generates ids.
  /// Such steps are eligible for plan fusion (plan::FuseSteps) — adjacent
  /// projection-only hops collapse into one compiled column layout.
  virtual bool ProjectionOnly() const { return false; }

  /// Derives the content of the `which`-th data table on side `side` (the
  /// non-physical side) from the physical side. With `key`, restricts the
  /// derivation to that key (point lookup); rows are appended to `out`
  /// via Upsert.
  virtual Status Derive(const SmoContext& ctx, SmoSide side, int which,
                        std::optional<int64_t> key, Table* out) const = 0;

  /// Batch read entry point: derives the full content of the `which`-th
  /// table on side `side` into a columnar batch. Kernels whose mapping is
  /// projection- or filter-shaped override this with whole-column
  /// execution; the default falls back to row-at-a-time Derive through a
  /// scratch table, so exotic kernels stay correct without batch code.
  virtual Status DeriveReadBatch(const SmoContext& ctx, SmoSide side,
                                 int which, RowBatch* out) const;

  /// Derives the content of auxiliary table `aux_short_name` (as it would
  /// be if `aux_side` became the data side). Used by migration when the
  /// materialization state flips. Default: aux stays empty.
  virtual Status DeriveAux(const SmoContext& ctx,
                           const std::string& aux_short_name,
                           Table* out) const {
    (void)ctx;
    (void)aux_short_name;
    (void)out;
    return Status::OK();
  }

  /// Propagates `writes` issued against the `which`-th data table on the
  /// *virtual* side `side` to the physical side, maintaining auxiliary
  /// tables. Writes against further-away physical data are routed through
  /// ctx.backend->ApplyToVersion.
  virtual Status Propagate(const SmoContext& ctx, SmoSide side, int which,
                           const WriteSet& writes) const = 0;

  /// Batch write entry point: propagates a whole WriteSet one hop toward
  /// the data side. The default delegates to Propagate (which already
  /// receives the full set); kernels that can transform the set
  /// column-wise override it.
  virtual Status PropagateWriteBatch(const SmoContext& ctx, SmoSide side,
                                     int which, const WriteSet& writes) const {
    return Propagate(ctx, side, which, writes);
  }
};

/// The kernel implementing `kind`, or an error for catalog-only SMOs that
/// never participate in data mapping (CREATE/DROP TABLE). Vertical SMOs
/// (DECOMPOSE/JOIN) are dispatched by their method via KernelForSmo.
Result<const Kernel*> KernelFor(SmoKind kind);

/// The kernel implementing `smo`, dispatching vertical SMOs by their
/// PK / FK / condition method.
Result<const Kernel*> KernelForSmo(const Smo& smo);

// --- shared helpers used by several kernels --------------------------------

/// True if every value of `row` is NULL (the all-ω test of the vertical
/// SMOs).
bool AllNull(const Row& row);

/// A row of `n` NULLs.
Row NullRow(int n);

/// Extracts `row`'s values at `indexes`.
Row Project(const Row& row, const std::vector<int>& indexes);

/// Keyed in-memory snapshot of a relation (commas in template ids break the
/// ASSIGN_OR_RETURN macro, hence the alias).
using RowMap = std::map<int64_t, Row>;

/// Materializes a full table version through the backend into a map.
Result<RowMap> CollectVersion(AccessBackend* backend, TvId tv);

/// Row-major <-> columnar conversions between Table and RowBatch (kept out
/// of RowBatch itself so src/types stays independent of storage).
/// BatchFromTable appends the rows in ascending key order; on a sharded
/// table large enough to amortize the fan-out (ParallelScanEligible) the
/// fill runs shard-parallel over the ScanPool() — same output, same order.
/// With `columns` only those payload columns are copied, in that order.
Status BatchFromTable(const Table& table, RowBatch* out,
                      const std::vector<int>* columns = nullptr);
Status BatchToTable(const RowBatch& batch, Table* out);

/// True when BatchFromTable would take the shard-parallel path for
/// `table`: more than one shard, a pool with workers, and at least
/// ParallelScanMinRows() rows. Exposed so the access layer can count
/// parallel scans without duplicating the policy.
bool ParallelScanEligible(const Table& table);

/// The row threshold below which BatchFromTable stays single-threaded
/// (fan-out has fixed wake-up cost; tiny tables lose). Default 4096;
/// settable for tests and benchmarks.
int64_t ParallelScanMinRows();
void SetParallelScanMinRows(int64_t rows);

}  // namespace inverda

#endif  // INVERDA_MAPPING_SIDE_H_
