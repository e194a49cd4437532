#ifndef INVERDA_PLAN_FUSED_H_
#define INVERDA_PLAN_FUSED_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mapping/kernels.h"
#include "plan/plan.h"
#include "util/status.h"

namespace inverda {
namespace plan {

/// Where one column of a fused run's output, or one cell a widen reads,
/// comes from: a column of the projected inner scan (`index` into
/// ColumnLayout::inner_reads) or a widen built earlier in the same layout
/// (`index` into ColumnLayout::widens).
struct ColumnSource {
  enum class Kind { kInner, kWiden };
  Kind kind = Kind::kInner;
  int index = 0;

  bool operator==(const ColumnSource& other) const {
    return kind == other.kind && index == other.index;
  }
};

/// One widened column the layout builds: column b of an ADD/DROP COLUMN
/// hop, taken per key from the physical aux table when stored there and
/// computed by the hop's payload function otherwise — the per-hop rule of
/// ColumnKernel, pre-resolved so execution needs no catalog lookups.
struct WidenBuild {
  std::string aux_table;  // physical B table name
  WidenFn payload;        // payload.reads: narrow positions `fn` reads
  // The source of each payload.reads cell (same order), so the function
  // evaluates without the narrow payload ever being assembled.
  std::vector<ColumnSource> reads;
  // A later hop drops the column and no kept widen reads it. It is still
  // built because its non-literal payload can fail, and the read's Status
  // must be the unfused chain's; the column itself is discarded.
  bool dead = false;
};

/// The output layout of one fused run: which inner-version columns the
/// planned version can ever need, which widens to build from them, and
/// where each planned column comes from. Compiled once from the run's hops
/// (inner version first); executing it is one projected scan of the inner
/// version, one column build per widen, and whole-column moves — no
/// column is copied, built or erased only to be dropped by a later hop.
struct ColumnLayout {
  int inner_width = 0;  // payload width of the inner boundary version
  // Ascending inner positions the planned version shows or a kept widen
  // reads; the inner version is scanned projected onto these.
  std::vector<int> inner_reads;
  std::vector<WidenBuild> widens;     // in program order (inner first)
  std::vector<ColumnSource> output;   // one per planned-version column
  int dead_dropped = 0;  // literal widens whose column a later hop drops

  /// "reads k/n inner columns, builds w widens (d dead dropped)", the line
  /// EXPLAIN and TRACE print for a fused step.
  std::string Summary() const;
};

/// The marker kernel installed as `PlanStep::kernel` on fused steps, so
/// kernel-keyed consumers (per-kernel span metrics, EXPLAIN's kernel
/// column) see a stable "fused-column" identity. It is never executed —
/// fused steps dispatch to FusedDerive / FusedPropagate instead.
const Kernel* FusedColumnMarker();

/// Collapses maximal runs of projection-only steps (identity and column
/// mappings) in `steps` into single fused steps carrying a composed
/// ColumnLayout. Runs of length >= 2 fuse; a standalone identity step also
/// fuses (rendered fused[1] — the hop is pure elision). A run whose
/// layout cannot be compiled (e.g. an aux table missing from the current
/// materialization) is left unfused rather than failing the compile.
std::vector<PlanStep> FuseSteps(std::vector<PlanStep> steps);

/// Executes a fused step's read path: one backend access of the inner
/// boundary version plus the layout's widens, instead of one backend
/// recursion per original hop. A point read assembles the output row
/// from the inner row by the same layout.
Status FusedDerive(const PlanStep& step, std::optional<int64_t> key,
                   Table* out);

/// Batch form of FusedDerive: scans the inner version projected onto the
/// layout's inner_reads, builds each kept widen column-wise
/// (BuildWidenColumn) from its mapped sources, and assembles `out` (which
/// must be empty) by whole-column moves.
Status FusedDeriveBatch(const PlanStep& step, RowBatch* out);

/// Executes a fused step's write path: replays the original kernels'
/// Propagate hop by hop, short-circuiting the intermediate versions with a
/// capturing backend so only the innermost hop reaches the real backend.
/// The per-hop transformation sequence (aux-table maintenance included) is
/// byte-identical to the unfused recursion.
Status FusedPropagate(const PlanStep& step, const WriteSet& writes);

}  // namespace plan
}  // namespace inverda

#endif  // INVERDA_PLAN_FUSED_H_
