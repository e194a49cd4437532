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

/// One composed column operation of a fused run, applied while carrying a
/// tuple from the inner boundary version to the planned version. kNarrow
/// removes the column at `index` (the DROP direction of a column mapping);
/// kWiden inserts column b at `index`, taking the stored per-key value from
/// the physical aux table when present and evaluating the SMO's payload
/// function against the current (narrow) tuple otherwise — exactly the
/// per-hop rule of ColumnKernel, pre-resolved so execution needs no
/// catalog or role lookups. The payload function comes resolved too
/// (WidenFn): a literal is copied, anything else reads only the narrow
/// positions it names, so a batch widen never gathers a whole row.
struct ColumnOp {
  enum class Kind { kNarrow, kWiden };
  Kind kind = Kind::kNarrow;
  int index = 0;          // position of b in the wide payload
  std::string aux_table;  // kWiden: physical B table name
  WidenFn payload;        // kWiden: fallback computation
};

/// The composed projection program of one fused plan step: the column ops
/// of every non-identity hop in the run, in application order (inner
/// version first, planned version last). Identity hops contribute nothing.
struct ColumnProgram {
  int inner_width = 0;  // payload width of the inner boundary version
  std::vector<ColumnOp> ops;
};

/// The marker kernel installed as `PlanStep::kernel` on fused steps, so
/// kernel-keyed consumers (per-kernel span metrics, EXPLAIN's kernel
/// column) see a stable "fused-column" identity. It is never executed —
/// fused steps dispatch to FusedDerive / FusedPropagate instead.
const Kernel* FusedColumnMarker();

/// Collapses maximal runs of projection-only steps (identity and column
/// mappings) in `steps` into single fused steps carrying a composed
/// ColumnProgram. Runs of length >= 2 fuse; a standalone identity step also
/// fuses (rendered fused[1] — the hop is pure elision). A run whose
/// program cannot be composed (e.g. an aux table missing from the current
/// materialization) is left unfused rather than failing the compile.
std::vector<PlanStep> FuseSteps(std::vector<PlanStep> steps);

/// Executes a fused step's read path: one backend access of the inner
/// boundary version plus the composed program, instead of one backend
/// recursion per original hop.
Status FusedDerive(const PlanStep& step, std::optional<int64_t> key,
                   Table* out);

/// Batch form of FusedDerive: scans the inner version into a columnar
/// batch once and applies the program as whole-column inserts/erases;
/// each widened column is built column-wise by BuildWidenColumn.
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
