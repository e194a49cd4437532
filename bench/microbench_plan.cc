// Compiled access plans: kernel fusion vs. hop-by-hop execution.
//
// Builds a single-lineage genealogy of ADD COLUMN evolutions and times
// point reads at the virtual head for propagation distances 1..16 in two
// configurations. Both serve every access from the epoch-pinned plan
// cache. "unfused" executes hop by hop (fusion and batching off). "fused"
// collapses the projection-only run into one fused step (plan/fused.h), so
// a read at depth d performs one inner access plus d column ops instead of
// d recursive derivations — the curve bends from linear-in-d toward flat.
// The derived-view cache is off in both so reads really traverse the
// chain.
//
//   microbench_plan [--quick] [--json <file>]
//
// Exits non-zero when the configurations disagree on read results; the
// speedup verdicts are printed but not fatal (sanitizer CI runs this
// binary too, and instrumented timings are not meaningful).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "inverda/inverda.h"

using inverda::bench::CheckOk;
using inverda::bench::InitBench;
using inverda::bench::PrintHeader;
using inverda::bench::ScaledInt;
using inverda::bench::TimeMs;

namespace {

constexpr int kRows = 16;

struct DepthResult {
  int depth = 0;
  double compiled_ns = 0;    // fusion/batching off
  double fused_ns = 0;       // fusion + batching on
  double fused_speedup = 0;  // compiled / fused
  // Per-kernel span aggregates over the timed windows (JSON objects, see
  // bench::KernelSpansJson). The fused window accounts per *fused* step:
  // the whole run lands under kernel.fused-column.*.
  std::string kernel_spans;
  std::string fused_kernel_spans;
};

// One lineage: materialized base, then `depth` chained ADD COLUMN
// evolutions; reads at the head resolve backward through `depth` SMOs.
std::string BuildChain(inverda::Inverda* db, int depth) {
  CheckOk(db->Execute(
              "CREATE SCHEMA VERSION P0 WITH CREATE TABLE tab(k0 INT, v0 TEXT);"),
          "create base");
  std::string prev = "P0";
  for (int j = 1; j <= depth; ++j) {
    std::string next = "P" + std::to_string(j);
    CheckOk(db->Execute("CREATE SCHEMA VERSION " + next + " FROM " + prev +
                        " WITH ADD COLUMN c" + std::to_string(j) +
                        " INT AS k0 + " + std::to_string(j) + " INTO tab;"),
            "evolve");
    prev = next;
  }
  return prev;
}

DepthResult RunDepth(int depth, int reps) {
  inverda::Inverda db;
  const std::string head = BuildChain(&db, depth);
  std::vector<int64_t> keys;
  for (int i = 0; i < kRows; ++i) {
    keys.push_back(CheckOk(
        db.Insert("P0", "tab",
                  {inverda::Value::Int(i), inverda::Value::String("r")}),
        "insert"));
  }
  db.access().set_cache_enabled(false);  // view cache would hide the chain

  auto read_all = [&]() {
    for (int64_t key : keys) {
      CheckOk(db.Get(head, "tab", key).status(), "get");
    }
  };

  // Both configurations must see the same rows.
  std::vector<inverda::KeyedRow> fused_rows =
      CheckOk(db.Select(head, "tab"), "select fused");
  db.access().set_fusion_enabled(false);
  db.access().set_batch_enabled(false);
  std::vector<inverda::KeyedRow> compiled_rows =
      CheckOk(db.Select(head, "tab"), "select compiled");
  if (compiled_rows.size() != fused_rows.size()) {
    std::fprintf(stderr, "depth %d: row counts differ across configs\n",
                 depth);
    std::exit(1);
  }
  for (size_t i = 0; i < compiled_rows.size(); ++i) {
    if (compiled_rows[i].key != fused_rows[i].key ||
        !inverda::RowsEqual(compiled_rows[i].row, fused_rows[i].row)) {
      std::fprintf(stderr, "depth %d: rows differ across configs\n", depth);
      std::exit(1);
    }
  }

  DepthResult result;
  result.depth = depth;

  // Hop-by-hop compiled plans (fusion and batching stay off).
  read_all();  // warm storage; compile + cache the plans once
  db.ResetMetrics();  // aggregate spans over the timed window only
  db.Metrics().set_timing_enabled(true);
  result.compiled_ns = TimeMs(reps, read_all) * 1e6 / kRows;
  result.kernel_spans =
      inverda::bench::KernelSpansJson(db.Metrics().Snapshot());
  db.Metrics().set_timing_enabled(false);

  // Fused plans: the projection-only run executes as one composed step.
  db.access().set_fusion_enabled(true);
  db.access().set_batch_enabled(true);
  read_all();  // recompile + cache the fused plans once
  db.ResetMetrics();
  db.Metrics().set_timing_enabled(true);
  result.fused_ns = TimeMs(reps, read_all) * 1e6 / kRows;
  result.fused_kernel_spans =
      inverda::bench::KernelSpansJson(db.Metrics().Snapshot());

  result.fused_speedup =
      result.fused_ns > 0 ? result.compiled_ns / result.fused_ns : 0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  const int reps = ScaledInt("INVERDA_PLAN_REPS", 200);

  PrintHeader("microbench_plan: compiled plans, unfused vs fused");
  std::printf("%6s  %14s  %14s  %8s\n", "depth", "unfused ns/op",
              "fused ns/op", "fuse spd");

  std::vector<DepthResult> results;
  for (int depth : {1, 2, 4, 8, 16}) {
    DepthResult r = RunDepth(depth, reps);
    std::printf("%6d  %14.0f  %14.0f  %7.2fx\n", r.depth, r.compiled_ns,
                r.fused_ns, r.fused_speedup);
    results.push_back(r);
  }

  bool fused_2x_at_depth16 = false;
  for (const DepthResult& r : results) {
    if (r.depth == 16 && r.fused_speedup >= 2.0) fused_2x_at_depth16 = true;
  }
  // Curve bending: fused cost grows sub-linearly in depth (the whole run
  // is one inner access + d column ops, not d recursive derivations).
  const double fused_growth =
      results.front().fused_ns > 0
          ? results.back().fused_ns / results.front().fused_ns
          : 0;
  const double unfused_growth =
      results.front().compiled_ns > 0
          ? results.back().compiled_ns / results.front().compiled_ns
          : 0;
  std::printf("\nverdict: fusion %s 2x over unfused at depth 16 (%.2fx)\n",
              fused_2x_at_depth16 ? ">=" : "NOT >=",
              results.back().fused_speedup);
  std::printf("depth 1 -> 16 cost growth: unfused %.1fx, fused %.1fx\n",
              unfused_growth, fused_growth);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\"bench\":\"microbench_plan\",\"reps\":" << reps
        << ",\"rows\":" << kRows << ",\"depths\":[";
    for (size_t i = 0; i < results.size(); ++i) {
      const DepthResult& r = results[i];
      out << (i ? "," : "") << "{\"depth\":" << r.depth
          << ",\"compiled_ns\":" << r.compiled_ns
          << ",\"fused_ns\":" << r.fused_ns
          << ",\"fused_speedup\":" << r.fused_speedup
          << ",\"kernel_spans\":" << r.kernel_spans
          << ",\"fused_kernel_spans\":" << r.fused_kernel_spans << "}";
    }
    out << "],\"fused_2x_at_depth16\":"
        << (fused_2x_at_depth16 ? "true" : "false")
        << ",\"fused_growth_1_to_16\":" << fused_growth
        << ",\"unfused_growth_1_to_16\":" << unfused_growth << "}\n";
  }
  return 0;
}
