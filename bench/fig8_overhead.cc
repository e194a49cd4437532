// Figure 8 reproduction: query execution time of InVerDa's generated delta
// code versus the handwritten baseline, for reads on TasKy / TasKy2 and 100
// writes on each, under the initial and the evolved materialization.
//
//   fig8_overhead [--quick] [--json <file>]
//
// The JSON artifact carries, next to each generated-code cell, the
// per-kernel span aggregates of that cell's measurement window.
//
// A size sweep then re-measures the 100 TasKy2 writes under the initial
// materialization at 2.5k-40k tasks (n and 4n under --quick), the case
// where every write propagates through DECOMPOSE ON FK. Its verdict: the
// writes at 4n cost at most 1.5x those at n, i.e. write propagation is
// key-scoped. The binary exits 1 when the verdict fails.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "handwritten/reference_sql.h"
#include "handwritten/tasky_handwritten.h"
#include "inverda/inverda.h"
#include "workload/tasky.h"

using inverda::Value;
using inverda::bench::CheckOk;
using inverda::bench::ScaledInt;
using inverda::bench::TimeMs;
using inverda::MaterializeRequest;

namespace {

struct Cell {
  double read_tasky = 0;
  double read_tasky2 = 0;
  double writes_tasky = 0;
  double writes_tasky2 = 0;
  // Per-kernel span aggregates of the generated-code measurement window
  // (JSON object; empty for the handwritten baseline, which has no
  // kernels).
  std::string kernel_spans = "{}";
};

// The Fig. 8 write cells: 100 inserts into TasKy2.Task. Generated code
// takes the author keys an application would have cached.
void HundredTasky2Writes(inverda::Inverda& db, inverda::Random* rng,
                         const std::vector<inverda::KeyedRow>& authors) {
  for (int i = 0; i < 100; ++i) {
    inverda::Row task_row = RandomTaskRow(rng, 50);
    int64_t fk = authors[rng->NextUint64(authors.size())].key;
    CheckOk(db.Insert("TasKy2", "Task",
                      {task_row[1], task_row[2], Value::Int(fk)}),
            "write TasKy2");
  }
}

void HundredHandwrittenTasky2Writes(inverda::HandwrittenTasky& hw,
                                    inverda::Random* rng) {
  for (int i = 0; i < 100; ++i) {
    inverda::Row r = RandomTaskRow(rng, 50);
    CheckOk(hw.InsertTasKy2(r[1].AsString(), r[2].AsInt(), r[0].AsString()),
            "hw write TasKy2");
  }
}

// The handwritten baseline loaded with `tasks` tasks drawn from `rng`.
std::unique_ptr<inverda::HandwrittenTasky> LoadHandwritten(
    int tasks, bool evolved, inverda::Random* rng) {
  using HW = inverda::HandwrittenTasky;
  auto hw = std::make_unique<HW>(evolved ? HW::Materialization::kTasKy2
                                         : HW::Materialization::kTasKy);
  std::vector<HW::TaskRow> rows;
  rows.reserve(static_cast<size_t>(tasks));
  for (int i = 0; i < tasks; ++i) {
    inverda::Row r = RandomTaskRow(rng, 50);
    rows.push_back({0, r[0].AsString(), r[1].AsString(), r[2].AsInt()});
  }
  CheckOk(hw->Load(rows), "load handwritten");
  return hw;
}

Cell MeasureInverda(int tasks, bool evolved) {
  inverda::TaskyOptions options;
  options.num_tasks = tasks;
  inverda::TaskyScenario scenario =
      CheckOk(BuildTasky(options), "build tasky");
  inverda::Inverda& db = *scenario.db;
  if (evolved) CheckOk(db.Materialize(MaterializeRequest::Targets({"TasKy2"})), "materialize");
  db.ResetMetrics();  // spans aggregate over this cell's measurements only
  db.Metrics().set_timing_enabled(true);

  Cell cell;
  int read_reps = 5;
  cell.read_tasky = TimeMs(read_reps, [&] {
    CheckOk(db.Select("TasKy", "Task"), "read TasKy");
  });
  cell.read_tasky2 = TimeMs(read_reps, [&] {
    CheckOk(db.Select("TasKy2", "Task"), "read TasKy2");
  });
  inverda::Random rng(7);
  cell.writes_tasky = TimeMs(1, [&] {
    for (int i = 0; i < 100; ++i) {
      CheckOk(db.Insert("TasKy", "Task", RandomTaskRow(&rng, 50)),
              "write TasKy");
    }
  });
  // TasKy2's Task wants (task, prio, author-fk); resolve the author keys
  // once, as an application would cache them.
  std::vector<inverda::KeyedRow> authors =
      CheckOk(db.Select("TasKy2", "Author"), "authors");
  cell.writes_tasky2 =
      TimeMs(1, [&] { HundredTasky2Writes(db, &rng, authors); });
  cell.kernel_spans = inverda::bench::KernelSpansJson(db.Metrics().Snapshot());
  return cell;
}

Cell MeasureHandwritten(int tasks, bool evolved) {
  inverda::Random rng(42);
  std::unique_ptr<inverda::HandwrittenTasky> loaded =
      LoadHandwritten(tasks, evolved, &rng);
  inverda::HandwrittenTasky& hw = *loaded;

  Cell cell;
  int read_reps = 5;
  cell.read_tasky = TimeMs(read_reps, [&] {
    CheckOk(hw.ReadTasKy(), "hw read TasKy");
  });
  cell.read_tasky2 = TimeMs(read_reps, [&] {
    CheckOk(hw.ReadTasKy2(), "hw read TasKy2");
  });
  cell.writes_tasky = TimeMs(1, [&] {
    for (int i = 0; i < 100; ++i) {
      inverda::Row r = RandomTaskRow(&rng, 50);
      CheckOk(hw.InsertTasKy(r[0].AsString(), r[1].AsString(), r[2].AsInt()),
              "hw write TasKy");
    }
  });
  cell.writes_tasky2 =
      TimeMs(1, [&] { HundredHandwrittenTasky2Writes(hw, &rng); });
  return cell;
}

// One point of the size sweep: 100 TasKy2 writes under the initial
// materialization on `tasks` tasks, generated and handwritten, each the
// best of kSweepReps batches.
struct SweepPoint {
  int tasks = 0;
  double generated_ms = std::numeric_limits<double>::infinity();
  double handwritten_ms = std::numeric_limits<double>::infinity();
};

constexpr int kSweepReps = 7;

// Loads one scenario per size, then times the batches round-robin across
// the sizes: a shared machine's speed can drift over seconds, and
// interleaving makes every size see the same drift, so the n-vs-4n ratio
// compares like with like.
std::vector<SweepPoint> MeasureSweep(const std::vector<int>& sizes) {
  struct Loaded {
    inverda::TaskyScenario scenario;
    std::vector<inverda::KeyedRow> authors;
    inverda::Random rng{7};
    inverda::Random hw_rng{42};
    std::unique_ptr<inverda::HandwrittenTasky> hw;
  };
  std::vector<Loaded> loaded(sizes.size());
  std::vector<SweepPoint> sweep(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    inverda::TaskyOptions options;
    options.num_tasks = sizes[i];
    loaded[i].scenario = CheckOk(BuildTasky(options), "build tasky");
    inverda::Inverda& db = *loaded[i].scenario.db;
    // As in the Fig. 8 cell: TasKy2 has been read, so every task has its
    // author id assigned before the writes start.
    CheckOk(db.Select("TasKy2", "Task"), "read TasKy2");
    loaded[i].authors = CheckOk(db.Select("TasKy2", "Author"), "authors");
    loaded[i].hw =
        LoadHandwritten(sizes[i], /*evolved=*/false, &loaded[i].hw_rng);
    sweep[i].tasks = sizes[i];
  }
  for (int rep = 0; rep < kSweepReps; ++rep) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      Loaded& l = loaded[i];
      sweep[i].generated_ms = std::min(
          sweep[i].generated_ms, TimeMs(1, [&] {
            HundredTasky2Writes(*l.scenario.db, &l.rng, l.authors);
          }));
      sweep[i].handwritten_ms = std::min(
          sweep[i].handwritten_ms,
          TimeMs(1, [&] { HundredHandwrittenTasky2Writes(*l.hw, &l.hw_rng); }));
    }
  }
  return sweep;
}

void PrintRow(const char* label, const Cell& cell) {
  std::printf("%-34s %10.2f %12.2f %14.2f %15.2f\n", label, cell.read_tasky,
              cell.read_tasky2, cell.writes_tasky, cell.writes_tasky2);
}

}  // namespace

void PrintJsonCell(std::ofstream& out, const char* key, const Cell& cell) {
  out << "\"" << key << "\":{\"read_tasky_ms\":" << cell.read_tasky
      << ",\"read_tasky2_ms\":" << cell.read_tasky2
      << ",\"writes_tasky_ms\":" << cell.writes_tasky
      << ",\"writes_tasky2_ms\":" << cell.writes_tasky2
      << ",\"kernel_spans\":" << cell.kernel_spans << "}";
}

int main(int argc, char** argv) {
  inverda::bench::InitBench(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  int tasks = ScaledInt("INVERDA_FIG8_TASKS", 10000);
  inverda::bench::PrintHeader("Figure 8: overhead of generated delta code");
  std::printf("TasKy with %d tasks; QET in ms\n\n", tasks);
  std::printf("%-34s %10s %12s %14s %15s\n", "", "read TasKy", "read TasKy2",
              "100 wr TasKy", "100 wr TasKy2");

  Cell hw_initial = MeasureHandwritten(tasks, /*evolved=*/false);
  PrintRow("handwritten, initial mat.", hw_initial);
  Cell gen_initial = MeasureInverda(tasks, /*evolved=*/false);
  PrintRow("BiDEL generated, initial mat.", gen_initial);
  Cell hw_evolved = MeasureHandwritten(tasks, /*evolved=*/true);
  PrintRow("handwritten, evolved mat.", hw_evolved);
  Cell gen_evolved = MeasureInverda(tasks, /*evolved=*/true);
  PrintRow("BiDEL generated, evolved mat.", gen_evolved);

  // Shape checks: the materialized version is the faster one to read.
  bool locality =
      gen_initial.read_tasky < gen_initial.read_tasky2 &&
      gen_evolved.read_tasky2 < gen_evolved.read_tasky;
  std::printf("\nshape check (reading the materialized version is faster): "
              "%s\n",
              locality ? "PASS" : "FAIL");

  // Size sweep: n and 4n under --quick, 2.5k-40k tasks otherwise.
  std::vector<int> sizes = inverda::bench::QuickMode()
                               ? std::vector<int>{tasks, 4 * tasks}
                               : std::vector<int>{2500, 5000, 10000, 20000,
                                                  40000};
  std::printf("\nsize sweep: 100 wr TasKy2, initial mat., best of %d; ms\n",
              kSweepReps);
  std::printf("%10s %12s %12s %14s\n", "tasks", "generated", "handwritten",
              "gen us/write");
  std::vector<SweepPoint> sweep = MeasureSweep(sizes);
  for (const SweepPoint& p : sweep) {
    std::printf("%10d %12.3f %12.3f %14.2f\n", p.tasks, p.generated_ms,
                p.handwritten_ms, p.generated_ms * 10.0);
  }
  // Verdict over every (n, 4n) pair of the sweep.
  double worst_ratio = 0;
  for (const SweepPoint& small : sweep) {
    for (const SweepPoint& large : sweep) {
      if (large.tasks != 4 * small.tasks) continue;
      worst_ratio =
          std::max(worst_ratio, large.generated_ms / small.generated_ms);
    }
  }
  const bool flat = worst_ratio <= 1.5;
  std::printf("sweep check (100 TasKy2 writes at 4n cost <= 1.5x those at n; "
              "worst 4n/n = %.2f): %s\n",
              worst_ratio, flat ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\"bench\":\"fig8_overhead\",\"tasks\":" << tasks << ",";
    PrintJsonCell(out, "handwritten_initial", hw_initial);
    out << ",";
    PrintJsonCell(out, "generated_initial", gen_initial);
    out << ",";
    PrintJsonCell(out, "handwritten_evolved", hw_evolved);
    out << ",";
    PrintJsonCell(out, "generated_evolved", gen_evolved);
    out << ",\"locality_shape_check\":" << (locality ? "true" : "false")
        << ",\"size_sweep\":[";
    for (size_t i = 0; i < sweep.size(); ++i) {
      if (i) out << ",";
      out << "{\"tasks\":" << sweep[i].tasks
          << ",\"generated_writes_tasky2_ms\":" << sweep[i].generated_ms
          << ",\"handwritten_writes_tasky2_ms\":" << sweep[i].handwritten_ms
          << "}";
    }
    out << "],\"sweep_worst_4n_over_n\":" << worst_ratio
        << ",\"sweep_flat_check\":" << (flat ? "true" : "false") << "}\n";
  }
  return flat ? 0 : 1;
}
