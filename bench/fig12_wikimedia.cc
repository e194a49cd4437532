// Figure 12 reproduction: optimization potential on the Wikimedia-like
// history. Data lives at the 109th version; queries on the 28th and the
// 171st version are measured under materializations matching the 1st, the
// 109th, and the 171st version. Each cell is the mean of three Selects
// after one untimed warm-up Select, so plan compile and the first derive
// after the MATERIALIZE stay out of the cell.
//
//   fig12_wikimedia [--quick] [--json <file>]

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workload/wikimedia.h"

using inverda::bench::CheckOk;
using inverda::bench::ScaledInt;
using inverda::bench::TimeMs;
using inverda::MaterializeRequest;

int main(int argc, char** argv) {
  inverda::bench::InitBench(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  int pages = ScaledInt("INVERDA_FIG12_PAGES", 400);
  int links = ScaledInt("INVERDA_FIG12_LINKS", 600);

  inverda::WikimediaOptions options;
  inverda::WikimediaScenario scenario =
      CheckOk(BuildWikimedia(options), "build");
  CheckOk(LoadWikimediaData(&scenario, /*version_index=*/108, pages, links,
                            /*seed=*/3),
          "load");
  inverda::Inverda& db = *scenario.db;

  const int query_versions[] = {27, 170};   // v04619 / v25635 stand-ins
  const int mat_versions[] = {0, 108, 170};  // v01284 / v16524 / v25636

  inverda::bench::PrintHeader(
      "Figure 12: Wikimedia optimization potential (QET in ms)");
  std::printf("%d pages, %d links loaded at %s\n\n", pages, links,
              scenario.versions[108].c_str());
  std::printf("%-22s", "queries on \\ mat.");
  for (int mv : mat_versions) {
    std::printf(" %12s", scenario.versions[static_cast<size_t>(mv)].c_str());
  }
  std::printf("\n");

  double local_28 = 0, far_28 = 0, local_171 = 0, far_171 = 0;
  std::vector<std::vector<double>> cells;
  for (int qv : query_versions) {
    cells.emplace_back();
    // Re-materialize per row (migrating back between measurements).
    std::printf("%-22s", scenario.versions[static_cast<size_t>(qv)].c_str());
    for (int mv : mat_versions) {
      CheckOk(db.Materialize(MaterializeRequest::Targets({scenario.versions[static_cast<size_t>(mv)]})),
              "materialize");
      const std::string& version =
          scenario.versions[static_cast<size_t>(qv)];
      const std::string& table =
          scenario.page_table[static_cast<size_t>(qv)];
      auto query = [&] { CheckOk(db.Select(version, table), "query"); };
      query();  // warm-up: plan compile and first derive
      double ms = TimeMs(3, query);
      std::printf(" %12.2f", ms);
      cells.back().push_back(ms);
      if (qv == 27 && mv == 0) local_28 = ms;
      if (qv == 27 && mv == 170) far_28 = ms;
      if (qv == 170 && mv == 170) local_171 = ms;
      if (qv == 170 && mv == 0) far_171 = ms;
    }
    std::printf("\n");
  }
  std::printf("\nspeedup of matching the materialization to the queried "
              "version: v028 %.1fx, v171 %.1fx\n",
              far_28 / std::max(local_28, 1e-9),
              far_171 / std::max(local_171, 1e-9));
  std::printf("(expected shape: large gains for queries on the far end of "
              "the genealogy)\n");

  // Kernel fusion on the worst cell of the matrix: the far query (the
  // 171st version under the 1st version's materialization) traverses the
  // longest chain, so it gains the most from collapsing projection-only
  // runs into fused steps and scanning columnar (plan/fused.h).
  CheckOk(db.Materialize(MaterializeRequest::Targets({scenario.versions[0]})), "materialize");
  const std::string& far_version = scenario.versions[170];
  const std::string& far_table = scenario.page_table[170];
  auto far_query = [&] {
    CheckOk(db.Select(far_version, far_table), "far query");
  };
  db.access().set_fusion_enabled(false);
  db.access().set_batch_enabled(false);
  far_query();  // warm
  double unfused_ms = TimeMs(3, far_query);
  db.access().set_fusion_enabled(true);
  db.access().set_batch_enabled(true);
  far_query();  // recompile fused plans
  double fused_ms = TimeMs(3, far_query);
  std::printf("\nfusion on the far query (%s under %s materialization): "
              "unfused %.2f ms, fused %.2f ms (%.2fx)\n", far_version.c_str(),
              scenario.versions[0].c_str(), unfused_ms, fused_ms,
              unfused_ms / std::max(fused_ms, 1e-9));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\"bench\":\"fig12_wikimedia\",\"pages\":" << pages
        << ",\"links\":" << links << ",\"cells_ms\":[";
    for (size_t q = 0; q < cells.size(); ++q) {
      out << (q ? "," : "") << "{\"query\":\""
          << scenario.versions[static_cast<size_t>(query_versions[q])]
          << "\"";
      for (size_t m = 0; m < cells[q].size(); ++m) {
        out << ",\""
            << scenario.versions[static_cast<size_t>(mat_versions[m])]
            << "\":" << cells[q][m];
      }
      out << "}";
    }
    out << "],\"speedup_v028\":" << far_28 / std::max(local_28, 1e-9)
        << ",\"speedup_v171\":" << far_171 / std::max(local_171, 1e-9)
        << ",\"far_unfused_ms\":" << unfused_ms
        << ",\"far_fused_ms\":" << fused_ms << "}\n";
  }
  return 0;
}
