// Ablation for the paper's future-work item (4), "optimized delta code":
// the derived-view cache in the access layer. Compares two invalidation
// policies under a mixed 90/10 read/write workload over many independent
// lineages:
//
//   clear-all   drop every cached view on any write or migration (the
//               original stub behaviour; emulated here by calling
//               AccessLayer::InvalidateCache after each write and at the
//               end of the migration)
//   genealogy   drop only the views whose derivation path intersects the
//               write's physical footprint / the flipped SMO instances
//               (the access layer's policy)
//
// With writes confined to one lineage, genealogy-scoped invalidation keeps
// the other lineages' cached views warm, while clear-all recomputes them
// after every write.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "inverda/inverda.h"
#include "util/random.h"

using inverda::bench::CheckOk;
using inverda::bench::InitBench;
using inverda::bench::ScaledInt;
using inverda::bench::TimeMs;
using inverda::MaterializeRequest;

namespace {

constexpr const char* kTable = "tab";

struct Lineage {
  std::string base;  // materialized base version
  std::string head;  // virtual head version (reads recompute / cache)
};

// `count` disconnected genealogies, each a chain of `depth` ADD COLUMN
// evolutions on one table.
std::vector<Lineage> BuildGenealogy(inverda::Inverda* db, int count,
                                    int depth) {
  std::vector<Lineage> lineages;
  for (int i = 0; i < count; ++i) {
    std::string base = "B" + std::to_string(i);
    CheckOk(db->Execute("CREATE SCHEMA VERSION " + base +
                        " WITH CREATE TABLE tab(k0 INT, v0 TEXT);"),
            "create base");
    std::string prev = base;
    for (int j = 1; j <= depth; ++j) {
      std::string next = base + "v" + std::to_string(j);
      CheckOk(db->Execute("CREATE SCHEMA VERSION " + next + " FROM " + prev +
                          " WITH ADD COLUMN c" + std::to_string(j) +
                          " INT AS k0 + " + std::to_string(j) + " INTO tab;"),
              "evolve");
      prev = next;
    }
    lineages.push_back({base, prev});
  }
  return lineages;
}

inverda::Row RandomRow(inverda::Random* rng) {
  return {inverda::Value::Int(rng->NextInt64(0, 999)),
          inverda::Value::String(rng->NextString(8))};
}

struct MixedResult {
  double ms = 0;
  long long hits = 0;
  long long misses = 0;
  long long invalidations = 0;

  double hit_rate() const {
    long long total = hits + misses;
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

// The mixed workload: 90% scans of a random lineage's head version, 10%
// inserts into lineage 0's base. Starts cold, warms every head once, then
// measures steady state. `clear_all` drops every cached view after each
// write on top of the access layer's own genealogy-scoped invalidation.
MixedResult RunMixed(inverda::Inverda* db,
                     const std::vector<Lineage>& lineages, int ops,
                     uint64_t seed, bool clear_all) {
  inverda::Random rng(seed);
  inverda::AccessLayer& access = db->access();
  access.InvalidateCache();
  for (const Lineage& l : lineages) {
    CheckOk(db->Select(l.head, kTable), "warm");
  }
  db->ResetMetrics();
  MixedResult result;
  result.ms = TimeMs(1, [&] {
    for (int i = 0; i < ops; ++i) {
      if (rng.NextUint64(10) == 0) {
        CheckOk(db->Insert(lineages[0].base, kTable, RandomRow(&rng)),
                "write");
        if (clear_all) access.InvalidateCache();
      } else {
        const Lineage& l = lineages[rng.NextUint64(lineages.size())];
        CheckOk(db->Select(l.head, kTable), "read");
      }
    }
  });
  result.hits = db->Metrics().value("view_cache.hits");
  result.misses = db->Metrics().value("view_cache.misses");
  result.invalidations = db->Metrics().value("view_cache.invalidations");
  return result;
}

// One MATERIALIZE of lineage 1's head with every head cached: reports how
// many cached views the migration evicts (`clear_all`: every view left
// after its flip is dropped too, as a clear-all flip would; dropping them
// before it instead would make the migration's own backfill read miss and
// refill the cache).
long long MigrationEvictions(inverda::Inverda* db,
                             const std::vector<Lineage>& lineages,
                             const std::string& target, bool clear_all) {
  inverda::AccessLayer& access = db->access();
  access.InvalidateCache();
  for (const Lineage& l : lineages) {
    CheckOk(db->Select(l.head, kTable), "warm");
  }
  db->ResetMetrics();
  CheckOk(db->Materialize(MaterializeRequest::Targets({target})), "materialize");
  if (clear_all) access.InvalidateCache();
  return db->Metrics().value("view_cache.invalidations");
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv);
  int lineage_count = ScaledInt("INVERDA_CACHE_LINEAGES", 10);
  int depth = ScaledInt("INVERDA_CACHE_DEPTH", 3);
  int rows = ScaledInt("INVERDA_CACHE_ROWS", 300);
  int ops = ScaledInt("INVERDA_CACHE_OPS", 600);
  if (lineage_count < 4) lineage_count = 4;  // the contrast needs spread
  if (depth < 1) depth = 1;

  inverda::bench::PrintHeader(
      "Ablation: view-cache invalidation policy (clear-all vs genealogy)");
  std::printf(
      "%d lineages x depth %d, %d rows each; %d mixed ops "
      "(90%% head scans, 10%% writes into lineage 0)\n\n",
      lineage_count, depth, rows, ops);

  inverda::Inverda db;
  std::vector<Lineage> lineages = BuildGenealogy(&db, lineage_count, depth);
  inverda::Random rng(7);
  for (const Lineage& l : lineages) {
    for (int r = 0; r < rows; ++r) {
      CheckOk(db.Insert(l.base, kTable, RandomRow(&rng)), "populate");
    }
  }
  db.access().set_cache_enabled(true);

  // Uncached baseline for scale.
  db.access().set_cache_enabled(false);
  double no_cache_ms = TimeMs(1, [&] {
    inverda::Random r(11);
    for (int i = 0; i < ops; ++i) {
      const Lineage& l = lineages[r.NextUint64(lineages.size())];
      CheckOk(db.Select(l.head, kTable), "read");
    }
  });
  db.access().set_cache_enabled(true);

  MixedResult clear_all = RunMixed(&db, lineages, ops, 13, true);
  MixedResult genealogy = RunMixed(&db, lineages, ops, 13, false);

  std::printf("no cache (reads only):  %8.2f ms\n", no_cache_ms);
  std::printf(
      "clear-all:   %8.2f ms   hit rate %5.1f%%   (%lld hits / %lld misses "
      "/ %lld evictions)\n",
      clear_all.ms, clear_all.hit_rate(), clear_all.hits, clear_all.misses,
      clear_all.invalidations);
  std::printf(
      "genealogy:   %8.2f ms   hit rate %5.1f%%   (%lld hits / %lld misses "
      "/ %lld evictions)\n",
      genealogy.ms, genealogy.hit_rate(), genealogy.hits, genealogy.misses,
      genealogy.invalidations);

  // Migration: flipping one lineage's SMOs must not evict the others.
  long long evict_all =
      MigrationEvictions(&db, lineages, lineages[1].head, true);
  CheckOk(db.Materialize(MaterializeRequest::Targets({lineages[1].base})), "restore");
  long long evict_scoped =
      MigrationEvictions(&db, lineages, lineages[1].head, false);
  CheckOk(db.Materialize(MaterializeRequest::Targets({lineages[1].base})), "restore");
  std::printf(
      "\nMATERIALIZE %s with %d cached heads evicts: clear-all %lld, "
      "genealogy %lld\n",
      lineages[1].head.c_str(), lineage_count, evict_all, evict_scoped);

  // Correctness spot check: cached and uncached views agree after writes.
  CheckOk(db.Insert(lineages[0].base, kTable, RandomRow(&rng)),
          "post write");
  size_t cached = CheckOk(db.Select(lineages[0].head, kTable), "read").size();
  db.access().set_cache_enabled(false);
  size_t uncached =
      CheckOk(db.Select(lineages[0].head, kTable), "read").size();
  bool consistent = cached == uncached;
  bool contrast = genealogy.hit_rate() >= 50.0 &&
                  genealogy.hit_rate() > clear_all.hit_rate();
  std::printf("consistency check (cached == uncached view): %s\n",
              consistent ? "PASS" : "FAIL");
  std::printf("invalidation contrast (genealogy >= 50%% and > clear-all): %s\n",
              contrast ? "PASS" : "FAIL");
  return consistent && contrast ? 0 : 1;
}
