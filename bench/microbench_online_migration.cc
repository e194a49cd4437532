// Online-migration microbenchmark: client-visible latency while MATERIALIZE
// runs, stop-the-world vs online (docs/migration.md).
//
// Two identical databases (a four-version column-only chain with a seeded
// base table) each host one client thread doing alternating derived reads
// and base writes. One database migrates with the blocking Materialize —
// the coordinator's inline schedule, one exclusive window, so the client op
// that spans it stalls for the whole copy. The other runs the same migration
// online: the chunked copy and catch-up run under shared locks, so the
// client only ever waits for the brief exclusive flip.
//
//   stw      client p99 / max latency around a blocking MATERIALIZE,
//            plus the materialize duration itself (= the stall window)
//   online   client p99 / max latency, throughput while the migration is
//            in flight, copy throughput, and the flip window
//
//   microbench_online_migration [--quick] [--json <file>]
//
// Gated metrics (scripts/bench_compare.py): online.ops_per_sec and
// online.copy_rows_per_sec. The latency verdicts — client p99 under the
// online migration stays below the stop-the-world stall, and the flip is
// shorter than the stall — need full-scale copies to be meaningful; in
// --quick mode (CI smoke runners) they are reported as n/a and the JSON
// emits null, like microbench_shards' speedup verdict.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "inverda/inverda.h"
#include "util/random.h"

using inverda::bench::CheckOk;
using inverda::bench::InitBench;
using inverda::bench::PrintHeader;
using inverda::bench::QuickMode;
using inverda::bench::ScaledInt;
using inverda::MaterializeRequest;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void BuildChain(inverda::Inverda* db, int rows) {
  CheckOk(db->Execute("CREATE SCHEMA VERSION w0 WITH "
                      "CREATE TABLE item(a INT, b TEXT);"),
          "create w0");
  CheckOk(db->Execute("CREATE SCHEMA VERSION w1 FROM w0 WITH "
                      "ADD COLUMN c INT AS a + 1 INTO item;"),
          "create w1");
  CheckOk(db->Execute("CREATE SCHEMA VERSION w2 FROM w1 WITH "
                      "RENAME TABLE item INTO entry;"),
          "create w2");
  CheckOk(db->Execute("CREATE SCHEMA VERSION w3 FROM w2 WITH "
                      "DROP COLUMN b FROM entry DEFAULT 'd';"),
          "create w3");
  inverda::Random rng(7);
  for (int i = 0; i < rows; ++i) {
    CheckOk(db->Insert("w0", "item",
                       {inverda::Value::Int(rng.NextInt64(0, 99)),
                        inverda::Value::String("r")})
                .status(),
            "seed insert");
  }
}

struct ClientStats {
  std::vector<double> latencies_ms;
  int64_t ops_during_migration = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

// One client alternating a derived-version read with a base-version write
// until `stop`; per-op latency recorded, ops counted while `in_migration`.
void RunClient(inverda::Inverda* db, std::atomic<bool>* stop,
               std::atomic<bool>* in_migration, ClientStats* out) {
  inverda::Random rng(13);
  int64_t i = 0;
  while (!stop->load(std::memory_order_acquire)) {
    double begin = NowMs();
    if (i++ % 2 == 0) {
      CheckOk(db->Select("w1", "item"), "client read");
    } else {
      CheckOk(db->Insert("w0", "item",
                         {inverda::Value::Int(rng.NextInt64(0, 99)),
                          inverda::Value::String("c")})
                  .status(),
              "client insert");
    }
    out->latencies_ms.push_back(NowMs() - begin);
    if (in_migration->load(std::memory_order_acquire)) {
      ++out->ops_during_migration;
    }
  }
  std::vector<double> sorted = out->latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty()) {
    out->p99_ms = sorted[sorted.size() * 99 / 100 < sorted.size()
                             ? sorted.size() * 99 / 100
                             : sorted.size() - 1];
    out->max_ms = sorted.back();
  }
}

struct ScenarioResult {
  double migration_ms = 0;
  ClientStats client;
  double ops_per_sec = 0;
  inverda::migrate::MigrationStatus status;
};

ScenarioResult RunScenario(int rows, bool online) {
  inverda::Inverda db;
  BuildChain(&db, rows);
  if (online) {
    // Mild pacing so the copy spans a measurable client window even at
    // smoke scale; the gated throughputs are rates, so the added wall
    // clock cancels out of the comparison.
    inverda::migrate::TestHooks hooks;
    hooks.chunk_keys = 32;
    hooks.after_chunk = [] {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    };
    db.set_migration_test_hooks(hooks);
  }

  ScenarioResult r;
  std::atomic<bool> stop{false}, in_migration{false};
  std::thread client(
      [&] { RunClient(&db, &stop, &in_migration, &r.client); });
  // Let the client reach steady state before the migration fires.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  double begin = NowMs();
  in_migration.store(true, std::memory_order_release);
  if (online) {
    CheckOk(db.Materialize(MaterializeRequest::Targets({"w3"}, /*online=*/true, /*wait=*/false)), "online start");
    CheckOk(db.WaitForMigration(), "online wait");
  } else {
    CheckOk(db.Materialize(MaterializeRequest::Targets({"w3"})), "stop-the-world materialize");
  }
  in_migration.store(false, std::memory_order_release);
  r.migration_ms = NowMs() - begin;

  // A short cool-down so post-flip latencies are sampled too.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  client.join();
  r.ops_per_sec = r.migration_ms > 0
                      ? static_cast<double>(r.client.ops_during_migration) /
                            (r.migration_ms / 1000.0)
                      : 0;
  r.status = db.MigrationState();
  return r;
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
  const int rows = ScaledInt("INVERDA_MIGRATION_ROWS", 30000);

  PrintHeader("microbench_online_migration: MATERIALIZE under traffic");
  std::printf("rows: %d%s\n\n", rows, QuickMode() ? " (quick)" : "");

  ScenarioResult stw = RunScenario(rows, /*online=*/false);
  ScenarioResult online = RunScenario(rows, /*online=*/true);
  const double flip_ms =
      static_cast<double>(online.status.flip_ns) / 1e6;
  const double copy_rows_per_sec =
      online.migration_ms > flip_ms
          ? static_cast<double>(online.status.rows_copied) /
                ((online.migration_ms - flip_ms) / 1000.0)
          : 0;

  std::printf("%-14s %12s %12s %12s %12s\n", "", "migrate ms", "p99 ms",
              "max ms", "ops/s during");
  std::printf("%-14s %12.1f %12.3f %12.3f %12.0f\n", "stop-the-world",
              stw.migration_ms, stw.client.p99_ms, stw.client.max_ms,
              stw.ops_per_sec);
  std::printf("%-14s %12.1f %12.3f %12.3f %12.0f\n", "online",
              online.migration_ms, online.client.p99_ms,
              online.client.max_ms, online.ops_per_sec);
  std::printf("\nonline: copied %lld rows (%0.f rows/s), captured %lld "
              "keys, flip window %.3f ms\n",
              static_cast<long long>(online.status.rows_copied),
              copy_rows_per_sec,
              static_cast<long long>(online.status.keys_captured), flip_ms);

  // Latency verdicts need a full-scale copy: at smoke scale the blocking
  // materialize finishes in single-digit milliseconds and the comparison
  // is all scheduler noise.
  const bool verdicts_meaningful = !QuickMode();
  const bool p99_bounded = online.client.p99_ms < stw.migration_ms;
  const bool flip_bounded = flip_ms < stw.migration_ms;
  if (verdicts_meaningful) {
    std::printf("verdict: online client p99 %.3f ms %s stop-the-world "
                "stall %.1f ms\n",
                online.client.p99_ms, p99_bounded ? "<" : "NOT <",
                stw.migration_ms);
    std::printf("verdict: flip window %.3f ms %s stop-the-world stall\n",
                flip_ms, flip_bounded ? "<" : "NOT <");
  } else {
    std::printf("verdict: n/a at quick scale (p99 %.3f ms, flip %.3f ms, "
                "stall %.1f ms)\n",
                online.client.p99_ms, flip_ms, stw.migration_ms);
  }

  int exit_code = 0;
  if (verdicts_meaningful && (!p99_bounded || !flip_bounded)) exit_code = 1;
  // Correctness-bound shape: the online path really migrated under load.
  if (online.status.phase != inverda::migrate::Phase::kDone ||
      online.status.rows_copied <= 0) {
    std::fprintf(stderr, "online migration did not complete: %s\n",
                 FormatMigrationStatus(online.status).c_str());
    exit_code = 1;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\"bench\":\"microbench_online_migration\",\"rows\":" << rows
        << ",\"stw\":{\"materialize_ms\":" << stw.migration_ms
        << ",\"client_p99_ms\":" << stw.client.p99_ms
        << ",\"client_max_ms\":" << stw.client.max_ms
        << ",\"ops_per_sec\":" << stw.ops_per_sec << "}"
        << ",\"online\":{\"total_ms\":" << online.migration_ms
        << ",\"flip_ms\":" << flip_ms
        << ",\"rows_copied\":" << online.status.rows_copied
        << ",\"keys_captured\":" << online.status.keys_captured
        << ",\"copy_rows_per_sec\":" << copy_rows_per_sec
        << ",\"client_p99_ms\":" << online.client.p99_ms
        << ",\"client_max_ms\":" << online.client.max_ms
        << ",\"ops_per_sec\":" << online.ops_per_sec << "}"
        << ",\"online_read_p99_lt_stw_stall\":";
    if (verdicts_meaningful) {
      out << (p99_bounded ? "true" : "false");
    } else {
      out << "null";
    }
    out << ",\"flip_window_bounded\":";
    if (verdicts_meaningful) {
      out << (flip_bounded ? "true" : "false");
    } else {
      out << "null";
    }
    out << "}\n";
  }
  return exit_code;
}
