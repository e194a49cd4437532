// Concurrent multi-version serving: read-throughput scaling.
//
// Builds a lineage of ADD COLUMN evolutions with co-existing versions and
// measures Select throughput with 1/2/4/8 client threads pinned
// round-robin across the versions (the paper's scenario of several
// applications living on different schema versions of one data set).
// Reads traverse the delta chain through the shared access layer; with the
// epoch-pinned plan cache and per-table reader latches they should scale
// with the hardware. A second table repeats the measurement with the
// paper's standard 50/20/20/10 mix, and a final row races 4 readers
// against a DBA thread flipping the materialization, showing DDL never
// wedges the readers.
//
//   microbench_concurrency [--quick] [--json <file>]
//
// Exits non-zero when any concurrent operation fails. The >2x read-scaling
// verdict at 4 threads is printed but only meaningful (and only reported
// as pass/fail in the JSON) when the machine has >= 4 hardware threads —
// CI smoke runners and sanitizer jobs often do not.

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "inverda/inverda.h"
#include "workload/driver.h"

using inverda::bench::CheckOk;
using inverda::bench::InitBench;
using inverda::bench::PrintHeader;
using inverda::bench::ScaledInt;
using inverda::MaterializeRequest;

namespace {

constexpr int kVersions = 4;
constexpr int kRows = 64;

struct ThreadResult {
  int threads = 0;
  int64_t ops = 0;
  double seconds = 0;
  double ops_per_sec = 0;
  double scaling = 0;  // vs the 1-thread row of the same table
};

// kVersions sibling evolutions of one materialized base: every client
// version sits at propagation distance 1, so each thread's reads cost the
// same and the scaling comparison across thread counts is fair, while the
// versions still have distinct plans and co-exist on the same data.
std::vector<std::string> BuildDb(inverda::Inverda* db) {
  CheckOk(db->Execute("CREATE SCHEMA VERSION V0 WITH "
                      "CREATE TABLE tab(k0 INT, v0 TEXT);"),
          "create base");
  std::vector<std::string> versions;
  for (int j = 1; j <= kVersions; ++j) {
    std::string next = "B" + std::to_string(j);
    CheckOk(db->Execute("CREATE SCHEMA VERSION " + next +
                        " FROM V0 WITH ADD COLUMN c" + std::to_string(j) +
                        " INT AS k0 + " + std::to_string(j) + " INTO tab;"),
            "evolve");
    versions.push_back(next);
  }
  for (int i = 0; i < kRows; ++i) {
    CheckOk(db->Insert("V0", "tab",
                       {inverda::Value::Int(i), inverda::Value::String("r")}),
            "insert");
  }
  return versions;
}

// Version Bj's schema is (k0, v0, cj).
inverda::Row MakeRow(inverda::Random* rng) {
  return {inverda::Value::Int(rng->NextInt64(0, 999)),
          inverda::Value::String("w"), inverda::Value::Int(0)};
}

std::vector<inverda::ConcurrentClientSpec> MakeClients(
    const std::vector<std::string>& versions, int threads,
    const inverda::OpMix& mix) {
  std::vector<inverda::ConcurrentClientSpec> clients;
  for (int i = 0; i < threads; ++i) {
    inverda::ConcurrentClientSpec spec;
    spec.target.version = versions[static_cast<size_t>(i % kVersions)];
    spec.target.table = "tab";
    spec.target.make_row = MakeRow;
    spec.mix = mix;
    clients.push_back(std::move(spec));
  }
  return clients;
}

ThreadResult RunThreads(inverda::Inverda* db,
                        const std::vector<std::string>& versions,
                        int threads, int ops, const inverda::OpMix& mix,
                        const std::function<inverda::Status()>& dba = {}) {
  inverda::ConcurrentOptions options;
  options.ops_per_client = ops;
  options.seed = 42;
  options.tolerate_rejections = true;
  options.dba_action = dba;
  inverda::ConcurrentResult result = inverda::RunConcurrentWorkload(
      db, MakeClients(versions, threads, mix), options);
  CheckOk(result.first_error(), "concurrent run");
  ThreadResult out;
  out.threads = threads;
  out.ops = result.total_ops();
  out.seconds = result.seconds;
  out.ops_per_sec = result.throughput();
  return out;
}

std::vector<ThreadResult> ScalingTable(inverda::Inverda* db,
                                       const std::vector<std::string>& vs,
                                       int ops, const inverda::OpMix& mix) {
  std::vector<ThreadResult> rows;
  for (int threads : {1, 2, 4, 8}) {
    ThreadResult r = RunThreads(db, vs, threads, ops, mix);
    r.scaling = rows.empty() || r.seconds <= 0
                    ? 1.0
                    : r.ops_per_sec / rows.front().ops_per_sec;
    if (rows.empty()) r.scaling = 1.0;
    rows.push_back(r);
    std::printf("%7d  %10lld  %9.3f  %12.0f  %7.2fx\n", r.threads,
                static_cast<long long>(r.ops), r.seconds, r.ops_per_sec,
                r.scaling);
  }
  return rows;
}

void PrintJsonRows(std::ofstream& out, const std::vector<ThreadResult>& rows) {
  out << "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThreadResult& r = rows[i];
    out << (i ? "," : "") << "{\"threads\":" << r.threads
        << ",\"ops\":" << r.ops << ",\"seconds\":" << r.seconds
        << ",\"ops_per_sec\":" << r.ops_per_sec
        << ",\"scaling\":" << r.scaling << "}";
  }
  out << "]";
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
  const int ops = ScaledInt("INVERDA_CONC_OPS", 4000);
  const unsigned hw = std::thread::hardware_concurrency();

  inverda::Inverda db;
  std::vector<std::string> versions = BuildDb(&db);
  // Reads must really traverse the chain in parallel: view cache off, so
  // the measurement covers the per-table latches and plan-cache hot path.
  db.access().set_cache_enabled(false);

  PrintHeader("microbench_concurrency: multi-version read scaling");
  std::printf("hardware threads: %u, ops/client: %d\n\n", hw, ops);

  std::printf("read-only clients on mixed versions\n");
  std::printf("%7s  %10s  %9s  %12s  %8s\n", "threads", "ops", "sec",
              "ops/sec", "scaling");
  std::vector<ThreadResult> readonly =
      ScalingTable(&db, versions, ops, inverda::OpMix::ReadOnly());

  std::printf("\nstandard 50/20/20/10 mix on mixed versions\n");
  std::printf("%7s  %10s  %9s  %12s  %8s\n", "threads", "ops", "sec",
              "ops/sec", "scaling");
  db.ResetMetrics();  // kernel spans aggregate over the mixed table only
  db.Metrics().set_timing_enabled(true);
  std::vector<ThreadResult> mixed =
      ScalingTable(&db, versions, ops, inverda::OpMix::Standard());
  const std::string kernel_spans =
      inverda::bench::KernelSpansJson(db.Metrics().Snapshot());
  const int64_t latch_fine = db.Metrics().value("latch.fine_grained");
  const int64_t latch_escalations = db.Metrics().value("latch.escalations");

  // 4 readers racing a DBA that keeps flipping the materialization: the
  // exclusive catalog lock must never wedge or starve the readers.
  std::vector<std::set<inverda::SmoId>> schemas = CheckOk(
      db.catalog().EnumerateValidMaterializations(/*limit=*/8),
      "enumerate materializations");
  size_t next = 0;
  auto flip = [&db, &schemas, &next]() -> inverda::Status {
    return db.Materialize(MaterializeRequest::Schema(schemas[next++ % schemas.size()]));
  };
  ThreadResult churn = RunThreads(&db, versions, 4, ops,
                                  inverda::OpMix::ReadOnly(), flip);
  std::printf("\n4 readers + DBA flipping materialization: %lld ops in "
              "%.3f s (%.0f ops/sec)\n",
              static_cast<long long>(churn.ops), churn.seconds,
              churn.ops_per_sec);

  const double scaling4 = readonly[2].scaling;
  if (hw >= 4) {
    std::printf("\nverdict: read scaling 1->4 threads = %.2fx (%s 2x)\n",
                scaling4, scaling4 > 2.0 ? ">" : "NOT >");
  } else {
    std::printf("\nverdict: n/a (only %u hardware thread%s; scaling 1->4 "
                "= %.2fx)\n",
                hw, hw == 1 ? "" : "s", scaling4);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\"bench\":\"microbench_concurrency\",\"hw_threads\":" << hw
        << ",\"ops_per_client\":" << ops << ",\"readonly\":";
    PrintJsonRows(out, readonly);
    out << ",\"mixed\":";
    PrintJsonRows(out, mixed);
    out << ",\"dba_churn\":{\"threads\":4,\"ops\":" << churn.ops
        << ",\"ops_per_sec\":" << churn.ops_per_sec << "}"
        << ",\"kernel_spans\":" << kernel_spans
        << ",\"latch_fine_grained\":" << latch_fine
        << ",\"latch_escalations\":" << latch_escalations
        << ",\"read_scaling_1_to_4\":" << scaling4
        << ",\"read_scaling_gt2_at_4\":";
    if (hw >= 4) {
      out << (scaling4 > 2.0 ? "true" : "false");
    } else {
      out << "null";
    }
    out << "}\n";
  }
  return 0;
}
