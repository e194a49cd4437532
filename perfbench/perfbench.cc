// The repository benchmark: co-existing-version point traffic (tasky-point),
// deep-genealogy scans (wiki-scan) and online migration under load
// (tasky-migrate), with a separate single-threaded traced run that splits
// operation time by layer. See README.md in this directory.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Prints human-readable metric lines (name, value, unit, sample count) and,
// as the last line, one JSON object {correct, attempted, failed, metrics}.
// Exits non-zero on a usage or set-up error, and when the oracle fails.

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "util/thread_pool.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kScanThreads = 1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  if (args->self_test) return true;
  for (const std::string& name : WorkloadNames()) {
    if (name == args->workload) return true;
  }
  return false;
}

/// No INVERDA_* variable of the caller's environment may change what a run
/// measures: drop them all, then pin one shard and a fixed scan-thread
/// count before any engine object reads them.
void PinEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "INVERDA_", 8) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq != nullptr) names.emplace_back(*e, static_cast<size_t>(eq - *e));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("INVERDA_SHARDS", "1", 1);
  setenv("INVERDA_SCAN_THREADS", std::to_string(kScanThreads).c_str(), 1);
}

/// Fixes glibc malloc's trim and mmap thresholds before any thread starts.
/// With the default dynamic thresholds, the arena of a client thread hands
/// freed scan buffers back to the kernel and faults them in again: wiki-scan
/// scans on a client thread then take about 100 000 minor page faults a
/// second and about twice as long as on the main thread, at a cost that
/// follows the host's page-fault latency. Fixed thresholds keep freed
/// memory in the arena.
void PinAllocator() {
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
}

/// Prints the engine configuration the run measures; false when it is not
/// the pinned one.
bool CheckPinnedConfig(Inverda* db) {
  const bool pinned =
      db->shards() == 1 && inverda::ScanPool().threads() == 0 &&
      !db->access().cache_enabled() && db->access().plan_cache_enabled() &&
      db->access().batch_enabled() && db->access().fusion_enabled() &&
      !db->advisor().auto_materialize_enabled() && !db->tracer().enabled() &&
      !db->Metrics().timing_enabled();
  std::printf(
      "config shards=%d scan_threads=%d view_cache=%s plan_cache=%s "
      "batch=%s fusion=%s auto_materialize=%s tracer=%s timing_gate=%s\n",
      db->shards(), std::max(1, inverda::ScanPool().threads()),
      db->access().cache_enabled() ? "on" : "off",
      db->access().plan_cache_enabled() ? "on" : "off",
      db->access().batch_enabled() ? "on" : "off",
      db->access().fusion_enabled() ? "on" : "off",
      db->advisor().auto_materialize_enabled() ? "on" : "off",
      db->tracer().enabled() ? "on" : "off",
      db->Metrics().timing_enabled() ? "on" : "off");
  return pinned;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples;
};

/// Metric lines plus the final JSON object. `json` selects the metrics the
/// JSON line carries (BENCHMARK.json's list for this mode).
class Report {
 public:
  void Add(std::string name, double value, std::string unit, int64_t samples,
           bool json) {
    Metric m{std::move(name), value, std::move(unit), samples};
    std::printf("metric %-34s %16.6f %-6s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
    if (json) json_.push_back(std::move(m));
  }

  bool AllFinite() const {
    for (const Metric& m : json_) {
      if (!std::isfinite(m.value)) return false;
    }
    return true;
  }

  void PrintJson(bool correct, int64_t attempted, int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < json_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", json_[i].name.c_str(), json_[i].value,
                  json_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> json_;
};

int64_t Count(const std::vector<double>& v) {
  return static_cast<int64_t>(v.size());
}

/// End-to-end metrics of one untraced run. A run is several sub-runs, each
/// on a freshly built scenario; latency percentiles are taken over the
/// samples of all sub-runs, throughput over their summed wall time. The
/// JSON line carries BENCHMARK.json's end_to_end list; the rest is printed.
void ReportEndToEnd(const std::string& workload,
                    const std::vector<double>& setup_s,
                    const std::vector<RunResult>& runs, double peak_rss,
                    Report* out) {
  Recorder all;
  double wall_ns = 0;
  double cpu_ns = 0;
  std::vector<double> migrate_ms;
  for (const RunResult& run : runs) {
    all.Merge(run.rec);
    wall_ns += run.wall_ns;
    cpu_ns += run.cpu_ns;
    for (const MigrationRecord& m : run.migrations) {
      migrate_ms.push_back(m.call_ns / 1e6);
    }
  }
  const int64_t client_ops =
      Count(all.get_ns) + Count(all.write_ns) + Count(all.scan_ns);
  const bool scans = workload == "wiki-scan";
  // The workload's other client op: writes on the TasKy workloads, Select
  // scans on wiki-scan (also printed under their own names below).
  const std::vector<double>& other = scans ? all.scan_ns : all.write_ns;
  out->Add("setup_s", Median(setup_s), "s", Count(setup_s), true);
  out->Add("ops_per_s", static_cast<double>(client_ops) / (wall_ns / 1e9),
           "ops/s", client_ops, false);
  out->Add("floor_us_per_op", ClassMinMean(all.class_ns) / 1e3, "us",
           client_ops, true);
  out->Add("cpu_us_per_op", cpu_ns / 1e3 / static_cast<double>(client_ops),
           "us", client_ops, false);
  out->Add("get_p50_us", Percentile(all.get_ns, 0.50) / 1e3, "us",
           Count(all.get_ns), false);
  out->Add("get_p99_us", Percentile(all.get_ns, 0.99) / 1e3, "us",
           Count(all.get_ns), false);
  out->Add("nonget_p50_us", Percentile(other, 0.50) / 1e3, "us", Count(other),
           false);
  out->Add("nonget_p99_us", Percentile(other, 0.99) / 1e3, "us", Count(other),
           false);
  out->Add("peak_rss_mb", peak_rss, "MiB", 1, true);
  if (scans) {
    out->Add("scan_p50_ms", Percentile(all.scan_ns, 0.50) / 1e6, "ms",
             Count(all.scan_ns), false);
    out->Add("scan_p99_ms", Percentile(all.scan_ns, 0.99) / 1e6, "ms",
             Count(all.scan_ns), false);
  } else {
    out->Add("write_p50_us", Percentile(all.write_ns, 0.50) / 1e3, "us",
             Count(all.write_ns), false);
    out->Add("write_p99_us", Percentile(all.write_ns, 0.99) / 1e3, "us",
             Count(all.write_ns), false);
  }
  if (!migrate_ms.empty()) {
    out->Add("migrate_p50_ms", Median(migrate_ms), "ms", Count(migrate_ms),
             false);
  }
  out->Add("failed_frac",
           static_cast<double>(all.failed) / static_cast<double>(all.attempted),
           "fraction", all.attempted, false);
}

/// The median of one sample class over every sub-run's untraced samples.
double UntracedMedian(const std::vector<RunResult>& runs,
                      std::vector<double> Recorder::*samples) {
  std::vector<double> all;
  for (const RunResult& run : runs) {
    all.insert(all.end(), (run.rec.*samples).begin(),
               (run.rec.*samples).end());
  }
  return Median(all);
}

/// Set-up clock readings of every sub-run's scenario build.
struct SetupTimes {
  std::vector<double> total_s, evolve_ns, load_ns, initial_ns;

  void Add(const Scenario& sc) {
    total_s.push_back(sc.total_ns / 1e9);
    evolve_ns.push_back(sc.evolve_ns);
    load_ns.push_back(sc.load_ns);
    initial_ns.push_back(sc.initial_materialize_ns);
  }
};

/// Cross-version aggregate of per-version medians: the mean over table
/// versions (every workload gives its versions equal op shares).
class PerVersion {
 public:
  void Add(double v) {
    sum_ += v;
    ++n_;
  }
  double mean() const { return n_ ? sum_ / n_ : std::nan(""); }
  double sum() const { return sum_; }

 private:
  double sum_ = 0;
  int n_ = 0;
};

std::string VersionTag(const std::string& label) {
  if (label == "TasKy.Task") return "tasky";
  if (label == "Do!.Todo") return "do";
  if (label == "TasKy2.Task") return "tasky2";
  return label;
}

/// Per-layer metrics of the traced run (JSON: BENCHMARK.json per_layer).
void ReportPerLayer(const std::string& workload, const SetupTimes& setup,
                    const std::map<std::string, LedgerSamples>& ledger,
                    const std::vector<RunResult>& runs,
                    const std::vector<double>& compile_ns, Report* out) {
  // --- reads: Get ---
  PerVersion get_facade, get_self, access_self, lookup, latch, derive, find,
      get_unattributed;
  std::vector<double> first_get_all;
  int64_t get_samples = 0;
  int64_t ops = 0, hops = 0, fused = 0;
  for (const auto& [label, s] : ledger) {
    ops += s.ops;
    hops += s.hops;
    fused += s.fused_steps;
    if (s.get.l1.empty()) continue;
    const auto& g = s.get;
    get_samples += Count(g.l1);
    first_get_all.insert(first_get_all.end(), s.first_get.begin(),
                         s.first_get.end());
    const double f = Median(g.l1);
    const double self = Median(Diff(g.l1, g.l2));
    const double acc =
        Median(Diff(Diff(Diff(g.l2, g.l3), g.lookup), g.latch));
    const double lk = Median(g.lookup);
    const double lt = Median(g.latch);
    const double dv = Median(Diff(g.l3, g.l4));
    const double fd = Median(g.l4);
    get_facade.Add(f);
    get_self.Add(self);
    access_self.Add(acc);
    lookup.Add(lk);
    latch.Add(lt);
    derive.Add(dv);
    find.Add(fd);
    get_unattributed.Add(f - (self + acc + lk + lt + dv + fd));
  }
  out->Add("inverda.get_self_us", get_self.mean() / 1e3, "us", get_samples,
           true);
  out->Add("inverda.get_wait_us",
           (UntracedMedian(runs, &Recorder::get_ns) - Median(first_get_all)) /
               1e3,
           "us", Count(first_get_all), true);
  out->Add("inverda.access_self_us", access_self.mean() / 1e3, "us",
           get_samples, true);
  out->Add("plan.lookup_ns", lookup.mean(), "ns", get_samples, true);
  out->Add("plan.compile_us", Median(compile_ns) / 1e3, "us",
           Count(compile_ns), true);
  out->Add("plan.hops_per_op", static_cast<double>(hops) / ops, "count", ops,
           true);
  out->Add("plan.fused_steps_per_op", static_cast<double>(fused) / ops,
           "count", ops, true);
  out->Add("storage.latch_ns", latch.mean(), "ns", get_samples, true);
  out->Add("storage.find_ns", find.mean(), "ns", get_samples, true);
  out->Add("mapping.derive_point_us", derive.mean() / 1e3, "us", get_samples,
           true);

  out->Add("bidel.evolve_ms", Median(setup.evolve_ns) / 1e6, "ms",
           Count(setup.evolve_ns), true);
  out->Add("workload.load_ms", Median(setup.load_ns) / 1e6, "ms",
           Count(setup.load_ns), true);
  out->Add("migrate.initial_ms", Median(setup.initial_ns) / 1e6, "ms",
           Count(setup.initial_ns), true);
  out->Add("trace.unattributed_pct.get",
           100.0 * get_unattributed.sum() / get_facade.sum(), "%", get_samples,
           true);

  // --- overhead: traced-run facade medians vs the plain op stream ---
  struct Sums {
    double traced = 0, plain = 0;
    int64_t n = 0;
    void Pair(const std::vector<double>& t, const std::vector<double>& p) {
      if (t.empty() || p.empty()) return;
      traced += Median(t);
      plain += Median(p);
      n += Count(t) + Count(p);
    }
    double pct() const { return 100.0 * (traced - plain) / plain; }
  };
  Sums all, get, write, scan;
  for (const auto& [label, s] : ledger) {
    for (Sums* sums : {&all, &get}) sums->Pair(s.first_get, s.plain_get);
    for (Sums* sums : {&all, &write}) sums->Pair(s.w_facade, s.plain_write);
    for (Sums* sums : {&all, &scan}) sums->Pair(s.first_scan, s.plain_scan);
  }
  out->Add("trace.overhead_pct", all.pct(), "%", all.n, true);
  for (const auto& [kind, sums] :
       {std::pair{"get", get}, {"write", write}, {"scan", scan}}) {
    if (sums.n > 0) {
      out->Add(std::string("trace.overhead_pct.") + kind, sums.pct(), "%",
               sums.n, false);
    }
  }

  // --- workload-specific ledgers (printed, not in the JSON line) ---
  if (workload == "wiki-scan") {
    PerVersion facade, self, storage, derive_scan, unattributed;
    int64_t n = 0;
    for (const auto& [label, s] : ledger) {
      const auto& g = s.scan;
      if (g.l1.empty()) continue;
      n += Count(g.l1);
      const double f = Median(g.l1);
      const double sf = Median(Diff(g.l1, g.l2));
      const double lk = Median(g.lookup);
      const double lt = Median(g.latch);
      const double dv = Median(Diff(g.l3, g.l4));
      const double st = Median(g.l4);
      facade.Add(f);
      self.Add(sf);
      storage.Add(st);
      derive_scan.Add(dv);
      unattributed.Add(f - (sf + lk + lt + dv + st));
    }
    out->Add("inverda.scan_self_ms", self.mean() / 1e6, "ms", n, false);
    out->Add("storage.scan_ms", storage.mean() / 1e6, "ms", n, false);
    out->Add("mapping.derive_scan_ms", derive_scan.mean() / 1e6, "ms", n,
             false);
    out->Add("trace.unattributed_pct.scan",
             100.0 * unattributed.sum() / facade.sum(), "%", n, false);
    return;
  }
  PerVersion facade, self, unattributed;
  std::vector<double> facade_all;
  int64_t n = 0;
  for (const auto& [label, s] : ledger) {
    if (s.w_facade.empty() || s.w_access.empty() || s.w_step.empty()) continue;
    n += Count(s.w_facade) + Count(s.w_access) + Count(s.w_step);
    facade_all.insert(facade_all.end(), s.w_facade.begin(), s.w_facade.end());
    const double f = Median(s.w_facade);
    const double sf = f - Median(s.w_access);
    const double step = Median(s.w_step);
    facade.Add(f);
    self.Add(sf);
    unattributed.Add(f - (sf + Median(s.w_lookup) + Median(s.w_latch) + step));
    out->Add("mapping.propagate_us." + VersionTag(label), step / 1e3, "us",
             Count(s.w_step), false);
  }
  out->Add("inverda.write_self_us", self.mean() / 1e3, "us", n, false);
  out->Add("inverda.write_wait_us",
           (UntracedMedian(runs, &Recorder::write_ns) - Median(facade_all)) /
               1e3,
           "us", Count(facade_all), false);
  out->Add("trace.unattributed_pct.write",
           100.0 * unattributed.sum() / facade.sum(), "%", n, false);
  std::vector<double> copy, catchup, flip, rows, captured, rounds, refreshes;
  for (const RunResult& run : runs) {
    for (const MigrationRecord& m : run.migrations) {
      copy.push_back(m.copy_ns);
      catchup.push_back(m.catchup_ns);
      flip.push_back(m.flip_ns);
      rows.push_back(static_cast<double>(m.rows_copied));
      captured.push_back(static_cast<double>(m.keys_captured));
      rounds.push_back(static_cast<double>(m.catchup_rounds));
      refreshes.push_back(static_cast<double>(m.refreshes));
    }
  }
  if (copy.empty()) return;
  const int64_t m = Count(copy);
  out->Add("migrate.copy_ms", Median(copy) / 1e6, "ms", m, false);
  out->Add("migrate.catchup_ms", Median(catchup) / 1e6, "ms", m, false);
  out->Add("migrate.flip_ms", Median(flip) / 1e6, "ms", m, false);
  out->Add("migrate.rows_copied", Median(rows), "count", m, false);
  out->Add("migrate.keys_captured", Median(captured), "count", m, false);
  out->Add("migrate.catchup_rounds", Median(rounds), "count", m, false);
  out->Add("migrate.refreshes", Median(refreshes), "count", m, false);
}

/// Sub-runs per run: each builds its scenario afresh (the median build time
/// is setup_s) and runs an equal share of the rounds.
int SubRuns(const std::string& workload) {
  return workload == "wiki-scan" ? 5 : 40;
}

/// Rounds per requested second: a run does a fixed amount of work, sized
/// so that its timed rounds last about --seconds on a 4-vCPU Xeon (set-up,
/// model building and the oracle come on top). Fixed work, not a time
/// budget, keeps runs comparable while per-op cost changes with the work
/// already done (TasKy2 writes slow down as a sub-run proceeds).
double RoundsPerSecond(const std::string& workload) {
  if (workload == "wiki-scan") return 3.8;
  if (workload == "tasky-migrate") return 25;
  return 45;
}

/// Traced-run ledger blocks (half plain, half traced).
int LedgerBlocks(const std::string& workload) {
  return workload == "wiki-scan" ? 4 : 20;
}

void PrintClients(const Scenario& sc, const std::vector<RunResult>& runs) {
  for (size_t i = 0; i < sc.clients.size(); ++i) {
    Recorder r;
    for (const RunResult& run : runs) r.Merge(run.per_client[i]);
    std::printf("client %-12s get p50/p99 %.3f/%.3f us  write p50/p99 "
                "%.3f/%.3f us  scan p50/p99 %.3f/%.3f ms  ops %lld\n",
                sc.clients[i]->name().c_str(), Percentile(r.get_ns, 0.5) / 1e3,
                Percentile(r.get_ns, 0.99) / 1e3,
                Percentile(r.write_ns, 0.5) / 1e3,
                Percentile(r.write_ns, 0.99) / 1e3,
                Percentile(r.scan_ns, 0.5) / 1e6,
                Percentile(r.scan_ns, 0.99) / 1e6,
                static_cast<long long>(r.attempted));
  }
}

int RunWorkload(const Args& args) {
  const Sizes sizes;
  const int subruns = SubRuns(args.workload);
  const int64_t rounds = std::max<int64_t>(
      1, std::llround(args.seconds * RoundsPerSecond(args.workload)) / subruns);
  std::printf("workload %s seed %llu seconds %g trace %d sub-runs %d x %lld "
              "rounds\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, subruns,
              static_cast<long long>(rounds));
  SetupTimes setup;
  std::vector<RunResult> runs;
  Scenario sc;
  std::string oracle;
  for (int i = 0; i < subruns; ++i) {
    // One engine instance lives at a time.
    sc.clients.clear();
    sc.db.reset();
    auto built = BuildScenario(args.workload, args.seed, sizes, true);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    sc = std::move(built).value();
    setup.Add(sc);
    if (i == 0 && !CheckPinnedConfig(sc.db.get())) {
      std::fprintf(stderr, "engine configuration is not the pinned one\n");
      return 1;
    }
    runs.push_back(RunConcurrent(&sc, rounds, args.trace));
    const RunResult& run = runs.back();
    std::printf("sub-run %d set-up %.3f s, wall %.3f s, %zu migrations\n", i,
                sc.total_ns / 1e9, run.wall_ns / 1e9, run.migrations.size());
    if (oracle.empty()) oracle = run.oracle;
  }
  PrintClients(sc, runs);

  Report report;
  Recorder totals;
  for (const RunResult& run : runs) totals.Merge(run.rec);
  if (!args.trace) {
    ReportEndToEnd(args.workload, setup.total_s, runs, PeakRssMiB(), &report);
  } else {
    // The layer ledger runs on the last sub-run's scenario, single-threaded
    // under the initial materialization, with no migration active.
    Status status = sc.db->Materialize(inverda::MaterializeRequest::Targets(
        {sc.workload == "wiki-scan" ? "v109" : "TasKy"}));
    if (!status.ok()) {
      std::fprintf(stderr, "reset materialization: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    Recorder ledger_rec;
    auto ledger = RunLedger(&sc, LedgerBlocks(args.workload), &ledger_rec);
    std::vector<double> compile_ns;
    const auto& compiler = sc.db->access().compiler();
    for (int rep = 0; rep < 5; ++rep) {
      const int64_t t0 = NowNs();
      for (TvId tv : sc.db->catalog().AllTableVersions()) {
        (void)compiler.Compile(tv);
      }
      compile_ns.push_back(static_cast<double>(NowNs() - t0));
    }
    ReportPerLayer(args.workload, setup, ledger, runs, compile_ns, &report);
    totals.Merge(ledger_rec);
    if (oracle.empty()) oracle = ledger_rec.first_mismatch;
    if (oracle.empty()) oracle = RunOracle(&sc);
  }
  if (!totals.first_failure.empty()) {
    std::printf("first failure: %s\n", totals.first_failure.c_str());
  }
  std::printf("oracle: %s\n", oracle.empty() ? "pass" : oracle.c_str());
  const bool correct = oracle.empty() && report.AllFinite();
  report.PrintJson(correct, totals.attempted, totals.failed);
  return correct ? 0 : 1;
}

// --- self-test ----------------------------------------------------------------

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(Percentile(hundred, 0.50) == 50, "p50 of 1..100 is 50");
  expect(Percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  expect(Percentile(hundred, 1.0) == 100, "p100 of 1..100 is 100");
  expect(Percentile({7}, 0.99) == 7, "percentile of one sample");
  expect(std::isnan(Percentile({}, 0.5)), "percentile of no samples is NaN");
  expect(Median({4, 1, 3, 2}) == 2.5, "median of an even sample");
  expect(Median({5, 1, 3}) == 3, "median of an odd sample");
  expect(Diff({5, 7}, {2, 3}) == std::vector<double>({3, 4}), "diff");
  const std::map<int, std::vector<double>> classes = {
      {0, {4, 2, 3, 1}}, {1, {10, 30, 20, 40, 50, 60}}};
  expect(ClassMinMean(classes) == (4 * 1 + 6 * 10) / 10.0,
         "class min mean weights each class by its sample count");
  expect(std::isnan(ClassMinMean(std::map<int, std::vector<double>>{})),
         "class min mean of no classes is NaN");
  Checksum a, b;
  a.Add(1, 10);
  a.Add(2, 20);
  b.Add(2, 20);
  b.Add(1, 10);
  expect(a == b, "checksum is order-independent");
  b.Add(3, 30);
  expect(!(a == b), "checksum counts rows");
  Checksum c;
  c.Add(1, 10);
  c.Add(2, 21);
  expect(!(a == c), "checksum sees a changed payload");

  // Oracle liveness: a short honest run passes; a corrupted expectation in
  // the harness's own model must then fail it.
  Sizes small;
  small.tasky_tasks = 600;
  small.wiki_pages = 200;
  small.wiki_links = 300;
  for (const std::string& workload : WorkloadNames()) {
    auto built = BuildScenario(workload, 3, small, true);
    if (!built.ok()) {
      expect(false, workload + " set-up: " + built.status().ToString());
      continue;
    }
    Scenario sc = std::move(built).value();
    RunResult run = RunConcurrent(&sc, 2, false);
    expect(run.oracle.empty() && run.rec.failed == 0,
           workload + " honest run passes the oracle" +
               (run.oracle.empty() ? "" : ": " + run.oracle));
    Client* client = sc.clients.back().get();
    client->CorruptModelForTest();
    const std::string corrupted = client->Check(sc.db.get());
    expect(!corrupted.empty(),
           workload + " corrupted model fails the oracle (" + corrupted + ")");
  }
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::PinAllocator();
  perfbench::PinEnvironment();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <tasky-point|wiki-scan|"
                 "tasky-migrate> --seed <n> --seconds <s> --trace <0|1>\n"
                 "       perfbench --self-test\n");
    return 2;
  }
  if (args.self_test) return perfbench::SelfTest();
  return perfbench::RunWorkload(args);
}
