#!/usr/bin/env python3
"""Perf-regression gate: compare fresh benchmark JSON against baselines.

Usage:
  scripts/bench_compare.py --baselines bench/baselines \
      --fresh bench-fresh/run1 [bench-fresh/run2 ...] \
      [--tolerance 15] [--update] [--inject-slowdown PCT] [--summary FILE]

Each fresh directory holds one --quick --json run of the gated benchmarks
(microbench_plan.json, microbench_concurrency.json, fig8_overhead.json).
For every metric the best value across the fresh runs (min for timings,
max for throughput) is compared against the checked-in baseline; the gate
fails when a timing regresses by more than the tolerance or a throughput
drops by more than the tolerance. Boolean shape checks emitted by the
benchmarks (e.g. fused_2x_at_depth16) must hold in at least one fresh run.

--update rewrites the baseline files from the fresh runs (commit the
result). Baselines are flat metric maps extracted from the bench JSON. A
metric present in a fresh run but absent from the baseline fails the gate
with a pointer at --update (a stale baseline must not silently exempt new
metrics), as does a malformed baseline file.

--inject-slowdown N degrades every fresh metric by N percent before
comparing — the self-test proving the gate actually fails on regressions.

A GitHub-flavored markdown table is appended to --summary (defaults to
$GITHUB_STEP_SUMMARY when set) and printed to stdout.
"""

import argparse
import json
import os
import sys

# metric name -> "lower" (timings: regression = increase) or "higher"
# (throughput/speedups: regression = decrease), per benchmark extractor.

GATED_BENCHES = ["microbench_plan", "microbench_concurrency", "fig8_overhead",
                 "microbench_shards", "microbench_online_migration",
                 "ablation_advisor"]


def extract_microbench_plan(doc):
    metrics = {}
    checks = {}
    for row in doc.get("depths", []):
        d = row["depth"]
        metrics[f"depth{d}.compiled_ns"] = ("lower", row["compiled_ns"])
        if "fused_ns" in row:
            metrics[f"depth{d}.fused_ns"] = ("lower", row["fused_ns"])
    if "fused_2x_at_depth16" in doc:
        checks["fused_2x_at_depth16"] = doc.get("fused_2x_at_depth16")
    return metrics, checks


def extract_microbench_concurrency(doc):
    metrics = {}
    for section in ("readonly", "mixed"):
        for row in doc.get(section, []):
            metrics[f"{section}.threads{row['threads']}.ops_per_sec"] = (
                "higher", row["ops_per_sec"])
    churn = doc.get("dba_churn", {})
    if "ops_per_sec" in churn:
        metrics["dba_churn.ops_per_sec"] = ("higher", churn["ops_per_sec"])
    return metrics, {}


def extract_fig8_overhead(doc):
    metrics = {}
    for cell in ("handwritten_initial", "generated_initial",
                 "handwritten_evolved", "generated_evolved"):
        for field in ("read_tasky_ms", "read_tasky2_ms", "writes_tasky_ms",
                      "writes_tasky2_ms"):
            if cell in doc and field in doc[cell]:
                metrics[f"{cell}.{field}"] = ("lower", doc[cell][field])
    checks = {"locality_shape_check": doc.get("locality_shape_check"),
              "sweep_flat_check": doc.get("sweep_flat_check")}
    return metrics, checks


def extract_microbench_shards(doc):
    metrics = {}
    for row in doc.get("shards", []):
        s = row["shards"]
        for field in ("scan_rows_per_sec", "derived_rows_per_sec",
                      "point_ops_per_sec", "propagate_rows_per_sec"):
            if field in row:
                metrics[f"shards{s}.{field}"] = ("higher", row[field])
    checks = {
        "results_identical": doc.get("results_identical"),
        "parallel_paths_engaged": doc.get("parallel_paths_engaged"),
    }
    # The speedup verdict is hardware-gated: null (not enough cores) never
    # fails the gate, mirroring microbench_concurrency's scaling verdict.
    if doc.get("scan_speedup_gt1_3") is not None:
        checks["scan_speedup_gt1_3"] = doc.get("scan_speedup_gt1_3")
    return metrics, checks


def extract_microbench_online_migration(doc):
    metrics = {}
    online = doc.get("online", {})
    for field in ("ops_per_sec", "copy_rows_per_sec"):
        if field in online:
            metrics[f"online.{field}"] = ("higher", online[field])
    # The latency verdicts are scale-gated: null (quick mode) never fails
    # the gate, mirroring microbench_shards' speedup verdict.
    checks = {}
    for name in ("online_read_p99_lt_stw_stall", "flip_window_bounded"):
        if doc.get(name) is not None:
            checks[name] = doc.get(name)
    return metrics, checks


def extract_ablation_advisor(doc):
    metrics = {}
    for mode in ("default", "advised"):
        if mode in doc and "ops_per_sec" in doc[mode]:
            metrics[f"{mode}.ops_per_sec"] = ("higher",
                                              doc[mode]["ops_per_sec"])
    checks = {"advisor_beats_default": doc.get("advisor_beats_default")}
    return metrics, checks


EXTRACTORS = {
    "microbench_plan": extract_microbench_plan,
    "microbench_concurrency": extract_microbench_concurrency,
    "fig8_overhead": extract_fig8_overhead,
    "microbench_shards": extract_microbench_shards,
    "microbench_online_migration": extract_microbench_online_migration,
    "ablation_advisor": extract_ablation_advisor,
}


def load_fresh(fresh_dirs, bench):
    """Best-of-N metrics and any-of-N checks across the fresh run dirs."""
    merged = {}
    checks = {}
    runs = 0
    for d in fresh_dirs:
        path = os.path.join(d, bench + ".json")
        if not os.path.exists(path):
            continue
        with open(path) as f:
            doc = json.load(f)
        runs += 1
        metrics, run_checks = EXTRACTORS[bench](doc)
        for name, (direction, value) in metrics.items():
            if name not in merged:
                merged[name] = (direction, value)
            else:
                best = merged[name][1]
                better = min(best, value) if direction == "lower" else max(
                    best, value)
                merged[name] = (direction, better)
        for name, ok in run_checks.items():
            checks[name] = bool(checks.get(name)) or bool(ok)
    return merged, checks, runs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baselines", default="bench/baselines")
    ap.add_argument("--fresh", nargs="+", required=True,
                    help="directories holding fresh <bench>.json runs")
    ap.add_argument("--tolerance", type=float, default=15.0,
                    help="allowed regression in percent (default 15)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite baselines from the fresh runs")
    ap.add_argument("--inject-slowdown", type=float, default=0.0,
                    metavar="PCT",
                    help="degrade fresh metrics by PCT%% (gate self-test)")
    ap.add_argument("--summary", default=os.environ.get("GITHUB_STEP_SUMMARY"))
    args = ap.parse_args()

    tol = args.tolerance / 100.0
    rows = []  # (bench, metric, base, fresh, delta_pct, status)
    failures = []

    for bench in GATED_BENCHES:
        fresh, checks, runs = load_fresh(args.fresh, bench)
        if runs == 0:
            failures.append(f"{bench}: no fresh runs found")
            continue

        if args.inject_slowdown:
            factor = 1.0 + args.inject_slowdown / 100.0
            fresh = {
                name: (d, v * factor if d == "lower" else v / factor)
                for name, (d, v) in fresh.items()
            }

        base_path = os.path.join(args.baselines, bench + ".json")
        if args.update:
            os.makedirs(args.baselines, exist_ok=True)
            with open(base_path, "w") as f:
                json.dump(
                    {
                        "bench": bench,
                        "runs": runs,
                        "metrics": {
                            name: {"direction": d, "value": v}
                            for name, (d, v) in sorted(fresh.items())
                        },
                    }, f, indent=2)
                f.write("\n")
            print(f"updated {base_path} ({len(fresh)} metrics, best of "
                  f"{runs} runs)")
            continue

        if not os.path.exists(base_path):
            failures.append(f"{bench}: missing baseline {base_path} "
                            "(run with --update to create)")
            continue
        try:
            with open(base_path) as f:
                doc = json.load(f)
            baseline = doc["metrics"]
            for name, entry in baseline.items():
                entry["direction"], entry["value"]
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            failures.append(
                f"{bench}: baseline {base_path} is malformed ({e!r}); "
                "regenerate it with --update")
            continue

        # A metric the candidate run emits but the baseline lacks means the
        # baseline predates the benchmark change: fail with a pointer at the
        # fix instead of silently skipping the new metric.
        for name in sorted(fresh):
            if name not in baseline:
                failures.append(
                    f"{bench}/{name}: metric present in the fresh run but "
                    f"missing from baseline {base_path}; re-run "
                    "scripts/bench_compare.py with --update and commit the "
                    "refreshed baseline")
                rows.append((bench, name, None, fresh[name][1], None,
                             "NO-BASELINE"))

        for name, entry in sorted(baseline.items()):
            direction, base = entry["direction"], entry["value"]
            if name not in fresh:
                failures.append(f"{bench}/{name}: metric missing from fresh "
                                "run")
                rows.append((bench, name, base, None, None, "MISSING"))
                continue
            value = fresh[name][1]
            if base <= 0:
                delta = 0.0
            elif direction == "lower":
                delta = (value - base) / base * 100.0
            else:
                delta = (base - value) / base * 100.0
            ok = delta <= args.tolerance
            status = "ok" if ok else "REGRESSED"
            if not ok:
                failures.append(
                    f"{bench}/{name}: {base:.1f} -> {value:.1f} "
                    f"({delta:+.1f}% worse, tolerance {args.tolerance:.0f}%)")
            rows.append((bench, name, base, value, delta, status))

        for name, ok in checks.items():
            status = "ok" if ok else "FAILED"
            if not ok:
                failures.append(f"{bench}/{name}: shape check failed in "
                                "every fresh run")
            rows.append((bench, name, None, None, None, status))

    if not args.update:
        lines = ["| bench | metric | baseline | fresh | worse by | status |",
                 "|---|---|---|---|---|---|"]
        for bench, name, base, value, delta, status in rows:
            basestr = f"{base:.1f}" if base is not None else "—"
            valstr = f"{value:.1f}" if value is not None else "—"
            deltastr = f"{delta:+.1f}%" if delta is not None else "—"
            mark = "✅" if status == "ok" else "❌"
            lines.append(f"| {bench} | {name} | {basestr} | {valstr} | "
                         f"{deltastr} | {mark} {status} |")
        table = "\n".join(lines)
        print(table)
        if args.summary:
            with open(args.summary, "a") as f:
                f.write("## Perf regression gate\n\n" + table + "\n")
                if failures:
                    f.write("\n**FAILED:**\n\n")
                    for msg in failures:
                        f.write(f"- {msg}\n")

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print("\nperf gate passed" if not args.update else "baselines updated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
