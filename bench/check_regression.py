#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json artifacts.

Two kinds of checks:

1. Baseline comparison (``--baseline``): every ``BENCH_<name>.baseline.json``
   in the baseline directory is matched against ``BENCH_<name>.json`` in the
   current directory; rows are matched on their identity fields (dataset,
   n, mpts, scenario, ...) and every ``*_median`` timing is compared.

   CI hosts differ in absolute speed from whatever machine recorded the
   baselines, so the comparison is host-calibrated by default: the median of
   all current/baseline ratios is taken as the host-speed factor, and a
   timing regresses only if its ratio exceeds ``factor * (1 + tolerance)`` —
   i.e. it got slower *relative to everything else* by more than the
   tolerance.  A uniformly slower host passes; one kernel regressing 15%
   while the rest hold fails.  ``--no-calibrate`` pins the factor to 1 for
   strict absolute gating on a stable host.

   Millisecond-scale medians of a handful of samples carry ~±15% noise on a
   shared runner, so a single uncorrelated exceedance is reported as a
   warning rather than failing the gate (``--max-outliers``, default 1 per
   bench file).  A genuine kernel regression is correlated: it exceeds the
   limit on many rows of the same file at once, far above the allowance.

2. Self-relative serving gates (machine-independent):
   * ``--batch-json``: the small-uniform N=8 scenario of bench_batch_serving
     must reach ``--min-batch-speedup``.  The run must have had >= 4
     threads (query-level parallelism cannot show on fewer); a JSON from a
     smaller run fails the gate instead of skipping it.
   * ``--max-reader-degradation``: the mixed_rw scenario of
     bench_batch_serving (8 snapshot readers with vs without a churning
     writer) must keep reader p90 within that ratio of the writer-idle p90
     (writers publish snapshots; they never block readers).  Fails below 4
     threads like the batch gate.
   * ``--fig15-json``: per dataset, the summed cache-replay preparation must
     beat the summed rebuild preparation.  And on one kd-tree, the library's
     mpts sweep must run exactly one kNN pass (``shared_pass_knn_passes``)
     and its summed core-distance and EMST phases
     (``prepare_shared_pass_seconds``) must beat those of one ``hdbscan()``
     query per value, each with its own kNN pass
     (``prepare_pass_per_value_seconds``).  A dataset without its shared-pass
     row fails the gate.
   * ``--distance-json``: bench_distance_kernels' SoA batch kernels must show
     the SIMD dispatch beating the scalar reference by
     ``--min-distance-speedup`` (median across the Table 2 dimensionality
     rows).  Fails when the artifact reports a runtime vector width < 4
     (PANDORA_SIMD=OFF build, or a host without AVX2): there the dispatch IS
     the scalar kernel and the two columns are identical by construction, so
     the gate cannot measure what it claims.
   * ``--dynamic-json``: bench_dynamic_updates' single-insert scenario at
     n >= 50k must reach ``--min-dynamic-speedup`` (steady-state incremental
     update + dendrogram replay vs the full cold rebuild, same host).  The
     churn scenario is reported but not gated: its update-vs-rebuild ratio
     hovers near 1x and swings +/-40% run-to-run on shared single-core
     runners, so a hard gate would only measure host noise.  The
     ``batch-insert-1pct`` and ``batch-erase-1pct`` rows must report their
     index patch and rebuild counts, and each fails when every one of its
     steady 1% updates rebuilt the kd index instead of patching it (counts,
     not timings, so it cannot flake).

Every loaded artifact is also schema-checked, including the embedded
``metrics`` object (the obs:: registry snapshot bench_common.hpp writes into
each report) — a malformed or missing snapshot is a usage error (exit 2),
never a silent pass.

Exit code 0 = gate green, 1 = regression, 2 = usage/IO error.
"""

import argparse
import json
import pathlib
import statistics
import sys

IDENTITY_KEYS = ("dataset", "scenario", "name", "backend", "n", "mpts", "num_queries",
                 "threads_used")


def die(message: str) -> None:
    """Abort with a one-line actionable error and the usage/IO exit code (2).

    Distinct from exit 1 (a real perf regression) so CI can tell "the gate
    tripped" apart from "the gate never ran" — a missing or corrupt artifact
    must never read as green OR as a regression.
    """
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load(path: pathlib.Path) -> dict:
    if not path.exists():
        die(f"{path}: no such bench artifact — did the bench binary run and "
            "write its BENCH_*.json next to it?")
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as error:
        die(f"cannot read {path}: {error}")
    except json.JSONDecodeError as error:
        die(f"{path} is not valid JSON ({error}) — truncated artifact from a "
            "crashed or interrupted bench run? Delete it and re-run the bench.")
    if not isinstance(report, dict) or not isinstance(report.get("rows"), list):
        die(f"{path}: schema mismatch — expected an object with a \"rows\" list "
            "(bench_common.hpp JsonReport); artifact written by an older or "
            "foreign tool?")
    for i, row in enumerate(report["rows"]):
        if not isinstance(row, dict):
            die(f"{path}: schema mismatch — rows[{i}] is not an object; "
                "regenerate the artifact with the current bench binary.")
    validate_metrics(path, report)
    return report


def validate_metrics(path: pathlib.Path, report: dict) -> None:
    """Validate the embedded obs:: registry snapshot.

    Every artifact written by the current bench_common.hpp carries a top-level
    ``metrics`` object (the process-wide telemetry registry at report time).
    Baseline artifacts recorded before the registry existed may omit it; a
    *current* artifact without it means a stale bench binary, and a malformed
    one means the emitter broke — both are usage errors (exit 2), never green.
    """
    metrics = report.get("metrics")
    if metrics is None:
        if path.name.endswith(".baseline.json"):
            return  # pre-registry baseline; nothing to validate
        die(f"{path}: no \"metrics\" object — artifact written by a bench "
            "binary older than the obs:: registry? Rebuild and re-run.")
    if not isinstance(metrics, dict):
        die(f"{path}: \"metrics\" is not an object")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            die(f"{path}: metrics.{section} missing or not an object")
    for name, value in metrics["counters"].items():
        if not isinstance(value, int) or value < 0:
            die(f"{path}: metrics.counters[{name!r}] is not a non-negative integer")
    for name, value in metrics["gauges"].items():
        if not isinstance(value, int):
            die(f"{path}: metrics.gauges[{name!r}] is not an integer")
    for name, hist in metrics["histograms"].items():
        if not isinstance(hist, dict):
            die(f"{path}: metrics.histograms[{name!r}] is not an object")
        for key in ("count", "sum_seconds", "p50", "p90", "p99"):
            if not isinstance(hist.get(key), (int, float)):
                die(f"{path}: metrics.histograms[{name!r}].{key} missing or not a number")
        buckets = hist.get("buckets")
        if not isinstance(buckets, dict):
            die(f"{path}: metrics.histograms[{name!r}].buckets missing or not an object")
        for key, value in buckets.items():
            if not (key.isdigit() and 0 <= int(key) < 64):
                die(f"{path}: metrics.histograms[{name!r}].buckets key {key!r} is not "
                    "a bucket index in [0, 64)")
            if not isinstance(value, int) or value < 0:
                die(f"{path}: metrics.histograms[{name!r}].buckets[{key!r}] is not a "
                    "non-negative integer")
        if sum(buckets.values()) != hist["count"]:
            die(f"{path}: metrics.histograms[{name!r}]: bucket counts sum to "
                f"{sum(buckets.values())}, not count={hist['count']} — torn "
                "(snapshot taken while threads were still recording) or "
                "hand-edited artifact")


def row_identity(row: dict) -> tuple:
    return tuple((k, row[k]) for k in IDENTITY_KEYS if k in row)


def compare_to_baseline(current_dir: pathlib.Path, baseline_dir: pathlib.Path,
                        tolerance: float, calibrate: bool, max_outliers: int) -> list[str]:
    failures = []
    baselines = sorted(baseline_dir.glob("BENCH_*.baseline.json"))
    if not baselines:
        print(f"warning: no *.baseline.json under {baseline_dir}; nothing to compare")
        return failures

    for baseline_path in baselines:
        name = baseline_path.name.replace(".baseline", "")
        current_path = current_dir / name
        if not current_path.exists():
            failures.append(f"{name}: current run produced no artifact")
            continue
        baseline = load(baseline_path)
        current = load(current_path)
        current_rows = {row_identity(row): row for row in current.get("rows", [])}

        pairs = []  # (field-id, baseline-median, current-median)
        for base_row in baseline.get("rows", []):
            identity = row_identity(base_row)
            cur_row = current_rows.get(identity)
            if cur_row is None:
                failures.append(f"{name}: row {dict(identity)} missing from current run")
                continue
            for field, base_value in base_row.items():
                if not field.endswith("_median") or not isinstance(base_value, (int, float)):
                    continue
                cur_value = cur_row.get(field)
                if not isinstance(cur_value, (int, float)):
                    failures.append(f"{name}: {dict(identity)} lost field {field}")
                    continue
                if base_value > 0:
                    pairs.append((f"{name} {dict(identity)} {field}", base_value, cur_value))

        if not pairs:
            continue
        factor = statistics.median(c / b for _, b, c in pairs) if calibrate else 1.0
        # Floor the factor at 1: on a host faster than the baseline machine, a
        # field merely *at* baseline speed is not a regression — only fields
        # beyond the absolute tolerance can fail.
        limit = max(factor, 1.0) * (1.0 + tolerance)
        print(f"{name}: {len(pairs)} medians, host-speed factor {factor:.3f}, "
              f"per-field limit {limit:.3f}x baseline")
        exceedances = []
        for field_id, base_value, cur_value in pairs:
            ratio = cur_value / base_value
            if ratio > limit:
                exceedances.append(
                    f"{field_id}: {cur_value * 1e3:.3f}ms vs baseline "
                    f"{base_value * 1e3:.3f}ms ({ratio:.2f}x, limit {limit:.2f}x)")
        if len(exceedances) > max_outliers:
            failures += exceedances
        else:
            for exceedance in exceedances:
                print(f"  warning (within outlier allowance of {max_outliers}): {exceedance}")
    return failures


def check_batch_gate(path: pathlib.Path, min_speedup: float) -> list[str]:
    report = load(path)
    threads = report.get("threads", 1)
    for row in report.get("rows", []):
        if row.get("scenario") != "small-uniform" or row.get("num_queries") != 8:
            continue
        speedup = row.get("batched_speedup", 0.0)
        if threads < 4:
            return [f"batch gate cannot run: threads={threads} < 4 (observed speedup "
                    f"{speedup:.2f}x); run bench_batch_serving with >= 4 threads"]
        print(f"batch gate: small-uniform N=8 speedup {speedup:.2f}x "
              f"(required {min_speedup:.2f}x, threads={threads})")
        if speedup < min_speedup:
            return [f"batched N=8 speedup {speedup:.2f}x < required {min_speedup:.2f}x"]
        return []
    return [f"{path.name}: no small-uniform N=8 row found"]


def check_reader_gate(path: pathlib.Path, max_degradation: float) -> list[str]:
    report = load(path)
    threads = report.get("threads", 1)
    for row in report.get("rows", []):
        if row.get("scenario") != "mixed_rw":
            continue
        degradation = row.get("reader_p90_degradation", 0.0)
        if threads < 4:
            return [f"reader gate cannot run: threads={threads} < 4 (observed p90 "
                    f"degradation {degradation:.2f}x); run bench_batch_serving with >= 4 "
                    "threads"]
        print(f"reader gate: mixed_rw reader p90 with writer "
              f"{row.get('reader_rw_p90', 0.0) * 1e3:.2f}ms vs without "
              f"{row.get('reader_ro_p90', 0.0) * 1e3:.2f}ms = {degradation:.2f}x "
              f"(allowed {max_degradation:.2f}x)")
        if degradation > max_degradation:
            return [f"mixed_rw reader p90 degraded {degradation:.2f}x under writer churn "
                    f"(> allowed {max_degradation:.2f}x) — the writer is blocking readers"]
        return []
    return [f"{path.name}: no mixed_rw row found"]


def check_fig15_gate(path: pathlib.Path) -> list[str]:
    report = load(path)
    rebuild: dict[str, float] = {}
    replay: dict[str, float] = {}
    shared: dict[str, dict] = {}
    for row in report.get("rows", []):
        dataset = row.get("dataset", "?")
        if row.get("scenario") == "shared_pass":
            shared[dataset] = row
            continue
        rebuild[dataset] = rebuild.get(dataset, 0.0) + row.get("prepare_rebuild_seconds", 0.0)
        replay[dataset] = replay.get(dataset, 0.0) + row.get("prepare_replay_seconds", 0.0)
    if not rebuild:
        return [f"{path.name}: no rows with sweep preparation timings"]
    failures = []
    for dataset, rebuild_total in rebuild.items():
        replay_total = replay.get(dataset, 0.0)
        print(f"fig15 gate: {dataset} sweep prepare rebuild {rebuild_total * 1e3:.1f}ms "
              f"vs replay {replay_total * 1e3:.1f}ms")
        if not replay_total < rebuild_total:
            failures.append(
                f"fig15 {dataset}: cache replay ({replay_total * 1e3:.1f}ms) did not beat "
                f"rebuild ({rebuild_total * 1e3:.1f}ms)")
        row = shared.get(dataset)
        if row is None or "prepare_pass_per_value_seconds" not in row:
            failures.append(f"fig15 {dataset}: no shared_pass row with "
                            "prepare_pass_per_value_seconds — stale bench binary?")
            continue
        one = row.get("prepare_shared_pass_seconds", 0.0)
        per_value = row["prepare_pass_per_value_seconds"]
        passes = row.get("shared_pass_knn_passes", -1)
        print(f"fig15 gate: {dataset} sweep core+mst one kNN pass per value "
              f"{per_value * 1e3:.1f}ms vs one shared kNN pass {one * 1e3:.1f}ms "
              f"({passes} pass)")
        if passes != 1:
            failures.append(f"fig15 {dataset}: the mpts sweep ran {passes} kNN passes, not 1")
        if not one < per_value:
            failures.append(
                f"fig15 {dataset}: the shared kNN pass ({one * 1e3:.1f}ms) did not beat "
                f"one pass per value ({per_value * 1e3:.1f}ms)")
    return failures


def check_dynamic_gate(path: pathlib.Path, min_speedup: float) -> list[str]:
    report = load(path)
    failures = []
    gated_row = None
    for row in report.get("rows", []):
        speedup = row.get("update_speedup", 0.0)
        print(f"dynamic gate: {row.get('scenario', '?')} n={row.get('n', '?')} "
              f"update {row.get('update_median', 0.0) * 1e3:.2f}ms vs rebuild "
              f"{row.get('rebuild_median', 0.0) * 1e3:.2f}ms ({speedup:.2f}x)")
        if row.get("scenario") == "single-insert" and row.get("n", 0) >= 50000:
            gated_row = row
    for scenario, kind in (("batch-insert-1pct", "inserts"), ("batch-erase-1pct", "erases")):
        row = next((row for row in report.get("rows", [])
                    if row.get("scenario") == scenario), None)
        if row is None or "index_rebuilds" not in row:
            failures.append(f"{path.name}: no {scenario} row with index patch/rebuild counts")
            continue
        updates = row.get(kind, 0)
        rebuilds = row.get("index_rebuilds", 0)
        print(f"dynamic gate: {scenario} {updates} {kind}, "
              f"{row.get('index_patches', 0)} index patches, {rebuilds} rebuilds")
        if updates == 0 or rebuilds >= updates:
            failures.append(f"dynamic {scenario}: {rebuilds} of {updates} {kind} rebuilt the kd "
                            f"index (1% {kind} must patch it until the drift budget runs out)")
    if gated_row is None:
        failures.append(f"{path.name}: no single-insert row at n >= 50000 "
                        "(the acceptance scale) — run without PANDORA_BENCH_SCALE < 1")
    elif gated_row.get("update_speedup", 0.0) < min_speedup:
        failures.append(f"dynamic single-insert speedup "
                        f"{gated_row.get('update_speedup', 0.0):.2f}x < required "
                        f"{min_speedup:.2f}x")
    return failures


def check_distance_gate(path: pathlib.Path, min_speedup: float) -> list[str]:
    report = load(path)
    rows = report.get("rows", [])
    if not rows:
        return [f"{path.name}: no distance-kernel rows"]
    width = min(row.get("simd_width", 1) for row in rows)
    speedups = []
    for row in rows:
        speedup = row.get("speedup", 0.0)
        print(f"distance gate: dim={row.get('dim', '?')} scalar "
              f"{row.get('scalar_median', 0.0) * 1e3:.2f}ms vs simd "
              f"{row.get('simd_median', 0.0) * 1e3:.2f}ms ({speedup:.2f}x, "
              f"width {row.get('simd_width', 1)})")
        speedups.append(speedup)
    if width < 4:
        return [f"distance gate cannot run: runtime vector width {width} < 4 (the scalar "
                "dispatch is the kernel under test); run bench_distance_kernels from a "
                "SIMD build on an AVX2 host"]
    median_speedup = statistics.median(speedups)
    print(f"distance gate: median SIMD speedup {median_speedup:.2f}x across "
          f"{len(speedups)} dims (required {min_speedup:.2f}x)")
    if median_speedup < min_speedup:
        return [f"SIMD distance kernels {median_speedup:.2f}x scalar "
                f"< required {min_speedup:.2f}x at vector width {width}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--current", type=pathlib.Path, required=True,
                        help="directory with this run's BENCH_*.json")
    parser.add_argument("--baseline", type=pathlib.Path,
                        help="directory with BENCH_*.baseline.json to compare against")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative slowdown per median (default 0.15)")
    parser.add_argument("--no-calibrate", action="store_true",
                        help="disable host-speed calibration (strict absolute compare)")
    parser.add_argument("--max-outliers", type=int, default=1,
                        help="uncorrelated per-file exceedances tolerated as noise "
                             "(default 1); real regressions exceed on many rows at once")
    parser.add_argument("--batch-json", type=pathlib.Path,
                        help="BENCH_batch_serving.json for the batched-speedup and "
                             "reader-degradation gates")
    parser.add_argument("--min-batch-speedup", type=float, default=1.3)
    parser.add_argument("--max-reader-degradation", type=float, default=1.5,
                        help="allowed mixed_rw reader-p90 ratio with vs without a "
                             "churning writer (default 1.5; snapshot publication "
                             "must keep writers off the reader path)")
    parser.add_argument("--fig15-json", type=pathlib.Path,
                        help="BENCH_fig15.json for the sweep replay-beats-rebuild and "
                             "one-shared-kNN-pass gates")
    parser.add_argument("--dynamic-json", type=pathlib.Path,
                        help="BENCH_dynamic_updates.json for the update-vs-rebuild gate")
    parser.add_argument("--min-dynamic-speedup", type=float, default=3.0)
    parser.add_argument("--distance-json", type=pathlib.Path,
                        help="BENCH_distance_kernels.json for the SIMD-vs-scalar "
                             "kernel gate (fails at runtime vector width < 4)")
    parser.add_argument("--min-distance-speedup", type=float, default=1.2)
    args = parser.parse_args()

    failures: list[str] = []
    if args.baseline is not None:
        failures += compare_to_baseline(args.current, args.baseline, args.tolerance,
                                        calibrate=not args.no_calibrate,
                                        max_outliers=args.max_outliers)
    if args.batch_json is not None:
        failures += check_batch_gate(args.batch_json, args.min_batch_speedup)
        failures += check_reader_gate(args.batch_json, args.max_reader_degradation)
    if args.fig15_json is not None:
        failures += check_fig15_gate(args.fig15_json)
    if args.dynamic_json is not None:
        failures += check_dynamic_gate(args.dynamic_json, args.min_dynamic_speedup)
    if args.distance_json is not None:
        failures += check_distance_gate(args.distance_json, args.min_distance_speedup)

    if failures:
        print("\nPERF REGRESSION GATE: FAILED")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nPERF REGRESSION GATE: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
