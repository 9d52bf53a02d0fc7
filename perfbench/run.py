#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload hdbscan_hacc --seed 7 --seconds 20 --trace 0

Builds the benchmark binary (perfbench/CMakeLists.txt) from the checkout's
sources into $CARGO_TARGET_DIR (default .bench_build), runs one workload,
checks that every metric BENCHMARK.json names was emitted, prints each metric
by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes a Chrome trace next to the run record under <build>/perfbench/).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hdbscan_hacc", "dendrogram_normal2d", "serve_churn")
RUN_TIMEOUT_S = 170  # a run must end within 180 s once built


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the benchmark binary; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "pandora").is_dir():
        fail(f"no pandora sources under {ROOT}; run from a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(out), "--target", "pandora_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "pandora_perfbench"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_binary(binary, args, trace_path):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    if args.corrupt:
        cmd.append("--corrupt")
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark binary exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size multiplier (the self-test shrinks inputs)")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one output before checking (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0 or not args.scale > 0:
        fail("--seed must be >= 0, --seconds and --scale > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "metrics.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    binary = build()
    records = build_dir() / "perfbench"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.time()
    result = run_binary(binary, args, records / f"{stem}.trace.json")
    result["host"]["cpu_model"] = cpu_model()
    result["wall_s"] = time.time() - started
    (records / f"{stem}.json").write_text(json.dumps(result, indent=1))

    metrics = result["metrics"]
    if set(metrics) != set(units):
        fail(f"metric set mismatch: missing {sorted(set(units) - set(metrics))}, "
             f"unexpected {sorted(set(metrics) - set(units))}")
    for name, unit in units.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit or value is None or not math.isfinite(value):
            fail(f"metric {name} = {value} {metrics[name]['unit']} (expected a number in {unit})")
        if not args.trace and value <= 0:
            fail(f"end-to-end metric {name} is {value}")

    host = result["host"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  scale {args.scale}")
    print(f"host: {host['threads']} threads, backends {host['backend']}/"
          f"{host['serial_backend']}, SIMD width {host['simd_width']}, "
          f"{host['build_type']} build, CPU {host['cpu_model']}")
    streams = layers["workloads"][args.workload]
    if not args.trace:
        print(f"main stream: {streams['main']}")
        print(f"side stream: {streams['side']}")
    for name in sorted(units):
        m = metrics[name]
        print(f"  {name:30s} {m['value']:>14.6g} {m['unit']:6s} (samples {m['samples']})")
    for alias, (source, factor, unit) in streams.get("aliases", {}).items():
        if source in metrics:
            print(f"  = {alias:28s} {metrics[source]['value'] * factor:>14.6g} {unit}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name]["value"], "unit": units[name]}
                    for name in sorted(units)},
    }))


if __name__ == "__main__":
    main()
