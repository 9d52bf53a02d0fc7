#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on reduced inputs (about a minute).

    python3 perfbench/selftest.py

For every workload, in both trace modes, run.py must exit 0 and end with a
result line that names every metric BENCHMARK.json lists, with correct=true
and no failed operation.  With --corrupt, the deliberately corrupted output
must be counted as a failed operation (correct=false).  Finally, run.py in a
directory that holds only BENCHMARK.json and perfbench/ must exit non-zero
without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SCALE = "0.05"
SECONDS = "1"


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", SECONDS,
           "--scale", SCALE, *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc, what):
    if proc.returncode != 0:
        sys.exit(f"FAIL {what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.build()
    problems = []
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            result = result_of(bench("--workload", workload, "--trace", str(trace)), what)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{what}: result keys {sorted(result)}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{what}: metrics differ from BENCHMARK.json {key}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{what}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            corrupted = result_of(bench("--workload", workload, "--trace", str(trace),
                                        "--corrupt"), what + " --corrupt")
            if corrupted["correct"] or corrupted["failed"] < 1:
                problems.append(f"{what} --corrupt: corruption not counted as a failure")
            print(f"ok   {what}: attempted {result['attempted']}, corrupted run failed "
                  f"{corrupted['failed']} of {corrupted['attempted']}")

    with tempfile.TemporaryDirectory(dir=run.build_dir()) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "hdbscan_hacc", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("bare directory: run.py did not fail without printing a result")
        else:
            print(f"ok   bare directory: exit {proc.returncode}, no result")

    for problem in problems:
        print(f"FAIL {problem}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
