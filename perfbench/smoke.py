#!/usr/bin/env python3
"""Smoke check of the benchmark itself, in about two minutes.

    python3 perfbench/smoke.py

Runs every workload once untraced and twice traced, with a tiny pulse
count and a single pass (two when traced), and asserts that

* the last output line is the result object with exactly the keys
  correct, attempted, failed and metrics, correct and without failures;
* its metrics are exactly the end-to-end (untraced) or per-layer (traced)
  metrics declared in BENCHMARK.json, with the declared units;
* every metric of the workload is printed by name with its unit, and
  every correctness check of the workload ran and passed;
* the per-layer counts are identical between two traced runs of one seed;
* the benchmark exits non-zero without a result in a directory that holds
  only BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \(")
CHECK_LINE = re.compile(r"^check (\S+): ran (\d+), failed (\d+) -- ")


def run(cwd, *extra):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(bench, workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--pulses", "256", "--max-passes", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result

    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: rec["unit"] for name, rec in result["metrics"].items()}
    assert got == declared, f"{workload}: metrics {got} != declared {declared}"

    printed = {m[1]: m[3] for m in map(METRIC_LINE.match, lines) if m}
    wl = workloads.WORKLOADS[workload]
    expected = {**declared, **wl.op_metrics, "fail_ratio": "ratio"}
    for name, unit in expected.items():
        assert printed.get(name) == unit, f"{workload}: metric {name} [{unit}] not printed"

    checks = {m[1]: (int(m[2]), int(m[3])) for m in map(CHECK_LINE.match, lines) if m}
    assert set(checks) == set(wl.checks), f"{workload}: checks {sorted(checks)}"
    for name, (ran, failed) in checks.items():
        assert ran >= 1 and failed == 0, f"{workload}: check {name} ran {ran}, failed {failed}"
    print(f"ok {workload} trace={trace}: {len(printed)} metrics, {len(checks)} checks", flush=True)
    return {name: rec["value"] for name, rec in result["metrics"].items() if rec["unit"] == "count"}


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "analytic", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, "benchmark succeeded without the macrohom sources"
        assert '"correct"' not in proc.stdout, "benchmark printed a result without the sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory: exit", proc.returncode, flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        check_run(bench, w["name"], 0)
        counts = [check_run(bench, w["name"], 1) for _ in range(2)]
        assert counts[0] == counts[1], f"{w['name']}: counts differ between runs: {counts}"
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
