#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and the trajectory record.

    python3 perfbench/proof.py --runs 10 [--first-seed 1] [--record LABEL --note TEXT]

Runs ``run.py --trace 0`` once per seed and every workload of
BENCHMARK.json (workloads interleaved, one seed after another), then
prints for every end-to-end metric and every per-operation metric its
median, quartiles and spread: the distance between the first and third
quartile as a share of the median.  A declared metric whose spread
exceeds its bound in BENCHMARK.json is flagged, and the exit code is 1.
``--record`` appends the figures as one entry of
perfbench/trajectory.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread_stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--record", default=None, help="label of the trajectory entry to append")
    ap.add_argument("--note", default="", help="free text for the entry, such as the hardware")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    samples = {w: {} for w in names}  # workload -> metric -> [values]
    units = {}
    env = None
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    for seed in seeds:
        for w in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(os.path.join(ROOT, ".perfbench_out", f"{w}-seed{seed}-trace0.json"),
                      encoding="utf-8") as fh:
                full = json.load(fh)
            env = full["env"]
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for name, rec in full["reported"].items():
                samples[w].setdefault(name, []).append(rec["value"])
                units[name] = rec["unit"]
            print(f"{w} seed {seed}: {took:.1f}s wall, passes {env['passes']}, "
                  + ", ".join(f"{n}={r['value']:.4g}" for n, r in result["metrics"].items()),
                  flush=True)

    entry = {"label": args.record, "commit": env["commit"], "note": args.note, "seeds": seeds,
             "run_seconds": bench["run_seconds"],
             "env": {k: env[k] for k in ("nproc", "python", "numpy", "scipy", "blas",
                                          "blas_threads", "pulses_per_delay")},
             "workloads": {}}
    within_bounds = True
    for w in names:
        entry["workloads"][w] = {}
        print(f"\n{w}")
        for name, values in samples[w].items():
            st = spread_stats(values)
            st["unit"] = units[name]
            entry["workloads"][w][name] = st
            flag = ""
            if name in bounds:
                flag = f"bound {bounds[name]:g}"
                if st["spread"] > bounds[name]:
                    flag += "  EXCEEDS BOUND"
                    within_bounds = False
                elif st["spread"] > bounds[name] / 3:
                    flag += "  above a third of bound"
            print(f"  {name:22s} median {st['median']:.6g} {units[name]:6s} "
                  f"q1 {st['q1']:.6g} q3 {st['q3']:.6g} spread {st['spread']:.3f}  {flag}")
    if args.record:
        path = os.path.join(HERE, "trajectory.json")
        trajectory = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                trajectory = json.load(fh)
        trajectory.append(entry)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")
    return 0 if within_bounds else 1


if __name__ == "__main__":
    sys.exit(main())
