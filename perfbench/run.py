#!/usr/bin/env python3
"""macrohom benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 35 --trace 0

Workloads: ``analytic`` (quadrature CLI commands), ``mc_scan`` (the ``mc``
command) and ``validation`` (Fock oracle, Wick moments, dip cross-check);
see perfbench/README.md.  The run repeats whole workload passes until
``--seconds`` is used up, checks every output, and prints one line per
metric and per correctness check.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced passes with ``--trace 1``.  Scratch files go to .perfbench_work/,
the full result (environment, samples, spans) to .perfbench_out/, both at
the repository root.  Exits 2 without a result when the macrohom sources
are missing.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))

# cap BLAS threads at nproc before numpy loads; child processes inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

WORKLOAD_NAMES = ("analytic", "mc_scan", "validation")
# one fresh-interpreter set-up probe per this many seconds of the run, taken
# between passes, so that setup_s spans the run as pass_s does
SETUP_EVERY_S = 4.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pulses", type=int, default=768,
                    help="mc pulses per delay, a multiple of the 256-pulse chunk")
    ap.add_argument("--max-passes", type=int, default=0, help="stop after this many passes")
    return ap.parse_args(argv)


def git_commit():
    """HEAD of the checkout, marked when src/ differs from it."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"

    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    head = git("rev-parse", "HEAD") or "unknown"
    return head + "+src-modified" if git("status", "--porcelain", "--", "src") else head


def environment(args, n_passes, n_setup):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": args.workload,
        "seed": args.seed,
        "pulses_per_delay": args.pulses,
        "passes": n_passes,
        "setup_samples": n_setup,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
    }


def time_setup(args, workdir):
    """Wall time of a fresh interpreter that imports macrohom and makes
    the workload's inputs, up to where the first timed operation starts."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           args.workload, workdir, str(args.seed), str(args.pulses)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # a blocking wait: Popen.wait(timeout) polls in 50 ms steps, which
    # would quantise the time
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    code = proc.wait()
    wall = time.perf_counter() - t0
    watchdog.cancel()
    watchdog.join()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return wall


def measure(wl, tracer, args, probe_dir):
    """Run passes until ``--seconds`` is used up, with a set-up probe
    before a pass whenever the probes fall behind one per SETUP_EVERY_S.
    With a tracer, passes alternate untraced and traced so that both ends
    of the tracing overhead come from the same run."""
    import spans

    passes, setup = [], []
    t_start = time.perf_counter()
    while True:
        while len(setup) <= (time.perf_counter() - t_start) / SETUP_EVERY_S:
            setup.append(time_setup(args, probe_dir))
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_id = len(passes)
        with spans.instrument(tracer) if traced else contextlib.nullcontext():
            ops, values = wl.run_pass(tracer if traced else None)
        passes.append({"traced": traced, "ops": ops, "values": values,
                       "wall_s": sum(wall for _, wall, _ in ops)})
        elapsed = time.perf_counter() - t_start
        # stop once the next pass would end more than half a pass past the deadline
        done = elapsed + 0.5 * elapsed / len(passes) >= args.seconds
        if args.max_passes:
            done = len(passes) >= args.max_passes
        if done and (tracer is None or len(passes) >= 2):
            return passes, setup


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "macrohom", "__init__.py")):
        print(f"error: macrohom sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    import macrohom

    if not os.path.abspath(macrohom.__file__).startswith(SRC + os.sep):
        print(f"error: imported macrohom from {macrohom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    # relative paths keep the manifests, and so cli.output_bytes, the same
    # in every checkout
    os.chdir(ROOT)
    workdir = os.path.join(".perfbench_work", args.workload)
    probe_dir = workdir + "-setup"
    for d in (workdir, probe_dir):
        shutil.rmtree(d, ignore_errors=True)

    wl = workloads.prepare(args.workload, workdir, args.seed, args.pulses)
    tracer = spans.Tracer() if args.trace else None
    passes, setup = measure(wl, tracer, args, probe_dir)

    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(1 for _, _, ok in ops if not ok)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    # name -> (value, unit, what the value is)
    reported = {}
    n_un = len(untraced)
    reported["setup_s"] = (median(setup), "s",
                           f"median of {len(setup)} fresh interpreters spread over the run")
    reported["pass_s"] = (median([p["wall_s"] for p in untraced]), "s", f"median of {n_un} passes")
    reported["peak_rss_mb"] = (peak_rss_mb(), "MB", "peak resident set, this process or a child")
    for name, unit in wl.op_metrics.items():
        samples = [p["values"][name] for p in untraced]
        reported[name] = (median(samples), unit, f"median of {n_un} passes")
    reported["fail_ratio"] = (failed / attempted, "ratio", f"{failed} of {attempted} operations failed")
    declared = ("setup_s", "pass_s", "peak_rss_mb")

    if tracer is not None:
        per_pass = [spans.layer_metrics(tracer.spans, i) for i, p in enumerate(passes) if p["traced"]]
        n_tr = len(per_pass)
        for name, (_, unit) in per_pass[0].items():
            values = [m[name][0] for m in per_pass]
            # a count stays whole: every traced pass repeats the same work
            value = statistics.median_low(values) if unit == "count" else median(values)
            reported[name] = (value, unit, f"median of {n_tr} traced passes")
        overhead = median([p["wall_s"] for p in traced]) - reported["pass_s"][0]
        reported["tracing.overhead_s"] = (overhead, "s", "traced minus untraced median pass_s")
        declared = tuple(per_pass[0]) + ("tracing.overhead_s",)

    env = environment(args, len(passes), len(setup))
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, what) in reported.items():
        print(f"metric {name} = {value!r} {unit} ({what})")
    for name, desc in wl.check.described.items():
        print(f"check {name}: ran {wl.check.ran[name]}, failed {wl.check.failed[name]} -- {desc}")

    correct = failed == 0 and all(wl.check.ran.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": reported[n][0], "unit": reported[n][1]} for n in declared},
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "env": env,
            "result": result,
            "reported": {n: {"value": v, "unit": u, "what": w} for n, (v, u, w) in reported.items()},
            "setup_samples_s": setup,
            "passes": passes,
            "checks": {n: {"ran": wl.check.ran[n], "failed": wl.check.failed[n]} for n in wl.check.described},
            "spans": tracer.spans if tracer is not None else [],
        }, fh, indent=1)
    for d in (workdir, probe_dir):
        shutil.rmtree(d, ignore_errors=True)
    print(f"results {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
