"""The benchmark's three workloads.

Each workload makes its inputs from the seed (``prepare``), runs one pass
of timed operations (``run_pass``) and checks every output.  The program
is driven only from outside: CLI commands go through
``macrohom.cli.main`` in this process, library calls go into the public
functions of ``montecarlo`` and ``fock`` (looked up on the module at call
time, so the traced run sees them).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import traceback

import numpy as np

from macrohom import cli, montecarlo
from macrohom.params import CrystalParams, DetectionModel, PumpParams

HERE = os.path.dirname(os.path.abspath(__file__))

# walk-off slope (ps/mm) that `calibrate` returns at the reference
# configuration; passing it explicitly keeps calibration out of `validation`
REFERENCE_SLOPE = 0.19898926491958538
MC_DELAYS = (0.0, 0.5, 1.0, 1.5, 2.5, 4.0, 6.0, 10.0, 16.0, 28.0, 45.0)
# an estimate further than this many standard errors from its Wick moment
# fails; 22 comparisons per seed put a false alarm near 1e-5
MC_Z_LIMIT = 5.0


class Checks:
    """How often each correctness check ran and failed."""

    def __init__(self, described):
        self.described = dict(described)
        self.ran = dict.fromkeys(self.described, 0)
        self.failed = dict.fromkeys(self.described, 0)

    def __call__(self, name, ok):
        ok = bool(ok)
        self.ran[name] += 1
        self.failed[name] += not ok
        return ok


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _csv_finite(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows.size > 0 and bool(np.all(np.isfinite(rows)))


def _summary(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _attempt(fn):
    """Run one operation; an exception counts as its failure."""
    try:
        return fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


class Workload:
    """One pass = a list of (operation, wall seconds, ok) plus the per-pass
    values of the workload's own end-to-end metrics."""

    name = ""
    op_metrics = {}  # metric -> unit, reported as medians over passes
    checks = {}  # check name -> description

    def __init__(self, workdir, seed, pulses):
        self.workdir = workdir
        self.seed = seed
        self.pulses = pulses
        self.check = Checks(self.checks)

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def prepare(self):
        os.makedirs(self.workdir, exist_ok=True)

    def run_cli(self, tracer, op, argv):
        """One CLI command through ``cli.main``; returns (exit code, wall s)."""
        sink = io.StringIO()
        with _span(tracer, "bench." + op):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = _attempt(lambda: cli.main(argv))
            wall = time.perf_counter() - t0
        if code != 0:
            print(f"{op}: exit {code}\n{sink.getvalue()}", file=sys.stderr)
        return code, wall


class Analytic(Workload):
    """The quadrature CLI commands at the reference configuration."""

    name = "analytic"
    op_metrics = {"calibrate_s": "s", "trace_s": "s", "g2_s": "s", "sweep_gain_s": "s"}
    checks = {
        "analytic.calibrate": "|calibrated spectral FWHM - 1.3 nm| <= 1e-3 nm",
        "analytic.trace": "visibility >= 0.999 and |m_long - 8| <= 2",
        "analytic.g2": "|g2 mode count - 10| <= 0.1",
        "analytic.sweep_gain": "|FWHM(7.5)/FWHM(5.5) - 0.80| <= 0.05",
        "analytic.fit_gain": "fit-gain recovers c within 2%",
        "analytic.finite": "exit 0 and every CSV and summary value finite",
    }
    # synthetic pump-power scan: N = sinh^2(c sqrt(P)), G = 7.5 at 55 mW, with
    # 0.4 % noise: c and the scale trade off in the fit, so c scatters by
    # 0.4 % and the 2 % tolerance sits 5 standard deviations out (criterion
    # 9's 1 % noise misses 2 % on about 3 % of seeds)
    C_TRUE = 7.5 / math.sqrt(55.0)

    def prepare(self):
        super().prepare()
        rng = np.random.default_rng(self.seed)
        powers = np.linspace(5.0, 55.0, 11)
        intens = np.sinh(self.C_TRUE * np.sqrt(powers)) ** 2
        intens = intens * (1.0 + 0.004 * rng.standard_normal(intens.size))
        with open(self.path("fit.csv"), "w", encoding="utf-8") as fh:
            fh.write("power_mw,intensity\n")
            for p, y in zip(powers, intens):
                fh.write(f"{float(p)!r},{float(y)!r}\n")
        with open(self.path("fit.ini"), "w", encoding="utf-8") as fh:
            fh.write(f"[fit]\ndata = {self.path('fit.csv')}\n")

    def _judge(self, op, code, out_dir, csv_name):
        if code != 0:
            return self.check("analytic.finite", False)
        s = _summary(out_dir)["summary"]
        numbers = [v for v in s.values() if not isinstance(v, bool)]
        ok = self.check(
            "analytic.finite",
            _finite(*numbers) and _csv_finite(os.path.join(out_dir, csv_name)),
        )
        if op == "calibrate":
            good = abs(s["achieved_fwhm_nm"] - 1.3) <= 1e-3
        elif op == "trace":
            good = s["visibility"] >= 0.999 and abs(s["m_long"] - 8.0) <= 2.0
        elif op == "g2":
            good = abs(s["mode_count_g2"] - 10.0) <= 0.1
        elif op == "sweep_gain":
            good = abs(s["fwhm_ratio_7p5_over_5p5"] - 0.80) <= 0.05
        else:
            good = abs(s["c_per_sqrt_mw"] - self.C_TRUE) / self.C_TRUE < 0.02
        return self.check("analytic." + op, good) and ok

    def run_pass(self, tracer):
        steps = (
            ("calibrate", ["calibrate"], "calibration.csv", "calibrate_s"),
            ("trace", ["trace"], "trace.csv", "trace_s"),
            ("g2", ["g2"], "g2.csv", "g2_s"),
            ("sweep_gain", ["sweep-gain"], "sweep_gain.csv", "sweep_gain_s"),
            ("fit_gain", ["fit-gain", "--config", self.path("fit.ini")], "fit_gain_residuals.csv", None),
        )
        ops, values = [], {}
        for op, argv, csv_name, metric in steps:
            out_dir = self.path(op)
            code, wall = self.run_cli(tracer, op, argv + ["--out", out_dir])
            judged = _attempt(lambda: self._judge(op, code, out_dir, csv_name))
            ops.append((op, wall, bool(judged)))
            if metric:
                values[metric] = wall
        return ops, values


class McScan(Workload):
    """``macrohom mc`` on the reference lattice at a reduced pulse count."""

    name = "mc_scan"
    op_metrics = {"mc_pulses_per_s": "1/s"}
    checks = {
        "mc_scan.finite": "exit 0 and every mc.csv value finite",
        "mc_scan.wick": f"every delay's nrf_hat and g2_hat within {MC_Z_LIMIT:g} se of expected_stats",
        "mc_scan.repeat": "mc.csv identical between passes with the same seed",
    }

    def prepare(self):
        super().prepare()
        with open(self.path("mc.ini"), "w", encoding="utf-8") as fh:
            fh.write(f"[detection]\npulses = {self.pulses}\n")
        self.first_hash = None

    def _within(self, out_dir, tracer):
        """Compare every delay of mc.csv with the exact moments at the
        parameters the run's manifest resolved."""
        with open(os.path.join(out_dir, "mc.csv"), encoding="utf-8") as fh:
            rows = [list(map(float, row)) for row in list(csv.reader(fh))[1:]]
        if tuple(row[0] for row in rows) != MC_DELAYS:
            return False
        r = _summary(out_dir)["resolved"]
        crystal = CrystalParams(r["crystal"]["length_mm"], r["crystal"]["walkoff_ps_per_mm"])
        p = r["pump"]
        pump = PumpParams(p["gain"], p["pulse_fwhm_ps"], p["degenerate_nm"], p["pump_nm"])
        d = r["detection"]
        det = DetectionModel(d["efficiency"], d["modes"], d["noise_var"], d["pulses"])
        la = r["lattice"]
        lattice = montecarlo.LatticeSpec(
            la["n_time_slices"], la["n_freq_bins"], la["slice_duration_ps"], la["bin_width_rad_per_ps"]
        )
        within = True
        with _span(tracer, "bench.mc_check"):
            for tau, nrf_hat, se_nrf, g2_hat, se_g2 in rows:
                _, nrf, g2 = montecarlo.expected_stats(crystal, pump, det, lattice, tau)
                within &= abs(nrf_hat - nrf) <= MC_Z_LIMIT * se_nrf
                within &= abs(g2_hat - g2) <= MC_Z_LIMIT * se_g2
        return within

    def run_pass(self, tracer):
        out_dir = self.path("mc")
        argv = ["mc", "--config", self.path("mc.ini"), "--out", out_dir,
                "--seed", str(self.seed), "--threads", "1"]
        code, wall = self.run_cli(tracer, "mc", argv)
        ok = self.check("mc_scan.finite", code == 0 and _csv_finite(os.path.join(out_dir, "mc.csv")))
        if ok:
            ok = self.check("mc_scan.wick", _attempt(lambda: self._within(out_dir, tracer)))
            digest = _sha256(os.path.join(out_dir, "mc.csv"))
            self.first_hash = self.first_hash or digest
            ok = self.check("mc_scan.repeat", digest == self.first_hash) and ok
        rate = len(MC_DELAYS) * self.pulses / wall
        return [("mc", wall, ok)], {"mc_pulses_per_s": rate}


class Validation(Workload):
    """The exact-reference checks of the acceptance suite, as library calls."""

    name = "validation"
    op_metrics = {"fock_cold_s": "s", "fock_warm_s": "s", "wick_s": "s", "dip_check_s": "s"}
    checks = {
        "validation.fock": "Fock oracle within 1e-6 of the closed form (criterion 7), cold and warm",
        "validation.wick": "expected_stats finite and identical between passes",
        "validation.dip": "MC dip depth within 3 se of the Wick depth (criterion 6)",
    }

    def prepare(self):
        super().prepare()
        self.crystal = CrystalParams(length_mm=10.0, walkoff_slope=REFERENCE_SLOPE)
        self.pump = PumpParams()
        self.det_ref = DetectionModel()
        self.det_dip = DetectionModel(eta=0.03, m_modes=1, n_pulses=6000)
        self.lattice = montecarlo.LatticeSpec.default(self.crystal, self.pump, n_freq_bins=48)
        self.first_wick = None

    def _fock(self, tracer):
        """Criterion 7 in a fresh process: the first sweep builds the
        splitter matrices, the second reuses them."""
        cmd = [sys.executable, os.path.join(HERE, "fock_worker.py")]
        if tracer is not None:
            cmd.append("--trace")
        with _span(tracer, "bench.fock"):
            parent = len(tracer.spans) - 1 if tracer is not None else None
            proc = _attempt(lambda: subprocess.run(cmd, capture_output=True, text=True, timeout=120))
        if proc is None or proc.returncode != 0:
            print(proc.stderr if proc else "", file=sys.stderr)
            return [("fock_cold", 0.0, self.check("validation.fock", False)),
                    ("fock_warm", 0.0, self.check("validation.fock", False))]
        res = json.loads(proc.stdout.splitlines()[-1])
        if tracer is not None:
            tracer.adopt(res["spans"], parent)
        return [
            (f"fock_{phase}", res[f"{phase}_s"], self.check("validation.fock", res[f"{phase}_dev"] < 1e-6))
            for phase in ("cold", "warm")
        ]

    def _wick_op(self, tracer):
        with _span(tracer, "bench.wick"):
            t0 = time.perf_counter()
            vals = _attempt(lambda: [
                montecarlo.expected_stats(self.crystal, self.pump, self.det_ref, self.lattice, tau)
                for tau in MC_DELAYS
            ])
            wall = time.perf_counter() - t0
        ok = vals is not None and _finite(*np.ravel(vals))
        if ok:
            self.first_wick = self.first_wick or vals
            ok = vals == self.first_wick
        return ("wick", wall, self.check("validation.wick", ok))

    def _dip(self):
        lattice = montecarlo.LatticeSpec.default(self.crystal, self.pump, n_freq_bins=16)
        checks = []
        for idx, tau in enumerate((0.0, 40.0)):
            st = montecarlo.simulate_ensemble(
                self.crystal, self.pump, self.det_dip, lattice, tau,
                montecarlo.derive_seed(self.seed, idx),
            )
            _, _, g2_exact = montecarlo.expected_stats(self.crystal, self.pump, self.det_dip, lattice, tau)
            checks.append((st.g2_hat, g2_exact, st.se_g2))
        return checks

    def _dip_op(self, tracer):
        with _span(tracer, "bench.dip_check"):
            t0 = time.perf_counter()
            checks = _attempt(self._dip)
            wall = time.perf_counter() - t0
        ok = checks is not None and _finite(*np.ravel(checks))
        if ok:
            mc_depth = checks[1][0] - checks[0][0]
            wick_depth = checks[1][1] - checks[0][1]
            ok = abs(mc_depth - wick_depth) < 3.0 * (checks[0][2] + checks[1][2])
        return ("dip_check", wall, self.check("validation.dip", ok))

    def run_pass(self, tracer):
        ops = self._fock(tracer) + [self._wick_op(tracer), self._dip_op(tracer)]
        return ops, {f"{op}_s": wall for op, wall, _ in ops}


WORKLOADS = {w.name: w for w in (Analytic, McScan, Validation)}


def prepare(workload, workdir, seed, pulses):
    """Build a workload and make its inputs: everything before the first
    timed operation."""
    wl = WORKLOADS[workload](workdir, seed, pulses)
    wl.prepare()
    return wl
