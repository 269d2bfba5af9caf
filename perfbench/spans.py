"""In-memory span recorder for the traced benchmark run.

The traced run wraps public functions of the macrohom modules from the
outside: for the length of one traced pass, each wrapped name in every
loaded ``macrohom`` module is replaced by a wrapper that records one span
(name, start, end, parent, pass id, CPU time, work count) and the
originals are put back afterwards.  Nothing in ``src/macrohom`` is edited,
so untraced passes run the program exactly as users do.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time


class Tracer:
    """Collects spans in memory; ``spans`` is written out when the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_id = None

    @contextlib.contextmanager
    def span(self, name):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "cpu": 0.0,
            "count": 0,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        cpu0 = time.process_time()
        try:
            yield rec
        finally:
            rec["cpu"] = time.process_time() - cpu0
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counter is not None:
                    rec["count"] = counter(args, kwargs, result)
            return result

        return traced

    def adopt(self, spans, parent):
        """Append spans recorded in a child process under span ``parent``.

        Both processes time with ``perf_counter`` (the system monotonic
        clock on Linux), so only parent links need renumbering.
        """
        offset = len(self.spans)
        for rec in spans:
            rec = dict(rec)
            rec["parent"] = parent if rec["parent"] is None else rec["parent"] + offset
            rec["pass"] = self.pass_id
            self.spans.append(rec)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _output_bytes(args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv"))
    out_dir = argv[argv.index("--out") + 1]
    return sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in sorted(os.listdir(out_dir))
    )


def _kernel_pairs(args, kwargs, result):
    return len(result) * len(_arg(args, kwargs, 3, "grid"))


def _clusters(args, kwargs, result):
    det = _arg(args, kwargs, 2, "det")
    lattice = _arg(args, kwargs, 3, "lattice")
    return det.n_pulses * det.m_modes * lattice.n_freq_bins


def _sectors(args, kwargs, result):
    return 2 * _arg(args, kwargs, 0, "state").n_max + 1


# (span name, module, attribute, counter): the layer boundaries the traced
# run records.  A class attribute is written "Class.method".
TARGETS = (
    ("config.load", "macrohom.config", "RunConfig.load", None),
    ("cli.main", "macrohom.cli", "main", _output_bytes),
    ("gain.calibrate_walkoff", "macrohom.gain", "calibrate_walkoff", None),
    ("gain.spectral_fwhm_nm", "macrohom.gain", "spectral_fwhm_nm", None),
    ("gain.fit_gain_curve", "macrohom.gain", "fit_gain_curve", None),
    ("trace.default_grid", "macrohom.trace", "default_grid", lambda a, k, r: len(r)),
    ("trace.nrf_trace", "macrohom.trace", "nrf_trace", _kernel_pairs),
    ("trace.pedestal_trace", "macrohom.trace", "pedestal_trace", _kernel_pairs),
    ("trace.g2_trace", "macrohom.trace", "g2_trace", None),
    ("trace.fwhm_vs_gain", "macrohom.trace", "fwhm_vs_gain", None),
    ("trace.detected_trace", "macrohom.trace", "detected_trace", None),
    ("trace.visibility", "macrohom.trace", "visibility", None),
    ("trace.fwhm_narrow", "macrohom.trace", "fwhm_narrow", None),
    ("trace.fwhm_pedestal", "macrohom.trace", "fwhm_pedestal", None),
    ("trace.mode_count_long", "macrohom.trace", "mode_count_long", None),
    ("trace.mode_count_g2", "macrohom.trace", "mode_count_g2", None),
    ("montecarlo.lattice_default", "macrohom.montecarlo", "LatticeSpec.default", None),
    ("montecarlo.simulate_ensemble", "macrohom.montecarlo", "simulate_ensemble", _clusters),
    ("montecarlo.expected_stats", "macrohom.montecarlo", "expected_stats", None),
    (
        "montecarlo.wigner_cell_occupancy",
        "macrohom.montecarlo",
        "wigner_cell_occupancy",
        None,
    ),
    ("fock.tmsv", "macrohom.fock", "tmsv", None),
    ("fock.hom_stats", "macrohom.fock", "hom_stats", _sectors),
    ("fock.nrf_single_mode", "macrohom.fock", "nrf_single_mode", None),
)

_EXTRACT = (
    "trace.detected_trace",
    "trace.visibility",
    "trace.fwhm_narrow",
    "trace.fwhm_pedestal",
    "trace.mode_count_long",
    "trace.mode_count_g2",
)


@contextlib.contextmanager
def instrument(tracer):
    """Route every TARGETS name through ``tracer`` until the block exits.

    A function is replaced in every loaded macrohom module that binds it,
    so calls through ``from .gain import ...`` names are recorded too,
    including the calls ``calibrate_walkoff`` makes to
    ``spectral_fwhm_nm``.
    """
    undo = []
    try:
        for name, module, attr, counter in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(importlib.import_module(module), cls_name)
                raw = cls.__dict__[meth]
                wrapped = classmethod(tracer.wrap(name, raw.__func__, counter))
                setattr(cls, meth, wrapped)
                undo.append((cls, meth, raw))
                continue
            orig = getattr(importlib.import_module(module), attr)
            wrapped = tracer.wrap(name, orig, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "macrohom" and getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# spans of the benchmark's own output checks: the calls under them are the
# checker's work, not the program's, and stay out of the layer metrics
CHECKER_SPANS = ("bench.mc_check",)


class _PassSpans:
    """Aggregates over the spans of one pass (parent links are global)."""

    def __init__(self, spans, pass_id):
        self.all = spans
        self.idx = [
            i
            for i, s in enumerate(spans)
            if s["pass"] == pass_id and not self._has_ancestor(i, CHECKER_SPANS)
        ]
        self.child_s = {i: 0.0 for i in self.idx}
        for i in self.idx:
            parent = spans[i]["parent"]
            if parent is not None and parent in self.child_s:
                self.child_s[parent] += self._dur(i)

    def _dur(self, i):
        return self.all[i]["end"] - self.all[i]["start"]

    def _has_ancestor(self, i, names):
        parent = self.all[i]["parent"]
        while parent is not None:
            if self.all[parent]["name"] in names:
                return True
            parent = self.all[parent]["parent"]
        return False

    def _outer(self, names, under=None):
        """Spans named in ``names`` with no ancestor also named there, so
        nested or recursive calls are not counted twice."""
        return [
            i
            for i in self.idx
            if self.all[i]["name"] in names
            and not self._has_ancestor(i, names)
            and (under is None or self._has_ancestor(i, (under,)))
        ]

    def time(self, *names, under=None):
        return float(sum(self._dur(i) for i in self._outer(names, under)))

    def cpu(self, *names):
        return float(sum(self.all[i]["cpu"] for i in self._outer(names)))

    def calls(self, *names):
        return sum(1 for i in self.idx if self.all[i]["name"] in names)

    def count(self, *names):
        return sum(self.all[i]["count"] for i in self.idx if self.all[i]["name"] in names)

    def self_time(self, layer):
        """Time spent in the code of one layer, child spans excluded."""
        return float(sum(
            self._dur(i) - self.child_s[i]
            for i in self.idx
            if self.all[i]["name"].split(".")[0] == layer
        ))


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, pass_id):
    """Per-layer totals of one traced pass, as {metric: (value, unit)}.

    Function times are inclusive (a ``g2_trace`` span contains its
    ``nrf_trace`` call); ``<layer>.self_s`` and ``cli.io_s`` exclude child
    spans and add up to the traced pass.  Calls under CHECKER_SPANS count
    as the benchmark's own time (``bench.self_s``).  A layer a workload
    bypasses reads 0.
    """
    p = _PassSpans(spans, pass_id)
    kernel_s = p.time("trace.nrf_trace", "trace.pedestal_trace")
    kernel_pairs = p.count("trace.nrf_trace", "trace.pedestal_trace")
    sim_s = p.time("montecarlo.simulate_ensemble")
    clusters = p.count("montecarlo.simulate_ensemble")
    metrics = {
        "config.load_s": (p.time("config.load"), "s"),
        "cli.io_s": (p.self_time("cli"), "s"),
        "cli.output_bytes": (p.count("cli.main"), "count"),
        "gain.calibrate_walkoff_s": (p.time("gain.calibrate_walkoff"), "s"),
        "gain.calibrate_walkoff_calls": (p.calls("gain.calibrate_walkoff"), "count"),
        "gain.spectral_fwhm_nm_s": (p.time("gain.spectral_fwhm_nm"), "s"),
        "gain.spectral_fwhm_nm_calls": (p.calls("gain.spectral_fwhm_nm"), "count"),
        "gain.fit_gain_curve_s": (p.time("gain.fit_gain_curve"), "s"),
        "trace.default_grid_s": (p.time("trace.default_grid"), "s"),
        "trace.grid_nodes": (p.count("trace.default_grid"), "count"),
        "trace.nrf_trace_s": (p.time("trace.nrf_trace"), "s"),
        "trace.pedestal_trace_s": (p.time("trace.pedestal_trace"), "s"),
        "trace.g2_trace_s": (p.time("trace.g2_trace"), "s"),
        "trace.fwhm_vs_gain_s": (p.time("trace.fwhm_vs_gain"), "s"),
        "trace.extract_s": (p.time(*_EXTRACT), "s"),
        "trace.kernel_pairs": (kernel_pairs, "count"),
        "trace.kernel_pairs_per_s": (_rate(kernel_pairs, kernel_s), "1/s"),
        "montecarlo.lattice_default_s": (p.time("montecarlo.lattice_default"), "s"),
        "montecarlo.simulate_ensemble_s": (sim_s, "s"),
        "montecarlo.simulate_ensemble_cpu_s": (p.cpu("montecarlo.simulate_ensemble"), "s"),
        "montecarlo.clusters": (clusters, "count"),
        "montecarlo.clusters_per_s": (_rate(clusters, sim_s), "1/s"),
        "montecarlo.expected_stats_s": (p.time("montecarlo.expected_stats"), "s"),
        "montecarlo.expected_stats_calls": (p.calls("montecarlo.expected_stats"), "count"),
        "fock.tmsv_s": (p.time("fock.tmsv"), "s"),
        "fock.hom_stats_cold_s": (p.time("fock.hom_stats", under="bench.fock_cold"), "s"),
        "fock.hom_stats_warm_s": (p.time("fock.hom_stats", under="bench.fock_warm"), "s"),
        "fock.sectors": (p.count("fock.hom_stats"), "count"),
    }
    for layer in ("gain", "trace", "montecarlo", "fock", "bench"):
        metrics[f"{layer}.self_s"] = (p.self_time(layer), "s")
    return metrics
