"""The benchmark depends on package names and on the mc manifest layout.
The traced run wraps package functions by name (TARGETS in
perfbench/spans.py), and the mc_scan check rebuilds the parameter records
positionally from the manifest's ``resolved`` block.  A rename or deletion
that breaks either fails here, in the test suite, instead of in a
benchmark run."""

import importlib
import importlib.util
import json
import math
import pathlib

import pytest

from macrohom.cli import main
from macrohom.config import RunConfig
from macrohom.montecarlo import LatticeSpec, expected_stats
from macrohom.params import CrystalParams, DetectionModel, PumpParams

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("module, attr", [t[1:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_target_resolves(module, attr):
    assert module.split(".")[0] == "macrohom"
    owner = importlib.import_module(module)
    if "." in attr:
        # wrapped through the class __dict__ as a classmethod
        cls_name, meth = attr.split(".")
        assert isinstance(getattr(owner, cls_name).__dict__[meth], classmethod)
    else:
        assert callable(getattr(owner, attr))


def test_mc_manifest_rebuilds_records(tmp_path):
    # the same positional rebuild as McScan._within in perfbench/workloads.py
    cfg = tmp_path / "mc.ini"
    cfg.write_text("[detection]\npulses = 3\nmodes = 1\n[mc]\ntau_points = 0.0\nn_freq_bins = 2\n")
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        r = json.load(fh)["resolved"]
    crystal = CrystalParams(r["crystal"]["length_mm"], r["crystal"]["walkoff_ps_per_mm"])
    p = r["pump"]
    pump = PumpParams(p["gain"], p["pulse_fwhm_ps"], p["degenerate_nm"], p["pump_nm"])
    d = r["detection"]
    det = DetectionModel(d["efficiency"], d["modes"], d["noise_var"], d["pulses"])
    la = r["lattice"]
    lattice = LatticeSpec(
        la["n_time_slices"], la["n_freq_bins"], la["slice_duration_ps"], la["bin_width_rad_per_ps"]
    )
    config = RunConfig.load(str(cfg))
    assert (crystal, pump, det) == (config.crystal(), config.pump(), config.detection())
    assert lattice == LatticeSpec.default(crystal, pump, n_freq_bins=2)
    assert all(math.isfinite(v) for v in expected_stats(crystal, pump, det, lattice, 0.0))
