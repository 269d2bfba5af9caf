import configparser
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import pkgutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import macrohom
from macrohom import montecarlo
from macrohom.cli import main
from macrohom.config import _DEFAULTS
from macrohom.gain import calibrate_walkoff
from macrohom.params import PumpParams

FAST_TRACE = """
[trace]
tau_max_ps = 40.0
tau_step_ps = 0.1
"""

FAST_G2 = """
[trace]
tau_max_ps = 60.0
tau_step_ps = 0.1
"""


def run(tmp_path, command, config_text=None, extra=None):
    argv = [command, "--out", str(tmp_path)]
    if config_text is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    if extra:
        argv += extra
    return main(argv)


def read_manifest(tmp_path):
    with open(tmp_path / "manifest.json") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


class TestTraceCommand:
    def test_zero_config_reproduces_reference(self, tmp_path):
        assert run(tmp_path, "trace", FAST_TRACE) == 0
        manifest = read_manifest(tmp_path)
        assert manifest["summary"]["visibility"] >= 0.999
        assert manifest["summary"]["m_long"] == pytest.approx(8.0, abs=2.0)
        header, rows = read_csv(tmp_path / "trace.csv")
        assert header == ["tau_ps", "nrf_ideal", "nrf_pedestal", "nrf_detected"]
        assert len(rows) == 801

    def test_unit_efficiency_columns_match(self, tmp_path):
        cfg = FAST_TRACE + "\n[detection]\nefficiency = 1.0\n"
        assert run(tmp_path, "trace", cfg) == 0
        _, rows = read_csv(tmp_path / "trace.csv")
        for row in rows:
            assert row[1] == row[3]

    def test_empty_tau_grid_rejected(self, tmp_path):
        cfg = "[trace]\ntau_max_ps = 0.0\ntau_step_ps = 0.1\n"
        assert run(tmp_path, "trace", cfg) == 2

    def test_unknown_key_rejected(self, tmp_path):
        assert run(tmp_path, "trace", "[trace]\nbogus = 1\n") == 2

    def test_missing_section_header_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "trace", "tau_max_ps = 10\n") == 2
        assert "malformed config" in capsys.readouterr().err

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(b"[trace]\ntau_max_ps = 10\xff\n")
        assert main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"malformed config {cfg}: 'utf-8' codec" in capsys.readouterr().err

    def test_rerun_is_bit_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir()
        out_b.mkdir()
        cfg = tmp_path / "run.ini"
        cfg.write_text(FAST_TRACE)
        assert main(["trace", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["trace", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    def test_csv_round_trip_exact(self, tmp_path):
        assert run(tmp_path, "trace", FAST_TRACE) == 0
        from macrohom.config import RunConfig
        from macrohom.trace import default_grid, nrf_trace

        config = RunConfig.load(str(tmp_path / "run.ini"))
        pump, crystal = config.pump(), config.crystal()
        tau = config.tau_grid()
        grid = default_grid(crystal, pump)
        reference = nrf_trace(tau, crystal, pump, grid)
        _, rows = read_csv(tmp_path / "trace.csv")
        parsed = np.array([row[1] for row in rows])
        np.testing.assert_array_equal(parsed, reference.value)


class TestG2Command:
    def test_reference_configuration(self, tmp_path):
        assert run(tmp_path, "g2", FAST_G2) == 0
        manifest = read_manifest(tmp_path)
        assert manifest["summary"]["dip_visibility"] == pytest.approx(0.022, abs=0.01)
        assert manifest["summary"]["g2_edge"] == pytest.approx(1.100, abs=1e-3)
        assert manifest["summary"]["mode_count_g2"] == pytest.approx(10.0, abs=0.1)

    def test_single_mode_edge(self, tmp_path):
        cfg = FAST_G2 + "\n[detection]\nmodes = 1\n"
        assert run(tmp_path, "g2", cfg) == 0
        _, rows = read_csv(tmp_path / "g2.csv")
        n_mode = math.sinh(7.5) ** 2
        assert rows[0][1] == pytest.approx(2.0 + 1.0 / n_mode, abs=1e-6)

    def test_many_modes_flatten_to_unity(self, tmp_path):
        cfg = FAST_G2 + "\n[detection]\nmodes = 100000\n"
        assert run(tmp_path, "g2", cfg) == 0
        _, rows = read_csv(tmp_path / "g2.csv")
        values = np.array([row[1] for row in rows])
        assert np.max(np.abs(values - 1.0)) < 1e-4


class TestHighGain:
    # beyond d L the interference integral is exactly 0, so nrf there is
    # the pedestal, not a truncation residue below shot noise
    def test_trace_stays_above_shot_noise(self, tmp_path):
        assert run(tmp_path, "trace", "[pump]\ngain = 12\n") == 0
        _, rows = read_csv(tmp_path / "trace.csv")
        assert min(row[1] for row in rows) >= 1.0

    def test_g2_runs(self, tmp_path):
        assert run(tmp_path, "g2", "[pump]\ngain = 12\n") == 0


class TestWalkoffSizedGrid:
    """The default grid is sized by the walk-off alone, so low gains and
    long delay ranges, which the largest delay would size past any node
    cap, run and agree with a grid of twice the nodes."""

    @pytest.mark.parametrize("command", ["trace", "g2"])
    @pytest.mark.parametrize("gain", [2.0, 3.0])
    def test_low_gain_matches_a_doubled_grid(self, tmp_path, command, gain):
        from macrohom.config import RunConfig
        from macrohom.gain import omega_max_for
        from macrohom.params import SpectralGrid
        from macrohom.trace import default_grid, detected_trace, g2_trace, nrf_and_pedestal

        assert run(tmp_path, command, f"[pump]\ngain = {gain}\n") == 0
        config = RunConfig.load(str(tmp_path / "run.ini"))
        pump, crystal, det, tau = config.pump(), config.crystal(), config.detection(), config.tau_grid()
        doubled = SpectralGrid.gauss_legendre(
            omega_max_for(crystal, pump), 2 * len(default_grid(crystal, pump))
        )
        if command == "trace":
            nrf, ped = nrf_and_pedestal(tau, crystal, pump, doubled)
            want = [nrf.value, ped.value, detected_trace(nrf, det).value]
        else:
            want = [g2_trace(tau, crystal, pump, doubled, det).value]
        _, rows = read_csv(tmp_path / f"{command}.csv")
        got = np.array(rows).T
        np.testing.assert_array_equal(got[0], tau)
        for column, values in zip(got[1:], want, strict=True):
            np.testing.assert_allclose(column, values, rtol=1e-11, atol=0)

    def test_long_delay_range(self, tmp_path):
        assert run(tmp_path, "g2", "[trace]\ntau_max_ps = 3000\ntau_step_ps = 1.0\n") == 0
        _, rows = read_csv(tmp_path / "g2.csv")
        assert len(rows) == 6001 and rows[0][0] == -3000.0


class TestWriteCsv:
    def test_each_value_is_the_repr_of_its_float(self, tmp_path):
        from macrohom.cli import _write_csv

        edge = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300,
                0.1, 1.0 / 3.0, 2.0**53 + 2.0, 1.7976931348623157e308]
        ints = [0, -1, 3, 2**53 + 1, 10**20, 7, -5, 1, 2, 12345678901234567, 4]
        columns = [np.array(edge), ints, tuple(np.float64(x) for x in edge[::-1])]
        digest = _write_csv(tmp_path / "t.csv", ["a", "b", "c"], columns)
        lines = ["a,b,c", *(",".join(repr(float(x)) for x in row) for row in zip(*columns))]
        data = (tmp_path / "t.csv").read_bytes()
        assert data == "".join(line + "\n" for line in lines).encode("utf-8")
        assert digest == hashlib.sha256(data).hexdigest()
        assert data.splitlines()[1] == b"-0.0,0.0,1.7976931348623157e+308"

    def test_header_only(self, tmp_path):
        from macrohom.cli import _write_csv

        digest = _write_csv(tmp_path / "t.csv", ["x", "y"], [[], []])
        assert (tmp_path / "t.csv").read_bytes() == b"x,y\n"
        assert digest == hashlib.sha256(b"x,y\n").hexdigest()


class TestSweepGainCommand:
    def test_ratio_and_monotonicity(self, tmp_path):
        cfg = "[sweep]\ng_values = 5.5,6.5,7.5\ntau_step_ps = 0.02\n"
        assert run(tmp_path, "sweep-gain", cfg) == 0
        manifest = read_manifest(tmp_path)
        assert manifest["summary"]["fwhm_ratio_7p5_over_5p5"] == pytest.approx(0.80, abs=0.05)
        assert manifest["summary"]["monotone_nonincreasing"] is True
        _, rows = read_csv(tmp_path / "sweep_gain.csv")
        assert len(rows) == 3

    def test_single_point(self, tmp_path):
        cfg = "[sweep]\ng_values = 7.5\n"
        assert run(tmp_path, "sweep-gain", cfg) == 0
        _, rows = read_csv(tmp_path / "sweep_gain.csv")
        assert len(rows) == 1
        assert rows[0][0] == 7.5

    def test_empty_g_values_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "sweep-gain", "[sweep]\ng_values = ,\n") == 2
        assert "g_values is empty" in capsys.readouterr().err


class TestFitGainCommand:
    def make_data(self, tmp_path, noise=0.0):
        c_true = 7.5 / math.sqrt(55.0)
        rng = np.random.default_rng(4)
        powers = np.linspace(5.0, 55.0, 11)
        intens = np.sinh(c_true * np.sqrt(powers)) ** 2
        intens = intens * (1.0 + noise * rng.standard_normal(intens.size))
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            fh.write("power_mw,intensity\n")
            for p, i in zip(powers, intens):
                fh.write(f"{float(p)!r},{float(i)!r}\n")
        return path, c_true

    def test_round_trip(self, tmp_path):
        path, c_true = self.make_data(tmp_path)
        cfg = f"[fit]\ndata = {path}\n"
        assert run(tmp_path, "fit-gain", cfg) == 0
        manifest = read_manifest(tmp_path)
        assert manifest["summary"]["c_per_sqrt_mw"] == pytest.approx(c_true, rel=1e-3)
        assert manifest["summary"]["gain_at_max_power"] == pytest.approx(7.5, rel=1e-3)

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("watts,counts\n1,2\n")
        assert run(tmp_path, "fit-gain", f"[fit]\ndata = {path}\n") == 2

    def test_missing_file(self, tmp_path):
        assert run(tmp_path, "fit-gain", "[fit]\ndata = /nonexistent.csv\n") == 4

    @pytest.mark.parametrize(
        "rows, code, message",
        [
            ("1,nan\n2,3\n3,5\n", 2, "must be finite"),
            ("1,2\ninf,3\n3,5\n", 2, "must be finite"),
            ("5,1e308\n20,1e308\n55,1e308\n", 3, "gain-curve fit failed"),
            ("5,1\n20,300\n1e300,1e6\n", 3, "gain-curve fit failed"),
            ("1e-300,1\n20,300\n55,1e6\n", 0, ""),  # a finite minimum: see test_gain
            ("1,2,3\n2,3\n3,5\n", 2, "expected 2 columns"),
            ("1,abc\n2,3\n3,5\n", 2, "non-numeric value"),
            ("0,1\n20,300\n55,1e6\n", 2, "powers must be > 0"),
            ("5,-1\n20,300\n55,1e6\n", 2, "intensities must be >= 0"),
            ("5,22.5\n\n20,2119\n55,817254\n", 0, ""),  # blank lines are skipped
            ("5,22.5\xb5\n20,2119\n55,817254\n", 2, "data.csv: not a readable UTF-8 CSV"),
            ("5," + "1" * 131073 + "\n20,2119\n55,817254\n", 2, "data.csv: not a readable UTF-8 CSV"),
        ],
    )
    def test_unfittable_values(self, tmp_path, capsys, rows, code, message):
        path = tmp_path / "data.csv"
        path.write_text("power_mw,intensity\n" + rows, encoding="latin-1")  # \xb5 is not UTF-8
        assert run(tmp_path, "fit-gain", f"[fit]\ndata = {path}\n") == code
        assert message in capsys.readouterr().err


class TestCalibrateCommand:
    def test_closure(self, tmp_path):
        assert run(tmp_path, "calibrate") == 0
        manifest = read_manifest(tmp_path)
        assert manifest["summary"]["achieved_fwhm_nm"] == pytest.approx(1.3, abs=1e-3)

    def test_monotone_targets(self, tmp_path):
        slopes = []
        for target in (1.0, 2.0):
            out = tmp_path / f"t{target}"
            out.mkdir()
            cfg = tmp_path / f"c{target}.ini"
            cfg.write_text(f"[crystal]\ncalibration_fwhm_nm = {target}\n")
            assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
            with open(out / "manifest.json") as fh:
                slopes.append(json.load(fh)["summary"]["walkoff_ps_per_mm"])
        assert slopes[0] > slopes[1]

    def test_zero_gain_rejected(self, tmp_path):
        assert run(tmp_path, "calibrate", "[pump]\ngain = 0.0\n") == 2

    def test_high_gain_half_maximum_converges(self, tmp_path):
        # scipy's brentq needs more than its default 100 iterations at this gain
        assert run(tmp_path, "calibrate", "[pump]\ngain = 221.617772929776\n") == 0
        summary = read_manifest(tmp_path)["summary"]
        assert summary["walkoff_ps_per_mm"] == pytest.approx(1.0204769548090022, rel=1e-12)
        assert summary["achieved_fwhm_nm"] == pytest.approx(1.3, rel=1e-12)

    def test_reads_crystal_section(self, tmp_path):
        cfg = "[crystal]\nlength_mm = 5.0\ncalibration_fwhm_nm = 2.0\n"
        assert run(tmp_path, "calibrate", cfg) == 0
        expected = calibrate_walkoff(2.0, PumpParams(g_peak=7.5, t_p=18.0), length_mm=5.0)
        manifest = read_manifest(tmp_path)
        assert manifest["summary"]["walkoff_ps_per_mm"] == expected.walkoff_slope
        assert manifest["resolved"]["crystal"]["length_mm"] == 5.0

    def test_old_section_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "calibrate", "[calibrate]\ntarget_fwhm_nm = 1.3\n") == 2
        assert "unknown config section [calibrate]" in capsys.readouterr().err


MC_FAST = """
[detection]
pulses = 800
modes = 4
[mc]
tau_points = 0.0,10.0
n_freq_bins = 16
"""


class TestMcCommand:
    def test_runs_and_records_seed(self, tmp_path):
        assert run(tmp_path, "mc", MC_FAST, extra=["--seed", "99"]) == 0
        manifest = read_manifest(tmp_path)
        assert manifest["resolved"]["seed"] == 99
        assert manifest["resolved"]["rng"] == montecarlo.RNG_STREAM
        assert manifest["summary"]["wigner_cell_occupancy"] >= 10.0
        header, rows = read_csv(tmp_path / "mc.csv")
        assert header == ["tau_ps", "nrf_hat", "se_nrf", "g2_hat", "se_g2"]
        assert len(rows) == 2

    def test_seed_reproducibility(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir()
        out_b.mkdir()
        cfg = tmp_path / "run.ini"
        cfg.write_text(MC_FAST)
        for out in (out_a, out_b):
            assert main(["mc", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
        assert (out_a / "mc.csv").read_bytes() == (out_b / "mc.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_manifest_replays_the_run(self, tmp_path, threads):
        # the manifest alone reproduces a run: its config block written back
        # as an INI and its recorded seed give the same mc.csv bytes
        first, replay = tmp_path / "first", tmp_path / "replay"
        first.mkdir()
        replay.mkdir()
        cfg = "[detection]\npulses = 48\n[mc]\ntau_points = 0.0, 2.5, 45.0\n"
        assert run(first, "mc", cfg, extra=["--seed", "11"]) == 0
        manifest = read_manifest(first)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(manifest["config"])
        with open(replay / "replayed.ini", "w") as fh:
            parser.write(fh)
        seed = str(manifest["resolved"]["seed"])
        argv = ["mc", "--config", str(replay / "replayed.ini"), "--out", str(replay)]
        assert main(argv + ["--seed", seed, "--threads", threads]) == 0
        digest = hashlib.sha256((replay / "mc.csv").read_bytes()).hexdigest()
        assert digest == manifest["outputs"]["mc.csv"]

    def test_threads_do_not_change_results(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir()
        out_b.mkdir()
        cfg = tmp_path / "run.ini"
        cfg.write_text(MC_FAST)
        assert main(["mc", "--config", str(cfg), "--out", str(out_a), "--seed", "5"]) == 0
        assert (
            main(
                ["mc", "--config", str(cfg), "--out", str(out_b), "--seed", "5", "--threads", "2"]
            )
            == 0
        )
        assert (out_a / "mc.csv").read_bytes() == (out_b / "mc.csv").read_bytes()

    def test_reference_lattice_is_identical_at_any_thread_count(self, tmp_path):
        # 480 clusters: each 256-pulse chunk is drawn in blocks of 34 pulses,
        # and the second chunk of 44 pulses ends in a partial block
        cfg = "[detection]\npulses = 300\n[mc]\ntau_points = 0.0, 2.5, 45.0\n"
        outputs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / threads
            out.mkdir()
            assert run(out, "mc", cfg, extra=["--seed", "5", "--threads", threads]) == 0
            outputs.append((out / "mc.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("config_text", ["[pump]\npump_nm = 354.65\n", "[mc]\nseed = 7\n"])
    def test_keys_set_elsewhere_are_unknown(self, tmp_path, capsys, config_text):
        assert run(tmp_path, "mc", "[detection]\npulses = 3\n" + config_text) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_default_seed_and_pump_wavelength(self, tmp_path):
        cfg = "[detection]\npulses = 3\nmodes = 1\n[mc]\ntau_points = 0.0\nn_freq_bins = 2\n"
        assert run(tmp_path, "mc", cfg) == 0
        resolved = read_manifest(tmp_path)["resolved"]
        assert resolved["seed"] == 20120815
        assert resolved["pump"]["pump_nm"] == resolved["pump"]["degenerate_nm"] / 2

    def test_lattice_is_free_of_the_wavelength(self, tmp_path):
        # at an explicit walk-off nothing mc computes reads the wavelength
        cfg = "[crystal]\nwalkoff_ps_per_mm = 0.2\n[detection]\npulses = 3\nmodes = 1\n"
        cfg += "[mc]\ntau_points = 0.0\nn_freq_bins = 2\n[pump]\ndegenerate_nm = "
        outputs = []
        for nm in ("709.3", "1e-200", "1e200"):
            out = tmp_path / nm
            out.mkdir()
            assert run(out, "mc", cfg + nm + "\n") == 0
            outputs.append(((out / "mc.csv").read_bytes(), read_manifest(out)["resolved"]["lattice"]))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_default_pulse_count_is_reference_value(self, tmp_path):
        from macrohom.config import RunConfig

        config = RunConfig.load(None)
        assert config.detection().n_pulses == 30000


# sinh^2 G underflows to zero at this gain
TINY_GAIN = "[crystal]\nwalkoff_ps_per_mm = 0.2\n[pump]\ngain = 1e-200\n"


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "command, config_text, message",
        [
            ("calibrate", "[pump]\ngain = inf\n", "g_peak must be finite"),
            ("calibrate", "[pump]\ngain = 1000\n", "sinh^2 overflows"),
            ("g2", "[crystal]\nwalkoff_ps_per_mm = nan\n", "walkoff_slope must be finite"),
            ("trace", "[detection]\nnoise_var = nan\n", "noise_var must be finite"),
            ("trace", "[trace]\ntau_max_ps = inf\n", "delay grid bounds must be finite"),
            ("sweep-gain", "[sweep]\ntau_max_ps = abc\n", "tau_max_ps: expected a number"),
            ("sweep-gain", "[sweep]\ntau_max_ps = inf\n", "delay grid bounds must be finite"),
            ("mc", "[mc]\ntau_points = 0,nan\n", "tau_points: values must be finite"),
            # grids too large to build are refused from their size estimate
            ("trace", "[trace]\ntau_max_ps = 1e300\n", "points per side"),
            ("sweep-gain", "[sweep]\ntau_max_ps = 1e300\n", "points per side"),
            ("trace", "[trace]\ntau_step_ps = 1e-300\n", "points per side"),
            ("calibrate", "[crystal]\ncalibration_fwhm_nm = inf\n", "must be finite"),
            ("mc --seed -1", "[detection]\npulses = 4\n", "seed must be a non-negative"),
            ("mc", "[detection]\npulses = 4\n[mc]\nseed = -5\n", "unknown key 'seed'"),
            ("mc --threads 0", "[detection]\npulses = 4\n", "thread count must be >= 1"),
            ("mc --threads -3", "[detection]\npulses = 4\n", "thread count must be >= 1"),
            ("mc", "[detection]\npulses = 2\n[mc]\ntau_points = 0.0,45.0\n", "at least 3 pulses"),
            # ensembles too large to sample are refused from their size estimate
            (
                "mc",
                "[detection]\nmodes = 1000000\npulses = 2\n[mc]\nn_freq_bins = 1000000\n",
                "above the cap of 134217728",
            ),
            (
                "mc",
                "[detection]\nmodes = 1\npulses = 100000000000\n[mc]\nn_freq_bins = 1\n",
                "above the cap of 134217728",
            ),
            # spectral grids and lattices that cannot be sized
            ("trace", TINY_GAIN, "no finite grid"),
            ("g2", TINY_GAIN, "no finite grid"),
            ("mc", TINY_GAIN + "[detection]\npulses = 4\n", "no finite grid"),
            ("sweep-gain", "[sweep]\ng_values = 1e-300\n", "no finite grid"),
            ("mc", "[detection]\npulses = 4\n[mc]\nn_freq_bins = 0\n", "at least one frequency bin"),
            ("calibrate", "[pump]\ndegenerate_nm = 1e200\n", "gives no finite width"),
            ("trace", "[pump]\ndegenerate_nm = 1e-200\n", "gives no finite width"),
            # sigma^2 underflows, so the gain envelope would divide 0 by 0
            ("trace", "[pump]\npulse_fwhm_ps = 1e-200\n", "pulse duration 1e-200 ps is too short"),
            (
                "mc",
                "[pump]\npulse_fwhm_ps = 1e-200\n[detection]\npulses = 4\n",
                "pulse duration 1e-200 ps is too short",
            ),
            (
                "mc",
                "[crystal]\nwalkoff_ps_per_mm = 1e308\n[detection]\npulses = 4\n",
                "walkoff_slope * length must be finite",
            ),
            (
                "mc",
                "[pump]\npulse_fwhm_ps = 1e308\n[detection]\npulses = 4\n",
                "no finite number of lattice slices",
            ),
            # one ensemble of 256 pulses x 2000000 clusters fits; two at once do not
            (
                "mc --threads 2",
                "[detection]\nmodes = 10\npulses = 256\n[mc]\nn_freq_bins = 200000\n",
                "the thread count must be <= 1",
            ),
        ],
    )
    def test_rejected_with_message(self, tmp_path, capsys, command, config_text, message):
        command, *extra = command.split()
        assert run(tmp_path, command, config_text, extra) == 2
        assert message in capsys.readouterr().err


# every key but [fit] data, which only fit-gain reads, set alone to each
# value on a small base run of each command that reads the config
SCAN_KEYS = [(s, k) for s, keys in _DEFAULTS.items() for k in keys if (s, k) != ("fit", "data")]
SCAN_VALUES = ["nan", "inf", "-inf", "1e308", "1e300", "-1e300", "1e200", "1e-200", "5e-324", "0", "-1"]
SCAN_BASE = {
    "detection": {"pulses": "3", "modes": "1"},
    "mc": {"tau_points": "0.0", "n_freq_bins": "2"},
    "trace": {"tau_max_ps": "10", "tau_step_ps": "0.25"},
    "sweep": {"g_values": "7.5", "tau_max_ps": "3", "tau_step_ps": "0.05"},
}


def reject_constant(name):
    raise ValueError(f"manifest holds {name}")


class TestSingleKeyScan:
    @pytest.mark.parametrize("command", ["calibrate", "trace", "g2", "sweep-gain", "mc"])
    @pytest.mark.parametrize("value", SCAN_VALUES)
    @pytest.mark.parametrize("section, key", SCAN_KEYS)
    def test_finite_csv_or_exit_with_message(self, tmp_path, capsys, section, key, value, command):
        sections = {s: dict(kv) for s, kv in SCAN_BASE.items()}
        sections.setdefault(section, {})[key] = value
        text = "".join(
            f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) for s, kv in sections.items()
        )
        code = run(tmp_path, command, text)  # an uncaught exception (exit 1) fails here
        assert code in (0, 2, 3, 4)
        if code:
            assert capsys.readouterr().err.strip()
        else:
            # strict JSON: Infinity and NaN are not numbers to other readers
            manifest = json.loads(
                (tmp_path / "manifest.json").read_text(), parse_constant=reject_constant
            )
            (name,) = manifest["outputs"]
            _, rows = read_csv(tmp_path / name)
            assert rows and all(math.isfinite(v) for row in rows for v in row)


class TestSeedAndThreadsOptions:
    @pytest.mark.parametrize("command", ["trace", "g2", "sweep-gain", "fit-gain", "calibrate"])
    @pytest.mark.parametrize("option", ["--seed", "--threads"])
    def test_only_mc_accepts_them(self, tmp_path, command, option):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path), option, "2"])
        assert exc.value.code == 2


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, tmp_path, monkeypatch):
        import macrohom.cli as cli
        from macrohom.errors import NumericalError

        def boom(config, args):
            raise NumericalError("no sign change")

        monkeypatch.setitem(cli._COMMANDS, "calibrate", boom)
        assert main(["calibrate", "--out", str(tmp_path)]) == 3

    def test_non_finite_trace_maps_to_3(self, tmp_path, capsys):
        # sinh^4 G overflows the interference weight at this gain
        assert run(tmp_path, "g2", FAST_G2 + "\n[pump]\ngain = 300\n") == 3
        assert "non-finite" in capsys.readouterr().err

    def test_failed_run_writes_no_files(self, tmp_path, capsys):
        cfg = "[trace]\ntau_max_ps = 0.5\ntau_step_ps = 0.05\n"
        assert run(tmp_path, "trace", cfg) == 3
        assert "half-maximum crossing" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.ini"]

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            # a 1 fs pulse: the pedestal is one sample wide on the 0.05 ps grid
            (
                "trace",
                "[pump]\npulse_fwhm_ps = 1e-3\n",
                "pedestal component peak is not resolved on the delay grid |tau| <= 80 ps",
            ),
            # the 0.88 ps narrow peak on a 1 ps grid
            (
                "sweep-gain",
                "[sweep]\ng_values = 7.5\ntau_step_ps = 1.0\n",
                "narrow component peak is not resolved on the delay grid |tau| <= 6 ps",
            ),
            # the pedestal reaches past the grid's edge
            (
                "trace",
                "[trace]\ntau_max_ps = 2.0\n",
                "left half-maximum crossing of the pedestal component lies outside "
                "the delay grid |tau| <= 2 ps",
            ),
        ],
    )
    def test_width_the_grid_cannot_give_maps_to_3(self, tmp_path, capsys, command, cfg, message):
        assert run(tmp_path, command, cfg) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert os.listdir(tmp_path) == ["run.ini"]

    def test_undefined_ensemble_ratio_maps_to_3(self, tmp_path, capsys):
        # the electronic noise swamps both mean signals, where nrf and g2
        # are undefined
        cfg = "[detection]\nnoise_var = 1e20\npulses = 4\n[mc]\ntau_points = 0.0\n"
        assert run(tmp_path, "mc", cfg) == 3
        assert "mean signals must be > 0" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.ini"]

    @pytest.mark.parametrize(
        "seed, message",
        [
            # both means come out positive but within one standard error,
            # where the ratios have no bounded interval
            (1, "by more than one standard error"),
            # the squared noise overflows float64 in the variance sums
            (2, "ensemble estimates overflow float64"),
        ],
    )
    def test_noise_swamped_ensemble_maps_to_3(self, tmp_path, capsys, seed, message):
        cfg = (
            "[detection]\npulses = 3\nmodes = 1\nnoise_var = 1e308\n"
            "[mc]\ntau_points = 0.0\nn_freq_bins = 2\n"
        )
        assert run(tmp_path, "mc", cfg, ["--seed", str(seed)]) == 3
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.ini"]

    @pytest.mark.parametrize(
        "gain, efficiency, bins",
        [("200", "0.03", 2), ("300", "0.03", 2), ("355.5", "0.03", 2), ("355.5", "1.0", 1)],
    )
    def test_overflowing_gain_fails_without_warnings(self, tmp_path, capsys, gain, efficiency, bins):
        # (Im u0^2)^2 and |Re u0^2| v0 pass float64's range above gains of
        # about 178 and 237; the pair factors never form them, so the run
        # ends on the ensemble's overflowing variance with one message.
        # Signals pass 1e154 from gain 200 on, where their squares in the
        # standard errors overflow: that is named, not unresolved means.
        # At unit efficiency and gain 355.5 a pair's 1 + 2 eta v0^2 leaves
        # float64 near the spectrum's peak, which one bin samples
        cfg = f"[pump]\ngain = {gain}\n[detection]\npulses = 3\nmodes = 1\n"
        cfg += f"efficiency = {efficiency}\n[mc]\nn_freq_bins = {bins}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "mc", cfg) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "overflow" in err[0]

    @pytest.mark.parametrize("gain, code", [("175", 0), ("180", 3)])
    def test_wigner_occupancy_overflow_fails_without_warnings(self, tmp_path, capsys, gain, code):
        # the ensemble still resolves at gain 180, but n * n of the
        # occupancy overflows: the run ends on that one message, not on an
        # Infinity in the manifest
        cfg = f"[pump]\ngain = {gain}\n[detection]\npulses = 3\nmodes = 1\n"
        cfg += "[mc]\nn_freq_bins = 2\ntau_points = 0.0\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "mc", cfg) == code
        err = capsys.readouterr().err.splitlines()
        if code:
            assert err == ["numerical failure: non-finite wigner_cell_occupancy = inf"]
            assert os.listdir(tmp_path) == ["run.ini"]
        else:
            assert err == []
            assert math.isfinite(read_manifest(tmp_path)["summary"]["wigner_cell_occupancy"])

    @pytest.mark.parametrize("command", ["trace", "g2", "sweep-gain", "fit-gain", "calibrate", "mc"])
    def test_non_finite_summary_maps_to_3(self, tmp_path, capsys, monkeypatch, command):
        import macrohom.cli as cli

        def nan_summary(config, args):
            return "out.csv", ["x"], [(1.0,)], {}, {"ok": 1.0, "bad": math.nan}, "line"

        monkeypatch.setitem(cli._COMMANDS, command, nan_summary)
        assert main([command, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "numerical failure: non-finite bad = nan\n"
        assert os.listdir(tmp_path) == []

    def test_bad_last_delay_fails_before_any_ensemble(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(montecarlo, "simulate_ensemble", lambda *a: calls.append(a))
        cfg = "[detection]\npulses = 3000\n[mc]\ntau_points = 0.0, 0.5, 1.0, 2.5, 70.0\n"
        assert run(tmp_path, "mc", cfg) == 2
        assert calls == []
        assert "delay 70.0 ps outside 6 sigma" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.ini"]

    @pytest.mark.parametrize("command", ["trace", "g2"])
    def test_rounding_below_shot_noise_maps_to_3(self, tmp_path, capsys, command):
        # inside d L the interference sum's rounding, about eps sinh^4 G,
        # exceeds the shot-noise level at this gain
        assert run(tmp_path, command, "[pump]\ngain = 150\n") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "interference sum's rounding error" in err[0]
        assert os.listdir(tmp_path) == ["run.ini"]

    @pytest.mark.parametrize("command", ["trace", "g2"])
    @pytest.mark.parametrize(
        "gain, code, named",
        [("70", 0, None), ("85", 3, "interference sum's rounding floor"), ("100", 3, "interference sum's rounding")],
    )
    def test_rounding_floor_inside_walkoff_maps_to_3(self, tmp_path, capsys, command, gain, code, named):
        # the interference sum's rounding floor is 2.4e-8 of the smallest
        # nrf inside d L at gain 70 and 7.8e-5 of it at gain 85, where the
        # trace stays above shot noise but is wrong near d L, so the floor
        # check alone refuses it; at gain 100 the rounding also drives nrf
        # below shot noise, which is refused first
        assert run(tmp_path, command, f"[pump]\ngain = {gain}\n") == code
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1
            assert named in err[0] and f"at gain {float(gain)}" in err[0]
            assert os.listdir(tmp_path) == ["run.ini"]
        else:
            assert err == []

    def test_io_failure_maps_to_4(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("not a directory")
        assert main(["trace", "--out", str(target)]) == 4


GAIN_CURVE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "gain_curve.csv")


class TestManifestReplay:
    """The manifest alone reproduces a run: its config block, written back
    as an INI, gives the same CSV bytes (mc, which also needs the seed, is
    in TestMcCommand)."""

    @pytest.mark.parametrize(
        "command, config_text",
        [
            ("trace", FAST_TRACE + "[pump]\ngain = 6.5\n"),
            ("g2", FAST_G2 + "[detection]\nmodes = 4\n"),
            ("sweep-gain", "[sweep]\ng_values = 5.5, 7.5\ntau_step_ps = 0.05\n"),
            ("calibrate", "[crystal]\nlength_mm = 8.0\ncalibration_fwhm_nm = 1.1\n"),
            ("fit-gain", f"[fit]\ndata = {GAIN_CURVE}\n"),
        ],
    )
    def test_manifest_replays_the_run(self, tmp_path, command, config_text):
        first, replay = tmp_path / "first", tmp_path / "replay"
        first.mkdir()
        replay.mkdir()
        assert run(first, command, config_text) == 0
        manifest = read_manifest(first)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(manifest["config"])
        with open(replay / "replayed.ini", "w") as fh:
            parser.write(fh)
        assert main([command, "--config", str(replay / "replayed.ini"), "--out", str(replay)]) == 0
        (name, digest), = manifest["outputs"].items()
        assert hashlib.sha256((replay / name).read_bytes()).hexdigest() == digest


PACKAGE_MODULES = ["macrohom"] + [f"macrohom.{m.name}" for m in pkgutil.iter_modules(macrohom.__path__)]


@pytest.mark.parametrize("module", PACKAGE_MODULES + ["numpy", "macrohomx"])
def test_runtime_warnings_in_the_package_are_errors(module):
    # pyproject.toml's filterwarnings turns a RuntimeWarning from any
    # package module into an error, and leaves those from elsewhere alone
    assert len(PACKAGE_MODULES) >= 9
    with warnings.catch_warnings(record=True) as caught:
        if module in PACKAGE_MODULES:
            with pytest.raises(RuntimeWarning, match="deliberate"):
                warnings.warn_explicit("deliberate", RuntimeWarning, "deliberate.py", 1, module=module)
        else:
            warnings.warn_explicit("deliberate", RuntimeWarning, "deliberate.py", 1, module=module)
    assert len(caught) == (module not in PACKAGE_MODULES)


def assert_finite_csv_or_one_message(command, sections, data=None):
    """Run ``command`` on the config ``sections``, with the text ``data``
    as its [fit] data file if given.  It exits 0 with a finite CSV, a
    strict-JSON manifest and nothing on stderr, or 2, 3 or 4 with exactly
    one stderr line; no warnings either way."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = pathlib.Path(tmp)
        if data is not None:
            (out / "data.csv").write_text(data)
            sections = dict(sections, fit={"data": str(out / "data.csv")})
        text = "".join(
            f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) for s, kv in sections.items()
        )
        code = run(out, command, text)  # an uncaught exception (exit 1) fails here
        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        assert not caught, [str(w.message) for w in caught]
        lines = err.getvalue().splitlines()
        if code:
            assert len(lines) == 1 and lines[0].strip(), lines
        else:
            assert not lines, lines
            manifest = json.loads(
                (out / "manifest.json").read_text(), parse_constant=reject_constant
            )
            (name,) = manifest["outputs"]
            _, rows = read_csv(out / name)
            assert rows and all(math.isfinite(v) for row in rows for v in row)


# values that a combined key may take instead of an ordinary number
SPECIAL_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-200", "5e-324", "1e300", "abc"]
COMBINED_KEYS = [
    ("pump", "gain"),
    ("pump", "pulse_fwhm_ps"),
    ("trace", "tau_max_ps"),
    ("trace", "tau_step_ps"),
    ("sweep", "g_values"),
    ("crystal", "length_mm"),
    ("crystal", "walkoff_ps_per_mm"),
]


@st.composite
def combined_config(draw):
    """Every combined key set at once, to an ordinary value or, for up to
    two keys, to a special one.  The pump gain reaches 355.5, where sinh^2
    of it nears float64's largest value.  The [trace] grid keeps at most
    64 points per side and the sweep at most three gains: both bounds are
    for runtime only."""
    gains = st.floats(0.0, 13.0).map(repr)
    pump_gain = st.one_of(st.floats(0.0, 13.0), st.floats(0.0, 355.5)).map(repr)
    tau_max = draw(st.floats(1e-3, 120.0))
    sections = {
        "pump": {"gain": draw(pump_gain), "pulse_fwhm_ps": repr(draw(st.floats(1e-2, 200.0)))},
        "trace": {
            "tau_max_ps": repr(tau_max),
            "tau_step_ps": repr(tau_max / draw(st.integers(1, 64))),
        },
        "sweep": {"g_values": ",".join(draw(st.lists(gains, min_size=1, max_size=3)))},
        "crystal": {
            "length_mm": repr(draw(st.floats(1e-2, 50.0))),
            "walkoff_ps_per_mm": draw(st.one_of(st.just("auto"), st.floats(1e-3, 2.0).map(repr))),
        },
    }
    for section, key in draw(st.lists(st.sampled_from(COMBINED_KEYS), max_size=2, unique=True)):
        sections[section][key] = draw(st.sampled_from(SPECIAL_VALUES))
    return sections


@pytest.mark.parametrize("command", ["trace", "g2", "sweep-gain"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sections=combined_config())
def test_combined_keys_give_finite_csv_or_exit_with_message(command, sections):
    assert_finite_csv_or_one_message(command, sections)


# [pump], [detection] and [mc] keys that the mc property draws together
MC_COMBINED_KEYS = [
    ("pump", "gain"),
    ("detection", "efficiency"),
    ("detection", "modes"),
    ("detection", "noise_var"),
    ("detection", "pulses"),
    ("mc", "n_freq_bins"),
    ("mc", "tau_points"),
]


@st.composite
def mc_config(draw):
    """The gain and every [detection] and [mc] key set at once, to an
    ordinary value or, for up to two keys, to a special one.  The gain
    reaches 355.5, where sinh^2 of it nears float64's largest value; the
    efficiency takes 1.0 and values near 0 as well; delays reach past the
    6 sigma bound (about 65 ps).  At most 48 pulses, 12 modes and 64 bins:
    these bounds are for runtime only."""
    gain = st.one_of(st.floats(0.0, 13.0), st.floats(0.0, 355.5))
    efficiency = st.one_of(
        st.just(1.0), st.sampled_from([5e-324, 1e-300, 1e-12]), st.floats(1e-6, 1.0)
    )
    delays = st.lists(st.floats(-70.0, 70.0), min_size=1, max_size=3)
    noise = st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(0.0, 1e300))
    sections = {
        "pump": {"gain": repr(draw(gain))},
        "detection": {
            "efficiency": repr(draw(efficiency)),
            "modes": str(draw(st.integers(1, 12))),
            "noise_var": repr(draw(noise)),
            "pulses": str(draw(st.integers(1, 48))),
        },
        "mc": {
            "n_freq_bins": str(draw(st.integers(1, 64))),
            "tau_points": ",".join(map(repr, draw(delays))),
        },
    }
    for section, key in draw(st.lists(st.sampled_from(MC_COMBINED_KEYS), max_size=2, unique=True)):
        sections[section][key] = draw(st.sampled_from(SPECIAL_VALUES))
    return sections


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sections=mc_config())
def test_mc_combined_keys_give_finite_csv_or_one_message(sections):
    assert_finite_csv_or_one_message("mc", sections)


# [crystal] and [pump] keys that the calibrate property draws together
CALIBRATE_COMBINED_KEYS = [
    ("crystal", "length_mm"),
    ("crystal", "calibration_fwhm_nm"),
    ("pump", "gain"),
    ("pump", "pulse_fwhm_ps"),
    ("pump", "degenerate_nm"),
]


@st.composite
def calibrate_config(draw):
    """Every key calibrate reads set at once, to an ordinary value or, for
    up to two keys, to a special one.  The gain reaches 355.5, where
    sinh^2 of it nears float64's largest value; the other keys take
    values near the reference or anywhere from 1e-300 to 1e300, where
    the width scale lambda^2 4 x_half / (2 pi c) leaves float64."""
    gain = st.one_of(st.floats(0.0, 13.0), st.floats(0.0, 355.5))

    def positive(lo, hi):
        anywhere = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
        return repr(draw(st.one_of(st.floats(lo, hi), anywhere)))

    sections = {
        "crystal": {
            "length_mm": positive(1e-3, 100.0),
            "calibration_fwhm_nm": positive(1e-3, 100.0),
        },
        "pump": {
            "gain": repr(draw(gain)),
            "pulse_fwhm_ps": positive(1e-2, 200.0),
            "degenerate_nm": positive(1.0, 1e4),
        },
    }
    for section, key in draw(
        st.lists(st.sampled_from(CALIBRATE_COMBINED_KEYS), max_size=2, unique=True)
    ):
        sections[section][key] = draw(st.sampled_from(SPECIAL_VALUES))
    return sections


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sections=calibrate_config())
def test_calibrate_combined_keys_give_finite_csv_or_one_message(sections):
    assert_finite_csv_or_one_message("calibrate", sections)


# fields a fit data row may hold instead of a point near the model curve
FIT_SPECIAL_VALUES = ["nan", "inf", "-inf", "-1", "0", "5e-324", "1e-310", "1e300", "-1e300"]


@st.composite
def fit_data(draw):
    """A power/intensity CSV of 1 to 12 points near scale sinh^2(c sqrt(P)),
    with up to three fields replaced by a special value or any float (NaN,
    +-inf, negative, subnormal and 1e300-scale among them) and up to three
    rows repeated."""
    c = draw(st.floats(1e-3, 5.0))
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    rows = []
    for power in draw(st.lists(st.floats(1e-3, 100.0), min_size=1, max_size=12)):
        noise = 1.0 + draw(st.floats(-0.5, 0.5))
        rows.append([repr(power), repr(scale * math.sinh(c * math.sqrt(power)) ** 2 * noise)])
    field = st.one_of(st.sampled_from(FIT_SPECIAL_VALUES), st.floats().map(repr))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 1))] = draw(field)
    rows += [list(draw(st.sampled_from(rows))) for _ in range(draw(st.integers(0, 3)))]
    return "power_mw,intensity\n" + "".join(f"{p},{i}\n" for p, i in rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=fit_data())
def test_fit_gain_data_give_finite_csv_or_one_message(data):
    assert_finite_csv_or_one_message("fit-gain", {}, data)
