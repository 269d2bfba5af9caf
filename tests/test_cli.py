import csv
import json
import math
import os

import numpy as np
import pytest

from macrohom.cli import main

FAST_TRACE = """
[trace]
tau_max_ps = 40.0
tau_step_ps = 0.1
"""

FAST_G2 = """
[g2]
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
        tau = config.tau_grid("trace")
        grid = default_grid(crystal, pump, float(np.max(np.abs(tau))))
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
            cfg.write_text(f"[calibrate]\ntarget_fwhm_nm = {target}\n")
            assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
            with open(out / "manifest.json") as fh:
                slopes.append(json.load(fh)["summary"]["walkoff_ps_per_mm"])
        assert slopes[0] > slopes[1]

    def test_zero_gain_rejected(self, tmp_path):
        assert run(tmp_path, "calibrate", "[pump]\ngain = 0.0\n") == 2


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

    def test_default_pulse_count_is_reference_value(self, tmp_path):
        from macrohom.config import RunConfig

        config = RunConfig.load(None)
        assert config.detection().n_pulses == 30000


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
        ],
    )
    def test_rejected_with_message(self, tmp_path, capsys, command, config_text, message):
        assert run(tmp_path, command, config_text) == 2
        assert message in capsys.readouterr().err


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, tmp_path, monkeypatch):
        import macrohom.cli as cli
        from macrohom.errors import BracketingError

        def boom(config, out_dir, args):
            raise BracketingError("no sign change")

        monkeypatch.setitem(cli._COMMANDS, "calibrate", boom)
        assert main(["calibrate", "--out", str(tmp_path)]) == 3

    def test_non_finite_trace_maps_to_3(self, tmp_path, capsys):
        # sinh^4 G overflows the interference weight at this gain
        assert run(tmp_path, "g2", FAST_G2 + "\n[pump]\ngain = 300\n") == 3
        assert "non-finite" in capsys.readouterr().err

    def test_io_failure_maps_to_4(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("not a directory")
        assert main(["trace", "--out", str(target)]) == 4
