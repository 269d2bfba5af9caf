"""Command-line front end: parse a run configuration, dispatch to the
physics modules, and emit CSV tables plus a JSON run manifest.

Exit codes: 0 success, 2 validation failure, 3 numerical failure
(bracketing or convergence), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import montecarlo, trace
from .config import RunConfig
from .errors import NumericalError, ValidationError
from .gain import calibrate_walkoff, fit_gain_curve, spectral_fwhm_nm

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _fmt(x) -> str:
    # shortest decimal form that round-trips exactly
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir, command, config: RunConfig, resolved_extra, summary, outputs):
    manifest = {
        "command": command,
        "config": config.resolved(),
        "resolved": resolved_extra,
        "summary": summary,
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _resolved_params(crystal, pump, det=None):
    out = {
        "crystal": {"length_mm": crystal.length_mm, "walkoff_ps_per_mm": crystal.walkoff_slope},
        "pump": {
            "gain": pump.g_peak,
            "pulse_fwhm_ps": pump.t_p,
            "degenerate_nm": pump.lambda_deg,
            "pump_nm": pump.lambda_pump,
        },
    }
    if det is not None:
        out["detection"] = {
            "efficiency": det.eta,
            "modes": det.m_modes,
            "noise_var": det.noise_var,
            "pulses": det.n_pulses,
        }
    return out


def cmd_trace(config: RunConfig, out_dir: str, args) -> int:
    pump = config.pump()
    crystal = config.crystal()
    det = config.detection()
    tau = config.tau_grid("trace")
    grid = trace.default_grid(crystal, pump, float(np.max(np.abs(tau))))

    nrf, ped = trace.nrf_and_pedestal(tau, crystal, pump, grid)
    detected = trace.detected_trace(nrf, det)

    csv_path = os.path.join(out_dir, "trace.csv")
    _write_csv(
        csv_path,
        ["tau_ps", "nrf_ideal", "nrf_pedestal", "nrf_detected"],
        zip(tau, nrf.value, ped.value, detected.value),
    )
    summary = {
        "visibility": trace.visibility(detected),
        "fwhm_narrow_ps": trace.fwhm_narrow(nrf, ped),
        "fwhm_pedestal_ps": trace.fwhm_pedestal(ped),
        "m_long": trace.mode_count_long(nrf, ped),
    }
    _write_manifest(out_dir, "trace", config, _resolved_params(crystal, pump, det), summary, [csv_path])
    print(f"trace: visibility={summary['visibility']:.6f} m_long={summary['m_long']:.2f}")
    return EXIT_OK


def cmd_g2(config: RunConfig, out_dir: str, args) -> int:
    pump = config.pump()
    crystal = config.crystal()
    det = config.detection()
    tau = config.tau_grid("g2")
    grid = trace.default_grid(crystal, pump, float(np.max(np.abs(tau))))
    g2 = trace.g2_trace(tau, crystal, pump, grid, det)

    csv_path = os.path.join(out_dir, "g2.csv")
    _write_csv(csv_path, ["tau_ps", "g2"], zip(tau, g2.value))
    edge = float(g2.value[0])
    n_mode = math.sinh(pump.g_peak) ** 2
    summary = {
        "dip_visibility": trace.visibility(g2),
        "g2_edge": edge,
        "mode_count_g2": trace.mode_count_g2(edge, n_mode),
    }
    _write_manifest(out_dir, "g2", config, _resolved_params(crystal, pump, det), summary, [csv_path])
    print(f"g2: dip visibility={summary['dip_visibility']:.4f} edge={edge:.4f}")
    return EXIT_OK


def cmd_sweep_gain(config: RunConfig, out_dir: str, args) -> int:
    pump = config.pump()
    crystal = config.crystal()
    gains = config.sweep_gains()
    tau_max, tau_step = config.delay_range("sweep")
    rows = trace.fwhm_vs_gain(gains, crystal, pump, tau_max=tau_max, tau_step=tau_step)
    csv_path = os.path.join(out_dir, "sweep_gain.csv")
    _write_csv(csv_path, ["g", "fwhm_ps"], rows)

    widths = {g: w for g, w in rows}
    summary = {}
    if 7.5 in widths and 5.5 in widths:
        summary["fwhm_ratio_7p5_over_5p5"] = widths[7.5] / widths[5.5]
    ordered = [w for _, w in sorted(rows)]
    summary["monotone_nonincreasing"] = bool(
        all(b <= a * (1 + 1e-9) for a, b in zip(ordered, ordered[1:]))
    )
    _write_manifest(out_dir, "sweep-gain", config, _resolved_params(crystal, pump), summary, [csv_path])
    if "fwhm_ratio_7p5_over_5p5" in summary:
        print(f"sweep-gain: ratio={summary['fwhm_ratio_7p5_over_5p5']:.4f}")
    else:
        print("sweep-gain: done")
    return EXIT_OK


def _read_fit_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["power_mw", "intensity"]:
            raise ValidationError(
                f"{path}: expected header 'power_mw,intensity', got {header}"
            )
        powers, intens = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 2 columns")
            try:
                powers.append(float(row[0]))
                intens.append(float(row[1]))
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: non-numeric value")
    return np.array(powers), np.array(intens)


def cmd_fit_gain(config: RunConfig, out_dir: str, args) -> int:
    path = config.fit_data_path()
    powers, intens = _read_fit_csv(path)
    c, scale = fit_gain_curve(powers, intens)
    fitted = scale * np.sinh(c * np.sqrt(powers)) ** 2
    csv_path = os.path.join(out_dir, "fit_gain_residuals.csv")
    _write_csv(
        csv_path,
        ["power_mw", "intensity", "fitted", "residual"],
        zip(powers, intens, fitted, intens - fitted),
    )
    summary = {
        "c_per_sqrt_mw": c,
        "scale": scale,
        "gain_at_max_power": c * math.sqrt(float(np.max(powers))),
    }
    _write_manifest(out_dir, "fit-gain", config, {"fit": {"data": path}}, summary, [csv_path])
    print(f"fit-gain: c={c:.6g} scale={scale:.6g}")
    return EXIT_OK


def cmd_calibrate(config: RunConfig, out_dir: str, args) -> int:
    pump = config.pump()
    target, length = config.calibration_target()
    crystal = calibrate_walkoff(target, pump, length_mm=length)
    achieved = spectral_fwhm_nm(crystal, pump)
    csv_path = os.path.join(out_dir, "calibration.csv")
    _write_csv(
        csv_path,
        ["walkoff_ps_per_mm", "achieved_fwhm_nm"],
        [(crystal.walkoff_slope, achieved)],
    )
    summary = {"walkoff_ps_per_mm": crystal.walkoff_slope, "achieved_fwhm_nm": achieved}
    _write_manifest(out_dir, "calibrate", config, _resolved_params(crystal, pump), summary, [csv_path])
    print(f"calibrate: walkoff={crystal.walkoff_slope:.6g} ps/mm fwhm={achieved:.4f} nm")
    return EXIT_OK


def cmd_mc(config: RunConfig, out_dir: str, args) -> int:
    pump = config.pump()
    crystal = config.crystal()
    det = config.detection()
    lattice = montecarlo.LatticeSpec.default(crystal, pump, n_freq_bins=config.mc_freq_bins())
    taus = config.mc_tau_points()
    seed = args.seed if args.seed is not None else config.mc_seed()

    def run_point(idx_tau):
        idx, tau = idx_tau
        return montecarlo.simulate_ensemble(
            crystal, pump, det, lattice, tau, montecarlo.derive_seed(seed, idx)
        )

    jobs = list(enumerate(taus))
    if args.threads and args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            stats = list(pool.map(run_point, jobs))
    else:
        stats = [run_point(job) for job in jobs]

    csv_path = os.path.join(out_dir, "mc.csv")
    _write_csv(
        csv_path,
        ["tau_ps", "nrf_hat", "se_nrf", "g2_hat", "se_g2"],
        [
            (tau, st.nrf_hat, st.se_nrf, st.g2_hat, st.se_g2)
            for tau, st in zip(taus, stats)
        ],
    )
    resolved = _resolved_params(crystal, pump, det)
    resolved["lattice"] = {
        "n_time_slices": lattice.n_time_slices,
        "n_freq_bins": lattice.n_freq_bins,
        "slice_duration_ps": lattice.slice_duration,
        "bin_width_rad_per_ps": lattice.bin_width,
    }
    resolved["seed"] = seed
    summary = {
        "n_pulses": det.n_pulses,
        "wigner_cell_occupancy": montecarlo.wigner_cell_occupancy(crystal, pump, lattice),
    }
    _write_manifest(out_dir, "mc", config, resolved, summary, [csv_path])
    print(f"mc: {len(taus)} delay points x {det.n_pulses} pulses, seed={seed}")
    return EXIT_OK


_COMMANDS = {
    "trace": cmd_trace,
    "g2": cmd_g2,
    "sweep-gain": cmd_sweep_gain,
    "fit-gain": cmd_fit_gain,
    "calibrate": cmd_calibrate,
    "mc": cmd_mc,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macrohom",
        description="Macroscopic Hong-Ou-Mandel interference of bright twin beams",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--threads", type=int, default=1, help="worker thread cap")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](config, args.out, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
