"""Command-line front end: parse a run configuration, dispatch to the
physics modules, and emit CSV tables plus a JSON run manifest.

Exit codes: 0 success, 2 validation failure, 3 numerical failure
(bracketing or non-finite results), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import montecarlo, trace
from .config import RunConfig
from .errors import NumericalError, ValidationError
from .gain import fit_gain_curve, spectral_fwhm_nm

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _write_csv(path, header, columns) -> str:
    """Write the table, given column by column, and return the sha256 of
    the bytes written.  Each value is written as repr of its Python float,
    the shortest decimal form that round-trips exactly."""
    cells = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    data = "\n".join([",".join(header), *map(",".join, zip(*cells)), ""]).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _write_manifest(out_dir, command, config: RunConfig, resolved, summary, csv_name, digest):
    manifest = {
        "command": command,
        "config": config.resolved(),
        "resolved": resolved,
        "summary": summary,
        "outputs": {csv_name: digest},
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _trace_setup(config: RunConfig):
    """Pump, crystal, detection, ``[trace]`` delays and their spectral grid."""
    pump = config.pump()
    crystal = config.crystal()
    det = config.detection()
    tau = config.tau_grid()
    grid = trace.default_grid(crystal, pump)
    return pump, crystal, det, tau, grid


def cmd_trace(config: RunConfig, args):
    pump, crystal, det, tau, grid = _trace_setup(config)
    nrf, ped = trace.nrf_and_pedestal(tau, crystal, pump, grid)
    detected = trace.detected_trace(nrf, det)
    narrow, wide = trace.fwhm_narrow(nrf, ped), trace.fwhm_pedestal(ped)
    summary = {
        "visibility": trace.visibility(detected),
        "fwhm_narrow_ps": narrow,
        "fwhm_pedestal_ps": wide,
        "m_long": wide / narrow,  # trace.mode_count_long, widths not recomputed
    }
    return (
        "trace.csv",
        ["tau_ps", "nrf_ideal", "nrf_pedestal", "nrf_detected"],
        [tau, nrf.value, ped.value, detected.value],
        _resolved_params(crystal, pump, det),
        summary,
        f"trace: visibility={summary['visibility']:.6f} m_long={summary['m_long']:.2f}",
    )


def cmd_g2(config: RunConfig, args):
    pump, crystal, det, tau, grid = _trace_setup(config)
    g2 = trace.g2_trace(tau, crystal, pump, grid, det)

    edge = float(g2.value[0])
    n_mode = math.sinh(pump.g_peak) ** 2
    summary = {
        "dip_visibility": trace.visibility(g2),
        "g2_edge": edge,
        "mode_count_g2": trace.mode_count_g2(edge, n_mode),
    }
    return (
        "g2.csv",
        ["tau_ps", "g2"],
        [tau, g2.value],
        _resolved_params(crystal, pump, det),
        summary,
        f"g2: dip visibility={summary['dip_visibility']:.4f} edge={edge:.4f}",
    )


def cmd_sweep_gain(config: RunConfig, args):
    pump = config.pump()
    crystal = config.crystal()
    gains = config.sweep_gains()
    tau_max, tau_step = config.delay_range("sweep")
    rows = trace.fwhm_vs_gain(gains, crystal, pump, tau_max=tau_max, tau_step=tau_step)

    widths = {g: w for g, w in rows}
    summary = {}
    if 7.5 in widths and 5.5 in widths:
        summary["fwhm_ratio_7p5_over_5p5"] = widths[7.5] / widths[5.5]
    ordered = [w for _, w in sorted(rows)]
    summary["monotone_nonincreasing"] = bool(
        all(b <= a * (1 + 1e-9) for a, b in zip(ordered, ordered[1:]))
    )
    if "fwhm_ratio_7p5_over_5p5" in summary:
        line = f"sweep-gain: ratio={summary['fwhm_ratio_7p5_over_5p5']:.4f}"
    else:
        line = "sweep-gain: done"
    columns = list(zip(*rows))
    return "sweep_gain.csv", ["g", "fwhm_ps"], columns, _resolved_params(crystal, pump), summary, line


def _read_fit_csv(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not a readable UTF-8 CSV: {exc}")
    header = rows[0] if rows else None
    if header is None or [h.strip() for h in header] != ["power_mw", "intensity"]:
        raise ValidationError(f"{path}: expected header 'power_mw,intensity', got {header}")
    powers, intens = [], []
    for lineno, row in enumerate(rows[1:], start=2):
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


def cmd_fit_gain(config: RunConfig, args):
    path = config.fit_data_path()
    powers, intens = _read_fit_csv(path)
    c, scale = fit_gain_curve(powers, intens)
    fitted = scale * np.sinh(c * np.sqrt(powers)) ** 2
    summary = {
        "c_per_sqrt_mw": c,
        "scale": scale,
        "gain_at_max_power": c * math.sqrt(float(np.max(powers))),
    }
    return (
        "fit_gain_residuals.csv",
        ["power_mw", "intensity", "fitted", "residual"],
        [powers, intens, fitted, intens - fitted],
        {"fit": {"data": path}},
        summary,
        f"fit-gain: c={c:.6g} scale={scale:.6g}",
    )


def cmd_calibrate(config: RunConfig, args):
    pump = config.pump()
    crystal = config.calibrated_crystal()
    achieved = spectral_fwhm_nm(crystal, pump)
    return (
        "calibration.csv",
        ["walkoff_ps_per_mm", "achieved_fwhm_nm"],
        [[crystal.walkoff_slope], [achieved]],
        _resolved_params(crystal, pump),
        {"walkoff_ps_per_mm": crystal.walkoff_slope, "achieved_fwhm_nm": achieved},
        f"calibrate: walkoff={crystal.walkoff_slope:.6g} ps/mm fwhm={achieved:.4f} nm",
    )


def cmd_mc(config: RunConfig, args):
    pump = config.pump()
    crystal = config.crystal()
    det = config.detection()
    lattice = montecarlo.LatticeSpec.default(crystal, pump, n_freq_bins=config.mc_freq_bins())
    taus = config.mc_tau_points()
    stats = montecarlo.dip_scan(crystal, pump, det, lattice, taus, args.seed, threads=args.threads)

    resolved = _resolved_params(crystal, pump, det)
    resolved["lattice"] = {
        "n_time_slices": lattice.n_time_slices,
        "n_freq_bins": lattice.n_freq_bins,
        "slice_duration_ps": lattice.slice_duration,
        "bin_width_rad_per_ps": lattice.bin_width,
    }
    resolved["seed"] = args.seed
    resolved["rng"] = montecarlo.RNG_STREAM
    summary = {
        "n_pulses": det.n_pulses,
        "wigner_cell_occupancy": montecarlo.wigner_cell_occupancy(crystal, pump, lattice),
    }
    return (
        "mc.csv",
        ["tau_ps", "nrf_hat", "se_nrf", "g2_hat", "se_g2"],
        [taus, *zip(*((st.nrf_hat, st.se_nrf, st.g2_hat, st.se_g2) for st in stats))],
        resolved,
        summary,
        f"mc: {len(taus)} delay points x {det.n_pulses} pulses, seed={args.seed}",
    )


# Each command computes its whole result and returns (csv name, header,
# columns, resolved parameters, summary, stdout line); main writes them, so a
# run that fails writes no file.
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
        if name == "mc":
            p.add_argument("--seed", type=int, default=20120815, help="RNG seed")
            p.add_argument("--threads", type=int, default=1, help="worker thread cap")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config)
        name, header, columns, resolved, summary, line = _COMMANDS[args.command](config, args)
        for key, value in summary.items():  # strict JSON has no Infinity or NaN
            if not math.isfinite(value):
                raise NumericalError(f"non-finite {key} = {value}")
        os.makedirs(args.out, exist_ok=True)
        digest = _write_csv(os.path.join(args.out, name), header, columns)
        _write_manifest(args.out, args.command, config, resolved, summary, name, digest)
        print(line)
        return EXIT_OK
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
