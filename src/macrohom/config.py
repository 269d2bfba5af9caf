"""Run configuration: a flat INI-style key-value file with one section
per module.  Every key has a reference-configuration default, so an empty or
missing config reproduces the reference experiment; unknown sections or
keys are rejected outright.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass, field

from .errors import ValidationError
from .gain import calibrate_walkoff
from .params import CrystalParams, DetectionModel, PumpParams
from .trace import delay_grid

_DEFAULTS = {
    "crystal": {
        "length_mm": "10.0",
        "walkoff_ps_per_mm": "auto",
        "calibration_fwhm_nm": "1.3",
    },
    "pump": {
        "gain": "7.5",
        "pulse_fwhm_ps": "18.0",
        "degenerate_nm": "709.3",
    },
    "detection": {
        "efficiency": "0.03",
        "modes": "10",
        "noise_var": "0.0",
        "pulses": "30000",
    },
    "trace": {
        "tau_max_ps": "80.0",
        "tau_step_ps": "0.05",
    },
    "sweep": {
        "g_values": "5.5,5.7,5.9,6.1,6.3,6.5,6.7,6.9,7.1,7.3,7.5",
        "tau_max_ps": "6.0",
        "tau_step_ps": "0.02",
    },
    "fit": {
        "data": "",
    },
    "mc": {
        "tau_points": "0.0,0.5,1.0,1.5,2.5,4.0,6.0,10.0,16.0,28.0,45.0",
        "n_freq_bins": "48",
    },
}


def _parse_float(section, key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"[{section}] {key}: expected a number, got {raw!r}")
    if not math.isfinite(value):
        raise ValidationError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


def _parse_int(section, key, raw):
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"[{section}] {key}: expected an integer, got {raw!r}")
    if abs(value) > sys.float_info.max:  # every formula that reads it works in float64
        raise ValidationError(f"[{section}] {key}: integer beyond the float64 range")
    return value


def _parse_floats(section, key, raw):
    values = [_parse_float(section, key, tok) for tok in map(str.strip, raw.split(",")) if tok]
    if not values:
        raise ValidationError(f"[{section}] {key} is empty")
    return values


@dataclass
class RunConfig:
    """Resolved configuration with reference defaults filled in."""

    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        merged = {s: dict(kv) for s, kv in _DEFAULTS.items()}
        if path is not None:
            parser = configparser.ConfigParser(interpolation=None)
            try:
                with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is skipped
                    parser.read_file(fh)
            except (configparser.Error, UnicodeDecodeError) as exc:
                # configparser spreads its message over lines; stderr gets one
                raise ValidationError(f"malformed config {path}: {' '.join(str(exc).split())}")
            for section in parser.sections():
                if section not in merged:
                    raise ValidationError(f"unknown config section [{section}]")
                for key, value in parser.items(section):
                    if key not in merged[section]:
                        raise ValidationError(
                            f"unknown key {key!r} in config section [{section}]"
                        )
                    merged[section][key] = value
        return cls(raw=merged)

    # -- parameter records ------------------------------------------------

    def pump(self) -> PumpParams:
        sec = self.raw["pump"]
        lambda_deg = _parse_float("pump", "degenerate_nm", sec["degenerate_nm"])
        return PumpParams(
            g_peak=_parse_float("pump", "gain", sec["gain"]),
            t_p=_parse_float("pump", "pulse_fwhm_ps", sec["pulse_fwhm_ps"]),
            lambda_deg=lambda_deg,
            lambda_pump=lambda_deg / 2.0,
        )

    def crystal(self) -> CrystalParams:
        sec = self.raw["crystal"]
        walkoff = sec["walkoff_ps_per_mm"].strip()
        if walkoff == "auto":
            return self.calibrated_crystal()
        return CrystalParams(
            length_mm=_parse_float("crystal", "length_mm", sec["length_mm"]),
            walkoff_slope=_parse_float("crystal", "walkoff_ps_per_mm", walkoff),
        )

    def calibrated_crystal(self) -> CrystalParams:
        """Crystal whose walk-off slope gives ``calibration_fwhm_nm`` at
        ``length_mm``."""
        sec = self.raw["crystal"]
        length = _parse_float("crystal", "length_mm", sec["length_mm"])
        target = _parse_float("crystal", "calibration_fwhm_nm", sec["calibration_fwhm_nm"])
        return calibrate_walkoff(target, self.pump(), length_mm=length)

    def detection(self) -> DetectionModel:
        sec = self.raw["detection"]
        return DetectionModel(
            eta=_parse_float("detection", "efficiency", sec["efficiency"]),
            m_modes=_parse_int("detection", "modes", sec["modes"]),
            noise_var=_parse_float("detection", "noise_var", sec["noise_var"]),
            n_pulses=_parse_int("detection", "pulses", sec["pulses"]),
        )

    # -- grids -------------------------------------------------------------

    def tau_grid(self, section: str):
        """The delay grid of ``section``, [trace] or [sweep]: positive
        bounds and at least 3 delays."""
        sec = self.raw[section]
        tau_max = _parse_float(section, "tau_max_ps", sec["tau_max_ps"])
        step = _parse_float(section, "tau_step_ps", sec["tau_step_ps"])
        if not (tau_max > 0 and step > 0):
            raise ValidationError(f"[{section}] delay grid must have positive extent")
        tau = delay_grid(tau_max, step)
        if tau.size < 3:
            raise ValidationError(f"[{section}] delay grid is empty")
        return tau

    def sweep_gains(self):
        return _parse_floats("sweep", "g_values", self.raw["sweep"]["g_values"])

    def mc_tau_points(self):
        return _parse_floats("mc", "tau_points", self.raw["mc"]["tau_points"])

    def mc_freq_bins(self) -> int:
        return _parse_int("mc", "n_freq_bins", self.raw["mc"]["n_freq_bins"])

    def fit_data_path(self) -> str:
        path = self.raw["fit"]["data"].strip()
        if not path:
            raise ValidationError("[fit] data: path to a power/intensity CSV required")
        return path

    def resolved(self) -> dict:
        """Flat copy of every parameter for the run manifest."""
        return {s: dict(kv) for s, kv in self.raw.items()}
