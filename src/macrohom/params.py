"""Physical parameter records.

Units are fixed package-wide: time in ps, frequency detuning in rad/ps,
length in mm, wavelengths in nm.  With these choices the dimensionless
combinations walkoff*length and detuning*delay stay of order unity for
typical crystals.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError

# speed of light in nm/ps
C_NM_PER_PS = 299_792.458

# largest peak gain whose photon number sinh^2(gain) is a finite float
_MAX_GAIN = math.asinh(math.sqrt(sys.float_info.max))

# Gauss-Legendre nodes per panel of a composite spectral grid
_GL_ORDER = 16

# float64 values the Fock oracle or the Monte Carlo may hold at once, 1 GiB
_MAX_FLOATS = 2**27


def _require_finite(record):
    """Reject NaN and infinite values in every float field of a record;
    comparisons such as ``x < 0`` let NaN through."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise ValidationError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class CrystalParams:
    """Nonlinear crystal: total length and temporal walk-off slope.

    ``walkoff_slope`` is the inverse-group-velocity difference between the
    two down-converted polarizations (ps/mm), so the phase mismatch at
    detuning ``omega`` is ``walkoff_slope * omega`` in rad/mm.  Only its
    magnitude matters; the sign convention (ordinary pulse delayed) is
    absorbed into ``abs``.
    """

    length_mm: float = 10.0
    walkoff_slope: float = 0.2  # ps/mm

    def __post_init__(self):
        _require_finite(self)
        if not (self.length_mm > 0):
            raise ValidationError(f"crystal length must be > 0, got {self.length_mm}")
        if self.walkoff_slope < 0:
            raise ValidationError(
                f"walkoff slope must be >= 0, got {self.walkoff_slope}"
            )


@dataclass(frozen=True)
class PumpParams:
    """Pump pulse and operating point of the parametric amplifier.

    ``g_peak`` is the dimensionless parametric gain at the pulse peak;
    ``t_p`` is the pump intensity FWHM in ps.  Operation is frequency
    degenerate: the pump wavelength must be half the degenerate wavelength
    to within 0.1%.
    """

    g_peak: float = 7.5
    t_p: float = 18.0  # ps, intensity FWHM
    lambda_deg: float = 709.3  # nm
    lambda_pump: float = 354.65  # nm, lambda_deg / 2

    def __post_init__(self):
        _require_finite(self)
        if not (0.0 <= self.g_peak <= _MAX_GAIN):
            raise ValidationError(
                f"peak gain must be in [0, {_MAX_GAIN:.2f}] (sinh^2 overflows beyond), "
                f"got {self.g_peak}"
            )
        if not (self.t_p > 0):
            raise ValidationError(f"pulse duration must be > 0, got {self.t_p}")
        if not (2.0 * self.sigma_a * self.sigma_a > 0):  # the gain envelope's divisor
            raise ValidationError(f"pulse duration {self.t_p} ps is too short: sigma^2 underflows")
        if not (self.lambda_deg > 0 and self.lambda_pump > 0):
            raise ValidationError("wavelengths must be > 0")
        if abs(self.lambda_pump - self.lambda_deg / 2.0) > 1e-3 * (self.lambda_deg / 2.0):
            raise ValidationError(
                "pump wavelength must equal half the degenerate wavelength "
                f"within 0.1%: got {self.lambda_pump} vs {self.lambda_deg / 2.0}"
            )

    @property
    def sigma_a(self) -> float:
        """Std dev of the Gaussian *field* envelope (ps).

        Chosen so the intensity envelope exp(-t^2/sigma_a^2) has FWHM t_p.
        """
        return self.t_p / (2.0 * math.sqrt(math.log(2.0)))


@dataclass(frozen=True)
class DetectionModel:
    """Detection chain: efficiency, mode count, noise, ensemble size.

    ``m_modes`` is the effective number of detected (spatial/temporal)
    modes entering the multimode reduction of g2; ``noise_var`` is the
    electronic noise variance per detector per pulse in photon-number
    units.
    """

    eta: float = 0.03
    m_modes: int = 10
    noise_var: float = 0.0
    n_pulses: int = 30_000

    def __post_init__(self):
        _require_finite(self)
        if not (0.0 < self.eta <= 1.0):
            raise ValidationError(f"efficiency must be in (0, 1], got {self.eta}")
        if self.m_modes < 1:
            raise ValidationError(f"mode count must be >= 1, got {self.m_modes}")
        if self.noise_var < 0:
            raise ValidationError(f"noise variance must be >= 0, got {self.noise_var}")
        if self.n_pulses < 2:
            raise ValidationError(f"ensemble size must be >= 2, got {self.n_pulses}")


@functools.cache
def _gl_rule(order: int):
    """The order-point Gauss-Legendre nodes and weights on [-1, 1], built
    once per process and order, read-only since every caller shares them;
    numpy.polynomial loads on the first call."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class SpectralGrid:
    """Samples and quadrature weights for integrals over detuning >= 0.

    ``omega`` is strictly increasing (rad/ps) starting at the origin of
    the integration domain; ``weights`` are positive quadrature weights
    for the integral from 0 to omega_max.
    """

    __slots__ = ("omega", "weights")

    def __init__(self, omega, weights):
        omega = np.asarray(omega, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if omega.ndim != 1 or omega.size == 0:
            raise ValidationError("grid must be a nonempty 1-d sequence")
        if omega.shape != weights.shape:
            raise ValidationError("omega and weights must have matching shapes")
        if np.any(np.diff(omega) <= 0):
            raise ValidationError("omega samples must be strictly increasing")
        if omega[0] < 0:
            raise ValidationError("omega samples must be >= 0")
        if np.any(weights <= 0):
            raise ValidationError("quadrature weights must be > 0")
        self.omega = omega
        self.weights = weights

    def __len__(self):
        return self.omega.size

    @property
    def omega_max(self) -> float:
        return float(self.omega[-1])

    @classmethod
    def gauss_legendre(cls, omega_max: float, n: int) -> "SpectralGrid":
        """Composite Gauss-Legendre rule on [0, omega_max] with >= n nodes."""
        if not (omega_max > 0):
            raise ValidationError("omega_max must be > 0")
        if n < 1:
            raise ValidationError("node count must be >= 1")
        panels = -(-n // _GL_ORDER)
        x, w = _gl_rule(_GL_ORDER)
        edges = np.linspace(0.0, omega_max, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        omega = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        return cls(omega, weights)
