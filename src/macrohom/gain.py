"""Spectral-temporal parametric gain functions and derived quantities.

The amplifier maps vacuum inputs onto bright twin beams through the
Bogoliubov coefficients u, v at detuning omega and pump-envelope time t.
With

    x = walkoff_slope * omega * length / 2      (phase-mismatch half-angle)
    z = G(t)^2 - x^2

the coefficients are u = C(z) + i*x*S(z) and v = G(t)*S(z), where C and S
are the even entire functions C(z) = cosh(sqrt(z)) and
S(z) = sinh(sqrt(z))/sqrt(z), continued through z <= 0 as cos and sinc.
Evaluating C and S directly (never dividing by sqrt(z)) keeps the
removable singularity at z = 0 harmless; a short Taylor series covers
|z| < 1e-6.  Unitarity |u|^2 - |v|^2 = 1 then holds identically.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ValidationError
from .params import C_NM_PER_PS, CrystalParams, PumpParams, SpectralGrid

_SERIES_CUTOFF = 1e-6

# |v(omega_max, 0)|^2 must fall below this fraction of |v(0,0)|^2
TAIL_CUTOFF = 1e-6


def gain_at(t, pump: PumpParams):
    """Parametric gain G(t) following the Gaussian pump field envelope.

    G(t) = g_peak * exp(-t^2 / (2 sigma_a^2)) with sigma_a set by the
    intensity FWHM t_p, so G(t)^2 reaches half its peak at |t| = t_p/2.
    """
    t = np.asarray(t, dtype=float)
    sig = pump.sigma_a
    return pump.g_peak * np.exp(-(t * t) / (2.0 * sig * sig))


def _cosh_branch(z):
    """C(z) = cosh(sqrt(z)), continued as cos(sqrt(-z)) for z < 0."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= _SERIES_CUTOFF
    neg = z <= -_SERIES_CUTOFF
    s = np.sqrt(np.abs(z))
    np.cosh(s, out=out, where=pos)
    np.cos(s, out=out, where=neg)
    mid = ~(pos | neg)
    zm = z[mid]
    out[mid] = 1.0 + zm / 2.0 + zm * zm / 24.0 + zm * zm * zm / 720.0
    return out


def _sinc_branch(z):
    """S(z) = sinh(sqrt(z))/sqrt(z), continued as sin(sqrt(-z))/sqrt(-z)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= _SERIES_CUTOFF
    neg = z <= -_SERIES_CUTOFF
    s = np.sqrt(np.abs(z))
    np.sinh(s, out=out, where=pos)
    np.sin(s, out=out, where=neg)
    far = pos | neg
    np.divide(out, s, out=out, where=far)
    zm = z[~far]
    out[~far] = 1.0 + zm / 6.0 + zm * zm / 120.0 + zm * zm * zm / 5040.0
    return out


def _half_angle(omega, crystal: CrystalParams):
    """Phase-mismatch half-angle x = walkoff_slope * omega * length / 2, odd in omega."""
    return 0.5 * (crystal.walkoff_slope * np.asarray(omega, dtype=float)) * crystal.length_mm


def _v_abs(g, x):
    """|v| = |G S(G^2 - x^2)| alone, for callers that never need u: C is
    not evaluated.  ``g`` and ``x`` broadcast against each other."""
    return np.abs(g * _sinc_branch(g * g - x * x))


def _bogoliubov(g, x):
    """The Bogoliubov pair u = C(z) + i x S(z), v = |G S(z)| at gain ``g``
    and half-angle ``x``, z = G^2 - x^2; v is :func:`_v_abs` with S(z)
    evaluated once for both."""
    z = g * g - x * x
    s = _sinc_branch(z)
    return _cosh_branch(z) + 1j * x * s, np.abs(g * s)


def uv_arrays(omega, t: float, crystal: CrystalParams, pump: PumpParams):
    """Vectorized (u, v) at detunings ``omega`` and pump time ``t``.

    Returns complex u and real nonnegative v.  The sign that the analytic
    continuation of v would acquire beyond its first zero is dropped: v
    only ever enters observables through v^2 or products of two v's from
    mirrored detunings, so it is unobservable, and |v| keeps the
    twin-pair amplitude convention nonnegative everywhere.
    """
    return _bogoliubov(float(gain_at(t, pump)), _half_angle(omega, crystal))


def spectrum(grid: SpectralGrid, crystal: CrystalParams, pump: PumpParams):
    """Photon spectral density per mode |v(omega, 0)|^2 on the grid."""
    v = _v_abs(float(gain_at(0.0, pump)), _half_angle(grid.omega, crystal))
    return v * v


def omega_max_for(crystal: CrystalParams, pump: PumpParams) -> float:
    """Detuning beyond which the spectrum is below ``TAIL_CUTOFF`` of its peak.

    Uses the monotone envelope bound |v|^2 <= G^2/(x^2 - G^2) valid past
    the gain band, so the returned value is a rigorous tail cutoff.
    Raises ValidationError when the cutoff is not a finite float.
    """
    g = pump.g_peak
    if g <= 0:
        raise ValidationError("peak gain must be > 0 to size a spectral grid")
    dl = crystal.walkoff_slope * crystal.length_mm
    if not (0.0 < dl < math.inf):
        raise ValidationError(f"walkoff_slope * length must be finite and > 0, got {dl}")
    # zero below G of about 1e-159; its reciprocal overflows below about 7e-152
    tail = TAIL_CUTOFF * math.sinh(g) ** 2
    x_max = g * math.sqrt(1.0 + (1.0 / tail if tail > 0 else math.inf))
    omega_max = 2.0 * x_max / dl
    if not math.isfinite(omega_max):
        raise ValidationError(f"no finite grid can be sized at gain {g}, walkoff * length {dl}")
    return omega_max


def _half_max_angle(g: float) -> float:
    """Half-angle x_half = d L omega_half / 2 at which |v|^2 = sinh^2(G) / 2.

    |v|^2 = (G S(G^2 - x^2))^2 depends on the gain alone and decreases
    monotonically from sinh^2 G at x = 0 to zero at x = sqrt(G^2 + pi^2), so
    one root solve on that interval finds it.  The full spectral width is
    2 omega_half = 4 x_half / (d L).
    """
    if not (g > 0):
        raise ValidationError("spectral FWHM requires g_peak > 0")
    half = 0.5 * math.sinh(g) ** 2

    def excess(x):
        return _v_abs(g, np.array([x]))[0] ** 2 - half

    lo, hi = 0.0, math.sqrt(g * g + math.pi ** 2)
    f_lo, f_hi = excess(lo), excess(hi)
    if not (f_lo > 0.0 > f_hi):
        raise NumericalError("half-maximum crossing not bracketed: degenerate input")
    # bisect until lo and hi are adjacent floats: the interval shrinks
    # strictly at every step, so the loop ends without an iteration cap
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = excess(mid)
        if f_mid == 0.0:
            return mid
        if f_mid > 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def _fwhm_scale(pump: PumpParams) -> float:
    """Spectral FWHM (nm) times the walk-off-length product d*L (ps): the
    width 4 x_half / (d L) of :func:`_half_max_angle` mapped to wavelength
    through d(lambda) = lambda_deg^2 d(omega) / (2 pi c)."""
    lam2 = pump.lambda_deg * pump.lambda_deg  # overflows to inf where ** would raise
    scale = lam2 * 4.0 * _half_max_angle(pump.g_peak) / (2.0 * math.pi * C_NM_PER_PS)
    if not (0.0 < scale < math.inf):
        raise ValidationError(f"degenerate wavelength {pump.lambda_deg} nm gives no finite width")
    return scale


def spectral_fwhm_nm(crystal: CrystalParams, pump: PumpParams) -> float:
    """FWHM of the photon spectrum, converted to wavelength (nm).

    Closed form: FWHM = lambda_deg^2 * 4 x_half / (2 pi c d L), with c the
    speed of light, d the walk-off slope, L the crystal length and x_half
    the half-angle at which |v|^2 = sinh^2(G) / 2, found by one scalar
    root solve that depends on the gain G alone.
    """
    scale = _fwhm_scale(pump)
    dl = crystal.walkoff_slope * crystal.length_mm
    if dl <= 0:
        raise NumericalError("zero walkoff: spectrum has no finite width")
    return scale / dl


def calibrate_walkoff(
    target_fwhm_nm: float,
    pump: PumpParams,
    length_mm: float = 10.0,
) -> CrystalParams:
    """Find the walk-off slope that gives the target spectral FWHM.

    The FWHM scales exactly as 1/(walkoff*length), so the slope follows in
    closed form, d* = lambda_deg^2 * 4 x_half / (2 pi c L target), with c
    the speed of light, L the crystal length and x_half the gain-only
    half-maximum half-angle of :func:`spectral_fwhm_nm`.  The achieved
    FWHM must match the target within 1e-3 nm.
    """
    if not (0.0 < target_fwhm_nm < math.inf):
        raise ValidationError("target FWHM must be finite and > 0")
    if not (0.0 < length_mm < math.inf):
        raise ValidationError(f"crystal length must be finite and > 0, got {length_mm}")
    # divided in turn: the product length * target can underflow to zero
    crystal = CrystalParams(length_mm, _fwhm_scale(pump) / length_mm / target_fwhm_nm)
    achieved = spectral_fwhm_nm(crystal, pump)
    if abs(achieved - target_fwhm_nm) > 1e-3:
        raise NumericalError(
            f"calibration missed the target: achieved {achieved} nm"
        )
    return crystal


def _sinh2_model(p, c, scale):
    return scale * np.sinh(c * np.sqrt(p)) ** 2


def fit_gain_curve(powers, intensities):
    """Least-squares fit of intensity = scale * sinh^2(c * sqrt(power)).

    The gain is proportional to the pump field amplitude, hence to the
    square root of pump power.  Returns (c, scale).

    Initialization is deterministic: seed scale0 = 1, read c0 off the
    largest-power point via asinh, re-estimate scale0 from the
    smallest-power point, and refresh c0 once.
    """
    p = np.asarray(powers, dtype=float)
    y = np.asarray(intensities, dtype=float)
    if p.ndim != 1 or p.size < 3:
        raise ValidationError("need at least 3 (power, intensity) points")
    if p.shape != y.shape:
        raise ValidationError("powers and intensities must have equal length")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(y))):
        raise ValidationError("powers and intensities must be finite")
    if np.any(p <= 0):
        raise ValidationError("powers must be > 0")
    if np.all(y == 0):
        raise ValidationError("all intensities zero: gain fit is degenerate")
    if np.any(y < 0):
        raise ValidationError("intensities must be >= 0")

    i_max = int(np.argmax(p))
    i_min = int(np.argmin(p))
    scale0 = 1.0
    c0 = math.asinh(math.sqrt(max(y[i_max], 1e-300) / scale0)) / math.sqrt(p[i_max])
    denom = math.sinh(c0 * math.sqrt(p[i_min])) ** 2
    if y[i_min] > 0 and denom > 0:
        scale0 = y[i_min] / denom
        c0 = math.asinh(math.sqrt(y[i_max] / scale0)) / math.sqrt(p[i_max])

    # imported here, so that only this fit pays for loading scipy.optimize
    from scipy.optimize import curve_fit

    try:
        popt, _ = curve_fit(
            _sinh2_model,
            p,
            y,
            p0=(c0, scale0),
            bounds=((0.0, 0.0), (np.inf, np.inf)),
            maxfev=20_000,
        )
    except (RuntimeError, ValueError) as exc:  # ValueError: the model overflows at the start
        raise NumericalError(f"gain-curve fit failed: {exc}")
    c, scale = float(popt[0]), float(popt[1])
    return c, scale
