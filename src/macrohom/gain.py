"""Spectral-temporal parametric gain functions and derived quantities.

The amplifier maps vacuum inputs onto bright twin beams through the
Bogoliubov coefficients u, v at detuning omega and pump-envelope time t.
With

    x = walkoff_slope * omega * length / 2      (phase-mismatch half-angle)
    z = G(t)^2 - x^2

the coefficients are u = C(z) + i*x*S(z) and v = G(t)*S(z), where C and S
are the even entire functions C(z) = cosh(sqrt(z)) and
S(z) = sinh(sqrt(z))/sqrt(z), continued through z <= 0 as cos and sinc.
Both are evaluated directly, as cosh or cos of s = sqrt(|z|) and sinh(s)/s
or sin(s)/s, within an ulp of exact however small s is; only z = 0 takes
the limit S = 1.  Unitarity |u|^2 - |v|^2 = 1 then holds identically.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ValidationError
from .params import _MAX_FLOATS, C_NM_PER_PS, CrystalParams, PumpParams, SpectralGrid

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
    """C(z) = cosh(sqrt(z)), continued as cos(sqrt(-z)) for z <= 0."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z > 0
    s = np.sqrt(np.abs(z))
    np.cosh(s, out=out, where=pos)
    np.cos(s, out=out, where=~pos)
    return out


def _sinc_branch(z):
    """S(z) = sinh(sqrt(z))/sqrt(z), continued as sin(sqrt(-z))/sqrt(-z); S(0) = 1."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    s = np.sqrt(np.abs(z))
    np.sinh(s, out=out, where=z > 0)
    np.sin(s, out=out, where=z < 0)
    np.divide(out, s, out=out, where=s != 0)
    return out


def _half_angle(omega, crystal: CrystalParams):
    """Phase-mismatch half-angle x = walkoff_slope * omega * length / 2, odd in omega."""
    return 0.5 * (crystal.walkoff_slope * np.asarray(omega, dtype=float)) * crystal.length_mm


def _v_abs(g, x):
    """|v| = |G S(G^2 - x^2)| alone, for callers that never need u: C is
    not evaluated.  ``g`` and ``x`` broadcast against each other."""
    return np.abs(g * _sinc_branch(g * g - x * x))


def _v_abs_scalar(g: float, x: float) -> float:
    """:func:`_v_abs` for one float pair, in ``math``: the same branches,
    without numpy's per-call array overhead."""
    z = g * g - x * x
    if z == 0.0:
        return abs(g)
    s = math.sqrt(abs(z))
    return abs(g * ((math.sinh(s) if z > 0 else math.sin(s)) / s))


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


def _bisect(f, lo: float, hi: float, failure: str) -> float:
    """Root of ``f`` on [lo, hi] to adjacent floats, which needs no iteration
    cap; NumericalError(failure) unless f(lo) > 0 > f(hi)."""
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo > 0.0 > f_hi):
        raise NumericalError(failure)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_mid > 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


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
        v = _v_abs_scalar(g, x)
        return v * v - half

    x_zero = math.sqrt(g * g + math.pi ** 2)
    return _bisect(excess, 0.0, x_zero, "half-maximum crossing not bracketed: degenerate input")


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
        raise NumericalError(f"calibration missed the target: achieved {achieved} nm")
    return crystal


def fit_gain_curve(powers, intensities):
    """Least-squares fit of intensity = scale * sinh^2(c * sqrt(power)).

    The gain is proportional to the pump field amplitude, hence to the
    square root of pump power.  Returns (c, scale).

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413,
    1973): scale = (y.s)/(s.s) at each c, s = sinh^2(c sqrt(P)), and c
    maximises (y.s)^2/(s.s), whose c-derivative has the sign of the
    zero-diagonal sum_ij y_i s_i s_j^2 (q_i - q_j), q = x coth(x), x = c sqrt(P).
    Bracket: from x = 1 at the largest power, c halves while that sign is
    not +, down to x = 1e-3 (sinh^2 is then quadratic to 3.3e-7 and fixes
    no c), and doubles while it is not -, until sinh overflows to nan.
    Bisection to adjacent floats finds the root; no bracket: NumericalError.
    The sum forms an n x n array, so n^2 above ``_MAX_FLOATS`` is refused.
    """
    p = np.asarray(powers, dtype=float)
    y = np.asarray(intensities, dtype=float)
    if p.ndim != 1 or p.size < 3:
        raise ValidationError("need at least 3 (power, intensity) points")
    if p.shape != y.shape:
        raise ValidationError("powers and intensities must have equal length")
    if p.size * p.size > _MAX_FLOATS:
        raise ValidationError(
            f"{p.size} points need {p.size}^2 float64 values per fit step, "
            f"above the cap of {_MAX_FLOATS}"
        )
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(y))):
        raise ValidationError("powers and intensities must be finite")
    if np.any(p <= 0):
        raise ValidationError("powers must be > 0")
    if np.all(y == 0):
        raise ValidationError("all intensities zero: gain fit is degenerate")
    if np.any(y < 0):
        raise ValidationError("intensities must be >= 0")

    root = np.sqrt(p)
    y_max = float(y.max())
    y = y / y_max  # c does not depend on the intensity scale

    def slope(c):
        x = c * root
        s = (np.sinh(x) / np.sinh(x.max())) ** 2
        q = x / np.tanh(x)
        return float((y * s) @ np.subtract.outer(q, q) @ (s * s))

    with np.errstate(all="ignore"):
        lo = hi = x_unit = 1.0 / float(root.max())
        while slope(lo) <= 0.0 and lo > 1e-3 * x_unit:
            lo *= 0.5
        while slope(hi) >= 0.0:
            hi *= 2.0
        c = _bisect(slope, lo, hi, f"gain-curve fit failed: no least-squares c in [{lo!r}, {hi!r}]")
        s = np.sinh(c * root) ** 2  # s.s overflows, and scale is 0, past x = 178
        scale = float(y_max * ((y @ s) / (s @ s)))
    if not (0.0 < scale < math.inf):
        raise NumericalError(f"gain-curve fit failed: scale {scale} at c = {c!r} leaves float64")
    return c, scale
