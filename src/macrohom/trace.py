"""Hong-Ou-Mandel observables versus signal-idler delay.

The normalized difference-signal variance is evaluated by quadrature over
detuning:

    nrf(tau) = 1 + int dw v0^2 { v_tau^2 + Re(u0^2) cos(2 w tau) }
                   / int dw v0^2

with v0 = v(w, 0), v_tau = v(w, tau) (delayed envelope) and u0 = u(w, 0).
The interference term keeps only the tau-even part of the pair-phase
factor, i.e. Re(u0^2) cos(2 w tau) rather than Re(u0^2 exp(2 i w tau)):
the odd component encodes the mean temporal walk-off offset, which the
crossed-crystal compensation removes from the measured trace; dropping it
makes every trace exactly even in tau.  At tau = 0 and at the edges the
two forms agree identically.  The kernel therefore runs once per distinct
|tau| and copies each value to both signs, so traces are even by
construction.

The interference term has compact support in tau.  Its integrand
v0^2 Re(u0^2) is even and entire in w: the factors S(z)^2 and C(z)^2,
z = G^2 - x^2, x = d L w / 2, are each of exponential type d L, so the
integrand is of exponential type 2 d L and, decaying as 1/w^2, integrable
on the real line.  By the Paley-Wiener theorem (Rudin, *Real and Complex
Analysis*, ch. 19) its cosine transform at frequency 2 tau vanishes for
|tau| > d L, the walk-off across the crystal (1.99 ps at the reference).
The kernel therefore sums the interference term only at |tau| <= d L and
sets it to exactly 0 beyond, where nrf equals the pedestal; a quadrature
sum there would return only the truncation residue of the spectral tail
cutoff.  At zero walk-off the integrand is constant in w, not
integrable, and the theorem says nothing: the sum runs at every delay.

Both kernels share one row rule: blocks of at most _ROW_BLOCK rows,
each row scaled by its weights in place and summed pairwise.

The pedestal integral depends on tau only through q = G(tau)^2:

    int dw v0^2 v_tau^2 = q F(q),    F(q) = int dw v0^2 S(q - x^2)^2,

and F is entire and positive in q.  log F is therefore interpolated on
Chebyshev points over the span of q, at degree 16, 32, 64, ... until its
trailing coefficients fall below 1e-14 of the largest, and F is summed
directly only at those nodes: about 65 sums for the 1601 distinct delays
of the reference trace, not one per delay.  On the reference and sweep
grids the pedestal agrees with exactly rounded sums to about 3e-14
relative.  Where interpolation would not save evaluations, or q takes a
single value, F is summed at every q instead.

The default grid is sized by the walk-off, not by the delays: both
integrands are entire in w of exponential type at most 4 d L (2 d L for
the interference integrand, and up to 2 d L more from cos(2 w tau) at
|tau| <= d L), and a Gauss-Legendre rule converges geometrically on
such functions (Trefethen, *SIAM Review* 50, 67 (2008)).  Eight nodes
per period of exp(2 i w d L) over the span, 16 x_max / pi for the tail
cutoff x_max = d L omega_max / 2, give 64 nodes at the reference and at
most 5104 at any gain the cutoff admits, for every delay grid.

Both kernels form at most _ROW_BLOCK = 64 rows at once, delays or
values of q: the interference sums hold one (64 x node) float64 array,
2.5 MiB on the largest default grid (5104 nodes), and the pedestal sums
about four, 10 MiB.

The g2 trace follows from the same variance physics: the total detected
signal is delay independent, so the cross-correlation dips exactly where
the difference variance peaks.  In the frequency basis each detuning
contributes a four-mode cluster (the two mirrored squeezed pairs, the
same structure behind the interference term above); Wick factorization
of that cluster gives the cross moment

    <N1 N2> = [Var(N1+N2) + <N1+N2>^2 - <(N1-N2)^2>] / 4

whose delay dependence enters only through the difference variance, with
weight 1/(4 n) per mode pair.  Normalizing per detected mode and pinning
the large-delay limit to the conserved twin-beam correlation 2 + 1/N,

    g2_single(tau) = 2 + 1/N - (nrf(tau) - 1) / (4 N),    N = sinh^2(G)

and multimode detection over m modes reduces it to 1 + (g2_single - 1)/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .gain import _half_angle, _sinc_branch, gain_at, omega_max_for, uv_arrays
from .params import CrystalParams, DetectionModel, PumpParams, SpectralGrid

TRACE_KINDS = ("nrf_ideal", "nrf_detected", "nrf_pedestal", "g2")

# lower bound: difference-signal variance never falls below shot noise here
_NRF_FLOOR = 1.0 - 1e-6

# most rows, delays or values of q, that either trace kernel forms at once
# (see the module docstring)
_ROW_BLOCK = 64

# pedestal interpolant in log F: starting degree, and the size of the
# trailing Chebyshev coefficients, relative to the largest, that ends the
# degree doubling
_CHEB_DEGREE = 16
_CHEB_TOL = 1e-14

# resource guard, about 40x the reference trace's 1600 delays per side
_MAX_DELAYS_PER_SIDE = 65536


@dataclass(frozen=True)
class Trace:
    """A sampled observable versus delay."""

    tau: np.ndarray
    value: np.ndarray
    kind: str

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        value = np.asarray(self.value, dtype=float)
        if self.kind not in TRACE_KINDS:
            raise ValidationError(f"unknown trace kind {self.kind!r}")
        if tau.ndim != 1 or tau.size == 0:
            raise ValidationError("tau grid must be a nonempty 1-d sequence")
        if tau.shape != value.shape:
            raise ValidationError("tau and value must have equal length")
        if np.any(np.diff(tau) <= 0):
            raise ValidationError("tau grid must be strictly increasing")
        if not np.all(np.isfinite(value)):
            raise NumericalError(f"{self.kind} trace has non-finite values")
        if self.kind.startswith("nrf") and np.any(value < _NRF_FLOOR):
            raise ValidationError(
                f"nrf trace dips below shot noise: min {value.min()}"
            )
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "value", value)

    def __len__(self):
        return self.tau.size


def required_nodes(span: float, walkoff: float, tau_max: float = 0.0) -> float:
    """Nodes over ``span`` rad/ps of detuning for 8 samples per period of
    exp(2 i w T): T is the walk-off d L (ps) when it is > 0, beyond which
    neither integrand oscillates faster (see the module docstring), and
    the largest |tau| only at zero walk-off, where the interference sum
    runs at every delay."""
    return 8.0 * span * (walkoff if walkoff > 0 else abs(tau_max)) / math.pi


def delay_grid(tau_max: float, tau_step: float) -> np.ndarray:
    """Symmetric delay grid from -tau_max to tau_max in steps of tau_step,
    with at most _MAX_DELAYS_PER_SIDE points per side."""
    stop = tau_max + 0.5 * tau_step
    if not (tau_step > 0 and stop / tau_step <= _MAX_DELAYS_PER_SIDE):
        raise ValidationError(
            f"delay grid to {tau_max} ps in steps of {tau_step} ps needs a "
            f"positive step and at most {_MAX_DELAYS_PER_SIDE} points per side"
        )
    half = np.arange(0.0, stop, tau_step)
    return np.concatenate([-half[:0:-1], half])


def default_grid(crystal: CrystalParams, pump: PumpParams) -> SpectralGrid:
    """Composite Gauss-Legendre grid over the spectral tail cutoff with
    :func:`required_nodes` at the walk-off; it serves every delay grid."""
    omega_max = omega_max_for(crystal, pump)
    dl = crystal.walkoff_slope * crystal.length_mm
    return SpectralGrid.gauss_legendre(omega_max, math.ceil(required_nodes(omega_max, dl)))


def _check_resolution(grid: SpectralGrid, walkoff: float, tau):
    # a single-node grid has no span and nothing to alias
    tau_max = float(np.max(np.abs(tau)))
    span = grid.omega_max - float(grid.omega[0])
    needed = required_nodes(span, walkoff, tau_max)
    if len(grid) < needed:
        raise ValidationError(
            f"grid has {len(grid)} nodes but a span of {span} rad/ps at walk-off "
            f"d L = {walkoff} ps and |tau| <= {tau_max} ps needs at least {needed:.3g}"
        )


def _row_sums(row, values, coef):
    """sum_w coef row(v) at each v of ``values``.  ``row`` maps a block of
    at most _ROW_BLOCK values to a new (block x node) array; each block is
    scaled by coef in place, summed pairwise along the nodes (within
    8 eps sum|terms| of exactly rounded sums) and released before the
    next is formed."""
    out = np.empty(values.size)
    for lo in range(0, values.size, _ROW_BLOCK):
        rows = row(values[lo : lo + _ROW_BLOCK])
        np.add.reduce(np.multiply(rows, coef, out=rows), axis=1, out=out[lo : lo + _ROW_BLOCK])
        del rows
    return out


def _pedestal_factor(q, x2, coef):
    """F(q) = sum_w coef S(q - x^2)^2 at each gain squared q; the pedestal
    sum at q = G^2 is q F(q)."""

    def squares(q_block):
        rows = _sinc_branch(q_block[:, None] - x2)
        return np.square(rows, out=rows)

    return _row_sums(squares, q, coef)


def _pedestal_sums(q, x2, coef):
    """The pedestal sums q F(q) at each q, F interpolated in log F.

    F is entire and positive in q, so log F is analytic on [min q, max q]
    and its Chebyshev series converges geometrically (Trefethen,
    *Approximation Theory and Approximation Practice*, ch. 8).  The
    degree starts at _CHEB_DEGREE and doubles, reusing every value
    (Chebyshev extrema nest), until the two trailing coefficients are
    below _CHEB_TOL of the largest.  F is evaluated directly at every q
    instead where interpolation would not take fewer evaluations, where
    the q span is zero, or where a node value is not finite and positive.
    """
    q_lo, q_hi = float(np.min(q)), float(np.max(q))
    n = _CHEB_DEGREE
    vals = None
    while q_hi > q_lo and n + 1 < q.size:
        # extrema cos(pi j / n), j = 0..n; the even j are the previous nodes
        t = np.cos(np.pi * np.arange(n + 1) / n)
        nodes = 0.5 * (q_hi + q_lo) + 0.5 * (q_hi - q_lo) * t
        new = np.empty(n + 1)
        if vals is None:
            new[:] = _pedestal_factor(nodes, x2, coef)
        else:
            new[::2] = vals
            new[1::2] = _pedestal_factor(nodes[1::2], x2, coef)
        vals = new
        if not np.all(np.isfinite(vals) & (vals > 0)):
            break
        # Chebyshev coefficients of log F from its values at the extrema,
        # a type-I discrete cosine transform through the FFT
        f = np.log(vals)
        c = np.fft.rfft(np.concatenate([f, f[-2:0:-1]])).real / n
        c[0] *= 0.5
        c[n] *= 0.5
        if np.max(np.abs(c[-2:])) <= _CHEB_TOL * np.max(np.abs(c)):
            s = (2.0 * q - (q_hi + q_lo)) / (q_hi - q_lo)
            return q * np.exp(np.polynomial.chebyshev.chebval(s, c))
        n *= 2
    return q * _pedestal_factor(q, x2, coef)


def _interference_sums(abs_tau, omega, coef):
    """sum_w coef cos(2 w tau) at each tau of ``abs_tau``."""

    def cosines(tau_block):
        rows = np.multiply.outer(2.0 * tau_block, omega)
        return np.cos(rows, out=rows)

    return _row_sums(cosines, abs_tau, coef)


def nrf_and_pedestal(tau_grid, crystal: CrystalParams, pump: PumpParams, grid: SpectralGrid):
    """The variance trace and its pedestal, (nrf, pedestal), sharing one
    pedestal sum per delay.  The integrand depends on tau only through
    tau^2 (in G(tau)) and cos(2 w tau), so the kernels run once per
    distinct |tau| of ``tau_grid`` and both traces are expanded back onto
    it: both are even by construction.  The pedestal sums come from
    :func:`_pedestal_sums`, the interference sums from
    :func:`_interference_sums` at |tau| <= d L (see the module docstring).
    A computed nrf below shot noise (the pedestal is >= 1), or a rounding
    floor of the interference sum above 1e-6 of the smallest nrf inside
    d L, raises NumericalError."""
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size == 0:
        raise ValidationError("tau grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(tau)):
        raise ValidationError("delays must be finite")
    dl = crystal.walkoff_slope * crystal.length_mm
    _check_resolution(grid, dl, tau)

    if pump.g_peak == 0.0:
        # vacuum in, shot noise out: 0/0 resolved to the physical limit
        pedestal, nrf = np.ones((2, tau.size))
    else:
        # an overflow (sinh^4 G at high gain) surfaces as the non-finite
        # values Trace reports, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            omega = grid.omega
            u0, v0 = uv_arrays(omega, 0.0, crystal, pump)
            v0sq = v0 * v0
            coef = grid.weights * v0sq
            denom = float(np.sum(coef))
            interf_coef = coef * (u0.real**2 - u0.imag**2)  # w * v0^2 * Re(u0^2)

            x = _half_angle(omega, crystal)
            abs_tau, back = np.unique(np.abs(tau), return_inverse=True)
            g_tau = gain_at(abs_tau, pump)

            ped_sum = _pedestal_sums(g_tau * g_tau, x * x, coef)
            # the interference integral is exactly 0 beyond |tau| = d L
            # (Paley-Wiener); at zero walk-off it has no such support
            n_in = int(np.searchsorted(abs_tau, dl, side="right")) if dl > 0 else abs_tau.size
            interf = np.zeros(abs_tau.size)
            interf[:n_in] = _interference_sums(abs_tau[:n_in], omega, interf_coef)
            pedestal = 1.0 + ped_sum / denom
            nrf = 1.0 + (ped_sum + interf) / denom
            if np.min(nrf) < _NRF_FLOOR:
                raise NumericalError(
                    f"nrf trace dips below shot noise, min {np.min(nrf):.3g}: the interference "
                    f"sum's rounding error exceeds shot noise at gain {pump.g_peak}"
                )
            # the interference sum's rounding floor (Higham, *Accuracy and Stability*, ch. 4)
            floor = np.finfo(float).eps * float(np.sum(np.abs(interf_coef))) / denom
            if not np.isfinite(floor):
                raise NumericalError(f"interference weights have non-finite values at gain {pump.g_peak}")
            if n_in and floor > 1e-6 * np.min(nrf[:n_in]):
                raise NumericalError(
                    f"the interference sum's rounding floor {floor:.3g} exceeds 1e-6 of the "
                    f"smallest nrf inside d L, {np.min(nrf[:n_in]):.3g}, at gain {pump.g_peak}"
                )
            pedestal, nrf = pedestal[back], nrf[back]
    return (
        Trace(tau=tau, value=nrf, kind="nrf_ideal"),
        Trace(tau=tau, value=pedestal, kind="nrf_pedestal"),
    )


def nrf_trace(tau_grid, crystal: CrystalParams, pump: PumpParams, grid: SpectralGrid) -> Trace:
    """Normalized variance of the photon-number difference versus delay."""
    return nrf_and_pedestal(tau_grid, crystal, pump, grid)[0]


def pedestal_trace(tau_grid, crystal: CrystalParams, pump: PumpParams, grid: SpectralGrid) -> Trace:
    """The classical envelope-correlation component: the interference term
    dropped.  The narrow quantum component is nrf - pedestal pointwise."""
    return nrf_and_pedestal(tau_grid, crystal, pump, grid)[1]


def detected_trace(trace: Trace, det: DetectionModel) -> Trace:
    """Finite quantum efficiency: value -> 1 + eta (value - 1)."""
    if trace.kind not in ("nrf_ideal", "nrf_pedestal"):
        raise ValidationError(f"cannot apply detection to kind {trace.kind!r}")
    return Trace(
        tau=trace.tau,
        value=1.0 + det.eta * (trace.value - 1.0),
        kind="nrf_detected",
    )


def g2_trace(
    tau_grid,
    crystal: CrystalParams,
    pump: PumpParams,
    grid: SpectralGrid,
    det: DetectionModel,
) -> Trace:
    """Cross-correlation of the two splitter outputs versus delay.

    Efficiency cancels in the normalized ratio, so only the detected mode
    count enters.  The mean signals are delay independent by construction
    (the total photon number is conserved through the splitter), which
    keeps the denominator constant across the trace.
    """
    if not (pump.g_peak > 0):
        raise ValidationError("g2 trace requires g_peak > 0")
    nrf = nrf_trace(tau_grid, crystal, pump, grid)
    n_mode = math.sinh(pump.g_peak) ** 2
    g_single = 2.0 + 1.0 / n_mode - (nrf.value - 1.0) / (4.0 * n_mode)
    value = 1.0 + (g_single - 1.0) / det.m_modes
    return Trace(tau=nrf.tau, value=value, kind="g2")


def visibility(trace: Trace) -> float:
    """(max - min)/(max + min) over the sampled values."""
    hi = float(np.max(trace.value))
    lo = float(np.min(trace.value))
    if hi + lo <= 0:
        raise ValidationError("degenerate trace: max + min <= 0")
    return (hi - lo) / (hi + lo)


def _fwhm(tau, comp, name) -> float:
    """FWHM of the peaked ``name`` component by linear interpolation of
    the half-maximum crossings around the global maximum.  A peak whose
    neighbours on the grid both fall below half maximum is not resolved:
    its crossings would only reflect the grid step.

    The interpolation overstates the width by a bias that grows with the
    step: for the narrow peak at G = 7.5, against a 0.001 ps grid, by
    1.3e-5 relative at 0.02 ps (the sweep default), 3.2e-4 at 0.05 ps (the
    trace default), 2.3e-3 at 0.1, 9.2e-3 at 0.2 and 3.3e-2 at 0.4 ps."""
    i_max = int(np.argmax(comp))
    peak = comp[i_max]
    grid = f"the delay grid |tau| <= {float(np.max(np.abs(tau))):g} ps"
    if not (peak > 0):
        raise ValidationError(f"{name} component has no positive maximum on {grid}")
    half = 0.5 * peak
    # the nearest sample on each side of the peak that is not >= half (NaN
    # included) bounds the crossing interval [i, i + 1] on that side
    below = ~(comp >= half)
    left = np.flatnonzero(below[:i_max])
    right = np.flatnonzero(below[i_max:])
    for side, crossings in (("left", left), ("right", right)):
        if crossings.size == 0:
            raise NumericalError(
                f"{side} half-maximum crossing of the {name} component lies outside {grid}"
            )
    if left[-1] == i_max - 1 and right[0] == 1:
        raise NumericalError(
            f"{name} component peak is not resolved on {grid}: only its maximum sample "
            "reaches half maximum"
        )

    def cross(i):
        return tau[i] + (half - comp[i]) * (tau[i + 1] - tau[i]) / (comp[i + 1] - comp[i])

    return float(cross(i_max + right[0] - 1) - cross(left[-1]))


def _require_shared_grid(a: Trace, b: Trace):
    if len(a) != len(b) or not np.array_equal(a.tau, b.tau):
        raise ValidationError("traces must share the same tau grid")


def fwhm_narrow(nrf: Trace, pedestal: Trace) -> float:
    """FWHM (ps) of the narrow quantum component nrf - pedestal."""
    _require_shared_grid(nrf, pedestal)
    return _fwhm(nrf.tau, nrf.value - pedestal.value, "narrow")


def fwhm_pedestal(pedestal: Trace) -> float:
    """FWHM (ps) of the pedestal elevation above the shot-noise baseline."""
    return _fwhm(pedestal.tau, pedestal.value - 1.0, "pedestal")


def mode_count_g2(g2_edge_measured: float, n_mode: float) -> float:
    """Detected mode count from the large-delay g2 value:
    m = (1 + 1/N) / (g2_edge - 1)."""
    if not (n_mode > 0):
        raise ValidationError("mode occupation must be > 0")
    if g2_edge_measured <= 1.0:
        raise ValidationError(
            f"g2 edge {g2_edge_measured} shows no excess correlation"
        )
    return (1.0 + 1.0 / n_mode) / (g2_edge_measured - 1.0)


def mode_count_long(nrf: Trace, pedestal: Trace) -> float:
    """Longitudinal mode count: pedestal width over narrow-peak width."""
    _require_shared_grid(nrf, pedestal)
    return fwhm_pedestal(pedestal) / fwhm_narrow(nrf, pedestal)


def fwhm_vs_gain(tau_grid, g_values, crystal: CrystalParams, pump_template: PumpParams):
    """Narrow-peak FWHM on ``tau_grid`` for each gain value, at fixed
    crystal calibration.  Returns a list of (g, fwhm_ps) rows, one per
    input gain; each gain takes the refusals of :class:`PumpParams`,
    :func:`default_grid` and :func:`nrf_and_pedestal`."""
    rows = []
    for g in g_values:
        pump = replace(pump_template, g_peak=float(g))
        nrf, ped = nrf_and_pedestal(tau_grid, crystal, pump, default_grid(crystal, pump))
        rows.append((pump.g_peak, fwhm_narrow(nrf, ped)))
    return rows
