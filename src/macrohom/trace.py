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
two forms agree identically.

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
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, GridResolutionError, NumericalError, ValidationError
from .gain import _sinc_branch, gain_at, omega_max_for, uv_arrays
from .params import CrystalParams, DetectionModel, PumpParams, SpectralGrid

TRACE_KINDS = ("nrf_ideal", "nrf_detected", "nrf_pedestal", "g2")

# lower bound: difference-signal variance never falls below shot noise here
_NRF_FLOOR = 1.0 - 1e-6

_TAU_CHUNK = 256


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


def required_nodes(omega_max: float, tau_max: float) -> int:
    """Node count resolving exp(2 i w tau): 8 samples per period."""
    return max(2048, int(math.ceil(8.0 * omega_max * abs(tau_max) / math.pi)))


def default_grid(crystal: CrystalParams, pump: PumpParams, tau_max: float) -> SpectralGrid:
    """Composite Gauss-Legendre grid sized by the spectral tail cutoff and
    the oscillation-resolution rule for the largest requested delay."""
    omega_max = omega_max_for(crystal, pump)
    return SpectralGrid.gauss_legendre(omega_max, required_nodes(omega_max, tau_max))


def _check_resolution(grid: SpectralGrid, tau):
    # 8 samples per period of exp(2 i w tau) across the integration span;
    # a single-node grid has no span and nothing to alias
    tau_max = float(np.max(np.abs(tau))) if len(tau) else 0.0
    span = grid.omega_max - float(grid.omega[0])
    needed = 8.0 * span * tau_max / math.pi
    if len(grid) < needed:
        raise GridResolutionError(
            f"grid has {len(grid)} nodes but resolving delays to "
            f"|tau| = {tau_max} ps over a span of {span} rad/ps "
            f"needs at least {int(math.ceil(needed))}"
        )


def _trace_values(tau, crystal, pump, grid, include_interference):
    """Shared quadrature core: the (pedestal, nrf) values, building each
    chunk's pedestal sum once; without the interference term the cosine
    matrix and nrf are skipped."""
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or tau.size == 0:
        raise ValidationError("tau grid must be a nonempty 1-d sequence")
    _check_resolution(grid, tau)

    if pump.g_peak == 0.0:
        # vacuum in, shot noise out: 0/0 resolved to the physical limit
        return np.ones_like(tau), np.ones_like(tau)

    omega = grid.omega
    u0, v0 = uv_arrays(omega, 0.0, crystal, pump)
    v0sq = v0 * v0
    coef = grid.weights * v0sq
    denom = float(np.sum(coef))
    interf_coef = coef * (u0.real**2 - u0.imag**2)  # w * v0^2 * Re(u0^2)

    x = 0.5 * crystal.walkoff_slope * omega * crystal.length_mm
    xsq = x * x
    g_tau = np.asarray(gain_at(tau, pump), dtype=float)

    pedestal = np.empty_like(tau)
    nrf = np.empty_like(tau) if include_interference else None
    for lo in range(0, tau.size, _TAU_CHUNK):
        hi = min(lo + _TAU_CHUNK, tau.size)
        g = g_tau[lo:hi][:, None]
        z = g * g - xsq[None, :]
        s = _sinc_branch(z)
        v_tau_sq = (g * s) ** 2
        ped_sum = v_tau_sq @ coef
        pedestal[lo:hi] = 1.0 + ped_sum / denom
        if include_interference:
            osc = np.cos(2.0 * np.outer(tau[lo:hi], omega))
            nrf[lo:hi] = 1.0 + (ped_sum + osc @ interf_coef) / denom
    return pedestal, nrf


def nrf_and_pedestal(tau_grid, crystal: CrystalParams, pump: PumpParams, grid: SpectralGrid):
    """The variance trace and its pedestal, (nrf, pedestal), from one kernel
    pass: value for value those of :func:`nrf_trace` and :func:`pedestal_trace`."""
    ped, nrf = _trace_values(tau_grid, crystal, pump, grid, include_interference=True)
    return (
        Trace(tau=tau_grid, value=nrf, kind="nrf_ideal"),
        Trace(tau=tau_grid, value=ped, kind="nrf_pedestal"),
    )


def nrf_trace(tau_grid, crystal: CrystalParams, pump: PumpParams, grid: SpectralGrid) -> Trace:
    """Normalized variance of the photon-number difference versus delay."""
    return nrf_and_pedestal(tau_grid, crystal, pump, grid)[0]


def pedestal_trace(tau_grid, crystal: CrystalParams, pump: PumpParams, grid: SpectralGrid) -> Trace:
    """The classical envelope-correlation component: the interference term
    dropped.  The narrow quantum component is nrf - pedestal pointwise."""
    values, _ = _trace_values(tau_grid, crystal, pump, grid, include_interference=False)
    return Trace(
        tau=np.asarray(tau_grid, dtype=float),
        value=values,
        kind="nrf_pedestal",
    )


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
    if len(trace) == 0:
        raise ValidationError("empty trace")
    hi = float(np.max(trace.value))
    lo = float(np.min(trace.value))
    if hi + lo <= 0:
        raise ValidationError("degenerate trace: max + min <= 0")
    return (hi - lo) / (hi + lo)


def _fwhm(tau, comp) -> float:
    """FWHM of a peaked component by linear interpolation of the
    half-maximum crossings around the global maximum."""
    i_max = int(np.argmax(comp))
    peak = comp[i_max]
    if not (peak > 0):
        raise ValidationError("component has no positive maximum")
    half = 0.5 * peak

    j = i_max
    while j > 0 and comp[j - 1] >= half:
        j -= 1
    if j == 0 and comp[0] >= half:
        raise BracketingError("left half-maximum crossing not inside the tau grid")
    left = tau[j - 1] + (half - comp[j - 1]) * (tau[j] - tau[j - 1]) / (comp[j] - comp[j - 1])

    j = i_max
    n = len(comp)
    while j < n - 1 and comp[j + 1] >= half:
        j += 1
    if j == n - 1 and comp[n - 1] >= half:
        raise BracketingError("right half-maximum crossing not inside the tau grid")
    right = tau[j] + (half - comp[j]) * (tau[j + 1] - tau[j]) / (comp[j + 1] - comp[j])
    return float(right - left)


def _require_shared_grid(a: Trace, b: Trace):
    if len(a) != len(b) or not np.array_equal(a.tau, b.tau):
        raise ValidationError("traces must share the same tau grid")


def fwhm_narrow(nrf: Trace, pedestal: Trace) -> float:
    """FWHM (ps) of the narrow quantum component nrf - pedestal."""
    _require_shared_grid(nrf, pedestal)
    return _fwhm(nrf.tau, nrf.value - pedestal.value)


def fwhm_pedestal(pedestal: Trace) -> float:
    """FWHM (ps) of the pedestal elevation above the shot-noise baseline."""
    return _fwhm(pedestal.tau, pedestal.value - 1.0)


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


def fwhm_vs_gain(
    g_values,
    crystal: CrystalParams,
    pump_template: PumpParams,
    tau_max: float = 6.0,
    tau_step: float = 0.02,
):
    """Narrow-peak FWHM for each gain value, at fixed crystal calibration.

    Returns a list of (g, fwhm_ps) rows, one per input gain.
    """
    g_values = [float(g) for g in g_values]
    for g in g_values:
        if not (0.0 < g <= 12.0):
            raise ValidationError(f"gain {g} outside (0, 12]")
    half = np.arange(0.0, tau_max + tau_step / 2.0, tau_step)
    tau = np.concatenate([-half[:0:-1], half])
    rows = []
    for g in g_values:
        pump = PumpParams(
            g_peak=g,
            t_p=pump_template.t_p,
            lambda_deg=pump_template.lambda_deg,
            lambda_pump=pump_template.lambda_pump,
        )
        grid = default_grid(crystal, pump, tau_max)
        nrf, ped = nrf_and_pedestal(tau, crystal, pump, grid)
        rows.append((g, fwhm_narrow(nrf, ped)))
    return rows
