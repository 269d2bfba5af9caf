"""Exact truncated-Fock-space reference for the Gaussian-model formulas.

The delayed-interference geometry at a single detuning involves the
mirrored pair of frequencies: beam 1 carries modes at +/-Omega that are
pair-squeezed with the opposite-sign modes of beam 2.  A delay puts
opposite phases exp(+/- i phi/2) on beam 1's two modes (phi = 2*Omega*tau),
and the 50:50 beamsplitter mixes equal frequencies.  A single two-mode
squeezed vacuum with a phase on one arm is blind to phi (the phase is
global on every |n,n> component), so the oracle works with the doubled
system: the tensor square of the ladder state.

Both splitters see the same photon-number sector s = n + m, with n and m
beam 1's photons at +Omega and -Omega.  The moments follow in the
Heisenberg picture (Campos, Saleh & Teich, Phys. Rev. A 40, 1371, 1989):
on the s-photon sector, in the input basis |n, s-n>, beam 1's output count
of one splitter is the tridiagonal operator T_s = B_s^T diag(k) B_s, with
diagonal s/2 and off-diagonal 1/2 sqrt((n+1)(s-n)).  Beam 1's total count
K = k1 + k2 is T_s (x) 1 + 1 (x) T_s, so <K> and <K^2> are sums over the
(n, m) ladder grid of the phased amplitudes and T_s's entries; no splitter
matrix is built.  The pass holds 5 (n_max + 1)^2 float64 values at once,
0.56 MB at g = 1.5; ``hom_stats`` refuses a state whose pass would exceed
2^27 values (gains above 3.401).  Intended for desk-scale gains (g <= 1.5
or so); the macroscopic regime belongs to the Gaussian model this oracle
validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .params import _MAX_FLOATS

_ADEQUACY = 1e-10
_NORM_SLACK = 1e-8


@dataclass(frozen=True)
class TmsvState:
    """Two-mode squeezed vacuum on the |n,n> ladder, truncated at n_max."""

    amplitudes: np.ndarray

    @property
    def n_max(self) -> int:
        """Truncation depth: the largest photon number on the ladder."""
        return self.amplitudes.size - 1


def default_n_max(g: float) -> int:
    """Truncation depth: generous photon-number head room plus the
    explicit adequacy requirement tanh(g)^(2 n) < 1e-10."""
    if g == 0.0:
        return 32
    th = math.tanh(g)
    if not 0.0 < th < 1.0:  # NaN, or tanh rounded to 1 (g above about 19) where log(th) = 0
        raise ValidationError(f"no truncation depth gives tanh(g)^(2 n) < {_ADEQUACY} at gain {g}")
    n_adequate = int(math.ceil(math.log(_ADEQUACY) / (2.0 * math.log(th)))) + 1
    return max(32, int(math.ceil(12.0 * math.sinh(g) ** 2)), n_adequate)


def tmsv(g: float) -> TmsvState:
    """Two-mode squeezed vacuum with gain g, amplitudes tanh^n(g)/cosh(g),
    truncated at :func:`default_n_max`.  Refuses, before it allocates, a
    ladder of more than ``_MAX_FLOATS`` values (gains above 8.482)."""
    if not g >= 0:  # NaN fails too
        raise ValidationError(f"gain must be >= 0, got {g}")
    th = math.tanh(g)
    n_max = default_n_max(g) if th < 1.0 else math.inf
    if n_max + 1 > _MAX_FLOATS:
        raise ValidationError(
            f"the |n,n> ladder at gain {g} needs more than {_MAX_FLOATS} float64 values; "
            f"gains up to {_largest_fitting_gain(lambda top: top + 1)} fit"
        )
    if th > 0 and th ** (2 * n_max) >= _ADEQUACY:
        raise ValidationError(
            f"n_max={n_max} inadequate for g={g}: tanh^(2 n_max) = {th ** (2 * n_max):.3e}"
        )
    # built in place: the ladder is the only array of its size held
    amps = np.arange(n_max + 1, dtype=float)
    np.power(th, amps, out=amps)
    amps /= math.cosh(g)
    norm = float(np.dot(amps, amps))
    if norm < 1.0 - _NORM_SLACK:
        raise ValidationError(f"truncated norm {norm} below 1 - {_NORM_SLACK}")
    return TmsvState(amplitudes=amps)


def _hop(n, s):
    """Off-diagonal T_s[n, n+1] of beam 1's output count on the s-photon
    sector, in the input basis |n, s-n>: 1/2 sqrt((n+1)(s-n)).

    Behind the 50:50 splitter out1 = (in1 + in2)/sqrt(2), so
    k = (a1+ a1 + a2+ a2 + a1+ a2 + a2+ a1)/2: the diagonal is s/2 and the
    cross terms move one photon between the inputs.
    """
    return 0.5 * np.sqrt((n + 1.0) * (s - n))


def _grid_floats(n_max: int) -> int:
    """float64 values the (n, m) grid pass of ``hom_stats`` holds at once,
    five per grid point: the complex amplitudes count two, and once they
    are freed at most five real grids are alive."""
    return 5 * (n_max + 1) ** 2


def _largest_fitting_gain(floats) -> float:
    """The largest gain, in steps of 0.001, whose default truncation n_max
    keeps ``floats(n_max)`` within ``_MAX_FLOATS``."""
    milli = 0
    while floats(default_n_max((milli + 1) / 1000)) <= _MAX_FLOATS:
        milli += 1
    return milli / 1000


def hom_stats(state: TmsvState, phi: float):
    """Delay-phase interference statistics of the doubled twin-pair system.

    Applies exp(+i phi/2) / exp(-i phi/2) to beam 1's mirrored modes, mixes
    equal frequencies on 50:50 splitters, and sums output photon-number
    moments exactly.  Returns (var_diff, n_total, g2_cross) where
    var_diff = Var(N1 - N2), n_total = <N1 + N2> and g2_cross is the
    cross-correlation of the two outputs.  For vacuum input g2_cross is
    undefined and returned as nan.
    """
    if not math.isfinite(phi):
        raise ValidationError(f"delay phase phi must be finite, got {phi}")
    c = state.amplitudes
    n_max = state.n_max
    floats = _grid_floats(n_max)
    if floats > _MAX_FLOATS:
        raise ValidationError(
            f"the {n_max + 1} x {n_max + 1} ladder grid needs {floats:.3g} float64 values, "
            f"above the cap of {_MAX_FLOATS}; gains up to {_largest_fitting_gain(_grid_floats)} fit"
        )

    # w[n, m] = c_n c_m exp(i (n - m) phi/2): beam 1 holds n photons at
    # +Omega and m at -Omega, both splitters see the sector s = n + m
    idx = np.arange(n_max + 1.0)
    a = c * np.exp(0.5j * phi * idx)
    w = np.multiply.outer(a, a.conj())
    # Re(w*[n, m] w[n+1, m-1]): the pair hop both splitters' T_s make together
    cross = w.real[:-1, 1:] * w.real[1:, :-1]
    cross += w.imag[:-1, 1:] * w.imag[1:, :-1]
    p = np.abs(w)
    del w
    p *= p
    n, m = idx[:, None], idx[None, :]
    s = n + m
    prob = float(p.sum())
    if abs(prob - 1.0) > 1e-6:
        raise ValidationError(f"ladder-grid expansion lost probability: total {prob}")

    # K = k1 + k2 is T_s (x) 1 + 1 (x) T_s, and T_s's diagonal s/2 gives
    # <K> = s on each grid point.  <(K - s)^2> collects the squared hops in
    # (T_s^2)[n, n] and (T_s^2)[m, m], and the pair hop n -> n+1 at +Omega
    # with m -> m-1 at -Omega, the only term the phase reaches
    fluct = 0.0
    for j in (n - 1.0, n, m - 1.0, m):
        fluct += float(np.vdot(p, _hop(j, s) ** 2))
    cross *= _hop(n[:-1], s[:-1, 1:])
    cross *= _hop(m[:, 1:] - 1.0, s[:-1, 1:])
    fluct += 4.0 * float(cross.sum())
    del cross
    p *= s
    e_k = float(p.sum())
    e_ss = float(np.vdot(p, s))  # <s^2> = <s K>
    # N1 = K and N2 = 2 s - K: Var(N1 - N2) = 4 <(K - s)^2>, and the cross
    # moment <N1 N2> = 2 <s K> - <K^2> = <s^2> - fluct
    var_diff = 4.0 * fluct
    if e_k > 0:
        g2_cross = (e_ss - fluct) / (e_k * e_k)
    else:
        g2_cross = float("nan")
    return var_diff, 2.0 * e_k, g2_cross


def nrf_single_mode(g: float, g_delayed: float, phi: float) -> float:
    """Closed-form normalized difference variance at a single detuning.

    1 + sinh^2(g_delayed) + cos(phi) cosh^2(g): the envelope-decayed pair
    term plus the phase-sensitive interference term.
    """
    return 1.0 + math.sinh(g_delayed) ** 2 + math.cos(phi) * math.cosh(g) ** 2
