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
diagonal s/2 and off-diagonal 1/2 sqrt((n+1)(s-n)): behind the splitter
out1 = (in1 + in2)/sqrt(2), so k = (a1+ a1 + a2+ a2 + a1+ a2 + a2+ a1)/2,
whose cross terms move one photon between the inputs.  Beam 1's total count
K = k1 + k2 is T_s (x) 1 + 1 (x) T_s.  At the ladder point (n, m) both
hops T_s makes are 1/2 sqrt((n+1) m) and 1/2 sqrt(n (m+1)): s drops out,
and with it every coupling between n and m except the weight
|c_n|^2 |c_m|^2, which factorises.  Each moment of K is therefore built
from four ladder moments, M_k = sum n^k |c_n|^2 (k = 0, 1, 2) and
H = sum (n+1) c_n conj(c_{n+1}), and the oracle's memory is one
ladder-sized temporary beside the state.  ``tmsv`` counts both against
the memory cap, the oracle's only one (gains above 8.135 are refused).
Intended for desk-scale gains; the macroscopic regime belongs to the
Gaussian model this oracle validates.
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
    """Truncation depth: at least 32, and the adequacy requirement
    tanh(g)^(2 n) < 1e-10.  That requirement alone leaves photon-number
    head room: -ln tanh g <= 1/(e^g sinh g), so its depth is at least
    11.5 e^g sinh g > 23 sinh^2 g, above 12 times the mean photon number."""
    if g == 0.0:
        return 32
    th = math.tanh(g)
    if not 0.0 < th < 1.0:  # NaN, or tanh rounded to 1 (g above about 19) where log(th) = 0
        raise ValidationError(f"no truncation depth gives tanh(g)^(2 n) < {_ADEQUACY} at gain {g}")
    n_adequate = int(math.ceil(math.log(_ADEQUACY) / (2.0 * math.log(th)))) + 1
    return max(32, n_adequate)


def tmsv(g: float) -> TmsvState:
    """Two-mode squeezed vacuum with gain g, amplitudes tanh^n(g)/cosh(g),
    truncated at :func:`default_n_max`.  Refuses, before it allocates, a
    ladder whose two copies, the state and the temporary of
    :func:`hom_stats`, exceed ``_MAX_FLOATS`` values (gains above 8.135)."""
    if not g >= 0:  # NaN fails too
        raise ValidationError(f"gain must be >= 0, got {g}")
    th = math.tanh(g)
    n_max = default_n_max(g) if th < 1.0 else math.inf
    if 2 * (n_max + 1) > _MAX_FLOATS:
        raise ValidationError(
            f"the |n,n> ladder at gain {g} and its one temporary need more than "
            f"{_MAX_FLOATS} float64 values; gains up to {_largest_fitting_gain()} fit"
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


def _largest_fitting_gain() -> float:
    """The largest gain, in steps of 0.001, whose default truncation n_max
    keeps the ladder and its one temporary, 2 (n_max + 1) values, within
    ``_MAX_FLOATS``."""
    milli = 0
    while 2 * (default_n_max((milli + 1) / 1000) + 1) <= _MAX_FLOATS:
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

    The doubled state puts c_n c_m exp(i (n - m) phi/2) on the ladder point
    (n, m), and T_s's diagonal s/2 gives <K> = s there.  <(K - s)^2> collects
    the squared hops of both splitters, (n+1) m/4 + n (m+1)/4 each, which
    sum to n m + (n + m)/2, and the pair hop n -> n+1 at +Omega with
    m -> m-1 at -Omega, the only term the phase reaches:

        fluct = M1 (M0 + M1) + |H|^2 cos(phi)

    N1 = K and N2 = 2 s - K, so Var(N1 - N2) = 4 fluct, <N1 + N2> = 4 M0 M1
    and the cross moment <N1 N2> = <s^2> - fluct = 2 (M0 M2 + M1^2) - fluct.
    The total probability is M0^2.  Memory is one temporary the size of
    the state's ladder.
    """
    if not math.isfinite(phi):
        raise ValidationError(f"delay phase phi must be finite, got {phi}")
    c = state.amplitudes
    # t = n c, formed in place: the only array of the ladder's size
    t = np.arange(c.size, dtype=np.result_type(c, float))
    t *= c
    m0 = np.vdot(c, c).real
    m1 = np.vdot(c, t).real
    m2 = np.vdot(t, t).real
    h = np.vdot(t[1:], c[:-1])  # sum (n+1) c_n conj(c_{n+1})
    prob = float(m0 * m0)
    if abs(prob - 1.0) > 1e-6:
        raise ValidationError(f"ladder moments lost probability: total {prob}")
    fluct = float(m1 * (m0 + m1) + abs(h) ** 2 * math.cos(phi))
    e_k = 2.0 * float(m0 * m1)  # <K> = <s>
    if e_k > 0:
        g2_cross = (2.0 * float(m0 * m2 + m1 * m1) - fluct) / (e_k * e_k)
    else:
        g2_cross = float("nan")
    return 4.0 * fluct, 2.0 * e_k, g2_cross


def nrf_single_mode(g: float, g_delayed: float, phi: float) -> float:
    """Closed-form normalized difference variance at a single detuning.

    1 + sinh^2(g_delayed) + cos(phi) cosh^2(g): the envelope-decayed pair
    term plus the phase-sensitive interference term.
    """
    return 1.0 + math.sinh(g_delayed) ** 2 + math.cos(phi) * math.cosh(g) ** 2
