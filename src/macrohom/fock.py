"""Exact truncated-Fock-space reference for the Gaussian-model formulas.

The delayed-interference geometry at a single detuning involves the
mirrored pair of frequencies: beam 1 carries modes at +/-Omega that are
pair-squeezed with the opposite-sign modes of beam 2.  A delay puts
opposite phases exp(+/- i phi/2) on beam 1's two modes (phi = 2*Omega*tau),
and the 50:50 beamsplitter mixes equal frequencies.  A single two-mode
squeezed vacuum with a phase on one arm is blind to phi (the phase is
global on every |n,n> component), so the oracle works with the doubled
system: the tensor square of the ladder state.

Everything is expanded exactly in photon-number sectors.  Both splitters
share the sector total s = n + m, so the joint output amplitude is a sum
of outer products of beamsplitter matrices, and photon-number moments
follow by direct summation.

The splitter matrix of sector s is built from that of sector s - 1 by
splitting one photon off (the half-step D-function recursion of Risbo,
J. Geodesy 70, 1996, at the 50:50 angle): real arithmetic, O(s^2) per
sector, and orthogonal to 1e-13 at s = 800, because every step composes
the orthogonal one-photon splitter with weights <= 1.  The closed-form
binomial sums and the column recurrence, which divides by sqrt(n), both
lose all precision by s ~ 100-200.  The cached sectors hold sum (s+1)^2
float64 values, 35 MB up to g = 1.5; ``hom_stats`` refuses a state whose
sectors would exceed 2^27 values (gains above about 2.08).  Intended for
desk-scale gains (g <= 1.5 or so); the macroscopic regime belongs to the
Gaussian model this oracle validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

_ADEQUACY = 1e-10
_NORM_SLACK = 1e-8
# float64 values the cached splitter sectors may hold; the same cap as the
# Monte Carlo working set (montecarlo._MAX_FLOATS), 1 GiB
_MAX_FLOATS = 2**27


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


@lru_cache(maxsize=None)
def _bs_matrix(s: int) -> np.ndarray:
    """Fock matrix of the 50:50 splitter on the s-photon sector.

    B[k, n] = <k, s-k| BS |n, s-n> for the convention
    out1 = (in1 + in2)/sqrt(2), out2 = (-in1 + in2)/sqrt(2), i.e. the
    sector representation of exp(theta (a1+ a2 - a2+ a1)) at theta = pi/4.

    On the s-photon sector the splitter acts as U^(x s), and splitting one
    photon off, |k, s-k> = sqrt(k/s) |1>(x)|k-1, s-k> + sqrt((s-k)/s)
    |2>(x)|k, s-k-1>, gives

        B_s[k, n] = sum_{a,b} c_s(k, a) c_s(n, b) B_1[a, b] B_{s-1}[k-a, n-b]

    with c_s(k, 1) = sqrt(k/s) and c_s(k, 0) = sqrt((s-k)/s): four shifted,
    weighted copies of the previous sector, O(s^2) real work per sector.
    Each step composes the orthogonal one-photon splitter with the
    (s-1)-photon sector through an isometric embedding whose weights are
    <= 1, so rounding errors only add up, one ulp-sized term per step.
    Direct binomial sums cancel terms of size C(s, k), and the column
    recurrence divides by sqrt(n); both lose all precision by s ~ 100-200.
    Measured: ||B B^T - I||_max is at most 3.4e-14 for s <= 234 and
    1.1e-13 at s = 800, and B agrees with the eigendecomposition of the
    generator to 1.2e-14 for s <= 234.

    A cold call builds every missing sector in a loop, upwards from the
    highest cached one.  Sectors are only ever built in that order, so the
    cache holds exactly sectors 0 .. currsize - 1.
    """
    if s == 0:
        return np.ones((1, 1))
    for t in range(_bs_matrix.cache_info().currsize, s):
        _bs_matrix(t)  # each finds its predecessor cached: no deep recursion
    prev = _bs_matrix(s - 1)
    n = np.arange(s + 1, dtype=float)
    c0, c1 = np.sqrt((s - n[:s]) / s), np.sqrt(n[1:] / s)
    # rows: the split-off photon leaves in mode 2 (lo) or in mode 1 (hi)
    lo = np.zeros((s + 1, s))
    hi = np.zeros((s + 1, s))
    np.multiply(c0[:, None], prev, out=lo[:s])
    np.multiply(c1[:, None], prev, out=hi[1:])
    # columns: it entered in mode 2 or in mode 1; B_1 = [[1, -1], [1, 1]]/sqrt(2)
    b = np.zeros((s + 1, s + 1))
    np.multiply(hi + lo, c0 * math.sqrt(0.5), out=b[:, :s])
    hi -= lo
    hi *= c1 * math.sqrt(0.5)
    b[:, 1:] += hi
    return b


def _sector_floats(n_max: int) -> int:
    """float64 values in the splitter sectors 0 .. 2 n_max: sum of (s+1)^2."""
    top = 2 * n_max + 1
    return top * (top + 1) * (2 * top + 1) // 6


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
    c = state.amplitudes
    n_max = state.n_max
    half = 0.5 * phi
    floats = _sector_floats(n_max)
    if floats > _MAX_FLOATS:
        raise ValidationError(
            f"splitter sectors up to {2 * n_max} photons need {floats:.3g} float64 values, "
            f"above the cap of {_MAX_FLOATS}; gains up to {_largest_fitting_gain(_sector_floats)} fit"
        )

    # per sector s: the probability and the first two moments of beam 1's
    # output count K = k1 + k2 (its counts at the +Omega and -Omega
    # splitters), each weighted by the probability; beam 2 holds 2s - K
    moments = []
    for s in range(0, 2 * n_max + 1):
        n_lo = max(0, s - n_max)
        n_hi = min(s, n_max)
        ns = np.arange(n_lo, n_hi + 1)
        w = (c[ns] * c[s - ns]).astype(complex)
        w *= np.exp(1j * (2 * ns - s) * half)
        if not np.any(np.abs(w) > 1e-18):
            continue
        b = _bs_matrix(s)
        b1 = b[:, ns]  # splitter at +Omega: beam-1 occupation n
        b2 = b[:, s - ns]  # splitter at -Omega: beam-1 occupation m = s-n
        amp = (b1 * w[None, :]) @ b2.T
        p = np.abs(amp) ** 2
        k = np.arange(s + 1, dtype=float)
        marginals = p.sum(axis=1) + p.sum(axis=0)  # of k1 plus of k2
        moments.append((s, p.sum(), k @ marginals, (k * k) @ marginals + 2.0 * (k @ p @ k)))

    s, prob, e_k, e_k2 = np.array(moments).T
    if abs(prob.sum() - 1.0) > 1e-6:
        raise ValidationError(f"beamsplitter expansion lost probability: total {prob.sum()}")
    n = 2.0 * s  # photons in the sector: N1 = K, N2 = n - K
    e_n1, e_n2 = float(e_k.sum()), float(np.sum(n * prob - e_k))
    var_diff = float(np.sum(4.0 * e_k2 - 4.0 * n * e_k + n * n * prob)) - (e_n1 - e_n2) ** 2
    if e_n1 > 0 and e_n2 > 0:
        g2_cross = float(np.sum(n * e_k - e_k2)) / (e_n1 * e_n2)
    else:
        g2_cross = float("nan")
    return var_diff, e_n1 + e_n2, g2_cross


def nrf_single_mode(g: float, g_delayed: float, phi: float) -> float:
    """Closed-form normalized difference variance at a single detuning.

    1 + sinh^2(g_delayed) + cos(phi) cosh^2(g): the envelope-decayed pair
    term plus the phase-sensitive interference term.
    """
    return 1.0 + math.sinh(g_delayed) ** 2 + math.cos(phi) * math.cosh(g) ** 2
