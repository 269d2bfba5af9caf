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
follow by direct summation.  Memory peaks at O(n_max^2) complex numbers
per sector.  Intended for desk-scale gains (g <= 1.5 or so); the
macroscopic regime belongs to the Gaussian model this oracle validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ValidationError

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
    n_adequate = int(math.ceil(math.log(_ADEQUACY) / (2.0 * math.log(th)))) + 1
    return max(32, int(math.ceil(12.0 * math.sinh(g) ** 2)), n_adequate)


def tmsv(g: float) -> TmsvState:
    """Two-mode squeezed vacuum with gain g, amplitudes tanh^n(g)/cosh(g),
    truncated at :func:`default_n_max`."""
    if g < 0:
        raise ValidationError(f"gain must be >= 0, got {g}")
    n_max = default_n_max(g)
    th = math.tanh(g)
    if th > 0 and th ** (2 * n_max) >= _ADEQUACY:
        raise ValidationError(
            f"n_max={n_max} inadequate for g={g}: tanh^(2 n_max) = {th ** (2 * n_max):.3e}"
        )
    n = np.arange(n_max + 1)
    amps = th**n / math.cosh(g)
    norm = float(np.sum(amps**2))
    if norm < 1.0 - _NORM_SLACK:
        raise ValidationError(f"truncated norm {norm} below 1 - {_NORM_SLACK}")
    return TmsvState(amplitudes=amps)


@lru_cache(maxsize=None)
def _bs_matrix(s: int) -> np.ndarray:
    """Fock matrix of the 50:50 splitter on the s-photon sector.

    B[k, n] = <k, s-k| BS |n, s-n> for the convention
    out1 = (in1 + in2)/sqrt(2), out2 = (-in1 + in2)/sqrt(2), i.e. the
    sector representation of exp(theta (a1+ a2 - a2+ a1)) at theta = pi/4.

    Built from the eigendecomposition of the (gauge-rotated, real
    symmetric tridiagonal) generator.  Direct binomial sums and column
    recurrences both lose all precision by s ~ 100-200; this route keeps
    the matrix orthogonal to near machine precision at any sector size.
    """
    if s == 0:
        return np.ones((1, 1))
    n = np.arange(s, dtype=float)
    off = -np.sqrt((n + 1.0) * (s - n))
    lam, vec = eigh_tridiagonal(np.zeros(s + 1), off)
    phase = (1j) ** np.arange(s + 1)
    m = vec * np.exp(-1j * (math.pi / 4.0) * lam)[None, :]
    b = np.conj(phase)[:, None] * (m @ vec.T) * phase[None, :]
    return np.ascontiguousarray(b.real)


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
