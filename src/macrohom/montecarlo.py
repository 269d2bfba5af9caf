"""Monte-Carlo simulation of the pulsed twin-beam measurement.

Every pulse is built from independent four-mode clusters, one per
(frequency bin, spatial mode): the mirrored pair of squeezed twin modes
at detunings +/-Omega.  Amplitudes are drawn in the Wigner representation
(symmetric-ordered Gaussian, <|alpha|^2> = 1/2 at the vacuum inputs),
pushed through the Bogoliubov map, the delay, the loss channel and the
50:50 splitter, and converted to photon numbers with the |alpha|^2 - 1/2
ordering correction.  Detunings are stratified over the lattice bins
with a uniform jitter inside each bin, which makes every ensemble
average an unbiased estimate of the corresponding detuning integral at
any delay (no aliasing of the exp(2 i Omega tau) phase).

The delay enters twice, exactly as in the quadrature model:

* an intra-bin phase exp(+/- i Omega tau) on the delayed beam's modes;
* the envelope overlap: the delayed beam is split into a "window"
  component that interferes with the reference beam, with amplitude
  ratio r = v(Omega, tau)/v(Omega, 0), and an orthogonal complement that
  reaches the detectors without a partner.  This reproduces the
  gain-at-shifted-pump-time convention of the trace module pointwise
  (the interference term acquires the physical r^2 envelope factor,
  negligible inside the narrow peak).

The mirrored pair's squeezing phase is compensated so that the
interference term carries Re(u^2) cos(2 Omega tau), matching the even
(walk-off compensated) convention of the trace module.

The sampler applies the uniform detection loss eta before the 50:50
splitter and the window/complement rotation instead of after them.  Both
are passive unitaries, which map i.i.d. vacuum onto i.i.d. vacuum, so
the detected modes keep their joint distribution; the window and
complement vacua stay vacua under the loss, so only the four twin modes
draw loss vacua.  That leaves 14 complex vacuum inputs, 28 real normals,
per cluster.  The detector modes are never formed: for each splitter
input pair (x, y)

    S1 + S2 = sum |x|^2 + |y|^2 - 1/2 per mode,   S1 - S2 = 2 sum Re(x y*),

reduced per pulse in real arithmetic.  :func:`expected_stats` keeps the
loss after the splitters, so it checks this equivalence independently.

Per-pulse signals are summed over all cells; the ensemble estimators and
their jackknife standard errors follow the measured definitions
NRF = Var(S1 - S2)/<S1 + S2> and g2 = <S1 S2>/(<S1><S2>).

Reproducibility: draws come from counter-based Philox streams keyed by
(seed, chunk index) over fixed-size pulse chunks, so results are
bit-identical for a given seed regardless of scheduling; scan points
derive child seeds from (seed, point index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gain import _cosh_branch, _sinc_branch, gain_at, omega_max_for
from .params import CrystalParams, DetectionModel, PumpParams, SpectralGrid

_CHUNK = 256  # pulses per RNG stream; fixed so reruns are bit-identical
_N_NORMALS = 28  # real normals per cluster: 14 complex vacuum inputs
_BLOCK = 16384  # clusters per arithmetic block, sized to stay in cache


@dataclass(frozen=True)
class LatticeSpec:
    """Discretization of the pulsed broadband field.

    ``slice_duration`` approximates one coherence time (the inverse
    spectral width); the time window must cover +/- 3 sigma of the pump
    field envelope.  ``n_freq_bins`` bins of ``bin_width`` tile the
    detuning axis up to the spectral tail cutoff.
    """

    n_time_slices: int
    n_freq_bins: int
    slice_duration: float  # ps
    bin_width: float  # rad/ps

    def __post_init__(self):
        if self.n_time_slices < 1 or self.n_freq_bins < 1:
            raise ValidationError("lattice must have at least one cell")
        if not (self.slice_duration > 0 and self.bin_width > 0):
            raise ValidationError("lattice cell sizes must be > 0")

    @property
    def time_span(self) -> float:
        return self.n_time_slices * self.slice_duration

    @property
    def omega_max(self) -> float:
        return self.n_freq_bins * self.bin_width

    @classmethod
    def default(
        cls,
        crystal: CrystalParams,
        pump: PumpParams,
        n_freq_bins: int = 64,
    ) -> "LatticeSpec":
        """Reference-configuration lattice: slice = one coherence time, bins
        tiling the spectrum up to the tail cutoff, window >= 6 sigma."""
        from .gain import spectral_fwhm_nm
        from .params import C_NM_PER_PS

        omega_max = omega_max_for(crystal, pump)
        fwhm_nm = spectral_fwhm_nm(crystal, pump)
        fwhm_rad = fwhm_nm * 2.0 * math.pi * C_NM_PER_PS / pump.lambda_deg**2
        slice_duration = 1.0 / fwhm_rad
        n_slices = int(math.ceil(6.0 * pump.sigma_a / slice_duration))
        lattice = cls(
            n_time_slices=n_slices,
            n_freq_bins=int(n_freq_bins),
            slice_duration=slice_duration,
            bin_width=omega_max / n_freq_bins,
        )
        lattice.validate_against(pump)
        return lattice

    def validate_against(self, pump: PumpParams):
        if self.time_span < 6.0 * pump.sigma_a:
            raise ValidationError(
                f"lattice time span {self.time_span} ps does not cover "
                f"6 sigma = {6.0 * pump.sigma_a} ps of the pump envelope"
            )


@dataclass(frozen=True)
class EnsembleStats:
    """Per-pulse twin-signal statistics over one ensemble."""

    mean_s1: float
    mean_s2: float
    nrf_hat: float
    g2_hat: float
    se_nrf: float
    se_g2: float
    n_pulses: int
    degenerate: bool = False


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for scan point ``index``."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1, np.uint64)[0])


def _pair_coefficients(omega, tau: float, crystal: CrystalParams, pump: PumpParams):
    """Per-cluster coefficients shared by the sampler and its Wick moments.

    Returns (u0, v0, r, uc, vc, tc): the +Omega pair Bogoliubov pair
    (u0, v0); the window amplitude ratio r; and the compensated -Omega
    pair construction (uc, vc) plus its thermal top-up tc chosen so that
    <a1- a2+> = v0 Re(u0^2)/u0*, which makes the interference term carry
    exactly Re(u0^2) cos(2 Omega tau) while keeping both occupations at
    v0^2.
    """
    g0 = float(gain_at(0.0, pump))
    gt = float(gain_at(tau, pump))
    x = 0.5 * crystal.walkoff_slope * omega * crystal.length_mm
    xsq = x * x
    z0 = g0 * g0 - xsq
    s0 = _sinc_branch(z0)
    u0 = _cosh_branch(z0) + 1j * x * s0
    v0 = np.abs(g0 * s0)
    vt = np.abs(gt * _sinc_branch(gt * gt - xsq))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(v0 > 0, np.minimum(vt / np.where(v0 > 0, v0, 1.0), 1.0), 1.0)

    n = v0 * v0
    re_u2 = u0.real**2 - u0.imag**2
    mu_c = v0 * re_u2 / np.conj(u0)
    abs_mu = np.abs(mu_c)
    vc = np.sqrt(abs_mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        uc = np.where(abs_mu > 0, mu_c / np.where(abs_mu > 0, vc, 1.0), 0.0)
    tc = np.sqrt(np.maximum(2.0 * n + 1.0 - 2.0 * abs_mu, 0.0))
    return u0, v0, r, uc, vc, tc


def _chunk_signals(omega, tau, crystal, pump, eta, rng):
    """Sample one chunk of pulses; return per-pulse (S1 + S2, S1 - S2).

    ``omega`` holds the (pulse, cluster) detunings.  Each cluster draws
    14 complex vacuum inputs as 28 real unit normals, all in one block
    per chunk; the optics then runs over blocks of pulses small enough
    to stay in cache.
    """
    normals = rng.standard_normal((_N_NORMALS,) + omega.shape)
    npc = omega.shape[0]
    step = max(1, _BLOCK // omega.shape[1])
    total = np.empty(npc)
    diff = np.empty(npc)
    for lo in range(0, npc, step):
        rows = slice(lo, lo + step)
        total[rows], diff[rows] = _block_signals(
            omega[rows], normals[:, rows], tau, crystal, pump, eta
        )
    return total, diff


def _block_signals(omega, normals, tau, crystal, pump, eta):
    """Per-pulse (S1 + S2, S1 - S2) from each cluster's ``normals``.

    Rows of ``normals`` come in (re, im) pairs: z1p, z2m, z1m, z2p (pair
    vacua), y1m, y2p (pair-C top-up), the loss vacua of the four twin
    modes, h+, h- (window) and v+, v- (complement).  Amplitudes are
    carried at twice their Wigner scale, so each vacuum input is a + ib
    with unit-normal a, b.
    """
    u0, v0, r, uc, vc, tc = _pair_coefficients(omega, tau, crystal, pump)

    # the uniform loss acts before the splitter and the window rotation:
    # both are passive, so they carry i.i.d. loss vacua to i.i.d. vacua
    # and the h, v inputs absorb them.  Only the relative delay phase
    # exp(2 i Omega tau) of the +Omega and -Omega pairs is observable, so
    # a phase rotation of each pair's independent inputs moves all of it
    # onto the delayed -Omega mode.
    amp = math.sqrt(eta)
    ku_r, ku_i, kv = amp * u0.real, amp * u0.imag, amp * v0
    cu_r, cu_i, cv, ct = amp * uc.real, amp * uc.imag, amp * vc, amp * tc
    ph_c, ph_s = np.cos(2.0 * tau * omega), np.sin(2.0 * tau * omega)
    pu_r = ph_c * cu_r + ph_s * cu_i  # exp(-2 i Omega tau) uc
    pu_i = ph_c * cu_i - ph_s * cu_r
    pv_r, pv_i = ph_c * cv, -ph_s * cv  # exp(-2 i Omega tau) vc

    z1p_r, z1p_i, z2m_r, z2m_i, z1m_r, z1m_i, z2p_r, z2p_i = normals[:8]
    y1m_r, y1m_i, y2p_r, y2p_i = normals[8:12]
    # rows: the delayed beam's +Omega and -Omega modes, then their splitter
    # partners a2+ and a2-; the loss vacua rows come in the same order
    xy = np.multiply(normals[12:20], math.sqrt(1.0 - eta))
    xy[0] += ku_r * z1p_r - ku_i * z1p_i + kv * z2m_r
    xy[1] += ku_i * z1p_r + ku_r * z1p_i - kv * z2m_i
    xy[2] += pu_r * z1m_r - pu_i * z1m_i + pv_r * z2p_r + pv_i * z2p_i + ct * y1m_r
    xy[3] += pu_i * z1m_r + pu_r * z1m_i + pv_i * z2p_r - pv_r * z2p_i + ct * y1m_i
    xy[4] += cu_r * z2p_r - cu_i * z2p_i + cv * z1m_r + ct * y2p_r
    xy[5] += cu_i * z2p_r + cu_r * z2p_i - cv * z1m_i + ct * y2p_i
    xy[6] += ku_r * z2m_r - ku_i * z2m_i + kv * z1p_r
    xy[7] += ku_i * z2m_r + ku_r * z2m_i - kv * z1p_i

    # splitter input pairs (w, a2) and (c, v), with window w = r x + s h
    # and complement c = r h - s x of each delayed mode x.  Per delayed
    # mode S1 - S2 = 2 Re(w a2* + c v*) and S1 + S2 = |w|^2 + |a2|^2 +
    # |c|^2 + |v|^2 - 2, where |w|^2 + |c|^2 = |x|^2 + |h|^2.
    x, y = xy[:4], xy[4:]
    hv = normals[20:]
    h, v = hv[:4], hv[4:]
    s = np.sqrt(1.0 - r * r)
    norm = np.einsum("rpc,rpc->p", xy, xy) + np.einsum("rpc,rpc->p", hv, hv)
    cross = (
        np.einsum("pc,rpc,rpc->p", r, x, y)
        + np.einsum("pc,rpc,rpc->p", r, h, v)
        + np.einsum("pc,rpc,rpc->p", s, h, y)
        - np.einsum("pc,rpc,rpc->p", s, x, v)
    )
    return 0.25 * norm - 4.0 * omega.shape[1], 0.5 * cross


def simulate_ensemble(
    crystal: CrystalParams,
    pump: PumpParams,
    det: DetectionModel,
    lattice: LatticeSpec,
    tau: float,
    seed: int,
) -> EnsembleStats:
    """Simulate ``det.n_pulses`` pulses at a single delay and form the
    twin-signal estimators with jackknife standard errors."""
    lattice.validate_against(pump)
    if abs(tau) > lattice.time_span:
        raise ValidationError(
            f"delay {tau} ps outside the lattice time span {lattice.time_span} ps"
        )

    n_pulses = det.n_pulses
    m = det.m_modes
    k = lattice.n_freq_bins
    dw = lattice.bin_width
    bins = np.arange(k, dtype=float)

    s1 = np.empty(n_pulses)
    s2 = np.empty(n_pulses)
    noise_amp = math.sqrt(det.noise_var)

    for chunk_idx, lo in enumerate(range(0, n_pulses, _CHUNK)):
        hi = min(lo + _CHUNK, n_pulses)
        npc = hi - lo
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, chunk_idx], dtype=np.uint64))
        )
        jitter = rng.random((npc, m, k))
        omega = ((bins + jitter) * dw).reshape(npc, m * k)
        total, diff = _chunk_signals(omega, tau, crystal, pump, det.eta, rng)
        s1[lo:hi] = 0.5 * (total + diff)
        s2[lo:hi] = 0.5 * (total - diff)
        if noise_amp > 0:
            s1[lo:hi] += noise_amp * rng.standard_normal(npc)
            s2[lo:hi] += noise_amp * rng.standard_normal(npc)

    return _estimate(s1, s2)


def _estimate(s1, s2) -> EnsembleStats:
    n = s1.size
    mean1 = float(np.mean(s1))
    mean2 = float(np.mean(s2))
    denom = mean1 + mean2
    d = s1 - s2

    if not (denom > 0) or not (mean1 > 0 and mean2 > 0):
        # vacuum input (or noise-dominated zero mean): shot-noise ratio is
        # 0/0; report the physical limit and flag it
        return EnsembleStats(
            mean_s1=mean1,
            mean_s2=mean2,
            nrf_hat=1.0,
            g2_hat=float("nan"),
            se_nrf=float("nan"),
            se_g2=float("nan"),
            n_pulses=n,
            degenerate=True,
        )

    sum_d = float(np.sum(d))
    sum_d2 = float(np.sum(d * d))
    sum_t = float(np.sum(s1 + s2))
    var_d = (sum_d2 - sum_d**2 / n) / (n - 1)
    nrf_hat = var_d / (sum_t / n)

    sum_1 = float(np.sum(s1))
    sum_2 = float(np.sum(s2))
    sum_12 = float(np.sum(s1 * s2))
    g2_hat = (sum_12 / n) / ((sum_1 / n) * (sum_2 / n))

    # delete-one jackknife, vectorized through the running totals
    nm1 = n - 1
    var_i = (sum_d2 - d * d - (sum_d - d) ** 2 / nm1) / (nm1 - 1)
    mean_t_i = (sum_t - (s1 + s2)) / nm1
    theta_nrf = var_i / mean_t_i
    se_nrf = math.sqrt(nm1 / n * float(np.sum((theta_nrf - np.mean(theta_nrf)) ** 2)))

    theta_g2 = nm1 * (sum_12 - s1 * s2) / ((sum_1 - s1) * (sum_2 - s2))
    se_g2 = math.sqrt(nm1 / n * float(np.sum((theta_g2 - np.mean(theta_g2)) ** 2)))

    return EnsembleStats(
        mean_s1=mean1,
        mean_s2=mean2,
        nrf_hat=float(nrf_hat),
        g2_hat=float(g2_hat),
        se_nrf=se_nrf,
        se_g2=se_g2,
        n_pulses=n,
    )


def dip_scan(
    crystal: CrystalParams,
    pump: PumpParams,
    det: DetectionModel,
    lattice: LatticeSpec,
    tau_grid,
    seed: int,
):
    """One ensemble per delay, with child seeds derived from (seed, index)."""
    out = []
    for idx, tau in enumerate(np.asarray(tau_grid, dtype=float)):
        out.append(
            simulate_ensemble(crystal, pump, det, lattice, float(tau), derive_seed(seed, idx))
        )
    return out


def expected_stats(
    crystal: CrystalParams,
    pump: PumpParams,
    det: DetectionModel,
    lattice: LatticeSpec,
    tau: float,
    quad_per_bin: int = 64,
):
    """Exact Wick moments of the sampled ensemble at delay ``tau``.

    Returns (mean_s1, nrf, g2): the values the estimators of
    :func:`simulate_ensemble` converge to.  Computed from the same
    per-cluster linear construction, via the complex-Gaussian moment
    identity Cov(|p|^2, |q|^2) = |<p q*>|^2 + |<p q>|^2, integrated over
    the jittered detuning distribution (uniform within each lattice bin).
    The bin jitter also makes each cluster's conditional mean a shared
    random variable of both detectors; that common-mode variance adds to
    the cross covariance (and cancels exactly in the difference signal).
    """
    k = lattice.n_freq_bins
    dw = lattice.bin_width
    x_gl, w_gl = np.polynomial.legendre.leggauss(quad_per_bin)
    # nodes within each bin, weights normalized to a probability density
    centers = (np.arange(k) + 0.5) * dw
    omega = centers[:, None] + 0.5 * dw * x_gl[None, :]  # (k, q)
    weights = np.broadcast_to(0.5 * w_gl[None, :], omega.shape)  # sums to 1 per bin

    u0, v0, r, uc, vc, tc = _pair_coefficients(omega, tau, crystal, pump)
    eta = det.eta
    phase = np.exp(1j * omega * tau)
    s = np.sqrt(1.0 - r * r)
    isq2 = 1.0 / math.sqrt(2.0)
    one = np.ones_like(r)

    # linear map from the 10 cluster inputs (z1p, z2m, z1m, z2p, y1m, y2p,
    # h+, h-, v+, v-) and their conjugates onto the 8 pre-loss modes; a
    # part (idx, conj, val) contributes val * zeta_idx or val * conj(zeta)
    a1p = [(0, False, u0), (1, True, v0)]
    a2m = [(1, False, u0), (0, True, v0)]
    a1m = [(2, False, uc), (3, True, vc), (4, False, tc)]
    a2p = [(3, False, uc), (2, True, vc), (5, False, tc)]

    def scaled(parts, factor):
        return [(idx, cj, val * factor) for idx, cj, val in parts]

    w_p = scaled(a1p, r * phase) + [(6, False, s)]
    c_p = scaled(a1p, -s * phase) + [(6, False, r)]
    w_m = scaled(a1m, r * np.conj(phase)) + [(7, False, s)]
    c_m = scaled(a1m, -s * np.conj(phase)) + [(7, False, r)]
    v_p = [(8, False, one)]
    v_m = [(9, False, one)]

    def combine(a_parts, b_parts, sign_a):
        return scaled(a_parts, sign_a * isq2) + scaled(b_parts, isq2)

    modes = [
        combine(w_p, a2p, 1.0),
        combine(w_m, a2m, 1.0),
        combine(c_p, v_p, 1.0),
        combine(c_m, v_m, 1.0),
        combine(w_p, a2p, -1.0),
        combine(w_m, a2m, -1.0),
        combine(c_p, v_p, -1.0),
        combine(c_m, v_m, -1.0),
    ]
    n_in = 10
    coeff = np.zeros((8, 2 * n_in) + omega.shape, dtype=complex)
    for mode_idx, parts in enumerate(modes):
        for idx, cj, val in parts:
            coeff[mode_idx, idx + (n_in if cj else 0)] += val

    # input second moments: <zeta zeta+> = I/2, <zeta zeta^T> couples each
    # input to its own conjugate slot with weight 1/2
    c_dir = coeff[:, :n_in]
    c_con = coeff[:, n_in:]
    a_mat = 0.5 * eta * (
        np.einsum("ik...,jk...->ij...", c_dir, np.conj(c_dir))
        + np.einsum("ik...,jk...->ij...", c_con, np.conj(c_con))
    )
    b_mat = 0.5 * eta * (
        np.einsum("ik...,jk...->ij...", c_dir, c_con)
        + np.einsum("ik...,jk...->ij...", c_con, c_dir)
    )
    for i in range(8):
        a_mat[i, i] += 0.5 * (1.0 - eta)  # loss vacuum half-quantum

    m_sp = det.m_modes
    occ = np.real(a_mat[range(8), range(8)]) - 0.5  # eta * photons per mode
    mu1 = occ[:4].sum(axis=0)  # per-cluster detector-1 mean, (k, q)
    mu2 = occ[4:].sum(axis=0)
    mean_s1 = m_sp * float(np.sum(weights * mu1))
    mean_s2 = m_sp * float(np.sum(weights * mu2))

    pair_cov = np.abs(a_mat) ** 2 + np.abs(b_mat) ** 2
    var_s1 = m_sp * float(np.sum(weights * pair_cov[:4, :4].sum(axis=(0, 1))))
    var_s2 = m_sp * float(np.sum(weights * pair_cov[4:, 4:].sum(axis=(0, 1))))
    cov_12 = m_sp * float(np.sum(weights * pair_cov[:4, 4:].sum(axis=(0, 1))))

    # common-mode variance of the per-cluster conditional means under the
    # bin jitter (per bin: E[mu^2] - E[mu]^2), identical for both detectors
    def jitter_var(mu):
        e2 = np.sum(weights * mu * mu, axis=1)
        e1 = np.sum(weights * mu, axis=1)
        return float(np.sum(e2 - e1 * e1))

    vj1 = m_sp * jitter_var(mu1)
    vj2 = m_sp * jitter_var(mu2)
    vj12 = m_sp * jitter_var(mu1)  # mu1 == mu2 pointwise by symmetry
    var_s1 += vj1
    var_s2 += vj2
    cov_12 += vj12

    var_diff = var_s1 + var_s2 - 2.0 * cov_12 + 2.0 * det.noise_var
    nrf = var_diff / (mean_s1 + mean_s2)
    g2 = 1.0 + cov_12 / (mean_s1 * mean_s2)
    return mean_s1, nrf, g2


def wigner_cell_occupancy(
    crystal: CrystalParams, pump: PumpParams, lattice: LatticeSpec
) -> float:
    """Photon-weighted mean photon number per lattice cell.

    The |alpha|^2 - 1/2 estimator has an O(1) symmetric-ordering variance
    per cell; keeping this figure >= 10 keeps the relative Wigner bias of
    the ensemble ratios below the percent level.
    """
    grid = SpectralGrid.gauss_legendre(lattice.omega_max, 2048)
    _, v0, *_ = _pair_coefficients(grid.omega, 0.0, crystal, pump)
    n = v0 * v0
    flux = float(np.sum(grid.weights * n))
    if flux <= 0:
        return 0.0
    return float(np.sum(grid.weights * n * n)) / flux
