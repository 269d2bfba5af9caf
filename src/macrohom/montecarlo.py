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
any delay (no aliasing of the exp(2 i Omega tau) phase).  The lattice's
time slices are recorded in the run manifest and not read by the
sampler; delays are bounded by 6 sigma of the pump envelope.

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
splitter and the window/complement rotation: both are passive unitaries,
which carry i.i.d. vacuum to i.i.d. vacuum, so the window and complement
inputs stay vacua.  Each lossy twin pair, (a1+, a2-) and (a1-, a2+), is
then a two-mode squeezed thermal state up to local phases (Weedbrook et
al., Rev. Mod. Phys. 84, 621 (2012)), drawn exactly from two complex
normals: 8 complex inputs, 16 real normals, per cluster.  The detector
modes are never formed: for each splitter input pair (x, y)

    S1 + S2 = sum |x|^2 + |y|^2 - 1/2 per mode,   S1 - S2 = 2 sum Re(x y*),

reduced per pulse in real arithmetic.  :func:`expected_stats` builds the
pairs from their Bogoliubov maps and keeps the loss after the splitters,
so it checks the sampler's construction independently; from those it
sums closed-form Wick moments per quadrature node, in n = v0^2, Re u0^2,
the window ratio r and cos(2 Omega tau), and forms Var(S1 - S2) directly
rather than as a near-cancelling difference of the detectors' moments.

Per-pulse signals are summed over all cells; the ensemble estimators and
their jackknife standard errors follow the measured definitions
NRF = Var(S1 - S2)/<S1 + S2> and g2 = <S1 S2>/(<S1><S2>).

Reproducibility: each fixed-size chunk of pulses draws from its own SFC64
stream, seeded by SeedSequence([seed, chunk index]), so results are
bit-identical for a given seed at any thread count; scan points derive
child seeds from (seed, point index).  ``RNG_STREAM`` names this stream
in the run manifest.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .gain import _bogoliubov, _half_angle, _half_max_angle, _v_abs, gain_at, omega_max_for, spectrum
from .params import CrystalParams, DetectionModel, PumpParams, SpectralGrid, _gl_rule

_CHUNK = 256  # pulses per RNG stream; fixed so reruns are bit-identical
_N_NORMALS = 16  # real normals per cluster: 8 complex inputs
RNG_STREAM = (
    f"SFC64(SeedSequence([seed, chunk])), {_CHUNK}-pulse chunks, {_N_NORMALS} normals per cluster"
)
_BLOCK = 16384  # clusters per arithmetic block, sized to stay in cache
_QUAD_PER_BIN = 64  # Gauss-Legendre nodes per lattice bin in expected_stats
_PER_PULSE = 9  # float64 per pulse: s1, s2 and the jackknife temporaries
# cap on an ensemble's estimated float64 working set, 2^27 values (1 GiB):
# about 54x the reference run of 30 000 pulses, 10 modes and 48 bins
_MAX_FLOATS = 2**27


@dataclass(frozen=True)
class LatticeSpec:
    """Discretization of the pulsed broadband field.

    ``n_freq_bins`` bins of ``bin_width`` tile the detuning axis up to the
    spectral tail cutoff; the sampler reads only these two.  The time
    fields, ``n_time_slices`` slices of one coherence time (the inverse
    spectral width) covering 6 sigma of the pump field envelope, are
    recorded in the run manifest and read by no computation.
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
    def omega_max(self) -> float:
        return self.n_freq_bins * self.bin_width

    @classmethod
    def default(
        cls,
        crystal: CrystalParams,
        pump: PumpParams,
        n_freq_bins: int,
    ) -> "LatticeSpec":
        """Reference-configuration lattice: slice = one coherence time, bins
        tiling the spectrum up to the tail cutoff, window >= 6 sigma."""
        if n_freq_bins < 1:
            raise ValidationError(f"lattice needs at least one frequency bin, got {n_freq_bins}")
        omega_max = omega_max_for(crystal, pump)
        # one coherence time: the inverse of the spectral FWHM 4 x_half / (d L)
        dl = crystal.walkoff_slope * crystal.length_mm
        slice_duration = 1.0 / (4.0 * _half_max_angle(pump.g_peak) / dl)
        n_slices = 6.0 * pump.sigma_a / slice_duration
        if not math.isfinite(n_slices):
            raise ValidationError(f"a {pump.t_p} ps pulse spans no finite number of lattice slices")
        return cls(
            n_time_slices=int(math.ceil(n_slices)),
            n_freq_bins=int(n_freq_bins),
            slice_duration=slice_duration,
            bin_width=omega_max / n_freq_bins,
        )


@dataclass(frozen=True)
class EnsembleStats:
    """Per-pulse twin-signal statistics over one ensemble."""

    nrf_hat: float
    g2_hat: float
    se_nrf: float
    se_g2: float


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for scan point ``index``."""
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1, np.uint64)[0])


def _twin_factors(omega, tau: float, crystal: CrystalParams, pump: PumpParams, eta: float):
    """The sampler's per-cluster (A+, B+, A-, B-, sign, r).

    Each lossy twin pair is drawn as a = A z1 + B z2*, b = A z2 + B z1*,
    A^2 + B^2 = P = <|a|^2> = 1 + 2 eta v0^2 and 2AB = |C| = |<ab>|, with
    |C+| = 2 eta |u0| v0, |C-| = 2 eta v0 |Re u0^2|/|u0| and ``sign`` =
    sign(Re u0^2).  A + B = sqrt(P + |C|); P - |C| is summed from
    nonnegative terms, (1 - eta) + eta/(|u0| + v0)^2 for the +Omega pair,
    plus 2 eta v0 (Im u0^2)^2/(|u0| (|u0|^2 + |Re u0^2|)) for the -Omega
    pair.  r is the window amplitude ratio.
    """
    x = _half_angle(omega, crystal)
    u0, v0 = _bogoliubov(float(gain_at(0.0, pump)), x)
    vt = _v_abs(float(gain_at(tau, pump)), x)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.fmin(vt / v0, 1.0)  # 1 where v0 = 0

    u2 = u0 * u0
    au2 = 1.0 + v0 * v0  # |u0|^2
    au = np.sqrt(au2)
    re_abs = np.abs(u2.real)
    k = 2.0 * eta * v0
    p, c_p, c_m = 1.0 + k * v0, k * au, k * (re_abs / au)  # k * re_abs overflows at high gain
    gap_p = (1.0 - eta) + eta / (au + v0) ** 2
    gap_m = gap_p + k * (u2.imag / au) * (u2.imag / (au2 + re_abs))  # as (Im u0^2)^2 does
    sum_p = np.sqrt(p + c_p) + np.sqrt(gap_p)  # 2A = (A + B) + (A - B)
    sum_m = np.sqrt(p + c_m) + np.sqrt(gap_m)
    return 0.5 * sum_p, c_p / sum_p, 0.5 * sum_m, c_m / sum_m, np.copysign(1.0, u2.real), r


def _block_signals(omega, normals, tau, crystal, pump, eta):
    """Per-pulse (S1 + S2, S1 - S2) from each cluster's ``normals``.

    Rows of ``normals`` come in (re, im) pairs: z1, z2 of the +Omega pair
    (a1+, a2-), z3, z4 of the -Omega pair (a1-, a2+), h+, h- (window)
    and v+, v- (complement).  Amplitudes are carried at twice their
    Wigner scale, so each input is a + ib with unit-normal a, b.
    """
    a_p, b_p, a_m, b_m, sign, r = _twin_factors(omega, tau, crystal, pump, eta)
    # the pairs' relative phase sign(Re u0^2) exp(-2 i Omega tau) goes onto a1-
    ph_c, ph_s = sign * np.cos(2.0 * tau * omega), sign * np.sin(2.0 * tau * omega)
    ka_r, ka_i, kb_r, kb_i = ph_c * a_m, -ph_s * a_m, ph_c * b_m, -ph_s * b_m

    z1_r, z1_i, z2_r, z2_i, z3_r, z3_i, z4_r, z4_i = normals[:8]
    # rows: the delayed beam's modes a1+, a1-, then their partners a2+, a2-
    xy = np.empty_like(normals[:8])
    xy[0] = a_p * z1_r + b_p * z2_r
    xy[1] = a_p * z1_i - b_p * z2_i
    xy[2] = ka_r * z3_r - ka_i * z3_i + kb_r * z4_r + kb_i * z4_i
    xy[3] = ka_i * z3_r + ka_r * z3_i + kb_i * z4_r - kb_r * z4_i
    xy[4] = a_m * z4_r + b_m * z3_r
    xy[5] = a_m * z4_i - b_m * z3_i
    xy[6] = a_p * z2_r + b_p * z1_r
    xy[7] = a_p * z2_i - b_p * z1_i

    # splitter input pairs (w, a2) and (c, v), with window w = r x + s h
    # and complement c = r h - s x of each delayed mode x.  Per delayed
    # mode S1 - S2 = 2 Re(w a2* + c v*) and S1 + S2 = |w|^2 + |a2|^2 +
    # |c|^2 + |v|^2 - 2, where |w|^2 + |c|^2 = |x|^2 + |h|^2.
    x, y, hv = xy[:4], xy[4:], normals[8:]
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


def _ensemble_floats(det: DetectionModel, lattice: LatticeSpec) -> int:
    """Estimated float64 working set of one ensemble: 18 floats per cluster
    and chunk pulse (16 normals, jitter, detuning), plus the per-pulse
    arrays.  Raises when it alone is above ``_MAX_FLOATS``."""
    n, clusters = det.n_pulses, det.m_modes * lattice.n_freq_bins
    floats = (_N_NORMALS + 2) * min(_CHUNK, n) * clusters + _PER_PULSE * n
    if floats > _MAX_FLOATS:
        raise ValidationError(
            f"an ensemble of {n} pulses x {clusters} clusters needs about "
            f"{floats:.3g} float64 values, above the cap of {_MAX_FLOATS}"
        )
    return floats


def _check_delay(tau: float, pump: PumpParams):
    """Raises unless |tau| <= 6 sigma_a, where the pump envelope ends."""
    if not (abs(tau) <= 6.0 * pump.sigma_a):  # NaN fails too
        raise ValidationError(
            f"delay {tau} ps outside 6 sigma = {6.0 * pump.sigma_a} ps of the pump envelope"
        )


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
    _check_delay(tau, pump)
    n_pulses = det.n_pulses
    m = det.m_modes
    k = lattice.n_freq_bins
    _ensemble_floats(det, lattice)
    if n_pulses < 3:  # the delete-one jackknife of a variance divides by n - 2
        raise ValidationError(f"need at least 3 pulses per ensemble, got {n_pulses}")
    dw = lattice.bin_width
    bins = np.arange(k, dtype=float)

    s1 = np.empty(n_pulses)
    s2 = np.empty(n_pulses)
    noise_amp = math.sqrt(det.noise_var)
    # one normals buffer per ensemble: re-allocating the tens-of-MB block
    # every chunk fragments the heap and can raise peak memory by a block
    buffer = np.empty(_N_NORMALS * min(_CHUNK, n_pulses) * m * k)
    step = max(1, _BLOCK // (m * k))

    for chunk_idx, lo in enumerate(range(0, n_pulses, _CHUNK)):
        hi = min(lo + _CHUNK, n_pulses)
        npc = hi - lo
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, chunk_idx])))
        jitter = rng.random((npc, m, k))
        omega = ((bins + jitter) * dw).reshape(npc, m * k)
        normals = buffer[: _N_NORMALS * omega.size].reshape((_N_NORMALS,) + omega.shape)
        rng.standard_normal(out=normals)
        c1, c2 = s1[lo:hi], s2[lo:hi]
        for r in range(0, npc, step):
            rows = slice(r, r + step)
            total, diff = _block_signals(
                omega[rows], normals[:, rows], tau, crystal, pump, det.eta
            )
            c1[rows] = 0.5 * (total + diff)
            c2[rows] = 0.5 * (total - diff)
        if noise_amp > 0:
            c1 += noise_amp * rng.standard_normal(npc)
            c2 += noise_amp * rng.standard_normal(npc)

    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the finite check
        return _estimate(s1, s2)


def _estimate(s1, s2) -> EnsembleStats:
    n = s1.size
    mean1 = float(np.mean(s1))
    mean2 = float(np.mean(s2))
    se1, se2 = (float(np.std(s, ddof=1)) / math.sqrt(n) for s in (s1, s2))
    # np.std squares the signals, which overflows above about 1e154
    if not all(map(math.isfinite, (mean1, mean2, se1, se2))):
        raise NumericalError(
            f"ensemble estimates overflow float64: mean signals {mean1} (se {se1}) "
            f"and {mean2} (se {se2})"
        )
    # a ratio's one-se (Fieller) interval is bounded only where its denominator is more
    # than one se above zero; a mean of nonnegative values is never below its se
    if not (mean1 > se1 and mean2 > se2):
        raise NumericalError(
            f"ensemble mean signals must be > 0 to normalize, by more than one standard error; "
            f"got {mean1} (se {se1}) and {mean2} (se {se2})"
        )
    d = s1 - s2

    sum_d = float(np.sum(d))
    sum_d2 = float(np.sum(d * d))
    sum_t = float(np.sum(s1 + s2))
    var_d = (sum_d2 - sum_d * sum_d / n) / (n - 1)
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

    stats = EnsembleStats(float(nrf_hat), float(g2_hat), se_nrf, se_g2)
    if not all(map(math.isfinite, (stats.nrf_hat, stats.g2_hat, se_nrf, se_g2))):
        raise NumericalError(f"ensemble estimates overflow float64: {stats}")
    return stats


def dip_scan(
    crystal: CrystalParams,
    pump: PumpParams,
    det: DetectionModel,
    lattice: LatticeSpec,
    tau_grid,
    seed: int,
    threads: int = 1,
):
    """One ensemble per delay, with child seeds derived from (seed, index).

    ``threads`` > 1 runs the delays in a thread pool (numpy's generators
    release the GIL); each delay keeps its own seed, so the results are
    identical for every thread count.  The working-set cap covers all
    ensembles that run at once; it and every delay's 6 sigma bound are
    checked before the first ensemble starts.
    """
    if threads < 1:
        raise ValidationError(f"thread count must be >= 1, got {threads}")
    taus = [float(tau) for tau in np.asarray(tau_grid, dtype=float)]
    for tau in taus:
        _check_delay(tau, pump)
    floats = _ensemble_floats(det, lattice)
    running = min(threads, len(taus))
    if running * floats > _MAX_FLOATS:
        raise ValidationError(
            f"{running} ensembles at once need about {running * floats:.3g} float64 values, above "
            f"the cap of {_MAX_FLOATS}; the thread count must be <= {_MAX_FLOATS // floats}"
        )

    def point(idx):
        return simulate_ensemble(crystal, pump, det, lattice, taus[idx], derive_seed(seed, idx))

    if threads == 1:  # in the caller: a pool thread's own malloc arena adds peak memory
        return [point(idx) for idx in range(len(taus))]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(point, range(len(taus))))


def expected_stats(
    crystal: CrystalParams,
    pump: PumpParams,
    det: DetectionModel,
    lattice: LatticeSpec,
    tau: float,
):
    """Exact Wick moments of the sampled ensemble at delay ``tau``.

    Returns (mean_s1, nrf, g2): the values the estimators of
    :func:`simulate_ensemble` converge to, integrated over the jittered
    detuning distribution (uniform within each lattice bin).  Each pair
    comes from its own Bogoliubov map: <a1+ a2-> = u0 v0 and <a1- a2+> =
    mu = v0 Re(u0^2)/u0*, n = v0^2 photons per mode, with the delay phase
    exp(+/- i Omega tau) on a1+/-.  The loss acts after the splitters; the
    complex-Gaussian identity Cov(|p|^2, |q|^2) = |<p q*>|^2 + |<p q>|^2
    then gives per cluster, with I = Re(<a1+ a2-> <a1- a2+>*) =
    n Re(u0^2) cos(2 Omega tau) and s^2 = 1 - r^2:

        <S1> = <S2> = 2 eta n,
        Var(S1 - S2) = 2 + 4 eta n + 4 eta^2 r^2 (n^2 + I),
        Cov(S1, S2) = eta^2 (n^2 s^2 + (|u0 v0|^2 + |mu|^2)/2 - r^2 I),

    the 2 being the 1/4 excess variance of the Wigner |alpha|^2 - 1/2
    estimator in each of a cluster's 8 splitter inputs.  Var(S1 - S2) is
    formed directly, not as Var S1 + Var S2 - 2 Cov, so no large sums
    cancel.  The bin jitter also makes each cluster's mean a shared random
    variable of both detectors; its variance adds to Cov(S1, S2) and
    cancels in the difference.  The eta^2 of Cov cancels in g2, which is
    formed without it.
    """
    x_gl, w_gl = _gl_rule(_QUAD_PER_BIN)
    weights = 0.5 * w_gl  # a probability density over each bin's nodes
    omega = ((np.arange(lattice.n_freq_bins) + 0.5)[:, None] + 0.5 * x_gl) * lattice.bin_width

    x = _half_angle(omega, crystal)
    u0, v0 = _bogoliubov(float(gain_at(0.0, pump)), x)
    vt = _v_abs(float(gain_at(tau, pump)), x)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.fmin(vt / v0, 1.0) ** 2  # 1 where v0 = 0
    n = v0 * v0
    re_u2 = u0.real**2 - u0.imag**2
    pairs = 0.5 * n * ((1.0 + n) + re_u2 * (re_u2 / (1.0 + n)))  # (|u0 v0|^2 + |mu|^2)/2
    interference = n * re_u2 * np.cos(2.0 * omega * tau)
    eta = det.eta
    var_diff = 2.0 + 4.0 * eta * n + 4.0 * eta * eta * r2 * (n * n + interference)
    cov = n * n * (1.0 - r2) + pairs - r2 * interference  # over eta^2

    photons = 2.0 * n  # per detector and cluster, over eta
    bin_mean = photons @ weights
    jitter = (photons - bin_mean[:, None]) ** 2 @ weights
    m = det.m_modes
    mean = m * float(np.sum(bin_mean))  # over eta
    nrf = (m * float(np.sum(var_diff @ weights)) + 2.0 * det.noise_var) / (2.0 * eta * mean)
    g2 = 1.0 + m * float(np.sum(cov @ weights + jitter)) / (mean * mean)
    return eta * mean, nrf, g2


def wigner_cell_occupancy(
    crystal: CrystalParams, pump: PumpParams, lattice: LatticeSpec
) -> float:
    """Photon-weighted mean photon number per lattice cell.

    The |alpha|^2 - 1/2 estimator has an O(1) symmetric-ordering variance
    per cell; keeping this figure >= 10 keeps the relative Wigner bias of
    the ensemble ratios below the percent level.
    """
    grid = SpectralGrid.gauss_legendre(lattice.omega_max, 2048)
    n = spectrum(grid, crystal, pump)
    # the ratio is free of the weights' scale, and at omega_max ~ 1e300
    # rad/ps the unscaled weights * n * n overflow
    w = grid.weights / lattice.omega_max
    flux = float(np.sum(w * n))
    if flux <= 0:
        return 0.0
    return float(np.sum(w * n * n)) / flux
