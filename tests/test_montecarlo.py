import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrohom.errors import NumericalError, ValidationError
from macrohom.gain import _bogoliubov, _half_angle, _v_abs, gain_at
from macrohom.montecarlo import (
    _MAX_FLOATS,
    _QUAD_PER_BIN,
    EnsembleStats,
    LatticeSpec,
    _ensemble_floats,
    _twin_factors,
    derive_seed,
    dip_scan,
    expected_stats,
    simulate_ensemble,
    wigner_cell_occupancy,
)
from macrohom.params import CrystalParams, DetectionModel, PumpParams, _gl_rule
from macrohom.trace import default_grid, detected_trace, nrf_trace

PUMP = PumpParams()


@pytest.fixture(scope="module")
def crystal():
    # the slope calibrate_walkoff(1.3, PUMP) returned when PINNED was
    # recorded, given explicitly: the delay-45 nrf is a near-cancelling sum
    # that moves thousands of times more than the slope, so a one-ulp change
    # of the root solve would move it past rel 1e-12
    return CrystalParams(length_mm=10.0, walkoff_slope=0.19898926491958538)


@pytest.fixture(scope="module")
def lattice(crystal):
    return LatticeSpec.default(crystal, PUMP, n_freq_bins=32)


def small_det(n_pulses=2000, m=4, eta=0.03):
    return DetectionModel(eta=eta, m_modes=m, n_pulses=n_pulses)


class TestLatticeSpec:
    def test_default_covers_envelope(self, lattice):
        assert lattice.n_time_slices * lattice.slice_duration >= 6.0 * PUMP.sigma_a
        assert lattice.slice_duration == pytest.approx(0.205, abs=0.02)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            LatticeSpec(n_time_slices=0, n_freq_bins=4, slice_duration=0.1, bin_width=0.1)

    @pytest.mark.parametrize("bins", [0, -3])
    def test_default_rejects_no_bins(self, crystal, bins):
        with pytest.raises(ValidationError, match="at least one frequency bin"):
            LatticeSpec.default(crystal, PUMP, n_freq_bins=bins)


class TestSimulateEnsemble:
    def test_seed_determinism(self, crystal, lattice):
        det = small_det(n_pulses=600)
        a = simulate_ensemble(crystal, PUMP, det, lattice, 1.0, seed=11)
        b = simulate_ensemble(crystal, PUMP, det, lattice, 1.0, seed=11)
        assert a == b  # bit-identical dataclasses
        c = simulate_ensemble(crystal, PUMP, det, lattice, 1.0, seed=12)
        assert c.nrf_hat != a.nrf_hat

    def test_shot_noise_at_large_delay(self, crystal, lattice):
        det = small_det(n_pulses=3000)
        st = simulate_ensemble(crystal, PUMP, det, lattice, 60.0, seed=5)
        assert abs(st.nrf_hat - 1.0) < 3.0 * st.se_nrf

    def test_peak_matches_quadrature(self, crystal, lattice):
        det = small_det(n_pulses=4000, m=10)
        st = simulate_ensemble(crystal, PUMP, det, lattice, 0.0, seed=21)
        grid = default_grid(crystal, PUMP)
        q = detected_trace(nrf_trace(np.array([0.0]), crystal, PUMP, grid), det)
        assert abs(st.nrf_hat - q.value[0]) < 3.0 * st.se_nrf

    def test_matches_exact_moments(self, crystal, lattice):
        det = small_det(n_pulses=4000)
        for tau in (0.0, 2.0, 12.0):
            st = simulate_ensemble(crystal, PUMP, det, lattice, tau, seed=33)
            _, nrf_e, g2_e = expected_stats(crystal, PUMP, det, lattice, tau)
            assert abs(st.nrf_hat - nrf_e) < 3.0 * st.se_nrf
            assert abs(st.g2_hat - g2_e) < 3.0 * st.se_g2

    def test_vacuum_is_degenerate(self, crystal):
        pump = PumpParams(g_peak=0.0, t_p=18.0)
        lattice = LatticeSpec(
            n_time_slices=400, n_freq_bins=8, slice_duration=0.2, bin_width=0.5
        )
        det = small_det(n_pulses=200)
        with pytest.raises(NumericalError, match="mean signals must be > 0"):
            simulate_ensemble(crystal, pump, det, lattice, 0.0, seed=3)

    def test_delay_outside_lattice_window(self, crystal, lattice):
        det = small_det(n_pulses=200)
        edge = 6.0 * PUMP.sigma_a
        outside = "of the pump envelope"
        for tau in (edge + 1.0, -edge - 1.0, math.nan):
            with pytest.raises(ValidationError, match=outside):
                simulate_ensemble(crystal, PUMP, det, lattice, tau, seed=1)
        simulate_ensemble(crystal, PUMP, det, lattice, edge, seed=1)
        with pytest.raises(ValidationError, match=outside):
            simulate_ensemble(crystal, PUMP, det, lattice, math.nextafter(edge, math.inf), seed=1)

    def test_negative_seed_rejected_by_the_derive_seed_rule(self, crystal, lattice):
        det = small_det(n_pulses=200)
        message = "seed must be a non-negative integer, got -1"
        with pytest.raises(ValidationError, match=message):
            simulate_ensemble(crystal, PUMP, det, lattice, 0.0, seed=-1)
        with pytest.raises(ValidationError, match=message):
            derive_seed(-1, 0)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "7", None, np.float64(3.0)])
    def test_non_integer_seed_rejected(self, crystal, lattice, seed):
        det = small_det(n_pulses=200)
        message = "seed must be a non-negative integer, got "
        with pytest.raises(ValidationError, match=message):
            simulate_ensemble(crystal, PUMP, det, lattice, 0.0, seed=seed)
        with pytest.raises(ValidationError, match=message):
            derive_seed(seed, 0)

    def test_numpy_integer_seed_equals_int(self, crystal, lattice):
        det = small_det(n_pulses=200)
        a = simulate_ensemble(crystal, PUMP, det, lattice, 0.0, seed=np.int64(5))
        b = simulate_ensemble(crystal, PUMP, det, lattice, 0.0, seed=5)
        assert a == b
        assert derive_seed(np.uint64(5), 2) == derive_seed(5, 2)

    def test_loss_affine_law(self, crystal, lattice):
        # the exact moments obey the affine map identically; the sampled
        # estimates must track them within statistical error
        _, nrf_unit, _ = expected_stats(
            crystal, PUMP, DetectionModel(eta=1.0, m_modes=4, n_pulses=2), lattice, 1.5
        )
        for eta in (0.03, 0.3, 1.0):
            det = small_det(n_pulses=2500, eta=eta)
            _, nrf_e, _ = expected_stats(crystal, PUMP, det, lattice, 1.5)
            # affine up to the Wigner sampling floor (1/4 excess variance
            # per mode in the |alpha|^2 estimator, independent of eta)
            assert nrf_e - 1.0 == pytest.approx(eta * (nrf_unit - 1.0), rel=1e-6)
            st = simulate_ensemble(crystal, PUMP, det, lattice, 1.5, seed=77)
            assert abs(st.nrf_hat - nrf_e) < 3.0 * st.se_nrf

    @pytest.mark.parametrize("eta", [0.03, 0.3, 1.0])
    @pytest.mark.parametrize("tau", [0.0, 45.0])
    def test_lossy_pair_draw_matches_exact_moments(self, crystal, lattice, eta, tau):
        # the sampler draws each lossy twin pair from two complex normals
        # (TestTwinFactors checks that draw without sampling);
        # expected_stats builds the pairs from their Bogoliubov maps, with
        # top-up and loss vacua and the loss after the splitters.  At eta = 1
        # the pairs carry no loss
        det = small_det(n_pulses=10_000, eta=eta)
        st = simulate_ensemble(crystal, PUMP, det, lattice, tau, seed=91)
        _, nrf_e, g2_e = expected_stats(crystal, PUMP, det, lattice, tau)
        assert abs(st.nrf_hat - nrf_e) < 4.0 * st.se_nrf
        assert abs(st.g2_hat - g2_e) < 4.0 * st.se_g2

    def test_se_scales_with_ensemble_size(self, crystal):
        lattice = LatticeSpec.default(crystal, PUMP, n_freq_bins=16)
        det_a = small_det(n_pulses=3_000, m=2)
        det_b = small_det(n_pulses=30_000, m=2)
        sa = simulate_ensemble(crystal, PUMP, det_a, lattice, 0.5, seed=9)
        sb = simulate_ensemble(crystal, PUMP, det_b, lattice, 0.5, seed=9)
        ratio = sa.se_nrf / sb.se_nrf
        assert ratio == pytest.approx(math.sqrt(10.0), rel=0.2)

    def test_electronic_noise_raises_variance(self, crystal, lattice):
        det0 = small_det(n_pulses=1500)
        det1 = DetectionModel(eta=0.03, m_modes=4, noise_var=1e8, n_pulses=1500)
        base = simulate_ensemble(crystal, PUMP, det0, lattice, 40.0, seed=13)
        noisy = simulate_ensemble(crystal, PUMP, det1, lattice, 40.0, seed=13)
        assert noisy.nrf_hat > base.nrf_hat
        _, nrf_e, g2_e = expected_stats(crystal, PUMP, det1, lattice, 40.0)
        assert abs(noisy.nrf_hat - nrf_e) < 3.0 * noisy.se_nrf
        assert abs(noisy.g2_hat - g2_e) < 3.0 * noisy.se_g2

    def test_wigner_guard(self, crystal, lattice):
        assert wigner_cell_occupancy(crystal, PUMP, lattice) >= 10.0

    # criterion 6's two ensembles (m = 1, 16 bins, 6000 pulses, its seeds)
    # as a whole-chunk draw gave them: 16 clusters make every 256-pulse
    # chunk one block, so the per-block draw reads the stream in that order
    SINGLE_BLOCK_PINS = {
        0.0: EnsembleStats(
            nrf_hat=34328.10338884577,
            g2_hat=1.0012591161856759,
            se_nrf=680.7888590738823,
            se_g2=0.002499725826139622,
        ),
        40.0: EnsembleStats(
            nrf_hat=1.0091835925395918,
            g2_hat=1.0960266189486398,
            se_nrf=0.019532410356160393,
            se_g2=0.0019048250984927803,
        ),
    }

    def test_single_block_chunks_draw_as_before(self, crystal):
        lattice = LatticeSpec.default(crystal, PUMP, n_freq_bins=16)
        det = DetectionModel(eta=0.03, m_modes=1, n_pulses=6000)
        for idx, tau in enumerate(sorted(self.SINGLE_BLOCK_PINS)):
            got = simulate_ensemble(crystal, PUMP, det, lattice, tau, derive_seed(20260811, idx))
            assert got == self.SINGLE_BLOCK_PINS[tau]


class TestWorkingSet:
    def test_ensemble_floats_is_what_an_ensemble_holds(self, crystal):
        # the reference lattice, 480 clusters, over three chunks: 34-pulse
        # blocks of draws and their arithmetic, then the per-pulse arrays.
        # A first call also imports numpy's lazy modules, so one runs before
        import tracemalloc

        lattice = LatticeSpec.default(crystal, PUMP, n_freq_bins=48)
        det = small_det(n_pulses=768, m=10)
        simulate_ensemble(crystal, PUMP, small_det(n_pulses=3, m=1), lattice, 2.5, seed=7)
        counted = 8 * _ensemble_floats(det, lattice)
        tracemalloc.start()
        try:
            simulate_ensemble(crystal, PUMP, det, lattice, 2.5, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.95 * counted <= peak <= 1.02 * counted
        assert counted < 6 * 2**20  # a whole chunk's normals would be 15.7 MB

    def test_pool_cap_row_fits_once_and_not_twice(self, crystal):
        # the CLI's thread-cap row: 256 pulses x 10 modes x 200 000 bins, one
        # block of 2 000 000 clusters
        lattice = LatticeSpec.default(crystal, PUMP, n_freq_bins=200_000)
        floats = _ensemble_floats(DetectionModel(m_modes=10, n_pulses=256), lattice)
        assert _MAX_FLOATS // 2 < floats <= _MAX_FLOATS


def previous_pair_moments(omega, tau, crystal, pump, eta):
    """(<|a|^2>, <|b|^2>, <ab>) of the +Omega pair (a1+, a2-) and the
    -Omega pair (a1-, a2+) as the sampler built them before drawing each
    pair from two normals: Bogoliubov maps of the pair vacua, the
    compensated -Omega construction (uc, vc), and for a1- and a2+ one
    normal of variance eta tc^2 + 1 - eta for the top-up and loss vacua;
    the delay phase exp(-2 i Omega tau) on a1-, unit complex normals."""
    u0, v0 = _bogoliubov(pump.g_peak, _half_angle(omega, crystal))
    mu_c = v0 * (u0.real**2 - u0.imag**2) / np.conj(u0)
    vc = np.sqrt(np.abs(mu_c))
    uc = mu_c / vc
    tc2 = 2.0 * v0 * v0 + 1.0 - 2.0 * np.abs(mu_c)
    occ_p = eta * (np.abs(u0) ** 2 + v0 * v0) + 1.0 - eta
    occ_m = eta * (np.abs(uc) ** 2 + vc * vc) + eta * tc2 + 1.0 - eta
    phase = np.exp(-2j * omega * tau)
    return (occ_p, occ_p, 2.0 * eta * u0 * v0), (occ_m, occ_m, 2.0 * eta * phase * uc * vc)


class TestTwinFactors:
    """The sampler's pair draw a = A z1 + B z2*, b = A z2 + B z1*, with
    the relative phase sign(Re u0^2) exp(-2 i Omega tau) on a1-."""

    @pytest.mark.parametrize("eta", [0.03, 0.3, 1.0])
    @pytest.mark.parametrize("gain", [0.2, 7.5, 12.0])
    @pytest.mark.parametrize("tau", [0.0, 2.5, 45.0])
    def test_same_distribution_as_previous_construction(self, crystal, eta, gain, tau):
        # a pair of zero-mean circular Gaussian modes is fixed in
        # distribution by <|a|^2>, <|b|^2> and <ab>; the phase of <ab> in
        # each pair is local, and only the pairs' relative phase is observable
        pump = PumpParams(g_peak=gain)
        span = LatticeSpec.default(crystal, pump, n_freq_bins=48).omega_max
        omega = np.linspace(0.0, span, 1001)
        a_p, b_p, a_m, b_m, sign, _ = _twin_factors(omega, tau, crystal, pump, eta)
        phase = sign * np.exp(-2j * omega * tau)
        new = (a_p**2 + b_p**2, a_p**2 + b_p**2, 2.0 * a_p * b_p), (
            a_m**2 + b_m**2, a_m**2 + b_m**2, 2.0 * a_m * b_m * phase)
        old = previous_pair_moments(omega, tau, crystal, pump, eta)
        for got, want in zip(new, old):
            np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0)
            np.testing.assert_allclose(np.abs(got[2]), np.abs(want[2]), rtol=1e-12, atol=0)
        ratio_new, ratio_old = new[1][2] / new[0][2], old[1][2] / old[0][2]
        np.testing.assert_allclose(
            ratio_new / np.abs(ratio_new), ratio_old / np.abs(ratio_old), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("gain", [0.2, 1.0, 4.0, 7.5, 12.0])
    def test_unit_efficiency_gives_the_bogoliubov_pair(self, crystal, gain):
        # at eta = 1, A - B = |u0| - v0 = 1/(|u0| + v0): a float P - |C|
        # would lose it to rounding (about 1e-6 absolute at gain 12) and
        # move A off |u0| by about 1/(4 v0^2)
        pump = PumpParams(g_peak=gain)
        span = LatticeSpec.default(crystal, pump, n_freq_bins=48).omega_max
        omega = np.linspace(0.0, span, 2001)
        a_p, b_p, _, _, _, _ = _twin_factors(omega, 0.0, crystal, pump, 1.0)
        u0, v0 = _bogoliubov(gain, _half_angle(omega, crystal))
        ulps = 4.0 * np.finfo(float).eps
        np.testing.assert_allclose(a_p, np.abs(u0), rtol=ulps, atol=0)
        np.testing.assert_allclose(b_p, v0, rtol=ulps, atol=0)

    def test_gap_never_negative(self, crystal):
        # A - B = sqrt(P - |C|) for both pairs; where P - |C| taken as a
        # float difference goes negative, the factors must stay finite
        # with 0 <= B <= A up to the rounding of A
        below = 1.0 + 4.0 * np.finfo(float).eps
        naive_negative = 0
        for gain in (0.2, 7.5, 12.0, 20.0, 50.0):
            pump = PumpParams(g_peak=gain)
            span = LatticeSpec.default(crystal, pump, n_freq_bins=48).omega_max
            omega = np.linspace(0.0, span, 4001)
            v0 = _v_abs(gain, _half_angle(omega, crystal))
            for eta in (1e-300, 1e-12, 0.03, 0.5, 1.0 - 1e-12, 1.0):
                factors = _twin_factors(omega, 0.0, crystal, pump, eta)
                assert all(np.all(np.isfinite(f)) for f in factors)
                a_p, b_p, a_m, b_m, _, _ = factors
                for a, b in ((a_p, b_p), (a_m, b_m)):
                    assert np.all((0.0 <= b) & (b <= a * below))
                au = np.sqrt(1.0 + v0 * v0)
                naive_negative += np.sum(1.0 + 2.0 * eta * v0 * v0 - 2.0 * eta * au * v0 < 0.0)
        assert naive_negative > 0


def linear_map_moments(crystal, pump, det, lattice, tau, real=np.float64):
    """(mean_s1, nrf, g2) as expected_stats computed them before its
    closed form: a dense complex map of each cluster's 10 inputs onto the
    8 splitter inputs at every node, Gram products for the second moments
    and Var(S1 - S2) as var_s1 + var_s2 - 2 cov_12.  ``real`` sets the
    working precision; u0, v0 and r are computed in float64 either way."""
    cplx = np.result_type(real, 1j)
    k = lattice.n_freq_bins
    dw = lattice.bin_width
    x_gl, w_gl = _gl_rule(_QUAD_PER_BIN)
    # nodes within each bin, weights normalized to a probability density
    centers = (np.arange(k) + 0.5) * dw
    omega = centers[:, None] + 0.5 * dw * x_gl[None, :]  # (k, q)
    weights = np.broadcast_to(0.5 * w_gl[None, :], omega.shape).astype(real)  # sums to 1 per bin

    x = _half_angle(omega, crystal)
    u0, v0 = _bogoliubov(float(gain_at(0.0, pump)), x)
    vt = _v_abs(float(gain_at(tau, pump)), x)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(v0 > 0, np.minimum(vt / np.where(v0 > 0, v0, 1.0), 1.0), 1.0)
    u0, v0, r, omega = u0.astype(cplx), v0.astype(real), r.astype(real), omega.astype(real)
    # the -Omega pair (uc, vc) and a thermal top-up tc give <a1- a2+> = v0 Re(u0^2)/u0*
    # and occupations v0^2: the interference term carries Re(u0^2) cos(2 Omega tau)
    mu_c = v0 * (u0.real**2 - u0.imag**2) / np.conj(u0)
    abs_mu = np.abs(mu_c)
    vc = np.sqrt(abs_mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        uc = np.where(abs_mu > 0, mu_c / np.where(abs_mu > 0, vc, 1.0), 0.0)
    tc = np.sqrt(np.maximum(2.0 * v0 * v0 + 1.0 - 2.0 * abs_mu, 0.0))
    eta = real(det.eta)
    phase = np.exp(1j * omega * real(tau))
    s = np.sqrt(1.0 - r * r)

    # the 8 splitter inputs as maps of the 10 cluster inputs (z1p, z2m, z1m,
    # z2p, y1m, y2p, h+, h-, v+, v-), c_dir on them and c_con on their
    # conjugates.  Rows: window w+, w- and complement c+, c- of the delayed
    # twin modes a1+, a1- (w = r a + s h, c = r h - s a, with the delay
    # phase on a), then their splitter partners a2+, a2-, v+, v-.
    coeff = np.zeros((2, 8, 10) + omega.shape, dtype=cplx)
    c_dir, c_con = coeff
    for row, weight in ((0, r * phase), (2, -s * phase)):  # from a1+ = u0 z1p + v0 z2m*
        c_dir[row, 0], c_con[row, 1] = u0 * weight, v0 * weight
    for row, weight in ((1, r * np.conj(phase)), (3, -s * np.conj(phase))):  # from a1-
        c_dir[row, 2], c_con[row, 3], c_dir[row, 4] = uc * weight, vc * weight, tc * weight
    c_dir[0, 6], c_dir[1, 7], c_dir[2, 6], c_dir[3, 7] = s, s, r, r
    c_dir[4, 3], c_con[4, 2], c_dir[4, 5] = uc, vc, tc  # a2+
    c_dir[5, 1], c_con[5, 0] = u0, v0  # a2-
    c_dir[6, 8] = c_dir[7, 9] = 1.0  # v+, v-

    # one 50:50 step: detector 1 sees (x + y)/sqrt(2) and detector 2
    # (y - x)/sqrt(2) for each delayed-side input x and its partner y
    x, y = coeff[:, :4], coeff[:, 4:]
    x[...], y[...] = x + y, y - x
    coeff *= 1.0 / np.sqrt(real(2.0))

    # input second moments: <zeta zeta+> = I/2, <zeta zeta^T> couples each
    # input to its own conjugate slot with weight 1/2
    a_mat = 0.5 * eta * (
        np.einsum("ik...,jk...->ij...", c_dir, np.conj(c_dir))
        + np.einsum("ik...,jk...->ij...", c_con, np.conj(c_con))
    )
    b_mat = 0.5 * eta * (
        np.einsum("ik...,jk...->ij...", c_dir, c_con)
        + np.einsum("ik...,jk...->ij...", c_con, c_dir)
    )
    a_mat[range(8), range(8)] += 0.5 * (1.0 - eta)  # loss vacuum half-quantum

    m_sp = det.m_modes
    occ = np.real(a_mat[range(8), range(8)]) - 0.5  # eta * photons per mode
    mu1 = occ[:4].sum(axis=0)  # per-cluster detector-1 mean, (k, q)
    mu2 = occ[4:].sum(axis=0)
    mean_s1 = m_sp * np.sum(weights * mu1)
    mean_s2 = m_sp * np.sum(weights * mu2)

    pair_cov = np.abs(a_mat) ** 2 + np.abs(b_mat) ** 2
    var_s1 = m_sp * np.sum(weights * pair_cov[:4, :4].sum(axis=(0, 1)))
    var_s2 = m_sp * np.sum(weights * pair_cov[4:, 4:].sum(axis=(0, 1)))
    cov_12 = m_sp * np.sum(weights * pair_cov[:4, 4:].sum(axis=(0, 1)))

    # common-mode variance of the per-cluster conditional means under the
    # bin jitter (per bin: E[mu^2] - E[mu]^2), shared by both detectors
    # because mu1 == mu2 pointwise by symmetry
    e1 = np.sum(weights * mu1, axis=1)
    vj = m_sp * np.sum(np.sum(weights * mu1 * mu1, axis=1) - e1 * e1)
    var_s1 += vj
    var_s2 += vj
    cov_12 += vj

    var_diff = var_s1 + var_s2 - 2.0 * cov_12 + 2.0 * det.noise_var
    nrf = var_diff / (mean_s1 + mean_s2)
    g2 = 1.0 + cov_12 / (mean_s1 * mean_s2)
    return mean_s1, nrf, g2


class TestExpectedStats:
    # recorded (mean_s1, nrf, g2) of the exact moments, so the oracle
    # cannot drift along with the sampler it checks
    PINNED = {
        0.0: (1426358.5227952246, 33842.16929627937, 1.0000782971552307),
        2.0: (1426358.5227952246, 13566.59258933327, 1.0071857587025603),
        45.0: (1426358.5227952246, 1.0000897640798805, 1.011941082235449),
    }

    @pytest.mark.parametrize("tau", sorted(PINNED))
    def test_pinned_values(self, crystal, lattice, tau):
        got = expected_stats(crystal, PUMP, small_det(), lattice, tau)
        assert got == pytest.approx(self.PINNED[tau], rel=1e-12)

    @pytest.mark.parametrize("gain", [180.0, 200.0])
    def test_overflow_raises_without_warnings(self, crystal, gain):
        # n^2 leaves float64 above a gain of about 178: inf and nan are
        # named, not returned
        pump = PumpParams(g_peak=gain)
        lattice = LatticeSpec.default(crystal, pump, n_freq_bins=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="Wick moments leave float64"):
                expected_stats(crystal, pump, small_det(), lattice, 0.0)

    @pytest.mark.parametrize("eta", [0.03, 0.4, 1.0])
    @pytest.mark.parametrize("tau", [0.0, 2.0, 45.0])
    def test_mean_conserves_photon_number(self, crystal, lattice, eta, tau):
        # the delay, window rotation, splitters and loss are all passive, so
        # each detector sees half of eta times the 4 v0^2 twin photons of a
        # cluster, averaged over the same Gauss-Legendre nodes in every bin
        det = small_det(eta=eta)
        x_gl, w_gl = np.polynomial.legendre.leggauss(_QUAD_PER_BIN)
        dw = lattice.bin_width
        omega = (np.arange(lattice.n_freq_bins)[:, None] + 0.5 + 0.5 * x_gl) * dw
        v0 = _v_abs(PUMP.g_peak, _half_angle(omega, crystal))
        expected = 2.0 * eta * det.m_modes * np.sum(0.5 * w_gl * v0 * v0)
        mean_s1, _, _ = expected_stats(crystal, PUMP, det, lattice, tau)
        assert mean_s1 == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("tau", sorted(PINNED))
    def test_nrf_matches_extended_precision_reference(self, crystal, lattice, tau):
        # at 45 ps the float64 linear map's nrf is 6.5e-13 off, from its
        # near-cancelling var_s1 + var_s2 - 2 cov_12
        _, nrf, _ = expected_stats(crystal, PUMP, small_det(), lattice, tau)
        _, want, _ = linear_map_moments(crystal, PUMP, small_det(), lattice, tau, np.longdouble)
        assert abs(float(nrf / want - 1.0)) <= 1e-14

    @pytest.mark.parametrize("gain", [0.2, 1.0, 7.5, 12.0])
    @pytest.mark.parametrize("bins", [1, 16, 48])
    def test_matches_linear_map_reference(self, crystal, gain, bins):
        # in extended precision: in float64 the linear map's mean loses
        # 1.8e-11 at gain 0.2, where it subtracts the half-quantum from
        # occupations near 1/2.  Its nrf in extended precision is still up to
        # 4e-10 off at gain 12 (in float64 7.5e-7): about 2000 times less
        # for 2048 times the precision, so the error is the map's cancellation.
        # Noise adds 2 noise_var to the map's var_diff, so nrf_0 + noise_var
        # / mean_s1 is its nrf at noise_var
        pump = PumpParams(g_peak=gain)
        lattice = LatticeSpec.default(crystal, pump, n_freq_bins=bins)
        for eta in (0.03, 0.4, 1.0):
            for tau in (0.0, 0.5, 2.5, 10.0, 45.0):
                det = small_det(eta=eta)
                mean, nrf_0, g2 = linear_map_moments(
                    crystal, pump, det, lattice, tau, np.longdouble
                )
                for noise_var in (0.0, 1e4):
                    got = expected_stats(
                        crystal, pump, dataclasses.replace(det, noise_var=noise_var), lattice, tau
                    )
                    want = (mean, nrf_0 + noise_var / mean, g2)
                    rel = [abs(float(g / w - 1.0)) for g, w in zip(got, want)]
                    assert rel[0] <= 1e-12 and rel[2] <= 1e-12, (eta, tau, noise_var, rel)
                    assert rel[1] <= 1e-9, (eta, tau, noise_var, rel)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    gain=st.floats(0.05, 50.0),
    log_eta=st.floats(-300.0, 0.0),
    bins=st.integers(1, 64),
    noise_var=st.floats(0.0, 100.0),
    delay=st.floats(-6.0, 6.0),
)
def test_expected_stats_bounds(crystal, gain, log_eta, bins, noise_var, delay):
    # per node Var(S1 - S2) >= 2, since eta r^2 <= 1 and n^2 + I >= -n, and
    # Cov(S1, S2) >= 0, since (|u0 v0|^2 + |mu|^2)/2 >= |I|: g2 >= 1 at any
    # eta.  At eta = 1e-300 and gain 0.05 a detector sees about 1e-305
    # photons and nrf reaches 1e305 (1 + noise_var); noise_var <= 100 keeps
    # it in float64's range
    pump = PumpParams(g_peak=gain)
    lattice = LatticeSpec.default(crystal, pump, n_freq_bins=bins)
    det = DetectionModel(eta=10.0**log_eta, m_modes=4, noise_var=noise_var)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, nrf, g2 = expected_stats(crystal, pump, det, lattice, delay * pump.sigma_a)
    assert all(map(math.isfinite, (mean, nrf, g2)))
    assert mean > 0 and nrf > 0 and g2 >= 1.0


class TestDipScan:
    def test_matches_single_runs(self, crystal, lattice):
        det = small_det(n_pulses=400)
        taus = [0.0, 5.0]
        scan = dip_scan(crystal, PUMP, det, lattice, taus, seed=101)
        for idx, tau in enumerate(taus):
            single = simulate_ensemble(
                crystal, PUMP, det, lattice, tau, derive_seed(101, idx)
            )
            assert scan[idx] == single

    def test_threads_match_sequential(self, crystal, lattice):
        det = small_det(n_pulses=300)
        taus = [0.0, 2.0, 5.0]
        assert dip_scan(crystal, PUMP, det, lattice, taus, 7, threads=2) == dip_scan(
            crystal, PUMP, det, lattice, taus, 7
        )

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_thread_count_below_one(self, crystal, lattice, threads):
        with pytest.raises(ValidationError, match="thread count must be >= 1"):
            dip_scan(crystal, PUMP, small_det(n_pulses=4), lattice, [0.0], 7, threads=threads)

    def test_g2_dips_at_zero_delay(self, crystal):
        # physical-mode lattice: one cluster per longitudinal mode
        lattice = LatticeSpec.default(crystal, PUMP, n_freq_bins=16)
        det = DetectionModel(eta=0.03, m_modes=1, n_pulses=4000)
        scan = dip_scan(crystal, PUMP, det, lattice, [0.0, 40.0], seed=55)
        dip, edge = scan
        assert edge.g2_hat - dip.g2_hat > 3.0 * (edge.se_g2 + dip.se_g2)

    def test_edge_infers_detected_modes(self, crystal):
        # standard inference: the g2 edge value yields the detected
        # mode count; with one cluster per mode the lattice participation
        # number is recovered
        from macrohom.trace import mode_count_g2

        lattice = LatticeSpec.default(crystal, PUMP, n_freq_bins=16)
        det = DetectionModel(eta=0.03, m_modes=1, n_pulses=6000)
        st = simulate_ensemble(crystal, PUMP, det, lattice, 40.0, seed=19)
        n_mode = math.sinh(7.5) ** 2
        m_eff = mode_count_g2(st.g2_hat, n_mode)
        _, _, g2_exact = expected_stats(crystal, PUMP, det, lattice, 40.0)
        m_exact = mode_count_g2(g2_exact, n_mode)
        assert m_eff == pytest.approx(m_exact, rel=0.15)
        assert m_exact == pytest.approx(10.0, abs=1.5)
