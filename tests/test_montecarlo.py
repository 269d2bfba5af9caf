import math

import numpy as np
import pytest

from macrohom.errors import NumericalError, ValidationError
from macrohom.gain import _bogoliubov, _half_angle, _v_abs
from macrohom.montecarlo import (
    _QUAD_PER_BIN,
    LatticeSpec,
    _twin_factors,
    derive_seed,
    dip_scan,
    expected_stats,
    simulate_ensemble,
    wigner_cell_occupancy,
)
from macrohom.params import CrystalParams, DetectionModel, PumpParams
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
        grid = default_grid(crystal, PUMP, 1.0)
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
