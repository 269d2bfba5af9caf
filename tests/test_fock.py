import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from macrohom import fock
from macrohom.errors import ValidationError
from macrohom.fock import default_n_max, hom_stats, nrf_single_mode, tmsv


def ladder_moments(state):
    """<n> and <n^2> per beam on the |n,n> ladder, from the amplitudes."""
    p = state.amplitudes**2
    n = np.arange(p.size)
    return float(np.sum(n * p)), float(np.sum(n * n * p))


class TestTmsv:
    def test_vacuum(self):
        state = tmsv(0.0)
        assert state.amplitudes[0] == 1.0
        np.testing.assert_array_equal(state.amplitudes[1:], 0.0)
        assert ladder_moments(state) == (0.0, 0.0)

    def test_mean_photon_closed_form(self):
        state = tmsv(1.0)
        # cross-check the ladder sum against sinh^2
        direct = sum(
            n * (math.tanh(1.0) ** n / math.cosh(1.0)) ** 2
            for n in range(state.n_max + 1)
        )
        mean, _ = ladder_moments(state)
        assert mean == pytest.approx(direct, rel=1e-14)
        assert mean == pytest.approx(math.sinh(1.0) ** 2, rel=1e-9)

    def test_twin_difference_variance_zero(self):
        # perfect ladder correlation: n1 = n2 on every component
        state = tmsv(1.2)
        p = state.amplitudes**2
        n = np.arange(state.n_max + 1)
        var_diff = np.sum(p * (n - n) ** 2)
        assert var_diff == 0.0

    def test_default_depth_keeps_the_norm(self):
        # tmsv checks neither the adequacy nor the norm again: default_n_max
        # alone makes tanh^(2 n_max) < 1e-10 at every gain that fits the
        # cap, so the ladder's norm is 1 - tanh^(2 n_max + 2) > 1 - 1e-10.
        # Computed, the half-ulp roundings of tanh g and cosh g move it by up
        # to cosh^2 g eps more (the sum 1/(1 - tanh^2) magnifies the first
        # by 2 sinh^2 g): from g = 4.5 on it lands up to 0.48 of that below
        for g in np.linspace(0.0, 8.135, 8136):
            assert math.tanh(g) ** (2 * default_n_max(g)) < 1e-10, g
        for g in np.linspace(0.0, 6.5, 131):
            amps = tmsv(g).amplitudes
            rounding = math.cosh(g) ** 2 * np.finfo(float).eps
            assert math.fsum(amps * amps) >= 1.0 - 1e-10 - rounding, g

    @pytest.mark.parametrize("g", [1e-6, 0.01, 0.2, 0.6, 1.0, 1.5, 2.0, 3.0, 5.0])
    def test_default_depth_is_adequate(self, g):
        assert math.tanh(g) ** (2 * default_n_max(g)) < 1e-10
        state = tmsv(g)
        assert state.n_max == default_n_max(g)
        assert state.n_max == state.amplitudes.size - 1

    @pytest.mark.parametrize("g", [0.0, 0.6, 3.0, 6.5])
    def test_amplitudes_are_the_closed_form(self, g):
        th = math.tanh(g)
        amps = tmsv(g).amplitudes
        np.testing.assert_array_equal(amps, th ** np.arange(amps.size) / math.cosh(g))

    def test_holds_one_ladder_sized_array(self):
        import tracemalloc

        tracemalloc.start()
        try:
            amps = tmsv(6.5).amplitudes  # a ladder of about 20 MB
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * amps.nbytes

    def test_negative_gain(self):
        with pytest.raises(ValidationError):
            tmsv(-0.5)

    def test_nan_gain(self):
        with pytest.raises(ValidationError, match="gain must be >= 0, got nan"):
            tmsv(math.nan)

    @pytest.mark.parametrize("g", [8.136, 10.0, 19.1, 20.0])
    def test_refuses_ladder_above_cap(self, g):
        # at g = 10 the ladder would hold 2.8e9 values (22 GB); from about
        # g = 19.1 tanh rounds to 1 and no finite truncation exists
        with pytest.raises(ValidationError, match=r"gains up to 8\.135 fit"):
            tmsv(g)

    def test_adequacy_alone_gives_the_photon_number_head_room(self):
        # -ln tanh g <= 1/(e^g sinh g) puts the adequate depth above
        # 23 sinh^2 g, so a 12 sinh^2 g term would never set n_max
        for g in np.linspace(0.0, 19.0, 20_001)[1:]:
            n_adequate = math.ceil(math.log(1e-10) / (2.0 * math.log(math.tanh(g)))) + 1
            n_max = default_n_max(g)
            assert n_max == max(32, n_adequate)
            assert n_max >= 12.0 * math.sinh(g) ** 2

    @pytest.mark.parametrize("g", [math.nan, 19.1, 20.0])
    def test_depth_undefined_where_tanh_is_not_below_one(self, g):
        with pytest.raises(ValidationError, match="no truncation depth"):
            default_n_max(g)


class TestHomStats:
    def test_zero_phase_matches_closed_form(self):
        g = 1.0
        state = tmsv(g)
        var_diff, n_total, _ = hom_stats(state, 0.0)
        nrf = var_diff / n_total
        expected = 1.0 + math.sinh(g) ** 2 + math.cosh(g) ** 2
        assert expected == pytest.approx(4.7622, abs=2e-4)
        assert nrf == pytest.approx(expected, rel=1e-9)

    def test_vacuum(self):
        state = tmsv(0.0)
        var_diff, n_total, g2 = hom_stats(state, 0.3)
        assert var_diff == pytest.approx(0.0, abs=1e-12)
        assert n_total == pytest.approx(0.0, abs=1e-12)
        assert math.isnan(g2)

    def test_unnormalised_state_loses_probability(self):
        state = fock.TmsvState(amplitudes=0.5 * tmsv(0.5).amplitudes)
        with pytest.raises(ValidationError, match="lost probability: total 0.0625"):
            hom_stats(state, 0.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase(self, phi):
        with pytest.raises(ValidationError, match="phi must be finite"):
            hom_stats(tmsv(0.5), phi)

    def test_phase_average_kills_interference(self):
        g = 0.8
        state = tmsv(g)
        phis = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        nrfs = []
        for phi in phis:
            var_diff, n_total, _ = hom_stats(state, phi)
            nrfs.append(var_diff / n_total)
        assert np.mean(nrfs) == pytest.approx(1.0 + math.sinh(g) ** 2, rel=1e-9)

    @pytest.mark.parametrize("g", [0.2, 0.6, 1.0, 1.5])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2.0, math.pi])
    def test_gaussian_model_equivalence(self, g, phi):
        state = tmsv(g)
        var_diff, n_total, _ = hom_stats(state, phi)
        nrf = var_diff / n_total
        expected = nrf_single_mode(g, g, phi)
        # at phi = pi the expected value is exactly 0 (perfect
        # anticorrelation), so allow an absolute floor set by the peak scale
        peak = nrf_single_mode(g, g, 0.0)
        assert nrf == pytest.approx(expected, rel=1e-6, abs=1e-6 * peak)

    def test_photon_number_conservation(self):
        for g in (0.4, 1.0):
            state = tmsv(g)
            before = 4.0 * ladder_moments(state)[0]  # doubled system, two beams
            for phi in (0.0, 1.1):
                _, n_total, _ = hom_stats(state, phi)
                assert n_total == pytest.approx(before, rel=1e-10)

    def test_edge_twin_correlation(self):
        # the correlation surviving at large delay is the pre-split twin
        # correlation 2 + 1/sinh^2(g)
        g = 1.0
        mean, mean_sq = ladder_moments(tmsv(g))  # n1 = n2 on the ladder
        assert mean_sq / mean**2 == pytest.approx(2.0 + 1.0 / math.sinh(g) ** 2, abs=1e-4)

    def test_post_split_cross_correlation_phase_average(self):
        # between the splitter outputs the doubled system dilutes the
        # correlation: phi-averaged moments give 1.25 + 1/(4 sinh^2 g);
        # frozen here as the honest value for the output-port estimator
        g = 1.0
        state = tmsv(g)
        phis = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        n1n2 = []
        singles = []
        for phi in phis:
            var_diff, n_total, g2 = hom_stats(state, phi)
            mean = n_total / 2.0
            n1n2.append(g2 * mean * mean)
            singles.append(mean)
        g2_avg = np.mean(n1n2) / np.mean(singles) ** 2
        nbar = math.sinh(g) ** 2
        assert g2_avg == pytest.approx(1.25 + 0.25 / nbar, rel=1e-6)


@functools.lru_cache(maxsize=None)
def binomial_bs_matrix(s):
    """The splitter's sector matrix from its closed form: with
    a1+ -> (a1+ - a2+)/sqrt(2) and a2+ -> (a1+ + a2+)/sqrt(2),
    B[k, n] = 2^(-s/2) sqrt(k! (s-k)! / (n! (s-n)!))
              * sum_i C(n, i) C(s-n, k-i) (-1)^(n-i)."""
    b = np.empty((s + 1, s + 1))
    for k in range(s + 1):
        for n in range(s + 1):
            total = sum(
                math.comb(n, i) * math.comb(s - n, k - i) * (-1) ** (n - i)
                for i in range(max(0, k - s + n), min(n, k) + 1)
            )
            ratio = math.factorial(k) * math.factorial(s - k)
            ratio /= math.factorial(n) * math.factorial(s - n)
            b[k, n] = total * math.sqrt(ratio) * 0.5 ** (s / 2)
    return b


def eigen_bs_matrix(s):
    """The splitter's sector matrix from the eigendecomposition of its
    gauge-rotated real symmetric tridiagonal generator."""
    from scipy.linalg import eigh_tridiagonal

    n = np.arange(s, dtype=float)
    lam, vec = eigh_tridiagonal(np.zeros(s + 1), -np.sqrt((n + 1.0) * (s - n)))
    phase = (1j) ** np.arange(s + 1)
    m = vec * np.exp(-1j * (math.pi / 4.0) * lam)[None, :]
    return (np.conj(phase)[:, None] * (m @ vec.T) * phase[None, :]).real


def number_operator(s):
    """The T_s behind hom_stats's closed form: beam 1's output count on the
    s-photon sector in the input basis |n, s-n>, diagonal s/2 and
    off-diagonal 1/2 sqrt((n+1)(s-n))."""
    n = np.arange(s, dtype=float)
    hop = 0.5 * np.sqrt((n + 1.0) * (s - n))
    return np.diag(np.full(s + 1, 0.5 * s)) + np.diag(hop, 1) + np.diag(hop, -1)


def sandwiched_count(b):
    """B^T diag(k) B: the output-1 count pulled back through the splitter."""
    k = np.arange(b.shape[0], dtype=float)
    return b.T @ (k[:, None] * b)


def brute_force_stats(state, phi):
    """(var_diff, n_total, g2_cross) from the joint output distribution
    p(k1, k2) of every sector, built from the closed-form splitter matrices:
    amp[k1, k2] = sum_n B[k1, n] w_n B[k2, s - n]."""
    c = state.amplitudes
    n_max = state.n_max
    e1 = e2 = e11 = e22 = e12 = 0.0
    for s in range(2 * n_max + 1):
        ns = np.arange(max(0, s - n_max), min(s, n_max) + 1)
        w = c[ns] * c[s - ns] * np.exp(1j * (2 * ns - s) * 0.5 * phi)
        b = binomial_bs_matrix(s)
        p = np.abs((b[:, ns] * w) @ b[:, s - ns].T) ** 2
        k = np.arange(s + 1, dtype=float)
        n1 = k[:, None] + k[None, :]  # beam 1: k1 + k2
        n2 = 2 * s - n1
        e1 += np.sum(p * n1)
        e2 += np.sum(p * n2)
        e11 += np.sum(p * n1 * n1)
        e22 += np.sum(p * n2 * n2)
        e12 += np.sum(p * n1 * n2)
    var_diff = e11 + e22 - 2.0 * e12 - (e1 - e2) ** 2
    return var_diff, e1 + e2, e12 / (e1 * e2)


class TestOutputNumberOperator:
    @pytest.mark.parametrize("s", range(13))
    def test_binomial_closed_form(self, s):
        expected = sandwiched_count(binomial_bs_matrix(s))
        np.testing.assert_allclose(number_operator(s), expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("s", [50, 117, 234])
    def test_eigendecomposition(self, s):
        expected = sandwiched_count(eigen_bs_matrix(s))
        np.testing.assert_allclose(number_operator(s), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("s", [1, 2, 3, 117, 234])
    def test_spectrum_is_the_output_counts(self, s):
        # an orthogonal splitter leaves the eigenvalues of diag(k): 0 .. s
        eig = np.linalg.eigvalsh(number_operator(s))
        np.testing.assert_allclose(eig, np.arange(s + 1.0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rotation", [0.0, 0.7])
    @pytest.mark.parametrize("g", [0.2, 0.6])
    @pytest.mark.parametrize("phi", [0.0, 0.3, math.pi / 2.0, math.pi, 2.0])
    def test_joint_output_distribution(self, g, phi, rotation):
        # both gains truncate at n_max = 32, so the splitter matrices are
        # built once; the phase-rotated ladder c_n exp(0.7 i n) has complex
        # amplitudes, and its tensor square differs from the real one by the
        # phase exp(0.7 i s) on each sector, which no moment sees
        state = tmsv(g)
        assert state.n_max == 32
        if rotation:
            n = np.arange(state.n_max + 1)
            state = fock.TmsvState(amplitudes=state.amplitudes * np.exp(1j * rotation * n))
        var_diff, n_total, g2 = hom_stats(state, phi)
        bf_var, bf_total, bf_g2 = brute_force_stats(state, phi)
        # at phi = pi the variance sits at the rounding floor, so its yardstick
        # is the peak variance at phi = 0
        peak = brute_force_stats(state, 0.0)[0]
        assert var_diff == pytest.approx(bf_var, rel=1e-12, abs=1e-12 * peak)
        assert n_total == pytest.approx(bf_total, rel=1e-12)
        assert g2 == pytest.approx(bf_g2, rel=1e-12)


class TestMemoryGuard:
    def test_hom_stats_holds_one_ladder_sized_temporary(self):
        import tracemalloc

        state = tmsv(6.5)  # a ladder of about 20 MB
        tracemalloc.start()
        try:
            hom_stats(state, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * state.amplitudes.nbytes

    def test_named_gain_is_the_largest_that_fits(self):
        # tmsv counts the ladder and hom_stats's one temporary
        assert 2 * (default_n_max(8.135) + 1) <= fock._MAX_FLOATS
        assert fock._MAX_FLOATS < 2 * (default_n_max(8.136) + 1)

    @pytest.mark.parametrize("g", [2.5, 3.5, 5.0, 6.5])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2.0, math.pi])
    def test_gain_above_the_old_sector_cap(self, g, phi):
        var_diff, n_total, _ = hom_stats(tmsv(g), phi)
        peak = nrf_single_mode(g, g, 0.0)
        expected = nrf_single_mode(g, g, phi)
        assert var_diff / n_total == pytest.approx(expected, rel=1e-6, abs=1e-6 * peak)


def test_import_loads_no_optimizer_or_sampler():
    # the oracle needs numpy only; importing scipy or the Monte Carlo with
    # it would add their import time and memory to every process that only
    # wants the Fock reference
    src = os.path.dirname(os.path.dirname(fock.__file__))
    code = (
        "import sys\n"
        "from macrohom import fock\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
        "             or m == 'macrohom.montecarlo'))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
