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

    def test_truncation_inadequate(self, monkeypatch):
        # tanh(1.5)^80 is about 3.4e-4, far above the 1e-10 adequacy bound
        monkeypatch.setattr(fock, "default_n_max", lambda g: 40)
        with pytest.raises(ValidationError, match="n_max=40 inadequate"):
            tmsv(1.5)

    @pytest.mark.parametrize("g", [1e-6, 0.01, 0.2, 0.6, 1.0, 1.5, 2.0, 3.0, 5.0])
    def test_default_depth_is_adequate(self, g):
        assert math.tanh(g) ** (2 * default_n_max(g)) < 1e-10
        state = tmsv(g)
        assert state.n_max == default_n_max(g)
        assert state.n_max == state.amplitudes.size - 1

    def test_negative_gain(self):
        with pytest.raises(ValidationError):
            tmsv(-0.5)

    def test_nan_gain(self):
        with pytest.raises(ValidationError, match="gain must be >= 0, got nan"):
            tmsv(math.nan)

    @pytest.mark.parametrize("g", [10.0, 19.1, 20.0])
    def test_refuses_ladder_above_cap(self, g):
        # at g = 10 the ladder would hold 2.8e9 values (22 GB); from about
        # g = 19.1 tanh rounds to 1 and no finite truncation exists
        with pytest.raises(ValidationError, match=r"gains up to 8\.482 fit"):
            tmsv(g)

    def test_named_gain_is_the_largest_ladder_that_fits(self):
        assert default_n_max(8.482) + 1 <= fock._MAX_FLOATS < default_n_max(8.483) + 1

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


@pytest.fixture
def cold_splitter():
    # start from an empty cache and leave an empty one behind: the 600-photon build
    # caches about 580 MB
    fock._bs_matrix.cache_clear()
    yield fock._bs_matrix
    fock._bs_matrix.cache_clear()


class TestBsMatrix:
    @pytest.mark.parametrize("s", range(13))
    def test_binomial_closed_form(self, s):
        np.testing.assert_allclose(fock._bs_matrix(s), binomial_bs_matrix(s), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("s", [50, 117, 234])
    def test_eigendecomposition(self, s):
        np.testing.assert_allclose(fock._bs_matrix(s), eigen_bs_matrix(s), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("s", [1, 2, 3, 117, 234])
    def test_orthogonal(self, s):
        b = fock._bs_matrix(s)
        np.testing.assert_allclose(b @ b.T, np.eye(s + 1), rtol=0, atol=1e-12)

    def test_cold_large_sector(self, cold_splitter):
        # built in a loop from the highest cached sector, not by recursion
        b = cold_splitter(600)
        assert cold_splitter.cache_info().currsize == 601
        np.testing.assert_allclose(b @ b.T, np.eye(601), rtol=0, atol=1e-12)


class TestMemoryGuard:
    def test_cap_matches_monte_carlo(self):
        from macrohom import montecarlo

        assert fock._MAX_FLOATS == montecarlo._MAX_FLOATS

    def test_sector_floats(self):
        for n_max in (0, 1, 7, 117):
            expected = sum((s + 1) ** 2 for s in range(2 * n_max + 1))
            assert fock._sector_floats(n_max) == expected

    def test_refuses_before_building(self):
        before = fock._bs_matrix.cache_info().currsize
        with pytest.raises(ValidationError, match=r"gains up to 2\.077 fit"):
            hom_stats(tmsv(3.0), 0.0)
        assert fock._bs_matrix.cache_info().currsize == before

    def test_named_gain_is_the_largest_that_fits(self):
        fits = fock._sector_floats(default_n_max(2.077))
        assert fits <= fock._MAX_FLOATS < fock._sector_floats(default_n_max(2.078))


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
