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


def test_import_loads_no_optimizer_or_sampler():
    # the oracle needs scipy.linalg only; importing scipy.optimize or the
    # Monte Carlo with it would add their import time and memory to every
    # process that only wants the Fock reference
    src = os.path.dirname(os.path.dirname(fock.__file__))
    code = (
        "import sys\n"
        "from macrohom import fock\n"
        "print(sorted({'scipy.optimize', 'macrohom.montecarlo'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
