import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrohom.errors import NumericalError, ValidationError
from macrohom.fock import hom_stats, tmsv
from macrohom.gain import (
    _half_angle,
    _sinc_branch,
    calibrate_walkoff,
    gain_at,
    omega_max_for,
    uv_arrays,
)
from macrohom.params import CrystalParams, DetectionModel, PumpParams, SpectralGrid
from macrohom.trace import (
    Trace,
    _fwhm,
    _interference_sums,
    _pedestal_factor,
    default_grid,
    delay_grid,
    detected_trace,
    fwhm_narrow,
    fwhm_pedestal,
    fwhm_vs_gain,
    g2_trace,
    mode_count_g2,
    mode_count_long,
    nrf_and_pedestal,
    nrf_trace,
    pedestal_trace,
    required_nodes,
    visibility,
)

PUMP = PumpParams()  # reference configuration


@pytest.fixture(scope="module")
def crystal():
    return calibrate_walkoff(1.3, PUMP)


@pytest.fixture(scope="module")
def reference_traces(crystal):
    half = np.arange(0.0, 100.0001, 0.05)
    tau = np.concatenate([-half[:0:-1], half])
    grid = default_grid(crystal, PUMP)
    nrf = nrf_trace(tau, crystal, PUMP, grid)
    ped = pedestal_trace(tau, crystal, PUMP, grid)
    return tau, grid, nrf, ped


def direct_values(tau, crystal, pump, grid):
    """(nrf, pedestal) one delay at a time from the quadrature formula
    1 + (|v(G(tau), x)|^2 @ coef + cos(2 tau w) @ interf_coef) / denom,
    each delay evaluated as given, sign included, with exactly rounded
    sums so no summation order is shared with the kernel."""
    omega = grid.omega
    u0, v0 = uv_arrays(omega, 0.0, crystal, pump)
    coef = grid.weights * v0 * v0
    denom = float(np.sum(coef))
    interf_coef = coef * (u0.real**2 - u0.imag**2)
    nrf, ped = [], []
    for t in np.asarray(tau, dtype=float):
        _, v_t = uv_arrays(omega, float(t), crystal, pump)
        ped_sum = math.fsum(v_t * v_t * coef)
        ped.append(1.0 + ped_sum / denom)
        nrf.append(1.0 + (ped_sum + math.fsum(np.cos(2.0 * t * omega) * interf_coef)) / denom)
    return np.array(nrf), np.array(ped)


def assert_nrf_matches_direct(tau, crystal, nrf, ped, nrf_direct, check_inside=True):
    """nrf against direct_values at rel 1e-10 where the interference
    integral can be nonzero, |tau| <= d L (skipped if not
    ``check_inside``); beyond, where it is exactly 0 (Paley-Wiener) and
    the direct sum holds only the truncation residue of the tail cutoff,
    nrf must equal the pedestal bitwise."""
    inside = np.abs(tau) <= crystal.walkoff_slope * crystal.length_mm
    if check_inside:
        np.testing.assert_allclose(nrf[inside], nrf_direct[inside], rtol=1e-10, atol=0)
    np.testing.assert_array_equal(nrf[~inside], ped[~inside])


def single_omega_grid(omega0):
    return SpectralGrid(np.array([omega0]), np.array([1.0]))


def single_mode_setup(g_peak):
    """Degenerate-walkoff configuration: detuning dependence drops out."""
    crystal = CrystalParams(length_mm=10.0, walkoff_slope=0.0)
    pump = PumpParams(g_peak=g_peak, t_p=18.0)
    return crystal, pump


class TestNrfTrace:
    def test_single_mode_peak_closed_form(self):
        crystal, pump = single_mode_setup(7.5)
        grid = single_omega_grid(1.0)
        trace = nrf_trace(np.array([0.0]), crystal, pump, grid)
        expected = 2.0 + 2.0 * math.sinh(7.5) ** 2
        assert expected == pytest.approx(1.6345e6, rel=1e-4)
        assert trace.value[0] == pytest.approx(expected, rel=1e-12)

    def test_baseline_at_large_delay(self, crystal, reference_traces):
        tau, grid, nrf, ped = reference_traces
        assert abs(nrf.value[0] - 1.0) < 1e-6
        assert abs(nrf.value[-1] - 1.0) < 1e-6
        # sharper bound from the invariant list
        peak = nrf.value[len(tau) // 2] - 1.0
        n_mode = math.sinh(7.5) ** 2
        edge_region = np.abs(tau) > 5.0 * PUMP.t_p
        assert np.max(np.abs(nrf.value[edge_region] - 1.0)) < 1e-3 * peak / (2 * n_mode)

    def test_vacuum_input_gives_shot_noise(self, crystal):
        pump = PumpParams(g_peak=0.0, t_p=18.0)
        grid = SpectralGrid.gauss_legendre(10.0, 64)
        trace = nrf_trace(np.linspace(-2, 2, 21), crystal, pump, grid)
        np.testing.assert_array_equal(trace.value, 1.0)

    def test_grid_resolution_guard(self, crystal):
        # 8 nodes per period of exp(2 i w d L) over the nodes' span of
        # 9.89 rad/ps take 50.1 nodes at d L = 1.99 ps, whatever the delays
        grid = SpectralGrid.gauss_legendre(10.0, 16)
        for tau in ([0.0], [-60.0, 0.0, 60.0]):
            with pytest.raises(ValidationError, match="grid has 16 nodes .* needs at least 50.1$"):
                nrf_trace(np.array(tau), crystal, PUMP, grid)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_delay_rejected_before_the_kernel(self, crystal, monkeypatch, bad):
        import macrohom.trace

        calls = []
        monkeypatch.setattr(macrohom.trace, "_pedestal_sums", lambda *a: calls.append(a))
        grid = SpectralGrid.gauss_legendre(10.0, 64)
        with pytest.raises(ValidationError, match="delays must be finite"):
            nrf_trace([0.0, bad], crystal, PUMP, grid)
        assert calls == []

    def test_unresolvable_finite_delay_is_a_validation_error(self):
        # at zero walk-off the nodes are sized by the largest delay, and
        # here they overflow to inf: the message must still format
        crystal = CrystalParams(length_mm=10.0, walkoff_slope=0.0)
        grid = SpectralGrid.gauss_legendre(10.0, 64)
        with pytest.raises(ValidationError, match="needs at least inf"):
            nrf_trace([0.0, 1e308], crystal, PUMP, grid)

    def test_evenness(self, reference_traces):
        _, _, nrf, ped = reference_traces
        for trace in (nrf, ped):
            asym = np.max(np.abs(trace.value - trace.value[::-1]))
            assert asym <= 1e-8 * np.max(trace.value)

    def test_negative_delays_match_direct_evaluation(self, crystal, reference_traces):
        # evenness checked without the kernel's |tau| fold: negative delays,
        # denser near the narrow peak, evaluated one at a time
        tau, grid, nrf, ped = reference_traces
        i0 = len(tau) // 2
        idx = i0 - np.unique(np.geomspace(1, i0, 22).astype(int))
        assert np.all(tau[idx] < 0) and idx.size >= 20
        nrf_direct, ped_direct = direct_values(tau[idx], crystal, PUMP, grid)
        np.testing.assert_allclose(ped.value[idx], ped_direct, rtol=1e-10, atol=0)
        assert_nrf_matches_direct(tau[idx], crystal, nrf.value[idx], ped.value[idx], nrf_direct)

    def test_quadrature_grid_doubling(self, crystal):
        half = np.arange(0.0, 12.001, 0.5)
        tau = np.concatenate([-half[:0:-1], half])
        grid = default_grid(crystal, PUMP)
        doubled = SpectralGrid.gauss_legendre(omega_max_for(crystal, PUMP), 2 * len(grid))
        t1 = nrf_trace(tau, crystal, PUMP, grid)
        t2 = nrf_trace(tau, crystal, PUMP, doubled)
        assert np.max(np.abs(t1.value - t2.value) / np.abs(t2.value)) < 1e-11

    @pytest.mark.parametrize("g", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 4.0, math.pi / 2.0])
    def test_fock_oracle_equivalence_single_omega(self, g, phi):
        # single detuning, no walkoff, envelope frozen by a very long pulse;
        # phases with cos >= 0 keep the trace above the shot-noise floor the
        # Trace type enforces (phi = pi is covered at the oracle level)
        omega0 = 500.0
        crystal = CrystalParams(length_mm=10.0, walkoff_slope=0.0)
        pump = PumpParams(g_peak=g, t_p=1e6)
        tau = phi / (2.0 * omega0)
        trace = nrf_trace(np.array([tau]), crystal, pump, single_omega_grid(omega0))
        var_diff, n_total, _ = hom_stats(tmsv(g), phi)
        oracle = var_diff / n_total
        peak = 1.0 + math.sinh(g) ** 2 + math.cosh(g) ** 2
        assert trace.value[0] == pytest.approx(oracle, rel=1e-6, abs=1e-6 * peak)


class TestPedestalTrace:
    def test_single_mode_value_at_zero(self):
        crystal, pump = single_mode_setup(7.5)
        grid = single_omega_grid(1.0)
        trace = pedestal_trace(np.array([0.0]), crystal, pump, grid)
        assert trace.value[0] == pytest.approx(1.0 + math.sinh(7.5) ** 2, rel=1e-12)

    def test_baseline(self, reference_traces):
        _, _, _, ped = reference_traces
        assert abs(ped.value[0] - 1.0) < 1e-6

    def test_below_full_trace_at_zero_and_even(self, reference_traces):
        tau, _, nrf, ped = reference_traces
        i0 = len(tau) // 2
        assert ped.value[i0] <= nrf.value[i0]
        np.testing.assert_array_equal(ped.value, ped.value[::-1])


class TestDetectedTrace:
    def test_unit_efficiency_identity(self, reference_traces):
        _, _, nrf, _ = reference_traces
        det = DetectionModel(eta=1.0)
        out = detected_trace(nrf, det)
        np.testing.assert_array_equal(out.value, nrf.value)
        assert out.kind == "nrf_detected"

    def test_low_efficiency_single_mode_peak(self):
        crystal, pump = single_mode_setup(7.5)
        grid = single_omega_grid(1.0)
        trace = nrf_trace(np.array([0.0]), crystal, pump, grid)
        out = detected_trace(trace, DetectionModel(eta=0.03))
        expected = 1.0 + 0.03 * (1.0 + 2.0 * math.sinh(7.5) ** 2)
        assert expected == pytest.approx(4.904e4, rel=1e-3)
        assert out.value[0] == pytest.approx(expected, rel=1e-12)

    def test_shot_noise_fixed_point_exact(self):
        flat = Trace(
            tau=np.linspace(-1, 1, 5),
            value=np.ones(5),
            kind="nrf_ideal",
        )
        for eta in (0.03, 0.5, 1.0):
            out = detected_trace(flat, DetectionModel(eta=eta))
            np.testing.assert_array_equal(out.value, 1.0)

    def test_affine_commutes_with_subtraction(self, reference_traces):
        _, _, nrf, ped = reference_traces
        det = DetectionModel(eta=0.37)
        da = detected_trace(nrf, det)
        db = detected_trace(ped, det)
        lhs = da.value - db.value
        rhs = det.eta * (nrf.value - ped.value)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-9)

    def test_rejects_wrong_kind(self, reference_traces):
        _, grid, nrf, _ = reference_traces
        out = detected_trace(nrf, DetectionModel())
        with pytest.raises(ValidationError):
            detected_trace(out, DetectionModel())


class TestG2Trace:
    def test_edge_single_mode(self, crystal):
        grid = default_grid(crystal, PUMP)
        det = DetectionModel(m_modes=1)
        trace = g2_trace(np.array([-60.0, 0.0, 60.0][::1]), crystal, PUMP, grid, det)
        n_mode = math.sinh(7.5) ** 2
        assert trace.value[0] == pytest.approx(2.0 + 1.0 / n_mode, abs=1e-7)
        assert trace.value[0] == pytest.approx(2.00000122, abs=1e-6)

    def test_multimode_edge(self, crystal):
        grid = default_grid(crystal, PUMP)
        trace = g2_trace(np.array([-60.0, 0.0, 60.0]), crystal, PUMP, grid, DetectionModel())
        n_mode = math.sinh(7.5) ** 2
        expected = 1.0 + (1.0 + 1.0 / n_mode) / 10.0
        assert trace.value[0] == pytest.approx(expected, abs=1e-7)
        assert trace.value[0] == pytest.approx(1.100, abs=1e-3)

    def test_dip_visibility(self, crystal):
        half = np.arange(0.0, 60.0001, 0.05)
        tau = np.concatenate([-half[:0:-1], half])
        grid = default_grid(crystal, PUMP)
        trace = g2_trace(tau, crystal, PUMP, grid, DetectionModel())
        assert visibility(trace) == pytest.approx(0.022, abs=0.01)

    def test_singles_are_delay_independent(self, crystal):
        # the mean-signal normalization entering g2 comes from the
        # delay-free spectrum; evaluating the flux integral on the same
        # grid twice (as the trace machinery does per call) is exact
        from macrohom.gain import uv_arrays

        grid = default_grid(crystal, PUMP)
        _, v0 = uv_arrays(grid.omega, 0.0, crystal, PUMP)
        flux_a = float(np.sum(grid.weights * v0**2))
        _, v0b = uv_arrays(grid.omega, 0.0, crystal, PUMP)
        flux_b = float(np.sum(grid.weights * v0b**2))
        assert abs(flux_a - flux_b) <= 1e-10 * flux_a

    def test_zero_gain_rejected(self, crystal):
        grid = SpectralGrid.gauss_legendre(10.0, 64)
        with pytest.raises(ValidationError):
            g2_trace(np.array([0.0]), crystal, PumpParams(g_peak=0.0), grid, DetectionModel())


class TestVisibility:
    def test_constant_trace(self):
        t = Trace(tau=np.arange(3.0), value=np.full(3, 2.0), kind="g2")
        assert visibility(t) == 0.0

    def test_simple_values(self):
        t = Trace(tau=np.arange(3.0), value=np.array([3.0, 1.0, 2.0]), kind="g2")
        assert visibility(t) == pytest.approx(0.5, rel=1e-15)

    def test_reference_peak_visibility(self, reference_traces):
        _, _, nrf, _ = reference_traces
        det = DetectionModel()  # eta = 0.03
        assert visibility(detected_trace(nrf, det)) >= 0.999

    def test_degenerate(self):
        t = Trace(tau=np.arange(2.0), value=np.array([-2.0, 1.0]), kind="g2")
        with pytest.raises(ValidationError):
            visibility(t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trace_refuses_non_finite_values(bad):
    # the trace kernels stop overflowing weights earlier, so only a
    # hand-built trace reaches this check
    with pytest.raises(NumericalError, match=r"^nrf_ideal trace has non-finite values$"):
        Trace(tau=np.arange(3.0), value=np.array([1.0, bad, 2.0]), kind="nrf_ideal")


def triangle(tau, half_base):
    return np.clip(1.0 - np.abs(tau) / half_base, 0.0, None)


class TestFwhm:
    def test_triangular_component(self):
        tau = np.linspace(-5, 5, 2001)
        w = 1.7
        nrf = Trace(tau=tau, value=1.0 + triangle(tau, w), kind="nrf_ideal")
        ped = Trace(tau=tau, value=np.ones_like(tau), kind="nrf_pedestal")
        assert fwhm_narrow(nrf, ped) == pytest.approx(w, rel=1e-6)

    def test_gain_narrowing_ratio(self, crystal):
        rows = fwhm_vs_gain(delay_grid(6.0, 0.02), [5.5, 7.5], crystal, PUMP)
        ratio = rows[1][1] / rows[0][1]
        assert ratio == pytest.approx(0.80, abs=0.05)

    def test_affine_invariance(self, reference_traces):
        _, _, nrf, ped = reference_traces
        det = DetectionModel(eta=0.03)
        raw = fwhm_narrow(nrf, ped)
        scaled = fwhm_narrow(detected_trace(nrf, det), detected_trace(ped, det))
        assert scaled == pytest.approx(raw, rel=1e-9)

    def test_interpolation_bias_at_the_default_steps(self, crystal):
        # linear interpolation of the crossings overstates the narrow width
        # at G = 7.5: the sweep's 0.02 ps and the trace's 0.05 ps steps
        # against a 0.001 ps grid on the same nodes
        grid = default_grid(crystal, PUMP)

        def width(step):
            return fwhm_narrow(*nrf_and_pedestal(delay_grid(6.0, step), crystal, PUMP, grid))

        fine = width(0.001)
        for step, bound in ((0.02, 5e-5), (0.05, 1e-3)):
            assert 0.0 < width(step) / fine - 1.0 <= bound

    def test_unbracketed_crossing(self):
        tau = np.linspace(-0.1, 0.1, 11)
        nrf = Trace(tau=tau, value=1.0 + triangle(tau, 5.0), kind="nrf_ideal")
        ped = Trace(tau=tau, value=np.ones_like(tau), kind="nrf_pedestal")
        with pytest.raises(NumericalError, match="left half-maximum crossing"):
            fwhm_narrow(nrf, ped)


def pedestal_of(comp):
    """A pedestal trace on integer delays whose elevation is ``comp``."""
    comp = np.asarray(comp, dtype=float)
    tau = np.arange(comp.size, dtype=float) - comp.size // 2
    return Trace(tau=tau, value=1.0 + comp, kind="nrf_pedestal")


def two_scan_fwhm(tau, comp):
    """Reference half-maximum width: walk out from the peak on each side
    while samples stay >= half, then interpolate the crossing."""
    i_max = int(np.argmax(comp))
    half = 0.5 * comp[i_max]
    j = i_max
    while j > 0 and comp[j - 1] >= half:
        j -= 1
    left = tau[j - 1] + (half - comp[j - 1]) * (tau[j] - tau[j - 1]) / (comp[j] - comp[j - 1])
    j = i_max
    while j < len(comp) - 1 and comp[j + 1] >= half:
        j += 1
    right = tau[j] + (half - comp[j]) * (tau[j + 1] - tau[j]) / (comp[j + 1] - comp[j])
    return float(right - left)


class TestFwhmCrossings:
    def test_asymmetric_piecewise_linear(self):
        # half maximum 1.0: crossed at -1.5 between (-2, 0.5) and (-1, 1.5)
        # and at 2.5 between (2, 1.25) and (3, 0.75); dyadic values, so exact
        comp = [0.0, 0.0, 0.5, 1.5, 2.0, 1.75, 1.25, 0.75, 0.0]
        assert fwhm_pedestal(pedestal_of(comp)) == 4.0

    def test_peak_at_first_sample(self):
        with pytest.raises(NumericalError, match="left half-maximum crossing"):
            fwhm_pedestal(pedestal_of([2.0, 1.5, 0.5, 0.0, 0.0]))

    def test_peak_at_last_sample(self):
        with pytest.raises(NumericalError, match="right half-maximum crossing"):
            fwhm_pedestal(pedestal_of([0.0, 0.0, 0.5, 1.5, 2.0]))

    def test_bitwise_equal_to_two_scans(self):
        # skewed bumps with ripple, so plateaus and re-crossings above half occur
        rng = np.random.default_rng(8)
        tau = np.linspace(-10.0, 10.0, 801)
        for _ in range(50):
            centre, wl, wr = rng.uniform(-3, 3), rng.uniform(0.3, 3), rng.uniform(0.3, 3)
            width = np.where(tau < centre, wl, wr)
            comp = np.exp(-(((tau - centre) / width) ** 2)) + 0.05 * rng.random(tau.size)
            ped = Trace(tau=tau, value=1.0 + comp, kind="nrf_pedestal")
            assert fwhm_pedestal(ped) == two_scan_fwhm(tau, ped.value - 1.0)


class TestModeCounts:
    def test_reference_arithmetic(self):
        assert mode_count_g2(1.1, 8.17e5) == pytest.approx(10.0, abs=0.1)

    def test_single_mode(self):
        n = 8.17e5
        assert mode_count_g2(2.0 + 1.0 / n, n) == pytest.approx(1.0, rel=1e-9)

    def test_linear_scaling(self):
        n = 1e5
        m1 = mode_count_g2(1.2, n)
        m2 = mode_count_g2(1.1, n)
        assert m2 == pytest.approx(2.0 * m1, rel=1e-9)

    def test_no_excess_correlation(self):
        with pytest.raises(ValidationError):
            mode_count_g2(0.99, 1e5)

    def test_mode_count_long_reference_config(self, reference_traces):
        _, _, nrf, ped = reference_traces
        assert mode_count_long(nrf, ped) == pytest.approx(8.0, abs=2.0)

    def test_equal_widths_give_unity(self):
        tau = np.linspace(-10, 10, 4001)
        bump = np.exp(-(tau**2))
        ped = Trace(tau=tau, value=1.0 + bump, kind="nrf_pedestal")
        nrf = Trace(tau=tau, value=1.0 + 2.0 * bump, kind="nrf_ideal")
        assert mode_count_long(nrf, ped) == pytest.approx(1.0, rel=1e-9)

    def test_mode_count_grows_with_pulse_duration(self, crystal):
        counts = []
        for t_p in (9.0, 18.0, 36.0):
            pump = PumpParams(g_peak=7.5, t_p=t_p)
            half = np.arange(0.0, 80.0001, 0.05)
            tau = np.concatenate([-half[:0:-1], half])
            grid = default_grid(crystal, pump)
            nrf = nrf_trace(tau, crystal, pump, grid)
            ped = pedestal_trace(tau, crystal, pump, grid)
            counts.append(mode_count_long(nrf, ped))
        assert counts[0] < counts[1] < counts[2]
        assert counts[2] / counts[0] == pytest.approx(4.0, rel=0.25)


NO_GRID = "tau grid must be a nonempty 1-d sequence"
NO_MAXIMUM = "narrow component has no positive maximum on the delay grid |tau| <= 2 ps"
NOT_SHARED = "traces must share the same tau grid"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Trace(tau=[], value=[], kind="nrf_ideal"), NO_GRID),
        (lambda: Trace(tau=[[0.0, 1.0]], value=[[1.0, 1.0]], kind="nrf_ideal"), NO_GRID),
        (
            lambda: Trace(tau=[0.0, 1.0], value=[1.0], kind="nrf_ideal"),
            "tau and value must have equal length",
        ),
        (lambda: nrf_and_pedestal([], CrystalParams(), PUMP, SpectralGrid([1.0], [1.0])), NO_GRID),
        (lambda: _fwhm(np.arange(3.0), np.array([0.0, -1.0, -2.0]), "narrow"), NO_MAXIMUM),
        (lambda: _fwhm(np.arange(3.0), np.full(3, np.nan), "narrow"), NO_MAXIMUM),
        (
            lambda: fwhm_narrow(
                Trace([0.0, 1.0], [2.0, 2.0], "nrf_ideal"),
                Trace([0.0, 2.0], [1.0, 1.0], "nrf_pedestal"),
            ),
            NOT_SHARED,
        ),
        (
            lambda: mode_count_long(
                Trace([0.0, 1.0], [2.0, 2.0], "nrf_ideal"),
                Trace([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], "nrf_pedestal"),
            ),
            NOT_SHARED,
        ),
        (lambda: mode_count_g2(1.1, 0.0), "mode occupation must be > 0"),
        (lambda: mode_count_g2(1.1, -1.0), "mode occupation must be > 0"),
        (lambda: mode_count_g2(1.1, math.nan), "mode occupation must be > 0"),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        call()


class TestFwhmVsGain:
    def test_row_count_and_monotonicity(self, crystal):
        gs = [5.5, 6.0, 6.5, 7.0, 7.5]
        rows = fwhm_vs_gain(delay_grid(6.0, 0.02), gs, crystal, PUMP)
        assert len(rows) == len(gs)
        widths = [w for _, w in rows]
        assert all(b <= a for a, b in zip(widths, widths[1:]))

    def test_single_entry_consistency(self, crystal):
        tau = delay_grid(6.0, 0.02)
        rows = fwhm_vs_gain(tau, [7.5], crystal, PUMP)
        grid = default_grid(crystal, PUMP)
        nrf = nrf_trace(tau, crystal, PUMP, grid)
        ped = pedestal_trace(tau, crystal, PUMP, grid)
        assert rows[0][1] == pytest.approx(fwhm_narrow(nrf, ped), rel=1e-12)

    def test_gain_bounds(self, crystal):
        # no cap of its own: gain 0 has no spectral grid, and at gain 200
        # the trace overflows, both refused by the trace's own checks
        tau = delay_grid(6.0, 0.02)
        with pytest.raises(ValidationError, match="peak gain must be > 0"):
            fwhm_vs_gain(tau, [0.0], crystal, PUMP)
        ((g, width),) = fwhm_vs_gain(tau, [50.5], crystal, PUMP)
        assert g == 50.5 and 0.0 < width < math.inf
        with pytest.raises(NumericalError, match="non-finite"):
            fwhm_vs_gain(tau, [200.0], crystal, PUMP)

    @pytest.mark.parametrize("g", [12.0, 20.0, 50.0, 100.0, 170.0])
    def test_high_gain_narrow_width(self, crystal, g):
        # the same width from exactly rounded sums one delay at a time, and
        # from a grid with twice the cutoff and four times the nodes
        tau = delay_grid(6.0, 0.02)
        ((_, width),) = fwhm_vs_gain(tau, [g], crystal, PUMP)
        pump = replace(PUMP, g_peak=g)
        grid = default_grid(crystal, pump)
        nrf_direct, ped_direct = direct_values(tau, crystal, pump, grid)
        direct_width = _fwhm(tau, nrf_direct - ped_direct, "narrow")
        assert direct_width == pytest.approx(width, rel=1e-9)
        fine = SpectralGrid.gauss_legendre(2.0 * grid.omega_max, 4 * len(grid))
        assert fwhm_narrow(*nrf_and_pedestal(tau, crystal, pump, fine)) == pytest.approx(width, rel=1e-9)


class TestOnePassKernel:
    @pytest.mark.parametrize(
        "g, tau_max, tau_step", [(7.5, 80.0, 0.05), (5.5, 6.0, 0.02)]
    )
    def test_matches_separate_calls(self, crystal, g, tau_max, tau_step):
        pump = PumpParams(g_peak=g, t_p=18.0)
        half = np.arange(0.0, tau_max + tau_step / 2.0, tau_step)
        tau = np.concatenate([-half[:0:-1], half])
        grid = default_grid(crystal, pump)
        nrf, ped = nrf_and_pedestal(tau, crystal, pump, grid)
        assert (nrf.kind, ped.kind) == ("nrf_ideal", "nrf_pedestal")
        np.testing.assert_array_equal(nrf.value, nrf_trace(tau, crystal, pump, grid).value)
        np.testing.assert_array_equal(ped.value, pedestal_trace(tau, crystal, pump, grid).value)


class TestDelayFold:
    """The kernel runs once per distinct |tau|; any grid folds onto it."""

    TAU = np.array([-3.0, -1.0, 0.0, 1.0, 2.5, 3.0])  # mixed sign, |tau| unsorted, repeated

    def test_repeated_abs_delays_and_direct_evaluation(self, crystal):
        grid = default_grid(crystal, PUMP)
        nrf, ped = nrf_and_pedestal(self.TAU, crystal, PUMP, grid)
        for trace in (nrf, ped):
            assert trace.value[0] == trace.value[5]
            assert trace.value[1] == trace.value[3]
        nrf_direct, ped_direct = direct_values(self.TAU, crystal, PUMP, grid)
        np.testing.assert_allclose(nrf.value, nrf_direct, rtol=1e-12, atol=0)
        np.testing.assert_allclose(ped.value, ped_direct, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tau_max, tau_step", [(80.0, 0.05), (6.0, 0.02)])
    def test_one_sided_grid_equals_nonnegative_half(self, crystal, tau_max, tau_step):
        tau = delay_grid(tau_max, tau_step)
        half = tau[tau >= 0]
        grid = default_grid(crystal, PUMP)
        full = nrf_and_pedestal(tau, crystal, PUMP, grid)
        one_sided = nrf_and_pedestal(half, crystal, PUMP, grid)
        for whole, part in zip(full, one_sided):
            np.testing.assert_array_equal(part.value, whole.value[tau >= 0])


def delay_nodes(omega_max, tau):
    """At least 2048 nodes, and 8 per period of cos(2 w tau) over
    [0, omega_max]: a grid that resolves the cosine at ``tau`` itself,
    not only the walk-off that sizes the default grid."""
    return max(2048, math.ceil(8.0 * omega_max * tau / math.pi))


def interference_sum(g, crystal, omega_max, n, tau):
    """The truncated interference sum over D, sum w v0^2 Re(u0^2)
    cos(2 w tau) / sum w v0^2 on an n-node grid over [0, omega_max], with
    u0 and v0 written out here through a complex square root and summed
    exactly rounded: neither the kernel nor the gain module's branches."""
    grid = SpectralGrid.gauss_legendre(omega_max, n)
    w = grid.omega
    x = 0.5 * crystal.walkoff_slope * crystal.length_mm * w
    r = np.sqrt((g * g - x * x).astype(complex))
    s = (np.sinh(r) / r).real
    c = np.cosh(r).real
    coef = grid.weights * (g * s) ** 2
    return math.fsum(coef * (c * c - (x * s) ** 2) * np.cos(2.0 * tau * w)) / math.fsum(coef)


class TestInterferenceSupport:
    """The interference integrand is entire of exponential type 2 d L, so
    its cosine transform vanishes for |tau| > d L (Paley-Wiener) and the
    kernel sets it to 0 there.  Checked without the kernel: beyond d L the
    truncated sum is only the tail cutoff's residue and shrinks as the
    cutoff grows; inside, it converges to a nonzero value."""

    @pytest.mark.parametrize("tau", [3.0, 5.0, 10.0])
    @pytest.mark.parametrize("g", [0.5, 7.5])
    def test_truncated_sum_vanishes_beyond_walkoff(self, g, tau):
        pump = PumpParams(g_peak=g, t_p=18.0)
        crystal = calibrate_walkoff(1.3, pump)
        assert tau > crystal.walkoff_slope * crystal.length_mm
        om = omega_max_for(crystal, pump)
        n = delay_nodes(om, tau)
        cut = interference_sum(g, crystal, om, n, tau)
        wide = interference_sum(g, crystal, 4.0 * om, 4 * n, tau)
        assert 10.0 * abs(wide) <= abs(cut) < 1e-6

    @pytest.mark.parametrize("g", [0.5, 7.5])
    def test_truncated_sum_converges_inside(self, g):
        pump = PumpParams(g_peak=g, t_p=18.0)
        crystal = calibrate_walkoff(1.3, pump)
        tau = 0.5 * crystal.walkoff_slope * crystal.length_mm
        om = omega_max_for(crystal, pump)
        n = delay_nodes(om, tau)
        cut = interference_sum(g, crystal, om, n, tau)
        wide = interference_sum(g, crystal, 4.0 * om, 4 * n, tau)
        assert abs(cut) > 0.1 and cut == pytest.approx(wide, rel=1e-3)


class TestRowSums:
    """Both kernels sum blocks of at most 64 rows pairwise: the
    interference rows cos(2 w tau) and the pedestal rows S(q - x^2)^2."""

    @pytest.mark.parametrize("kernel", [_interference_sums, _pedestal_factor])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        g=st.floats(0.1, 50.0),
        n=st.integers(2, 640),
        span=st.floats(0.05, 3.0),
        oversampling=st.floats(1.0, 4.0),
        lattice=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_within_eight_eps_of_exact_rows(
        self, crystal, kernel, g, n, span, oversampling, lattice, seed
    ):
        # n delays spanning up to 3 d L, on a node grid that resolves them
        # (8 nodes per period of cos(2 w tau)) up to 4 times over: the
        # lattice i D that delay_grid builds, or n sorted delays drawn
        # uniformly; the pedestal rows take q = G(tau)^2 at those delays
        tau_max = span * crystal.walkoff_slope * crystal.length_mm
        if lattice:
            abs_tau = np.arange(n) * (tau_max / (n - 1))
        else:
            abs_tau = np.unique(np.random.default_rng(seed).uniform(0.0, tau_max, n))
        pump = PumpParams(g_peak=g, t_p=18.0)
        omega_max = omega_max_for(crystal, pump)
        nodes = int(oversampling * 8.0 * omega_max * abs_tau[-1] / math.pi) + 16
        grid = SpectralGrid.gauss_legendre(omega_max, nodes)
        u0, v0 = uv_arrays(grid.omega, 0.0, crystal, pump)
        if kernel is _interference_sums:
            coef = grid.weights * v0 * v0 * (u0.real**2 - u0.imag**2)
            values, node_row = abs_tau, grid.omega
            terms = [np.cos(2.0 * t * grid.omega) * coef for t in abs_tau]
        else:
            coef = grid.weights * v0 * v0
            values, node_row = gain_at(abs_tau, pump) ** 2, _half_angle(grid.omega, crystal) ** 2
            terms = [np.square(_sinc_branch(q - node_row)) * coef for q in values]
        got = kernel(values, node_row, coef)
        bound = 8.0 * np.finfo(float).eps * np.array([math.fsum(np.abs(t)) for t in terms])
        assert np.all(np.abs(got - [math.fsum(t) for t in terms]) <= bound)

    @pytest.mark.parametrize(
        "kernel, values, arrays",
        [
            (_interference_sums, np.arange(4000) * 5e-4, 1.25),
            (_interference_sums, np.arange(1, 257) * 5e-4, 1.25),
            (_pedestal_factor, np.linspace(0.0, 60.0, 256), 4.25),
        ],
        ids=["lattice", "off-lattice", "pedestal"],
    )
    def test_memory_per_row_block(self, kernel, values, arrays):
        # at 65 536 nodes, 13 times the largest default grid, both kernels
        # take blocks of 64 rows, of delays or of q (the pedestal reads the
        # node row as x^2), and hold a few node-sized rows besides: the
        # interference sums one (64 x node) array, worked in place, and the
        # pedestal at most four, q - x^2 and the three _sinc_branch forms
        nodes = 65536
        omega = np.linspace(0.0, 45.0, nodes)
        coef = np.random.default_rng(3).standard_normal(nodes)
        tracemalloc.start()
        try:
            kernel(values, omega, coef)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (arrays * 64 + 3) * nodes * 8


class TestDelayGrid:
    @pytest.mark.parametrize("tau_max, step", [(80.0, 0.05), (6.0, 0.02), (0.3, 0.1)])
    def test_symmetric_arange_grid(self, tau_max, step):
        half = np.arange(0.0, tau_max + step / 2.0, step)
        tau = delay_grid(tau_max, step)
        np.testing.assert_array_equal(tau, np.concatenate([-half[:0:-1], half]))
        np.testing.assert_array_equal(tau, -tau[::-1])
        assert tau.size == 2 * round(tau_max / step) + 1

    @pytest.mark.parametrize(
        "tau_max, step",
        [(1e300, 0.05), (80.0, 1e-300), (math.inf, 0.05), (math.nan, 0.05), (80.0, 0.0),
         (80.0, -0.05), (80.0, math.nan), (1.7e308, 1e308)],
    )
    def test_size_guard(self, tau_max, step):
        with pytest.raises(ValidationError, match="points per side"):
            delay_grid(tau_max, step)


class TestRequiredNodes:
    def test_reference_grid_size(self, crystal):
        assert len(default_grid(crystal, PUMP)) == 64

    def test_bound_at_every_admissible_gain(self, crystal):
        # omega_max d L = 2 x_max, and the tail cutoff keeps x_max below
        # about 1000, so no default grid passes 16 x 1000 / pi nodes
        # rounded up to whole 16-node panels, at any delays
        sizes = [len(default_grid(crystal, replace(PUMP, g_peak=float(g))))
                 for g in np.geomspace(1e-6, 355.5, 200)]
        assert max(sizes) == 5104

    def test_walkoff_rule_and_zero_walkoff_fallback(self):
        # 8 nodes per period of exp(2 i w T) over the span: T = d L when
        # it is > 0, else the largest |tau|
        assert required_nodes(math.pi, 2.0, 80.0) == pytest.approx(16.0, rel=1e-15)
        assert required_nodes(math.pi, 0.0, -80.0) == pytest.approx(640.0, rel=1e-15)
        assert required_nodes(math.pi, 0.0) == 0.0


class TestDefaultGridConvergence:
    """Both integrands are entire in w of exponential type at most 4 d L,
    and Gauss-Legendre sums converge geometrically on such functions: on
    the default grid, 8 nodes per period of exp(2 i w d L), they have
    converged, and doubling the nodes over the same cutoff moves nrf and
    the pedestal only by rounding, at any delay.  The draws keep d L at
    most 0.3 of the pulse width, as at the reference (0.11): a longer
    walk-off against a shorter pulse at high gain leaves nrf inside d L
    dominated by the interference sum's rounding, which no node count
    changes and ``nrf_and_pedestal`` refuses past 1e-6."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        g=st.floats(0.05, 60.0),
        length=st.floats(5.0, 15.0),
        slope=st.floats(0.1, 0.3),
        t_p=st.floats(15.0, 30.0),
    )
    def test_doubling_moves_nothing(self, g, length, slope, t_p):
        crystal = CrystalParams(length_mm=length, walkoff_slope=slope)
        pump = PumpParams(g_peak=g, t_p=t_p)
        dl = slope * length
        # a lattice to beyond d L, and the pedestal's decay over the pulse
        tau = np.unique(np.concatenate([np.linspace(-1.5 * dl, 1.5 * dl, 61),
                                        np.linspace(-4.0 * t_p, 4.0 * t_p, 81)]))
        grid = default_grid(crystal, pump)
        doubled = SpectralGrid.gauss_legendre(omega_max_for(crystal, pump), 2 * len(grid))
        for coarse, fine in zip(nrf_and_pedestal(tau, crystal, pump, grid),
                                nrf_and_pedestal(tau, crystal, pump, doubled)):
            assert np.max(np.abs(coarse.value - fine.value) / fine.value) <= 1e-11


class TestTraceType:
    def test_monotone_tau_required(self):
        with pytest.raises(ValidationError):
            Trace(tau=np.array([0.0, 0.0]), value=np.ones(2), kind="g2")

    def test_shot_noise_floor_enforced(self):
        with pytest.raises(ValidationError):
            Trace(tau=np.arange(2.0), value=np.array([0.5, 1.0]), kind="nrf_ideal")

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            Trace(tau=np.arange(2.0), value=np.ones(2), kind="bogus")


# default [sweep] gains, 5.5 to 7.5 in steps of 0.2, and two above them
SWEEP_GAINS = [round(5.5 + 0.2 * i, 1) for i in range(11)] + [9.5, 12.0]


def half_grid(tau_max, tau_step):
    """The distinct |tau| of delay_grid(tau_max, tau_step)."""
    tau = delay_grid(tau_max, tau_step)
    return tau[tau >= 0]


def assert_pedestal_matches_direct(g, tau, check_nrf=True):
    """nrf_and_pedestal against direct_values at every delay of ``tau``, on
    the default grid of the crystal calibrated at gain ``g``: the pedestal
    everywhere, nrf by :func:`assert_nrf_matches_direct`."""
    pump = PumpParams(g_peak=g, t_p=18.0)
    crystal = calibrate_walkoff(1.3, pump)
    tau = np.asarray(tau, dtype=float)
    grid = default_grid(crystal, pump)
    nrf, ped = nrf_and_pedestal(tau, crystal, pump, grid)
    nrf_direct, ped_direct = direct_values(tau, crystal, pump, grid)
    np.testing.assert_allclose(ped.value, ped_direct, rtol=1e-11, atol=0)
    assert_nrf_matches_direct(tau, crystal, nrf.value, ped.value, nrf_direct, check_nrf)


class TestPedestalInterpolation:
    """The pedestal sum q F(q), q = G(tau)^2, with log F interpolated or F
    evaluated directly, against exactly rounded sums one delay at a time."""

    @pytest.mark.parametrize("g", [0.5, 7.5, 11.0])
    def test_calibrated_crystal_at_each_gain(self, g):
        # at G = 0.5 the tail cutoff x_max is about 960, so the default
        # grid takes 4896 nodes, near the largest any gain gives
        assert_pedestal_matches_direct(g, half_grid(12.0, 0.1))

    @pytest.mark.parametrize("g", [7.5, 11.0])
    def test_whole_pedestal_decay(self, g):
        # the reference trace range, down to q of about 1e-22; at G = 11 the
        # interference sum's own rounding (about eps cosh^2 G against the
        # shot-noise baseline, 1e-8 relative to exactly rounded sums) is
        # beyond nrf's 1e-10, so there nrf is checked only beyond d L,
        # where it equals the pedestal
        assert_pedestal_matches_direct(g, half_grid(80.0, 0.05), check_nrf=g < 11.0)

    @pytest.mark.parametrize("g", SWEEP_GAINS)
    def test_sweep_grid(self, g):
        assert_pedestal_matches_direct(g, half_grid(6.0, 0.02))

    @pytest.mark.parametrize(
        "tau",
        [
            [0.0],
            [4.0],
            [0.0, 4.0],
            [-2.5, 2.5],  # one distinct |tau|
            np.arange(-8.0, 0.5, 0.5),  # 17 distinct |tau|: no fewer evaluations
            np.arange(0.0, 9.0, 0.5),  # 18 distinct |tau|: the smallest interpolated set
        ],
        ids=["zero", "one", "two", "repeated", "17", "18"],
    )
    def test_few_delays(self, tau):
        assert_pedestal_matches_direct(7.5, tau)

    def test_reference_trace_interpolates(self, crystal, monkeypatch):
        # a wrong interpolant never converges and falls back to one direct
        # evaluation per distinct |tau|, which the comparisons above cannot
        # tell from a right one: count the evaluations of F instead
        import macrohom.trace as trace_module

        evaluated = []
        factor = trace_module._pedestal_factor

        def counting(q, x2, coef):
            evaluated.append(q.size)
            return factor(q, x2, coef)

        monkeypatch.setattr(trace_module, "_pedestal_factor", counting)
        tau = delay_grid(80.0, 0.05)
        nrf_and_pedestal(tau, crystal, PUMP, default_grid(crystal, PUMP))
        assert sum(evaluated) <= 65 < np.unique(np.abs(tau)).size

    def test_every_gain_underflowed(self):
        # G(tau) is 0.0 beyond about 417 ps at the reference pulse: the q
        # span is zero and the pedestal is exactly shot noise
        tau = np.arange(450.0, 550.0, 5.0)
        pump = PumpParams(g_peak=7.5, t_p=18.0)
        assert np.all(gain_at(tau, pump) == 0.0)
        assert_pedestal_matches_direct(7.5, tau)
        crystal = calibrate_walkoff(1.3, pump)
        _, ped = nrf_and_pedestal(tau, crystal, pump, default_grid(crystal, pump))
        np.testing.assert_array_equal(ped.value, 1.0)
