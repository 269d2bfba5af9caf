import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from macrohom import gain
from macrohom.errors import NumericalError, ValidationError
from macrohom.gain import (
    _half_angle,
    calibrate_walkoff,
    fit_gain_curve,
    gain_at,
    omega_max_for,
    spectral_fwhm_nm,
    spectrum,
    uv_arrays,
)
from macrohom.params import C_NM_PER_PS, CrystalParams, PumpParams, SpectralGrid

REF_PUMP = PumpParams(g_peak=7.5, t_p=18.0)
GAIN_CURVE_CSV = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "gain_curve.csv")


def crystal_with(d):
    return CrystalParams(length_mm=10.0, walkoff_slope=d)


def uv_at(omega, t, crystal, pump):
    """(u, v) at one detuning, as Python scalars."""
    u, v = uv_arrays(np.array([float(omega)]), t, crystal, pump)
    return complex(u[0]), float(v[0])


def uniform_grid(omega_max, n):
    """n evenly spaced detunings from 0 to omega_max; the spectrum reads
    only the nodes, so the weights are plain ones."""
    return SpectralGrid(np.linspace(0.0, omega_max, n), np.ones(n))


class TestHalfAngle:
    def test_zero_detuning(self):
        assert _half_angle(0.0, crystal_with(0.2)) == 0.0

    def test_linear_definition(self):
        # x = 0.2 ps/mm * 1 rad/ps * 10 mm / 2
        assert _half_angle(1.0, crystal_with(0.2)) == pytest.approx(1.0, rel=1e-15)

    def test_odd(self):
        omega = np.linspace(-30, 30, 101)
        c = crystal_with(0.37)
        np.testing.assert_allclose(_half_angle(-omega, c), -_half_angle(omega, c), rtol=0, atol=0)


class TestGainAt:
    def test_peak_value(self):
        assert gain_at(0.0, REF_PUMP) == pytest.approx(7.5, rel=1e-15)

    def test_reference_operating_point(self):
        pump = PumpParams(g_peak=7.5, t_p=18.0)
        assert gain_at(0.0, pump) == 7.5

    def test_intensity_envelope_half_maximum_at_half_fwhm(self):
        # exp(-t^2/sigma_a^2) = G(t)^2/g_peak^2 must reach 1/2 at |t| = t_p/2
        pump = PumpParams(g_peak=3.0, t_p=18.0)
        for t in (9.0, -9.0):
            ratio = (gain_at(t, pump) / pump.g_peak) ** 2
            assert ratio == pytest.approx(0.5, rel=1e-12)

    def test_field_envelope_fwhm_is_sqrt2_tp(self):
        pump = PumPParams = PumpParams(g_peak=2.0, t_p=10.0)
        t_half = pump.t_p * math.sqrt(2.0) / 2.0
        assert gain_at(t_half, pump) == pytest.approx(pump.g_peak / 2.0, rel=1e-12)


class TestUV:
    def test_degenerate_high_gain_closed_form(self):
        u, v = uv_at(0.0, 0.0, crystal_with(0.2), REF_PUMP)
        assert u.real == pytest.approx(math.cosh(7.5), rel=1e-13)
        assert u.imag == 0.0
        assert v == pytest.approx(math.sinh(7.5), rel=1e-13)
        # values quoted to four decimals
        assert u.real == pytest.approx(904.0215, abs=5e-4)
        assert v == pytest.approx(904.0209, abs=5e-4)
        assert abs(u) ** 2 - v**2 == pytest.approx(1.0, rel=1e-10)

    def test_zero_gain_pure_phase(self):
        pump = PumpParams(g_peak=0.0, t_p=18.0)
        c = crystal_with(0.3)
        for omega in (0.5, 2.0, 11.0):
            u, v = uv_at(omega, 0.0, c, pump)
            phi = float(_half_angle(omega, c))
            assert u == pytest.approx(complex(math.cos(phi), math.sin(phi)), rel=1e-12)
            assert v == 0.0

    def test_unitarity_random_sweep(self):
        rng = np.random.default_rng(20260811)
        n = 10_000
        omegas = rng.uniform(-50, 50, n)
        ts = rng.uniform(-40, 40, n)
        gs = rng.uniform(0, 10, n)
        ds = rng.uniform(0, 1.5, n)
        worst = 0.0
        for omega, t, g, d in zip(omegas, ts, gs, ds):
            pump = PumpParams(g_peak=g, t_p=18.0)
            u, v = uv_arrays(np.array([omega]), t, crystal_with(d), pump)
            residual = abs(abs(u[0]) ** 2 - v[0] ** 2 - 1.0)
            # relative: the subtraction cancels ~|u|^2-sized terms
            worst = max(worst, residual / max(1.0, abs(u[0]) ** 2))
        assert worst < 1e-10

    def test_branch_continuity_at_zero(self):
        # compare the series region against branch formulas just outside it
        from macrohom.gain import _cosh_branch, _sinc_branch

        for z in (1e-6, -1e-6):
            series = _cosh_branch(np.array([z * 0.999999]))[0]
            branch = _cosh_branch(np.array([z * 1.000001]))[0]
            assert series == pytest.approx(branch, abs=1e-8)
            series = _sinc_branch(np.array([z * 0.999999]))[0]
            branch = _sinc_branch(np.array([z * 1.000001]))[0]
            assert series == pytest.approx(branch, abs=1e-8)
        # series value itself matches the analytic limit at z=0
        assert _cosh_branch(np.array([0.0]))[0] == 1.0
        assert _sinc_branch(np.array([0.0]))[0] == 1.0

    def test_branches_bitwise_equal_to_gather_formulas(self):
        # the masked-ufunc branch functions against the gather/scatter
        # formulas: z > 0, z < 0, and 1 at z = 0 (a NaN stays NaN), on
        # both signs near |z| = 1e-6, +-0, NaN, +-inf and 0-d inputs
        from macrohom.gain import _cosh_branch, _sinc_branch

        def gathered(z, far_pos, far_neg):
            z = np.asarray(z, dtype=float)
            out = np.full_like(z, math.nan)
            pos, neg = z > 0, z < 0
            out[pos] = far_pos(z[pos])
            out[neg] = far_neg(z[neg])
            out[z == 0] = 1.0
            return out

        def cosh_ref(z):
            return gathered(z, lambda zp: np.cosh(np.sqrt(zp)), lambda zn: np.cos(np.sqrt(-zn)))

        def sinc_ref(z):
            def sinh_over(zp):
                sp = np.sqrt(zp)
                return np.sinh(sp) / sp

            def sin_over(zn):
                sn = np.sqrt(-zn)
                return np.sin(sn) / sn

            return gathered(z, sinh_over, sin_over)

        c = 1e-6
        edges = [c, -c, np.nextafter(c, 0.0), np.nextafter(-c, 0.0),
                 np.nextafter(c, 1.0), np.nextafter(-c, -1.0)]
        rng = np.random.default_rng(7)
        z = np.concatenate([
            edges,
            [0.0, -0.0, 5e-7, -5e-7, 1.0, -1.0, -math.pi**2, 56.25, -400.0, 1e4, math.nan,
             math.inf, -math.inf, 5e-324, -5e-324],
            # contiguous runs and short alternations of the branches
            np.linspace(-60.0, 60.0, 1001),
            rng.uniform(-2e-6, 2e-6, 500),
            56.25 - rng.uniform(0.0, 450.0, 2000),
        ])
        block = z[: 64 * 40].reshape(64, 40)
        with np.errstate(invalid="ignore"):  # sinh(inf)/inf and sin(inf) are NaN
            for fn, ref in ((_cosh_branch, cosh_ref), (_sinc_branch, sinc_ref)):
                for arg in (z, block, block.T):
                    got = fn(arg)
                    assert got.shape == arg.shape
                    assert got.tobytes() == ref(arg).tobytes()
                for value in z[:21]:
                    got = fn(np.float64(value))
                    assert got.shape == ()
                    assert got.tobytes() == ref(value).tobytes()

    def test_branches_match_the_taylor_series_near_zero(self):
        # the direct forms against the four-term Taylor series, which is
        # exact to rounding for |z| < 1e-6 (the next term is below 1e-24)
        from macrohom.gain import _cosh_branch, _sinc_branch

        rng = np.random.default_rng(11)
        z = np.concatenate([
            [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324],
            rng.uniform(-1e-6, 1e-6, 2000),
            np.nextafter(1e-6, 0.0) * np.array([1.0, -1.0]),
            10.0 ** rng.uniform(-30.0, -6.0, 1000) * rng.choice([-1.0, 1.0], 1000),
        ])
        cosh_series = 1.0 + z / 2.0 + z * z / 24.0 + z * z * z / 720.0
        sinc_series = 1.0 + z / 6.0 + z * z / 120.0 + z * z * z / 5040.0
        for fn, series in ((_cosh_branch, cosh_series), (_sinc_branch, sinc_series)):
            got = fn(z)
            assert np.all(np.abs(got - series) <= 2.0 * np.spacing(series))
            # and as 0-d inputs
            for value, want in zip(z[:6], series[:6]):
                assert abs(float(fn(np.float64(value))) - want) <= 2.0 * np.spacing(want)
        for k in range(z.size):
            g = 1.0 + abs(z[k])  # x^2 = g^2 - z, rounded: z is recomputed below
            x = math.sqrt(max(g * g - z[k], 0.0))
            zk = g * g - x * x
            series = abs(g * (1.0 + zk / 6.0 + zk * zk / 120.0 + zk * zk * zk / 5040.0))
            assert abs(gain._v_abs_scalar(g, x) - series) <= 2.0 * np.spacing(series)

    def test_conjugation_symmetry(self):
        c = crystal_with(0.41)
        pump = PumpParams(g_peak=4.2, t_p=18.0)
        omega = np.linspace(0.1, 40, 57)
        up, vp = uv_arrays(omega, 3.0, c, pump)
        um, vm = uv_arrays(-omega, 3.0, c, pump)
        np.testing.assert_allclose(um, np.conj(up), rtol=1e-14)
        np.testing.assert_allclose(vm, vp, rtol=1e-14)

    def test_gain_monotonicity_at_degeneracy(self):
        values = []
        for g in (0.5, 1.0, 2.0, 4.0, 7.5):
            pump = PumpParams(g_peak=g, t_p=18.0)
            _, v = uv_at(0.0, 0.0, crystal_with(0.2), pump)
            assert v**2 == pytest.approx(math.sinh(g) ** 2, rel=1e-12)
            values.append(v**2)
        assert all(b > a for a, b in zip(values, values[1:]))


class TestSpectrum:
    def test_zero_gain_all_zeros(self):
        pump = PumpParams(g_peak=0.0, t_p=18.0)
        grid = uniform_grid(10.0, 64)
        np.testing.assert_array_equal(spectrum(grid, crystal_with(0.2), pump), 0.0)

    def test_peak_entry_closed_form(self):
        grid = uniform_grid(10.0, 64)
        spec = spectrum(grid, crystal_with(0.2), REF_PUMP)
        assert grid.omega[0] == 0.0
        assert spec[0] == pytest.approx(math.sinh(7.5) ** 2, rel=1e-12)

    def test_monotone_on_main_lobe(self):
        c = crystal_with(0.2)
        g = REF_PUMP.g_peak
        # main lobe: up to the first zero of v at x = sqrt(g^2 + pi^2)
        omega_zero = 2.0 * math.sqrt(g**2 + math.pi**2) / (c.walkoff_slope * c.length_mm)
        grid = uniform_grid(omega_zero * 0.999, 400)
        spec = spectrum(grid, c, REF_PUMP)
        assert np.all(np.diff(spec) <= 1e-12 * spec[0])


class TestSpectralFwhm:
    def test_calibration_closure(self):
        crystal = calibrate_walkoff(1.3, REF_PUMP, length_mm=10.0)
        assert crystal.walkoff_slope > 0
        assert spectral_fwhm_nm(crystal, REF_PUMP) == pytest.approx(1.3, abs=1e-3)

    def test_scaling_in_walkoff_length_product(self):
        base = crystal_with(0.2)
        doubled = crystal_with(0.4)
        f1 = spectral_fwhm_nm(base, REF_PUMP)
        f2 = spectral_fwhm_nm(doubled, REF_PUMP)
        assert f2 == pytest.approx(f1 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("g", [0.5, 1.0, 4.0, 7.5, 12.0])
    def test_half_maximum_at_returned_width(self, g):
        # read omega_half back off the width in nm and evaluate |v|^2 there
        pump = PumpParams(g_peak=g, t_p=18.0)
        crystal = calibrate_walkoff(1.3, pump)
        fwhm = spectral_fwhm_nm(crystal, pump)
        omega_half = 0.5 * fwhm * 2.0 * math.pi * C_NM_PER_PS / pump.lambda_deg**2
        _, v = uv_arrays(np.array([omega_half]), 0.0, crystal, pump)
        assert v[0] ** 2 == pytest.approx(0.5 * math.sinh(g) ** 2, rel=1e-10)

    def test_gain_broadening(self):
        c = crystal_with(0.2)
        f_hi = spectral_fwhm_nm(c, PumpParams(g_peak=7.5, t_p=18.0))
        f_lo = spectral_fwhm_nm(c, PumpParams(g_peak=5.5, t_p=18.0))
        assert f_hi > f_lo

    def test_tail_rule(self):
        c = crystal_with(0.2)
        omega_max = omega_max_for(c, REF_PUMP)
        _, v = uv_arrays(np.array([omega_max]), 0.0, c, REF_PUMP)
        assert v[0] ** 2 < 1e-6 * math.sinh(7.5) ** 2

    @pytest.mark.parametrize("g", [1e-150, 1e-3, 0.5, 7.5, 12.0, 300.0])
    def test_tail_rule_closed_form(self, g):
        # bitwise the envelope bound 2 x_max / (d L) wherever it is finite
        c = crystal_with(0.2)
        x_max = g * math.sqrt(1.0 + 1.0 / (1e-6 * math.sinh(g) ** 2))
        expected = 2.0 * x_max / (c.walkoff_slope * c.length_mm)
        assert omega_max_for(c, PumpParams(g_peak=g)) == expected

    @pytest.mark.parametrize("g, d", [(1e-155, 0.2), (1e-200, 0.2), (7.5, 1e-310)])
    def test_tail_rule_rejects_infinite_cutoff(self, g, d):
        # sinh^2 G underflows to zero, or the cutoff overflows
        with pytest.raises(ValidationError, match="no finite grid"):
            omega_max_for(crystal_with(d), PumpParams(g_peak=g))


class TestCalibrateWalkoff:
    def test_monotone_in_target(self):
        targets = (0.8, 1.3, 2.6)
        slopes = [calibrate_walkoff(t, REF_PUMP).walkoff_slope for t in targets]
        assert slopes[0] > slopes[1] > slopes[2]

    def test_gain_dependence(self):
        d_hi = calibrate_walkoff(1.3, PumpParams(g_peak=7.5, t_p=18.0)).walkoff_slope
        d_lo = calibrate_walkoff(1.3, PumpParams(g_peak=5.5, t_p=18.0)).walkoff_slope
        assert d_hi != pytest.approx(d_lo, rel=1e-3)

    @pytest.mark.parametrize("g", [0.5, 1.0, 4.0, 5.5, 12.0])
    def test_matches_dense_half_maximum_search(self, g):
        # half-maximum crossing of the main lobe on a dense detuning grid at
        # unit slope; the FWHM scales as 1/slope, so the slope giving 1.3 nm
        # is the unit-slope FWHM over 1.3 nm
        pump = PumpParams(g_peak=g, t_p=18.0)
        unit = CrystalParams(length_mm=10.0, walkoff_slope=1.0)
        omega_zero = 2.0 * math.sqrt(g**2 + math.pi**2) / unit.length_mm
        omega = np.linspace(0.0, omega_zero, 200_001)
        _, v = uv_arrays(omega, 0.0, unit, pump)
        excess = v * v - 0.5 * math.sinh(g) ** 2
        j = int(np.argmax(excess < 0))
        omega_half = omega[j - 1] + excess[j - 1] * (omega[j] - omega[j - 1]) / (
            excess[j - 1] - excess[j]
        )
        unit_fwhm = pump.lambda_deg**2 * 2.0 * omega_half / (2.0 * math.pi * C_NM_PER_PS)
        slope = calibrate_walkoff(1.3, pump).walkoff_slope
        assert slope == pytest.approx(unit_fwhm / 1.3, rel=1e-6)

    def test_reference_slope(self):
        slope = calibrate_walkoff(1.3, REF_PUMP, length_mm=10.0).walkoff_slope
        assert slope == pytest.approx(0.19898926491958538, abs=1e-12)

    def test_invalid_target(self):
        with pytest.raises(ValidationError):
            calibrate_walkoff(-1.0, REF_PUMP)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_walkoff(1.3, PumpParams(g_peak=0.0, t_p=18.0))


class TestHalfMaxBisection:
    """``gain._half_max_angle`` bisects to adjacent floats: the root it
    returns brackets the crossing with a float neighbour, and it agrees
    with ``scipy.optimize.brentq`` as an independent reference."""

    GAINS = [1e-3, 0.5, 5.5, 7.5, 12.0, 100.0, 221.617772929776, 300.0, 355.5]

    @staticmethod
    def excess(g, x):
        return gain._v_abs(g, np.array([x]))[0] ** 2 - 0.5 * math.sinh(g) ** 2

    @pytest.mark.parametrize("g", GAINS)
    def test_sign_change_at_a_float_neighbour(self, g):
        x = gain._half_max_angle(g)
        assert type(x) is float
        f = self.excess(g, x)
        neighbours = (self.excess(g, np.nextafter(x, d)) for d in (-math.inf, math.inf))
        assert f == 0.0 or any(np.sign(fn) != np.sign(f) for fn in neighbours)

    @pytest.mark.parametrize("g", GAINS)
    def test_matches_scipy_brentq(self, g):
        from scipy.optimize import brentq

        x_zero = math.sqrt(g * g + math.pi**2)
        ref = brentq(lambda x: self.excess(g, x), 0.0, x_zero, xtol=1e-15, maxiter=500)
        assert gain._half_max_angle(g) == pytest.approx(ref, rel=1e-14)


def test_scalar_v_abs_matches_array():
    # the half-maximum solve evaluates |v| one float at a time in math;
    # both forms share every rounding step but sinh and sin, where libm and
    # numpy may differ by an ulp or two: at G = 1.7319, x = 1.4570 libm's
    # sinh is 1 ulp low, numpy's is exact, and the two |v| are 3 ulp apart
    rng = np.random.default_rng(2024)
    g = np.concatenate([rng.uniform(0.0, 355.0, 2000), rng.uniform(0.0, 3.0, 2000)])
    x = g * rng.uniform(0.0, 2.0, g.size)
    x[-200:] = np.sqrt(g[-200:] ** 2 + rng.uniform(-1e-6, 1e-6, 200))  # |z| < 1e-6
    x[-10:] = g[-10:]  # z = 0
    z = g * g - x * x
    assert np.count_nonzero(z == 0) >= 10 and np.count_nonzero((z != 0) & (np.abs(z) < 1e-6)) > 100
    want = gain._v_abs(g, x)
    got = np.array([gain._v_abs_scalar(float(a), float(b)) for a, b in zip(g, x)])
    assert np.all(np.abs(got - want) <= 3.0 * np.spacing(want))


def test_gauss_legendre_rule_built_once_gives_the_same_grids():
    # the 16-point rule is cached per process; a one-panel grid is still
    # the fresh rule mapped onto [0, omega_max], call after call
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(16)
    for omega_max in (37.3, 5.0, 37.3):
        grid = SpectralGrid.gauss_legendre(omega_max, 16)
        half = 0.5 * (omega_max - 0.0)
        np.testing.assert_array_equal(grid.omega, 0.5 * (omega_max + 0.0) + half * x)
        np.testing.assert_array_equal(grid.weights, half * w)


def test_import_boundary_loads_no_scipy():
    # the package needs numpy only: no command, the gain fit included,
    # pays about 0.5 s and 40 MB for importing scipy
    src = os.path.dirname(os.path.dirname(gain.__file__))
    code = textwrap.dedent(
        """
        import os, sys, tempfile
        from macrohom.cli import main
        from macrohom.gain import fit_gain_curve

        fit_gain_curve([5.0, 20.0, 55.0], [22.5, 2119.0, 817254.0])
        configs = {
            "trace": "", "g2": "", "calibrate": "",
            "sweep-gain": "[sweep]\\ng_values = 7.5\\n",
            "fit-gain": f"[fit]\\ndata = {sys.argv[1]}\\n",
            "mc": "[detection]\\npulses = 8\\n[mc]\\ntau_points = 0.0\\n",
        }
        with tempfile.TemporaryDirectory() as tmp:
            for command, text in configs.items():
                cfg = os.path.join(tmp, "run.ini")
                with open(cfg, "w") as fh:
                    fh.write(text)
                assert main([command, "--config", cfg, "--out", tmp]) == 0, command
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, GAIN_CURVE_CSV],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "[]"


def test_import_boundary_leaves_numpy_polynomial_to_the_kernels():
    # numpy loads numpy.polynomial lazily; the quadrature grid and the
    # pedestal interpolant reach it at call time, so start-up never pays
    # for it
    src = os.path.dirname(os.path.dirname(gain.__file__))
    code = (
        "import sys\n"
        "import macrohom.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
        "from macrohom.params import CrystalParams, PumpParams\n"
        "from macrohom.trace import default_grid, delay_grid, nrf_and_pedestal\n"
        "crystal, pump = CrystalParams(), PumpParams()\n"
        "nrf_and_pedestal(delay_grid(3.0, 0.1), crystal, pump, default_grid(crystal, pump))\n"
        "print('numpy.polynomial.chebyshev' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:2] == ["[]", "True"]


class TestFitGainCurve:
    def test_noise_free_closure(self):
        c_true = 7.5 / math.sqrt(55.0)
        powers = np.linspace(5.0, 55.0, 11)
        intens = np.sinh(c_true * np.sqrt(powers)) ** 2
        c, scale = fit_gain_curve(powers, intens)
        assert c == pytest.approx(c_true, rel=1e-3)
        assert scale == pytest.approx(1.0, rel=1e-3)
        # reference anchor: G = 7.5 at 55 mW is ~8.17e5 photons per mode
        assert math.sinh(c * math.sqrt(55.0)) ** 2 == pytest.approx(8.17e5, rel=1e-2)

    def test_degenerate_data(self):
        with pytest.raises(ValidationError):
            fit_gain_curve([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        c_true = 0.9
        powers = np.linspace(2.0, 40.0, 9)
        intens = 3.0 * np.sinh(c_true * np.sqrt(powers)) ** 2
        intens *= 1.0 + 0.002 * rng.standard_normal(intens.size)
        c1, s1 = fit_gain_curve(powers, intens)
        k = 17.5
        c2, s2 = fit_gain_curve(powers, k * intens)
        assert c2 == pytest.approx(c1, rel=1e-6)
        assert s2 == pytest.approx(k * s1, rel=1e-6)

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            fit_gain_curve([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "powers, intens",
        [
            ([1.0, 2.0, 3.0], [1.0, math.nan, 5.0]),
            ([1.0, 2.0, 3.0], [1.0, math.inf, 5.0]),
            ([1.0, math.inf, 3.0], [1.0, 3.0, 5.0]),
        ],
    )
    def test_non_finite_data_rejected(self, powers, intens):
        with pytest.raises(ValidationError, match="must be finite"):
            fit_gain_curve(powers, intens)

    @pytest.mark.parametrize(
        "powers, intens",
        [
            ([5.0, 20.0, 55.0], [1e308, 1e308, 1e308]),
            ([5.0, 20.0, 1e300], [1.0, 300.0, 1e6]),
            # exact data with sinh argument 179 at 55 mW, where s.s overflows
            (
                [5.0, 20.0, 55.0],
                np.sinh(179.0 / math.sqrt(55.0) * np.sqrt([5.0, 20.0, 55.0])) ** 2,
            ),
        ],
    )
    def test_overflowing_model_is_fit_error(self, powers, intens):
        with pytest.raises(NumericalError, match="gain-curve fit failed"):
            fit_gain_curve(powers, intens)

    def test_point_at_vanishing_power_matches_brute_force_scan(self):
        # the model is 0 at 1e-300 mW and fits the other two points
        # exactly: a finite minimum at residual 1
        powers = np.array([1e-300, 20.0, 55.0])
        intens = np.array([1.0, 300.0, 1e6])
        c, scale = fit_gain_curve(powers, intens)
        grid = np.linspace(0.01, 30.0, 300_001)
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.sinh(np.outer(grid, np.sqrt(powers))) ** 2
            scales = (s @ intens) / np.einsum("ij,ij->i", s, s)
            scanned = np.sum((intens - scales[:, None] * s) ** 2, axis=1)
        best = int(np.nanargmin(scanned))
        assert abs(c - grid[best]) <= grid[1] - grid[0]
        assert profiled_residual(powers, intens, c) <= scanned[best] * (1.0 + 1e-12)
        assert (c, scale) == pytest.approx((1.37764, 5.343e-3), rel=1e-4)
        assert profiled_residual(powers, intens, c) == pytest.approx(1.0, rel=1e-9)

    def test_flat_profile_is_fit_error(self):
        # with the largest power 10^e mW, the profiled residual falls
        # towards c = 0 by less than 1e-(e - 6) relative: there is no finite
        # minimum, and no root of the rounding noise may be returned
        for exponent in range(8, 301, 4):
            with pytest.raises(NumericalError, match="gain-curve fit failed"):
                fit_gain_curve([5.0, 20.0, 10.0**exponent], [1.0, 300.0, 1e6])

    @pytest.mark.parametrize(
        "powers, intens",
        [([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, 2.0, 0.0])],
    )
    def test_no_finite_minimum_is_fit_error(self, powers, intens):
        # equal powers leave c undetermined; intensities that fall at the
        # largest power fit best as c -> 0
        with pytest.raises(NumericalError, match="gain-curve fit failed"):
            fit_gain_curve(powers, intens)

    def test_matches_curve_fit(self):
        # scipy's Levenberg-Marquardt least squares as an independent
        # reference, started at the true parameters of 200 noisy 11-point
        # scans
        from scipy.optimize import curve_fit

        rng = np.random.default_rng(2101)
        powers = np.linspace(5.0, 55.0, 11)
        for _ in range(200):
            c_true = 7.5 / math.sqrt(55.0) * rng.uniform(0.5, 1.5)
            scale_true = 10.0 ** rng.uniform(-2.0, 2.0)
            intens = scale_true * np.sinh(c_true * np.sqrt(powers)) ** 2
            intens *= 1.0 + 0.01 * rng.standard_normal(powers.size)
            c, scale = fit_gain_curve(powers, intens)
            (c_ref, scale_ref), _ = curve_fit(
                lambda p, c, a: a * np.sinh(c * np.sqrt(p)) ** 2,
                powers,
                intens,
                p0=(c_true, scale_true),
            )
            assert c == pytest.approx(c_ref, rel=1e-6)
            assert scale == pytest.approx(scale_ref, rel=1e-6)
            ours = profiled_residual(powers, intens, c)
            assert ours <= profiled_residual(powers, intens, c_ref) * (1.0 + 1e-9)


def profiled_residual(powers, intens, c):
    """Sum of squared residuals at ``c`` and its best scale, formed from the
    residuals themselves: y.y - (y.s)^2/(s.s) cancels near a good fit."""
    s = np.sinh(c * np.sqrt(powers)) ** 2
    r = intens - (intens @ s) / (s @ s) * s
    return float(r @ r)
