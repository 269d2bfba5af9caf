"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success; they also appear in captured output on failure).
"""

import json
import math
import time

import numpy as np
import pytest

from macrohom.cli import main
from macrohom.fock import hom_stats, nrf_single_mode, tmsv
from macrohom.gain import calibrate_walkoff, fit_gain_curve, uv_arrays
from macrohom.montecarlo import (
    LatticeSpec,
    derive_seed,
    expected_stats,
    simulate_ensemble,
)
from macrohom.params import CrystalParams, DetectionModel, PumpParams, SpectralGrid
from macrohom.trace import (
    default_grid,
    detected_trace,
    fwhm_vs_gain,
    g2_trace,
    mode_count_g2,
    mode_count_long,
    nrf_and_pedestal,
    nrf_trace,
    pedestal_trace,
    visibility,
)

PUMP = PumpParams()  # reference: G = 7.5, t_p = 18 ps, 709.3/354.65 nm


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def crystal():
    return calibrate_walkoff(1.3, PUMP, length_mm=10.0)


@pytest.fixture(scope="module")
def reference_traces(crystal):
    half = np.arange(0.0, 80.0001, 0.05)
    tau = np.concatenate([-half[:0:-1], half])
    grid = default_grid(crystal, PUMP)
    nrf, ped = nrf_and_pedestal(tau, crystal, PUMP, grid)
    return tau, grid, nrf, ped


def single_mode(g):
    crystal = CrystalParams(length_mm=10.0, walkoff_slope=0.0)
    pump = PumpParams(g_peak=g, t_p=18.0)
    grid = SpectralGrid(np.array([1.0]), np.array([1.0]))
    return crystal, pump, grid


def test_01_peak_visibility(tmp_path):
    t0 = time.monotonic()
    code = main(["trace", "--out", str(tmp_path)])
    elapsed = time.monotonic() - t0
    with open(tmp_path / "manifest.json") as fh:
        vis = json.load(fh)["summary"]["visibility"]
    ok = code == 0 and vis >= 0.999 and elapsed < 10.0
    report(
        "criterion 1 (peak visibility)",
        ok,
        f"visibility={vis:.6f} (>= 0.999), runtime={elapsed:.1f}s (< 10s)",
    )


def test_02_peak_height_law():
    worst = 0.0
    for g in (1.0, 4.0, 7.5):
        crystal, pump, grid = single_mode(g)
        # edge delay chosen at a zero of cos(2 omega tau) near 40 pulse
        # widths, where the envelope term has fully died: the single-mode
        # interference term oscillates forever, so the baseline is read at
        # its phase zero
        k = round((4.0 * 40.0 * pump.t_p / math.pi - 1.0) / 2.0)
        tau_edge = (2 * k + 1) * math.pi / 4.0
        vals = nrf_trace(np.array([0.0, tau_edge]), crystal, pump, grid).value
        measured = vals[0] - vals[1]
        expected = 1.0 + 2.0 * math.sinh(g) ** 2
        worst = max(worst, abs(measured - expected) / expected)
    report(
        "criterion 2 (peak-height law)",
        worst < 1e-6,
        f"max relative deviation {worst:.2e} (< 1e-6) for G in {{1, 4, 7.5}}",
    )


def test_03_narrow_pedestal_structure():
    crystal, pump, grid = single_mode(7.5)
    tau = np.array([0.0])
    nrf0 = nrf_trace(tau, crystal, pump, grid).value[0]
    ped0 = pedestal_trace(tau, crystal, pump, grid).value[0]
    narrow = nrf0 - ped0
    pedestal_elev = ped0 - 1.0
    ratio = narrow / pedestal_elev
    ok = abs(ratio - 1.0) < 0.01
    report(
        "criterion 3 (narrow equals pedestal at zero delay)",
        ok,
        f"narrow/pedestal = {ratio:.6f} (within 1%)",
    )


def test_04_fwhm_narrowing(crystal):
    t0 = time.monotonic()
    gains = np.linspace(5.5, 7.5, 11)
    rows = fwhm_vs_gain(gains, crystal, PUMP)
    elapsed = time.monotonic() - t0
    widths = dict(rows)
    ratio = widths[7.5] / widths[5.5]
    ok = abs(ratio - 0.80) <= 0.05 and elapsed < 60.0
    report(
        "criterion 4 (FWHM narrowing)",
        ok,
        f"FWHM(7.5)/FWHM(5.5) = {ratio:.4f} (0.80 +- 0.05), 11-point sweep {elapsed:.1f}s (< 60s)",
    )


def test_05_mode_counts(reference_traces):
    _, _, nrf, ped = reference_traces
    m_g2 = mode_count_g2(1.1, 8.17e5)
    m_long = mode_count_long(nrf, ped)
    ok = abs(m_g2 - 10.0) <= 0.1 and abs(m_long - 8.0) <= 2.0
    report(
        "criterion 5 (mode counts)",
        ok,
        f"mode_count_g2(1.1, 8.17e5) = {m_g2:.3f} (10 +- 0.1), m_long = {m_long:.2f} (8 +- 2)",
    )


def test_06_dip_visibility(crystal):
    half = np.arange(0.0, 60.0001, 0.05)
    tau = np.concatenate([-half[:0:-1], half])
    grid = default_grid(crystal, PUMP)
    g2 = g2_trace(tau, crystal, PUMP, grid, DetectionModel(m_modes=10))
    vis = visibility(g2)
    in_band = abs(vis - 0.022) <= 0.01

    # Wick-vs-Monte-Carlo cross-check of the model's dip: one cluster per
    # longitudinal mode, single transverse mode (the measured regime), the
    # sampled dip depth must match the exact moments within 3 se
    lattice = LatticeSpec.default(crystal, PUMP, n_freq_bins=16)
    det = DetectionModel(eta=0.03, m_modes=1, n_pulses=6000)
    checks = []
    for idx, t in enumerate((0.0, 40.0)):
        st = simulate_ensemble(crystal, PUMP, det, lattice, t, derive_seed(20260811, idx))
        _, _, g2_exact = expected_stats(crystal, PUMP, det, lattice, t)
        checks.append((st.g2_hat, g2_exact, st.se_g2))
    mc_depth = checks[1][0] - checks[0][0]
    wick_depth = checks[1][1] - checks[0][1]
    se_depth = 3.0 * (checks[0][2] + checks[1][2])
    cross_ok = abs(mc_depth - wick_depth) < se_depth
    report(
        "criterion 6 (g2 dip visibility)",
        in_band and cross_ok,
        f"visibility = {vis:.4f} (0.022 +- 0.01); MC dip depth {mc_depth:.4f} vs "
        f"Wick {wick_depth:.4f} within 3 se ({se_depth:.4f})",
    )


def test_07_fock_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for g in (0.2, 0.6, 1.0, 1.5):
        state = tmsv(g)
        peak = nrf_single_mode(g, g, 0.0)
        for phi in (0.0, math.pi / 2.0, math.pi):
            var_diff, n_total, _ = hom_stats(state, phi)
            oracle = var_diff / n_total
            expected = nrf_single_mode(g, g, phi)
            # relative to the formula value, with the trace scale as the
            # yardstick where the formula passes through zero (phi = pi)
            tol_scale = max(abs(expected), peak)
            worst = max(worst, abs(oracle - expected) / tol_scale)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    report(
        "criterion 7 (Fock-oracle equivalence)",
        ok,
        f"max relative deviation {worst:.2e} (< 1e-6), runtime {elapsed:.1f}s (< 10s)",
    )


@pytest.mark.slow
def test_08_monte_carlo_consistency(crystal):
    t0 = time.monotonic()
    taus = [0.0, 0.5, 1.0, 1.5, 2.5, 4.0, 6.0, 10.0, 16.0, 28.0, 45.0]
    det = DetectionModel(eta=0.03, m_modes=10, n_pulses=30000)
    # reduced spectral density (48 bins) keeps the full pulse count within
    # the runtime budget; the jittered bins stay unbiased at every delay
    lattice = LatticeSpec.default(crystal, PUMP, n_freq_bins=48)
    grid = default_grid(crystal, PUMP)
    reference = detected_trace(nrf_trace(np.array(taus), crystal, PUMP, grid), det)

    seed = 20120815
    stats = []
    worst_z = 0.0
    for idx, tau in enumerate(taus):
        st = simulate_ensemble(crystal, PUMP, det, lattice, tau, derive_seed(seed, idx))
        stats.append(st)
        worst_z = max(worst_z, abs(st.nrf_hat - reference.value[idx]) / st.se_nrf)

    rerun_ok = all(
        simulate_ensemble(crystal, PUMP, det, lattice, taus[idx], derive_seed(seed, idx))
        == stats[idx]
        for idx in (0, 7)
    )
    elapsed = time.monotonic() - t0
    ok = worst_z < 3.0 and rerun_ok and elapsed < 300.0
    report(
        "criterion 8 (Monte-Carlo consistency)",
        ok,
        f"worst |z| = {worst_z:.2f} (< 3) over 11 delays, bit-identical rerun: "
        f"{rerun_ok}, runtime {elapsed:.0f}s (< 300s)",
    )


def test_09_gain_fit_closure():
    c_true = 7.5 / math.sqrt(55.0)
    rng = np.random.default_rng(19870601)
    powers = np.linspace(5.0, 55.0, 11)
    intens = np.sinh(c_true * np.sqrt(powers)) ** 2
    intens = intens * (1.0 + 0.01 * rng.standard_normal(intens.size))
    c, _ = fit_gain_curve(powers, intens)
    dev = abs(c - c_true) / c_true
    n_mode = math.sinh(c * math.sqrt(55.0)) ** 2
    ok = dev < 0.02
    report(
        "criterion 9 (gain-fit closure)",
        ok,
        f"recovered c within {dev:.2%} (< 2%), N(55 mW) = {n_mode:.3g} (~8e5)",
    )


def test_10_invariant_suites(crystal, reference_traces):
    tau, grid, nrf, ped = reference_traces
    results = {}

    rng = np.random.default_rng(20260811)
    worst_unit = 0.0
    for _ in range(10_000):
        omega = rng.uniform(-50, 50)
        t = rng.uniform(-40, 40)
        g = rng.uniform(0, 10)
        d = rng.uniform(0, 1.5)
        pump = PumpParams(g_peak=g, t_p=18.0)
        u, v = uv_arrays(np.array([omega]), t, CrystalParams(10.0, d), pump)
        resid = abs(abs(u[0]) ** 2 - v[0] ** 2 - 1.0) / max(1.0, abs(u[0]) ** 2)
        worst_unit = max(worst_unit, resid)
    results["unitarity"] = worst_unit < 1e-10

    from macrohom.gain import _cosh_branch, _sinc_branch

    branch_dev = 0.0
    for z in (1e-6, -1e-6):
        for fn in (_cosh_branch, _sinc_branch):
            below = fn(np.array([z * 0.999999]))[0]
            above = fn(np.array([z * 1.000001]))[0]
            branch_dev = max(branch_dev, abs(below - above))
    results["branch_continuity"] = branch_dev < 1e-8

    asym = max(
        float(np.max(np.abs(t.value - t.value[::-1]))) / float(np.max(t.value))
        for t in (nrf, ped)
    )
    # the kernel folds tau onto |tau|, so the mirror test above holds by
    # construction; negative delays evaluated one at a time from the
    # quadrature formula check evenness independently, each on a grid
    # with 8 nodes per period of its own cos(2 w tau)
    from macrohom.gain import omega_max_for

    om = omega_max_for(crystal, PUMP)
    i0 = len(tau) // 2
    for i in i0 - np.unique(np.geomspace(1, i0, 22).astype(int)):
        own = SpectralGrid.gauss_legendre(om, max(len(grid), math.ceil(8.0 * om * abs(tau[i]) / math.pi)))
        omega = own.omega
        u0, v0 = uv_arrays(omega, 0.0, crystal, PUMP)
        coef = own.weights * v0 * v0
        denom = float(np.sum(coef))
        interf_coef = coef * (u0.real**2 - u0.imag**2)
        _, v_t = uv_arrays(omega, float(tau[i]), crystal, PUMP)
        ped_sum = math.fsum(v_t * v_t * coef)
        interf = math.fsum(np.cos(2.0 * tau[i] * omega) * interf_coef)
        for value, direct in ((ped.value[i], 1.0 + ped_sum / denom),
                              (nrf.value[i], 1.0 + (ped_sum + interf) / denom)):
            asym = max(asym, abs(value - direct) / direct)
    results["evenness"] = asym < 1e-8

    short_tau = np.linspace(-10, 10, 41)
    t1 = nrf_trace(short_tau, crystal, PUMP, grid)
    t2 = nrf_trace(short_tau, crystal, PUMP, SpectralGrid.gauss_legendre(om, 2 * len(grid)))
    doubling = float(np.max(np.abs(t1.value - t2.value) / np.abs(t2.value)))
    results["grid_doubling"] = doubling < 1e-6

    from macrohom.trace import Trace

    flat = Trace(tau=np.arange(3.0), value=np.ones(3), kind="nrf_ideal")
    fixed = all(
        np.array_equal(
            detected_trace(flat, DetectionModel(eta=eta)).value, np.ones(3)
        )
        for eta in (0.03, 0.5, 1.0)
    )
    results["affine_fixed_point"] = fixed

    ok = all(results.values())
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in results.items())
    report("criterion 10 (invariant suites)", ok, detail)
