"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line with its headline number and timing
(visible with ``pytest tests/test_acceptance.py -v -s``) and then asserts.
"""

import math
import time

import numpy as np

from ucabeam import analysis as an
from ucabeam.arraymodel import (
    FrequencyGrid,
    UlaGeometry,
    SPEED_OF_LIGHT,
    channel_matrix,
    generate_channel,
    half_wavelength_uca,
    steering_uca,
)
from ucabeam.cxlinalg import svd, water_filling
from ucabeam.precoding import DppConfig, build_dpp
from ucabeam.specfun import bessel_j, hypergeom_1f2, hypergeom_2f3, integrate
from ucabeam.xpcli import load_builtin, run

GEOM = half_wavelength_uca(256, 30e9)
R = GEOM.radius_m
PHI0 = math.pi / 6


def _report(name, ok, detail, t0, budget_s):
    took = time.perf_counter() - t0
    print(f"[{'PASS' if ok and took < budget_s else 'FAIL'}] {name}: "
          f"{detail} ({took:.2f}s, budget {budget_s:g}s)")
    assert ok, f"{name}: {detail}"
    assert took < budget_s, f"{name}: took {took:.2f}s, budget {budget_s:g}s"


def test_delay_unit_sizing_example():
    t0 = time.perf_counter()
    k = an.min_ttd_count(0.4, R, 3e9)
    ok = 8.0 <= k <= 8.4
    _report("delay-unit sizing", ok, f"K_min = {k:.4f}, window [8.0, 8.4]", t0, 1.0)


def test_phase_shifter_gain_closed_form():
    t0 = time.perf_counter()
    w = steering_uca(GEOM, 30e9, PHI0)
    grid = FrequencyGrid(30e9, 4e9, 129)
    worst = max(
        abs(an.exact_gain(w, GEOM, f, PHI0) - an.ps_gain_closed_form(f, 30e9, R))
        for f in grid.freqs_hz
    )
    center_err = abs(an.exact_gain(w, GEOM, 30e9, PHI0) - 1.0)
    ok = worst <= 5e-3 and center_err <= 1e-12
    _report("phase-shifter closed form", ok,
            f"max |closed - exact| = {worst:.2e} (<= 5e-3), "
            f"center error {center_err:.1e} (<= 1e-12)", t0, 10.0)


def test_delay_phase_gain_floor():
    t0 = time.perf_counter()
    grid = FrequencyGrid(30e9, 3e9, 129)
    worst = min(
        an.dpp_exact_gain(GEOM, 30e9, f, PHI0, 8) for f in grid.freqs_hz
    )
    ok = worst >= 0.59
    _report("delay-phase gain floor", ok,
            f"min gain over 129 subcarriers = {worst:.4f} (>= 0.59)", t0, 10.0)


def test_delay_phase_approximation_chain():
    t0 = time.perf_counter()
    grid = FrequencyGrid(30e9, 3e9, 129)
    worst_sum = max(
        abs(an.dpp_exact_gain(GEOM, 30e9, f, PHI0, 8)
            - an.dpp_gain_subarray_sum(f, 30e9, R, 256, 8))
        for f in grid.freqs_hz
    )
    worst_cf = max(
        abs(an.dpp_gain_closed_form(f, 30e9, R, 8)
            - an.dpp_gain_subarray_sum(f, 30e9, R, 256, 8))
        for f in grid.freqs_hz
    )
    ok = worst_sum <= 0.02 and worst_cf <= 0.02
    _report("delay-phase approximation chain", ok,
            f"arc sum vs exact {worst_sum:.2e}, closed form vs arc sum "
            f"{worst_cf:.2e} (both <= 0.02)", t0, 10.0)


def test_band_average_bounds_and_ratio():
    t0 = time.perf_counter()
    ratio = an.avg_gain_ttd(R, 2e9, 8) / an.avg_gain_ps_numeric(R, 2e9)
    ok = 1.75 <= ratio <= 2.15
    fig7 = load_builtin("fig7")
    bws = np.linspace(fig7.sweep.start, fig7.sweep.stop, fig7.sweep.points)
    for b in bws:
        lower = an.avg_gain_ps_lower(R, float(b))
        numeric = an.avg_gain_ps_numeric(R, float(b))
        upper = an.avg_gain_ps_upper(R, float(b))
        if not (lower <= numeric + 1e-12 and numeric <= upper + 1e-12):
            ok = False
            break
    _report("band-average bounds", ok,
            f"delay/phase-shifter average ratio = {ratio:.4f} in [1.75, 2.15]; "
            f"bounds sandwich holds at all {len(bws)} bandwidths", t0, 30.0)


def test_spectrum_efficiency_versus_delay_units():
    t0 = time.perf_counter()
    table = run(load_builtin("fig9"))
    dpp = {r.x: r for r in table.rows if r.method == "dpp"}
    opt = {r.x: r for r in table.rows if r.method == "optimal"}
    ks = sorted(dpp)
    ok = all(dpp[k].mean >= 0.9 * opt[k].mean for k in ks if k >= 8)
    for a, b in zip(ks, ks[1:]):
        if dpp[b].mean < dpp[a].mean - dpp[a].std:
            ok = False
    ratios = ", ".join(f"K={int(k)}: {dpp[k].mean / opt[k].mean:.3f}" for k in ks)
    _report("spectrum efficiency vs delay units", ok,
            f"dpp/optimal {ratios}; >= 0.9 required from K=8", t0, 30.0)


def test_model_invariants_hold():
    t0 = time.perf_counter()
    checks = []

    # hypergeometric running-mean identities
    for x in (0.5, 3.0, 9.0, 20.0):
        quad = integrate(lambda t: bessel_j(0, t), 0.0, x, tol=1e-12) / x
        checks.append(abs(hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * x * x) - quad) <= 1e-8)
        quad2 = integrate(
            lambda t: hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * t * t), 0.0, x, tol=1e-12
        ) / x
        checks.append(
            abs(hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, -0.25 * x * x) - quad2) <= 1e-8
        )

    # SVD reconstruction
    rng = np.random.default_rng(12)
    a = (rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32)))
    res = svd(a)
    checks.append(np.abs((res.u * res.sigma) @ res.vh - a).max() <= 1e-9)

    # water-filling budget and common level
    g = rng.uniform(0.05, 20.0, 6)
    p = water_filling(g, 2.0)
    level = p + 1.0 / g
    active = level[p > 0]
    checks.append(abs(p.sum() - 2.0) <= 1e-12)
    checks.append(active.max() - active.min() <= 1e-9 * active.max())

    # steering modulus and cyclic shift
    v = steering_uca(GEOM, 29e9, 0.3)
    checks.append(np.abs(np.abs(v) - 1.0 / 16.0).max() <= 1e-12)
    v2 = steering_uca(GEOM, 29e9, 0.3 + 2.0 * np.pi / 256)
    checks.append(np.abs(v2 - np.roll(v, 1)).max() <= 1e-9)

    # a delay unit per element restores unit gain across the band
    checks.append(
        min(
            an.dpp_gain_subarray_sum(f, 30e9, R, 256, 256)
            for f in FrequencyGrid(30e9, 4e9, 17).freqs_hz
        )
        >= 1.0 - 1e-9
    )

    # delay-phase never falls below the phase-shifter response (8+ units)
    a_c = steering_uca(GEOM, 30e9, PHI0)
    for k_ttd in (8, 16):
        checks.append(
            all(
                an.dpp_exact_gain(GEOM, 30e9, f, PHI0, k_ttd) + 1e-9
                >= an.exact_gain(a_c, GEOM, f, PHI0)
                for f in FrequencyGrid(30e9, 3e9, 65).freqs_hz
            )
        )

    # hybrid spectral efficiency never beats fully digital, averaged chain
    grid = FrequencyGrid(30e9, 3e9, 17)
    rx = UlaGeometry(4, SPEED_OF_LIGHT / 30e9 / 2.0)
    cfg = DppConfig(4, 8, 4)
    for seed in range(5):
        ch = generate_channel(GEOM, rx, grid, 4, seed)
        se = np.mean(an.spectrum_efficiency(build_dpp(ch, cfg), 10.0))
        opt = np.mean(
            [an.spectrum_efficiency_optimal(channel_matrix(ch, m), 10.0, 4)
             for m in range(17)]
        )
        checks.append(se <= opt + 1e-9)

    ok = all(checks)
    _report("model invariants", ok,
            f"{sum(checks)}/{len(checks)} invariant checks hold", t0, 60.0)
