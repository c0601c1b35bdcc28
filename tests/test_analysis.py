"""Closed-form gains, averaged-gain bounds, sizing rule, spectrum efficiency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucabeam import analysis as an
from ucabeam.arraymodel import (
    SPEED_OF_LIGHT,
    ChannelRealization,
    FrequencyGrid,
    PathParams,
    UlaGeometry,
    channel_matrix,
    generate_channel,
    half_wavelength_uca,
    steering_uca,
)
from ucabeam.cxlinalg import svd, water_filling
from ucabeam.precoding import (
    DppConfig,
    build_classic_hybrid,
    build_dpp,
    combined_precoder,
    design_classic_hybrid,
    design_dpp,
)
from ucabeam.specfun import bessel_j, hypergeom_1f2, integrate

C = SPEED_OF_LIGHT
GEOM = half_wavelength_uca(256, 30e9)
R = GEOM.radius_m
RX = UlaGeometry(4, C / 30e9 / 2.0)
PHI0 = math.pi / 6
J0_FIRST_ZERO = 2.404825557695773


# ---------------------------------------------------------------------------
# exact array gain
# ---------------------------------------------------------------------------


def test_exact_gain_of_matched_beam_is_one():
    w = steering_uca(GEOM, 30e9, PHI0)
    assert an.exact_gain(w, GEOM, 30e9, PHI0) == pytest.approx(1.0, abs=1e-12)


def test_exact_gain_of_orthogonalized_beam_is_zero():
    a = steering_uca(GEOM, 30e9, PHI0)
    w = steering_uca(GEOM, 30e9, PHI0 + 1.0)
    w = w - a * np.vdot(a, w)
    w = w / np.linalg.norm(w)
    assert an.exact_gain(w, GEOM, 30e9, PHI0) <= 1e-12


def test_exact_gain_rejects_overpowered_weights():
    w = 2.0 * steering_uca(GEOM, 30e9, PHI0)
    with pytest.raises(ValueError):
        an.exact_gain(w, GEOM, 30e9, PHI0)


# ---------------------------------------------------------------------------
# phase-shifter gain across frequency
# ---------------------------------------------------------------------------


def test_ps_closed_form_center_and_null():
    assert an.ps_gain_closed_form(30e9, 30e9, R) == 1.0
    f_null = 30e9 + J0_FIRST_ZERO * C / (2.0 * np.pi * R)
    assert an.ps_gain_closed_form(f_null, 30e9, R) <= 1e-9


def test_ps_closed_form_is_bessel_of_electrical_offset():
    for f in (28e9, 29.3e9, 31.7e9):
        eta = 2.0 * np.pi * R * (f - 30e9) / C
        assert an.ps_gain_closed_form(f, 30e9, R) == pytest.approx(
            abs(bessel_j(0, eta)), abs=1e-12
        )


def test_ps_closed_form_tracks_exact_gain_across_band():
    w = steering_uca(GEOM, 30e9, PHI0)
    grid = FrequencyGrid(30e9, 4e9, 129)
    worst = max(
        abs(an.exact_gain(w, GEOM, f, PHI0) - an.ps_gain_closed_form(f, 30e9, R))
        for f in grid.freqs_hz
    )
    assert worst <= 5e-3   # contract bound
    assert worst <= 1e-9   # regression: a 256-element ring sits far below it


def test_defocus_beam_never_refocuses_elsewhere():
    # at the band edge the beam loses its peak without forming a new one
    w = steering_uca(GEOM, 30e9, PHI0)
    angles = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    gains = np.array([an.exact_gain(w, GEOM, 28.5e9, p) for p in angles])
    assert gains.max() <= 0.8                 # contract bound
    assert 0.29 <= gains.max() <= 0.31        # frozen regression
    on_axis = an.exact_gain(w, GEOM, 28.5e9, PHI0)
    assert on_axis < gains.max() - 0.04       # peak drifts off the target


def test_defocus_profile_is_target_independent():
    grid = FrequencyGrid(30e9, 3e9, 129)
    profiles = {}
    for phi in (0.0, 0.7, PHI0, 2.1, 4.4):
        w = steering_uca(GEOM, 30e9, phi)
        profiles[phi] = np.array(
            [an.exact_gain(w, GEOM, f, phi) for f in grid.freqs_hz]
        )
    base = profiles[PHI0]
    spread = max(np.abs(profiles[p] - base).max() for p in profiles)
    assert spread <= 2e-2   # contract bound
    assert spread <= 1e-12  # regression: ring symmetry makes it exact


# ---------------------------------------------------------------------------
# angular closed form
# ---------------------------------------------------------------------------


def test_angular_closed_form_reduces_on_axis():
    for f in (28.5e9, 29.25e9):
        assert an.ps_gain_angular_closed_form(f, 30e9, R, 0.7, 0.7) == pytest.approx(
            an.ps_gain_closed_form(f, 30e9, R), abs=1e-12
        )


def test_angular_closed_form_accurate_in_front_window():
    w = steering_uca(GEOM, 30e9, PHI0)
    window = np.linspace(PHI0 - np.pi / 2.0, PHI0 + np.pi / 2.0, 513)
    for f in (28.5e9, 29.25e9):
        worst = max(
            abs(
                an.exact_gain(w, GEOM, f, p)
                - an.ps_gain_angular_closed_form(f, 30e9, R, p, PHI0)
            )
            for p in window
        )
        assert worst <= 1e-2   # contract bound
        assert worst <= 1e-9   # regression


def test_angular_closed_form_degrades_behind_the_array():
    # the approximation is a front-half-plane tool; the back lobes differ
    w = steering_uca(GEOM, 30e9, PHI0)
    full = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    worst = max(
        abs(
            an.exact_gain(w, GEOM, 29.25e9, p)
            - an.ps_gain_angular_closed_form(29.25e9, 30e9, R, p, PHI0)
        )
        for p in full
    )
    assert worst > 1e-2


def test_angular_closed_form_peak_sits_on_axis_at_center_freq():
    vals = [
        an.ps_gain_angular_closed_form(30e9, 30e9, R, p, PHI0)
        for p in np.linspace(PHI0 - 0.5, PHI0 + 0.5, 101)
    ]
    assert max(vals) == pytest.approx(1.0, abs=1e-12)
    assert int(np.argmax(vals)) == 50


# ---------------------------------------------------------------------------
# delay-phase gain approximations
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(offsets=st.lists(st.floats(-2e9, 2e9), min_size=1, max_size=50),
       k_ttd=st.sampled_from([2, 4, 8, 16, 32]))
def test_frequency_gains_broadcast_exactly(offsets, k_ttd):
    f = 30e9 + np.array(offsets)
    for fn in (lambda v: an.ps_gain_closed_form(v, 30e9, R),
               lambda v: an.dpp_gain_subarray_sum(v, 30e9, R, 256, k_ttd),
               lambda v: an.dpp_gain_closed_form(v, 30e9, R, k_ttd)):
        assert np.array_equal(fn(f), [fn(v) for v in f.tolist()])


@settings(max_examples=30, deadline=None)
@given(phis=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=60),
       f_off=st.floats(-2e9, 2e9))
def test_angular_closed_form_broadcasts_exactly(phis, f_off):
    f = 30e9 + f_off
    got = an.ps_gain_angular_closed_form(f, 30e9, R, np.array(phis), PHI0)
    assert np.array_equal(got, [an.ps_gain_angular_closed_form(f, 30e9, R, p, PHI0) for p in phis])


def test_closed_forms_of_scalars_are_floats():
    for value in (an.ps_gain_closed_form(29e9, 30e9, R),
                  an.ps_gain_angular_closed_form(29e9, 30e9, R, 0.4, PHI0),
                  an.dpp_gain_subarray_sum(29e9, 30e9, R, 256, 8),
                  an.dpp_gain_closed_form(np.float64(29e9), 30e9, R, 8),
                  an.avg_gain_ps_numeric(R, 1e9), an.avg_gain_ps_upper(R, 1e9),
                  an.avg_gain_ps_lower(R, 1e9), an.avg_gain_ttd(R, 1e9, 8)):
        assert type(value) is float


def test_array_gains_reject_the_first_bad_point():
    with pytest.raises(ValueError, match="f_hz must be positive, got -1.0"):
        an.ps_gain_closed_form(np.array([30e9, -1.0, 0.0]), 30e9, R)
    with pytest.raises(ValueError, match="bandwidth_hz must be positive, got 0.0"):
        an.avg_gain_ps_numeric(R, np.array([1e9, 0.0]))


def test_subarray_sum_is_exact_at_center_frequency():
    assert an.dpp_gain_subarray_sum(30e9, 30e9, R, 256, 8) == 1.0


def test_subarray_sum_with_full_delay_bank_is_unity():
    for f in (28.5e9, 31.5e9):
        assert an.dpp_gain_subarray_sum(f, 30e9, R, 256, 256) == 1.0


def test_subarray_sum_tracks_exact_dpp_gain():
    grid = FrequencyGrid(30e9, 3e9, 129)
    for k_ttd, frozen in ((8, 1e-4), (16, 1e-9)):
        worst = max(
            abs(
                an.dpp_exact_gain(GEOM, 30e9, f, PHI0, k_ttd)
                - an.dpp_gain_subarray_sum(f, 30e9, R, 256, k_ttd)
            )
            for f in grid.freqs_hz
        )
        assert worst <= 0.02     # contract bound
        assert worst <= frozen   # regression


def test_subarray_sum_degrades_for_coarse_banks():
    # four wide arcs stretch the within-arc approximation at the band edge;
    # the error grows to a few percent but no further
    grid = FrequencyGrid(30e9, 3e9, 129)
    worst = max(
        abs(
            an.dpp_exact_gain(GEOM, 30e9, f, PHI0, 4)
            - an.dpp_gain_subarray_sum(f, 30e9, R, 256, 4)
        )
        for f in grid.freqs_hz
    )
    assert 0.02 <= worst <= 0.06


def test_continuum_closed_form_tracks_subarray_sum():
    grid = FrequencyGrid(30e9, 3e9, 129)
    worst = max(
        abs(
            an.dpp_gain_closed_form(f, 30e9, R, 8)
            - an.dpp_gain_subarray_sum(f, 30e9, R, 256, 8)
        )
        for f in grid.freqs_hz
    )
    assert worst <= 0.02   # contract bound
    assert worst <= 5e-3   # regression


def test_continuum_closed_form_decays_from_center():
    offsets = np.linspace(0.0, 1.5e9, 40)
    vals = [an.dpp_gain_closed_form(30e9 + d, 30e9, R, 8) for d in offsets]
    assert vals[0] == 1.0
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_dpp_exact_gain_from_column():
    # the column helper and the gain helper agree
    f = 28.9e9
    col = an.dpp_column(GEOM, 30e9, f, PHI0, 8)
    a = steering_uca(GEOM, f, PHI0)
    assert an.dpp_exact_gain(GEOM, 30e9, f, PHI0, 8) == pytest.approx(
        abs(np.vdot(a, col)), abs=1e-12
    )
    assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)


def test_more_delay_units_never_hurt_at_band_edge():
    vals = [an.dpp_gain_subarray_sum(28.5e9, 30e9, R, 256, k) for k in (1, 4, 8, 16, 32)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# delay-unit sizing rule
# ---------------------------------------------------------------------------


def test_min_ttd_count_reference_case():
    k = an.min_ttd_count(0.4, R, 3e9)
    assert k == pytest.approx(8.207826034720943, abs=1e-9)
    assert 8.0 <= k <= 8.4


def test_min_ttd_count_scales_linearly_with_bandwidth():
    k1 = an.min_ttd_count(0.4, R, 3e9)
    k2 = an.min_ttd_count(0.4, R, 6e9)
    assert k2 == pytest.approx(2.0 * k1, rel=1e-12)


def test_min_ttd_count_vanishes_with_bandwidth():
    assert an.min_ttd_count(0.4, R, 1.0) <= 1e-6


def test_min_ttd_count_validation():
    with pytest.raises(ValueError):
        an.min_ttd_count(0.0, R, 3e9)
    with pytest.raises(ValueError):
        an.min_ttd_count(1.0, R, 3e9)


def test_min_ttd_count_meets_its_own_target():
    # a bank of ceil(K) units holds the band-average gain above 1 - delta
    delta = 0.4
    k = math.ceil(an.min_ttd_count(delta, R, 3e9))
    assert an.avg_gain_ttd(R, 3e9, k) >= 1.0 - delta


# ---------------------------------------------------------------------------
# band-averaged gains
# ---------------------------------------------------------------------------


def test_avg_gains_approach_one_for_narrow_band():
    for fn in (an.avg_gain_ps_numeric, an.avg_gain_ps_upper, an.avg_gain_ps_lower):
        assert fn(R, 1e3) == pytest.approx(1.0, abs=1e-6)
    assert an.avg_gain_ttd(R, 1e3, 8) == pytest.approx(1.0, abs=1e-6)


def test_avg_gain_numeric_matches_direct_quadrature():
    b = np.pi * 2e9 * R / C
    direct = integrate(lambda t: abs(bessel_j(0, t)), 0.0, b, tol=1e-12) / b
    assert an.avg_gain_ps_numeric(R, 2e9) == pytest.approx(direct, abs=1e-8)


def test_avg_gain_upper_matches_rms_quadrature():
    # upper bound is the root-mean-square of the same kernel
    b = np.pi * 2e9 * R / C
    rms = math.sqrt(integrate(lambda t: bessel_j(0, t) ** 2, 0.0, b, tol=1e-12) / b)
    assert an.avg_gain_ps_upper(R, 2e9) == pytest.approx(rms, abs=1e-8)


def test_avg_gain_lower_matches_signed_quadrature():
    b = np.pi * 2e9 * R / C
    signed = integrate(lambda t: bessel_j(0, t), 0.0, b, tol=1e-12) / b
    assert an.avg_gain_ps_lower(R, 2e9) == pytest.approx(signed, abs=1e-8)


def test_avg_gain_ttd_matches_kernel_quadrature():
    b = np.pi * np.pi * 2e9 * R / (C * 8)
    quad = (
        integrate(lambda t: abs(hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * t * t)),
                  0.0, b, tol=1e-12)
        / b
    )
    assert an.avg_gain_ttd(R, 2e9, 8) == pytest.approx(quad, abs=1e-8)


def test_avg_gain_sandwich_on_random_geometries():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        radius = float(rng.uniform(0.02, 0.5))
        bw = float(rng.uniform(1e8, 6e9))
        lower = an.avg_gain_ps_lower(radius, bw)
        numeric = an.avg_gain_ps_numeric(radius, bw)
        upper = an.avg_gain_ps_upper(radius, bw)
        assert lower <= numeric + 1e-9
        assert numeric <= upper + 1e-9


@settings(max_examples=15, deadline=None)
@given(bws=st.lists(st.floats(1e6, 4e9), min_size=1, max_size=40))
def test_band_averages_broadcast_over_bandwidth(bws):
    b = np.array(bws)
    for fn in (an.avg_gain_ps_upper, an.avg_gain_ps_lower,
               lambda r, v: an.avg_gain_ttd(r, v, 8), lambda r, v: an.gain_improvement(r, v, 8)):
        assert np.array_equal(fn(R, b), [fn(R, v) for v in bws])
    # one quadrature over all the bands: the same panels, summed in another order
    numeric = an.avg_gain_ps_numeric(R, b)
    assert np.allclose(numeric, [an.avg_gain_ps_numeric(R, v) for v in bws], rtol=1e-14, atol=0)


def test_avg_gain_ttd_improves_with_more_units():
    vals = [an.avg_gain_ttd(R, 3e9, k) for k in (2, 4, 8, 16, 32)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_avg_gain_reference_values():
    # frozen from the quadrature and series routes at B = 2 GHz, K = 8
    assert an.avg_gain_ps_numeric(R, 2e9) == pytest.approx(0.473029, abs=1e-4)
    assert an.avg_gain_ps_upper(R, 2e9) == pytest.approx(0.557539, abs=1e-4)
    assert an.avg_gain_ps_lower(R, 2e9) == pytest.approx(0.216174, abs=1e-4)
    assert an.avg_gain_ttd(R, 2e9, 8) == pytest.approx(0.926753, abs=1e-4)


def test_gain_improvement_reference_and_limits():
    gi = an.gain_improvement(R, 2e9, 8)
    assert gi == pytest.approx(1.6622, abs=0.01)
    assert an.gain_improvement(R, 1e3, 8) == pytest.approx(1.0, abs=1e-6)
    assert an.gain_improvement(R, 2e9, 16) > gi


def test_ttd_to_numeric_average_ratio_window():
    ratio = an.avg_gain_ttd(R, 2e9, 8) / an.avg_gain_ps_numeric(R, 2e9)
    assert 1.75 <= ratio <= 2.15


# ---------------------------------------------------------------------------
# spectrum efficiency
# ---------------------------------------------------------------------------


def _grid(m=129):
    return FrequencyGrid(30e9, 3e9, m)


def test_se_zero_effective_channel_is_zero():
    assert an.se_from_effective(np.zeros((4, 2)), 10.0, 1.0) == 0.0


def test_se_single_stream_log_identity():
    grid = _grid(129)
    path = PathParams(0.8 - 0.3j, 5e-9, 1.1, 0.4)
    ch = ChannelRealization(paths=(path,), tx=GEOM, rx=RX, grid=grid)
    ps, _ = build_dpp(ch, DppConfig(1, 8, 1), rho=10.0)
    h = channel_matrix(ch, 64)
    se = an.spectrum_efficiency(h, ps, 64, 10.0, 1.0)
    # perfect beam at fc: effective gain is N * |g|^2
    assert se == pytest.approx(
        math.log2(1.0 + 10.0 * 256 * abs(path.gain) ** 2), abs=1e-9
    )


def test_se_optimal_single_stream_matches_top_singular_value():
    rng = np.random.default_rng(8)
    h = (rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))) / math.sqrt(2)
    top = np.linalg.svd(h, compute_uv=False)[0]
    assert an.spectrum_efficiency_optimal(h, 10.0, 1.0, 1) == pytest.approx(
        math.log2(1.0 + 10.0 * top ** 2), abs=1e-12
    )


def test_se_optimal_matches_explicit_svd_precoder():
    rng = np.random.default_rng(3)
    h = (rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))) / math.sqrt(2)
    n_s = 3
    res = svd(h)
    gains = 10.0 * res.sigma[:n_s] ** 2 / n_s
    powers = water_filling(gains, 1.0)
    f = res.u[:, :n_s] @ np.diag(np.sqrt(powers))
    se_explicit = an.se_from_effective(h.conj().T @ f, 10.0, 1.0, n_s)
    assert an.spectrum_efficiency_optimal(h, 10.0, 1.0, n_s) == pytest.approx(
        se_explicit, abs=1e-9
    )


def test_se_optimal_equal_modes_split_power_evenly():
    h = 3.0 * np.eye(4, dtype=complex)
    se = an.spectrum_efficiency_optimal(h, 10.0, 1.0, 4)
    per_mode = math.log2(1.0 + 10.0 * 9.0 / 4.0 * 0.25)
    assert se == pytest.approx(4.0 * per_mode, abs=1e-12)


def test_se_grows_with_snr():
    grid = _grid(33)
    ch = generate_channel(GEOM, RX, grid, 4, 17)
    cfg = DppConfig(4, 8, 4)
    h = channel_matrix(ch, 16)
    ps_lo, _ = build_dpp(ch, cfg, rho=1.0)
    ps_hi, _ = build_dpp(ch, cfg, rho=10.0)
    assert an.spectrum_efficiency(h, ps_hi, 16, 10.0, 1.0) > an.spectrum_efficiency(
        h, ps_lo, 16, 1.0, 1.0
    )


def test_dpp_se_never_beats_fully_digital():
    grid = _grid(17)
    cfg = DppConfig(4, 8, 4)
    for seed in range(20):
        ch = generate_channel(GEOM, RX, grid, 4, seed)
        ps, _ = build_dpp(ch, cfg, rho=10.0)
        for m in (0, 8, 16):
            h = channel_matrix(ch, m)
            se = an.spectrum_efficiency(h, ps, m, 10.0, 1.0)
            opt = an.spectrum_efficiency_optimal(h, 10.0, 1.0, 4)
            assert se <= opt + 1e-9


def test_dpp_se_beats_classic_on_average():
    grid = _grid(33)
    cfg = DppConfig(4, 8, 4)
    gaps = []
    for seed in range(5):
        ch = generate_channel(GEOM, RX, grid, 4, seed)
        pa = build_classic_hybrid(ch, cfg, rho=10.0)
        pb, _ = build_dpp(ch, cfg, rho=10.0)
        se_a = np.mean(
            [an.spectrum_efficiency(channel_matrix(ch, m), pa, m, 10.0, 1.0)
             for m in range(33)]
        )
        se_b = np.mean(
            [an.spectrum_efficiency(channel_matrix(ch, m), pb, m, 10.0, 1.0)
             for m in range(33)]
        )
        gaps.append(se_b - se_a)
    assert np.mean(gaps) > 0.0


def test_se_validation():
    with pytest.raises(ValueError):
        an.se_from_effective(np.zeros((4, 2)), 0.0, 1.0)
    with pytest.raises(ValueError):
        an.spectrum_efficiency_optimal(np.eye(4), 10.0, 1.0, 5)
    with pytest.raises(ValueError):
        an.spectrum_efficiency_optimal(np.eye(4), 10.0, 1.0, 1, total_power=0.0)


# ---------------------------------------------------------------------------
# beam leakage across chains
# ---------------------------------------------------------------------------


def test_cross_gains_diagonal_dominates_at_center():
    grid = _grid(129)
    cfg = DppConfig(4, 8, 4)
    ch = generate_channel(GEOM, RX, grid, 4, 1)
    ps, _ = build_dpp(ch, cfg, rho=10.0)
    g = an.beam_cross_gains(ch, ps, 64)
    assert g.shape == (4, 4)
    assert np.all(np.diag(g) >= 1.0 - 1e-9)


def test_cross_gains_off_diagonal_leakage_is_real_but_bounded():
    # separate beams do leak into each other across the band; the effect is
    # measurable yet stays well below the serving beam
    grid = _grid(129)
    cfg = DppConfig(4, 8, 4)
    worst = 0.0
    for seed in range(5):
        ch = generate_channel(GEOM, RX, grid, 4, seed)
        ps, _ = build_dpp(ch, cfg, rho=10.0)
        for m in (0, 64, 128):
            g = an.beam_cross_gains(ch, ps, m)
            off = g[~np.eye(4, dtype=bool)]
            worst = max(worst, float(off.max()))
    assert worst <= 0.25
    assert worst > 0.01


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), snr_db=st.floats(-10.0, 30.0),
       n_sub=st.integers(1, 19), k_ttd=st.sampled_from([1, 2, 4, 8, 16]),
       n_rf=st.integers(1, 3), bw=st.floats(0.1e9, 10e9))
def test_stacked_rates_equal_per_subcarrier_rates(seed, snr_db, n_sub, k_ttd, n_rf, bw):
    # 19 subcarriers span three chunks, the last one partial
    tx = half_wavelength_uca(16, 30e9)
    ch = generate_channel(tx, RX, FrequencyGrid(30e9, bw, n_sub), 3, seed)
    rho = 10.0 ** (snr_db / 10.0)
    ps, _ = build_dpp(ch, DppConfig(n_rf, k_ttd, n_rf), rho=rho)
    stacked = an.spectrum_efficiency(ch.matrices, ps, range(n_sub), rho, 1.0)
    single = [an.spectrum_efficiency(channel_matrix(ch, m), ps, m, rho, 1.0)
              for m in range(n_sub)]
    np.testing.assert_allclose(stacked, single, rtol=1e-12, atol=1e-13)
    stacked = an.spectrum_efficiency_optimal(ch.matrices, rho, 1.0, n_rf)
    single = [an.spectrum_efficiency_optimal(channel_matrix(ch, m), rho, 1.0, n_rf)
              for m in range(n_sub)]
    np.testing.assert_allclose(stacked, single, rtol=1e-12, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(n_tx=st.sampled_from([4, 8, 12, 16]), data=st.data(), seed=st.integers(0, 2**32 - 1),
       snr_db=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4),
       n_sub=st.integers(1, 19), bw=st.floats(0.1e9, 10e9), classic=st.booleans())
def test_design_rates_equal_the_two_pass_formula(n_tx, data, seed, snr_db, n_sub, bw,
                                                 classic):
    # every divisor K of N up to N, 1 to 4 RF chains and streams; the
    # reference builds the precoder at each SNR, forms F = A f_d explicitly
    # and rates H^H F.  SNRs stop at 20 dB (the built-in range): the log-det
    # of I + s H_eff H_eff^H is conditioned like s*sigma^2, so at 40 dB two
    # effective channels equal to rounding give rates 1.3e-12 apart.
    k_ttd = data.draw(st.sampled_from([k for k in range(1, n_tx + 1) if n_tx % k == 0]))
    n_rf = data.draw(st.integers(1, 4))
    n_s = data.draw(st.integers(1, n_rf))
    cfg = DppConfig(n_rf, k_ttd, n_s, total_power=2.0)
    tx = half_wavelength_uca(n_tx, 30e9)
    ch = generate_channel(tx, RX, FrequencyGrid(30e9, bw, n_sub), 4, seed)
    rhos = 10.0 ** (np.array(snr_db) / 10.0)
    design = (design_classic_hybrid if classic else design_dpp)(ch, cfg)
    rates = an.design_spectrum_efficiency(design, rhos, 1.0)
    assert rates.shape == (rhos.size, n_sub)
    h_t = np.swapaxes(ch.matrices, -1, -2)
    for rho, row in zip(rhos.tolist(), rates):
        ps = build_classic_hybrid(ch, cfg, rho) if classic else build_dpp(ch, cfg, rho)[0]
        f = combined_precoder(ps, range(n_sub))
        np.testing.assert_allclose(np.linalg.norm(f, axis=(-2, -1)) ** 2, 2.0, rtol=1e-12)
        two_pass = an.se_from_effective(np.conj(h_t @ f.conj()), rho, 1.0)
        np.testing.assert_allclose(row, two_pass, rtol=1e-12, atol=1e-13)
        np.testing.assert_array_equal(an.design_spectrum_efficiency(design, rho, 1.0), row)


def test_rates_at_many_snrs_are_taken_in_blocks(monkeypatch):
    # with 4 (SNR, subcarrier) pairs per step, 9 subcarriers still take one
    # SNR per step; the rows do not depend on the blocking
    ch = generate_channel(GEOM, RX, _grid(9), 4, 1)
    rhos = np.array([0.5, 2.0, 10.0])
    design = design_dpp(ch, DppConfig(2, 8, 2))
    whole = an.design_spectrum_efficiency(design, rhos, 1.0)
    optimal = an.spectrum_efficiency_optimal(ch.matrices, rhos, 1.0, 2)
    monkeypatch.setattr(an, "SNR_BLOCK_PAIRS", 4)
    calls = []
    se_from_effective = an.se_from_effective

    def counted(h_eff, rho, *args):
        calls.append(np.size(rho))
        return se_from_effective(h_eff, rho, *args)

    monkeypatch.setattr(an, "se_from_effective", counted)
    np.testing.assert_array_equal(an.design_spectrum_efficiency(design, rhos, 1.0), whole)
    np.testing.assert_array_equal(an.spectrum_efficiency_optimal(ch.matrices, rhos, 1.0, 2),
                                  optimal)
    assert calls == [1, 1, 1]
    with pytest.raises(ValueError, match="rho must be a scalar or a 1-D array"):
        an.design_spectrum_efficiency(design, rhos[None], 1.0)
    with pytest.raises(ValueError, match="rho must be positive"):
        an.design_spectrum_efficiency(design, np.array([1.0, 0.0]), 1.0)


def test_stacked_rate_shape_mismatch_is_rejected():
    ch = generate_channel(GEOM, RX, _grid(9), 4, 1)
    ps, _ = build_dpp(ch, DppConfig(1, 8, 1), rho=10.0)
    with pytest.raises(ValueError, match="channel/precoder mismatch"):
        an.spectrum_efficiency(ch.matrices, ps, range(8), 10.0, 1.0)
    with pytest.raises(ValueError, match="channel/precoder mismatch"):
        an.spectrum_efficiency(ch.matrices[0], ps, range(1), 10.0, 1.0)
