"""Closed-form gains, averaged-gain bounds, sizing rule, spectrum efficiency."""

import functools
import itertools
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_analog import analog, chain_directions, chain_stage, precoder_stage
from ucabeam import analysis as an
from ucabeam import specfun
from ucabeam.analysis import _GAIN_FLOOR
from ucabeam.arraymodel import (
    SPEED_OF_LIGHT,
    SUBCARRIER_CHUNK,
    ChannelRealization,
    FrequencyGrid,
    PathParams,
    UlaGeometry,
    _eta,
    channel_matrix,
    generate_channel,
    half_wavelength_uca,
    steering_uca,
    steering_ula,
)
from ucabeam.cxlinalg import svd, water_filling
from ucabeam.precoding import (
    DppConfig,
    HybridDesign,
    _bound,
    build_classic_hybrid,
    build_dpp,
)
from ucabeam.specfun import ConvergenceError, bessel_j

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


def test_exact_gain_sweeps_build_rows_a_chunk_at_a_time(monkeypatch):
    # on a frequency x angle grid each chunk of SUBCARRIER_CHUNK angles
    # takes its angle factor once for every frequency (once in all at a
    # scalar phi), and the rows it builds stay SUBCARRIER_CHUNK x N per step,
    # F x P rows in all; a scalar pair still gives a float.  A fig3b-shaped
    # call, 3 frequencies by 257 angles at N = 256, peaks near 115 KB of
    # traced memory, where a 257 x 256 table of cos(phi - psi_n) alone would
    # take 526 KB
    w = steering_uca(GEOM, 30e9, PHI0)
    freqs, phis = np.linspace(28.5e9, 31.5e9, 257), np.linspace(-1.0, 2.5, 257)
    an.exact_gain(w, GEOM, freqs[:3, None], phis)
    tracemalloc.start()
    try:
        an.exact_gain(w, GEOM, freqs[:3, None], phis)
        assert tracemalloc.get_traced_memory()[1] <= 150_000
    finally:
        tracemalloc.stop()
    factors, rows = [], []

    def recorded(geom, phi_rad):
        factors.append(np.size(phi_rad))
        build = steering_rows(geom, phi_rad)

        def counted(f, out=None):
            a = build(f, out)
            rows.append(a.shape)
            return a
        return counted

    steering_rows = an._steering_rows
    monkeypatch.setattr(an, "_steering_rows", recorded)
    assert an.exact_gain(w, GEOM, freqs[:3, None], phis).shape == (3, 257)
    assert factors == [SUBCARRIER_CHUNK] * 32 + [1]
    assert max(rows) == (SUBCARRIER_CHUNK, 256) and len(rows) == 3 * 33
    assert sum(r[0] for r in rows) == 3 * 257
    for sweep in (lambda: an.exact_gain(w, GEOM, freqs, PHI0),
                  lambda: an.dpp_exact_gain(GEOM, 30e9, freqs, PHI0, 8)):
        factors.clear(), rows.clear()
        assert sweep().shape == (257,)
        assert factors == [1] and max(rows) == (SUBCARRIER_CHUNK, 256)
        assert sum(r[0] for r in rows) == 257
    assert type(an.exact_gain(w, GEOM, 30e9, PHI0)) is float
    assert type(an.dpp_exact_gain(GEOM, 30e9, 29e9, PHI0, 8)) is float


def _formula_row(geom, f, phi):
    """One steering vector by the formula of steering_uca (steering_ula),
    written out with its operations in their order: the bits the CSVs hold."""
    if isinstance(geom, UlaGeometry):
        phase = 2.0 * np.pi * np.arange(geom.n_elements) * geom.spacing_m * f * math.sin(phi) / C
    else:
        phase = 2.0 * np.pi * geom.radius_m * f / C * np.cos(phi - geom.element_angles)
    return np.exp(1j * phase) / math.sqrt(geom.n_elements)


@settings(max_examples=25, deadline=None)
@given(freqs=st.lists(st.floats(28e9, 32e9), min_size=1, max_size=4),
       phis=st.lists(st.floats(-math.pi, 2.0 * math.pi), min_size=1, max_size=40),
       n=st.sampled_from([16, 256, 1024]), k=st.sampled_from([1, 8, "N"]),
       scalar_phi=st.booleans())
def test_exact_gain_grids_equal_their_scalar_calls(freqs, phis, n, k, scalar_phi):
    # F frequencies by P angles (P often not a multiple of SUBCARRIER_CHUNK,
    # or a scalar phi): every value of the grid, of a frequency sweep at one
    # angle, and of the ULA path has the bits of its point's scalar call and
    # of the steering formula written out
    geom, ula = half_wavelength_uca(n, 30e9), UlaGeometry(n, C / 30e9 / 2.0)
    k_ttd = n if k == "N" else k
    col, phi = np.array(freqs)[:, None], phis[0] if scalar_phi else np.array(phis)
    w, w_ula = steering_uca(geom, 30e9, PHI0), steering_ula(ula, 30e9, PHI0)
    pts = [(i, j, f, p) for i, f in enumerate(freqs) for j, p in enumerate(np.atleast_1d(phi))]
    grid = an.exact_gain(w, geom, col, phi)
    ula_grid = an._gains(ula, col, phi, [lambda f: w_ula])[0]
    assert grid.shape == ula_grid.shape == (len(freqs), len(pts) // len(freqs))
    for i, j, f, p in pts:
        assert grid[i, j] == an.exact_gain(w, geom, f, float(p))
        assert grid[i, j] == abs(np.vdot(_formula_row(geom, f, float(p)), w))
        assert ula_grid[i, j] == abs(np.vdot(steering_ula(ula, f, float(p)), w_ula))
        assert ula_grid[i, j] == abs(np.vdot(_formula_row(ula, f, float(p)), w_ula))
    sweep = np.array(freqs * 10)  # a sweep at one angle crosses chunk edges
    for p in np.atleast_1d(phi)[:2].tolist():
        assert np.array_equal(an.exact_gain(w, geom, sweep, p),
                              [an.exact_gain(w, geom, f, p) for f in sweep.tolist()])
        assert np.array_equal(an.dpp_exact_gain(geom, 30e9, sweep, p, k_ttd),
                              [an.dpp_exact_gain(geom, 30e9, f, p, k_ttd) for f in freqs * 10])
        dpp_col = an.dpp_exact_gain(geom, 30e9, col, p, k_ttd)
        assert np.array_equal(dpp_col[:, 0], [an.dpp_exact_gain(geom, 30e9, f, p, k_ttd)
                                              for f in freqs])


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([16, 256, 1024]),
       points=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       scalar_f=st.booleans(), k=st.sampled_from([1, 8, "N"]))
def test_gains_of_several_weights_equal_one_weight_calls(n, points, scalar_f, k):
    # one steering-row pass for two weights, the fc beam and the delay-phase
    # weights, gives each weight the bits of its own one-weight call: over a
    # frequency sweep at one angle, or over angles at one frequency
    geom = half_wavelength_uca(n, 30e9)
    if scalar_f:
        f, phi = 29e9, -1.0 + 3.0 * np.array(points)
    else:
        f, phi = 28e9 + 4e9 * np.array(points), PHI0
    beam = steering_uca(geom, 30e9, PHI0)
    weights = [lambda f: beam, an._dpp_weights(geom, 30e9, PHI0, n if k == "N" else k)]
    both = an._gains(geom, f, phi, weights)
    assert len(both) == 2
    for got, weight in zip(both, weights):
        alone, = an._gains(geom, f, phi, [weight])
        assert got.shape == (len(points),)
        assert np.array_equal(got, alone)


# ---------------------------------------------------------------------------
# the fc beam's gain from J0 where the Jacobi-Anger tail is certified
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps
_PI_LD = 4.0 * np.arctan(np.longdouble(1.0))


def _beam_gain_long_double(geom, f, phi):
    """|a(f, phi)^H a(fc, PHI0)| summed in long double from the double ring
    phases eta(f) and eta(fc) that every route of the library forms."""
    n = geom.n_elements
    psi = 2.0 * _PI_LD * np.arange(n, dtype=np.longdouble) / n
    phase = (np.longdouble(_eta(f, geom.radius_m)) * np.cos(np.longdouble(phi) - psi)
             - np.longdouble(_eta(30e9, geom.radius_m)) * np.cos(np.longdouble(PHI0) - psi))
    return float(np.hypot(np.sum(np.cos(phase)), np.sum(np.sin(phase))) / n)


def _certificate(geom, f, phi):
    """(xi, |J1(xi)|, whether the point is surely certified, surely not)
    by mpmath, with a 10 % margin on each test of _beam_gains: the tail
    4 (xi/2)^N/N! <= 1e-17, xi <= 2100 and (xi |J1| + 8) eps <= 1e-13 |J0|."""
    n = geom.n_elements
    with mpmath.workdps(30):
        ef, ec = mpmath.mpf(_eta(f, geom.radius_m)), mpmath.mpf(_eta(30e9, geom.radius_m))
        half = (mpmath.mpf(phi) - PHI0) / 2
        xi = mpmath.sqrt((ef - ec) ** 2 + 4 * ef * ec * mpmath.sin(half) ** 2)
        if xi == 0:
            return 0.0, 0.0, True, False
        tail = float(4 * mpmath.exp(n * mpmath.log(xi / 2) - mpmath.loggamma(n + 1)))
        if tail > 1.1e-17 or xi > 2101:
            return float(xi), None, False, True
        j0, j1 = abs(mpmath.besselj(0, xi)), abs(mpmath.besselj(1, xi))
        ratio = float((xi * j1 + 8) * _EPS / (1e-13 * j0)) if j0 else math.inf
    sure = tail <= 0.9e-17 and xi <= 2099 and ratio <= 0.9
    return float(xi), float(j1), sure, ratio > 1.1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 4096), data=st.data())
def test_beam_gains_are_j0_where_certified_and_dense_bits_elsewhere(n, data):
    # N from 2 to 4096, phi on the whole circle about PHI0 and f within
    # fc +- 50 % (half the draws near the beam, where most points are
    # certified): a certified point is within (xi |J1| + 8) eps + 1e-17 of
    # the dense sum in long double, the rounding of xi and of J0 plus the
    # dropped tail; any other point has the bits of its scalar exact_gain
    # call; and each point of the F x P grid has the bits of its scalar call
    geom = half_wavelength_uca(n, 30e9)
    near = st.floats(-4.0 / n, 4.0 / n)
    freqs = data.draw(st.lists(st.one_of(st.floats(15e9, 45e9),
                                         near.map(lambda t: 30e9 * (1 + t))),
                               min_size=1, max_size=3))
    phis = data.draw(st.lists(st.one_of(st.floats(PHI0 - math.pi, PHI0 + math.pi),
                                        near.map(lambda t: PHI0 + t)), min_size=1, max_size=5))
    beam = steering_uca(geom, 30e9, PHI0)
    grid = an._beam_gains(geom, 30e9, PHI0, np.array(freqs)[:, None], np.array(phis))
    assert grid.shape == (len(freqs), len(phis))
    for (i, f), (j, phi) in itertools.product(enumerate(freqs), enumerate(phis)):
        got = grid[i, j]
        assert got == an._beam_gains(geom, 30e9, PHI0, f, phi)
        xi, j1, sure, not_certified = _certificate(geom, f, phi)
        dense = an.exact_gain(beam, geom, f, phi)
        if not_certified:
            assert got == dense, (f, phi, xi)
        elif sure:
            bound = (xi * j1 + 8.0) * _EPS + 1e-17
            assert abs(got - _beam_gain_long_double(geom, f, phi)) <= bound, (f, phi, xi)
        else:  # at the edge of a test: either route
            assert got == dense or abs(got - _beam_gain_long_double(geom, f, phi)) <= (
                (xi * j1 + 8.0) * _EPS + 1e-17)


def test_beam_gain_at_the_first_zero_of_j0_takes_the_dense_bits():
    # on the beam xi = eta(f) - eta(fc): at J0's first zero J0 cannot be
    # told from the rounding of xi, so the dense sum gives the value
    f = 30e9 + J0_FIRST_ZERO * C / (2.0 * math.pi * R)
    beam = steering_uca(GEOM, 30e9, PHI0)
    assert an._beam_gains(GEOM, 30e9, PHI0, f, PHI0) == an.exact_gain(beam, GEOM, f, PHI0)
    assert an._beam_gains(GEOM, 30e9, PHI0, f, PHI0) < 1e-13


def test_beam_gain_on_the_back_lobe_of_a_small_ring_takes_the_dense_bits():
    # at N = 16 the back lobe has xi = 2 eta(fc) = 16, where the tail
    # J_16(16) is far from negligible: the point takes the dense sum, which
    # differs from |J0(16)|
    geom = half_wavelength_uca(16, 30e9)
    beam = steering_uca(geom, 30e9, PHI0)
    back = PHI0 + math.pi
    got = an._beam_gains(geom, 30e9, PHI0, 30e9, back)
    assert got == an.exact_gain(beam, geom, 30e9, back)
    assert abs(got - abs(bessel_j(0, 16.0))) > 0.1


def test_beam_gain_on_the_beam_at_fc_is_exactly_one():
    assert an._beam_gains(GEOM, 30e9, PHI0, 30e9, PHI0) == 1.0
    got = an._beam_gains(GEOM, 30e9, PHI0, np.array([[30e9], [29e9]]), np.array([PHI0, 0.0]))
    assert got[0, 0] == 1.0 and type(an._beam_gains(GEOM, 30e9, PHI0, 30e9, PHI0)) is float


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
    # the column of one delay-phase chain, written out: the center-frequency
    # beam, each P-element arc rotated so that its centroid phase is zero, and
    # each arc delayed by t_k = (R/c)(1 - cos(phi - theta_k)), the phase
    # exp(-2j*pi*f*t_k) at f
    f, k_ttd = 28.9e9, 8
    theta = math.pi * (2.0 * np.arange(k_ttd) + 1.0) / k_ttd - math.pi / 256
    eta_c = 2.0 * math.pi * R * 30e9 / C
    t = R / C * (1.0 - np.cos(PHI0 - theta))
    arc = np.exp(-1j * eta_c * np.cos(PHI0 - theta)) * np.exp(-2j * math.pi * f * t)
    col = steering_uca(GEOM, 30e9, PHI0) * np.repeat(arc, 256 // k_ttd)
    a = steering_uca(GEOM, f, PHI0)
    assert an.dpp_exact_gain(GEOM, 30e9, f, PHI0, k_ttd) == pytest.approx(
        abs(np.vdot(a, col)), abs=1e-12
    )
    assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n_tx=st.integers(2, 1024), data=st.data(),
       phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       freqs=st.lists(st.floats(15e9, 45e9), min_size=1, max_size=9))
def test_dpp_exact_gain_equals_the_dense_chain(n_tx, data, phi, freqs):
    # any divisor K of N, any direction and frequencies within fc +- 50 %:
    # the sweep and each scalar call against |a(f, phi)^H A(f)| of the dense
    # chain written out from the paper's formulas
    k_ttd = data.draw(st.sampled_from([k for k in range(1, n_tx + 1) if n_tx % k == 0]))
    geom = half_wavelength_uca(n_tx, 30e9)
    stage = chain_stage(geom, 30e9, [phi], k_ttd)
    want = [abs(np.vdot(steering_uca(geom, f, phi), analog(*stage, f)[:, 0])) for f in freqs]
    got = an.dpp_exact_gain(geom, 30e9, np.array(freqs), phi, k_ttd)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    for f, value in zip(freqs, got.tolist()):
        assert an.dpp_exact_gain(geom, 30e9, f, phi, k_ttd) == value


@pytest.mark.parametrize("phi", [np.linspace(0.1, 0.8, 3), np.array([0.5]), [0.5]])
def test_dpp_exact_gain_rejects_a_non_scalar_direction(phi):
    with pytest.raises(ValueError, match="phi_rad must be a scalar"):
        an.dpp_exact_gain(GEOM, 30e9, 29e9, phi, 8)
    with pytest.raises(ValueError, match="phi_rad must be a scalar"):
        an.dpp_exact_gain(GEOM, 30e9, np.linspace(29e9, 31e9, 3), phi, 8)


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


@pytest.mark.parametrize("call, message", [
    (lambda: an.exact_gain(np.full(3, 0.5), GEOM, 30e9, 0.5), "w must have shape (256,), got (3,)"),
    (lambda: an.min_ttd_count(0.4, R, -1.0), "bandwidth_hz must be non-negative, got -1.0"),
    (lambda: an.spectrum_efficiency_optimal(np.ones(4), 1.0, 1),
     "h_m must be 2-D or a stack of 2-D, got shape (4,)"),
])
def test_malformed_arguments_are_named(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.2, 0.3, 0.4])
def test_min_ttd_count_matches_mpmath(delta):
    # the deltas the bench sizes for; x* is mpmath's root of g = 1 - delta
    with mpmath.workdps(40):
        x = mpmath.findroot(lambda x: mpmath.hyp1f2(0.5, 1, 1.5, -x * x / 4)
                            - (1 - mpmath.mpf(delta)), math.sqrt(12.0 * delta))
        want = mpmath.pi**2 * R * 3e9 / (C * x)
        assert abs(an.min_ttd_count(delta, R, 3e9) - want) <= 1e-15 * want


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


@functools.cache
def _mp_j0_zeros(b):
    """The zeros of J0 below b at 30 digits, and the first one above it."""
    with mpmath.workdps(30):
        zeros = [mpmath.besseljzero(0, 1)]
        while zeros[-1] < b:
            zeros.append(mpmath.besseljzero(0, len(zeros) + 1))
    return zeros


def _mp_avg_abs_j0(b):
    """(1/b) * int_0^b |J0| at 30 digits: mpmath quadrature of J0 between
    its zeros, each segment's integral taken with its sign dropped."""
    with mpmath.workdps(30):
        ends = [mpmath.mpf(0)] + _mp_j0_zeros(b)[:-1] + [mpmath.mpf(b)]
        total = sum(abs(mpmath.quad(mpmath.j0, [lo, hi], method="gauss-legendre"))
                    for lo, hi in zip(ends, ends[1:]))
        return float(total / b)


def _band_for(b):
    """The bandwidth whose b = pi*B*R/c on the test ring is the float b."""
    bw = b * C / (math.pi * R)
    for _ in range(16):
        got = an._b_ps(R, bw)
        if got == b:
            return bw
        bw = float(np.nextafter(bw, math.inf if got < b else -math.inf))
    raise AssertionError(f"no bandwidth gives b = {b!r}")


J0_ZEROS = [float(z) for z in _mp_j0_zeros(9.0)]


@pytest.mark.parametrize("b", [
    1.3,                                    # below the first zero
    J0_ZEROS[0], J0_ZEROS[1],               # at a zero
    J0_ZEROS[2] - 1e-12, J0_ZEROS[2] + 1e-12,  # within 1e-12 of one
    2.133, 85.0, 500.0,
])
def test_avg_gain_numeric_matches_mpmath_between_zeros(b):
    bw = _band_for(b)
    assert an.avg_gain_ps_numeric(R, bw) == pytest.approx(_mp_avg_abs_j0(b), rel=1e-13, abs=0)


def test_avg_gain_numeric_matches_direct_quadrature():
    b = np.pi * 2e9 * R / C
    assert an.avg_gain_ps_numeric(R, 2e9) == pytest.approx(_mp_avg_abs_j0(b), rel=1e-13, abs=0)


def test_zeros_of_j0_match_mpmath():
    zeros = an._j0_zeros(500.0)
    want = _mp_j0_zeros(500.0)
    assert zeros.size == len(want) - 1  # every zero below 500, none above
    for got, ref in zip(zeros.tolist(), want):
        assert abs(got - ref) <= 1e-15 * ref


def test_zeros_take_j0_and_j1_from_one_pass():
    # the zeros are >= 2.40, above both orders: one pass for J0 and J1 gives
    # each the bits of its own pass; below the first zero there are none,
    # and no pass runs
    z = an._j0_zeros(300.0)
    j0, j1 = specfun._bessel_miller((0, 1), z)
    assert np.array_equal(j0, specfun._bessel_miller((0,), z)[0])
    assert np.array_equal(j1, specfun._bessel_miller((1,), z)[0])
    for b_max in (0.5, 2.36, 2.4):
        assert an._j0_zeros(b_max).size == 0


# the public band averages by their kinds in _band_averages, in the order
# it checks them
BAND_CALLS = {
    "numeric": lambda r, bw, k: an.avg_gain_ps_numeric(r, bw),
    "upper": lambda r, bw, k: an.avg_gain_ps_upper(r, bw),
    "lower": lambda r, bw, k: an.avg_gain_ps_lower(r, bw),
    "ttd": lambda r, bw, k: an.avg_gain_ttd(r, bw, k),
}


@pytest.mark.parametrize("kinds", [tuple(BAND_CALLS), ("ttd", "lower", "numeric"),
                                   ("upper", "lower"), ("numeric",)])
@pytest.mark.parametrize("k_ttd", [1, 8])
def test_band_averages_of_one_pass_equal_their_public_calls(kinds, k_ttd):
    # one pass gives each kind, in the order asked, the bits of its public
    # call: bands with no zero of J0 below b, with several, and scalars
    bw = np.concatenate(([1e3, 0.5e9, _band_for(J0_ZEROS[1])], np.linspace(0.05e9, 8e9, 41)))
    for arg in (bw, 0.5e9, 4e9):
        got = an._band_averages(R, arg, k_ttd, kinds)
        assert len(got) == len(kinds)
        for kind, value in zip(kinds, got):
            want = BAND_CALLS[kind](R, arg, k_ttd)
            assert type(value) is type(want)
            assert np.array_equal(value, want)


def test_band_averages_of_no_bandwidths_are_empty():
    # an empty array of bands has no zeros of J0 below its widest band: each
    # public call, and one pass of all four kinds, gives an empty array
    got = [BAND_CALLS[kind](R, np.array([]), 8) for kind in BAND_CALLS]
    got += an._band_averages(R, np.array([]), 8, list(BAND_CALLS))
    assert [(v.dtype, v.shape) for v in got] == [(np.dtype(float), (0,))] * 8


@pytest.mark.parametrize("kinds, radius, bw, first", [
    # the numeric average's zeros at b = 1e6, before anything else
    (tuple(BAND_CALLS), R, [1e9, 1e6 * C / (math.pi * R)], "numeric"),
    # with K = 1, b_ttd = pi * b passes the budget where b does not
    (("ttd", "lower", "upper"), 0.3, [1e9, 30000.0 * C / (math.pi * 0.3)], "ttd"),
    # all three fail: the first in the order of BAND_CALLS raises
    (("ttd", "lower", "upper"), 0.3, [1e9, 70000.0 * C / (math.pi * 0.3)], "upper"),
])
def test_band_averages_past_the_step_budget_raise_their_public_error(kinds, radius, bw, first):
    bw = np.array(bw)
    with pytest.raises(ConvergenceError) as alone:
        BAND_CALLS[first](radius, bw, 1)
    with pytest.raises(ConvergenceError) as shared:
        an._band_averages(radius, bw, 1, kinds)
    assert str(shared.value) == str(alone.value)
    assert "would take more than 65536 steps" in str(shared.value)
    order = list(BAND_CALLS)
    for kind in kinds:  # the kinds before the first pass on their own
        if order.index(kind) < order.index(first):
            BAND_CALLS[kind](radius, bw, 1)


def test_numeric_average_past_the_step_budget_raises_before_finding_zeros():
    # b = 1e6 would make 318,000 guesses of zeros (2.5 MB an array) whose
    # Miller passes the step budget refuses anyway: the budget raises first
    bw = 1e6 * C / (math.pi * R)
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match=r"at x=1000000\.0\d* would take more than"):
            an.avg_gain_ps_numeric(R, bw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def _mp_mean(f, b):
    """(1/b) * int_0^b f at 30 digits, by mpmath quadrature."""
    with mpmath.workdps(30):
        return float(mpmath.quad(f, [0, b]) / b)


def test_avg_gain_upper_matches_rms_quadrature():
    # upper bound is the root-mean-square of the same kernel
    b = np.pi * 2e9 * R / C
    rms = math.sqrt(_mp_mean(lambda t: mpmath.j0(t) ** 2, b))
    assert an.avg_gain_ps_upper(R, 2e9) == pytest.approx(rms, abs=1e-14)


def test_avg_gain_upper_is_within_rounding_of_mpmath():
    # the printed bound, sqrt(2F3(1/2, 1/2; 1, 1, 3/2; -b^2)), over the
    # built-in range b <= 8.6 (2.2e-16 measured)
    bw = np.linspace(0.0, 8.6, 861)[1:] * C / (math.pi * R)
    b = an._b_ps(R, bw)
    got = an.avg_gain_ps_upper(R, bw)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.sqrt(mpmath.hyp2f3(0.5, 0.5, 1, 1, 1.5, v)))
                         for v in (-b * b).tolist()])
    assert np.max(np.abs(got - want) / want) <= 5e-16


def test_avg_gain_lower_matches_signed_quadrature():
    b = np.pi * 2e9 * R / C
    signed = _mp_mean(mpmath.j0, b)
    assert an.avg_gain_ps_lower(R, 2e9) == pytest.approx(signed, abs=1e-14)


def test_avg_gain_ttd_matches_kernel_quadrature():
    b = np.pi * np.pi * 2e9 * R / (C * 8)
    quad = _mp_mean(lambda t: abs(mpmath.hyp1f2(0.5, 1, 1.5, -t * t / 4)), b)
    assert an.avg_gain_ttd(R, 2e9, 8) == pytest.approx(quad, abs=1e-14)


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
    # the segments between zeros are shared by all the bands, and each band
    # adds its own in the order of its scalar call
    numeric = an.avg_gain_ps_numeric(R, b)
    assert np.array_equal(numeric, [an.avg_gain_ps_numeric(R, v) for v in bws])


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


def _stack(ch):
    """The channel over the whole grid, M x N x N_r."""
    return channel_matrix(ch, range(ch.grid.n_subcarriers))


def _explicit_precoders(ch, cfg, rho, classic, power):
    """Effective channels H^H F (M x N_r x n_streams) and hybrid precoders F
    (M x N x n_streams) at SNR rho (unit noise power) on every subcarrier,
    formed the explicit way: dense A(f) per subcarrier, G = H^H A and its
    SVD, water-filling of the budget power over the top n_streams stream
    SNRs, digital precoders f_d = v * sqrt(p) rescaled so that f_d^H A^H A
    f_d = power, then F = A f_d.  A design rated at rho*power has its rates."""
    a = analog(*precoder_stage(ch, cfg, not classic), ch.grid.freqs_hz)  # M x N x n_rf
    h_h = np.swapaxes(_stack(ch).conj(), -1, -2)  # M x N_r x N
    _, sigma, vh = np.linalg.svd(h_h @ a, full_matrices=False)
    n_s = cfg.n_streams
    v = np.swapaxes(vh[:, :n_s].conj(), -1, -2)  # M x n_rf x n_s
    gains = np.maximum(rho * sigma[:, :n_s] ** 2 / n_s, _GAIN_FLOOR)
    f_d = v * np.sqrt(water_filling(gains, power))[:, None, :]
    radiated = np.trace(np.swapaxes(f_d.conj(), -1, -2) @ np.swapaxes(a.conj(), -1, -2)
                        @ a @ f_d, axis1=-2, axis2=-1).real
    f = a @ (f_d * np.sqrt(power / radiated)[:, None, None])
    return h_h @ f, f


def _log_det_rate(h_eff, rho):
    """log2 det(I + rho/n_s * H_eff^H H_eff) of each effective channel of a
    stack (N_r x n_s, n_s <= N_r), the n_s x n_s form, by a float slogdet."""
    n_s = h_eff.shape[-1]
    gram = np.eye(n_s) + rho / n_s * (np.swapaxes(h_eff.conj(), -1, -2) @ h_eff)
    sign, logdet = np.linalg.slogdet(gram)
    assert np.all(sign > 0.0)
    return logdet / math.log(2.0)


def _mp_rate(h_eff, s):
    """log2 det(I + s H_eff H_eff^H), the N_r x N_r form, in 60 digits."""
    with mpmath.workdps(60):
        h = mpmath.matrix(h_eff.tolist())
        gram = mpmath.eye(h.rows) + mpmath.mpf(s) * (h * h.H)
        return float(mpmath.log(mpmath.re(mpmath.det(gram)), 2))


def _draw_hybrid_case(data, seed, n_tx, n_s):
    """A random channel on a half-wavelength UCA of n_tx elements, 4 paths
    and 1 to 3 subcarriers, and a sizing with n_s streams on n_s to 4 RF
    chains and any divisor of n_tx as delay units per chain."""
    k_ttd = data.draw(st.sampled_from([k for k in range(1, n_tx + 1) if n_tx % k == 0]))
    cfg = DppConfig(data.draw(st.integers(n_s, 4)), k_ttd, n_s)
    grid = FrequencyGrid(30e9, data.draw(st.floats(0.1e9, 10e9)), data.draw(st.integers(1, 3)))
    return generate_channel(half_wavelength_uca(n_tx, 30e9), RX, grid, 4, seed), cfg


def test_se_zero_effective_channel_is_zero():
    # a path of zero gain leaves every equivalent channel zero: no rate, for
    # the hybrid designs and the fully digital bound alike
    path = PathParams(0j, 5e-9, 1.1, 0.4)
    ch = ChannelRealization(paths=(path,), tx=GEOM, rx=RX, grid=_grid(5))
    for build in (build_classic_hybrid, build_dpp):
        rates = an.spectrum_efficiency(build(ch, DppConfig(1, 8, 1)), 10.0)
        np.testing.assert_array_equal(rates, np.zeros(5))
    assert an.spectrum_efficiency_optimal(np.zeros((4, 2)), 10.0, 2) == 0.0


def test_se_single_stream_log_identity():
    grid = _grid(129)
    path = PathParams(0.8 - 0.3j, 5e-9, 1.1, 0.4)
    ch = ChannelRealization(paths=(path,), tx=GEOM, rx=RX, grid=grid)
    se = an.spectrum_efficiency(build_dpp(ch, DppConfig(1, 8, 1)), 10.0)[64]
    # perfect beam at fc: effective gain is N * |g|^2
    assert se == pytest.approx(
        math.log2(1.0 + 10.0 * 256 * abs(path.gain) ** 2), abs=1e-9
    )


def test_se_optimal_single_stream_matches_top_singular_value():
    rng = np.random.default_rng(8)
    h = (rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))) / math.sqrt(2)
    top = np.linalg.svd(h, compute_uv=False)[0]
    assert an.spectrum_efficiency_optimal(h, 10.0, 1) == pytest.approx(
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
    se_explicit = _mp_rate(h.conj().T @ f, 10.0 / n_s)
    assert an.spectrum_efficiency_optimal(h, 10.0, n_s) == pytest.approx(
        se_explicit, abs=1e-9
    )


def test_se_optimal_equal_modes_split_power_evenly():
    h = 3.0 * np.eye(4, dtype=complex)
    se = an.spectrum_efficiency_optimal(h, 10.0, 4)
    per_mode = math.log2(1.0 + 10.0 * 9.0 / 4.0 * 0.25)
    assert se == pytest.approx(4.0 * per_mode, abs=1e-12)


def test_se_grows_with_snr():
    grid = _grid(33)
    ch = generate_channel(GEOM, RX, grid, 4, 17)
    design = build_dpp(ch, DppConfig(4, 8, 4))
    assert an.spectrum_efficiency(design, 10.0)[16] > an.spectrum_efficiency(design, 1.0)[16]


def test_dpp_se_never_beats_fully_digital():
    grid = _grid(17)
    cfg = DppConfig(4, 8, 4)
    for seed in range(20):
        ch = generate_channel(GEOM, RX, grid, 4, seed)
        se = an.spectrum_efficiency(build_dpp(ch, cfg), 10.0)
        for m in (0, 8, 16):
            opt = an.spectrum_efficiency_optimal(channel_matrix(ch, m), 10.0, 4)
            assert se[m] <= opt + 1e-9


def test_dpp_se_beats_classic_on_average():
    grid = _grid(33)
    cfg = DppConfig(4, 8, 4)
    gaps = []
    for seed in range(5):
        ch = generate_channel(GEOM, RX, grid, 4, seed)
        se_a = np.mean(an.spectrum_efficiency(build_classic_hybrid(ch, cfg), 10.0))
        se_b = np.mean(an.spectrum_efficiency(build_dpp(ch, cfg), 10.0))
        gaps.append(se_b - se_a)
    assert np.mean(gaps) > 0.0


def test_rates_that_overflow_raise_naming_the_snr():
    # a finite rho whose scaled gains or whose rates overflow is a numeric
    # failure, with no overflow warning on the way
    ch = generate_channel(GEOM, RX, _grid(5), 4, 1)
    design = build_dpp(ch, DppConfig(2, 8, 2))
    assert np.all(design.sigma[:, 0] ** 2 / 2 > 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=r"rho=1e\+308 \(3080 dB\)"):
            an.spectrum_efficiency(design, 1e308)
        with pytest.raises(ArithmeticError, match=r"rho=1e\+308"):
            an.spectrum_efficiency(design, [1.0, 1e308])
        with pytest.raises(ArithmeticError, match=r"rho=1e\+308"):
            an.spectrum_efficiency_optimal(2.0 * np.eye(2), 1e308, 1)
        with pytest.raises(ArithmeticError, match=r"rho=1e\+308"):
            an.spectrum_efficiency_optimal(2.0 * np.eye(2), [1.0, 1e308], 1)
        # finite gains, but a stream radiating half its power is rescaled to
        # twice the unit power, and its rate overflows
        with pytest.raises(ArithmeticError, match=r"rho=1e\+308"):
            an.spectrum_efficiency(HybridDesign(np.ones((1, 1)), np.full((1, 1), 0.5)), 1e308)


def test_design_that_radiates_no_power_is_rejected():
    # a hybrid design whose streams radiate nothing cannot be rescaled to
    # unit radiated power
    with pytest.raises(ValueError, match="combined precoder has zero power"):
        an.spectrum_efficiency(HybridDesign(np.ones((2, 1)), np.zeros((2, 1))), 10.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       lead=st.lists(st.integers(1, 19), max_size=2), rows=st.integers(1, 40),
       cols=st.integers(1, 40), data=st.data())
def test_singular_values_match_the_svd(seed, lead, rows, cols, data):
    # tall, square, wide and rank-deficient matrices, alone or in stacks of
    # up to 19 (three chunks, the last partial), against LAPACK's own SVD:
    # the bound pass of the fully digital design, fed H^T chunk by chunk
    rank = data.draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(tuple(lead) + shape) + 1j * rng.standard_normal(
            tuple(lead) + shape)
    h = draw(rows, rank) @ draw(rank, cols)
    ref = np.linalg.svd(h, compute_uv=False)
    flat = h.reshape(-1, rows, cols)
    feed, result = _bound(flat.shape[0], min(rows, cols))
    for lo in range(0, flat.shape[0], SUBCARRIER_CHUNK):
        sl = slice(lo, min(lo + SUBCARRIER_CHUNK, flat.shape[0]))
        feed(sl, flat[sl].swapaxes(-1, -2))
    got = result().reshape(ref.shape)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * ref[..., :1])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tx=st.sampled_from([4, 8, 16]),
       n_s=st.integers(1, 4), data=st.data(), snr_db=st.floats(40.0, 60.0),
       classic=st.booleans())
def test_rates_match_a_high_precision_log_det(seed, n_tx, n_s, data, snr_db, classic):
    # classic and delay-phase designs with as many or fewer streams than
    # receive antennas, against the 60-digit log-det of H^H F for the
    # explicit precoder F = A f_d of power 2, rated at rho * 2
    ch, cfg = _draw_hybrid_case(data, seed, n_tx, n_s)
    rho = 10.0 ** (snr_db / 10.0)
    rates = an.spectrum_efficiency((build_classic_hybrid if classic else build_dpp)(ch, cfg),
                                   rho * 2.0)
    h_eff, _ = _explicit_precoders(ch, cfg, rho, classic, 2.0)
    for rate, h in zip(rates, h_eff):
        assert rate == pytest.approx(_mp_rate(h, rho / n_s), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tx=st.sampled_from([4, 8, 16]),
       n_s=st.integers(1, 3), data=st.data(), snr_db=st.floats(-20.0, 200.0),
       classic=st.booleans())
def test_rank_deficient_rates_hold_to_200_db(seed, n_tx, n_s, data, snr_db, classic):
    # with fewer streams than the 4 receive antennas, H_eff H_eff^H is rank
    # deficient; the rates must hold against its 60-digit log-det, whose
    # identity on the null space is not lost in rounding, however large the
    # SNR; the precoder has power 2 and the design is rated at rho * 2
    ch, cfg = _draw_hybrid_case(data, seed, n_tx, n_s)
    rho = 10.0 ** (snr_db / 10.0)
    rates = an.spectrum_efficiency((build_classic_hybrid if classic else build_dpp)(ch, cfg),
                                   rho * 2.0)
    h_eff, _ = _explicit_precoders(ch, cfg, rho, classic, 2.0)
    for rate, h in zip(rates, h_eff):
        assert rate == pytest.approx(_mp_rate(h, rho / n_s), rel=1e-12, abs=1e-13)
        if n_s == 1:
            assert rate == pytest.approx(
                math.log1p(rho * np.linalg.norm(h) ** 2) / math.log(2.0), rel=1e-12)


def test_se_validation():
    design = build_dpp(generate_channel(GEOM, RX, _grid(5), 4, 1), DppConfig(2, 8, 2))
    for rho in (0.0, -1.0, math.inf, math.nan, [1.0, 0.0]):
        with pytest.raises(ValueError, match="rho must be positive"):
            an.spectrum_efficiency(design, rho)
    with pytest.raises(ValueError, match=r"^rho must be positive, got -2\.0$"):
        an.spectrum_efficiency(design, [1.0, -2.0, 0.0])
    with pytest.raises(ValueError):
        an.spectrum_efficiency_optimal(np.eye(4), 10.0, 5)


@pytest.mark.parametrize("shape", [(0, 4, 2), (4, 0), (0, 4), (3, 0, 4, 2)])
def test_se_optimal_rejects_an_empty_channel(shape):
    # no channel, no rate: the error names h_m, not a failed numpy reshape
    with pytest.raises(ValueError, match=re.escape(f"h_m must be non-empty, got shape {shape}")):
        an.spectrum_efficiency_optimal(np.zeros(shape), 10.0, 1)


# ---------------------------------------------------------------------------
# beam leakage across chains
# ---------------------------------------------------------------------------


def _cross_gains(ch, cfg, m):
    """|a(f_m, phi_l)^H w_chain| between the path directions (strongest
    first) and the delay-phase chains' combined analog columns at
    subcarrier m; the diagonal holds the per-beam gains."""
    f = ch.grid.freqs_hz[m]
    rows = steering_uca(ch.tx, f, chain_directions(ch, cfg.n_rf))
    return np.abs(rows.conj() @ analog(*precoder_stage(ch, cfg), f))


def test_cross_gains_diagonal_dominates_at_center():
    grid = _grid(129)
    cfg = DppConfig(4, 8, 4)
    ch = generate_channel(GEOM, RX, grid, 4, 1)
    g = _cross_gains(ch, cfg, 64)
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
        for m in (0, 64, 128):
            g = _cross_gains(ch, cfg, m)
            off = g[~np.eye(4, dtype=bool)]
            worst = max(worst, float(off.max()))
    assert worst <= 0.25
    assert worst > 0.01


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), snr_db=st.floats(-10.0, 30.0),
       n_sub=st.integers(1, 19), n_rf=st.integers(1, 3), bw=st.floats(0.1e9, 10e9))
def test_stacked_rates_equal_per_subcarrier_rates(seed, snr_db, n_sub, n_rf, bw):
    # the fully digital bound on the whole stack against one subcarrier at a
    # time; 19 subcarriers span three chunks of the stack, the last partial
    tx = half_wavelength_uca(16, 30e9)
    ch = generate_channel(tx, RX, FrequencyGrid(30e9, bw, n_sub), 3, seed)
    rho = 10.0 ** (snr_db / 10.0)
    stacked = an.spectrum_efficiency_optimal(_stack(ch), rho, n_rf)
    single = [an.spectrum_efficiency_optimal(channel_matrix(ch, m), rho, n_rf)
              for m in range(n_sub)]
    np.testing.assert_allclose(stacked, single, rtol=1e-12, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(n_tx=st.sampled_from([4, 8, 12, 16]), data=st.data(), seed=st.integers(0, 2**32 - 1),
       snr_db=st.lists(st.floats(-20.0, 60.0), min_size=1, max_size=4),
       n_sub=st.integers(1, 19), bw=st.floats(0.1e9, 10e9), classic=st.booleans())
def test_design_rates_equal_the_two_pass_formula(n_tx, data, seed, snr_db, n_sub, bw,
                                                 classic):
    # every divisor K of N up to N, 1 to 4 RF chains and streams; the
    # reference builds the precoder at each SNR the explicit way (dense A,
    # G = H^H A, F = A f_d of power 2) and rates H^H F, at SNRs up to 60 dB;
    # the design is rated at the SNRs times 2.
    k_ttd = data.draw(st.sampled_from([k for k in range(1, n_tx + 1) if n_tx % k == 0]))
    n_rf = data.draw(st.integers(1, 4))
    n_s = data.draw(st.integers(1, n_rf))
    cfg = DppConfig(n_rf, k_ttd, n_s)
    tx = half_wavelength_uca(n_tx, 30e9)
    ch = generate_channel(tx, RX, FrequencyGrid(30e9, bw, n_sub), 4, seed)
    rhos = 10.0 ** (np.array(snr_db) / 10.0)
    design = (build_classic_hybrid if classic else build_dpp)(ch, cfg)
    rates = an.spectrum_efficiency(design, rhos * 2.0)
    assert rates.shape == (rhos.size, n_sub)
    for rho, row in zip(rhos.tolist(), rates):
        h_eff, f = _explicit_precoders(ch, cfg, rho, classic, 2.0)
        np.testing.assert_allclose(np.linalg.norm(f, axis=(-2, -1)) ** 2, 2.0, rtol=1e-12)
        np.testing.assert_allclose(row, _log_det_rate(h_eff, rho), rtol=1e-12, atol=1e-13)
        np.testing.assert_array_equal(an.spectrum_efficiency(design, rho * 2.0), row)


def test_rates_at_many_snrs_equal_the_per_snr_rows():
    # a 1-D array of SNRs gives one row per SNR, each equal bit for bit to
    # the rates at that SNR alone, for the hybrid designs and the fully
    # digital bound, on a stack of channels and on one channel
    ch = generate_channel(GEOM, RX, _grid(9), 4, 1)
    rhos = np.array([0.5, 2.0, 10.0, 1e6])
    cfg = DppConfig(2, 8, 2)
    cases = [(functools.partial(an.spectrum_efficiency, build(ch, cfg)), (4, 9))
             for build in (build_classic_hybrid, build_dpp)]
    cases += [(functools.partial(an.spectrum_efficiency_optimal, h, n_s=2), shape)
              for h, shape in ((_stack(ch), (4, 9)), (channel_matrix(ch, 3), (4,)))]
    for rates, shape in cases:
        rows = rates(rho=rhos)
        assert rows.shape == shape
        for rho, row in zip(rhos.tolist(), rows):
            np.testing.assert_array_equal(rates(rho=rho), row)
        with pytest.raises(ValueError, match="rho must be a scalar or a 1-D array"):
            rates(rho=rhos[None])
        with pytest.raises(ValueError, match="rho must be positive"):
            rates(rho=np.array([1.0, 0.0]))
