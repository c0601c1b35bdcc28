"""Array geometry, steering vectors, OFDM grid, and channel generation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucabeam.analysis import dpp_gain_closed_form, min_ttd_count
from ucabeam.arraymodel import (
    SPEED_OF_LIGHT,
    SUBCARRIER_CHUNK,
    ChannelRealization,
    FrequencyGrid,
    PathParams,
    UcaGeometry,
    UlaGeometry,
    channel_matrix,
    generate_channel,
    half_wavelength_uca,
    steering_uca,
    steering_ula,
)
from ucabeam.cxlinalg import water_filling
from ucabeam.precoding import _arc_size

C = SPEED_OF_LIGHT


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def test_uca_element_angles_are_uniform():
    geom = UcaGeometry(8, 0.1)
    assert np.allclose(geom.element_angles, 2.0 * np.pi * np.arange(8) / 8)


def test_geometry_validation():
    with pytest.raises(ValueError):
        UcaGeometry(0, 0.1)
    with pytest.raises(ValueError):
        UcaGeometry(4, -0.1)
    with pytest.raises(ValueError):
        UlaGeometry(2, 0.0)


_CH_ARGS = (UcaGeometry(4, 0.1), UlaGeometry(2, 0.005), FrequencyGrid(30e9, 1e9, 4))


@pytest.mark.parametrize("make, message", [
    (lambda: UcaGeometry(0, 0.1), "n_elements must be a positive integer, got 0"),
    (lambda: UcaGeometry(4.0, 0.1), "n_elements must be a positive integer, got 4.0"),
    (lambda: UcaGeometry(4, 0), "radius_m must be positive, got 0.0"),
    (lambda: UlaGeometry(2, -1), "spacing_m must be positive, got -1.0"),
    (lambda: FrequencyGrid(math.inf, 1e9, 4), "fc_hz must be positive, got inf"),
    (lambda: FrequencyGrid(30e9, 1e9, 0), "n_subcarriers must be a positive integer, got 0"),
    # one rule for a bandwidth, whichever layer reads it
    *(pytest.param(make, f"bandwidth_hz must be non-negative, got {b}",
                   id=f"{layer}-bandwidth_hz must be non-negative, got {b}")
      for b in (-1.0, math.nan)
      for layer, make in (("FrequencyGrid", lambda b=b: FrequencyGrid(30e9, b, 4)),
                          ("min_ttd_count", lambda b=b: min_ttd_count(0.4, 0.2, b)))),
    (lambda: half_wavelength_uca(4, -3e10), "fc_hz must be positive, got -30000000000.0"),
    # a count is an int before it is at least 2
    (lambda: half_wavelength_uca(np.int64(16), 30e9),
     "n_elements must be a positive integer, got 16"),
    (lambda: half_wavelength_uca(1, 30e9), "need at least 2 elements, got 1"),
    (lambda: generate_channel(UcaGeometry(4, 0.1), UlaGeometry(2, 0.005),
                              FrequencyGrid(30e9, 1e9, 4), 2.5, 0),
     "n_paths must be a positive integer, got 2.5"),
    (lambda: PathParams(complex("nan"), 0.0, 0.5, 0.1), "gain must be finite"),
    (lambda: PathParams(1.0, -1, 0.5, 0.1), "delay_s must be non-negative, got -1.0"),
    # an integer past 2**64 is checked as the float nearest it
    (lambda: FrequencyGrid(30e9, 2**70, 9),
     f"grid extends to non-positive frequencies: fc=30000000000.0, B={2**70}"),
    (lambda: ChannelRealization((), *_CH_ARGS), "a channel needs at least one path"),
    (lambda: ChannelRealization((PathParams(1.0, 0.0, 0.5, 0.1), 1.0), *_CH_ARGS),
     "paths must be PathParams instances"),
])
def test_argument_messages_name_the_argument_and_its_value(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("make, name", [
    (lambda: UcaGeometry(True, 0.1), "n_elements"),
    (lambda: FrequencyGrid(30e9, 1e9, True), "n_subcarriers"),
    (lambda: _arc_size(8, True), "k_ttd"),
    (lambda: dpp_gain_closed_form(30.1e9, 30e9, 0.2, True), "k_ttd"),
], ids=["UcaGeometry", "FrequencyGrid", "_arc_size", "dpp_gain_closed_form"])
def test_counts_reject_a_bool(make, name):
    # True is an int to Python, but not a count
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == f"{name} must be a positive integer, got True"


_PAIR = np.array([0.1, 0.2])


@pytest.mark.parametrize("make, name", [
    (lambda: UcaGeometry(4, _PAIR), "radius_m"),
    (lambda: UlaGeometry(4, _PAIR), "spacing_m"),
    (lambda: half_wavelength_uca(4, 3e11 * _PAIR), "fc_hz"),
    (lambda: FrequencyGrid(3e11 * _PAIR, 1e9, 4), "fc_hz"),
    (lambda: FrequencyGrid(30e9, 1e10 * _PAIR, 4), "bandwidth_hz"),
    (lambda: min_ttd_count(0.4, _PAIR, 3e9), "radius_m"),
    (lambda: min_ttd_count(0.4, 0.2, 1e10 * _PAIR), "bandwidth_hz"),
    (lambda: PathParams(1.0, 1e-9 * _PAIR, 0.5, 0.1), "delay_s"),
    (lambda: water_filling([1.0, 2.0], _PAIR), "total_power"),
    # not numpy's TypeError (a complex gain) or ambiguous-truth ValueError
    # (the range check of an angle)
    (lambda: PathParams(_PAIR, 0.0, 0.5, 0.1), "gain"),
    (lambda: PathParams(1.0, 0.0, _PAIR, 0.1), "aod_rad"),
    (lambda: PathParams(1.0, 0.0, 0.5, _PAIR), "aoa_rad"),
])
def test_scalar_fields_reject_arrays(make, name):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == f"{name} must be a scalar, got shape (2,)"


@pytest.mark.parametrize("make, same", [
    (lambda: min_ttd_count(0.1, 0.2, 2**70), lambda: min_ttd_count(0.1, 0.2, float(2**70))),
    (lambda: water_filling([1.0, 2.0], 2**70), lambda: water_filling([1.0, 2.0], float(2**70))),
    (lambda: PathParams(1.0, 2**64, 0.1, 0.1).delay_s, lambda: 2**64),
], ids=["min_ttd_count", "water_filling", "PathParams"])
def test_an_integer_past_2_64_is_checked_as_its_float(make, same):
    # a number check converts before it tests, so a Python int of any size
    # that a float holds passes where that float passes
    assert np.array_equal(make(), same())


def test_half_wavelength_radius_frozen_value():
    geom = half_wavelength_uca(256, 30e9)
    # R = N*c / (4*pi*fc)
    assert geom.radius_m == pytest.approx(0.20357739346077622, rel=1e-15)
    assert geom.n_elements == 256


def test_half_wavelength_arc_spacing():
    geom = half_wavelength_uca(64, 10e9)
    arc = 2.0 * np.pi * geom.radius_m / 64
    assert arc == pytest.approx(C / 10e9 / 2.0, rel=1e-15)


def test_half_wavelength_radius_scales_with_elements():
    r1 = half_wavelength_uca(128, 30e9).radius_m
    r2 = half_wavelength_uca(256, 30e9).radius_m
    assert r2 == pytest.approx(2.0 * r1, rel=1e-15)


def test_half_wavelength_needs_at_least_two_elements():
    with pytest.raises(ValueError):
        half_wavelength_uca(1, 30e9)


# ---------------------------------------------------------------------------
# steering vectors
# ---------------------------------------------------------------------------


def test_uca_steering_hand_example():
    # R chosen so the electrical radius is pi: alternating +-1/2 entries
    geom = UcaGeometry(4, C / (2.0 * 1e9))
    a = steering_uca(geom, 1e9, 0.0)
    assert np.allclose(a, np.array([-1.0, 1.0, -1.0, 1.0]) / 2.0, atol=1e-12)


def test_uca_steering_modulus_and_norm():
    geom = half_wavelength_uca(256, 30e9)
    a = steering_uca(geom, 28.3e9, 1.234)
    assert np.abs(np.abs(a) - 1.0 / 16.0).max() <= 1e-12
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_uca_steering_rotates_with_target():
    # advancing the target by one element pitch cycles the weights
    geom = half_wavelength_uca(256, 30e9)
    a = steering_uca(geom, 30e9, 0.7)
    b = steering_uca(geom, 30e9, 0.7 + 2.0 * np.pi / 256)
    assert np.abs(b - np.roll(a, 1)).max() <= 1e-9


def test_ula_steering_hand_example():
    # half-wavelength spacing at endfire: entries alternate sign
    geom = UlaGeometry(2, C / (2.0 * 1e9))
    b = steering_ula(geom, 1e9, np.pi / 2.0)
    assert np.allclose(b, np.array([1.0, -1.0]) / math.sqrt(2.0), atol=1e-12)


def test_ula_steering_broadside_is_uniform():
    geom = UlaGeometry(8, 0.005)
    b = steering_ula(geom, 30e9, 0.0)
    assert np.allclose(b, np.full(8, 1.0 / math.sqrt(8.0)), atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(fs=st.lists(st.floats(1e9, 1e11), min_size=1, max_size=20),
       phis=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=20))
def test_steering_rows_equal_scalar_calls(fs, phis):
    # a sweep over f, over phi, or over both gives one row per point, each
    # with the bits of the scalar call
    uca, ula = half_wavelength_uca(64, 30e9), UlaGeometry(64, C / 30e9 / 2.0)
    n = min(len(fs), len(phis))
    for f, phi in ((np.array(fs), phis[0]), (fs[0], np.array(phis)),
                   (np.array(fs[:n]), np.array(phis[:n]))):
        points = np.broadcast_arrays(f, phi)
        for steering, geom in ((steering_uca, uca), (steering_ula, ula)):
            rows = steering(geom, f, phi)
            assert rows.shape == (points[0].size, 64)
            want = [steering(geom, fx, px) for fx, px in zip(*(p.tolist() for p in points))]
            assert np.array_equal(rows, want)


def test_steering_rejects_bad_sweeps():
    geom = half_wavelength_uca(16, 30e9)
    with pytest.raises(ValueError, match="f_hz must be positive, got -1.0"):
        steering_uca(geom, np.array([30e9, -1.0]), 0.3)
    with pytest.raises(ValueError, match="1-D"):
        steering_uca(geom, np.full((2, 2), 30e9), 0.3)
    with pytest.raises(ValueError, match="f_hz must be positive"):
        steering_ula(UlaGeometry(4, 0.005), 0.0, 0.3)


# ---------------------------------------------------------------------------
# frequency grid
# ---------------------------------------------------------------------------


def test_grid_center_sample_for_odd_count():
    grid = FrequencyGrid(30e9, 3e9, 129)
    assert grid.freqs_hz[64] == 30e9


def test_grid_symmetry_for_even_count():
    grid = FrequencyGrid(30e9, 3e9, 128)
    f = grid.freqs_hz
    assert (f[63] + f[64]) / 2.0 == pytest.approx(30e9, rel=1e-15)
    assert f.max() - f.min() == pytest.approx(3e9 * 127 / 128, rel=1e-12)


def test_grid_spacing_is_b_over_m():
    grid = FrequencyGrid(30e9, 3e9, 128)
    assert np.allclose(np.diff(grid.freqs_hz), 3e9 / 128)


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(30e9, -1.0, 8)
    with pytest.raises(ValueError):
        FrequencyGrid(30e9, 3e9, 0)
    with pytest.raises(ValueError):
        FrequencyGrid(1e9, 4e9, 2)  # lowest subcarrier would sit at 0 Hz


def _reference_freqs(fc, bandwidth, n_subcarriers):
    """The grid as one expression over all subcarriers: the reference that
    FrequencyGrid's frequencies and its check of subcarrier 0 must match."""
    m = np.arange(n_subcarriers)
    scale = (2.0 * m + 1.0 - n_subcarriers) / (2.0 * n_subcarriers)
    return fc + bandwidth * scale


@st.composite
def _grids(draw):
    """(fc, B, M), B often a few ulps from the bandwidth that puts the
    lowest subcarrier at 0 Hz, where rounding decides the sign."""
    fc = draw(st.floats(1e-3, 1e13))
    n = draw(st.integers(1, 2048))
    if n == 1 or draw(st.booleans()):
        return fc, draw(st.floats(0.0, 1e14)), n
    bandwidth = fc * (2.0 * n) / (n - 1)
    for _ in range(draw(st.integers(0, 3))):
        bandwidth = math.nextafter(bandwidth, draw(st.sampled_from([0.0, math.inf])))
    return fc, bandwidth, n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grid=_grids())
@example(grid=(1e9, 4e9, 2))  # the lowest subcarrier sits at exactly 0 Hz
@example(grid=(1.0, 3.0, 3))
@example(grid=(30e9, 0.0, 1))
def test_grid_and_its_check_of_subcarrier_zero_match_the_reference(grid):
    # the constructor, which checks subcarrier 0 alone, accepts exactly the
    # grids whose first reference frequency is positive, and freqs_hz has
    # the reference's bits
    want = _reference_freqs(*grid)
    if want[0] > 0.0:
        assert FrequencyGrid(*grid).freqs_hz.tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match="grid extends to non-positive frequencies"):
            FrequencyGrid(*grid)


# ---------------------------------------------------------------------------
# paths and channels
# ---------------------------------------------------------------------------


def test_path_params_validation():
    PathParams(1.0 + 0j, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        PathParams(1.0 + 0j, -1e-9, 0.0, 0.0)
    with pytest.raises(ValueError):
        PathParams(1.0 + 0j, 0.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        PathParams(1.0 + 0j, 0.0, 2.0 * np.pi, 0.0)
    with pytest.raises(ValueError):
        PathParams(1.0 + 0j, 0.0, 0.0, 2.0)


def _small_setup(n_subcarriers=9, bandwidth=3e9):
    tx = half_wavelength_uca(256, 30e9)
    rx = UlaGeometry(4, C / 30e9 / 2.0)
    grid = FrequencyGrid(30e9, bandwidth, n_subcarriers)
    return tx, rx, grid


def test_generate_channel_is_deterministic_in_seed():
    tx, rx, grid = _small_setup()
    a = generate_channel(tx, rx, grid, 3, 42)
    b = generate_channel(tx, rx, grid, 3, 42)
    c = generate_channel(tx, rx, grid, 3, 43)
    assert a.paths == b.paths
    assert a.paths != c.paths


def test_generate_channel_ranges():
    tx, rx, grid = _small_setup()
    ch = generate_channel(tx, rx, grid, 64, 9, max_delay_s=20e-9)
    for p in ch.paths:
        assert 0.0 <= p.aod_rad < 2.0 * np.pi
        assert -np.pi / 2.0 <= p.aoa_rad <= np.pi / 2.0
        assert 0.0 <= p.delay_s <= 20e-9
    assert ch.n_paths == 64


def test_generate_channel_gain_power_is_unit_mean():
    tx, rx, grid = _small_setup()
    ch = generate_channel(tx, rx, grid, 4096, 123)
    mean_sq = np.mean([abs(p.gain) ** 2 for p in ch.paths])
    assert abs(mean_sq - 1.0) <= 0.05


def test_generate_channel_rejects_zero_paths():
    tx, rx, grid = _small_setup()
    with pytest.raises(ValueError):
        generate_channel(tx, rx, grid, 0, 1)


def test_single_path_channel_frobenius_norm():
    # ||H_m||_F = sqrt(N/L) * |g| * ||a|| * ||b|| = sqrt(N) for one unit path
    tx, rx, grid = _small_setup()
    ch = ChannelRealization(
        paths=(PathParams(1.0 + 0j, 0.0, 0.9, 0.2),), tx=tx, rx=rx, grid=grid
    )
    for m in range(grid.n_subcarriers):
        h = channel_matrix(ch, m)
        assert h.shape == (256, 4)
        assert np.linalg.norm(h, "fro") == pytest.approx(16.0, rel=1e-12)


def test_channel_rank_bounded_by_path_count():
    tx, rx, grid = _small_setup()
    ch = generate_channel(tx, rx, grid, 2, 77)
    s = np.linalg.svd(channel_matrix(ch, 4), compute_uv=False)
    assert s[2:].max() <= 1e-9 * s[0]


def test_channel_is_linear_in_path_gain():
    tx, rx, grid = _small_setup()
    p1 = PathParams(0.5 - 0.25j, 3e-9, 1.2, -0.3)
    p2 = PathParams(2.0 * (0.5 - 0.25j), 3e-9, 1.2, -0.3)
    h1 = channel_matrix(ChannelRealization((p1,), tx, rx, grid), 3)
    h2 = channel_matrix(ChannelRealization((p2,), tx, rx, grid), 3)
    assert np.abs(h2 - 2.0 * h1).max() <= 1e-12 * np.abs(h1).max()


def test_path_delay_applies_pure_phase():
    tx, rx, grid = _small_setup()
    tau = 7e-9
    base = PathParams(1.0 + 0j, 0.0, 2.2, 0.4)
    delayed = PathParams(1.0 + 0j, tau, 2.2, 0.4)
    for m in (0, 4, 8):
        f = grid.freqs_hz[m]
        h0 = channel_matrix(ChannelRealization((base,), tx, rx, grid), m)
        ht = channel_matrix(ChannelRealization((delayed,), tx, rx, grid), m)
        rot = np.exp(-2j * np.pi * tau * f)
        assert np.abs(ht - rot * h0).max() <= 1e-9


def test_channel_matrix_depends_on_subcarrier():
    # wideband effect: even a delay-free channel changes across the band
    tx, rx, grid = _small_setup()
    ch = ChannelRealization(
        paths=(PathParams(1.0 + 0j, 0.0, 0.9, 0.2),), tx=tx, rx=rx, grid=grid
    )
    h0 = channel_matrix(ch, 0)
    h8 = channel_matrix(ch, 8)
    assert np.abs(h0 - h8).max() > 1e-3


def test_channel_matrix_superposition():
    tx, rx, grid = _small_setup()
    pa = PathParams(0.7 + 0.1j, 2e-9, 0.4, 0.1)
    pb = PathParams(-0.2 + 0.9j, 5e-9, 3.3, -0.6)
    h_both = channel_matrix(ChannelRealization((pa, pb), tx, rx, grid), 5)
    ha = channel_matrix(ChannelRealization((pa,), tx, rx, grid), 5)
    hb = channel_matrix(ChannelRealization((pb,), tx, rx, grid), 5)
    # sqrt(N/L) scaling: two-path sum carries sqrt(1/2) vs the singles
    assert np.abs(h_both - (ha + hb) / math.sqrt(2.0)).max() <= 1e-9


def test_channel_matrix_index_bounds():
    tx, rx, grid = _small_setup()
    ch = generate_channel(tx, rx, grid, 1, 0)
    with pytest.raises(IndexError):
        channel_matrix(ch, 9)
    with pytest.raises(IndexError):
        channel_matrix(ch, -1)
    # only an integer (not a bool) or a range of step 1 within [0, M] is a
    # subcarrier set: no list, array, float, bool or strided range
    for m in (1.0, [[0, 1]], [0, 1], np.arange(2), range(0, 6, 2), True, np.True_,
              range(-1, 2), range(0, 10)):
        with pytest.raises(IndexError):
            channel_matrix(ch, m)
    assert channel_matrix(ch, np.int64(8)).shape == (256, 4)
    assert channel_matrix(ch, range(9, 9)).shape == (0, 256, 4)


def _stack(ch):
    """The channel over the whole grid, M x N x N_r."""
    return channel_matrix(ch, range(ch.grid.n_subcarriers))


def _per_path_stack(ch):
    """The channel on every subcarrier, summed path by path from the steering
    vectors."""
    ref = []
    for f in ch.grid.freqs_hz:
        h = sum(p.gain * np.exp(-2j * np.pi * p.delay_s * f)
                * np.outer(steering_uca(ch.tx, f, p.aod_rad),
                           steering_ula(ch.rx, f, p.aoa_rad).conj())
                for p in ch.paths)
        ref.append(math.sqrt(ch.tx.n_elements / ch.n_paths) * h)
    return np.array(ref)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tx=st.integers(2, 24), n_rx=st.integers(1, 5),
       n_sub=st.integers(1, 20), n_paths=st.integers(1, 5),
       bw=st.floats(1e6, 20e9))
def test_channel_stack_matches_per_path_formula(seed, n_tx, n_rx, n_sub, n_paths, bw):
    tx = half_wavelength_uca(n_tx, 30e9)
    rx = UlaGeometry(n_rx, C / 30e9 / 2.0)
    ch = generate_channel(tx, rx, FrequencyGrid(30e9, bw, n_sub), n_paths, seed)
    ref = _per_path_stack(ch)
    tol = 1e-13 * max(1.0, np.abs(ref).max())
    stack = _stack(ch)
    assert stack.shape == (n_sub, n_tx, n_rx)
    assert np.abs(stack - ref).max() <= tol
    for m in (0, n_sub - 1):
        assert np.abs(channel_matrix(ch, m) - ref[m]).max() <= tol


@pytest.mark.parametrize("n_tx, bw", [(1024, 10e9), (2048, 20e9)])
@pytest.mark.parametrize("seed", [0, 1])
def test_large_array_stack_matches_per_path_formula(n_tx, bw, seed):
    # the UCA phase eta(f)*cos is already off by about eps*eta(f) before its
    # exp; the block x residual split of the exponentials may add an error of
    # that size, not more, however large the array or the band
    tx = half_wavelength_uca(n_tx, 30e9)
    ch = generate_channel(tx, UlaGeometry(4, C / 30e9 / 2.0), FrequencyGrid(30e9, bw, 32), 4,
                          seed)
    ref = _per_path_stack(ch)
    eta_max = 2.0 * np.pi * tx.radius_m * ch.grid.freqs_hz[-1] / C
    tol = 4.0 * np.finfo(float).eps * eta_max * max(1.0, np.abs(ref).max())
    assert np.abs(_stack(ch) - ref).max() <= tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tx=st.sampled_from([4, 12, 256]),
       n_sub=st.integers(1, 40), data=st.data())
def test_every_run_gives_the_bits_of_one_subcarrier_calls(seed, n_tx, n_sub, data):
    # runs that start and stop anywhere in [0, M], across chunk boundaries
    # and empty ones included, give each subcarrier exactly as its own call
    ch = generate_channel(half_wavelength_uca(n_tx, 30e9), UlaGeometry(3, C / 30e9 / 2.0),
                          FrequencyGrid(30e9, 4e9, n_sub), 3, seed)
    singles = [channel_matrix(ch, m) for m in range(n_sub)]
    runs = [(min(n_sub, SUBCARRIER_CHUNK - 1), min(n_sub, 2 * SUBCARRIER_CHUNK + 1)),
            (0, n_sub), (n_sub, n_sub)]
    for _ in range(data.draw(st.integers(1, 4))):
        lo = data.draw(st.integers(0, n_sub))
        runs.append((lo, data.draw(st.integers(lo, n_sub))))
    for lo, hi in runs:
        run = channel_matrix(ch, range(lo, hi))
        assert run.shape == (hi - lo, n_tx, 3)
        assert np.array_equal(run, np.reshape(singles[lo:hi], run.shape))
    m = data.draw(st.integers(0, n_sub - 1))
    assert np.array_equal(channel_matrix(ch, np.int64(m)), singles[m])


@pytest.mark.parametrize("n_sub", [1, 7, 13, 128])
def test_channel_stack_layout(n_sub):
    # H^T is C-contiguous, so the zero-delay product of the classic design
    # reads a run as one len*N_r x N matrix without a copy
    ch = generate_channel(half_wavelength_uca(16, 30e9), UlaGeometry(3, C / 30e9 / 2.0),
                          FrequencyGrid(30e9, 4e9, n_sub), 2, n_sub)
    stack = _stack(ch)
    h_t = np.swapaxes(stack, -1, -2)
    assert h_t.flags.c_contiguous
    assert np.shares_memory(h_t.reshape(n_sub * 3, 16), stack)


def test_subsets_are_synthesized_alone_and_equal_the_stack_rows():
    # channel_matrix(ch, m) synthesizes only the subcarriers m: the
    # realization keeps its tables and no matrix, and each row has the bits
    # of the whole-grid run
    ch = generate_channel(half_wavelength_uca(12, 30e9), UlaGeometry(2, C / 30e9 / 2.0),
                          FrequencyGrid(30e9, 2e9, 9), 3, 4)
    one, run = channel_matrix(ch, 3), channel_matrix(ch, range(5, 8))
    assert set(vars(ch)) == {"paths", "tx", "rx", "grid", "_tables"}
    assert one.shape == (12, 2) and run.shape == (3, 12, 2)
    stack = _stack(ch)
    assert np.array_equal(one, stack[3]) and np.array_equal(run, stack[5:8])
    for sub in (one, run):
        assert sub.flags.writeable and not np.shares_memory(sub, stack)
        sub[...] = 0.0
    assert np.array_equal(stack, _stack(ch))
    # at N = 256 and M = 128 one subcarrier takes a few of its own sizes
    # (16 KB), not the 2.1 MB stack
    ch = generate_channel(half_wavelength_uca(256, 30e9), UlaGeometry(4, C / 30e9 / 2.0),
                          FrequencyGrid(30e9, 3e9, 128), 4, 5)
    channel_matrix(ch, 0)  # the realization's tables
    tracemalloc.start()
    try:
        h = channel_matrix(ch, 77)
        assert tracemalloc.get_traced_memory()[1] <= 4 * h.nbytes
    finally:
        tracemalloc.stop()
    assert set(vars(ch)) == {"paths", "tx", "rx", "grid", "_tables"}
    assert np.array_equal(h, _stack(ch)[77])
