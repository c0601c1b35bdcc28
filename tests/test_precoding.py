"""Delay-phase and phase-shifter-only hybrid precoder construction."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_analog import analog, precoder_stage
from ucabeam import analysis, precoding
from ucabeam.analysis import _GAIN_FLOOR
from ucabeam.arraymodel import (
    SPEED_OF_LIGHT,
    SUBCARRIER_CHUNK,
    ChannelRealization,
    FrequencyGrid,
    PathParams,
    UcaGeometry,
    UlaGeometry,
    _subcarrier_chunks,
    channel_matrix,
    generate_channel,
    half_wavelength_uca,
    steering_uca,
)
from ucabeam.cxlinalg import water_filling
from ucabeam.precoding import (
    DppConfig,
    _chain_directions,
    _chain_phases,
    _design,
    _equivalent_channels,
    build_classic_hybrid,
    build_designs,
    build_dpp,
    ttd_delays,
    ttd_reference_angles,
)

C = SPEED_OF_LIGHT
GEOM = half_wavelength_uca(256, 30e9)
RX = UlaGeometry(4, C / 30e9 / 2.0)


def _grid(m=129, bandwidth=3e9):
    return FrequencyGrid(30e9, bandwidth, m)


def _single_path_channel(aod, grid, gain=1.0 + 0j, delay=0.0, aoa=0.2):
    return ChannelRealization(
        paths=(PathParams(gain, delay, aod, aoa),), tx=GEOM, rx=RX, grid=grid
    )


def _stack(ch):
    """The channel over the whole grid, M x N x N_r."""
    return channel_matrix(ch, range(ch.grid.n_subcarriers))


def _combined(ch, cfg, m, dpp=True):
    """Combined analog weights A(f_m) (N x n_rf) of the precoder built on ch."""
    return analog(*precoder_stage(ch, cfg, dpp), ch.grid.freqs_hz[m])


def _stream_directions(ch, cfg, dpp=True):
    """Combined analog weights A (M x N x n_rf) on every subcarrier, and the
    n_streams largest singular values (M x n_streams) and right singular
    vectors v (M x n_rf x n_streams) of G = H^H A, by a dense SVD."""
    a = _combined(ch, cfg, slice(None), dpp)
    _, sigma, vh = np.linalg.svd(np.swapaxes(_stack(ch).conj(), -1, -2) @ a,
                                 full_matrices=False)
    n_s = cfg.n_streams
    return a, sigma[:, :n_s], np.swapaxes(vh[:, :n_s].conj(), -1, -2)


def _combined_precoders(ch, cfg, rho, power, dpp=True):
    """End-to-end precoders F = A(f_m) f_d[m] on every subcarrier (M x N x
    n_streams), with f_d = v * a: the budget power water-filled over the
    stream SNRs at rho and rescaled so that f_d^H (A^H A) f_d = power."""
    a, sigma, v = _stream_directions(ch, cfg, dpp)
    gains = np.maximum(rho * sigma ** 2 / cfg.n_streams, _GAIN_FLOOR)
    f = a @ (v * np.sqrt(water_filling(gains, power))[:, None, :])
    radiated = np.linalg.norm(f, axis=(-2, -1)) ** 2
    return f * np.sqrt(power / radiated)[:, None, None]


# ---------------------------------------------------------------------------
# configuration and schedules
# ---------------------------------------------------------------------------


def test_dpp_config_validation():
    DppConfig(2, 8, 2)
    with pytest.raises(ValueError):
        DppConfig(0, 8, 1)
    with pytest.raises(ValueError):
        DppConfig(2, 0, 1)
    with pytest.raises(ValueError):
        DppConfig(2, 8, 3)  # more streams than chains
    with pytest.raises(ValueError):
        DppConfig(2, 8, 2.0)  # type: ignore[arg-type]
    for sizes in [(None, 8, 1), (2, 8, None)]:  # refused, though _check_sizes skips a None
        with pytest.raises(ValueError, match="must be a positive integer, got None"):
            DppConfig(*sizes)


@pytest.mark.parametrize("check", [lambda: DppConfig(1, 1, True),
                                   lambda: precoding._check_sizes(n_rf=2, n_streams=True)],
                         ids=["DppConfig", "_check_sizes"])
def test_a_bool_is_not_a_stream_count(check):
    # True == 1 fits the range, but a stream count, like every count, is
    # an int and not a bool
    with pytest.raises(ValueError, match=r"^n_streams must satisfy 1 <= n_streams <= n_rf, "
                                         r"got n_streams=True, n_rf=[12]$"):
        check()


@pytest.mark.parametrize("k_ttds", [[1], [2], [1, 2, None]])
def test_more_rf_chains_than_elements_is_rejected(k_ttds):
    ch = generate_channel(UcaGeometry(2, 0.01), RX, _grid(4), 3, 5)
    with pytest.raises(ValueError) as info:
        build_designs(ch, 3, 1, k_ttds)
    assert str(info.value) == "n_rf=3 exceeds n_elements=2"


# ---------------------------------------------------------------------------
# reference angles and delays
# ---------------------------------------------------------------------------


def test_reference_angles_hand_example():
    # N=4, K=2: centroids of the two half-circle arcs
    angles = ttd_reference_angles(4, 2)
    assert np.allclose(angles, [np.pi / 2.0 - np.pi / 4.0, 3.0 * np.pi / 2.0 - np.pi / 4.0])


def test_reference_angles_one_per_element_hit_the_elements():
    assert np.allclose(ttd_reference_angles(256, 256), GEOM.element_angles)


def test_reference_angles_divisibility_error():
    with pytest.raises(ValueError, match="integer number"):
        ttd_reference_angles(256, 7)


def test_ttd_delays_formula_and_bounds():
    r_over_c = GEOM.radius_m / C
    for phi in (0.0, 0.9, 2.7, 5.5):
        d = ttd_delays(phi, 8, GEOM)
        want = r_over_c * (1.0 - np.cos(phi - ttd_reference_angles(256, 8)))
        assert np.allclose(d, want, rtol=0, atol=1e-24)
        assert np.all(d >= 0.0)
        assert np.all(d <= 2.0 * r_over_c)


def test_ttd_delay_single_unit_limit():
    # one delay unit: t -> (R/c)(1 + cos(phi)) as the centroid offset vanishes
    geom = half_wavelength_uca(8192, 30e9)
    r_over_c = geom.radius_m / C
    for phi in (0.3, 1.8, 4.0):
        d = ttd_delays(phi, 1, geom)[0]
        assert d == pytest.approx(
            r_over_c * (1.0 + math.cos(phi)), abs=r_over_c * 5e-4
        )


# ---------------------------------------------------------------------------
# precoder structure
# ---------------------------------------------------------------------------


def test_dpp_shapes_and_constant_modulus():
    grid = _grid(9)
    ch = _single_path_channel(1.1, grid)
    cfg = DppConfig(1, 8, 1)
    w_ps, delays = precoder_stage(ch, cfg)
    design = build_dpp(ch, cfg)
    assert w_ps.shape == (256, 1)
    assert delays.shape == (1, 8)
    assert design.sigma.shape == (9, 1)
    assert design.radiation.shape == (9, 1)
    assert np.abs(np.abs(w_ps) - 1.0 / 16.0).max() <= 1e-15
    # combined weight = PS weight times a unit-modulus TTD phase per element
    for m in range(9):
        ratio = _combined(ch, cfg, m) / w_ps
        assert np.abs(np.abs(ratio) - 1.0).max() <= 1e-12
    assert np.all(delays >= 0.0)
    assert np.all(delays <= 2.0 * GEOM.radius_m / C)


def test_dpp_block_support_pattern():
    grid = _grid(5)
    ch = ChannelRealization(
        paths=(
            PathParams(2.0 + 0j, 0.0, 0.4, 0.1),
            PathParams(1.0 + 0j, 1e-9, 2.9, -0.4),
        ),
        tx=GEOM, rx=RX, grid=grid,
    )
    cfg = DppConfig(2, 4, 2)
    w_ps, delays = precoder_stage(ch, cfg)
    p = 256 // 4
    assert w_ps.shape == (256, 2)
    assert delays.shape == (2, 4)
    for m, f in enumerate(grid.freqs_hz):
        ratio = _combined(ch, cfg, m) / w_ps
        for chain in range(2):
            for k in range(4):
                arc = ratio[k * p : (k + 1) * p, chain]
                want = np.exp(-2j * np.pi * f * delays[chain, k])
                assert np.abs(arc - want).max() <= 1e-12


def test_classic_hybrid_has_no_delays():
    # the design of the plain center-frequency steering column: one
    # unit-norm column radiates the whole stream power on every subcarrier
    grid = _grid(5)
    ch = _single_path_channel(0.7, grid)
    design = build_classic_hybrid(ch, DppConfig(1, 8, 1))
    w = steering_uca(GEOM, 30e9, 0.7)
    sigma = np.linalg.norm(_stack(ch).conj().swapaxes(-1, -2) @ w, axis=-1)
    np.testing.assert_allclose(design.sigma[:, 0], sigma, rtol=1e-13)
    np.testing.assert_allclose(design.radiation, 1.0, rtol=1e-13)


_DIRECTIONS = st.one_of(st.sampled_from([0.0, math.nextafter(2.0 * math.pi, 0.0)]),
                        st.floats(0.0, 2.0 * math.pi, exclude_max=True))


@settings(max_examples=60, deadline=None)
@given(n_tx=st.integers(2, 1024), data=st.data(),
       phis=st.lists(_DIRECTIONS, min_size=1, max_size=4))
def test_chain_stage_equals_one_chain_at_a_time(n_tx, data, phis):
    # every chain of the one-call stage (steering columns, corrections and
    # delays, as build_designs forms them) against one chain at a time: its
    # steering vector, the correction to zero centroid phase of each arc
    # and its own delays
    k_ttd = data.draw(st.sampled_from([k for k in range(1, n_tx + 1) if n_tx % k == 0]))
    geom = UcaGeometry(n_tx, n_tx * C / (4.0 * math.pi * 30e9))
    eta_c = 2.0 * np.pi * geom.radius_m * 30e9 / C
    theta = ttd_reference_angles(n_tx, k_ttd)
    w = steering_uca(geom, 30e9, np.array(phis))
    corrs, delays = _chain_phases(geom, 30e9, np.array(phis)[:, None], k_ttd)
    assert w.shape == (len(phis), n_tx)
    assert corrs.shape == delays.shape == (len(phis), k_ttd)
    for col, corr, row, phi in zip(w, corrs, delays, phis):
        assert np.array_equal(col, steering_uca(geom, 30e9, phi))
        assert np.array_equal(corr, np.exp(-1j * eta_c * np.cos(phi - theta)))
        assert np.array_equal(row, ttd_delays(phi, k_ttd, geom))


def test_combined_phase_decomposition():
    # per element n in arc k, at subcarrier frequency f:
    #   arg(w_n * sqrt(N)) - eta_c*cos(phi - psi_n)
    #     == (eta_f - eta_c)*cos(phi - theta_k) - eta_f   (mod 2*pi)
    grid = _grid(129)
    phi = 1.1
    ch = _single_path_channel(phi, grid, gain=0.8 - 0.3j, delay=5e-9, aoa=0.4)
    theta = ttd_reference_angles(256, 8)
    psi = GEOM.element_angles
    r = GEOM.radius_m
    for m in (0, 100):
        w = _combined(ch, DppConfig(1, 8, 1), m)[:, 0]
        eta_c = 2.0 * np.pi * r * 30e9 / C
        eta_f = 2.0 * np.pi * r * grid.freqs_hz[m] / C
        for n in range(0, 256, 17):
            k = n // 32
            got = np.angle(w[n] * 16.0) - eta_c * math.cos(phi - psi[n])
            want = (eta_f - eta_c) * math.cos(phi - theta[k]) - eta_f
            wrapped = (got - want + np.pi) % (2.0 * np.pi) - np.pi
            assert abs(wrapped) <= 1e-9


def test_chains_serve_paths_strongest_first():
    grid = _grid(9)
    paths = (
        PathParams(0.1 + 0j, 0.0, 0.3, 0.0),
        PathParams(5.0 + 0j, 0.0, 2.0, 0.1),
        PathParams(1.0 + 0j, 0.0, 4.4, -0.2),
    )
    ch = ChannelRealization(paths=paths, tx=GEOM, rx=RX, grid=grid)
    w = _combined(ch, DppConfig(2, 8, 2), 4)  # center subcarrier sits at fc
    for chain, aod in enumerate((2.0, 4.4)):
        assert analysis.exact_gain(w[:, chain], GEOM, 30e9, aod) == pytest.approx(
            1.0, abs=1e-12
        )


def test_build_requires_enough_paths():
    grid = _grid(5)
    ch = _single_path_channel(1.0, grid)
    with pytest.raises(ValueError, match="fewer paths"):
        build_dpp(ch, DppConfig(2, 8, 1))


@pytest.mark.parametrize("n_rf, n_streams, k_ttds, match", [
    (1, 0, (8,), "n_streams"), (0, 1, (8,), "n_rf"), (1, 2, (8,), "n_streams"),
    (1, 1, (3,), "must divide"), (1, 1, (1, 0), "positive integer"),
])
def test_build_designs_checks_the_sizing(n_rf, n_streams, k_ttds, match):
    ch = _single_path_channel(1.0, _grid(5))
    with pytest.raises(ValueError, match=match):
        build_designs(ch, n_rf, n_streams, k_ttds)


@pytest.mark.parametrize("n_tx, n_rf, n_streams, k_ttds, match", [
    (4, 2, 2, (1, 4, None), "n_streams=2 exceeds n_rx=1"),
    (1, 2, 1, (None,), "n_rf=2 exceeds n_elements=1"),
    (4, 4, 1, (1, 2), "fewer paths than RF chains: n_paths=3 < n_rf=4"),
    (3, 1, 1, (1, 2), "k_ttd=2 must divide n_elements=3"),
])
def test_build_designs_checks_the_sizes_before_any_synthesis(monkeypatch, n_tx, n_rf,
                                                               n_streams, k_ttds, match):
    # a design that cannot fit the channel fails before its first chunk is
    # synthesized, not after the pass and its SVDs
    ch = generate_channel(UcaGeometry(n_tx, 0.01), UlaGeometry(1, C / 30e9 / 2.0), _grid(40),
                          3, 0)

    def synthesize(*args):
        pytest.fail("a chunk of the channel was synthesized")

    monkeypatch.setattr(precoding, "channel_matrix", synthesize)
    with pytest.raises(ValueError, match=match):
        build_designs(ch, n_rf, n_streams, k_ttds)


def test_single_delay_unit_keeps_center_beam():
    # K=1 applies one common phase per subcarrier: the analog column stays
    # the center-frequency steering vector up to a global rotation
    grid = _grid(9)
    ch = _single_path_channel(0.8, grid)
    a = steering_uca(GEOM, 30e9, 0.8)
    for m in range(9):
        w = _combined(ch, DppConfig(1, 1, 1), m)[:, 0]
        rot = w[0] / a[0]
        assert abs(abs(rot) - 1.0) <= 1e-12
        assert np.abs(w - rot * a).max() <= 1e-12


def test_full_delay_bank_restores_unit_gain_everywhere():
    # one delay per element removes the defocus exactly at all subcarriers
    grid = FrequencyGrid(30e9, 4e9, 17)
    ch = _single_path_channel(0.9, grid)
    for m, f in enumerate(grid.freqs_hz):
        w = _combined(ch, DppConfig(1, 256, 1), m)[:, 0]
        assert analysis.exact_gain(w, GEOM, f, 0.9) >= 1.0 - 1e-9


def test_center_subcarrier_gain_is_exactly_one():
    grid = _grid(129)
    ch = _single_path_channel(2.4, grid)
    for k_ttd in (1, 8, 32):
        w = _combined(ch, DppConfig(1, k_ttd, 1), 64)[:, 0]
        assert analysis.exact_gain(w, GEOM, 30e9, 2.4) == pytest.approx(1.0, abs=1e-12)


def test_dpp_dominates_phase_shifter_for_eight_plus_units():
    grid = FrequencyGrid(30e9, 3e9, 65)
    a_c = steering_uca(GEOM, 30e9, math.pi / 6)
    for k_ttd in (8, 16):
        for f in grid.freqs_hz:
            ps_gain = analysis.exact_gain(a_c, GEOM, f, math.pi / 6)
            dpp_gain = analysis.dpp_exact_gain(GEOM, 30e9, f, math.pi / 6, k_ttd)
            assert dpp_gain + 1e-9 >= ps_gain


def test_four_units_cross_over_but_stay_bounded():
    # with only four delay units the corrected beam dips below the plain
    # phase-shifter response near its own first null; the shortfall is small
    grid = _grid(129)
    margins = []
    for f in grid.freqs_hz:
        ps_gain = analysis.ps_gain_closed_form(f, 30e9, GEOM.radius_m)
        dpp_gain = analysis.dpp_exact_gain(GEOM, 30e9, f, math.pi / 6, 4)
        margins.append(ps_gain - dpp_gain)
    worst = max(margins)
    assert 0.02 <= worst <= 0.06
    assert sum(m > 1e-9 for m in margins) >= 1


# ---------------------------------------------------------------------------
# digital stage
# ---------------------------------------------------------------------------


def test_power_budget_met_exactly_per_subcarrier():
    grid = _grid(17)
    ch = ChannelRealization(
        paths=(
            PathParams(1.2 + 0.4j, 3e-9, 0.5, 0.3),
            PathParams(0.6 - 0.8j, 9e-9, 2.8, -0.5),
            PathParams(-0.3 + 0.2j, 1e-9, 4.0, 0.9),
            PathParams(0.9 + 0.9j, 6e-9, 5.5, -1.1),
        ),
        tx=GEOM, rx=RX, grid=grid,
    )
    cfg = DppConfig(4, 8, 4)
    f = _combined_precoders(ch, cfg, 10.0, 2.5)
    for m in range(17):
        assert np.linalg.norm(f[m], "fro") ** 2 == pytest.approx(2.5, rel=1e-9)
    classic = _combined_precoders(ch, cfg, 10.0, 2.5, dpp=False)
    for m in (0, 8, 16):
        assert np.linalg.norm(classic[m], "fro") ** 2 == pytest.approx(2.5, rel=1e-9)
    # the designs rescale by the same radiated power per stream, ||A v_s||^2,
    # and rated at rho * 2.5 they give the rates of F
    for dpp, build, precoders in ((True, build_dpp, f), (False, build_classic_hybrid, classic)):
        a, sigma, v = _stream_directions(ch, cfg, dpp)
        design = build(ch, cfg)
        np.testing.assert_allclose(design.sigma, sigma, rtol=1e-12)
        np.testing.assert_allclose(design.radiation, np.linalg.norm(a @ v, axis=-2) ** 2,
                                   rtol=1e-9)
        h_eff = np.swapaxes(_stack(ch).conj(), -1, -2) @ precoders
        gram = np.eye(4) + 10.0 / 4 * (np.swapaxes(h_eff.conj(), -1, -2) @ h_eff)
        np.testing.assert_allclose(analysis.spectrum_efficiency(design, 10.0 * 2.5),
                                   np.linalg.slogdet(gram)[1] / math.log(2.0), rtol=1e-12)


def test_classic_equals_dpp_for_single_delay_unit():
    # one TTD per chain only rotates each chain's column, which the digital
    # stage absorbs: spectral efficiency must match exactly
    grid = _grid(33)
    ch = generate_channel(GEOM, RX, grid, 3, 11)
    cfg = DppConfig(2, 1, 2)
    se_a = analysis.spectrum_efficiency(build_classic_hybrid(ch, cfg), 10.0)
    se_b = analysis.spectrum_efficiency(build_dpp(ch, cfg), 10.0)
    for m in (0, 16, 32):
        assert se_a[m] == pytest.approx(se_b[m], abs=1e-9)


def test_degenerate_zero_channel_builds_and_radiates_budget():
    grid = _grid(5)
    ch = _single_path_channel(1.0, grid, gain=0j)
    f = _combined_precoders(ch, DppConfig(1, 8, 1), 10.0, 1.0)
    for m in range(5):
        assert np.linalg.norm(f[m], "fro") ** 2 == pytest.approx(1.0, rel=1e-9)
    # the one unit-norm analog column radiates the whole stream power
    design = build_dpp(ch, DppConfig(1, 8, 1))
    np.testing.assert_allclose(design.radiation, 1.0, rtol=1e-12)


def test_classic_on_zero_channel_radiates_budget():
    paths = (PathParams(0j, 0.0, 0.7, 0.2), PathParams(0j, 1e-9, 2.1, -0.3))
    ch = ChannelRealization(paths=paths, tx=GEOM, rx=RX, grid=_grid(5))
    for n_rf in (1, 2):
        cfg = DppConfig(n_rf, 8, 1)
        design = build_classic_hybrid(ch, cfg)
        # the stream's unit-norm direction radiates through w_ps^H w_ps
        assert np.all(design.radiation > 0.0) and np.all(np.isfinite(design.radiation))
        if n_rf == 1:  # the one unit-norm column radiates the whole stream power
            np.testing.assert_allclose(design.radiation, 1.0, rtol=1e-12)
        np.testing.assert_allclose(analysis.spectrum_efficiency(design, 10.0), 0.0,
                                   rtol=0, atol=1e-12)


def test_snr_parameter_validation():
    grid = _grid(5)
    design = build_dpp(_single_path_channel(1.0, grid), DppConfig(1, 8, 1))
    with pytest.raises(ValueError):
        analysis.spectrum_efficiency(design, 0.0)


def test_stream_count_limited_by_rank_bound():
    grid = _grid(5)
    paths = tuple(
        PathParams(1.0 + 0j, i * 1e-9, 0.5 + i, 0.1 * i - 0.2) for i in range(5)
    )
    ch = ChannelRealization(paths=paths, tx=GEOM, rx=RX, grid=grid)
    with pytest.raises(ValueError, match="n_streams=5 exceeds n_rx=4"):
        build_dpp(ch, DppConfig(5, 8, 5))


# ---------------------------------------------------------------------------
# per-arc design
# ---------------------------------------------------------------------------


def _divisors(n_elements):
    return [k for k in range(1, n_elements + 1) if n_elements % k == 0]


def _random_stage(rng, n_rf, k_ttd, zero_delays=False):
    """Random unit-modulus corrections and delays (n_rf x K each); with
    zero delays, no correction either (at K = 1, the classic stage)."""
    if zero_delays:
        return np.ones((n_rf, k_ttd)), np.zeros((n_rf, k_ttd))
    return (np.exp(2j * np.pi * rng.random((n_rf, k_ttd))),
            rng.uniform(0.0, 2e-9, (n_rf, k_ttd)))


def _products(h_t, w, stages, freqs_hz):
    """G and the Grams of the stages on the stack h_t = H^T, fed to
    _equivalent_channels a chunk at a time, in grid order, as build_designs
    feeds it."""
    feed, result = _equivalent_channels(w, stages, freqs_hz, h_t.shape[1])
    for sl in _subcarrier_chunks(len(h_t)):
        feed(sl, h_t[sl])
    return result()


def _assert_stages_equal_the_combined_analog_stage(ch, w, stages):
    # every stage of one call against its dense combined weights A(f):
    # G = H^H A and A^H A on every subcarrier
    h_t = np.swapaxes(_stack(ch), -1, -2)
    g, gram = _products(h_t, w, stages, ch.grid.freqs_hz)
    assert g.shape == (len(stages), *h_t.shape[:2], w.shape[1])
    for (corr, delays), g_s, gram_s in zip(stages, g, gram):
        w_ps = w * np.repeat(corr.T, w.shape[0] // corr.shape[1], axis=0)
        a = analog(w_ps, delays, ch.grid.freqs_hz)  # M x N x n_rf
        g_ref = np.conj(h_t @ a.conj())  # H^H A
        np.testing.assert_allclose(g_s, g_ref, rtol=0,
                                   atol=1e-13 * max(1.0, np.abs(g_ref).max()))
        np.testing.assert_allclose(gram_s, np.swapaxes(a.conj(), -1, -2) @ a, rtol=0,
                                   atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(n_tx=st.sampled_from([4, 6, 12, 16, 32]), data=st.data(),
       seed=st.integers(0, 2**32 - 1), n_sub=st.integers(1, 19),
       bw=st.floats(0.1e9, 10e9), zero_delays=st.booleans())
def test_per_arc_products_equal_the_combined_analog_stage(n_tx, data, seed, n_sub, bw,
                                                         zero_delays):
    # one call for up to three divisors K of N, random columns, corrections
    # and delays (none: the classic stage); blocks hold whole chunks, 8 to
    # 256 subcarriers, so many grids end in a partial chunk or block
    ks = data.draw(st.lists(st.sampled_from(_divisors(n_tx)), min_size=1, max_size=3))
    n_rf = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    tx = half_wavelength_uca(n_tx, 30e9)
    ch = generate_channel(tx, RX, FrequencyGrid(30e9, bw, n_sub), 3, seed)
    w = np.exp(2j * np.pi * rng.random((n_tx, n_rf))) / math.sqrt(n_tx)
    _assert_stages_equal_the_combined_analog_stage(
        ch, w, [_random_stage(rng, n_rf, k, zero_delays) for k in ks])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n_tx=st.sampled_from([12, 18, 30, 36, 60]), data=st.data(),
       seed=st.integers(0, 2**32 - 1), n_sub=st.integers(1, 19))
def test_fine_arcs_of_counts_with_a_lcm_not_a_power_of_two(n_tx, data, seed, n_sub):
    # e.g. N = 12 with K in {3, 4}: the fine level K_f = 12 is finer than
    # every count, and each count sums slabs of K_f/K fine arcs
    ks = data.draw(st.lists(st.sampled_from(_divisors(n_tx)), min_size=2, max_size=4,
                            unique=True))
    k_f = math.lcm(*ks)
    assume(k_f & (k_f - 1) and k_f not in ks)
    n_rf = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    tx = half_wavelength_uca(n_tx, 30e9)
    ch = generate_channel(tx, RX, FrequencyGrid(30e9, 3e9, n_sub), 3, seed)
    w = np.exp(2j * np.pi * rng.random((n_tx, n_rf))) / math.sqrt(n_tx)
    stages = [_random_stage(rng, n_rf, 1, zero_delays=True)]
    _assert_stages_equal_the_combined_analog_stage(
        ch, w, stages + [_random_stage(rng, n_rf, k) for k in ks])


@pytest.mark.parametrize("n_sub", [1, 13, 127, 128])
def test_per_arc_blocks_at_bench_size_equal_the_combined_analog_stage(n_sub):
    # N = 256, one call for the classic stage and eight counts: K_f = N, so
    # blocks hold one chunk of 8 subcarriers (at n_rf = 4 or 1), and 13 or
    # 127 subcarriers leave a partial last block
    ch = generate_channel(GEOM, RX, _grid(n_sub), 4, n_sub)
    rng = np.random.default_rng(n_sub)
    for n_rf in (1, 4):
        w = np.exp(2j * np.pi * rng.random((256, n_rf))) / 16.0
        stages = [_random_stage(rng, n_rf, 1, zero_delays=True)]
        stages += [_random_stage(rng, n_rf, k) for k in (1, 2, 4, 8, 16, 32, 64, 256)]
        _assert_stages_equal_the_combined_analog_stage(ch, w, stages)


@pytest.mark.parametrize("n_sub", [1, 13, 128])
@pytest.mark.parametrize("n_rf", [1, 4])
def test_zero_delays_take_one_product_over_the_stack(n_sub, n_rf):
    # the classic stage alone: one arc, no correction, zero delay; 13
    # subcarriers are not a whole number of chunks; n_rf = 4 = N_r
    ch = generate_channel(GEOM, RX, _grid(n_sub), 4, 7)
    w_ps, delays = precoder_stage(ch, DppConfig(n_rf, 8, 1), dpp=False)
    stack = _stack(ch)
    g, gram = _products(np.swapaxes(stack, -1, -2), w_ps,
                        [(np.ones_like(delays), delays)], ch.grid.freqs_hz)
    g, gram = g[0], gram[0]
    assert g.shape == (n_sub, 4, n_rf) and gram.shape == (n_sub, n_rf, n_rf)
    for m in range(n_sub):
        g_ref = stack[m].conj().T @ w_ps
        np.testing.assert_allclose(g[m], g_ref, rtol=0, atol=1e-13 * np.abs(g_ref).max())
        assert np.array_equal(gram[m], w_ps.conj().T @ w_ps)
    assert gram.flags.c_contiguous


def _assert_same_design(got, want):
    # sigma relative to the largest singular value of its subcarrier (the
    # weakest of four moves by rounding over the condition number of G),
    # the radiation relative to itself
    assert np.all(np.abs(got.sigma - want.sigma) <= 1e-13 * want.sigma[:, :1])
    np.testing.assert_allclose(got.radiation, want.radiation, rtol=1e-13)


@pytest.mark.parametrize("n_rf", [1, 2, 4])
def test_one_arc_delay_phase_design_equals_the_classic_design(n_rf):
    # a single arc's correction and delay scale each chain by one
    # unit-modulus factor per subcarrier: sigma and the radiation stay
    ch = generate_channel(GEOM, RX, _grid(33), 4, 5 + n_rf)
    phi = _chain_directions(ch, n_rf)
    w = np.ascontiguousarray(steering_uca(GEOM, 30e9, phi).T)
    dpp = _chain_phases(GEOM, 30e9, phi[:, None], 1)
    assert np.all(dpp[1] > 0.0)  # a real delay, not the classic stage
    g, gram = _products(np.swapaxes(_stack(ch), -1, -2), w,
                        [(np.ones((n_rf, 1)), np.zeros((n_rf, 1))), dpp], ch.grid.freqs_hz)
    classic, one_arc = (_design(g_s, gram_s, n_rf) for g_s, gram_s in zip(g, gram))
    _assert_same_design(one_arc, classic)
    # so K = 1 is built once, as the classic design, and each design of a
    # multi-count call equals the one-count call
    designs = build_designs(ch, n_rf, n_rf, (1, 8))
    _assert_same_design(designs[1], build_classic_hybrid(ch, DppConfig(n_rf, 8, n_rf)))
    _assert_same_design(designs[1], build_dpp(ch, DppConfig(n_rf, 1, n_rf)))
    _assert_same_design(designs[8], build_dpp(ch, DppConfig(n_rf, 8, n_rf)))


@pytest.mark.parametrize("n_tx, n_rx", [(256, 4), (4, 4), (3, 5)])
def test_fully_digital_design_rates_as_the_bound_bit_for_bit(n_tx, n_rx):
    # tall, square and wide channels: the key None of a design call gives,
    # through spectrum_efficiency, the rates of spectrum_efficiency_optimal
    # on the stack, alone or beside hybrid designs of the same pass
    tx, k = half_wavelength_uca(n_tx, 30e9), min(n_tx, n_rx)
    ch = generate_channel(tx, UlaGeometry(n_rx, C / 30e9 / 2.0), _grid(21), 5, n_tx)
    rho = np.array([0.1, 10.0, 1e3])
    bound = analysis.spectrum_efficiency_optimal(_stack(ch), rho, k)
    for keys in [(None,), (1, None, n_tx)]:
        design = build_designs(ch, k, k, keys)[None]
        assert design.radiation is None and design.sigma.shape == (21, k)
        assert np.array_equal(analysis.spectrum_efficiency(design, rho), bound)
    broken = (f"n_rf={k + 1} exceeds n_elements={n_tx}" if k == n_tx
              else f"n_streams={k + 1} exceeds n_rx={n_rx}")
    with pytest.raises(ValueError, match=broken):
        build_designs(ch, k + 1, k + 1, (None,))
    ch = generate_channel(tx, UlaGeometry(n_rx, C / 30e9 / 2.0), _grid(21), 5, n_tx)
    assert build_designs(ch, k, k, ()) == {} and "_tables" not in ch.__dict__  # no pass


# ---------------------------------------------------------------------------
# working memory
# ---------------------------------------------------------------------------


def _traced_peak(fn):
    """Peak of traced allocations while fn runs, above those alive before."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    fn()
    return tracemalloc.get_traced_memory()[1] - before


def test_stage_temporaries_stay_below_the_channel_stack():
    # N = 256 and M = 128 (the built-ins' stack, 2.10 MB, which no design
    # call forms): every stage's temporaries are bounded by chunk or block
    # sizes, so an array hoisted out of a loop that grows with M*N, or with
    # M*K at K = N, fails.  A design call synthesizes its channel a chunk at
    # a time, so its peak is one chunk's synthesis plus the design's own
    # temporaries, which keep the bounds they had beside the stack
    ch = generate_channel(GEOM, RX, _grid(128), 4, 3)
    cfg = DppConfig(4, 16, 4)
    mb = 1e6
    tracemalloc.start()
    try:
        # the whole grid in one call, and the realization's tables
        synthesis = _traced_peak(lambda: _stack(ch))
        assert synthesis - 128 * 256 * 4 * 16 <= 0.75 * mb
        # a chunk of H^T (131 KB) and its UCA factors (131 KB)
        chunk = _traced_peak(lambda: channel_matrix(ch, range(SUBCARRIER_CHUNK)))
        assert chunk <= 0.3 * mb
        assert _traced_peak(lambda: build_classic_hybrid(ch, cfg)) <= chunk + 0.35 * mb
        assert _traced_peak(lambda: build_dpp(ch, cfg)) <= chunk + 0.35 * mb
        for k_ttd in (1, 2, 4, 8, 32):  # blocks of the whole grid down to 16 subcarriers
            assert _traced_peak(lambda: build_dpp(ch, DppConfig(4, k_ttd, 4))) <= (
                chunk + 0.35 * mb)
        full = DppConfig(4, 256, 4)
        assert _traced_peak(lambda: build_dpp(ch, full)) <= chunk + 1.6 * mb
        # the classic design and six counts from one product: about 64 KB
        # of G and Gram per design, and blocks sized by K_f = 32
        assert _traced_peak(lambda: build_designs(ch, 4, 4, (1, 2, 4, 8, 16, 32))) <= (
            chunk + 1.0 * mb)
        # the fully digital bound: its R factors, chunk by chunk
        assert _traced_peak(lambda: build_designs(ch, 4, 4, (None,))) <= chunk + 0.25 * mb
        stack = _stack(ch)
        assert _traced_peak(lambda: analysis.spectrum_efficiency_optimal(stack, 10.0, 4)) <= (
            0.25 * mb)
    finally:
        tracemalloc.stop()
