"""Delay-phase and phase-shifter-only hybrid precoder construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucabeam import analysis
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
from ucabeam.precoding import (
    DppConfig,
    PrecoderSet,
    TtdSchedule,
    _equivalent_channels,
    analog_combined,
    build_classic_hybrid,
    build_dpp,
    combined_precoder,
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
        DppConfig(2, 8, 2, total_power=0.0)
    with pytest.raises(ValueError):
        DppConfig(2, 8, 2.0)  # type: ignore[arg-type]


def test_ttd_schedule_validation():
    TtdSchedule(np.zeros((2, 8)))
    with pytest.raises(ValueError):
        TtdSchedule(np.zeros(8))
    with pytest.raises(ValueError):
        TtdSchedule(-1e-12 * np.ones((1, 4)))


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
    ps, sched = build_dpp(ch, cfg)
    assert ps.w_ps.shape == (256, 1)
    assert ps.delays_s.shape == (1, 8)
    assert ps.f_d.shape == (9, 1, 1)
    assert ps.n_subcarriers == 9
    assert ps.n_rf == 1
    assert np.abs(np.abs(ps.w_ps) - 1.0 / 16.0).max() <= 1e-15
    # combined weight = PS weight times a unit-modulus TTD phase per element
    for m in range(9):
        ratio = analog_combined(ps, m) / ps.w_ps
        assert np.abs(np.abs(ratio) - 1.0).max() <= 1e-12
    assert np.array_equal(sched.delays_s, ps.delays_s)
    assert np.all(sched.delays_s >= 0.0)
    assert np.all(sched.delays_s <= 2.0 * GEOM.radius_m / C)


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
    ps, _ = build_dpp(ch, cfg)
    p = 256 // 4
    assert ps.w_ps.shape == (256, 2)
    assert ps.delays_s.shape == (2, 4)
    for m, f in enumerate(grid.freqs_hz):
        ratio = analog_combined(ps, m) / ps.w_ps
        for chain in range(2):
            for k in range(4):
                arc = ratio[k * p : (k + 1) * p, chain]
                want = np.exp(-2j * np.pi * f * ps.delays_s[chain, k])
                assert np.abs(arc - want).max() <= 1e-12


def test_classic_hybrid_has_no_delays():
    grid = _grid(5)
    ch = _single_path_channel(0.7, grid)
    ps = build_classic_hybrid(ch, DppConfig(1, 8, 1))
    assert np.array_equal(ps.delays_s, np.zeros((1, 8)))
    assert np.array_equal(ps.w_ps[:, 0], steering_uca(GEOM, 30e9, 0.7))
    for m in range(5):
        assert np.array_equal(analog_combined(ps, m), ps.w_ps)


def test_combined_phase_decomposition():
    # per element n in arc k, at subcarrier frequency f:
    #   arg(w_n * sqrt(N)) - eta_c*cos(phi - psi_n)
    #     == (eta_f - eta_c)*cos(phi - theta_k) - eta_f   (mod 2*pi)
    grid = _grid(129)
    phi = 1.1
    ch = _single_path_channel(phi, grid, gain=0.8 - 0.3j, delay=5e-9, aoa=0.4)
    ps, _ = build_dpp(ch, DppConfig(1, 8, 1), rho=10.0)
    theta = ttd_reference_angles(256, 8)
    psi = GEOM.element_angles
    r = GEOM.radius_m
    for m in (0, 100):
        w = analog_combined(ps, m)[:, 0]
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
    ps, _ = build_dpp(ch, DppConfig(2, 8, 2))
    w = analog_combined(ps, 4)  # center subcarrier sits at fc
    for chain, aod in enumerate((2.0, 4.4)):
        assert analysis.exact_gain(w[:, chain], GEOM, 30e9, aod) == pytest.approx(
            1.0, abs=1e-12
        )


def test_build_requires_enough_paths():
    grid = _grid(5)
    ch = _single_path_channel(1.0, grid)
    with pytest.raises(ValueError, match="fewer paths"):
        build_dpp(ch, DppConfig(2, 8, 1))


def test_single_delay_unit_keeps_center_beam():
    # K=1 applies one common phase per subcarrier: the analog column stays
    # the center-frequency steering vector up to a global rotation
    grid = _grid(9)
    ch = _single_path_channel(0.8, grid)
    ps, _ = build_dpp(ch, DppConfig(1, 1, 1))
    a = steering_uca(GEOM, 30e9, 0.8)
    for m in range(9):
        w = analog_combined(ps, m)[:, 0]
        rot = w[0] / a[0]
        assert abs(abs(rot) - 1.0) <= 1e-12
        assert np.abs(w - rot * a).max() <= 1e-12


def test_full_delay_bank_restores_unit_gain_everywhere():
    # one delay per element removes the defocus exactly at all subcarriers
    grid = FrequencyGrid(30e9, 4e9, 17)
    ch = _single_path_channel(0.9, grid)
    ps, _ = build_dpp(ch, DppConfig(1, 256, 1))
    for m, f in enumerate(grid.freqs_hz):
        w = analog_combined(ps, m)[:, 0]
        assert analysis.exact_gain(w, GEOM, f, 0.9) >= 1.0 - 1e-9


def test_center_subcarrier_gain_is_exactly_one():
    grid = _grid(129)
    ch = _single_path_channel(2.4, grid)
    for k_ttd in (1, 8, 32):
        ps, _ = build_dpp(ch, DppConfig(1, k_ttd, 1))
        w = analog_combined(ps, 64)[:, 0]
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
    cfg = DppConfig(4, 8, 4, total_power=2.5)
    ps, _ = build_dpp(ch, cfg, rho=10.0)
    for m in range(17):
        f_comb = combined_precoder(ps, m)
        assert np.linalg.norm(f_comb, "fro") ** 2 == pytest.approx(2.5, rel=1e-9)
    classic = build_classic_hybrid(ch, cfg, rho=10.0)
    for m in (0, 8, 16):
        f_comb = combined_precoder(classic, m)
        assert np.linalg.norm(f_comb, "fro") ** 2 == pytest.approx(2.5, rel=1e-9)


def test_classic_equals_dpp_for_single_delay_unit():
    # one TTD per chain only rotates each chain's column, which the digital
    # stage absorbs: spectral efficiency must match exactly
    grid = _grid(33)
    ch = generate_channel(GEOM, RX, grid, 3, 11)
    cfg = DppConfig(2, 1, 2)
    pa = build_classic_hybrid(ch, cfg, rho=10.0)
    pb, _ = build_dpp(ch, cfg, rho=10.0)
    for m in (0, 16, 32):
        h = channel_matrix(ch, m)
        se_a = analysis.spectrum_efficiency(h, pa, m, 10.0, 1.0)
        se_b = analysis.spectrum_efficiency(h, pb, m, 10.0, 1.0)
        assert se_a == pytest.approx(se_b, abs=1e-9)


def test_degenerate_zero_channel_builds_and_radiates_budget():
    grid = _grid(5)
    ch = _single_path_channel(1.0, grid, gain=0j)
    ps, _ = build_dpp(ch, DppConfig(1, 8, 1), rho=10.0)
    for m in range(5):
        f_comb = combined_precoder(ps, m)
        assert np.linalg.norm(f_comb, "fro") ** 2 == pytest.approx(1.0, rel=1e-9)


def test_snr_parameter_validation():
    grid = _grid(5)
    ch = _single_path_channel(1.0, grid)
    with pytest.raises(ValueError):
        build_dpp(ch, DppConfig(1, 8, 1), rho=0.0)
    with pytest.raises(ValueError):
        build_dpp(ch, DppConfig(1, 8, 1), sigma2=-1.0)


def test_stream_count_limited_by_rank_bound():
    grid = _grid(5)
    paths = tuple(
        PathParams(1.0 + 0j, i * 1e-9, 0.5 + i, 0.1 * i - 0.2) for i in range(5)
    )
    ch = ChannelRealization(paths=paths, tx=GEOM, rx=RX, grid=grid)
    with pytest.raises(ValueError, match="rank bound"):
        build_dpp(ch, DppConfig(5, 8, 5))


# ---------------------------------------------------------------------------
# per-arc design
# ---------------------------------------------------------------------------


def _divisor_and_rf(n_elements):
    divisors = [k for k in range(1, n_elements + 1) if n_elements % k == 0]
    return st.tuples(st.sampled_from(divisors), st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(n_tx=st.sampled_from([4, 6, 12, 16, 32]), data=st.data(),
       seed=st.integers(0, 2**32 - 1), n_sub=st.integers(1, 19),
       bw=st.floats(0.1e9, 10e9), zero_delays=st.booleans())
def test_per_arc_products_equal_the_combined_analog_stage(n_tx, data, seed, n_sub, bw,
                                                         zero_delays):
    # every divisor K of N, random PS weights and delays (all zero: the
    # single-arc case); 19 subcarriers span three chunks, the last partial
    k_ttd, n_rf = data.draw(_divisor_and_rf(n_tx))
    rng = np.random.default_rng(seed)
    tx = half_wavelength_uca(n_tx, 30e9)
    ch = generate_channel(tx, RX, FrequencyGrid(30e9, bw, n_sub), 3, seed)
    w_ps = np.exp(2j * np.pi * rng.random((n_tx, n_rf))) / math.sqrt(n_tx)
    delays = np.zeros((n_rf, k_ttd)) if zero_delays else rng.uniform(0.0, 2e-9, (n_rf, k_ttd))
    ps = PrecoderSet(w_ps=w_ps, delays_s=delays, freqs_hz=ch.grid.freqs_hz,
                     f_d=np.zeros((n_sub, n_rf, 1), dtype=complex))
    a = analog_combined(ps, range(n_sub))  # n_sub x N x n_rf
    h_t = np.swapaxes(ch.matrices, -1, -2)
    g, gram = _equivalent_channels(h_t, w_ps, delays, ch.grid.freqs_hz)
    g_ref = np.conj(h_t @ a.conj())  # H^H A
    np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-13 * max(1.0, np.abs(g_ref).max()))
    np.testing.assert_allclose(gram, np.swapaxes(a.conj(), -1, -2) @ a, rtol=0, atol=1e-13)
