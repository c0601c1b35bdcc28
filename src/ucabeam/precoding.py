"""Classic phase-shifter hybrid precoding and delay-phase precoding for UCAs.

Architecture: each of ``n_rf`` RF chains feeds ``K`` true-time-delay (TTD)
units, and each TTD unit drives ``P = N/K`` phase shifters, one per antenna
of a contiguous arc of the circular array.  The analog stage is stored per
arc: frequency-flat phase-shifter weights ``w_ps`` (N x n_rf) and one delay
per arc ``delays_s`` (n_rf x K).  At frequency f, arc k of chain l is
``w_ps`` times the TTD phase ``phi_lk(f) = exp(-j*2*pi*f*delays_s[l, k])``.

Everything of a precoder that does not depend on the SNR is one
``HybridDesign`` per (channel, architecture, K), built from per-arc products
so that no N x n_rf analog matrix is formed per subcarrier:

* the equivalent channels ``G_m = H_m^H A(f_m) = sum_k conj(C_mk) * phi_k(f_m)``
  with ``C_mk = H_{m, arc k}^T conj(w_k)`` (N_r x n_rf per arc);
* the analog Gram matrices ``A^H A = sum_k conj(phi_k)^T phi_k * (w_k^H w_k)``;
* the SVD of every ``G_m``, and the Gram matrices and ``G_m`` seen by its
  stream directions.

The digital stage ``f_d[m]`` (n_rf x n_streams) at an SNR is then only
stream-sized work: water-filling over the stream SNRs and an exact rescale
to the power budget ``f_d^H (A^H A) f_d``, so the rates at many SNRs come
from one design (``analysis.design_spectrum_efficiency``).  The per-arc
products are built in chunks of ``arraymodel.SUBCARRIER_CHUNK`` subcarriers,
so they hold at most SUBCARRIER_CHUNK x K x N_r x n_rf values
(SUBCARRIER_CHUNK x N x N_r x n_rf at K = N).

Reference angles: subarray k uses the centroid of its element angles,
``theta_k = pi*(2k+1)/K - pi/N``.  With one TTD per antenna (K = N) the
reference angles coincide with the element angles and the combined analog
weight tracks the ideal per-subcarrier steering vector exactly, so the gain
is 1 at every frequency.

The classic hybrid precoder is the K -> 1 degenerate wiring: phase shifters
align the beam at the center frequency only and the TTD stage is all-ones,
so its design is the zero-delay single-arc case, ``G = H^H w_ps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arraymodel import (
    SPEED_OF_LIGHT,
    ChannelRealization,
    UcaGeometry,
    _subcarrier_chunks,
    _subcarrier_index,
    steering_uca,
)
from .cxlinalg import svd, water_filling

__all__ = [
    "DppConfig",
    "TtdSchedule",
    "PrecoderSet",
    "HybridDesign",
    "ttd_reference_angles",
    "ttd_delays",
    "build_classic_hybrid",
    "build_dpp",
    "design_classic_hybrid",
    "design_dpp",
    "analog_combined",
    "combined_precoder",
]

# Floor applied to water-filling channel gains so rank-deficient equivalent
# channels (zero singular values) stay in-domain; such channels end up with
# zero power anyway.
_GAIN_FLOOR = 1e-30


@dataclass(frozen=True)
class DppConfig:
    """Sizing of the hybrid architecture: RF chains, TTDs per chain, streams."""

    n_rf: int
    n_ttd_per_rf: int
    n_streams: int
    total_power: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.n_rf, int) and self.n_rf >= 1):
            raise ValueError(f"n_rf must be a positive integer, got {self.n_rf}")
        if not (isinstance(self.n_ttd_per_rf, int) and self.n_ttd_per_rf >= 1):
            raise ValueError(
                f"n_ttd_per_rf must be a positive integer, got {self.n_ttd_per_rf}"
            )
        if not (isinstance(self.n_streams, int) and 1 <= self.n_streams <= self.n_rf):
            raise ValueError(
                f"n_streams must satisfy 1 <= n_streams <= n_rf, got "
                f"n_streams={self.n_streams}, n_rf={self.n_rf}"
            )
        if not (np.isfinite(self.total_power) and self.total_power > 0.0):
            raise ValueError(f"total_power must be positive, got {self.total_power}")


@dataclass(frozen=True)
class TtdSchedule:
    """Per-RF-chain, per-TTD delays in seconds (n_rf x K), all in [0, 2R/c]."""

    delays_s: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delays_s, dtype=float)
        if d.ndim != 2:
            raise ValueError(f"delays_s must be 2-D (n_rf x K), got shape {d.shape}")
        if not np.all(np.isfinite(d)) or np.any(d < 0.0):
            raise ValueError("delays must be finite and non-negative")
        object.__setattr__(self, "delays_s", d)


@dataclass(frozen=True)
class PrecoderSet:
    """Per-arc analog stage plus per-subcarrier digital precoders.

    w_ps:     N x n_rf phase-shifter weights, modulus 1/sqrt(N)
    delays_s: n_rf x K TTD delays; arc k of chain l is delayed by delays_s[l, k]
    freqs_hz: M subcarrier frequencies
    f_d:      M x n_rf x n_streams digital precoders
    """

    w_ps: np.ndarray
    delays_s: np.ndarray
    freqs_hz: np.ndarray
    f_d: np.ndarray

    @property
    def n_rf(self) -> int:
        return self.w_ps.shape[1]

    @property
    def n_subcarriers(self) -> int:
        return self.f_d.shape[0]


def _arc_size(n_elements: int, k_ttd: int) -> int:
    """P = N/K antennas per delay unit; K must be a positive divisor of N."""
    if not (isinstance(k_ttd, int) and k_ttd >= 1):
        raise ValueError(f"k_ttd must be a positive integer, got {k_ttd}")
    if n_elements % k_ttd != 0:
        raise ValueError(
            f"k_ttd={k_ttd} must divide n_elements={n_elements} so each delay "
            f"unit drives an integer number P = N/K of antennas"
        )
    return n_elements // k_ttd


def ttd_reference_angles(n_elements: int, k_ttd: int) -> np.ndarray:
    """Centroid angle of each of the K contiguous P-element arcs:
    theta_k = pi*(2k+1)/K - pi/N, k = 0..K-1."""
    _arc_size(n_elements, k_ttd)
    k = np.arange(k_ttd)
    return np.pi * (2.0 * k + 1.0) / k_ttd - np.pi / n_elements


def ttd_delays(phi_rad: float, k_ttd: int, geom: UcaGeometry) -> np.ndarray:
    """Delays t_k = (R/c)*(1 - cos(phi - theta_k)) for one RF chain steered
    toward phi; non-negative by construction and at most 2R/c."""
    theta = ttd_reference_angles(geom.n_elements, k_ttd)
    return geom.radius_m / SPEED_OF_LIGHT * (1.0 - np.cos(phi_rad - theta))


def _sorted_paths(ch: ChannelRealization, n_rf: int):
    """Strongest-first path reordering; the top n_rf paths get RF chains."""
    if ch.n_paths < n_rf:
        raise ValueError(
            f"fewer paths than RF chains: n_paths={ch.n_paths} < n_rf={n_rf}"
        )
    order = sorted(ch.paths, key=lambda p: abs(p.gain), reverse=True)
    return order[:n_rf]


def _check_snr(rho, sigma2: float):
    if not np.all(np.isfinite(rho) & (np.asarray(rho) > 0.0)):
        raise ValueError(f"rho must be positive, got {rho}")
    if not (np.isfinite(sigma2) and sigma2 > 0.0):
        raise ValueError(f"sigma2 must be positive, got {sigma2}")


def _ps_column(geom: UcaGeometry, fc_hz: float, phi_rad: float, k_ttd: int,
               correct_to_centroid: bool) -> np.ndarray:
    """Phase-shifter weights of one chain steered toward phi: the
    center-frequency steering vector, optionally rotated per arc so each
    arc's centroid phase is zero."""
    col = steering_uca(geom, fc_hz, phi_rad)
    if correct_to_centroid:
        eta_c = 2.0 * np.pi * geom.radius_m * fc_hz / SPEED_OF_LIGHT
        theta = ttd_reference_angles(geom.n_elements, k_ttd)
        corr = np.exp(-1j * eta_c * np.cos(phi_rad - theta))
        col = col * np.repeat(corr, geom.n_elements // k_ttd)
    return col


def _analog(w_ps: np.ndarray, delays_s: np.ndarray, f_hz) -> np.ndarray:
    """N x n_rf combined analog weights at frequency f (... x N x n_rf for an
    array of frequencies): each arc of phase-shifter weights times its TTD
    phase exp(-j*2*pi*f*t)."""
    p = w_ps.shape[0] // delays_s.shape[1]
    f = np.asarray(f_hz)[..., None, None]
    phases = np.exp(-2j * np.pi * f * delays_s)  # ... x n_rf x K
    return w_ps * np.repeat(np.swapaxes(phases, -1, -2), p, axis=-2)


def _equivalent_channels(h_t: np.ndarray, w_ps: np.ndarray, delays_s: np.ndarray,
                         freqs_hz: np.ndarray):
    """Equivalent channels G = H^H A (M x N_r x n_rf) and analog Gram
    matrices A^H A (M x n_rf x n_rf) of the per-arc analog stage on the
    stack h_t = H^T (M x N_r x N), one subcarrier per frequency.

    Per arc k, C_k = H_{arc k}^T conj(w_k) is one product of length P, and
    G = sum_k conj(C_k) * phi_k(f); the Gram is sum_k conj(phi_k)^T phi_k *
    (w_k^H w_k).  All-zero delays (the classic wiring) are the single-arc
    case, G = H^H w_ps.  Per chunk of SUBCARRIER_CHUNK subcarriers the arc
    products hold SUBCARRIER_CHUNK x K x N_r x n_rf values.
    """
    if not np.any(delays_s):
        delays_s = delays_s[:, :1]
    n_rf, k = delays_s.shape
    m, n_r, n = h_t.shape
    p = n // k
    w_arcs = w_ps.reshape(k, p, n_rf)
    w_arcs_conj = w_arcs.conj()
    arc_grams = np.swapaxes(w_arcs_conj, -1, -2) @ w_arcs  # K x n_rf x n_rf
    g = np.empty((m, n_r, n_rf), dtype=np.complex128)
    gram = np.empty((m, n_rf, n_rf), dtype=np.complex128)
    for sl in _subcarrier_chunks(m):
        c = h_t[sl].shape[0]
        arcs = h_t[sl].reshape(c * n_r, k, p).swapaxes(0, 1) @ w_arcs_conj  # K x c*N_r x n_rf
        phases = np.exp(-2j * np.pi * freqs_hz[sl, None, None] * delays_s.T)  # c x K x n_rf
        g[sl] = np.einsum("kcrl,ckl->crl", arcs.reshape(k, c, n_r, n_rf), phases.conj()).conj()
        gram[sl] = np.einsum("cki,ckj,kij->cij", phases.conj(), phases, arc_grams)
    return g, gram


@dataclass(frozen=True)
class HybridDesign:
    """The SNR-independent part of a hybrid precoder on one channel.

    With G = H^H A the equivalent channels and v the right singular vectors
    of their n_streams largest singular values, the digital precoder at any
    SNR is f_d = v * a, one amplitude a_s per stream, so that H_eff = G f_d is
    (G v) * a and the radiated power f_d^H (A^H A) f_d is sum_s a_s^2 *
    (v_s^H A^H A v_s).  Only the amplitudes depend on the SNR.

    cfg:       architecture sizing (streams, power budget)
    sigma:     M x n_streams largest singular values of G
    v:         M x n_rf x n_streams matching right singular vectors
    g_v:       M x N_r x n_streams products G v
    radiation: M x n_streams radiated power per unit stream power,
               the diagonal of v^H (A^H A) v
    """

    cfg: DppConfig
    sigma: np.ndarray
    v: np.ndarray
    g_v: np.ndarray
    radiation: np.ndarray


def _analog_stage(ch: ChannelRealization, cfg: DppConfig, correct_to_centroid: bool):
    """Phase-shifter weights and delays: chain l serves the l-th strongest
    path; its TTD delays follow the arc centroids when corrected, and are
    zero otherwise."""
    _arc_size(ch.tx.n_elements, cfg.n_ttd_per_rf)
    if cfg.n_rf > ch.tx.n_elements:
        raise ValueError(f"n_rf={cfg.n_rf} exceeds n_elements={ch.tx.n_elements}")
    paths = _sorted_paths(ch, cfg.n_rf)
    k_ttd = cfg.n_ttd_per_rf
    w_ps = np.stack([
        _ps_column(ch.tx, ch.grid.fc_hz, p.aod_rad, k_ttd, correct_to_centroid)
        for p in paths
    ], axis=1)
    if correct_to_centroid:
        delays = np.array([ttd_delays(p.aod_rad, k_ttd, ch.tx) for p in paths])
    else:
        delays = np.zeros((cfg.n_rf, k_ttd))
    return w_ps, delays


def _design(ch: ChannelRealization, w_ps, delays, cfg: DppConfig) -> HybridDesign:
    """SVD of the equivalent channels over the whole grid of ch, and the
    analog Gram matrices seen by its stream directions."""
    g, gram = _equivalent_channels(np.swapaxes(ch.matrices, -1, -2), w_ps, delays,
                                   ch.grid.freqs_hz)
    res = svd(g)
    n_s = cfg.n_streams
    if res.sigma.shape[-1] < n_s:
        raise ValueError(
            f"n_streams={n_s} exceeds the equivalent-channel rank bound "
            f"min(n_rx, n_rf)={res.sigma.shape[-1]}"
        )
    v = np.swapaxes(res.vh[:, :n_s].conj(), -1, -2)
    radiation = np.einsum("mis,mij,mjs->ms", v.conj(), gram, v).real
    return HybridDesign(cfg=cfg, sigma=res.sigma[:, :n_s], v=v, g_v=g @ v,
                        radiation=radiation)


def design_classic_hybrid(ch: ChannelRealization, cfg: DppConfig) -> HybridDesign:
    """SNR-independent design of the classic hybrid precoder on ch (see
    build_classic_hybrid); it does not depend on cfg.n_ttd_per_rf."""
    return _design(ch, *_analog_stage(ch, cfg, correct_to_centroid=False), cfg)


def design_dpp(ch: ChannelRealization, cfg: DppConfig) -> HybridDesign:
    """SNR-independent design of the delay-phase precoder on ch (see
    build_dpp)."""
    return _design(ch, *_analog_stage(ch, cfg, correct_to_centroid=True), cfg)


def _amplitudes(design: HybridDesign, rho, sigma2: float) -> np.ndarray:
    """Stream amplitudes a of the digital precoders f_d = v * a at SNR rho,
    M x n_streams (an array of SNRs puts its shape in front): water-filling
    over the effective stream SNRs, then an exact rescale so the radiated
    power f_d^H (A^H A) f_d meets the budget at every subcarrier."""
    _check_snr(rho, sigma2)
    cfg = design.cfg
    rho = np.asarray(rho, dtype=float)[..., None, None]
    stream_gains = np.maximum(
        rho * design.sigma ** 2 / (cfg.n_streams * sigma2), _GAIN_FLOOR
    )
    powers = water_filling(stream_gains, cfg.total_power)
    radiated = np.sum(powers * design.radiation, axis=-1, keepdims=True)
    if np.any(radiated <= 0.0):
        raise ValueError("combined precoder has zero power; degenerate channel")
    return np.sqrt(powers) * np.sqrt(cfg.total_power / radiated)


def _build(ch: ChannelRealization, cfg: DppConfig, rho: float, sigma2: float,
           correct_to_centroid: bool) -> PrecoderSet:
    w_ps, delays = _analog_stage(ch, cfg, correct_to_centroid)
    f_d = _digital_stage(ch, w_ps, delays, cfg, rho, sigma2)
    return PrecoderSet(w_ps=w_ps, delays_s=delays, freqs_hz=ch.grid.freqs_hz, f_d=f_d)


def _digital_stage(ch, w_ps, delays, cfg: DppConfig, rho: float, sigma2: float):
    """Per-subcarrier digital precoders of the analog stage (w_ps, delays)
    on ch at SNR rho: its design, then the SNR-dependent steps."""
    design = _design(ch, w_ps, delays, cfg)
    return design.v * _amplitudes(design, rho, sigma2)[..., None, :]


def build_classic_hybrid(
    ch: ChannelRealization, cfg: DppConfig, rho: float = 1.0, sigma2: float = 1.0
) -> PrecoderSet:
    """Phase-shifter-only hybrid precoder: analog column l is the
    center-frequency steering vector of the l-th strongest path; the TTD
    stage is all-ones (no delays)."""
    return _build(ch, cfg, rho, sigma2, correct_to_centroid=False)


def build_dpp(
    ch: ChannelRealization, cfg: DppConfig, rho: float = 1.0, sigma2: float = 1.0
):
    """Delay-phase precoder: centroid-referenced PS corrections plus TTD
    delays per chain, then the shared digital stage.  Returns the precoder
    set and the delay schedule."""
    ps = _build(ch, cfg, rho, sigma2, correct_to_centroid=True)
    return ps, TtdSchedule(delays_s=ps.delays_s)


def analog_combined(ps: PrecoderSet, m) -> np.ndarray:
    """N x n_rf combined analog precoder at subcarrier m; unit-norm columns.
    A sequence of indices gives the len(m) x N x n_rf stack."""
    idx = _subcarrier_index(m, ps.n_subcarriers)
    return _analog(ps.w_ps, ps.delays_s, ps.freqs_hz[idx])


def combined_precoder(ps: PrecoderSet, m) -> np.ndarray:
    """N x n_streams end-to-end precoder: analog_combined(ps, m) @ f_d[m]
    (stacked along a leading axis for a sequence of indices)."""
    return analog_combined(ps, m) @ ps.f_d[np.asarray(m)]
