"""Classic phase-shifter hybrid precoding and delay-phase precoding for UCAs.

Architecture: each of ``n_rf`` RF chains feeds ``K`` true-time-delay (TTD)
units, and each TTD unit drives ``P = N/K`` phase shifters, one per antenna
of a contiguous arc of the circular array.  The analog stage is stored per
arc: frequency-flat phase-shifter weights ``w_ps`` (N x n_rf) and one delay
per arc ``delays_s`` (n_rf x K).  At frequency f, arc k of chain l is
``w_ps`` times the TTD phase ``exp(-j*2*pi*f*delays_s[l, k])``.  The digital
stage ``f_d[m]`` (n_rf x n_streams) comes from an SVD of the equivalent
channel plus water-filling.  It is independent per subcarrier, so it runs
batched over chunks of ``arraymodel.SUBCARRIER_CHUNK`` subcarriers, which
bounds the live analog-stage tensor to SUBCARRIER_CHUNK x N x n_rf.

Reference angles: subarray k uses the centroid of its element angles,
``theta_k = pi*(2k+1)/K - pi/N``.  With one TTD per antenna (K = N) the
reference angles coincide with the element angles and the combined analog
weight tracks the ideal per-subcarrier steering vector exactly, so the gain
is 1 at every frequency.

The classic hybrid precoder is the K -> 1 degenerate wiring: phase shifters
align the beam at the center frequency only and the TTD stage is all-ones.
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
    "ttd_reference_angles",
    "ttd_delays",
    "build_classic_hybrid",
    "build_dpp",
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


def _check_snr(rho: float, sigma2: float):
    if not (np.isfinite(rho) and rho > 0.0):
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


def _build(ch: ChannelRealization, cfg: DppConfig, rho: float, sigma2: float,
           correct_to_centroid: bool) -> PrecoderSet:
    """Shared construction: chain l serves the l-th strongest path; its TTD
    delays follow the arc centroids when corrected, and are zero otherwise."""
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
    f_d = _digital_stage(ch, w_ps, delays, cfg, rho, sigma2)
    return PrecoderSet(w_ps=w_ps, delays_s=delays, freqs_hz=ch.grid.freqs_hz, f_d=f_d)


def _digital_stage(ch, w_ps, delays, cfg: DppConfig, rho: float, sigma2: float):
    """Per-subcarrier digital precoder, batched over subcarrier chunks: SVD of
    the equivalent channels H^H A, water-filling over the effective stream
    SNRs, then an exact rescale so the radiated power ||A f_d||_F^2 meets the
    budget at every subcarrier."""
    _check_snr(rho, sigma2)
    n_s = cfg.n_streams
    h_t = np.swapaxes(ch.matrices, -1, -2)  # M x N_r x N, contiguous
    freqs = ch.grid.freqs_hz
    f_d = np.empty((freqs.size, cfg.n_rf, n_s), dtype=np.complex128)
    for sl in _subcarrier_chunks(freqs.size):
        analog = _analog(w_ps, delays, freqs[sl])  # c x N x n_rf
        res = svd(np.conj(h_t[sl] @ analog.conj()))  # H^H A, c x N_r x n_rf
        if res.sigma.shape[-1] < n_s:
            raise ValueError(
                f"n_streams={n_s} exceeds the equivalent-channel rank bound "
                f"min(n_rx, n_rf)={res.sigma.shape[-1]}"
            )
        stream_gains = np.maximum(
            rho * res.sigma[:, :n_s] ** 2 / (n_s * sigma2), _GAIN_FLOOR
        )
        powers = water_filling(stream_gains, cfg.total_power)
        fd = np.swapaxes(res.vh.conj(), -1, -2)[:, :, :n_s] * np.sqrt(powers)[:, None, :]
        radiated = np.linalg.norm(analog @ fd, axis=(-2, -1)) ** 2
        if np.any(radiated <= 0.0):
            raise ValueError("combined precoder has zero power; degenerate channel")
        f_d[sl] = fd * np.sqrt(cfg.total_power / radiated)[:, None, None]
    return f_d


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
