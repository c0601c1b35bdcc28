"""Classic phase-shifter hybrid precoding and delay-phase precoding for UCAs.

Architecture: each of ``n_rf`` RF chains feeds ``K`` true-time-delay (TTD)
units, and each TTD unit drives ``P = N/K`` phase shifters, one per antenna
of a contiguous arc of the circular array.  The analog stage is stored per
arc: frequency-flat phase-shifter weights ``w_ps`` (N x n_rf) and one delay
per arc ``delays_s`` (n_rf x K).  At frequency f, arc k of chain l is
``w_ps`` times the TTD phase ``phi_lk(f) = exp(-j*2*pi*f*delays_s[l, k])``.

``build_dpp`` and ``build_classic_hybrid`` return the SNR-independent part
of a precoder, one ``HybridDesign`` per (channel, architecture, K).  It comes
from per-arc products, so no N x n_rf analog matrix is formed per
subcarrier: the equivalent channels ``G_m = H_m^H A(f_m) = sum_k conj(C_mk) *
phi_k(f_m)`` with ``C_mk = H_{m, arc k}^T conj(w_k)`` (N_r x n_rf per arc), and
the analog Gram matrices ``A^H A = sum_k conj(phi_k)^T phi_k * (w_k^H w_k)``.
Of every ``G_m`` the design keeps the n_streams largest singular values
and the power each stream radiates, the diagonal of ``v^H (A^H A) v`` over
their right singular vectors v.

The digital stage ``f_d[m] = v * a`` (n_rf x n_streams) at an SNR is only
stream-sized work, left to ``analysis.spectrum_efficiency``: water-filling
over the stream SNRs and an exact rescale of the powers a^2 to unit radiated
power ``f_d^H (A^H A) f_d`` (the runner rates a budget P at the SNR rho*P).
Since ``G v_s = sigma_s u_s``, the rate is a sum over streams of singular
values and powers, so neither v nor ``G v`` is kept, and the rates at many
SNRs come from one design.
Blocks of subcarriers are sized by per-arc values: c subcarriers hold c x K x
n_rf x max(N_r, n_rf) of them (the arc products C, or the Gram's phase
products), at most a ``SUBCARRIER_CHUNK``-subcarrier chunk of the stack, 128
KB for the 256 x 4 built-ins: one block for K <= 4, 32 subcarriers at K = 16.

Reference angles: subarray k uses the centroid of its element angles,
``theta_k = pi*(2k+1)/K - pi/N``.  With one TTD per antenna (K = N) the
reference angles coincide with the element angles and the combined analog
weight tracks the ideal per-subcarrier steering vector exactly, so the gain
is 1 at every frequency.

The classic hybrid precoder is the K -> 1 degenerate wiring: phase shifters
align the beam at the center frequency only and the TTD stage is all-ones,
so it takes the same path as one arc with zero delay; since exp(0) = 1,
every subcarrier's Gram is exactly ``w_ps^H w_ps``.
Every design takes the PS columns of all its chains from one steering call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arraymodel import (
    SPEED_OF_LIGHT,
    SUBCARRIER_CHUNK,
    ChannelRealization,
    UcaGeometry,
    _subcarrier_chunks,
    steering_uca,
)
from .cxlinalg import svd

__all__ = [
    "DppConfig",
    "HybridDesign",
    "ttd_reference_angles",
    "ttd_delays",
    "build_classic_hybrid",
    "build_dpp",
]


@dataclass(frozen=True)
class DppConfig:
    """Sizing of the hybrid architecture; the power budget is in the SNR rho*P."""

    n_rf: int
    n_ttd_per_rf: int
    n_streams: int

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


def ttd_delays(phi_rad, k_ttd: int, geom: UcaGeometry) -> np.ndarray:
    """Delays t_k = (R/c)*(1 - cos(phi - theta_k)) for one RF chain steered
    toward phi; non-negative by construction and at most 2R/c.  An n x 1
    array of directions gives one row of K delays per direction."""
    theta = ttd_reference_angles(geom.n_elements, k_ttd)
    return geom.radius_m / SPEED_OF_LIGHT * (1.0 - np.cos(phi_rad - theta))


def _dpp_chains(geom: UcaGeometry, fc_hz: float, phi_rad, k_ttd: int):
    """Phase-shifter weights (N x n) and TTD delays (n x K) of n delay-phase
    RF chains steered toward the directions phi_rad: column l is the
    center-frequency steering vector toward phi_rad[l], rotated per arc so
    each arc's centroid phase is zero, and row l is ttd_delays(phi_rad[l])."""
    phi = np.asarray(phi_rad, dtype=float)[:, None]
    theta = ttd_reference_angles(geom.n_elements, k_ttd)
    eta_c = 2.0 * np.pi * geom.radius_m * fc_hz / SPEED_OF_LIGHT
    corr = np.exp(-1j * eta_c * np.cos(phi - theta))  # n x K
    cols = steering_uca(geom, fc_hz, phi[:, 0])
    cols *= np.repeat(corr, geom.n_elements // k_ttd, axis=1)
    return np.ascontiguousarray(cols.T), ttd_delays(phi, k_ttd, geom)


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
    stack h_t = H^T (M x N_r x N), one subcarrier per frequency.  Per block
    of subcarriers, the C_k of all arcs are one batched product, and G and
    the Gram are matmuls over arcs."""
    m, n_r, n = h_t.shape
    n_rf, k = delays_s.shape
    w_arcs = w_ps.reshape(k, -1, n_rf)
    w_arcs_conj = w_arcs.conj()
    arc_grams = (np.swapaxes(w_arcs_conj, -1, -2) @ w_arcs).transpose(1, 2, 0)[..., None]
    g_t = np.empty((n_rf, m, 1, n_r), dtype=np.complex128)  # conj(G), chains first
    gram = np.empty((m, n_rf, n_rf), dtype=np.complex128)
    per_block = max(1, SUBCARRIER_CHUNK * n * n_r // (k * n_rf * max(n_r, n_rf)))
    for sl in _subcarrier_chunks(m, per_block):
        phases = np.exp(-2j * np.pi * freqs_hz[sl, None] * delays_s[:, None])  # n_rf x c x K
        conj = phases.conj()
        arcs = h_t[sl].reshape(-1, k, n // k).swapaxes(0, 1) @ w_arcs_conj  # K x c*N_r x n_rf
        np.matmul(conj[:, :, None], arcs.reshape(k, -1, n_r, n_rf).transpose(3, 1, 0, 2),
                  out=g_t[:, sl])
        del arcs  # the Gram's phase products take its place
        np.matmul(np.einsum("ick,jck->ijck", conj, phases), arc_grams,
                  out=gram[sl].transpose(1, 2, 0)[..., None])
    return np.conjugate(g_t, out=g_t)[:, :, 0].transpose(1, 2, 0), gram


@dataclass(frozen=True)
class HybridDesign:
    """The SNR-independent part of a hybrid precoder on one channel.

    With G = H^H A the equivalent channels and v the right singular vectors
    of their n_streams largest singular values, the digital precoder at any
    SNR is f_d = v * a, one amplitude a_s per stream.  Since G v_s = sigma_s
    u_s, the effective channel G f_d has orthogonal columns sigma_s a_s u_s,
    and the radiated power f_d^H (A^H A) f_d is sum_s a_s^2 * (v_s^H A^H A
    v_s): both need only sigma and the radiation per stream.  Only the
    amplitudes depend on the SNR, and n_streams is sigma.shape[-1].

    sigma:     M x n_streams largest singular values of G
    radiation: M x n_streams radiated power per unit stream power,
               the diagonal of v^H (A^H A) v
    """

    sigma: np.ndarray
    radiation: np.ndarray


def _analog_stage(ch: ChannelRealization, cfg: DppConfig, correct_to_centroid: bool):
    """Phase-shifter weights and delays: chain l serves the l-th strongest
    path; its TTD delays follow the arc centroids when corrected, and
    otherwise the chain is one arc with zero delay."""
    _arc_size(ch.tx.n_elements, cfg.n_ttd_per_rf)
    if cfg.n_rf > ch.tx.n_elements:
        raise ValueError(f"n_rf={cfg.n_rf} exceeds n_elements={ch.tx.n_elements}")
    if ch.n_paths < cfg.n_rf:
        raise ValueError(
            f"fewer paths than RF chains: n_paths={ch.n_paths} < n_rf={cfg.n_rf}"
        )
    paths = sorted(ch.paths, key=lambda p: abs(p.gain), reverse=True)[:cfg.n_rf]
    phi = np.array([p.aod_rad for p in paths])
    if correct_to_centroid:
        return _dpp_chains(ch.tx, ch.grid.fc_hz, phi, cfg.n_ttd_per_rf)
    w_ps = np.ascontiguousarray(steering_uca(ch.tx, ch.grid.fc_hz, phi).T)
    return w_ps, np.zeros((cfg.n_rf, 1))


def _design(ch: ChannelRealization, w_ps, delays, n_s: int) -> HybridDesign:
    """SVD of the equivalent channels over the whole grid of ch, and the
    analog Gram matrices seen by its stream directions."""
    g, gram = _equivalent_channels(np.swapaxes(ch.matrices, -1, -2), w_ps, delays,
                                   ch.grid.freqs_hz)
    res = svd(g)
    if res.sigma.shape[-1] < n_s:
        raise ValueError(
            f"n_streams={n_s} exceeds the equivalent-channel rank bound "
            f"min(n_rx, n_rf)={res.sigma.shape[-1]}"
        )
    v = np.swapaxes(res.vh[:, :n_s].conj(), -1, -2)
    radiation = np.einsum("mis,mij,mjs->ms", v.conj(), gram, v).real
    return HybridDesign(sigma=res.sigma[:, :n_s], radiation=radiation)


def build_classic_hybrid(ch: ChannelRealization, cfg: DppConfig) -> HybridDesign:
    """Design of the phase-shifter-only hybrid precoder on ch: analog column
    l is the center-frequency steering vector of the l-th strongest path and
    the TTD stage is all-ones (no delays), so the design does not depend on
    cfg.n_ttd_per_rf."""
    return _design(ch, *_analog_stage(ch, cfg, correct_to_centroid=False), cfg.n_streams)


def build_dpp(ch: ChannelRealization, cfg: DppConfig) -> HybridDesign:
    """Design of the delay-phase precoder on ch: centroid-referenced PS
    corrections plus TTD delays per chain."""
    return _design(ch, *_analog_stage(ch, cfg, correct_to_centroid=True), cfg.n_streams)
