"""Classic phase-shifter hybrid precoding and delay-phase precoding for UCAs.

Architecture: each of ``n_rf`` RF chains feeds ``K`` true-time-delay (TTD)
units, and each TTD unit drives ``P = N/K`` phase shifters, one per antenna
of a contiguous arc of the circular array.  The analog stage is stored per
arc: the center-frequency steering columns w (N x n_rf) and, per arc and
chain, a unit-modulus correction ``corr`` and a delay ``delays`` (n_rf x K
each, from ``_chain_phases``).  At frequency f, arc k of chain l is w times
corr[l, k] and the TTD phase ``phi_lk(f) = exp(-j*2*pi*f*delays[l, k])``.

``build_designs`` returns the SNR-independent part of the precoders on one
channel, one ``HybridDesign`` per delay-unit count K (``build_dpp`` and
``build_classic_hybrid`` are one-count calls).  All of them steer the same
columns w and differ by their corrections and delays, so one product per
fine arc j of ``K_f = lcm(K)`` serves them all, and no N x n_rf analog
matrix is formed per subcarrier: each design sums contiguous
slabs of fine products into its ``C_mk = H_{m, arc k}^T conj(w_k)``, giving
``G_m = H_m^H A(f_m) = sum_k conj(C_mk) * corr_k * phi_k(f_m)``, and its
arc Grams ``w_k^H w_k`` the same way for ``A^H A``.
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
Blocks of subcarriers are sized by fine-arc values: c subcarriers hold c x
K_f x n_rf x max(N_r, n_rf) of them (the fine products, or a design's Gram
phase products), at most a ``SUBCARRIER_CHUNK``-subcarrier chunk of the
stack, 128 KB for the 256 x 4 built-ins: one block for K_f <= 4, 16 at 32.

Reference angles: subarray k uses the centroid of its element angles,
``theta_k = pi*(2k+1)/K - pi/N``.  With one TTD per antenna (K = N) the
reference angles coincide with the element angles and the combined analog
weight tracks the ideal per-subcarrier steering vector exactly, so the gain
is 1 at every frequency.

The classic hybrid precoder is the K -> 1 degenerate wiring: phase shifters
align the beam at the center frequency only and the TTD stage is all-ones,
so it is one arc with no correction and zero delay.  A one-arc delay-phase
stage only scales each chain by a unit-modulus factor per subcarrier, which
changes neither the singular values nor the radiation: K = 1 is classic.
"""

from __future__ import annotations

import math
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
    "build_designs",
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


def _chain_phases(geom: UcaGeometry, fc_hz: float, phi: np.ndarray, k_ttd: int):
    """Per-arc corrections to zero centroid phase (n x K, unit modulus) and
    TTD delays (n x K) of n chains steered toward the directions phi (n x 1)."""
    theta = ttd_reference_angles(geom.n_elements, k_ttd)
    eta_c = 2.0 * np.pi * geom.radius_m * fc_hz / SPEED_OF_LIGHT
    return np.exp(-1j * eta_c * np.cos(phi - theta)), ttd_delays(phi, k_ttd, geom)


def _equivalent_channels(h_t: np.ndarray, w: np.ndarray, stages, freqs_hz: np.ndarray):
    """Equivalent channels G = H^H A (S x M x N_r x n_rf) and analog Gram
    matrices A^H A (S x M x n_rf x n_rf) of S stages (corr, delays), each
    n_rf x K_s, on the stack h_t = H^T (M x N_r x N): arc k of chain l is w
    (N x n_rf) times corr[l, k] * exp(-j*2*pi*f*delays[l, k]).  Per block of
    subcarriers the K_f = lcm(K_s) fine-arc products are one batched matmul,
    and each stage's G and Gram are matmuls over the sums of its arcs."""
    m, n_r, n = h_t.shape
    n_rf = w.shape[1]
    k_f = math.lcm(*(corr.shape[1] for corr, _ in stages))
    w_fine = w.reshape(k_f, -1, n_rf)
    w_fine_conj = w_fine.conj()
    fine_grams = np.swapaxes(w_fine_conj, -1, -2) @ w_fine  # K_f x n_rf x n_rf
    arc_grams = [fine_grams.reshape(corr.shape[1], -1, n_rf, n_rf).sum(1)
                 .transpose(1, 2, 0)[..., None] for corr, _ in stages]
    g_t = np.empty((len(stages), n_rf, m, 1, n_r), dtype=np.complex128)  # conj(G)
    gram = np.empty((len(stages), m, n_rf, n_rf), dtype=np.complex128)
    per_block = max(1, SUBCARRIER_CHUNK * n * n_r // (k_f * n_rf * max(n_r, n_rf)))
    for sl in _subcarrier_chunks(m, per_block):
        conj = [corr.conj()[:, None] * np.exp(2j * np.pi * freqs_hz[sl, None] * delays[:, None])
                for corr, delays in stages]  # conj of the arc weights, n_rf x c x K_s each
        fine = h_t[sl].reshape(-1, k_f, n // k_f).swapaxes(0, 1) @ w_fine_conj  # K_f x cN_r x n_rf
        for s in range(len(stages)):  # no loop variable keeps a block's arrays alive
            k = conj[s].shape[-1]
            arcs = fine if k == k_f else fine.reshape(k, k_f // k, -1, n_rf).sum(1)
            np.matmul(conj[s][:, :, None], arcs.reshape(k, -1, n_r, n_rf).transpose(3, 1, 0, 2),
                      out=g_t[s, :, sl])
        fine = arcs = None  # the Grams' phase products take their place
        for s in range(len(stages)):
            np.matmul(np.einsum("ick,jck->ijck", conj[s], conj[s].conj()), arc_grams[s],
                      out=gram[s, sl].transpose(1, 2, 0)[..., None])
    return np.conjugate(g_t, out=g_t)[:, :, :, 0].transpose(0, 2, 3, 1), gram


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


def _chain_directions(ch: ChannelRealization, n_rf: int) -> np.ndarray:
    """AoDs of the n_rf strongest paths of ch, strongest first: chain l
    steers toward the l-th."""
    if n_rf > ch.tx.n_elements:
        raise ValueError(f"n_rf={n_rf} exceeds n_elements={ch.tx.n_elements}")
    if ch.n_paths < n_rf:
        raise ValueError(f"fewer paths than RF chains: n_paths={ch.n_paths} < n_rf={n_rf}")
    paths = sorted(ch.paths, key=lambda p: abs(p.gain), reverse=True)[:n_rf]
    return np.array([p.aod_rad for p in paths])


def _design(g: np.ndarray, gram: np.ndarray, n_s: int) -> HybridDesign:
    """SVD of the equivalent channels g, and the analog Gram matrices gram
    seen by its stream directions."""
    res = svd(g)
    if res.sigma.shape[-1] < n_s:
        raise ValueError(
            f"n_streams={n_s} exceeds the equivalent-channel rank bound "
            f"min(n_rx, n_rf)={res.sigma.shape[-1]}"
        )
    v = np.swapaxes(res.vh[:, :n_s].conj(), -1, -2)
    radiation = np.einsum("mis,mij,mjs->ms", v.conj(), gram, v).real
    return HybridDesign(sigma=res.sigma[:, :n_s], radiation=radiation)


def build_designs(ch: ChannelRealization, n_rf: int, n_streams: int, k_ttds) -> dict:
    """Designs of n_rf chains and n_streams streams on ch, keyed by delay-unit
    count in k_ttds: chain l steers toward the l-th strongest path, and K > 1
    adds per-arc centroid corrections and TTD delays.  K = 1 is the classic
    design (see the module notes)."""
    DppConfig(n_rf, 1, n_streams)  # the sizing checks of a one-count design
    phi = _chain_directions(ch, n_rf)
    ks = sorted(set(k_ttds))
    stages = [_chain_phases(ch.tx, ch.grid.fc_hz, phi[:, None], k) if k != 1
              else (np.ones((n_rf, 1)), np.zeros((n_rf, 1))) for k in ks]
    w = np.ascontiguousarray(steering_uca(ch.tx, ch.grid.fc_hz, phi).T)
    g, gram = _equivalent_channels(np.swapaxes(ch.matrices, -1, -2), w, stages,
                                   ch.grid.freqs_hz)
    return {k: _design(g[s], gram[s], n_streams) for s, k in enumerate(ks)}


def build_classic_hybrid(ch: ChannelRealization, cfg: DppConfig) -> HybridDesign:
    """Design of the phase-shifter-only hybrid precoder on ch: analog column
    l is the center-frequency steering vector of the l-th strongest path and
    the TTD stage is all-ones (no delays), so the design does not depend on
    cfg.n_ttd_per_rf."""
    return build_designs(ch, cfg.n_rf, cfg.n_streams, (1,))[1]


def build_dpp(ch: ChannelRealization, cfg: DppConfig) -> HybridDesign:
    """Design of the delay-phase precoder on ch: centroid-referenced PS
    corrections plus TTD delays per chain."""
    return build_designs(ch, cfg.n_rf, cfg.n_streams, (cfg.n_ttd_per_rf,))[cfg.n_ttd_per_rf]
