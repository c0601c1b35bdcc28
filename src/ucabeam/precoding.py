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
``build_designs`` synthesizes the channel once, a ``SUBCARRIER_CHUNK`` chunk
at a time, for the fine products and the QR of the fully digital bound (key
None).  The fine products wait in a buffer of one block of whole chunks,
sized by fine-arc values: c subcarriers hold c x K_f x n_rf x max(N_r, n_rf)
of them, at most the larger of a chunk of the channel (128 KB for the 256 x
4 built-ins) and a chunk's fine products: one block for K_f <= 4, 16
subcarriers at 32, one chunk from 64 on, so each chunk fed lies in one block.

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
    _count,
    _eta,
    _subcarrier_chunks,
    channel_matrix,
    steering_uca,
)
from .cxlinalg import _lapack, svd

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
        _count("n_rf", self.n_rf)
        _count("n_ttd_per_rf", self.n_ttd_per_rf)
        _check_sizes(n_rf=self.n_rf, n_streams=self.n_streams)
        _count("n_streams", self.n_streams)  # None, which _check_sizes skips


def _check_sizes(*, n_elements=None, n_rx=None, n_paths=None, n_rf=None, n_streams=None,
                 k_ttds=()):
    """Raise unless n_rf chains and n_streams streams, with each delay-unit
    count in k_ttds (None: the fully digital bound), fit a ring of n_elements,
    n_rx receive antennas and n_paths paths.  Needs no channel; a rule that
    reads a size left None is skipped, so each rule can be checked alone."""
    if None not in (n_rf, n_streams):
        _count("n_rf", n_rf)
        if isinstance(n_streams, bool) or not (isinstance(n_streams, int)
                                               and 1 <= n_streams <= n_rf):
            raise ValueError(f"n_streams must satisfy 1 <= n_streams <= n_rf, got "
                             f"n_streams={n_streams}, n_rf={n_rf}")
    if None not in (n_rf, n_elements) and n_rf > n_elements:
        raise ValueError(f"n_rf={n_rf} exceeds n_elements={n_elements}")
    if None not in (n_rf, n_paths) and n_paths < n_rf:
        raise ValueError(f"fewer paths than RF chains: n_paths={n_paths} < n_rf={n_rf}")
    if None not in (n_streams, n_rx) and n_streams > n_rx:
        raise ValueError(f"n_streams={n_streams} exceeds n_rx={n_rx}")
    for k in sorted(set(k_ttds) - {None}):
        _arc_size(n_elements, k)


def _arc_size(n_elements: int, k_ttd: int) -> int:
    """P = N/K antennas per delay unit; K must be a positive divisor of N."""
    _count("k_ttd", k_ttd)
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
    eta_c = _eta(fc_hz, geom.radius_m)
    return np.exp(-1j * eta_c * np.cos(phi - theta)), ttd_delays(phi, k_ttd, geom)


def _equivalent_channels(w: np.ndarray, stages, freqs_hz: np.ndarray, n_r: int):
    """feed(sl, h_t) and result() of the equivalent channels G = H^H A (S x
    M x N_r x n_rf) and analog Grams A^H A (S x M x n_rf x n_rf) of S stages
    (corr, delays), each n_rf x K_s, over the grid freqs_hz: arc k of chain
    l is w (N x n_rf) times corr[l, k] * exp(-j*2*pi*f*delays[l, k]).  Fed
    H^T (c x N_r x N) of each chunk sl in grid order, the K_f = lcm(K_s)
    fine-arc products are one batched matmul; per block of whole chunks,
    each stage's G and Gram are matmuls over the sums of its arcs."""
    n, n_rf = w.shape
    k_f = math.lcm(*(corr.shape[1] for corr, _ in stages))
    w_fine = w.reshape(k_f, -1, n_rf)
    w_fine_conj = w_fine.conj()
    fine_grams = np.swapaxes(w_fine_conj, -1, -2) @ w_fine  # K_f x n_rf x n_rf
    arc_grams = [fine_grams.reshape(corr.shape[1], -1, n_rf, n_rf).sum(1)
                 .transpose(1, 2, 0)[..., None] for corr, _ in stages]
    m = freqs_hz.size
    g_t = np.empty((len(stages), n_rf, m, 1, n_r), dtype=np.complex128)  # conj(G)
    gram = np.empty((len(stages), m, n_rf, n_rf), dtype=np.complex128)
    per_block = min(m, SUBCARRIER_CHUNK * max(1, n * n_r // (k_f * n_rf * max(n_r, n_rf))))
    fine = np.empty((k_f, per_block * n_r, n_rf), dtype=np.complex128)

    def block(sl: slice, fine: np.ndarray):  # fine: the block's fine products
        conj = [corr.conj()[:, None] * np.exp(2j * np.pi * freqs_hz[sl, None] * delays[:, None])
                for corr, delays in stages]  # conj of the arc weights, n_rf x c x K_s each
        for s, cj in enumerate(conj):
            k = cj.shape[-1]
            arcs = fine if k == k_f else fine.reshape(k, k_f // k, -1, n_rf).sum(1)
            np.matmul(cj[:, :, None], arcs.reshape(k, -1, n_r, n_rf).transpose(3, 1, 0, 2),
                      out=g_t[s, :, sl])
        arcs = None  # the Grams' phase products take its place
        for s, cj in enumerate(conj):
            np.matmul(np.einsum("ick,jck->ijck", cj, cj.conj()), arc_grams[s],
                      out=gram[s, sl].transpose(1, 2, 0)[..., None])

    def feed(sl: slice, h_t: np.ndarray):  # the next chunk: it lies in one block
        start = sl.start - sl.start % per_block
        np.matmul(h_t.reshape(-1, k_f, n // k_f).swapaxes(0, 1), w_fine_conj,
                  out=fine[:, (sl.start - start) * n_r:(sl.stop - start) * n_r])
        if sl.stop == min(start + per_block, m):  # the block is complete
            block(slice(start, sl.stop), fine[:, :(sl.stop - start) * n_r])

    return feed, lambda: (np.conjugate(g_t, out=g_t)[:, :, :, 0].transpose(0, 2, 3, 1), gram)


def _bound(n_sub: int, k: int):
    """feed(sl, h_t) and result() of the singular values, largest first, of
    n_sub channels from the k x k R factors of their tall form (H, or H^T
    when N < N_r), k = min(N, N_r), fed as H^T of the subcarriers sl."""
    r_factors = np.empty((n_sub, k, k), dtype=np.complex128)

    def feed(sl: slice, h_t: np.ndarray):
        tall = h_t if h_t.shape[-2] > h_t.shape[-1] else h_t.swapaxes(-1, -2)
        r_factors[sl] = _lapack(np.linalg.qr, "QR", tall, mode="r")

    return feed, lambda: _lapack(np.linalg.svd, "SVD", r_factors, compute_uv=False)


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

    sigma:     M x n_streams largest singular values of G (build_designs);
               any leading shape rates the same way, and one channel's
               1-D sigma rates as a float (analysis.spectrum_efficiency)
    radiation: sigma-shaped radiated power per unit stream power,
               the diagonal of v^H (A^H A) v; None for the fully digital
               precoder (A = I_N), whose streams radiate their own power
    """

    sigma: np.ndarray
    radiation: np.ndarray | None


def _chain_directions(ch: ChannelRealization, n_rf: int) -> np.ndarray:
    """AoDs of the n_rf strongest paths of ch, strongest first: chain l
    steers toward the l-th."""
    paths = sorted(ch.paths, key=lambda p: abs(p.gain), reverse=True)[:n_rf]
    return np.array([p.aod_rad for p in paths])


def _design(g: np.ndarray, gram: np.ndarray, n_s: int) -> HybridDesign:
    """SVD of the equivalent channels g, and the analog Gram matrices gram
    seen by its n_s <= min(N_r, n_rf) stream directions (_check_sizes)."""
    res = svd(g)
    v = np.swapaxes(res.vh[:, :n_s].conj(), -1, -2)
    radiation = np.einsum("mis,mij,mjs->ms", v.conj(), gram, v).real
    return HybridDesign(sigma=res.sigma[:, :n_s], radiation=radiation)


def build_designs(ch: ChannelRealization, n_rf: int, n_streams: int, k_ttds) -> dict:
    """Designs of n_rf chains and n_streams streams on ch, keyed by delay-unit
    count in k_ttds: chain l steers toward the l-th strongest path, and K > 1
    adds per-arc centroid corrections and TTD delays.  K = 1 is the classic
    design (see the module notes); the key None is the fully digital bound,
    the n_streams largest singular values of the channel.  One pass over the
    channel, a chunk at a time: no M x N x N_r array is formed."""
    keys, grid, rank = set(k_ttds), ch.grid, min(ch.tx.n_elements, ch.rx.n_elements)
    _check_sizes(n_elements=ch.tx.n_elements, n_rx=ch.rx.n_elements, n_paths=ch.n_paths,
                 n_rf=n_rf, n_streams=n_streams, k_ttds=keys)  # before any synthesis
    ks, passes = sorted(keys - {None}), {}
    if ks:
        phi = _chain_directions(ch, n_rf)
        stages = [_chain_phases(ch.tx, grid.fc_hz, phi[:, None], k) if k != 1
                  else (np.ones((n_rf, 1)), np.zeros((n_rf, 1))) for k in ks]
        w = np.ascontiguousarray(steering_uca(ch.tx, grid.fc_hz, phi).T)
        passes["hybrid"] = _equivalent_channels(w, stages, grid.freqs_hz, ch.rx.n_elements)
    if None in keys:
        passes[None] = _bound(grid.n_subcarriers, rank)
    for sl in _subcarrier_chunks(grid.n_subcarriers if passes else 0):
        h_t = channel_matrix(ch, range(sl.start, sl.stop)).swapaxes(-1, -2)
        for feed, _ in passes.values():
            feed(sl, h_t)
        del h_t  # before the next chunk is synthesized
    designs = {None: HybridDesign(passes[None][1]()[:, :n_streams], None)} if None in keys else {}
    if ks:
        g, gram = passes["hybrid"][1]()
        designs.update({k: _design(g[s], gram[s], n_streams) for s, k in enumerate(ks)})
    return designs


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
