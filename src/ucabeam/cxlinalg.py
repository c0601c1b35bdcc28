"""Complex linear algebra helpers: SVD, block-diagonal assembly, water-filling.

Matrices are numpy ``complex128`` arrays in row-major order.  All functions
are pure and never mutate their inputs.  The SVD is delegated to LAPACK via
numpy; the sizes that show up here (receive arrays times RF chains) are tiny,
so the only contract that matters is the reconstruction/unitarity tolerance,
which is checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arraymodel import _check_positive, _check_scalar

__all__ = [
    "SvdError",
    "SvdResult",
    "svd",
    "block_diag",
    "water_filling",
]


class SvdError(ArithmeticError):
    """SVD iteration failed to converge; message names the matrix shape."""


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``a = u @ diag(sigma) @ vh``, sigma sorted non-increasing;
    leading axes index a stack of matrices."""

    u: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray


def _lapack(routine, name: str, a: np.ndarray, **kwargs):
    """routine(a, **kwargs), a numpy.linalg call; its LinAlgError is raised as
    an SvdError naming the routine and the matrix shape."""
    try:
        return routine(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise SvdError(f"{name} did not converge for {a.shape[-2]}x{a.shape[-1]} matrix") from exc


def svd(a) -> SvdResult:
    """Thin singular value decomposition of a complex matrix, or of each
    matrix of a stack (leading axes)."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.size == 0:
        raise ValueError(
            f"matrix must be a non-empty 2-D array or stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    u, s, vh = _lapack(np.linalg.svd, "SVD", a, full_matrices=False)
    return SvdResult(u=u, sigma=s, vh=vh)


def block_diag(blocks) -> np.ndarray:
    """Stack matrices along the diagonal; off-block entries are exactly zero.

    1-D blocks are treated as column vectors, so K length-P blocks give an
    (K*P) x K matrix.
    """
    mats = []
    for b in blocks:
        b = np.asarray(b, dtype=np.complex128)
        if b.ndim == 1:
            b = b[:, None]
        if b.ndim != 2:
            raise ValueError(f"blocks must be 1-D or 2-D, got ndim={b.ndim}")
        mats.append(b)
    if not mats:
        raise ValueError("block_diag needs at least one block")
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols), dtype=np.complex128)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def water_filling(gains, total_power: float) -> np.ndarray:
    """Water-filling power allocation over parallel channels.

    Returns p with p_i = max(0, mu - 1/gains_i) and sum(p) = total_power,
    where the water level mu is solved in closed form over the sorted
    inverse gains (no iteration).  Leading axes index independent
    allocations (one per subcarrier); each row along the last axis gets the
    whole budget.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim == 0 or g.size == 0:
        raise ValueError("gains must be a non-empty sequence, or a stack of them")
    _check_positive("gains", g)
    _check_scalar("total_power", total_power)
    _check_positive("total_power", total_power)
    inv_g = 1.0 / g
    inv = np.sort(inv_g, axis=-1)
    # Largest k for which the level (P + sum of the k smallest 1/g) / k still
    # covers the k-th inverse gain; channels beyond k get zero power.  k >= 1
    # always, since the first level P + inv[0] exceeds inv[0].
    levels = (total_power + np.cumsum(inv, axis=-1)) / np.arange(1, g.shape[-1] + 1)
    last = g.shape[-1] - 1 - np.argmax((levels >= inv)[..., ::-1], axis=-1)[..., None]
    mu = np.take_along_axis(levels, last, axis=-1)
    p = np.maximum(0.0, mu - inv_g)
    total = p.sum(axis=-1, keepdims=True)
    # Where the active inverse gains are so large that the budget vanished in
    # rounding, the channels are indistinguishable: split evenly over the
    # active set.  Elsewhere the rescale fixes the O(eps) drift of the sum.
    even = inv_g <= np.take_along_axis(inv, last, axis=-1)
    p = np.where(total > 0.0, p, even.astype(float))
    return p * (total_power / p.sum(axis=-1, keepdims=True))
