"""Array geometries, OFDM subcarrier grids, steering vectors, and a seeded
Saleh-Valenzuela wideband channel generator.

Conventions
-----------
* Angles are radians everywhere; departure angles live in [0, 2*pi),
  arrival angles in [-pi/2, pi/2].
* Subcarrier indices are 0-based: subcarrier ``m`` of an M-point grid sits at
  ``fc + B*(2*m + 1 - M)/(2*M)``, so the grid is symmetric about ``fc`` and
  spans ``B*(M-1)/M``.
* The transmit array is a uniform circular array (UCA) in the azimuth plane
  with element n at angle ``2*pi*n/N``; the receive array is a uniform linear
  array (ULA).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "UcaGeometry",
    "UlaGeometry",
    "FrequencyGrid",
    "PathParams",
    "ChannelRealization",
    "steering_uca",
    "steering_ula",
    "half_wavelength_uca",
    "generate_channel",
    "channel_matrix",
]

SPEED_OF_LIGHT = 299792458.0  # m/s

# Subcarriers per batched step wherever a tensor grows with the grid and the
# array size (channel synthesis, the per-arc products of the precoders): it
# bounds the temporaries of a step to SUBCARRIER_CHUNK x N x (paths, or
# N_r x RF chains), far below the M x N x N_r channel stack itself.
SUBCARRIER_CHUNK = 8


def _subcarrier_chunks(n: int) -> list:
    """Slices covering range(n) in steps of SUBCARRIER_CHUNK."""
    return [slice(lo, min(lo + SUBCARRIER_CHUNK, n)) for lo in range(0, n, SUBCARRIER_CHUNK)]


@dataclass(frozen=True)
class UcaGeometry:
    """Uniform circular array of n_elements on a circle of radius_m meters."""

    n_elements: int
    radius_m: float

    def __post_init__(self):
        if not (isinstance(self.n_elements, int) and self.n_elements >= 1):
            raise ValueError(f"n_elements must be a positive integer, got {self.n_elements}")
        if not (np.isfinite(self.radius_m) and self.radius_m > 0.0):
            raise ValueError(f"radius_m must be positive, got {self.radius_m}")

    @property
    def element_angles(self) -> np.ndarray:
        """psi_n = 2*pi*n/N, strictly increasing in [0, 2*pi)."""
        n = self.n_elements
        return 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True)
class UlaGeometry:
    """Uniform linear array with element spacing in meters."""

    n_elements: int
    spacing_m: float

    def __post_init__(self):
        if not (isinstance(self.n_elements, int) and self.n_elements >= 1):
            raise ValueError(f"n_elements must be a positive integer, got {self.n_elements}")
        if not (np.isfinite(self.spacing_m) and self.spacing_m > 0.0):
            raise ValueError(f"spacing_m must be positive, got {self.spacing_m}")


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric M-point OFDM subcarrier grid around fc_hz spanning bandwidth_hz."""

    fc_hz: float
    bandwidth_hz: float
    n_subcarriers: int

    def __post_init__(self):
        if not (np.isfinite(self.fc_hz) and self.fc_hz > 0.0):
            raise ValueError(f"fc_hz must be positive, got {self.fc_hz}")
        if not (np.isfinite(self.bandwidth_hz) and self.bandwidth_hz >= 0.0):
            raise ValueError(f"bandwidth_hz must be non-negative, got {self.bandwidth_hz}")
        if not (isinstance(self.n_subcarriers, int) and self.n_subcarriers >= 1):
            raise ValueError(
                f"n_subcarriers must be a positive integer, got {self.n_subcarriers}"
            )
        if self.freqs_hz[0] <= 0.0:
            raise ValueError(
                "grid extends to non-positive frequencies: "
                f"fc={self.fc_hz}, B={self.bandwidth_hz}"
            )

    @property
    def freqs_hz(self) -> np.ndarray:
        """Subcarrier frequencies; max - min = B*(M-1)/M, midpoint exactly fc."""
        m = np.arange(self.n_subcarriers)
        scale = (2.0 * m + 1.0 - self.n_subcarriers) / (2.0 * self.n_subcarriers)
        return self.fc_hz + self.bandwidth_hz * scale


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain, delay, departure and arrival angle."""

    gain: complex
    delay_s: float
    aod_rad: float
    aoa_rad: float

    def __post_init__(self):
        if not np.isfinite(complex(self.gain)):
            raise ValueError("gain must be finite")
        if not (np.isfinite(self.delay_s) and self.delay_s >= 0.0):
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if not 0.0 <= self.aod_rad < 2.0 * math.pi:
            raise ValueError(f"aod_rad must lie in [0, 2*pi), got {self.aod_rad}")
        if not -math.pi / 2.0 <= self.aoa_rad <= math.pi / 2.0:
            raise ValueError(f"aoa_rad must lie in [-pi/2, pi/2], got {self.aoa_rad}")


@dataclass(frozen=True)
class ChannelRealization:
    """L-path wideband channel between a UCA transmitter and ULA receiver."""

    paths: tuple
    tx: UcaGeometry
    rx: UlaGeometry
    grid: FrequencyGrid

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if len(self.paths) < 1:
            raise ValueError("a channel needs at least one path")
        if not all(isinstance(p, PathParams) for p in self.paths):
            raise ValueError("paths must be PathParams instances")

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @functools.cached_property
    def matrices(self) -> np.ndarray:
        """Read-only M x N x N_r channel over the whole grid, built on first
        use and shared by every precoder and evaluator of this realization;
        ``matrices[m]`` equals ``channel_matrix(self, m)``."""
        stack = channel_matrix(self, range(self.grid.n_subcarriers))
        stack.flags.writeable = False
        return stack


def steering_uca(geom: UcaGeometry, f_hz: float, phi_rad: float) -> np.ndarray:
    """UCA steering vector: entry n is exp(j*eta*cos(phi - psi_n))/sqrt(N)
    with eta = 2*pi*R*f/c."""
    if not (np.isfinite(f_hz) and f_hz > 0.0):
        raise ValueError(f"f_hz must be positive, got {f_hz}")
    eta = 2.0 * np.pi * geom.radius_m * f_hz / SPEED_OF_LIGHT
    phase = eta * np.cos(phi_rad - geom.element_angles)
    return np.exp(1j * phase) / math.sqrt(geom.n_elements)


def steering_ula(geom: UlaGeometry, f_hz: float, phi_rad: float) -> np.ndarray:
    """ULA steering vector: entry n is exp(j*2*pi*n*d*f*sin(phi)/c)/sqrt(N)."""
    if not (np.isfinite(f_hz) and f_hz > 0.0):
        raise ValueError(f"f_hz must be positive, got {f_hz}")
    n = np.arange(geom.n_elements)
    phase = 2.0 * np.pi * n * geom.spacing_m * f_hz * math.sin(phi_rad) / SPEED_OF_LIGHT
    return np.exp(1j * phase) / math.sqrt(geom.n_elements)


def half_wavelength_uca(n_elements: int, fc_hz: float) -> UcaGeometry:
    """UCA whose adjacent-element arc spacing is half the center-frequency
    wavelength: R = N*c/(4*pi*fc)."""
    if not (isinstance(n_elements, int) and n_elements >= 2):
        raise ValueError(f"need at least 2 elements, got {n_elements}")
    if not (np.isfinite(fc_hz) and fc_hz > 0.0):
        raise ValueError(f"fc_hz must be positive, got {fc_hz}")
    radius = n_elements * SPEED_OF_LIGHT / (4.0 * np.pi * fc_hz)
    return UcaGeometry(n_elements=n_elements, radius_m=radius)


def generate_channel(
    tx: UcaGeometry,
    rx: UlaGeometry,
    grid: FrequencyGrid,
    n_paths: int,
    seed: int,
    max_delay_s: float = 20e-9,
) -> ChannelRealization:
    """Draw a random multipath realization, deterministic in the seed.

    Gains are complex standard normal (unit mean-square), departure angles
    uniform on [0, 2*pi), arrival angles uniform on [-pi/2, pi/2], delays
    uniform on [0, max_delay_s].
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    rng = np.random.default_rng(seed)
    gains = (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)) / math.sqrt(2.0)
    aods = rng.uniform(0.0, 2.0 * np.pi, n_paths)
    aoas = rng.uniform(-np.pi / 2.0, np.pi / 2.0, n_paths)
    delays = rng.uniform(0.0, max_delay_s, n_paths)
    paths = tuple(
        PathParams(gain=complex(g), delay_s=float(t), aod_rad=float(a), aoa_rad=float(b))
        for g, t, a, b in zip(gains, delays, aods, aoas)
    )
    return ChannelRealization(paths=paths, tx=tx, rx=rx, grid=grid)


def _subcarrier_index(m, n_sub: int) -> np.ndarray:
    """m (an index or a sequence of indices) as a 0-d or 1-D index array into
    an n_sub-point grid."""
    idx = np.asarray(m)
    if idx.ndim > 1 or idx.dtype.kind not in "iu" or np.any((idx < 0) | (idx >= n_sub)):
        raise IndexError(f"subcarrier index {m} out of range [0, {n_sub})")
    return idx


def channel_matrix(ch: ChannelRealization, m) -> np.ndarray:
    """N x N_r channel at subcarrier m (0-based):
    sqrt(N/L) * sum_l g_l * exp(-j*2*pi*tau_l*f_m) * a(phi_l) b(theta_l)^H.

    A sequence of indices gives the len(m) x N x N_r stack, broadcast over
    paths and chunks of subcarriers.  It is a transposed view of a contiguous
    len(m) x N_r x N array, so ``np.swapaxes(stack, -1, -2)`` (H^T) is the
    operand of contiguous batched products such as H^H A = conj(H^T conj(A)).
    """
    idx = _subcarrier_index(m, ch.grid.n_subcarriers)
    tx, rx = ch.tx, ch.rx
    freqs = ch.grid.freqs_hz[idx.reshape(-1)]
    gains = np.array([p.gain for p in ch.paths])
    delays = np.array([p.delay_s for p in ch.paths])
    cos_tx = np.cos(np.array([p.aod_rad for p in ch.paths])[:, None] - tx.element_angles)
    sin_rx = np.array([math.sin(p.aoa_rad) for p in ch.paths])[:, None]
    n_rx = np.arange(rx.n_elements)
    h_t = np.empty((freqs.size, rx.n_elements, tx.n_elements), dtype=np.complex128)
    for sl in _subcarrier_chunks(freqs.size):
        f = freqs[sl, None, None]
        # the expressions of steering_uca/steering_ula, in the same order
        eta = 2.0 * np.pi * tx.radius_m * f / SPEED_OF_LIGHT
        a = np.exp(1j * (eta * cos_tx)) / math.sqrt(tx.n_elements)  # c x L x N
        b = np.exp(1j * (2.0 * np.pi * n_rx * rx.spacing_m * f * sin_rx / SPEED_OF_LIGHT)
                   ) / math.sqrt(rx.n_elements)  # c x L x N_r
        coef = gains * np.exp(-2j * np.pi * delays * f)  # c x 1 x L
        np.matmul(np.swapaxes(b.conj(), -1, -2) * coef, a, out=h_t[sl])
    h_t *= math.sqrt(tx.n_elements / ch.n_paths)
    return np.swapaxes(h_t.reshape(idx.shape + h_t.shape[1:]), -1, -2)
