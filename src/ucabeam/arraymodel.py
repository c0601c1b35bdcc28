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
* A channel realization holds its paths and small synthesis tables, not its
  matrices: ``channel_matrix`` synthesizes a subcarrier or a run of them on
  demand, and the trial runner takes SUBCARRIER_CHUNK at a time.
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

# Subcarriers per step wherever a tensor grows with the grid and the array
# size (channel synthesis, the per-arc products of the precoders, the QR of
# the fully digital bound): a step's temporaries stay at SUBCARRIER_CHUNK x N
# x (paths, or N_r x RF chains), and the trial runner never forms the
# M x N x N_r channel stack.  Channel synthesis also splits subcarrier
# indices as m = SUBCARRIER_CHUNK*q + r (see channel_matrix).
SUBCARRIER_CHUNK = 8


def _subcarrier_chunks(n: int) -> list:
    """Slices covering range(n) in steps of SUBCARRIER_CHUNK."""
    return [slice(lo, min(lo + SUBCARRIER_CHUNK, n)) for lo in range(0, n, SUBCARRIER_CHUNK)]


def _count(name, value):
    """Raise unless value is a positive int (not a bool)."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value}")


def _eta(f_hz, radius_m):
    """The ring phase eta = 2*pi*R*f/c of a radius R at frequencies f."""
    return 2.0 * math.pi * radius_m * f_hz / SPEED_OF_LIGHT


def _check_scalar(name, value):
    """Raise unless value is a scalar (0-d)."""
    if np.ndim(value) != 0:
        raise ValueError(f"{name} must be a scalar, got shape {np.shape(value)}")


def _check_positive(name, value):
    """Raise unless every entry of value (a scalar or an array, converted to
    float first) is finite and positive, naming the first that is not."""
    value = np.asarray(value, dtype=float)
    bad = ~(np.isfinite(value) & (value > 0.0))
    if bad.any():
        raise ValueError(f"{name} must be positive, got {float(value[bad][0])!r}")


def _check_non_negative(name, value):
    """As _check_positive, for entries that are finite and non-negative."""
    value = np.asarray(value, dtype=float)
    bad = ~(np.isfinite(value) & (value >= 0.0))
    if bad.any():
        raise ValueError(f"{name} must be non-negative, got {float(value[bad][0])!r}")


@dataclass(frozen=True)
class UcaGeometry:
    """Uniform circular array of n_elements on a circle of radius_m meters."""

    n_elements: int
    radius_m: float

    def __post_init__(self):
        _count("n_elements", self.n_elements)
        _check_scalar("radius_m", self.radius_m)
        _check_positive("radius_m", self.radius_m)

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
        _count("n_elements", self.n_elements)
        _check_scalar("spacing_m", self.spacing_m)
        _check_positive("spacing_m", self.spacing_m)


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric M-point OFDM subcarrier grid around fc_hz spanning bandwidth_hz;
    the constructor checks subcarrier 0 (above 0 Hz) without building the grid."""

    fc_hz: float
    bandwidth_hz: float
    n_subcarriers: int

    def __post_init__(self):
        _check_scalar("fc_hz", self.fc_hz)
        _check_scalar("bandwidth_hz", self.bandwidth_hz)
        _check_positive("fc_hz", self.fc_hz)
        _check_non_negative("bandwidth_hz", self.bandwidth_hz)
        _count("n_subcarriers", self.n_subcarriers)
        if self._freq(0) <= 0.0:
            raise ValueError(
                "grid extends to non-positive frequencies: "
                f"fc={self.fc_hz}, B={self.bandwidth_hz}"
            )

    def _freq(self, m):
        """The frequency of subcarrier m, an index or an array of them."""
        n = self.n_subcarriers
        return self.fc_hz + self.bandwidth_hz * ((2.0 * m + 1.0 - n) / (2.0 * n))

    @property
    def freqs_hz(self) -> np.ndarray:
        """Subcarrier frequencies; max - min = B*(M-1)/M, midpoint exactly fc."""
        return self._freq(np.arange(self.n_subcarriers))


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain, delay, departure and arrival angle."""

    gain: complex
    delay_s: float
    aod_rad: float
    aoa_rad: float

    def __post_init__(self):
        for name in ("gain", "delay_s", "aod_rad", "aoa_rad"):
            _check_scalar(name, getattr(self, name))
        if not np.isfinite(complex(self.gain)):
            raise ValueError("gain must be finite")
        _check_non_negative("delay_s", self.delay_s)
        if not 0.0 <= self.aod_rad < 2.0 * math.pi:
            raise ValueError(f"aod_rad must lie in [0, 2*pi), got {self.aod_rad}")
        if not -math.pi / 2.0 <= self.aoa_rad <= math.pi / 2.0:
            raise ValueError(f"aoa_rad must lie in [-pi/2, pi/2], got {self.aoa_rad}")


@dataclass(frozen=True)
class ChannelRealization:
    """L-path wideband channel between a UCA transmitter and ULA receiver;
    it keeps channel_matrix's small tables (built on first use), no matrix."""

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
    def _tables(self):
        """channel_matrix's tables (see there): the left factor sqrt(N/L) b^H
        coef (M x N_r x L), cos(phi_l - psi_n) (L x N), residuals, block etas."""
        tx, rx, freqs = self.tx, self.rx, self.grid.freqs_hz
        aods = np.array([p.aod_rad for p in self.paths])
        cos_tx = np.cos(aods[:, None] - tx.element_angles)
        f_r = np.arange(min(SUBCARRIER_CHUNK, freqs.size))[:, None] * (
            self.grid.bandwidth_hz / self.grid.n_subcarriers)
        residual = _steering_rows(tx, aods)(f_r)  # 8 x L x N, as steering_uca builds it
        eta_q = _eta(freqs[::SUBCARRIER_CHUNK], tx.radius_m)
        b = _steering_rows(rx, np.array([p.aoa_rad for p in self.paths]))(freqs[:, None])
        coef = np.array([p.gain for p in self.paths]) * np.exp(
            -2j * np.pi * np.array([p.delay_s for p in self.paths]) * freqs[:, None, None])
        coef *= math.sqrt(tx.n_elements / self.n_paths)
        return np.swapaxes(b.conj(), -1, -2) * coef, cos_tx, residual, eta_q


def _sweep(f_hz, phi_rad):
    """f and phi as float arrays of sweep points on their own shapes: scalars,
    1-D arrays, or an (F, 1) column of frequencies (broadcast by the caller)."""
    f, phi = np.asarray(f_hz, dtype=float), np.asarray(phi_rad, dtype=float)
    if phi.ndim > 1 or f.shape[1:] not in ((), (1,)):
        raise ValueError(f"sweep points must be scalars or 1-D arrays, got {f.shape} {phi.shape}")
    _check_positive("f_hz", f)
    return f, phi


def _steering_rows(geom, phi):
    """Steering rows of a UCA or ULA toward the angles phi (an array) as a
    function rows(f, out=None) of frequencies f that broadcast with phi: the
    angle factor, cos(phi - psi_n) or sin(phi), is taken once for every f,
    and each call builds the rows in place by steering_uca's (steering_ula's)
    formula, its operations in the same order."""
    phi = phi[..., None]
    if isinstance(geom, UcaGeometry):
        cos = np.cos(phi - geom.element_angles)
    else:  # math.sin per angle, as the scalar call takes it
        sin = np.array([math.sin(p) for p in phi.ravel().tolist()]).reshape(phi.shape)
        n_d = 2.0 * np.pi * np.arange(geom.n_elements) * geom.spacing_m

    def rows(f, out=None):
        f = f[..., None]
        phase = (_eta(f, geom.radius_m) * cos
                 if isinstance(geom, UcaGeometry) else n_d * f * sin / SPEED_OF_LIGHT)
        out = np.multiply(1j, phase, out=out)
        np.exp(out, out=out)
        return np.divide(out, math.sqrt(geom.n_elements), out=out)
    return rows


def steering_uca(geom: UcaGeometry, f_hz, phi_rad) -> np.ndarray:
    """UCA steering vector: entry n is exp(j*eta*cos(phi - psi_n))/sqrt(N)
    with eta = 2*pi*R*f/c.  ``f_hz`` and ``phi_rad`` may be 1-D arrays of
    sweep points, broadcast together, or f an (F, 1) column by P angles: the
    result has one row per point, each equal to the scalar call bit for bit,
    and the cosines one per angle."""
    f, phi = _sweep(f_hz, phi_rad)
    return _steering_rows(geom, phi)(f)


def steering_ula(geom: UlaGeometry, f_hz, phi_rad) -> np.ndarray:
    """ULA steering vector: entry n is exp(j*2*pi*n*d*f*sin(phi)/c)/sqrt(N).
    Arrays of sweep points give one row per point, as in steering_uca."""
    f, phi = _sweep(f_hz, phi_rad)
    return _steering_rows(geom, phi)(f)


def half_wavelength_uca(n_elements: int, fc_hz: float) -> UcaGeometry:
    """UCA whose adjacent-element arc spacing is half the center-frequency
    wavelength: R = N*c/(4*pi*fc)."""
    if not (isinstance(n_elements, int) and n_elements >= 2):
        raise ValueError(f"need at least 2 elements, got {n_elements}")
    _check_scalar("fc_hz", fc_hz)
    _check_positive("fc_hz", fc_hz)
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
    _count("n_paths", n_paths)
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


def channel_matrix(ch: ChannelRealization, m) -> np.ndarray:
    """N x N_r channel at subcarrier m (0-based):
    sqrt(N/L) * sum_l g_l * exp(-j*2*pi*tau_l*f_m) * a(phi_l) b(theta_l)^H.

    m is an index (an integer, not a bool) or a range of step 1 with start
    and stop in [0, M], which gives the run's len(m) x N x N_r stack, maybe
    empty (``range(8q, 8q + 8)`` is the chunk ``build_designs`` takes);
    anything else raises IndexError.  Only those subcarriers are
    synthesized, each with the same bits whichever call makes it.  The
    result is a transposed view of a new contiguous (len(m) x) N_r x N
    array, so ``np.swapaxes(h, -1, -2)`` (H^T) is the operand of contiguous
    batched products such as H^H A = conj(H^T conj(A)).

    The UCA factors, the L x N exponentials that dominate the cost, come
    from tables kept on the realization: with m = 8q + r (SUBCARRIER_CHUNK),
    f_m = f_8q + r*B/M, so exp(j*eta(f_m)*cos) is the block row at f_8q
    times the residual row at r*B/M, one residual table of 8 rows (1/sqrt(N)
    folded in) and one block row per chunk the run touches: 24 exp rows in
    place of 128 for M = 128, at an added error of the size the phase
    argument carries, about eps*eta(f_m).  The ULA and delay phases enter at
    f_m, in the left factor sqrt(N/L) * b^H * coef (N_r x L per subcarrier);
    each chunk takes one matmul.
    """
    n_sub = ch.grid.n_subcarriers
    run = range(m, m + 1) if isinstance(m, (int, np.integer)) and not isinstance(m, bool) else m
    if not (isinstance(run, range) and run.step == 1 and 0 <= run.start <= n_sub
            and 0 <= run.stop <= n_sub):
        raise IndexError(f"subcarrier {m!r} is neither an index in [0, {n_sub}) "
                         f"nor a range of step 1 within [0, {n_sub}]")
    left, cos_tx, residual, eta_q = ch._tables
    h_t = np.empty((len(run),) + left.shape[1:2] + cos_tx.shape[1:], dtype=np.complex128)
    lo = run.start
    while lo < run.stop:  # the part of the run in each chunk it touches
        q, r = divmod(lo, SUBCARRIER_CHUNK)
        hi = min(run.stop, lo - r + SUBCARRIER_CHUNK)
        a = np.empty((hi - lo,) + cos_tx.shape, dtype=np.complex128)
        np.multiply(1j, eta_q[q] * cos_tx, out=a[0])
        a[1:] = np.exp(a[0], out=a[0])  # the block row, L x N, on each row
        np.multiply(a, residual[r:r + hi - lo], out=a)  # equal shapes: no ufunc buffer
        np.matmul(left[lo:hi], a, out=h_t[lo - run.start:hi - run.start])
        lo = hi
    return h_t.swapaxes(-1, -2) if isinstance(m, range) else h_t[0].T
