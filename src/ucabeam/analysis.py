"""Beamforming-gain analysis and spectrum efficiency for wideband UCAs.

Closed forms
------------
For a UCA of radius R, write ``eta(f) = 2*pi*R*f/c``.  A phase-shifter beam
aligned at the center frequency fc and evaluated at frequency f has gain

* in its own direction: ``|J0(eta(f) - eta(fc))|``
  (large-N limit of the circular phase sum);
* in an arbitrary direction phi, for a beam pointed at phi0:
  ``|J0(xi)`` with ``xi = sqrt(eta_f^2 + eta_c^2 - 2 eta_f eta_c cos(phi - phi0))``.

Splitting the array into K arcs, each driven by one true-time-delay element
referenced to the arc centroid, leaves only the intra-arc phase error; the
per-arc average is again a Bessel sum, and its continuum limit is
``|1F2(1/2; 1, 3/2; -a^2/4)|`` with ``a = 2*pi^2*R*(f - fc)/(c*K)``.

Band-averaged gains use ``b_ps = pi*B*R/c`` and ``b_ttd = pi^2*B*R/(c*K)``:

* numeric average of ``|J0|``:        ``(1/b)*int_0^b |J0|``
* Cauchy-Schwarz upper bound:         ``sqrt(2F3(1/2,1/2; 1,1,3/2; -b_ps^2))``
  (the root-mean-square gain, via ``(1/x)*int_0^x J0^2 = 2F3(...; -x^2)``)
* signed-integral lower bound:        ``1F2(1/2; 1, 3/2; -b_ps^2/4)``
* delay-phase average:                ``2F3(1/2,1/2; 1,3/2,3/2; -b_ttd^2/4)``
  (via ``(1/x)*int_0^x 1F2(1/2;1,3/2;-t^2/4) dt``).

All quadrature cross-checks are done in these dimensionless variables.

The closed forms, the arc sum and the band averages broadcast over their
sweep variable (frequency, direction or bandwidth): an array argument gives
the array of values, each equal bit for bit to the scalar call, and a scalar
argument gives a float.  The exact gains take one point per call.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .arraymodel import (
    SPEED_OF_LIGHT,
    ChannelRealization,
    UcaGeometry,
    _subcarrier_index,
    steering_uca,
)
from .cxlinalg import water_filling
from .precoding import (_GAIN_FLOOR, HybridDesign, PrecoderSet, _analog, _arc_size, _check_snr,
                        _amplitudes, _equivalent_channels, _ps_column, _sorted_paths,
                        analog_combined, ttd_delays)

__all__ = [
    "exact_gain",
    "ps_gain_closed_form",
    "ps_gain_angular_closed_form",
    "dpp_gain_subarray_sum",
    "dpp_gain_closed_form",
    "dpp_column",
    "dpp_exact_gain",
    "min_ttd_count",
    "avg_gain_ps_numeric",
    "avg_gain_ps_upper",
    "avg_gain_ps_lower",
    "avg_gain_ttd",
    "gain_improvement",
    "se_from_effective",
    "spectrum_efficiency",
    "design_spectrum_efficiency",
    "spectrum_efficiency_optimal",
    "beam_cross_gains",
]


# ---------------------------------------------------------------------------
# Pointwise beamforming gains
# ---------------------------------------------------------------------------


def exact_gain(w, geom: UcaGeometry, f_hz: float, phi_rad: float) -> float:
    """|a(f, phi)^H w| for an arbitrary unit-norm-bounded weight vector."""
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (geom.n_elements,):
        raise ValueError(f"w must have shape ({geom.n_elements},), got {w.shape}")
    nrm = np.linalg.norm(w)
    if not nrm <= 1.0 + 1e-9:
        raise ValueError(f"||w|| must not exceed 1, got {nrm}")
    a = steering_uca(geom, f_hz, phi_rad)
    return float(abs(np.vdot(a, w)))


def _eta(f_hz: float, radius_m: float) -> float:
    return 2.0 * math.pi * radius_m * f_hz / SPEED_OF_LIGHT


def ps_gain_closed_form(f_hz, fc_hz: float, radius_m: float):
    """On-beam gain of a center-frequency phase-shifter beam at frequency f:
    |J0(2*pi*R*(f - fc)/c)| in the large-N limit.  ``f_hz`` may be an array."""
    _check_freqs(f_hz, fc_hz, radius_m)
    return abs(specfun.bessel_j(0, _eta(f_hz, radius_m) - _eta(fc_hz, radius_m)))


def ps_gain_angular_closed_form(
    f_hz: float, fc_hz: float, radius_m: float, phi_rad, phi0_rad: float
):
    """Gain in direction phi of a beam pointed at phi0, evaluated at f:
    |J0(xi)| with xi the law-of-cosines combination of eta(f) and eta(fc).
    ``phi_rad`` may be an array.

    Accurate on the front half-plane |phi - phi0| <= pi/2; toward the
    back lobe the discrete circular sum departs from the continuum limit.
    """
    _check_freqs(f_hz, fc_hz, radius_m)
    eta_m = _eta(f_hz, radius_m)
    eta_c = _eta(fc_hz, radius_m)
    xi_sq = eta_m**2 + eta_c**2 - 2.0 * eta_m * eta_c * np.cos(phi_rad - phi0_rad)
    return abs(specfun.bessel_j(0, np.sqrt(np.maximum(xi_sq, 0.0))))


def dpp_gain_subarray_sum(
    f_hz, fc_hz: float, radius_m: float, n_elements: int, k_ttd: int
):
    """Delay-phase gain as the average over one arc of per-element Bessel
    factors: (1/P) |sum_i J0(r_i)| with
    r_i = (2*sqrt(2)*pi*R/c) * (f - fc) * sqrt(1 - cos((2i+1)*pi/N - pi/K)).
    ``f_hz`` may be an array; J0 is evaluated once on the points x P grid.
    """
    _check_freqs(f_hz, fc_hz, radius_m)
    p = _arc_size(n_elements, k_ttd)
    scale = 2.0 * math.sqrt(2.0) * math.pi * radius_m / SPEED_OF_LIGHT * (f_hz - fc_hz)
    offsets = [math.sqrt(max(1.0 - math.cos((2 * i + 1) * math.pi / n_elements
                                            - math.pi / k_ttd), 0.0)) for i in range(p)]
    j0 = specfun.bessel_j(0, np.multiply.outer(scale, offsets))
    # a running sum adds the elements in order, as a loop over i would
    return _value(abs(np.cumsum(j0, axis=-1)[..., -1]) / p)


def dpp_gain_closed_form(f_hz, fc_hz: float, radius_m: float, k_ttd: int):
    """Continuum limit of the arc average: |1F2(1/2; 1, 3/2; -a^2/4)| with
    a = 2*pi^2*R*(f - fc)/(c*K).  ``f_hz`` may be an array."""
    _check_freqs(f_hz, fc_hz, radius_m)
    if not (isinstance(k_ttd, int) and k_ttd >= 1):
        raise ValueError(f"k_ttd must be a positive integer, got {k_ttd}")
    a = 2.0 * math.pi**2 * radius_m * (f_hz - fc_hz) / (SPEED_OF_LIGHT * k_ttd)
    return abs(specfun.hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * a * a))


def dpp_column(geom: UcaGeometry, fc_hz: float, f_hz: float, phi_rad: float,
               k_ttd: int) -> np.ndarray:
    """Combined analog weight of one delay-phase RF chain steered toward phi:
    centroid-referenced phase-shifter arcs times the TTD phases at f."""
    w_ps = _ps_column(geom, fc_hz, phi_rad, k_ttd, correct_to_centroid=True)
    delays = ttd_delays(phi_rad, k_ttd, geom)
    return _analog(w_ps[:, None], delays[None, :], f_hz)[:, 0]


def dpp_exact_gain(geom: UcaGeometry, fc_hz: float, f_hz: float, phi_rad: float,
                   k_ttd: int) -> float:
    """Exact on-beam gain of a single delay-phase chain (discrete sum,
    no large-N approximation)."""
    return exact_gain(dpp_column(geom, fc_hz, f_hz, phi_rad, k_ttd), geom, f_hz, phi_rad)


def _check_freqs(f_hz, fc_hz: float, radius_m: float):
    _check_positive("f_hz", f_hz)
    _check_positive("fc_hz", fc_hz)
    _check_positive("radius_m", radius_m)


def _check_positive(name, value):
    value = np.asarray(value, dtype=float)
    bad = ~(np.isfinite(value) & (value > 0.0))
    if bad.any():
        raise ValueError(f"{name} must be positive, got {float(value[bad][0])!r}")


def _value(v):
    """A 0-d result as a Python float, an array result as it is."""
    return float(v) if np.ndim(v) == 0 else v


# ---------------------------------------------------------------------------
# TTD sizing and band-averaged gains
# ---------------------------------------------------------------------------


def min_ttd_count(delta: float, radius_m: float, bandwidth_hz: float) -> float:
    """Smallest (real-valued) number of delay units per RF chain keeping the
    band-edge gain loss below delta: K_min = pi^2*R*B / (c * x*) where x* is
    the argument at which the arc gain curve first drops to 1 - delta.
    Callers round up to an integer."""
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not (np.isfinite(radius_m) and radius_m > 0.0):
        raise ValueError(f"radius_m must be positive, got {radius_m}")
    if not (np.isfinite(bandwidth_hz) and bandwidth_hz >= 0.0):
        raise ValueError(f"bandwidth_hz must be non-negative, got {bandwidth_hz}")
    x = specfun.inverse_1f2_threshold(1.0 - delta)
    return math.pi**2 * radius_m * bandwidth_hz / (SPEED_OF_LIGHT * x)


def _b_ps(radius_m: float, bandwidth_hz):
    return math.pi * bandwidth_hz * radius_m / SPEED_OF_LIGHT


def _check_band(radius_m: float, bandwidth_hz):
    _check_positive("radius_m", radius_m)
    _check_positive("bandwidth_hz", bandwidth_hz)


def avg_gain_ps_numeric(radius_m: float, bandwidth_hz):
    """Band average of the phase-shifter gain |J0| by adaptive quadrature,
    evaluated in the dimensionless variable x = 2*pi*R*f'/c.
    ``bandwidth_hz`` may be an array: one quadrature runs all the bands."""
    _check_band(radius_m, bandwidth_hz)
    b = _b_ps(radius_m, bandwidth_hz)
    integral = specfun.integrate(
        lambda x: abs(specfun.bessel_j(0, x)), 0.0, b, tol=1e-10
    )
    return _value(integral / b)


def avg_gain_ps_upper(radius_m: float, bandwidth_hz):
    """Cauchy-Schwarz upper bound on the band-averaged phase-shifter gain:
    the root-mean-square gain sqrt((1/b) * int_0^b J0^2), evaluated through
    its hypergeometric closed form 2F3(1/2,1/2; 1,1,3/2; -b^2).
    ``bandwidth_hz`` may be an array."""
    _check_band(radius_m, bandwidth_hz)
    b = _b_ps(radius_m, bandwidth_hz)
    return _value(np.sqrt(specfun.hypergeom_2f3(0.5, 0.5, 1.0, 1.0, 1.5, -b * b)))


def avg_gain_ps_lower(radius_m: float, bandwidth_hz):
    """Lower bound from dropping the absolute value: the signed band average
    (1/b) * int_0^b J0 = 1F2(1/2; 1, 3/2; -b^2/4).  ``bandwidth_hz`` may be
    an array."""
    _check_band(radius_m, bandwidth_hz)
    b = _b_ps(radius_m, bandwidth_hz)
    return specfun.hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * b * b)


def avg_gain_ttd(radius_m: float, bandwidth_hz, k_ttd: int):
    """Band-averaged delay-phase gain: with b = pi^2*B*R/(c*K), the average
    of the arc gain curve over the band is 2F3(1/2,1/2; 1,3/2,3/2; -b^2/4).
    The arc gain curve is positive on the whole real line, so the average of
    its absolute value coincides with the signed average.  ``bandwidth_hz``
    may be an array."""
    _check_band(radius_m, bandwidth_hz)
    if not (isinstance(k_ttd, int) and k_ttd >= 1):
        raise ValueError(f"k_ttd must be a positive integer, got {k_ttd}")
    b = math.pi**2 * bandwidth_hz * radius_m / (SPEED_OF_LIGHT * k_ttd)
    return specfun.hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, -0.25 * b * b)


def gain_improvement(radius_m: float, bandwidth_hz, k_ttd: int):
    """Ratio of the band-averaged delay-phase gain to the Cauchy-Schwarz
    upper bound on the phase-shifter average; a conservative (lower-bound)
    measure of the improvement from adding delay units."""
    return avg_gain_ttd(radius_m, bandwidth_hz, k_ttd) / avg_gain_ps_upper(
        radius_m, bandwidth_hz
    )


# ---------------------------------------------------------------------------
# Spectrum efficiency
# ---------------------------------------------------------------------------


def se_from_effective(h_eff, rho, sigma2: float, n_s: int | None = None):
    """log2 det(I + rho/(n_s*sigma2) * H_eff H_eff^H) for an effective
    channel H_eff = H^H F (receive antennas x streams).  Leading axes index a
    stack of effective channels and give an array of rates; an array rho
    must broadcast to those leading axes."""
    h_eff = np.asarray(h_eff, dtype=np.complex128)
    if h_eff.ndim < 2:
        raise ValueError(f"h_eff must be 2-D or a stack of 2-D, got shape {h_eff.shape}")
    if n_s is None:
        n_s = h_eff.shape[-1]
    elif n_s != h_eff.shape[-1]:
        raise ValueError(f"n_s={n_s} does not match h_eff stream count {h_eff.shape[-1]}")
    _check_snr(rho, sigma2)
    gram = h_eff @ np.swapaxes(h_eff.conj(), -1, -2)
    gram *= np.asarray(rho, dtype=float)[..., None, None] / (n_s * sigma2)
    gram += np.eye(h_eff.shape[-2])
    sign, logdet = np.linalg.slogdet(gram)
    if np.any(sign <= 0):
        raise ArithmeticError("log-det argument is not positive definite")
    se = logdet / math.log(2.0)
    return float(se) if se.ndim == 0 else se


def spectrum_efficiency(h_m, ps: PrecoderSet, m, rho: float, sigma2: float,
                        n_s: int | None = None):
    """Per-subcarrier rate of a hybrid precoder:
    log2 det(I + rho/(n_s*sigma2) * H^H F F^H H) with F the combined
    phase-shifter/delay/digital precoder at subcarrier m.

    With a sequence of indices m and the len(m) x N x N_r channel stack h_m,
    returns the array of their rates.  H^H F = (H^H A) f_d, with H^H A from
    the per-arc products of the precoders' own design routine.
    """
    h_m = np.asarray(h_m, dtype=np.complex128)
    idx = np.asarray(m)
    n_tx = ps.w_ps.shape[0]
    if h_m.ndim != idx.ndim + 2 or h_m.shape[:-2] != idx.shape or h_m.shape[-2] != n_tx:
        raise ValueError(
            f"channel/precoder mismatch: H is {h_m.shape} for subcarrier index shape "
            f"{idx.shape}, F has {n_tx} transmit antennas"
        )
    idx = _subcarrier_index(m, ps.n_subcarriers)
    scalar = idx.ndim == 0
    if scalar:
        h_m, idx = h_m[None], idx[None]
    g, _ = _equivalent_channels(np.swapaxes(h_m, -1, -2), ps.w_ps, ps.delays_s,
                                ps.freqs_hz[idx])
    se = se_from_effective(g @ ps.f_d[idx], rho, sigma2, n_s)
    return float(se[0]) if scalar else se


# (SNR, subcarrier) pairs per step when rates are taken at an array of SNRs:
# it bounds the temporaries of a step (a few N_r x N_r matrices per pair)
# whatever the number of SNRs.
SNR_BLOCK_PAIRS = 1024


def _by_snr_blocks(rates, rho, n_sub: int):
    """rates(rho) for a scalar rho; for a 1-D array of SNRs, rates of blocks
    of at most SNR_BLOCK_PAIRS // n_sub of them, stacked along a first axis."""
    if np.ndim(rho) == 0:
        return rates(rho)
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1:
        raise ValueError(f"rho must be a scalar or a 1-D array, got shape {rho.shape}")
    step = max(1, SNR_BLOCK_PAIRS // n_sub)
    return np.concatenate([rates(rho[i:i + step]) for i in range(0, rho.size, step)])


def design_spectrum_efficiency(design: HybridDesign, rho, sigma2: float):
    """Per-subcarrier rates of the hybrid precoder a design gives at SNR rho:
    an array of M rates, or, for a 1-D array of SNRs, one row per SNR.  Equal
    to building the precoder at rho and calling spectrum_efficiency on the
    whole grid, with H_eff = G f_d = (G v) * a from the design."""
    def rates(r):
        h_eff = design.g_v * _amplitudes(design, r, sigma2)[..., None, :]
        return se_from_effective(h_eff, np.asarray(r)[..., None], sigma2)
    return _by_snr_blocks(rates, rho, design.sigma.shape[0])


def spectrum_efficiency_optimal(h_m, rho, sigma2: float, n_s: int,
                                total_power: float = 1.0):
    """Fully digital upper bound: water-filling over the top n_s singular
    values of the channel, sum of log2(1 + p_i * rho * s_i^2/(n_s*sigma2)).
    Leading axes of h_m index a stack of channels (one per subcarrier) and
    give an array of rates; a 1-D array of SNRs gives one row per SNR, from
    one set of singular values."""
    h_m = np.asarray(h_m, dtype=np.complex128)
    if h_m.ndim < 2:
        raise ValueError(f"h_m must be 2-D or a stack of 2-D, got shape {h_m.shape}")
    if not (isinstance(n_s, int) and n_s >= 1):
        raise ValueError(f"n_s must be a positive integer, got {n_s}")
    _check_snr(rho, sigma2)
    if not (np.isfinite(total_power) and total_power > 0.0):
        raise ValueError(f"total_power must be positive, got {total_power}")
    sing = np.linalg.svd(h_m, compute_uv=False)[..., :n_s]
    if sing.shape[-1] < n_s:
        raise ValueError(f"n_s={n_s} exceeds channel rank bound {sing.shape[-1]}")

    def rates(r):
        r = np.reshape(r, np.shape(r) + (1,) * sing.ndim)
        gains = np.maximum(r * sing ** 2 / (n_s * sigma2), _GAIN_FLOOR)
        powers = water_filling(gains, total_power)
        se = np.sum(np.log2(1.0 + powers * gains), axis=-1)
        return float(se) if se.ndim == 0 else se
    return _by_snr_blocks(rates, rho, sing[..., 0].size)


def beam_cross_gains(ch: ChannelRealization, ps: PrecoderSet, m: int) -> np.ndarray:
    """Matrix of |a(f_m, phi_l)^H w_chain| between path directions (strongest
    first) and combined analog columns.  The diagonal holds the per-beam
    gains; off-diagonal entries measure inter-beam leakage, which is small
    but not zero at finite N."""
    w = analog_combined(ps, m)
    f = float(ch.grid.freqs_hz[m])
    paths = _sorted_paths(ch, ps.n_rf)
    rows = [steering_uca(ch.tx, f, p.aod_rad) for p in paths]
    return np.abs(np.stack(rows).conj() @ w)
