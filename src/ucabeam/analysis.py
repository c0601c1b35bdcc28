"""Beamforming-gain analysis and spectrum efficiency for wideband UCAs.

Closed forms
------------
For a UCA of radius R, write ``eta(f) = 2*pi*R*f/c``.  A phase-shifter beam
aligned at the center frequency fc and evaluated at frequency f has gain

* in its own direction: ``|J0(eta(f) - eta(fc))|``
  (large-N limit of the circular phase sum);
* in an arbitrary direction phi, for a beam pointed at phi0:
  ``|J0(xi)|`` with ``xi = sqrt(eta_f^2 + eta_c^2 - 2 eta_f eta_c cos(phi - phi0))``.

Splitting the array into K arcs, each driven by one true-time-delay element
referenced to the arc centroid, leaves only the intra-arc phase error; the
per-arc average is again a Bessel sum, and its continuum limit is
``|1F2(1/2; 1, 3/2; -a^2/4)|`` with ``a = 2*pi^2*R*(f - fc)/(c*K)``.

Band-averaged gains use ``b_ps = pi*B*R/c`` and ``b_ttd = pi^2*B*R/(c*K)``:

* numeric average of ``|J0|``:        ``(1/b)*int_0^b |J0|``
  (the signed integral ``t*1F2(1/2; 1, 3/2; -t^2/4)`` between zeros of J0)
* Cauchy-Schwarz upper bound:         ``sqrt(2F3(1/2,1/2; 1,1,3/2; -b_ps^2))``
  (the root-mean-square gain, via ``(1/x)*int_0^x J0^2 = 2F3(...; -x^2)``)
* signed-integral lower bound:        ``1F2(1/2; 1, 3/2; -b_ps^2/4)``
* delay-phase average:                ``2F3(1/2,1/2; 1,3/2,3/2; -b_ttd^2/4)``
  (via ``(1/x)*int_0^x 1F2(1/2;1,3/2;-t^2/4) dt``).

All quadrature cross-checks are done in these dimensionless variables.

The closed forms, the arc sum and the band averages broadcast over their
sweep variable (frequency, direction or bandwidth): an array argument gives
the array of values, each equal bit for bit to the scalar call, and a scalar
argument gives a float.  The numeric average shares the segments between
zeros across the bands, and each band sums its own segments in order.  The
exact gains take 1-D sweeps the same way, or an (F, 1) column of
frequencies by P angles, as one flat list of points: chunks of
SUBCARRIER_CHUNK points take their angle factor once, rows are built in
place, and each point keeps its own ``vdot``, so every value has its scalar
call's bits (one matrix product would reorder the sums).  The gain of the
center-frequency beam itself (_beam_gains, the runner's uca_exact and
ps_exact) is |J0(xi)| at O(1) per point wherever the Jacobi-Anger tail and
the conditioning of J0 certify it, and that dense sum elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .arraymodel import (SPEED_OF_LIGHT, SUBCARRIER_CHUNK, UcaGeometry, UlaGeometry,
                         _check_non_negative, _check_positive, _check_scalar, _count, _eta,
                         _steering_rows, _subcarrier_chunks, _sweep, steering_uca)
from .cxlinalg import water_filling
from .precoding import HybridDesign, _arc_size, _bound, _chain_phases

__all__ = [
    "exact_gain",
    "ps_gain_closed_form",
    "ps_gain_angular_closed_form",
    "dpp_gain_subarray_sum",
    "dpp_gain_closed_form",
    "dpp_exact_gain",
    "min_ttd_count",
    "avg_gain_ps_numeric",
    "avg_gain_ps_upper",
    "avg_gain_ps_lower",
    "avg_gain_ttd",
    "gain_improvement",
    "spectrum_efficiency",
    "spectrum_efficiency_optimal",
]


# ---------------------------------------------------------------------------
# Pointwise beamforming gains
# ---------------------------------------------------------------------------


def exact_gain(w, geom: UcaGeometry | UlaGeometry, f_hz, phi_rad):
    """|a(f, phi)^H w| for an arbitrary unit-norm-bounded weight vector, a
    the steering vector of geom (a UCA or a ULA).  ``f_hz`` and ``phi_rad``
    may be sweep points as steering_uca takes them (F x P values for an
    (F, 1) column by P angles); scalars give a float."""
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (geom.n_elements,):
        raise ValueError(f"w must have shape ({geom.n_elements},), got {w.shape}")
    nrm = np.linalg.norm(w)
    if not nrm <= 1.0 + 1e-9:
        raise ValueError(f"||w|| must not exceed 1, got {nrm}")
    return _gains(geom, f_hz, phi_rad, lambda f: w)


def _points(f_hz, phi_rad):
    """The sweep points of f_hz and phi_rad, as _sweep takes them, as flat
    arrays f and phi of one entry per point, and the shape of their result."""
    f, phi = _sweep(f_hz, phi_rad)
    shape = np.broadcast_shapes(f.shape, phi.shape)
    return np.broadcast_to(f, shape).ravel(), np.broadcast_to(phi, shape).ravel(), shape


def _gains(geom, f_hz, phi_rad, weight):
    """|a(f, phi)^H w| at sweep points as steering_uca takes them (F x P for
    an (F, 1) column of frequencies by P angles; a float at a scalar point),
    a the steering vector of geom (a UCA or a ULA) and weight(f) the weight
    vector at frequencies f (one, or a row per point).  Each chunk of
    SUBCARRIER_CHUNK flat points (_points) takes one angle factor (a single
    angle takes one in all) and one row buffer; each point takes its own vdot."""
    f, phi, shape = _points(f_hz, phi_rad)
    out = np.empty(f.size)
    buf = np.empty((min(f.size, SUBCARRIER_CHUNK), geom.n_elements), dtype=np.complex128)
    at_phi = _steering_rows(geom, phi[:1]) if np.size(phi_rad) == 1 else None
    for sl in _subcarrier_chunks(f.size):
        a = (at_phi or _steering_rows(geom, phi[sl]))(f[sl], buf[:sl.stop - sl.start])
        w = weight(f[sl])
        out[sl] = [abs(np.vdot(x, y)) for x, y in zip(a, w if w.ndim == 2 else [w] * len(a))]
    return _value(out.reshape(shape))


# The certificate of _beam_gains: the Jacobi-Anger tail it drops, and the
# relative error its J0 route may differ from the dense sum by.
_TAIL = 1e-17
_CONDITION = 1e-13
# The range on which J0 and J1 of a floor-20 Miller pass are tested against
# mpmath; above it, a point takes the dense sum.
_J0_MAX = 2100.0
_EPS = np.finfo(float).eps


def _beam_gains(geom: UcaGeometry, fc_hz: float, phi0_rad: float, f_hz, phi_rad):
    """|a(f, phi)^H a(fc, phi0)|, the gain of the center-frequency beam
    toward phi0, at sweep points as _gains takes them (a float at a scalar
    point).  By Jacobi-Anger (DLMF 10.12) it is |sum_m j^(mN) J_mN(xi) e^(...)|
    with xi = |eta(f) e^(j phi) - eta(fc) e^(j phi0)|, and DLMF 10.14.4 bounds
    2 sum_{m>=1} |J_mN(xi)| by 4 (xi/2)^N / N!.  A point is certified where
    that bound is at most _TAIL, xi is at most _J0_MAX and J0 is well
    conditioned, (xi |J1| + 8) eps <= _CONDITION |J0|; its gain is then
    |J0(xi)| (exactly 1.0 where xi rounds J0 to 1), from one floor-20 Miller
    pass for J0 and J1 over every candidate.  Every other point takes its
    value from one _gains call over those points alone, paired, with the
    bits of its scalar exact_gain call.  A scalar goes through the same
    code as a one-point array, so each value has the bits of its scalar
    call, whatever the other points are."""
    _check_positive("fc_hz", fc_hz)
    specfun._argument(phi0_rad, "phi0_rad")
    f, phi, shape = _points(f_hz, phi_rad)
    eta_f, eta_c = _eta(f, geom.radius_m), _eta(fc_hz, geom.radius_m)
    # xi^2 = |eta_f - eta_c|^2 + 4 eta_f eta_c sin^2((phi - phi0)/2): the law
    # of cosines would cancel near the beam.  phi - phi0 = hi + lo exactly,
    # and sin(hi/2 + lo/2) takes lo to first order, so the rounding of the
    # difference (up to 4.4e-16, which moves xi by eta times that near
    # phi - phi0 = 2 pi) does not enter
    hi, lo = specfun._two_sum(phi, -phi0_rad)
    d = eta_f - eta_c
    s = np.sin(0.5 * hi) + np.cos(0.5 * hi) * (0.5 * lo)
    xi = np.sqrt(d * d + (4.0 * eta_f * eta_c) * (s * s))
    # 4 (xi/2)^N / N! <= _TAIL, solved for xi
    n = geom.n_elements
    tail_max = 2.0 * math.exp((math.log(0.25 * _TAIL) + math.lgamma(n + 1)) / n)
    gain = np.zeros(xi.shape)
    ok = xi <= min(tail_max, _J0_MAX)
    one = ok & (xi < specfun._TINY_X)  # J0 = 1 - xi^2/4 + ... rounds to 1
    gain[one] = 1.0
    live = ok & ~one
    j0, j1 = specfun._bessel_miller((0, 1), xi[live], floor=20)
    j0 = np.abs(j0)
    ok[live] = (xi[live] * np.abs(j1) + 8.0) * _EPS <= _CONDITION * j0
    gain[live] = j0
    if not ok.all():
        beam = steering_uca(geom, fc_hz, phi0_rad)
        gain[~ok] = _gains(geom, f[~ok], phi[~ok], lambda f: beam)
    return _value(gain.reshape(shape))


def ps_gain_closed_form(f_hz, fc_hz: float, radius_m: float):
    """On-beam gain of a center-frequency phase-shifter beam at frequency f:
    |J0(2*pi*R*(f - fc)/c)| in the large-N limit.  ``f_hz`` may be an array."""
    _check_freqs(f_hz, fc_hz, radius_m)
    return abs(specfun.bessel_j(0, _eta(f_hz, radius_m) - _eta(fc_hz, radius_m)))


def ps_gain_angular_closed_form(
    f_hz, fc_hz: float, radius_m: float, phi_rad, phi0_rad: float
):
    """Gain in direction phi of a beam pointed at phi0, evaluated at f:
    |J0(xi)| with xi the law-of-cosines combination of eta(f) and eta(fc).
    ``phi_rad`` and ``f_hz`` may be arrays, broadcast together.

    Accurate on the front half-plane |phi - phi0| <= pi/2; toward the
    back lobe the discrete circular sum departs from the continuum limit.
    """
    _check_freqs(f_hz, fc_hz, radius_m)
    specfun._argument(phi_rad, "phi_rad")  # named here, not as bessel_j's argument
    specfun._argument(phi0_rad, "phi0_rad")
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
    _count("k_ttd", k_ttd)
    a = 2.0 * math.pi**2 * radius_m * (f_hz - fc_hz) / (SPEED_OF_LIGHT * k_ttd)
    return abs(specfun.hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * a * a))


def dpp_exact_gain(geom: UcaGeometry, fc_hz: float, f_hz, phi_rad: float,
                   k_ttd: int):
    """Exact on-beam gain of one delay-phase chain toward the scalar phi_rad
    (discrete sum, no large-N approximation).  At f its weights are the fc
    beam times each arc's correction corr_k and TTD phase
    exp(-j*2*pi*f*t_k), both from _chain_phases.  ``f_hz`` may be a 1-D
    array of sweep points."""
    _check_scalar("phi_rad", phi_rad)
    p = _arc_size(geom.n_elements, k_ttd)
    beam = steering_uca(geom, fc_hz, phi_rad)  # checks phi_rad before _chain_phases
    corr, delays = _chain_phases(geom, fc_hz, np.array([[phi_rad]], dtype=float), k_ttd)
    beam *= np.repeat(corr[0], p)
    return _gains(geom, f_hz, phi_rad, lambda f: beam * np.repeat(
        np.exp(-2j * np.pi * np.asarray(f)[..., None] * delays[0]), p, axis=-1))


def _check_freqs(f_hz, fc_hz: float, radius_m: float):
    _check_positive("f_hz", f_hz)
    _check_positive("fc_hz", fc_hz)
    _check_positive("radius_m", radius_m)


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
    _check_scalar("radius_m", radius_m)
    _check_scalar("bandwidth_hz", bandwidth_hz)
    _check_positive("radius_m", radius_m)
    _check_non_negative("bandwidth_hz", bandwidth_hz)
    x = specfun.inverse_1f2_threshold(1.0 - delta)
    k = math.pi**2 * radius_m * bandwidth_hz / (SPEED_OF_LIGHT * x)
    if not math.isfinite(k):
        raise ValueError(f"radius_m={radius_m!r} and bandwidth_hz={bandwidth_hz!r} overflow K_min")
    return k


def _b_ps(radius_m: float, bandwidth_hz):
    return math.pi * bandwidth_hz * radius_m / SPEED_OF_LIGHT


# McMahon's expansion is within 2e-3 of the first zero and closer for the
# others; Newton's error goes 2e-3 -> 5e-7 -> 5e-14 -> rounding.
_NEWTON_STEPS = 3


def _j0_zeros(b_max: float) -> np.ndarray:
    """The zeros of J0 below b_max, ascending: McMahon's expansion
    (DLMF 10.21.19) refined by Newton steps with J0' = -J1.  Each step takes
    J0 and J1 from one Miller pass, which puts every zero within 2e-16
    relative of the true one; the power series that bessel_j uses up to 12
    would move the zero near 11.79 by 2e-13."""
    # past the Miller step budget, raise before b_max/pi guesses are made
    specfun._miller_start(b_max, 0, b_max, "x")
    a = (np.arange(1.0, b_max / math.pi + 0.25) - 0.25) * math.pi
    if not a.size:
        return a
    e = 0.125 / a
    e2 = e * e
    z = a + e * (1.0 - e2 * (124.0 / 3.0 - e2 * (120928.0 / 15.0)))
    for _ in range(_NEWTON_STEPS):
        j0, j1 = specfun._bessel_miller((0, 1), z)
        z = z + j0 / j1
    return z[z < b_max]


def _band_averages(radius_m: float, bandwidth_hz, k_ttd, kinds):
    """The band averages named in ``kinds``, a list in that order; for an
    array of bandwidths, from one Miller pass over the zeros of J0 below the
    widest band (for "numeric"), every b_ps and every b_ttd.  The kinds "numeric", "upper", "lower" and
    "ttd" are the values of avg_gain_ps_numeric, avg_gain_ps_upper,
    avg_gain_ps_lower and avg_gain_ttd, each with the bits of that call.
    A failing call raises what the first failing kind, in that order of the
    four, raises on its own.  ``k_ttd`` is read only for "ttd"."""
    _check_positive("radius_m", radius_m)
    _check_positive("bandwidth_hz", bandwidth_hz)
    if "ttd" in kinds:
        _count("k_ttd", k_ttd)
    b = _b_ps(radius_m, bandwidth_hz)
    pairs = {}  # kind: (form, z), in the fixed order of the four kinds
    if "numeric" in kinds:
        b_arr = np.asarray(b, dtype=float)
        z = _j0_zeros(float(b_arr.max(initial=0.0)))  # an empty array: no zeros
        t = np.concatenate((z, b_arr.ravel()))
        pairs["numeric"] = ("1F2", -0.25 * t * t)
    if "upper" in kinds:
        pairs["upper"] = ("J0^2", -b * b)
    if "lower" in kinds:
        pairs["lower"] = ("1F2", -0.25 * b * b)
    if "ttd" in kinds:
        b_ttd = math.pi**2 * bandwidth_hz * radius_m / (SPEED_OF_LIGHT * k_ttd)
        pairs["ttd"] = ("2F3", -0.25 * b_ttd * b_ttd)
    out = dict(zip(pairs, specfun._hypergeoms(pairs.values())))
    if "numeric" in kinds:
        # the segments between zeros, shared by every band, added in order,
        # so every band gets the bits of its scalar call
        s = t * out["numeric"]
        k = np.searchsorted(z, b_arr)  # zeros below each b
        at_zeros = np.concatenate(([0.0], s[:z.size]))
        whole = np.cumsum(np.concatenate(([0.0], np.abs(np.diff(at_zeros)))))
        out["numeric"] = (whole[k] + np.abs(s[z.size:].reshape(b_arr.shape) - at_zeros[k])) / b_arr
    if "upper" in kinds:
        out["upper"] = np.sqrt(out["upper"])
    return [_value(out[kind]) for kind in kinds]


def avg_gain_ps_numeric(radius_m: float, bandwidth_hz):
    """Band average of the phase-shifter gain |J0|, (1/b) * int_0^b |J0|, in
    the dimensionless variable x = 2*pi*R*f'/c.  J0 keeps its sign between
    consecutive zeros, so the integral is sum_i |S(z_{i+1}) - S(z_i)| over
    0, the zeros z_i of J0 below b, and b, with S(t) = int_0^t J0 =
    t * 1F2(1/2; 1, 3/2; -t^2/4).  ``bandwidth_hz`` may be an array: one
    1F2 pass covers the zeros below the largest b and every b, and the
    segments between zeros are shared by every band."""
    return _band_averages(radius_m, bandwidth_hz, None, ("numeric",))[0]


def avg_gain_ps_upper(radius_m: float, bandwidth_hz):
    """Cauchy-Schwarz upper bound on the band-averaged phase-shifter gain:
    the root-mean-square gain sqrt((1/b) * int_0^b J0^2), evaluated through
    its hypergeometric closed form 2F3(1/2,1/2; 1,1,3/2; -b^2).
    ``bandwidth_hz`` may be an array."""
    return _band_averages(radius_m, bandwidth_hz, None, ("upper",))[0]


def avg_gain_ps_lower(radius_m: float, bandwidth_hz):
    """Lower bound from dropping the absolute value: the signed band average
    (1/b) * int_0^b J0 = 1F2(1/2; 1, 3/2; -b^2/4).  ``bandwidth_hz`` may be
    an array."""
    return _band_averages(radius_m, bandwidth_hz, None, ("lower",))[0]


def avg_gain_ttd(radius_m: float, bandwidth_hz, k_ttd: int):
    """Band-averaged delay-phase gain: with b = pi^2*B*R/(c*K), the average
    of the arc gain curve over the band is 2F3(1/2,1/2; 1,3/2,3/2; -b^2/4).
    The arc gain curve is positive on the whole real line, so the average of
    its absolute value coincides with the signed average.  ``bandwidth_hz``
    may be an array."""
    return _band_averages(radius_m, bandwidth_hz, k_ttd, ("ttd",))[0]


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


# Floor applied to water-filling channel gains so rank-deficient equivalent
# channels (zero singular values) stay in-domain; such channels end up with
# zero power anyway.
_GAIN_FLOOR = 1e-30


def spectrum_efficiency(design: HybridDesign, rho):
    """Per-subcarrier rates of the precoder a design gives at SNR rho (per
    unit noise and transmit power: the runner rates a budget P at rho*P),
    log2 det(I + rho/n_s * H^H F F^H H) with F = A f_d the combined unit-power
    phase-shifter/delay/digital precoder: an array of rates, one per row of
    design.sigma (a float for 1-D sigma), and, for a 1-D array of SNRs, one
    row per SNR.  The only routine that turns singular values into rates.

    The digital precoder f_d = v * a puts amplitude a_s on the right singular
    vector v_s of the stream with singular value sigma_s of G = H^H A.  Since
    G v_s = sigma_s u_s, the effective channel H^H F = G f_d has orthogonal
    columns sigma_s * a_s * u_s, and its log-det is the sum over streams of
    log2(1 + p_s * g_s), g_s = rho * sigma_s^2/n_s the stream gains (floored
    at _GAIN_FLOOR) and p_s = a_s^2 their water-filling powers of unit sum.
    For a hybrid design the powers are then rescaled so that f_d^H (A^H A)
    f_d, which is sum_s p_s * radiation_s, is 1; the fully digital design
    (radiation None, A = I_N) radiates the powers themselves."""
    sigma, radiation = design.sigma, design.radiation
    r = np.asarray(rho, dtype=float)
    _check_positive("rho", r)
    if r.ndim > 1:
        raise ValueError(f"rho must be a scalar or a 1-D array, got shape {r.shape}")
    r = np.reshape(r, r.shape + (1,) * sigma.ndim)
    try:  # an overflow where the gains are scaled by rho names the largest SNR
        with np.errstate(over="raise"):
            gains = np.maximum(r * sigma ** 2 / sigma.shape[-1], _GAIN_FLOOR)
            powers = water_filling(gains, 1.0)
            if radiation is not None:
                radiated = np.sum(powers * radiation, axis=-1, keepdims=True)
                if np.any(radiated <= 0.0):
                    raise ValueError("combined precoder has zero power; degenerate channel")
                powers = powers * (1.0 / radiated)
            se = np.sum(np.log2(1.0 + powers * gains), axis=-1)
    except FloatingPointError as exc:
        top = float(np.max(r))
        raise ArithmeticError(f"SNR-scaled gains overflow at SNRs up to rho={top:g} "
                              f"({10.0 * math.log10(top):.6g} dB)") from exc
    return float(se) if se.ndim == 0 else se


def spectrum_efficiency_optimal(h_m, rho, n_s: int):
    """Fully digital upper bound: water-filling of unit power over the top
    n_s singular values of the channel, sum of log2(1 + p_i * rho * s_i^2/n_s)
    with rho the SNR per unit noise and transmit power, rated by
    spectrum_efficiency as the design HybridDesign(sigma, None).  Leading
    axes of h_m index a stack of channels (one per subcarrier) and give an
    array of rates; a 1-D array of SNRs gives one row per SNR, from one set
    of singular values.

    The singular values come from the bound pass of build_designs (key
    None): the k x k R factor, k = min(N, N_r), of the tall form of each
    channel (H, or H^T when N < N_r), taken by a QR in steps of
    SUBCARRIER_CHUNK channels so that its working copy stays small.  LAPACK's
    SVD of a tall matrix takes the same QR route, and the QR is backward
    stable: the conditioning is not squared, as it would be by the
    eigenvalues of the Gram H^H H."""
    h_m = np.asarray(h_m, dtype=np.complex128)
    if h_m.ndim < 2:
        raise ValueError(f"h_m must be 2-D or a stack of 2-D, got shape {h_m.shape}")
    if h_m.size == 0:
        raise ValueError(f"h_m must be non-empty, got shape {h_m.shape}")
    _count("n_s", n_s)
    k = min(h_m.shape[-2:])
    if k < n_s:
        raise ValueError(f"n_s={n_s} exceeds channel rank bound {k}")
    flat = h_m.reshape((-1,) + h_m.shape[-2:])
    feed, result = _bound(flat.shape[0], k)
    for sl in _subcarrier_chunks(flat.shape[0]):
        feed(sl, flat[sl].swapaxes(-1, -2))
    sing = result().reshape(h_m.shape[:-2] + (-1,))[..., :n_s]
    return spectrum_efficiency(HybridDesign(sing, None), rho)
