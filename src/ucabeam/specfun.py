"""Special functions behind the closed-form gain expressions.

Bessel functions of the first kind, the generalized hypergeometric
functions 1F2 and 2F3, inversion of the 1F2 gain curve on its first
monotone branch, and an adaptive Simpson quadrature used as an
independent cross-check for the series evaluations.

The two hypergeometric instances that matter here are

    1F2(1/2; 1, 3/2; -x^2/4)  = (1/x) * integral_0^x J0(t) dt
    2F3(1/2, 1/2; 1, 3/2, 3/2; -x^2/4) = (1/x) * integral_0^x J0(t)^2 dt

and both identities are exercised by the test suite against quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "ConvergenceError",
    "QuadratureError",
    "UnbracketableError",
    "bessel_j",
    "hypergeom_1f2",
    "hypergeom_2f3",
    "inverse_1f2_threshold",
    "integrate",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the hypergeometric series.

    Summation stops once two consecutive terms drop below
    ``max(abs_tol, rel_tol * |partial sum|)``; exceeding ``max_terms``
    raises :class:`ConvergenceError`.
    """

    max_terms: int = 400
    abs_tol: float = 1e-15
    rel_tol: float = 1e-15

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be a positive integer")
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")


DEFAULT_CONTROL = SeriesControl()


class ConvergenceError(ArithmeticError):
    """A series did not meet its tolerance within the term budget."""

    def __init__(self, message, partial=None, terms=None):
        super().__init__(message)
        self.partial = partial
        self.terms = terms


class QuadratureError(ArithmeticError):
    """Adaptive quadrature hit its depth limit before meeting tolerance."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class UnbracketableError(ValueError):
    """The requested threshold lies below the first local minimum."""


# ---------------------------------------------------------------------------
# Bessel functions of the first kind
# ---------------------------------------------------------------------------

_SERIES_CUTOFF = 12.0


def bessel_j(order: int, x: float) -> float:
    """Bessel function of the first kind J_n(x), integer n >= 0.

    Power series below |x| = 12, Miller downward recurrence with the
    ``J0 + 2*J2 + 2*J4 + ... = 1`` normalization above it.  Absolute
    accuracy is better than 1e-10 for |x| <= 100.
    """
    if order != int(order) or order < 0:
        raise ValueError(f"order must be a non-negative integer, got {order!r}")
    n = int(order)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    sign = 1.0
    if x < 0.0:
        x = -x
        if n % 2 == 1:
            sign = -1.0
    if x <= _SERIES_CUTOFF:
        return sign * _bessel_series(n, x)
    return sign * _bessel_miller(n, x)


def _bessel_series(n: int, x: float) -> float:
    # J_n(x) = sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!)
    half = 0.5 * x
    try:
        term = half**n / math.factorial(n)
    except OverflowError:
        return 0.0
    if term == 0.0:
        return 0.0
    total = term
    peak = abs(term)
    mhh = -half * half
    for k in range(1, 300):
        term *= mhh / (k * (n + k))
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        elif mag <= 1e-18 * peak:
            break
    return total


def _bessel_miller(n: int, x: float) -> float:
    # Downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started well above
    # the turning point so the unnormalized solution is dominated by J.
    top = int(max(n, x)) + 1 + int(10.0 * math.sqrt(max(n, x)))
    if top % 2:
        top += 1
    jp = 0.0  # J~_{k+1}
    jc = 1e-30  # J~_k
    norm = 0.0  # accumulates J~_0 + 2 * sum_{t>=1} J~_{2t}
    out = 0.0
    if n == top:
        out = jc
    for k in range(top, 0, -1):
        jm = (2.0 * k) / x * jc - jp
        jp = jc
        jc = jm
        idx = k - 1
        if idx == n:
            out = jc
        if idx >= 2 and idx % 2 == 0:
            norm += 2.0 * jc
        elif idx == 0:
            norm += jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            out *= 1e-250
    return out / norm


# ---------------------------------------------------------------------------
# Compensated (double-double) arithmetic for the hypergeometric series.
#
# The 1F2 series at z = -x^2/4 with x near 30 has terms peaking around 4e9
# while the sum is O(0.03); plain double summation leaves ~1e-6 of
# cancellation noise, which would violate the 1e-8 identity bound, so terms
# and partial sums are carried in double-double precision.
# ---------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ta = _SPLITTER * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLITTER * b
    bhi = tb - (tb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    return _quick_two_sum(s, e + xl + yl)


def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    return _quick_two_sum(p, e + xh * yl + xl * yh)


def _dd_div_scalar(xh, xl, d):
    q1 = xh / d
    p, e = _two_prod(q1, d)
    s, e2 = _two_sum(xh, -p)
    return _quick_two_sum(q1, (s + (e2 + xl - e)) / d)


def _check_denominators(dens):
    for b in dens:
        if not math.isfinite(b):
            raise ValueError(f"denominator parameter must be finite, got {b!r}")
        if b <= 0.0 and b == int(b):
            raise ValueError(
                f"denominator parameter {b!r} is a non-positive integer; "
                "the series is undefined"
            )


# Digits the double-double terms carry: each term is exact to about
# 2**-100 of its size, so a sum smaller than the largest term by a factor
# near 2**100 * 1e-12 has lost all but 12 significant digits to cancellation.
_DD_EPS = 2.0 ** -100
_CANCELLATION_TOL = 1e-12


def _hyp_series(nums, dens, z, ctrl):
    # term_{n+1} = term_n * z * prod(a + n) / (prod(b + n) * (n + 1))
    # For parameters of interest (halves and small integers) a + n and
    # b + n are exact doubles, so the double-double products keep each term
    # accurate to ~1e-30 relative even where the terms peak near 1e10.
    sh, sl = 1.0, 0.0
    th, tl = 1.0, 0.0
    peak = 1.0
    was_small = False
    for n in range(ctrl.max_terms):
        fn = float(n)
        for a in nums:
            th, tl = _dd_mul(th, tl, a + fn, 0.0)
        th, tl = _dd_mul(th, tl, z, 0.0)
        for b in dens:
            th, tl = _dd_div_scalar(th, tl, b + fn)
        th, tl = _dd_div_scalar(th, tl, fn + 1.0)
        sh, sl = _dd_add(sh, sl, th, tl)
        peak = max(peak, abs(th))
        tol = max(ctrl.abs_tol, ctrl.rel_tol * abs(sh))
        small = abs(th) <= tol
        if small and was_small:
            if peak * _DD_EPS > _CANCELLATION_TOL * max(1.0, abs(sh)):
                raise ConvergenceError(
                    f"hypergeometric series lost precision to cancellation "
                    f"(z={z!r}: peak term {peak:.3g}, sum {sh + sl:.3g})",
                    partial=sh + sl,
                    terms=n + 1,
                )
            return sh + sl
        was_small = small
    raise ConvergenceError(
        f"hypergeometric series did not converge within {ctrl.max_terms} terms "
        f"(z={z!r})",
        partial=sh + sl,
        terms=ctrl.max_terms,
    )


def hypergeom_1f2(a: float, b1: float, b2: float, z: float,
                  ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Generalized hypergeometric 1F2(a; b1, b2; z), entire in z."""
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    _check_denominators((b1, b2))
    return _hyp_series((float(a),), (float(b1), float(b2)), z, ctrl)


def hypergeom_2f3(a1: float, a2: float, b1: float, b2: float, b3: float,
                  z: float, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Generalized hypergeometric 2F3(a1, a2; b1, b2, b3; z), entire in z."""
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    _check_denominators((b1, b2, b3))
    return _hyp_series((float(a1), float(a2)), (float(b1), float(b2), float(b3)),
                       z, ctrl)


# ---------------------------------------------------------------------------
# Inversion of g(x) = 1F2(1/2; 1, 3/2; -x^2/4) on its first monotone branch
# ---------------------------------------------------------------------------


def _gain_curve(x, ctrl):
    return hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * x * x, ctrl)


def inverse_1f2_threshold(target: float,
                          ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Smallest x >= 0 with 1F2(1/2; 1, 3/2; -x^2/4) = target.

    ``g(x) = (1/x) integral_0^x J0`` decreases from g(0) = 1 to its first
    local minimum (about 0.167 near x = 5.1) and oscillates after that;
    only the first branch is inverted.  Raises :class:`UnbracketableError`
    for targets below that minimum and ``ValueError`` outside (0, 1].
    """
    target = float(target)
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target must lie in (0, 1], got {target!r}")
    if target == 1.0:
        return 0.0

    # March to the first rise of g to bracket the first local minimum.
    step = 0.125
    x_prev, g_prev = 0.0, 1.0
    x = step
    while True:
        g_x = _gain_curve(x, ctrl)
        if g_x > g_prev:
            break
        x_prev, g_prev = x, g_x
        x += step
        if x > 200.0:  # g reaches its first minimum near 5.1; unreachable
            raise UnbracketableError("no rise of the gain curve found")
    lo = max(x_prev - step, 0.0)
    hi = x
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if _gain_curve(m1, ctrl) <= _gain_curve(m2, ctrl):
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-13:
            break
    x_min = 0.5 * (lo + hi)
    g_min = _gain_curve(x_min, ctrl)
    if target < g_min:
        raise UnbracketableError(
            f"target {target!r} is below the first local minimum "
            f"{g_min:.12g} of the gain curve (at x = {x_min:.6g}); "
            "only the first monotone branch is invertible"
        )

    lo, hi = 0.0, x_min  # g is decreasing on [0, x_min]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _gain_curve(mid, ctrl) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature
# ---------------------------------------------------------------------------


def _eval(f, t):
    v = float(f(t))
    if not math.isfinite(v):
        raise ValueError(f"integrand is not finite at t={t!r} (value {v!r})")
    return v


# Hard cap on interval splits so an unattainable tolerance degrades into a
# QuadratureError instead of an exponential refinement stall.
_MAX_SPLITS = 200_000


def integrate(f, lo: float, hi: float, tol: float = 1e-10,
              max_depth: int = 50) -> float:
    """Integral of ``f`` over [lo, hi] by adaptive Simpson bisection.

    ``tol`` is an absolute tolerance for the whole interval; panels whose
    refinement difference falls below the floating-point noise of their own
    sums are accepted as converged regardless, since further splitting
    cannot improve them.  Intervals still failing their local error test at
    ``max_depth`` splits (or once the global split budget is spent) raise
    :class:`QuadratureError` carrying the best available estimate.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if lo > hi:
        raise ValueError(f"lower limit {lo!r} exceeds upper limit {hi!r}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if lo == hi:
        return 0.0

    flo = _eval(f, lo)
    fhi = _eval(f, hi)
    mid = 0.5 * (lo + hi)
    fmid = _eval(f, mid)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    total = 0.0
    exhausted = False
    splits = 0
    stack = [(lo, flo, hi, fhi, mid, fmid, whole, tol, 0)]
    while stack:
        a, fa, b, fb, m, fm, s, eps, depth = stack.pop()
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = _eval(f, lm)
        frm = _eval(f, rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - s
        noise = 64.0 * sys.float_info.epsilon * (abs(left) + abs(right) + abs(s))
        if abs(delta) <= max(15.0 * eps, noise):
            total += left + right + delta / 15.0
        elif depth >= max_depth or splits >= _MAX_SPLITS:
            total += left + right + delta / 15.0
            exhausted = True
        else:
            splits += 1
            stack.append((a, fa, m, fm, lm, flm, left, 0.5 * eps, depth + 1))
            stack.append((m, fm, b, fb, rm, frm, right, 0.5 * eps, depth + 1))
    if exhausted:
        raise QuadratureError(
            f"adaptive quadrature hit depth {max_depth} before reaching "
            f"tolerance {tol!r} on [{lo!r}, {hi!r}]",
            best=total,
        )
    return total
