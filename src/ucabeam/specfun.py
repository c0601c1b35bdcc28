"""Special functions behind the closed-form gain expressions.

Bessel functions of the first kind, the generalized hypergeometric
functions 1F2 and 2F3, inversion of the 1F2 gain curve on its first
monotone branch, and the 12-point Gauss-Legendre rule: the band average
of |J0| applies it between zeros of J0, and ``integrate`` on doubling
numbers of equal panels.

The hypergeometric instances that matter here are

    1F2(1/2; 1, 3/2; -x^2/4)           = (1/x) * integral_0^x J0(t) dt
    2F3(1/2, 1/2; 1, 3/2, 3/2; -x^2/4) = (1/x) * integral_0^x 1F2(1/2; 1, 3/2; -t^2/4) dt
    2F3(1/2, 1/2; 1, 1, 3/2; -x^2)     = (1/x) * integral_0^x J0(t)^2 dt

and each identity is exercised by the test suite against quadrature.

The series coefficients C_n = prod (a)_n / (prod (b)_n * n!) do not depend
on z, so each parameter set keeps a table of them, grown as far as a call
needs: C_n as a double-double mantissa times a power of two (C_n underflows
past n ~ 100), and the plain-double ratios C_{n+1}/C_n.  A call runs a
forward pass over the plain-double terms, which gives each element its
last term by the stop rule and its largest term for the cancellation test,
then sums by Horner in double-double from that last term down, each array
element from its own.  The power-of-two scalings are exact, so the bits do
not depend on them, and an array element equals its scalar call.

``bessel_j``, ``hypergeom_1f2`` and ``hypergeom_2f3`` take a float or an
array argument; a 0-d argument returns a Python float, and every element of
an array result equals the scalar call on that element bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "UnbracketableError",
    "bessel_j",
    "hypergeom_1f2",
    "hypergeom_2f3",
    "inverse_1f2_threshold",
    "integrate",
]


class ConvergenceError(ArithmeticError):
    """A series or a quadrature did not meet its tolerance within its budget."""

    def __init__(self, message, partial=None, terms=None):
        super().__init__(message)
        self.partial = partial
        self.terms = terms


class UnbracketableError(ValueError):
    """The requested threshold lies below the first local minimum."""


def _argument(x, name):
    """A 0-d argument as a Python float, anything else as a float array;
    non-finite values are rejected, naming the first."""
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
        return x
    x = np.asarray(x, dtype=float)
    bad = ~np.isfinite(x)
    if bad.any():
        raise ValueError(f"{name} must be finite, got {float(x[bad][0])!r}")
    return x


# ---------------------------------------------------------------------------
# Bessel functions of the first kind
# ---------------------------------------------------------------------------

_SERIES_CUTOFF = 12.0


def bessel_j(order: int, x):
    """Bessel function of the first kind J_n(x), integer n >= 0.

    Power series below |x| = 12, Miller downward recurrence with the
    ``J0 + 2*J2 + 2*J4 + ... = 1`` normalization above it.  Against scipy,
    for orders 0-6, the absolute error is below 1e-12 for |x| <= 12 (the
    series cancels most just below the cutoff) and below 2e-15 for
    12 < |x| <= 2100; the recurrence takes about |x| + 10*sqrt(|x|) steps.
    ``x`` may be an array: both methods stop per element.
    """
    if order != int(order) or order < 0:
        raise ValueError(f"order must be a non-negative integer, got {order!r}")
    n = int(order)
    x = _argument(x, "argument")
    if isinstance(x, float):
        sign = 1.0
        if x < 0.0:
            x = -x
            if n % 2 == 1:
                sign = -1.0
        if x <= _SERIES_CUTOFF:
            return sign * _bessel_series(n, x)
        return sign * _bessel_miller(n, x)
    ax = abs(x)
    out = np.empty(ax.shape)
    near = ax <= _SERIES_CUTOFF
    out[near] = _bessel_series(n, ax[near])
    out[~near] = _bessel_miller(n, ax[~near])
    return np.where(x < 0.0, -1.0, 1.0) * out if n % 2 else out


def _bessel_series(n: int, x):
    # J_n(x) = sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!).  An array element
    # whose terms have died out gets a zero term, so the remaining iterations
    # add 0.0 to its sum.
    vec = isinstance(x, np.ndarray)
    half = 0.5 * x
    try:
        # Python's pow for each element (numpy's may round differently); the
        # powers 0 and 1 are exact either way
        power = np.array([h**n for h in half.tolist()]) if vec and n > 1 else half**n
        term = power / float(math.factorial(n))
    except OverflowError:
        return 0.0 * x
    total = term
    peak = abs(term)
    mhh = -half * half
    for k in range(1, 300):
        term = term * (mhh / (k * (n + k)))
        total = total + term
        mag = abs(term)
        if vec:
            peak = np.maximum(peak, mag)
            done = mag <= 1e-18 * peak
            if done.all():
                break
            term[done] = 0.0
        elif mag > peak:
            peak = mag
        elif mag <= 1e-18 * peak:
            break
    return total


def _bessel_miller(n: int, x):
    # Downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started well above
    # the turning point so the unnormalized solution is dominated by J.  An
    # array element starts at its own top (its state is zero before, which
    # the recurrence keeps at zero) and is rescaled on its own.
    vec = isinstance(x, np.ndarray)
    if vec:
        far = np.maximum(x, n)
        top = far.astype(np.int64) + 1 + (10.0 * np.sqrt(far)).astype(np.int64)
    else:
        far = max(n, x)
        top = int(far) + 1 + int(10.0 * math.sqrt(far))
    top += top % 2
    first = int(top.max(initial=0)) if vec else top
    starts = set(top.tolist()) if vec else ()
    jp = 0.0 * x  # J~_{k+1}
    jc = np.where(top == first, 1e-30, 0.0) if vec else 1e-30  # J~_k
    norm = 0.0 * x  # accumulates J~_0 + 2 * sum_{t>=1} J~_{2t}
    out = 0.0 * x
    for k in range(first, 0, -1):
        jm = (2.0 * k) / x * jc - jp
        jp = jc
        jc = jm
        idx = k - 1
        if idx == n:
            out = jc
        if idx >= 2 and idx % 2 == 0:
            norm = norm + 2.0 * jc
        elif idx == 0:
            norm = norm + jc
        if vec:
            big = np.abs(jc) > 1e250
            if big.any():
                scale = np.where(big, 1e-250, 1.0)
                jc, jp, norm, out = jc * scale, jp * scale, norm * scale, out * scale
            if idx in starts:
                jc = np.where(top == idx, 1e-30, jc)
        elif abs(jc) > 1e250:
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
# cancellation noise, which would violate the 1e-8 identity bound, so the
# coefficients and the Horner state are carried in double-double precision.
# ---------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    return _quick_two_sum(p, e + xh * yl + xl * yh)


def _dd_div_scalar(xh, xl, d):
    q1 = xh / d
    p, e = _two_prod(q1, d)
    s, e2 = _two_sum(xh, -p)
    return _quick_two_sum(q1, (s + (e2 + xl - e)) / d)


def _horner_step(sh, sl, z, zh, zl, ch, cl):
    """(sh + sl) * z + (ch + cl) in double-double, with z = zh + zl split
    once by the caller; written out in one body, since the scalar path
    calls it once per term."""
    p = sh * z
    t = _SPLITTER * sh
    hh = t - (t - sh)
    hl = sh - hh
    e = ((hh * zh - p) + hh * zl + hl * zh) + hl * zl + sl * z
    s = p + ch
    bb = s - p
    e = (p - (s - bb)) + (ch - bb) + e + cl
    h = s + e
    return h, e - (h - s)


def _check_denominators(dens):
    for b in dens:
        if not math.isfinite(b):
            raise ValueError(f"denominator parameter must be finite, got {b!r}")
        if b <= 0.0 and b == int(b):
            raise ValueError(
                f"denominator parameter {b!r} is a non-positive integer; "
                "the series is undefined"
            )


# Digits the double-double sum carries: it is exact to about 2**-100 of
# the largest term, so a sum smaller than that term by a factor near
# 2**100 * 1e-12 has lost all but 12 significant digits to cancellation.
_DD_EPS = 2.0 ** -100
_CANCELLATION_TOL = 1e-12
# Truncation policy: summation stops once two consecutive terms drop below
# _SERIES_TOL * max(1, |partial sum|); a series that has not stopped within
# _MAX_TERMS terms raises ConvergenceError.  On the gain curves the
# cancellation test rejects every argument past x ~ 54 (1F2 from x ~ 50.7),
# before either budget is reached.
_MAX_TERMS = 400
_SERIES_TOL = 1e-15
# Term indices per step of the array forward pass, and the unit in which a
# coefficient table grows.
_BLOCK = 32


class _Coefficients:
    """The coefficients C_n = prod (a)_n / (prod (b)_n * n!) of one parameter
    set, grown in blocks as far as a call needs them.

    ``ratio[n]`` is C_{n+1} / C_n in plain doubles.  C_n underflows past
    n ~ 100 (2F3(1/2,1/2; 1,1,3/2; -b^2) needs about 110 terms near b = 25),
    so it is kept as a double-double mantissa ``hi[n]`` + ``lo[n]`` (|hi| in
    [1/2, 1), or zero) times 2**e_n, with ``scale[n]`` = 2**(e_{n+1} - e_n).
    The mantissas follow the double-double recurrence C_{n+1} = C_n *
    prod(a + n) / prod(b + n) / (n + 1) in that order, renormalised each
    step, which is exact.
    """

    def __init__(self, nums, dens):
        self.nums, self.dens = nums, dens
        self.ratio, self.scale = [], []
        self.hi, self.lo = [1.0], [0.0]

    def grow(self, size):
        """Extend the table to at least ``size`` ratios (whole blocks, at most
        _MAX_TERMS)."""
        h, l = self.hi[-1], self.lo[-1]
        for n in range(len(self.ratio), min(-(-size // _BLOCK) * _BLOCK, _MAX_TERMS)):
            fn = float(n)
            num, den = 1.0, 1.0
            for a in self.nums:
                num *= a + fn
                h, l = _dd_mul(h, l, a + fn, 0.0)
            for b in self.dens:
                den *= b + fn
                h, l = _dd_div_scalar(h, l, b + fn)
            h, l = _dd_div_scalar(h, l, fn + 1.0)
            e = math.frexp(h)[1]
            h, l = math.ldexp(h, -e), math.ldexp(l, -e)
            self.ratio.append(num / (den * (fn + 1.0)))
            self.scale.append(math.ldexp(1.0, e))
            self.hi.append(h)
            self.lo.append(l)


# The analysis uses three parameter sets; the bound keeps a caller that
# sweeps the parameters from growing memory without limit.
@functools.lru_cache(maxsize=16)
def _coefficients(nums, dens):
    return _Coefficients(nums, dens)


def _forward(tab, z: float):
    """The stop rule on the plain-double terms t_{n+1} = t_n * (z * ratio[n]):
    (index of the last term summed, or 0 if the sum does not stop within
    _MAX_TERMS terms or is not finite where it stops; largest term up to
    it; plain partial sum)."""
    t = total = peak = 1.0
    was_small = False
    n = 0
    for start in range(0, _MAX_TERMS, _BLOCK):
        tab.grow(start + _BLOCK)
        for r in tab.ratio[start:start + _BLOCK]:
            n += 1
            t = t * (z * r)
            total = total + t
            mag = abs(t)
            if mag > peak:
                peak = mag
            size = abs(total)
            # _SERIES_TOL * max(1, |total|), written out for speed
            small = mag <= (_SERIES_TOL * size if size > 1.0 else _SERIES_TOL)
            if small and was_small:
                return (n if math.isfinite(total) else 0), peak, total
            was_small = small
    return 0, peak, total


def _forward_array(tab, z):
    """_forward for each element of a 1-D array: (last term indices, with 0
    where the sum does not stop or is not finite where it stops; largest
    terms).  Each block of _BLOCK term indices is one cumulative product and
    one cumulative sum per element, which accumulate in index order as the
    scalar loop does; elements that have stopped leave the next block."""
    top = np.zeros(z.size, dtype=np.intp)
    peak = np.ones(z.size)
    live = np.arange(z.size)
    t = total = biggest = np.ones(z.size)
    was_small = np.zeros(z.size, dtype=bool)
    for start in range(0, _MAX_TERMS, _BLOCK):
        if not live.size:
            break
        tab.grow(start + _BLOCK)
        terms = np.multiply.outer(z, tab.ratio[start:start + _BLOCK])
        terms[:, 0] *= t
        np.multiply.accumulate(terms, axis=1, out=terms)
        sums = terms.copy()
        sums[:, 0] += total
        np.add.accumulate(sums, axis=1, out=sums)
        t, total = terms[:, -1].copy(), sums[:, -1].copy()
        mags = np.abs(terms, out=terms)
        peaks = np.maximum.accumulate(mags, axis=1)
        np.maximum(peaks, biggest[:, None], out=peaks)
        tol = np.abs(sums, out=sums)  # finite where the sum is
        np.maximum(1.0, tol, out=tol)
        small = mags <= np.multiply(_SERIES_TOL, tol, out=tol)
        stop = small & np.concatenate((was_small[:, None], small[:, :-1]), axis=1)
        rows = np.flatnonzero(stop.any(axis=1))
        col = stop[rows].argmax(axis=1)
        top[live[rows]] = np.where(np.isfinite(tol[rows, col]), start + 1 + col, 0)
        peak[live[rows]] = peaks[rows, col]
        rest = np.ones(live.size, dtype=bool)
        rest[rows] = False
        live, z, was_small = live[rest], z[rest], small[rest, -1]
        t, total, biggest = t[rest], total[rest], peaks[rest, -1]
    return top, peak


def _horner(tab, z, top):
    """sum_{n <= top} C_n z^n by Horner from the top in double-double, for a
    float z, or for each element of a 1-D array z from its own top.  The
    state starts as C_top's mantissa; each step takes state * z * 2**(e_{n+1}
    - e_n) + C_n's mantissa, with z times each power of two split once.  An
    array element is set to its top coefficient when its turn comes, so it
    takes exactly the steps of its scalar call."""
    vec = isinstance(z, np.ndarray)
    if vec:
        first = int(top.max(initial=0))
        starts = set(top.tolist())
        sh, sl = np.zeros(z.size), np.zeros(z.size)
    else:
        first = top
        sh, sl = tab.hi[top], tab.lo[top]
    zh, zl = _split(z)
    scaled = {}
    for n in range(first, -1, -1):
        if n < first:
            s = tab.scale[n]
            if s not in scaled:
                scaled[s] = (z * s, zh * s, zl * s)
            sh, sl = _horner_step(sh, sl, *scaled[s], tab.hi[n], tab.lo[n])
        if vec and n in starts:
            new = top == n
            sh[new] = tab.hi[n]
            sl[new] = tab.lo[n]
    return sh + sl


def _hyp_series(nums, dens, z):
    # The coefficients do not depend on z, so each parameter set has one
    # table of them (_Coefficients).  A forward pass over the plain-double
    # terms gives each element its last term (the stop rule) and its largest
    # term (the cancellation test); Horner then sums in double-double from
    # that last term down, each array element from its own, with zero state
    # before it.  Horner takes the mantissas and folds the powers of two into
    # its multiplier; power-of-two scaling is exact, so the bits are those of
    # Horner on the true C_n, and each array element equals its scalar call.
    tab = _coefficients(nums, dens)
    if not isinstance(z, np.ndarray):
        top, peak, total = _forward(tab, z)
        if top:
            total = _horner(tab, z, top)
        if not top or not math.isfinite(total):
            raise ConvergenceError(
                f"hypergeometric series did not converge within {_MAX_TERMS} terms "
                f"(z={z!r})",
                partial=total,
                terms=top or _MAX_TERMS,
            )
        if peak * _DD_EPS > _CANCELLATION_TOL * max(1.0, abs(total)):
            raise ConvergenceError(
                f"hypergeometric series lost precision to cancellation "
                f"(z={z!r}: peak term {peak:.3g}, sum {total:.3g})",
                partial=total,
                terms=top,
            )
        return total
    flat = z.ravel()
    # a diverging element overflows on the way; it is reported below, by
    # the scalar call on the first failing element, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        top, peak = _forward_array(tab, flat)
        total = _horner(tab, flat, top)
        failed = (top == 0) | ~np.isfinite(total) | (
            peak * _DD_EPS > _CANCELLATION_TOL * np.maximum(1.0, np.abs(total)))
    if failed.any():
        # on its own, the first failing element raises the scalar's error
        _hyp_series(nums, dens, float(flat[failed][0]))
        raise RuntimeError("an array element failed where its scalar call did not")
    return total.reshape(z.shape)


def hypergeom_1f2(a: float, b1: float, b2: float, z):
    """Generalized hypergeometric 1F2(a; b1, b2; z), entire in z.

    ``z`` may be an array; the series stops per element."""
    z = _argument(z, "z")
    _check_denominators((b1, b2))
    return _hyp_series((float(a),), (float(b1), float(b2)), z)


def hypergeom_2f3(a1: float, a2: float, b1: float, b2: float, b3: float, z):
    """Generalized hypergeometric 2F3(a1, a2; b1, b2, b3; z), entire in z.

    ``z`` may be an array; the series stops per element."""
    z = _argument(z, "z")
    _check_denominators((b1, b2, b3))
    return _hyp_series((float(a1), float(a2)), (float(b1), float(b2), float(b3)), z)


# ---------------------------------------------------------------------------
# Inversion of g(x) = 1F2(1/2; 1, 3/2; -x^2/4) on its first monotone branch
# ---------------------------------------------------------------------------


def _gain_curve(x):
    return hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * x * x)


def _newton(h, dh, lo, hi, x):
    """Root of ``h`` in [lo, hi], given h(lo) > 0 >= h(hi), by Newton steps
    from ``x``.  ``dh(x, h(x))`` is the derivative; it only steers the steps,
    so the root is as accurate as ``h``.  Each value of h moves one end of
    the bracket to x, and a step that would leave the bracket halves it
    instead.  A step below 1e-12 * x is the last one taken: the next would
    be below rounding."""
    while True:
        v = h(x)
        lo, hi = (x, hi) if v > 0.0 else (lo, x)
        d = dh(x, v)
        step = v / d if d else math.inf
        if abs(step) < 1e-12 * x:
            return x - step
        x = x - step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # no double left between the ends
                return x


@functools.cache
def _first_minimum():
    """(x, g(x)) at the first local minimum of the gain curve; it does not
    depend on the inversion target, so it is found once.  Since g = (1/x)
    integral_0^x J0, g'(x) = (J0(x) - g(x)) / x, so the minimum is the root
    of h = g - J0 on [3.9, 7.0], and h' = J1 - h/x."""
    x_min = _newton(lambda x: _gain_curve(x) - bessel_j(0, x),
                    lambda x, v: bessel_j(1, x) - v / x, 3.9, 7.0, 5.9)
    return x_min, _gain_curve(x_min)


def inverse_1f2_threshold(target: float) -> float:
    """Smallest x >= 0 with 1F2(1/2; 1, 3/2; -x^2/4) = target.

    ``g(x) = (1/x) integral_0^x J0`` decreases from g(0) = 1 to its first
    local minimum (about 0.117 near x = 5.88) and oscillates after that;
    only the first branch is inverted, by _newton with g' = (J0 - g) / x
    from sqrt(12 (1 - target)), as g is about 1 - x^2/12 near 0.  Raises
    :class:`UnbracketableError` for targets below that minimum and
    ``ValueError`` outside (0, 1].
    """
    target = float(target)
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target must lie in (0, 1], got {target!r}")
    if target == 1.0:
        return 0.0

    x_min, g_min = _first_minimum()
    if target < g_min:
        raise UnbracketableError(
            f"target {target!r} is below the first local minimum "
            f"{g_min:.12g} of the gain curve (at x = {x_min:.6g}); "
            "only the first monotone branch is invertible"
        )
    return _newton(lambda x: _gain_curve(x) - target,
                   lambda x, v: (bessel_j(0, x) - (v + target)) / x,
                   0.0, x_min, min(math.sqrt(12.0 * (1.0 - target)), x_min))


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature
# ---------------------------------------------------------------------------


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton steps on P_n from the cosine guesses, with P_n and P_n' from the
    three-term recurrence, and w = 2 / ((1 - x^2) P_n'(x)^2).  (LAPACK's eigh
    of the Jacobi matrix would load about 0.4 MB of library pages that no
    other stage uses, and numpy.polynomial 0.9 MB.)  The guesses are within
    1e-3 of the nodes, so six steps reach rounding."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p_prev, p = np.ones(n), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# The 12-point rule.  On an arch of J0 between zeros (at most about pi long),
# 6 nodes put the band average 2e-10 off; from 8 on, rules of every size agree
# to the rounding of the J0 values (1e-15 for b < 8, 5e-14 past the power
# series' noise on [8, 12]).
_GL_NODES, _GL_WEIGHTS = _gauss_legendre(12)
_MAX_PANELS = 4096


def integrate(f, lo, hi, tol: float = 1e-10):
    """Integral of ``f`` over [lo, hi] by the 12-point Gauss-Legendre rule on
    1, 2, 4, ... equal panels, until two successive estimates agree within
    the absolute ``tol``; past _MAX_PANELS panels a :class:`ConvergenceError`
    carries the last estimate in ``partial``.  ``f`` maps a float to a float
    and is called on Python floats; ``lo`` and ``hi`` are scalars."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    for limit in (lo, hi):
        if np.ndim(limit) != 0:
            raise ValueError(
                f"integration limits must be scalars, got shape {np.shape(limit)}"
            )
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if lo > hi:
        raise ValueError(f"lower limit {lo!r} exceeds upper limit {hi!r}")
    panels, previous = 1, None
    while True:
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        nodes = ((edges[:-1] + half)[:, None] + half[:, None] * _GL_NODES).ravel().tolist()
        values = np.array([float(f(t)) for t in nodes])
        finite = np.isfinite(values)
        if not finite.all():
            i = int(finite.argmin())  # the first node where f is not finite
            raise ValueError(f"integrand is not finite at t={nodes[i]!r} (value {values[i]!r})")
        estimate = float(half @ (values.reshape(panels, -1) @ _GL_WEIGHTS))
        if previous is not None and abs(estimate - previous) <= tol:
            return estimate
        if panels >= _MAX_PANELS:
            raise ConvergenceError(
                f"quadrature did not reach tolerance {tol!r} on [{lo!r}, {hi!r}] "
                f"within {_MAX_PANELS} panels", partial=estimate)
        panels, previous = 2 * panels, estimate
