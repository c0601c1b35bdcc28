"""Special functions behind the closed-form gain expressions.

Bessel functions of the first kind, the paper's three generalized
hypergeometric instances, inversion of the 1F2 gain curve on its first
monotone branch, and ``integrate``, the 12-point Gauss-Legendre rule on
doubling numbers of equal panels.

The hypergeometric instances are

    1F2(1/2; 1, 3/2; -x^2/4)           = (1/x) * integral_0^x J0(t) dt
    2F3(1/2, 1/2; 1, 3/2, 3/2; -x^2/4) = (1/x) * integral_0^x 1F2(1/2; 1, 3/2; -t^2/4) dt
    2F3(1/2, 1/2; 1, 1, 3/2; -x^2)     = (1/x) * integral_0^x J0(t)^2 dt

and ``hypergeom_1f2``/``hypergeom_2f3`` take only these parameter sets, for
z <= 0.  Each is a sum over the Bessel values J_n(x) at the endpoint x, so
one downward Miller recurrence with compensated sums and one division gives
it to a few ulps at every x (see _miller_form); the test suite checks each
identity against quadrature and each value against mpmath.  The recurrence
is the same for all three: one pass over an array of arguments gives every
form a caller asks for (_hypergeoms), each with the bits of its own call.

A Miller recurrence (these, and ``bessel_j`` above |x| = 12) takes about
x + 10*sqrt(x) steps.  One whose start would pass _MILLER_STEPS = 65,536
raises ConvergenceError, naming the argument, before it takes a step.

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
    """A recurrence or a quadrature would not meet its tolerance within its
    budget."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


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
    ``x`` may be an array: both methods stop per element.  Floats and arrays
    take one abs(x), and the parity rule J_n(-x) = (-1)^n J_n(x) negates odd
    orders where x < 0 (so J_n(-0.0) = J_n(0.0)).
    """
    if isinstance(order, bool) or order != int(order) or order < 0:
        raise ValueError(f"order must be a non-negative integer, got {order!r}")
    n = int(order)
    x = _argument(x, "argument")
    ax = abs(x)
    if isinstance(x, float):  # Python floats throughout
        j = _bessel_series(n, ax) if ax <= _SERIES_CUTOFF else _bessel_miller((n,), ax)[0]
        return -j if n % 2 and x < 0.0 else j
    j = np.empty(ax.shape)
    near = ax <= _SERIES_CUTOFF
    j[near] = _bessel_series(n, ax[near])
    j[~near] = _bessel_miller((n,), ax[~near])[0]
    return np.where(x < 0.0, -j, j) if n % 2 else j


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


# The largest start order of a Miller recurrence: a bound on the steps one
# value takes.  Arguments up to 2,100 start below order 2,600.
_MILLER_STEPS = 2 ** 16


def _miller_start(far, floor, arg, name):
    """The even start order int(far) + 1 + int(10*sqrt(far)) + floor of a
    Miller recurrence up to the order or argument ``far`` (per element of
    an array).  A start past _MILLER_STEPS raises ConvergenceError naming
    the argument ``name`` = ``arg`` (an array's first such element).  A
    scalar takes the same start by math.floor and math.sqrt, as an int."""
    if isinstance(far, np.ndarray):
        top = np.floor(far) + np.floor(10.0 * np.sqrt(far)) + (floor + 1)
        top += top % 2
        over = np.ravel(top > _MILLER_STEPS)
        first = float(np.ravel(arg)[over][0]) if over.any() else None
    else:
        top = math.floor(far) + math.floor(10.0 * math.sqrt(far)) + (floor + 1)
        top += top % 2
        first = float(arg) if top > _MILLER_STEPS else None
    if first is not None:
        raise ConvergenceError(f"a Miller recurrence at {name}={first!r} "
                               f"would take more than {_MILLER_STEPS} steps")
    return top.astype(np.int64) if isinstance(far, np.ndarray) else top


def _start_groups(top):
    """{start order: the indices of the elements that start there}, from
    slices of a stable argsort of a non-empty ``top``."""
    order = np.argsort(top, kind="stable")
    tops = top[order]
    cut = np.flatnonzero(tops[1:] != tops[:-1]) + 1
    lo, hi = np.concatenate(([0], cut)).tolist(), np.concatenate((cut, [top.size])).tolist()
    return {t: order[a:b] for t, a, b in zip(tops[lo].tolist(), lo, hi)}


def _bessel_miller(orders, x, floor=0):
    """(J_n(x) for n in orders) from one downward Miller pass.  The
    recurrence does not depend on n; only its start, from max(x, the
    largest order) plus ``floor`` more orders, and the steps at which it is
    read do.  So where x is at least every order, each value has the bits
    of a pass for its order alone.  A floor of 20 puts J0 and J1 within
    6e-16 of mpmath on (1e-6, 2100]."""
    # Downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started well above
    # the turning point so the unnormalized solution is dominated by J.  An
    # array element starts at its own top (its state is zero before, which
    # the recurrence keeps at zero) and is rescaled on its own.
    vec = isinstance(x, np.ndarray)
    if vec and x.size == 0:
        return tuple(0.0 * x for _ in orders)
    n_max = max(orders)
    top = _miller_start(np.maximum(x, n_max) if vec else max(n_max, x), floor, x, "x")
    jp = 0.0 * x  # J~_{k+1}
    norm = 0.0 * x  # accumulates J~_0 + 2 * sum_{t>=1} J~_{2t}
    out = {n: 0.0 * x for n in orders}
    if vec:
        starts = _start_groups(top)
        first = max(starts)
        jc = 0.0 * x  # J~_k
        jc[starts[first]] = 1e-30
        # bound >= max(|J~_k|, |J~_{k+1}|) over the elements: a step multiplies
        # it by at most 2k/x_min + 1, so |J~| > 1e250 can hold only once it
        # passes 1e249 (a factor 10 above the rounding of the bound)
        x_min, bound = float(x.min()), 1e-30
    else:
        first, jc = top, 1e-30
    for k in range(first, 0, -1):
        jm = (2.0 * k) / x * jc - jp
        jp = jc
        jc = jm
        idx = k - 1
        if idx in out:
            out[idx] = jc
        if idx >= 2 and idx % 2 == 0:
            norm = norm + 2.0 * jc
        elif idx == 0:
            norm = norm + jc
        if vec:
            bound *= (2.0 * k) / x_min + 1.0
            if bound > 1e249:
                big = np.abs(jc) > 1e250
                if big.any():
                    scale = np.where(big, 1e-250, 1.0)
                    jc, jp, norm = jc * scale, jp * scale, norm * scale
                    out = {n: v * scale for n, v in out.items()}
                bound = float(max(np.abs(jc).max(), np.abs(jp).max()))
            if idx in starts:
                # a start comes before idx reaches an order, so jc is none
                # of out's arrays
                jc[starts[idx]] = 1e-30
                bound = max(bound, 1e-30)
        elif abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            out = {n: v * 1e-250 for n, v in out.items()}
    return tuple(out[n] / norm for n in orders)


# ---------------------------------------------------------------------------
# The paper's 1F2 and 2F3 from one downward Miller pass
# ---------------------------------------------------------------------------

# The form _miller_form sums for each instance, by its sorted (numerator,
# denominator) parameters; and each form's c, with w = -c*z the square of
# its x.
_FORMS = {((0.5,), (1.0, 1.5)): "1F2",
          ((0.5, 0.5), (1.0, 1.5, 1.5)): "2F3",
          ((0.5, 0.5), (1.0, 1.0, 1.5)): "J0^2"}
_SCALE = {"1F2": 4.0, "2F3": 4.0, "J0^2": 1.0}
# Below x = 2**-28 each form is 1 - O(x^2) with x^2 < 2**-56, which rounds to
# 1.0.  Above it, started from _SEED at order x + 10*sqrt(x) + 20 (at most
# _MILLER_STEPS), the unnormalized Bessel values stay between 1e-80 and
# 1e93, so their squares neither overflow nor underflow and no step needs
# a rescale.
_TINY_X = 2.0 ** -28
_SEED = 2.0 ** -400
_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    """a + b and its rounding error, exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quotient(a, a_lo, b, b_lo):
    """(a + a_lo) / (b + b_lo) by one division, corrected by the residual
    a - q*b, which one error-free (Dekker) product gives exactly."""
    q = a / b
    p = q * b
    t = _SPLITTER * q
    qh = t - (t - q)
    t = _SPLITTER * b
    bh = t - (t - b)
    e = ((qh * bh - p) + qh * (b - bh) + (q - qh) * bh) + (q - qh) * (b - bh)
    return q + (((a - p) - e) + a_lo - q * b_lo) / b


def _hypergeom(nums, dens, z):
    for b in dens:  # a set the series is not defined for says so
        if not math.isfinite(b):
            raise ValueError(f"denominator parameter must be finite, got {b!r}")
        if b <= 0.0 and b == int(b):
            raise ValueError(f"denominator parameter {b!r} is a non-positive integer; "
                             "the series is undefined")
    key =(tuple(sorted(map(float, nums))), tuple(sorted(map(float, dens))))
    if key not in _FORMS:
        raise ValueError(
            f"only 1F2(1/2; 1, 3/2; z), 2F3(1/2, 1/2; 1, 3/2, 3/2; z) and "
            f"2F3(1/2, 1/2; 1, 1, 3/2; z) are implemented, got parameters {key}")
    return _hypergeoms([(_FORMS[key], z)])[0]


def _hypergeoms(pairs):
    """The values of several (form, z) pairs, each of the shape of its z,
    from one Miller pass: every distinct w = -c*z of the pairs goes through
    it once, and the pass sums every form a pair asks for.  Each value has
    the bits of its own call.  The pairs are checked in order before the
    pass, and the first bad z, or start past the step budget, raises.  If
    every z is 0-d, each pair is a pass over Python floats, returning a
    float."""
    if all(np.ndim(z) == 0 for _, z in pairs):
        return [_scalar_form(form, z) for form, z in pairs]
    parts, ws, tops = [], [], []
    for form, z in pairs:
        z = np.asarray(_argument(z, "z"))
        positive = np.ravel(z)[np.ravel(z) > 0.0]
        if positive.size:
            raise ValueError(f"z must be <= 0, got {float(positive[0])!r}")
        c = _SCALE[form]
        x = math.sqrt(c) * np.sqrt(-z)
        live = x >= _TINY_X
        tops.append(_miller_start(x[live], 20, z[live], "z"))  # before w = -c*z can overflow
        ws.append(-c * z[live])
        parts.append((form, z.shape, live))
    w, sums = np.concatenate(ws), {}
    if w.size:
        # each distinct w once, ascending (equal w have equal x, so equal
        # starts); np.unique would load code that nothing else runs
        order = np.argsort(w, kind="stable")
        new = np.concatenate(([True], w[order[1:]] != w[order[:-1]]))
        distinct = w[order[new]]
        inverse = np.searchsorted(distinct, w)
        forms = {form for form, _, live in parts if live.any()}
        sums = _miller_form(forms, distinct, np.concatenate(tops)[order[new]])
    out, at = [], 0
    for form, shape, live in parts:
        value = np.ones(shape)
        n = int(np.count_nonzero(live))
        if n:
            value[live] = sums[form][inverse[at:at + n]]
        out.append(float(value) if value.ndim == 0 else value)
        at += n
    return out


def _scalar_form(form, z):
    """One form at a 0-d z, by a pass over Python floats."""
    z = _argument(z, "z")
    if z > 0.0:
        raise ValueError(f"z must be <= 0, got {z!r}")
    c = _SCALE[form]
    x = math.sqrt(c) * math.sqrt(-z)
    if x < _TINY_X:
        return 1.0
    return _miller_form({form}, -c * z, _miller_start(x, 20, z, "z"))[form]


def _miller_form(forms, w, top):
    """The instances named in ``forms`` at w = x^2 > 0, {form: value}, by
    one downward Miller pass, each element (of a 1-D array w) from its own
    even start ``top``.

    With P_k = J_k(x)/x at odd k and Q_k = J_k(x) at even k, the recurrence
    J_{k-1} = (2k/x) J_k - J_{k+1} reads Q_{k-1} = 2k P_k - Q_{k+1} and
    P_{k-1} = 2k Q_k / w - P_{k+1}: it takes w, which is exact from z, and
    not x.  Compensated sums keep what the forms need:

    * 1F2(1/2; 1, 3/2; -x^2/4) = (1/x) int_0^x J0 = 2 T_0 / N, with the
      tails T_k = sum_{i>=k} P_{2i+1};
    * 2F3(1/2, 1/2; 1, 3/2, 3/2; -x^2/4), the mean of that curve over
      [0, x], = 2 sum_k (T_k + T_{k+1}) / (2k + 1) / N;
    * 2F3(1/2, 1/2; 1, 1, 3/2; -x^2) = (1/x) int_0^x J0^2
      = sum_j (J_j^2 + J_{j+1}^2) / (2j + 1) / M, summed as
      J_0^2 + sum_{j>=1} 4j / (4j^2 - 1) J_j^2;

    normalized by N = J0 + 2 sum_k J_{2k} = 1 or, for the squares, by
    M = J0^2 + 2 sum_{j>=1} J_j^2 = 1.  The two 1/2; 3/2 forms share the
    tails and N; each form's result is one _quotient of its own sums, so
    it has the bits of a pass for it alone."""
    vec = isinstance(w, np.ndarray)
    squares, means = "J0^2" in forms, "2F3" in forms
    tails = means or "1F2" in forms
    q, p = 0.0 * w, 0.0 * w  # Q_j and P_{j+1}
    num = num_lo = den = den_lo = tail = tail_lo = t = 0.0 * w
    sq = sq_lo = norm = norm_lo = 0.0 * w
    if vec:
        starts = _start_groups(top)
        first = max(starts)
    else:
        first, q = top, _SEED
    for j in range(first, 0, -2):
        if vec and j in starts:
            q[starts[j]] = _SEED
        p_new = (2.0 * j) * q / w - p  # P_{j-1}
        if squares:
            for k, s in ((j, q * q), (j - 1, w * p_new * p_new)):
                sq, e = _two_sum(sq, (4.0 * k / (4.0 * k * k - 1.0)) * s)
                sq_lo = sq_lo + e
                norm, e = _two_sum(norm, s)
                norm_lo = norm_lo + e
        if tails:
            den, e = _two_sum(den, q)
            den_lo = den_lo + e
            tail, e = _two_sum(tail, p_new)
            tail_lo = tail_lo + e
            if means:  # T_k + T_{k+1} over 2k + 1 = j - 1
                old, t = t, tail + tail_lo
                num, e = _two_sum(num, (old + t) / (j - 1.0))
                num_lo = num_lo + e
        q, p = (2.0 * j - 2.0) * p_new - q, p_new
    # q is Q_0 = J_0: close the normalizations
    out = {}
    if squares:
        s = q * q
        sq, e = _two_sum(sq, s)
        norm, e2 = _two_sum(2.0 * norm, s)
        out["J0^2"] = _quotient(sq, sq_lo + e, norm, 2.0 * norm_lo + e2)
    if tails:
        den, e = _two_sum(2.0 * den, q)
        den_lo = 2.0 * den_lo + e
        if "1F2" in forms:
            out["1F2"] = _quotient(2.0 * tail, 2.0 * tail_lo, den, den_lo)
        if means:
            out["2F3"] = _quotient(2.0 * num, 2.0 * num_lo, den, den_lo)
    return out


def hypergeom_1f2(a: float, b1: float, b2: float, z):
    """1F2(1/2; 1, 3/2; z) = (1/x) int_0^x J0, x = 2 sqrt(-z), for z <= 0:
    the one parameter set of the paper; others raise ``ValueError``, as does
    z > 0.  ``z`` may be an array (see _miller_form)."""
    return _hypergeom((a,), (b1, b2), z)


def hypergeom_2f3(a1: float, a2: float, b1: float, b2: float, b3: float, z):
    """2F3(1/2, 1/2; 1, 3/2, 3/2; z), the band average of the 1F2 curve, or
    2F3(1/2, 1/2; 1, 1, 3/2; z) = (1/x) int_0^x J0^2, x = sqrt(-z), for
    z <= 0: the two parameter sets of the paper; others raise
    ``ValueError``, as does z > 0.  ``z`` may be an array."""
    return _hypergeom((a1, a2), (b1, b2, b3), z)


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


# The 12-point rule, exact for polynomials of degree up to 23.
_GL_NODES, _GL_WEIGHTS = _gauss_legendre(12)
_MAX_PANELS = 4096


def integrate(f, lo, hi, tol: float = 1e-10):
    """Integral of ``f`` over [lo, hi] by the 12-point Gauss-Legendre rule on
    1, 2, 4, ... equal panels, until two successive estimates agree within
    the absolute ``tol`` (positive and finite); past _MAX_PANELS panels a
    :class:`ConvergenceError` carries the last estimate in ``partial``.
    ``f`` maps a float to a float and is called on Python floats; ``lo``
    and ``hi`` are scalars."""
    if not (tol > 0.0 and math.isfinite(tol)):  # an infinite tol takes any two estimates
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
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
