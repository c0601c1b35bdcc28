"""Special-function kernels: Bessel, hypergeometric, inversion, quadrature."""

import math

import numpy as np
import pytest
import scipy.special
import mpmath

from ucabeam.specfun import (
    ConvergenceError,
    QuadratureError,
    SeriesControl,
    UnbracketableError,
    bessel_j,
    hypergeom_1f2,
    hypergeom_2f3,
    integrate,
    inverse_1f2_threshold,
)

J0_FIRST_ZERO = 2.404825557695773


# ---------------------------------------------------------------------------
# bessel_j
# ---------------------------------------------------------------------------


def test_bessel_matches_scipy_across_orders_and_arguments():
    xs = np.linspace(0.0, 40.0, 401)
    worst = max(
        abs(bessel_j(n, float(x)) - scipy.special.jv(n, float(x)))
        for n in range(0, 7)
        for x in xs
    )
    assert worst <= 1e-11


def test_bessel_small_argument_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(3, 0.0) == 0.0
    # J0(1) and J1(1) to full precision
    assert bessel_j(0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-14)
    assert bessel_j(1, 1.0) == pytest.approx(0.44005058574493355, abs=1e-14)


def test_bessel_parity():
    for n in range(4):
        for x in (0.3, 1.7, 5.2, 19.4):
            assert bessel_j(n, -x) == pytest.approx(
                (-1.0) ** n * bessel_j(n, x), abs=1e-12
            )


def test_bessel_three_term_recurrence():
    # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
    for x in (0.7, 3.1, 8.9, 24.6):
        for n in (1, 2, 5):
            lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
            rhs = 2.0 * n / x * bessel_j(n, x)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_bessel_first_zero_of_j0():
    assert abs(bessel_j(0, J0_FIRST_ZERO)) <= 1e-10
    # bracketing sign change
    assert bessel_j(0, J0_FIRST_ZERO - 1e-3) > 0.0
    assert bessel_j(0, J0_FIRST_ZERO + 1e-3) < 0.0


def test_bessel_rejects_bad_order():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)


# ---------------------------------------------------------------------------
# hypergeometric series
# ---------------------------------------------------------------------------


def test_hypergeom_1f2_matches_mpmath():
    mpmath.mp.dps = 40
    for x in np.linspace(0.1, 30.0, 60):
        ref = float(mpmath.hyp1f2(0.5, 1.0, 1.5, -0.25 * x * x))
        assert hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * x * x) == pytest.approx(
            ref, abs=1e-10, rel=1e-10
        )


def test_hypergeom_2f3_matches_mpmath():
    mpmath.mp.dps = 40
    for x in np.linspace(0.1, 30.0, 60):
        ref = float(mpmath.hyp2f3(0.5, 0.5, 1.0, 1.5, 1.5, -0.25 * x * x))
        assert hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, -0.25 * x * x) == pytest.approx(
            ref, abs=1e-10, rel=1e-10
        )


def test_hypergeom_at_zero_is_one():
    assert hypergeom_1f2(0.5, 1.0, 1.5, 0.0) == 1.0
    assert hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, 0.0) == 1.0


def test_1f2_equals_running_mean_of_j0():
    # 1F2(1/2; 1, 3/2; -x^2/4) == (1/x) * integral_0^x J0(t) dt
    for x in (0.5, 2.0, 5.5, 11.0, 19.0, 30.0):
        quad = integrate(lambda t: bessel_j(0, t), 0.0, x, tol=1e-12) / x
        assert abs(hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * x * x) - quad) <= 1e-8


def test_2f3_equals_running_mean_of_1f2():
    # 2F3(1/2,1/2; 1,3/2,3/2; -x^2/4) == (1/x) * integral_0^x 1F2(-t^2/4) dt
    for x in (0.5, 2.0, 5.5, 11.0, 19.0, 30.0):
        quad = (
            integrate(
                lambda t: hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * t * t), 0.0, x,
                tol=1e-12,
            )
            / x
        )
        assert abs(
            hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, -0.25 * x * x) - quad
        ) <= 1e-8


def test_2f3_second_form_equals_running_mean_of_j0_squared():
    # 2F3(1/2,1/2; 1,1,3/2; -x^2) == (1/x) * integral_0^x J0(t)^2 dt
    for x in (0.5, 2.0, 4.0, 8.0):
        quad = integrate(lambda t: bessel_j(0, t) ** 2, 0.0, x, tol=1e-12) / x
        assert abs(hypergeom_2f3(0.5, 0.5, 1.0, 1.0, 1.5, -x * x) - quad) <= 1e-8


def test_1f2_positive_on_working_range():
    # the arc-gain kernel never crosses zero, so |.| wrappers are no-ops
    vals = [hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * x * x) for x in np.linspace(0, 30, 3001)]
    assert min(vals) > 0.0


def test_hypergeom_diverges_cleanly_for_large_argument():
    with pytest.raises(ConvergenceError, match="did not converge"):
        hypergeom_1f2(0.5, 1.0, 1.5, -250000.0)


def test_hypergeom_raises_when_cancellation_eats_the_digits():
    # the terms peak above 1e24 at x = 70, far beyond what double-double
    # terms can cancel down to an O(0.1) sum; a larger term budget must not
    # hide that
    loose = SeriesControl(max_terms=2000)
    for x in (70.0, 100.0):
        with pytest.raises(ConvergenceError, match="cancellation"):
            hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * x * x, ctrl=loose)
        with pytest.raises(ConvergenceError, match="cancellation"):
            hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, -0.25 * x * x, ctrl=loose)


def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(max_terms=0)
    with pytest.raises(ValueError):
        SeriesControl(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesControl(abs_tol=-1e-3)


def test_tighter_control_extends_reach():
    # more terms converge arguments the default budget rejects
    mpmath.mp.dps = 40
    x = 45.0
    loose = SeriesControl(max_terms=2000)
    ref = float(mpmath.hyp1f2(0.5, 1.0, 1.5, -0.25 * x * x))
    assert hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * x * x, ctrl=loose) == pytest.approx(
        ref, abs=1e-8, rel=1e-8
    )


# ---------------------------------------------------------------------------
# inverse_1f2_threshold
# ---------------------------------------------------------------------------


def test_inverse_at_one_is_zero():
    assert inverse_1f2_threshold(1.0) == 0.0


def test_inverse_at_0p6_frozen_value():
    x = inverse_1f2_threshold(0.6)
    assert x == pytest.approx(2.4496368341532797, abs=1e-9)
    assert x == pytest.approx(2.45, abs=1e-2)


def test_inverse_residual_small():
    for target in (0.9, 0.6, 0.3, 0.2):
        x = inverse_1f2_threshold(target)
        assert abs(hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * x * x) - target) <= 1e-10


def test_inverse_is_monotone_in_target():
    xs = [inverse_1f2_threshold(t) for t in (0.95, 0.8, 0.6, 0.4, 0.2)]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_inverse_rejects_unreachable_targets():
    # first local minimum of the kernel is about 0.167: below that the
    # first decreasing branch never reaches the target
    with pytest.raises(UnbracketableError):
        inverse_1f2_threshold(0.1)
    with pytest.raises(ValueError):
        inverse_1f2_threshold(0.0)
    with pytest.raises(ValueError):
        inverse_1f2_threshold(1.2)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_constant():
    assert integrate(lambda t: 1.0, 0.0, 2.0) == pytest.approx(2.0, abs=1e-14)


def test_integrate_odd_function_cancels():
    assert integrate(lambda t: t ** 3, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_integrate_polynomial_exact():
    # Simpson is exact for cubics
    assert integrate(lambda t: t * t, 0.0, 3.0) == pytest.approx(9.0, abs=1e-12)


def test_integrate_j0_to_first_zero():
    val = integrate(lambda t: bessel_j(0, t), 0.0, J0_FIRST_ZERO, tol=1e-12)
    # frozen from the running-mean identity: x * 1F2(1/2; 1, 3/2; -x^2/4)
    ident = J0_FIRST_ZERO * hypergeom_1f2(
        0.5, 1.0, 1.5, -0.25 * J0_FIRST_ZERO * J0_FIRST_ZERO
    )
    assert val == pytest.approx(ident, abs=1e-9)
    assert val == pytest.approx(1.4703000433841784, abs=1e-9)


def test_integrate_degenerate_interval_is_zero():
    assert integrate(lambda t: 5.0, 1.0, 1.0) == 0.0


def test_integrate_validates_limits_and_tol():
    with pytest.raises(ValueError):
        integrate(lambda t: 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda t: 1.0, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate(lambda t: 1.0, 0.0, 1.0, tol=0.0)


def test_integrate_raises_with_best_estimate_when_budget_spent():
    # billions of oscillations cannot be resolved: the split budget runs out
    # and the error carries the best available estimate instead of stalling
    with pytest.raises(QuadratureError) as info:
        integrate(lambda t: abs(math.cos(t)), 0.0, 1e9, tol=1e-9)
    best = info.value.best
    assert best is not None and math.isfinite(best)
    # true value is (2/pi)*1e9; the folded estimate is the right magnitude
    assert 0.3e9 <= best <= 1.0e9
