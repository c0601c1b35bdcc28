"""Special-function kernels: Bessel, hypergeometric, inversion, quadrature."""

import math
import warnings

import numpy as np
import pytest
import scipy.special
import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucabeam import specfun
from ucabeam.specfun import (
    ConvergenceError,
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
    # a 1024-element ring takes the angular closed form to arguments near
    # 1024, so the check runs to 2100; each order is one array call
    xs = np.concatenate((np.linspace(0.0, 40.0, 401), np.linspace(40.1, 2100.0, 20600)))
    far = xs > 12.0
    for n in range(0, 7):
        err = np.abs(bessel_j(n, xs) - scipy.special.jv(n, xs))
        assert err.max() <= 1e-11
        # beyond the series range the recurrence is good to a few ulps
        assert err[far].max() <= 1e-14


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
    # True is an int to Python, but not an order
    with pytest.raises(ValueError) as info:
        bessel_j(True, 1.0)
    assert str(info.value) == "order must be a non-negative integer, got True"
    # numpy integers and integral floats name an order
    assert bessel_j(np.int64(1), 1.0) == bessel_j(1.0, 1.0) == bessel_j(1, 1.0)


def test_bessel_rejects_non_finite_arguments_naming_the_first():
    with pytest.raises(ValueError, match="got nan"):
        bessel_j(0, math.nan)
    with pytest.raises(ValueError, match="got inf"):
        bessel_j(0, np.array([1.0, math.inf, math.nan]))


def test_bessel_rescales_the_recurrence_at_high_order():
    # at an order far above x the downward recurrence grows past 1e250 before
    # it reaches J0 and is rescaled (once for these three, 10 and 2 times for
    # the underflows), in the scalar and the array loop alike
    with mpmath.workdps(50):
        for n, x in ((150, 13.0), (200, 15.0), (250, 40.0)):
            ref = mpmath.besselj(n, x)
            assert abs((bessel_j(n, x) - ref) / ref) < 1e-14
    assert bessel_j(1024, 13.0) == 0.0
    assert bessel_j(300, 12.5) == 0.0
    x = np.array([13.0, 15.0, 20.0, 40.0])
    assert np.array_equal(bessel_j(150, x), [bessel_j(150, v) for v in x.tolist()])


# points on both sides of the switch from the series to the recurrence
AROUND_SWITCH = [0.0, -0.0, 12.0, -12.0, math.nextafter(12.0, 0.0), math.nextafter(12.0, 13.0),
                 -math.nextafter(12.0, 0.0), -math.nextafter(12.0, 13.0), 11.99, 12.01, 1e-300]
# enough points for the vector loops, with zeros of J0 and J1, where the sums
# are small enough to show a term added after an element has finished
SPREAD = (np.linspace(-14.0, 14.0, 57).tolist() + np.linspace(-2100.0, 2100.0, 57).tolist()
          + [2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
             3.831705970207512, 7.015586669815619, 10.173468135062722])


@settings(max_examples=40, deadline=None)
@given(order=st.integers(0, 6),
       xs=st.lists(st.one_of(st.floats(-2100.0, 2100.0), st.floats(-14.0, 14.0)), max_size=60),
       spread=st.booleans(), two_d=st.booleans())
# past order 170 the series' factorial overflows a float, and J_n(-0.0) of
# both calls is +0.0 by the parity rule
@example(order=171, xs=[-0.0], spread=False, two_d=False)
@example(order=301, xs=[-0.0, 0.0], spread=False, two_d=False)
def test_bessel_array_equals_scalar_calls(order, xs, spread, two_d):
    # every array takes the vector path, which must give each element the
    # bits of its scalar call
    x = np.array(xs + AROUND_SWITCH + (SPREAD if spread else []))
    if two_d and x.size % 2 == 0:
        x = x.reshape(2, -1)
    got = bessel_j(order, x)
    assert got.shape == x.shape
    want = np.array([bessel_j(order, v) for v in x.ravel().tolist()]).reshape(x.shape)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=40, deadline=None)
@given(order=st.integers(0, 300),
       xs=st.lists(st.floats(12.5, 2100.0), max_size=40),
       small=st.lists(st.floats(12.5, 40.0), max_size=4))
def test_bessel_high_order_arrays_equal_scalar_calls(order, xs, small):
    # up to order 300 the recurrence grows fastest at small x: those elements
    # pass 1e250 and are rescaled while the large ones are not (at order 300
    # the first two below rescale, the last two never), and the overflow
    # test runs only at the steps where an element could pass it
    x = np.array(xs + small + [12.5, 20.0, 1500.0, 2000.0])
    got = bessel_j(order, x)
    want = [bessel_j(order, v) for v in x.tolist()]
    assert np.array_equal(got, want)


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


@settings(max_examples=20, deadline=None)
@given(xs=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40), spread=st.booleans())
def test_hypergeom_array_equals_scalar_calls(xs, spread):
    z = -0.25 * np.array(xs + (np.linspace(0.0, 50.0, 201).tolist() if spread else [])) ** 2
    for fn in (lambda v: hypergeom_1f2(0.5, 1.0, 1.5, v),
               lambda v: hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, v),
               lambda v: hypergeom_2f3(0.5, 0.5, 1.0, 1.0, 1.5, v)):
        want = [fn(v) for v in z.tolist()]
        assert np.array_equal(fn(z), want)


def test_scalar_arguments_give_python_floats():
    for x in (0.5, 2, np.float64(13.0), np.array(0.25), np.array([3.0])[0]):
        assert type(bessel_j(0, x)) is float
        assert type(hypergeom_1f2(0.5, 1.0, 1.5, -x)) is float
        assert type(hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, -x)) is float
        assert type(integrate(lambda t: t * t, 0.0, x)) is float
    assert bessel_j(0, np.array([0.5])).shape == (1,)


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
    # at x = 2*sqrt(-z) = 1e5 the Miller pass would start near order
    # 103,000, past its step budget: the call raises before any step
    with pytest.raises(ConvergenceError,
                       match=r"at z=-2500000000\.0 would take more than 65536 steps"):
        hypergeom_1f2(0.5, 1.0, 1.5, -2.5e9)
    with pytest.raises(ConvergenceError, match=r"at x=1000000\.0 would take more than"):
        bessel_j(0, 1e6)
    # where w = -4z would overflow, the budget raises first, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (-1e308, np.array([-1.0, -1e308])):
            with pytest.raises(ConvergenceError, match=r"at z=-1e\+308 would take more"):
                hypergeom_1f2(0.5, 1.0, 1.5, z)


@pytest.mark.parametrize("fn", [
    lambda z: hypergeom_1f2(0.5, 1.0, 1.5, z),
    lambda z: hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, z),
    lambda z: hypergeom_2f3(0.5, 0.5, 1.0, 1.0, 1.5, 4.0 * z),
    lambda z: bessel_j(1, 2.0 * np.sqrt(-z)),
], ids=["1F2", "2F3-U", "2F3-J2", "J1"])
def test_failing_array_element_raises_its_own_error_without_warnings(fn):
    # an array whose elements lie past the step budget from x = 9e4 on:
    # the call raises the error of the first such element's scalar call,
    # naming it, and numpy does not warn on the way
    z = -0.25 * np.concatenate(([0.5, 20.0], np.linspace(9e4, 1.1e5, 40))) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="more than 65536 steps") as info:
            fn(z)
        with pytest.raises(ConvergenceError) as alone:
            fn(float(z[2]))
    assert str(info.value) == str(alone.value)
    assert repr(info.value.partial) == repr(alone.value.partial)


def test_series_matches_mpmath_up_to_x_50():
    # the 1F2 power series' terms peak above 1e17 at x = 50, where a summed
    # series would cancel; the Miller pass keeps the 1e-8 the identities need
    mpmath.mp.dps = 40
    for x in (45.0, 50.0):
        z = -0.25 * x * x
        assert hypergeom_1f2(0.5, 1.0, 1.5, z) == pytest.approx(
            float(mpmath.hyp1f2(0.5, 1.0, 1.5, z)), abs=1e-8, rel=1e-8)
        assert hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, z) == pytest.approx(
            float(mpmath.hyp2f3(0.5, 0.5, 1.0, 1.5, 1.5, z)), abs=1e-8, rel=1e-8)


# The three series instances behind the gain curves and band averages:
# (series, its argument at x, mpmath reference, end of the built-in and
# bench range of x).
SERIES_INSTANCES = {
    "1F2(1/2; 1, 3/2; -x^2/4)": (
        lambda z: hypergeom_1f2(0.5, 1.0, 1.5, z), lambda x: -0.25 * x * x,
        lambda z: mpmath.hyp1f2(0.5, 1.0, 1.5, z), 17.0),
    "2F3(1/2, 1/2; 1, 3/2, 3/2; -x^2/4)": (
        lambda z: hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, z), lambda x: -0.25 * x * x,
        lambda z: mpmath.hyp2f3(0.5, 0.5, 1.0, 1.5, 1.5, z), 17.0),
    "2F3(1/2, 1/2; 1, 1, 3/2; -b^2)": (
        lambda z: hypergeom_2f3(0.5, 0.5, 1.0, 1.0, 1.5, z), lambda x: -x * x,
        lambda z: mpmath.hyp2f3(0.5, 0.5, 1.0, 1.0, 1.5, z), 8.6),
}


@pytest.mark.parametrize("instance", sorted(SERIES_INSTANCES))
def test_series_instance_matches_mpmath_to_rounding(instance):
    # one array call per range against mpmath at 40 digits: the rounding of
    # the quotient on the built-in range (3.7e-16, 2.8e-16 and 3.1e-16
    # measured), and 1e-14 relative beyond it, up to x = 2100, where the
    # recurrence's rounding grows with the steps (5.0e-15 for the squares)
    fn, arg, ref, built_in = SERIES_INSTANCES[instance]
    mpmath.mp.dps = 40
    for xs, bound in ((np.linspace(0.0, built_in, 689), 5e-16),
                      (np.geomspace(built_in, 2100.0, 60), 1e-14)):
        z = arg(xs)
        got = fn(z)
        want = np.array([float(ref(v)) for v in z.tolist()])
        assert np.max(np.abs(got - want) / np.abs(want)) <= bound


@settings(max_examples=30, deadline=None)
@given(xs=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-300, 2100.0)),
                   min_size=1, max_size=3))
def test_forms_match_mpmath_over_the_valid_range(xs):
    # each instance within 1e-14 relative of mpmath from x = 0 to 2100 (1.0
    # exactly at x = 0), as an array call equal to its scalar calls bit for
    # bit, and without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, arg, ref, _ in SERIES_INSTANCES.values():
            z = arg(np.array(xs))
            got = fn(z)
            assert np.array_equal(got, [fn(v) for v in z.tolist()])
            with mpmath.workdps(40):
                want = np.array([float(ref(v)) for v in z.tolist()])
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
            assert all(g == 1.0 for g, x in zip(got.tolist(), xs) if x == 0.0)


def test_forms_at_the_ends_of_the_pass():
    # below x = 2**-28 each form rounds to 1.0, which is returned without a
    # pass; from there up to near the step budget (x = 62,000 starts at
    # order 64,510) the pass runs without a rescale, its values neither
    # overflowing nor underflowing, and stays within 1e-14 of mpmath
    for x in (math.nextafter(2.0 ** -28, 0.0), 2.0 ** -28, 1e-5, 62000.0):
        for fn, arg, ref, _ in SERIES_INSTANCES.values():
            z = arg(x)
            with mpmath.workdps(40):
                want = float(ref(z))
            assert abs(fn(z) - want) <= 1e-14 * want


def test_large_positive_argument_stays_finite_and_accurate():
    # z > 0 is rejected (see test_unsupported_parameters_and_positive_z_are_rejected);
    # at large x = sqrt(-c*z) the pass runs thousands of steps, and each form
    # stays finite, within 1e-14 of mpmath and equal to its array call
    for x in (3000.0, 2e4):
        for fn, arg, ref, _ in SERIES_INSTANCES.values():
            z = arg(x)
            got = fn(z)
            assert math.isfinite(got)
            with mpmath.workdps(40):
                want = float(ref(z))
            assert abs(got - want) <= 1e-14 * want
            assert fn(np.array([z])).tolist() == [got]


def test_hypergeom_array_shapes():
    # (a 0-d argument is in test_scalar_arguments_give_python_floats)
    for fn in (lambda v: hypergeom_1f2(0.5, 1.0, 1.5, v),
               lambda v: hypergeom_2f3(0.5, 0.5, 1.0, 1.0, 1.5, v)):
        for empty in (np.array([]), np.zeros((0, 3))):
            got = fn(empty)
            assert isinstance(got, np.ndarray) and got.shape == empty.shape
        z = -np.linspace(0.0, 300.0, 12).reshape(3, 4)
        got = fn(z)
        assert got.shape == (3, 4)
        assert np.array_equal(got, [[fn(v) for v in row] for row in z.tolist()])


# both zeros and subnormals, where every form is 1.0 to rounding
TINY = [0.0, -0.0, -5e-324, -1e-300, -1e-17]


@settings(max_examples=20, deadline=None)
@given(zs=st.lists(st.one_of(st.floats(-600.0, 0.0), st.floats(-5.0, 0.0)),
                   min_size=1, max_size=40))
def test_mixed_sign_array_equals_scalar_calls(zs):
    z = np.array(zs + TINY)
    for fn in (lambda v: hypergeom_1f2(0.5, 1.0, 1.5, v),
               lambda v: hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, v),
               lambda v: hypergeom_2f3(0.5, 0.5, 1.0, 1.0, 1.5, v)):
        want = [fn(v) for v in z.tolist()]
        assert np.array_equal(fn(z), want)


# each form's public call, and c with x^2 = -c*z
PUBLIC_FORMS = {
    "1F2": (lambda z: hypergeom_1f2(0.5, 1.0, 1.5, z), 4.0),
    "2F3": (lambda z: hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 1.5, z), 4.0),
    "J0^2": (lambda z: hypergeom_2f3(0.5, 0.5, 1.0, 1.0, 1.5, z), 1.0),
}


@settings(max_examples=40, deadline=None)
@given(groups=st.lists(st.tuples(
           st.sampled_from(sorted(PUBLIC_FORMS)),
           st.lists(st.one_of(st.sampled_from([0.0, 2.0 ** -29, 2.0 ** -28, 1e-300]),
                              st.floats(0.0, 12.0), st.floats(12.0, 900.0)), max_size=12),
           st.lists(st.sampled_from([0.0, -0.0]), max_size=2)), min_size=1, max_size=5),
       shared=st.booleans())
def test_each_form_of_a_shared_pass_equals_its_own_call(groups, shared):
    # one pass over several (form, z) pairs with mixed forms, z = 0 and
    # -0.0, x below 2**-28 and arguments with different starts, and (when
    # shared) the same x in every pair: each pair gets the bits of its own
    # public call, and of that call's scalar calls
    pairs = []
    for form, xs, zeros in groups:
        x = np.array(xs + ([1.5, 2.0 ** -29, 40.0] if shared else []))
        pairs.append((form, np.concatenate((-x * x / PUBLIC_FORMS[form][1], zeros))))
    got = specfun._hypergeoms(pairs)
    assert len(got) == len(pairs)
    for (form, z), value in zip(pairs, got):
        call = PUBLIC_FORMS[form][0]
        assert value.shape == z.shape
        assert np.array_equal(value, call(z))
        assert np.array_equal(value, [call(v) for v in z.tolist()])


def test_shared_pass_of_scalars_empty_arrays_and_tiny_arguments():
    # 0-d pairs give floats; an empty array, or one with every x below
    # 2**-28, takes no pass and gives ones of its shape
    zs = (-2.25, np.float64(-0.0), np.array(-900.0))
    got = specfun._hypergeoms([(form, z) for form, z in zip(sorted(PUBLIC_FORMS), zs)])
    assert all(type(v) is float for v in got)
    assert got == [PUBLIC_FORMS[form][0](float(z)) for form, z in zip(sorted(PUBLIC_FORMS), zs)]
    tiny = -np.array([[0.0, 1e-300], [2.0 ** -60, -0.0]])
    got = specfun._hypergeoms([("1F2", tiny), ("J0^2", np.zeros((0, 2)))])
    assert np.array_equal(got[0], np.ones((2, 2))) and got[1].shape == (0, 2)
    # with a scalar beside an array, the scalar's value is still a float
    got = specfun._hypergeoms([("2F3", np.array([-1.0, -4.0])), ("2F3", -4.0)])
    assert type(got[1]) is float and got[1] == got[0][1]


def test_shared_pass_checks_its_pairs_in_order():
    # the first bad pair raises its own error, before any pass
    good = ("1F2", np.array([-1.0, -4.0]))
    over = ("J0^2", np.array([-1.0, -1e10]))  # x = 1e5, past the step budget
    with pytest.raises(ConvergenceError) as alone:
        hypergeom_2f3(0.5, 0.5, 1.0, 1.0, 1.5, over[1])
    with pytest.raises(ConvergenceError) as shared:
        specfun._hypergeoms([good, over, ("2F3", np.array([2.0]))])
    assert str(shared.value) == str(alone.value)
    with pytest.raises(ValueError, match=r"z must be <= 0, got 2.0"):
        specfun._hypergeoms([good, ("2F3", np.array([2.0])), over])


@pytest.mark.parametrize("b, message", [
    (0.0, "denominator parameter 0.0 is a non-positive integer; the series is undefined"),
    (-2.0, "denominator parameter -2.0 is a non-positive integer; the series is undefined"),
    (math.nan, "denominator parameter must be finite, got nan"),
])
def test_undefined_denominators_are_rejected(b, message):
    # a set whose series is undefined says why, before the set is looked up
    for call in (lambda: hypergeom_1f2(0.5, b, 1.5, -1.0),
                 lambda: hypergeom_2f3(0.5, 0.5, 1.0, 1.5, b, -1.0)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_unsupported_parameters_and_positive_z_are_rejected():
    # only the paper's three parameter sets are implemented, for z <= 0
    for call in (lambda: hypergeom_1f2(0.5, 2.0, 1.5, -1.0),
                 lambda: hypergeom_1f2(-2.0, 1.0, 1.5, -1.0),
                 lambda: hypergeom_1f2(math.nan, 1.0, 1.5, -1.0),
                 lambda: hypergeom_2f3(0.5, 0.5, 1.0, 1.5, 2.5, -1.0)):
        with pytest.raises(ValueError, match="are implemented, got parameters"):
            call()
    # the order of the parameters within each group does not matter
    assert hypergeom_2f3(0.5, 0.5, 1.5, 1.0, 1.5, -4.0) == hypergeom_2f3(
        0.5, 0.5, 1.0, 1.5, 1.5, -4.0)
    with pytest.raises(ValueError, match=r"z must be <= 0, got 5e-324"):
        hypergeom_1f2(0.5, 1.0, 1.5, 5e-324)
    with pytest.raises(ValueError, match=r"z must be <= 0, got 2.0"):
        hypergeom_2f3(0.5, 0.5, 1.0, 1.0, 1.5, np.array([[-1.0, 2.0], [3.0, 0.0]]))


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


def test_inverse_finds_the_first_minimum_once(monkeypatch):
    inverse_1f2_threshold(0.7)  # the first minimum of the default control is now known
    calls = []
    series = specfun.hypergeom_1f2

    def counted(*args, **kwargs):
        calls.append(args)
        return series(*args, **kwargs)

    monkeypatch.setattr(specfun, "hypergeom_1f2", counted)
    inverse_1f2_threshold(0.55)
    # only the Newton steps on g - 0.55 run, one series each (4 at 0.55)
    assert 0 < len(calls) <= 8


def _mp_gain(x):
    x = mpmath.mpf(x)
    return mpmath.hyp1f2(0.5, 1, 1.5, -x * x / 4)


G_MIN = specfun._first_minimum()[1]
_NEAR_EDGE = st.floats(min_value=1e-16, max_value=1e-9)  # 1 - 1e-16 < 1


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.floats(min_value=G_MIN, max_value=1.0, exclude_min=True, exclude_max=True),
                 _NEAR_EDGE.map(lambda d: G_MIN + d), _NEAR_EDGE.map(lambda d: 1.0 - d)))
def test_inverse_residual_is_within_rounding(target):
    # the root is as accurate as the gain curve: the exact gain at it lies
    # within 2.3e-16 of the target
    with mpmath.workdps(40):
        assert abs(_mp_gain(inverse_1f2_threshold(target)) - target) <= 2.3e-16


def test_first_minimum_is_the_root_of_g_equals_j0():
    # g' = (J0 - g) / x vanishes where g = J0
    x_min, g_min = specfun._first_minimum()
    with mpmath.workdps(40):
        root = mpmath.findroot(lambda x: _mp_gain(x) - mpmath.besselj(0, x), 5.88)
        assert abs(x_min - root) <= 1e-14
        assert abs(g_min - _mp_gain(root)) <= 2 * math.ulp(g_min)


def test_newton_halves_where_a_step_leaves_the_bracket():
    # from x = 9, Newton on atan(2 - x) steps to -62; a flat derivative
    # makes every step infinite, so the bracket halves down to adjacent doubles
    root = specfun._newton(lambda x: math.atan(2.0 - x),
                           lambda x, v: -1.0 / (1.0 + (2.0 - x) ** 2), 0.0, 10.0, 9.0)
    assert root == pytest.approx(2.0, rel=1e-15)
    step = specfun._newton(lambda x: 1.0 if x < 2.0 else -1.0, lambda x, v: 0.0, 0.0, 10.0, 9.0)
    assert step in (2.0, math.nextafter(2.0, 0.0))


def test_inverse_rejects_unreachable_targets():
    # first local minimum of the kernel is about 0.117: below that the
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
    # the 12-point rule is exact for polynomials up to degree 23
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


def test_scalar_limits_evaluate_the_integrand_on_floats():
    # every node is passed to the integrand as a Python float, so even a
    # float-only integrand works
    got = integrate(lambda t: math.exp(t), 0.0, 1.0, tol=1e-12)
    assert type(got) is float
    assert got == pytest.approx(math.e - 1.0, abs=1e-12)


def test_integrate_rejects_a_non_finite_integrand_naming_t():
    # the message names the first node, in ascending order, where the
    # integrand is not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"not finite at t=") as info:
            integrate(lambda t: math.inf if t >= 0.75 else t, 0.0, 1.0)
    t = float(str(info.value).split("t=")[1].split()[0])
    assert t == min(x for x in (0.5 + 0.5 * specfun._GL_NODES).tolist() if x >= 0.75)


def test_integrate_rejects_array_limits_naming_the_shape():
    with pytest.raises(ValueError, match=r"limits must be scalars, got shape \(2,\)"):
        integrate(lambda t: t, 0.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=r"limits must be scalars, got shape \(1, 1\)"):
        integrate(lambda t: t, [[0.0]], 1.0)


def test_integrate_validates_limits_and_tol():
    with pytest.raises(ValueError):
        integrate(lambda t: 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda t: 1.0, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate(lambda t: 1.0, 0.0, 1.0, tol=0.0)


def test_integrate_raises_with_best_estimate_when_budget_spent():
    # hundreds of millions of oscillations cannot be resolved: the panel
    # budget runs out and the error carries the last estimate instead of
    # stalling
    with pytest.raises(ConvergenceError, match="within 4096 panels") as info:
        integrate(lambda t: np.abs(np.cos(t)), 0.0, 1e9, tol=1e-9)
    last = info.value.partial
    assert last is not None and math.isfinite(last)
    # true value is (2/pi)*1e9; the aliased estimate is the right magnitude
    assert 0.3e9 <= last <= 1.0e9


@pytest.mark.parametrize("x", [0.5, 3.0, 9.0, 20.0, 30.0])
def test_integrate_matches_mpmath(x):
    with mpmath.workdps(30):
        for f, ref in (
            (lambda t: bessel_j(0, t), mpmath.j0),
            (lambda t: hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * t * t),
             lambda t: mpmath.hyp1f2(0.5, 1, 1.5, -t * t / 4)),
            (lambda t: bessel_j(0, t) ** 2, lambda t: mpmath.j0(t) ** 2),
        ):
            want = float(mpmath.quad(ref, mpmath.linspace(0, x, 8)))
            assert abs(integrate(f, 0.0, x, tol=1e-12) - want) <= 1e-12


def test_gauss_legendre_rule_matches_mpmath():
    with mpmath.workdps(40):
        # mpmath's Gauss-Legendre rule of degree 3 has 3 * 2**2 = 12 nodes
        want = sorted(mpmath.calculus.quadrature.GaussLegendre(mpmath.mp)
                      .calc_nodes(3, mpmath.mp.prec))
    nodes, weights = specfun._gauss_legendre(12)
    assert np.allclose(nodes, [float(x) for x, _ in want], rtol=0, atol=4e-16)
    assert np.allclose(weights, [float(w) for _, w in want], rtol=0, atol=4e-16)
    assert np.array_equal(specfun._GL_NODES, nodes)
    assert np.array_equal(specfun._GL_WEIGHTS, weights)
