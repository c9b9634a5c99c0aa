"""wavefront._scalar against SciPy.

The Brent ports evaluate at the same points and return the same floats.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from wavefront._scalar import brentq, minimize_bounded


def recorded(f):
    """f, and the list it appends each evaluation point to."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def bits(xs):
    return [float(x).hex() for x in xs]


def outcome(call):
    """The returned float as hex, or the type and text of the raised error."""
    try:
        return float(call()).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def monotone(root, k, w, sign):
    return lambda x: sign * (math.expm1(k * (x - root)) + w * (x - root) ** 3)


def concave(top, a, w, k, m):
    return lambda x: top - a * (x - m) ** 2 - w * math.exp(k * (x - m))


def stepped(f, quantum):
    """f rounded to multiples of quantum: flat steps give ties and exact zeros."""
    if not quantum:
        return f
    return lambda x: quantum * round(f(x) / quantum)


quanta = st.sampled_from([0.0, 0.0, 1e-3, 0.25])


coords = st.floats(min_value=-20.0, max_value=20.0)
widths = st.floats(min_value=1e-3, max_value=30.0)
rates = st.floats(min_value=0.05, max_value=5.0)
as_float64 = st.booleans()


def ends(lo, hi, wrap):
    return (np.float64(lo), np.float64(hi)) if wrap else (lo, hi)


@settings(max_examples=300, deadline=None)
@given(root=coords, left=widths, right=widths, k=rates,
       w=st.floats(min_value=0.0, max_value=2.0), sign=st.sampled_from([1.0, -1.0]),
       xtol=st.sampled_from([1e-14, 2e-12, 1e-6, 0.1]),
       rtol=st.sampled_from([4 * np.finfo(float).eps, 8.9e-16, 1e-10]),
       maxiter=st.sampled_from([0, 3, 8, 100]), quantum=quanta, wrap=as_float64)
def test_brentq_matches_scipy_on_monotone_functions(root, left, right, k, w, sign, xtol,
                                                    rtol, maxiter, quantum, wrap):
    f = stepped(monotone(root, k, w, sign), quantum)
    a, b = ends(root - left, root + right, wrap)
    g1, ours = recorded(f)
    g2, theirs = recorded(f)
    got = outcome(lambda: brentq(g1, a, b, xtol, rtol, maxiter))
    want = outcome(lambda: optimize.brentq(g2, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter))
    assert got == want
    assert bits(ours) == bits(theirs)


@settings(max_examples=300, deadline=None)
@given(top=st.floats(min_value=1e-3, max_value=10.0), a=rates,
       w=st.floats(min_value=0.0, max_value=0.45), k=rates, m=coords,
       reverse=st.booleans(), quantum=quanta, wrap=as_float64)
def test_brentq_matches_scipy_on_concave_functions(top, a, w, k, m, reverse, quantum, wrap):
    # the left zero of a concave function, bracketed by a point far left and
    # the peak region, where g(m) >= top / 2 > 0
    f = stepped(concave(top, a, w * top, k, m), quantum)
    lo, hi = ends(m - math.sqrt(top / a) - 1.0, m, wrap)
    if reverse:
        lo, hi = hi, lo
    g1, ours = recorded(f)
    g2, theirs = recorded(f)
    got = outcome(lambda: brentq(g1, lo, hi, xtol=1e-14, rtol=8.9e-16))
    want = outcome(lambda: optimize.brentq(g2, lo, hi, xtol=1e-14, rtol=8.9e-16))
    assert got == want
    assert bits(ours) == bits(theirs)


def minimize_both(f, lo, hi, xatol, maxiter):
    g1, ours = recorded(f)
    g2, theirs = recorded(f)
    x, fx = minimize_bounded(g1, lo, hi, xatol, maxiter)
    res = optimize.minimize_scalar(g2, bounds=(lo, hi), method="bounded",
                                   options={"xatol": xatol, "maxiter": maxiter})
    assert bits([x, fx]) == bits([res.x, res.fun])
    assert bits(ours) == bits(theirs)


xatols = st.sampled_from([1e-11, 1e-8, 1e-5, 0.1])
maxiters = st.sampled_from([1, 4, 500])


@settings(max_examples=300, deadline=None)
@given(top=st.floats(min_value=-5.0, max_value=5.0), a=rates,
       w=st.floats(min_value=0.0, max_value=3.0), k=rates, m=coords,
       lo=coords, width=widths, xatol=xatols, maxiter=maxiters, quantum=quanta,
       wrap=as_float64)
def test_minimize_bounded_matches_scipy_on_concave_functions(top, a, w, k, m, lo, width,
                                                             xatol, maxiter, quantum, wrap):
    f = concave(top, a, w, k, m)
    minimize_both(stepped(lambda x: -f(x), quantum), *ends(lo, lo + width, wrap), xatol,
                  maxiter)


@settings(max_examples=150, deadline=None)
@given(root=coords, k=rates, w=st.floats(min_value=0.0, max_value=2.0),
       sign=st.sampled_from([1.0, -1.0]), lo=coords, width=widths,
       xatol=xatols, maxiter=maxiters, quantum=quanta, wrap=as_float64)
def test_minimize_bounded_matches_scipy_on_monotone_functions(root, k, w, sign, lo, width,
                                                              xatol, maxiter, quantum, wrap):
    # the minimum sits at an end of the interval
    f = stepped(monotone(root, k, w, sign), quantum)
    minimize_both(f, *ends(lo, lo + width, wrap), xatol, maxiter)


def test_brentq_returns_a_python_float_and_takes_floats():
    seen = []
    root = brentq(lambda x: seen.append(x) or x - 0.3, np.float64(0.0), 1, xtol=1e-12)
    assert type(root) is float
    assert {type(x) for x in seen} == {float}


def steep(x):
    return math.exp(x) - 1.5


@pytest.mark.parametrize("f, a, b, kwargs, error", [
    (lambda x: x + 2.0, 0.0, 1.0, {}, ValueError),
    (lambda x: 1e-200, 0.0, 1.0, {}, ValueError),
    (lambda x: math.nan, 0.0, 1.0, {}, ValueError),
    (lambda x: math.nan if x > 0.5 else x - 0.3, 0.0, 1.0, {}, ValueError),
    (steep, 0.0, 3.0, {"xtol": 0.0}, ValueError),
    (steep, 0.0, 3.0, {"xtol": -1e-12}, ValueError),
    (steep, 0.0, 3.0, {"rtol": 1e-16}, ValueError),
    (steep, 0.0, 3.0, {"maxiter": -1}, ValueError),
    (steep, 0.0, 3.0, {"maxiter": 0}, RuntimeError),
    (steep, 0.0, 3.0, {"maxiter": 3}, RuntimeError),
], ids=["same-sign", "same-sign-tiny", "nan-at-a", "nan-inside", "xtol-zero",
        "xtol-negative", "rtol-below-4eps", "maxiter-negative", "maxiter-zero",
        "maxiter-hit"])
def test_brentq_raises_as_scipy_does(f, a, b, kwargs, error):
    opts = {"xtol": 2e-12, **kwargs}
    with pytest.raises(error) as ours:
        brentq(f, a, b, **opts)
    with pytest.raises(error) as theirs:
        optimize.brentq(f, a, b, **opts)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("scale", [1e-150, 1e-300])
def test_brentq_matches_scipy_where_steps_divide_by_an_underflowed_zero(scale):
    # the extrapolation denominator is a product of three O(scale) factors;
    # it underflows to 0, and C division then gives inf or NaN, not an error
    f = lambda x: scale * (x ** 3 - 0.3)
    g1, ours = recorded(f)
    g2, theirs = recorded(f)
    assert bits([brentq(g1, 0.0, 1.0, xtol=1e-14)]) == bits(
        [optimize.brentq(g2, 0.0, 1.0, xtol=1e-14)])
    assert bits(ours) == bits(theirs)


def test_brentq_zero_at_an_end_returns_that_end():
    assert brentq(lambda x: x, 0.0, 1.0, xtol=1e-12) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-12) == 1.0


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan),
                                    (2.0, 1.0)])
def test_minimize_bounded_rejects_bad_bounds(lo, hi):
    with pytest.raises(ValueError) as ours:
        minimize_bounded(abs, lo, hi, xatol=1e-5)
    with pytest.raises(ValueError) as theirs:
        optimize.minimize_scalar(abs, bounds=(lo, hi), method="bounded")
    assert str(ours.value) == str(theirs.value)
