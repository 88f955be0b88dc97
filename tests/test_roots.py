"""bn6's Brent root against scipy.optimize.brentq, the oracle it ports."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from bn6.roots import RTOL_MIN, brentq

# the (xtol, rtol) pairs bn6 calls brentq with, and one rtol below 4 eps
TOLERANCES = ((1e-13, 1e-14), (1e-14, 1e-15), (1e-15, 1e-15),
              (RTOL_MIN, RTOL_MIN))
TOO_TIGHT = (1e-15, 2.220446049250313e-16)


def _family(kind, root, k, c):
    """Smooth functions with a sign change at root: an inflection at the
    root, one a distance c away, none, or a flat (triple) root."""
    if kind == "cubic":
        return lambda x: (x - root) * (1.0 + k * (x - root) ** 2)
    if kind == "shifted":
        return lambda x: (x - root) + k * ((x - root - c) ** 3 + c ** 3)
    if kind == "tanh":
        return lambda x: math.tanh(k * (x - root)) + 0.01 * (x - root)
    if kind == "exp":
        return lambda x: math.expm1(k * (x - root))
    if kind == "sin":
        return lambda x: math.sin(k * (x - root))
    return lambda x: math.atan(k * (x - root)) ** 3


def _run(solver, f, a, b, xtol, rtol, maxiter):
    """(outcome, evaluation points): the root's float.hex or the type of
    the exception raised."""
    points = []

    def logged(x):
        points.append(x)
        return f(x)

    try:
        root = solver(logged, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    except (ValueError, RuntimeError) as exc:
        return type(exc), points
    assert type(root) is float
    return root.hex(), points


def _assert_same(f, a, b, xtol, rtol, maxiter=100):
    want = _run(scipy_brentq, f, a, b, xtol, rtol, maxiter)
    got = _run(brentq, f, a, b, xtol, rtol, maxiter)
    assert got == want
    return got


@settings(max_examples=600, deadline=None)
@given(kind=st.sampled_from(("cubic", "shifted", "tanh", "exp", "sin",
                             "flat")),
       root=st.floats(-3.0, 3.0), k=st.floats(0.05, 40.0),
       c=st.floats(-1.0, 1.0), a=st.floats(-6.0, 6.0),
       b=st.floats(-6.0, 6.0),
       tol=st.sampled_from(TOLERANCES + (TOO_TIGHT,)),
       maxiter=st.one_of(st.just(100), st.integers(0, 6)))
def test_brentq_is_scipys_bit_for_bit(kind, root, k, c, a, b, tol, maxiter):
    # the same root to the last bit, the same points evaluated in the
    # same order, and the same exception type: a same-sign bracket, an
    # rtol below 4 eps and an exhausted maxiter included
    _assert_same(_family(kind, root, k, c), a, b, *tol, maxiter)


@pytest.mark.parametrize("a,b,tol,maxiter,raised", [
    (0.0, 1.0, TOLERANCES[0], 100, ValueError),    # same-sign bracket
    (-1.0, 3.0, TOO_TIGHT, 100, ValueError),        # rtol < 4 eps
    (-1.0, 3.0, TOLERANCES[0], 3, RuntimeError),    # maxiter exhausted
    (-1.0, 3.0, TOLERANCES[0], 100, None)])
def test_brentq_raises_as_scipy_does(a, b, tol, maxiter, raised):
    f = _family("cubic", 2.0, 1.0, 0.0)
    outcome, _ = _assert_same(f, a, b, *tol, maxiter)
    assert (outcome is raised) if raised else isinstance(outcome, str)
