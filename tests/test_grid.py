"""Grid construction, exact-moment quadrature, and norms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bn6.grid import (
    RadialFn,
    ball_volume,
    differentiate,
    hat_moments,
    make_core_grid,
    make_grid,
    sphere_area,
)

from oracles import geometric_grid, h1_norm, integrate, lp_norm


def _grid(dim, n, ratio):
    # a uniform grid at ratio 1, else a geometrically graded one
    return make_grid(dim, n) if ratio == 1.0 else geometric_grid(dim, n, ratio)


def test_sphere_area_closed_forms():
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)
    assert sphere_area(5) == pytest.approx(8.0 * math.pi ** 2 / 3.0, rel=1e-15)
    assert sphere_area(6) == pytest.approx(math.pi ** 3, rel=1e-15)


def test_ball_volume_n6():
    assert ball_volume(6) == pytest.approx(math.pi ** 3 / 6.0, rel=1e-15)


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
@pytest.mark.parametrize("grading,ratio", [("uniform", 1.0), ("geometric", 200.0)])
def test_constants_integrate_exactly(dim, grading, ratio):
    g = _grid(dim, 257, ratio)
    assert (grading == "uniform") == (ratio == 1.0)
    one = RadialFn.from_values(g, np.ones(len(g.nodes)))
    assert integrate(one) == pytest.approx(ball_volume(dim), rel=1e-14)


def test_linear_integrand_exact():
    # f(r) = r is reproduced by the piecewise-linear interpolant, so the
    # product trapezoid rule is exact: int_{B_1} r dx = omega_6 / 7
    g = geometric_grid(6, 64, 50.0)
    f = RadialFn.from_values(g, g.nodes.copy())
    assert integrate(f) == pytest.approx(sphere_area(6) / 7.0, rel=1e-14)


def _exact_hat_moments(nodes, p):
    # the per-cell moments of the linear hats in rational arithmetic on
    # the same (binary) nodes
    r = [Fraction(x) for x in nodes]
    out = [Fraction(0)] * len(r)
    for i, (a, b) in enumerate(zip(r, r[1:])):
        m0 = (b ** (p + 1) - a ** (p + 1)) / (p + 1)
        m1 = (b ** (p + 2) - a ** (p + 2)) / (p + 2)
        out[i] += (b * m0 - m1) / (b - a)
        out[i + 1] += (m1 - a * m0) / (b - a)
    return out


@settings(max_examples=100, deadline=None)
@given(n=st.integers(16, 256), dim=st.integers(3, 6),
       ratio=st.one_of(st.just(1.0), st.floats(1.5, 200.0)),
       centrifugal=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_hat_moments_integrate_piecewise_linear_exactly(n, dim, ratio,
                                                         centrifugal, seed):
    g = _grid(dim, n, ratio)
    p = dim - 3 if centrifugal else dim - 1
    exact = _exact_hat_moments(g.nodes, p)
    f = np.random.default_rng(seed).standard_normal(len(g.nodes))
    # int f r^p dr for the piecewise-linear f through the node values
    want = sum(Fraction(fi) * wi for fi, wi in zip(f, exact))
    got = Fraction(float(np.dot(hat_moments(g.nodes, p), f)))
    # b^{p+1} - a^{p+1} and b m0 - m1 cancel in a cell [a, b] of width
    # h, so a weight carries a rounding error of about u (b/h)^2
    u = np.finfo(float).eps / 2
    amplification = float(np.max(g.nodes[1:] / np.diff(g.nodes))) ** 2
    size = sum(abs(Fraction(fi)) * wi for fi, wi in zip(f, exact))
    assert abs(got - want) <= 4 * u * amplification * size


def test_quadrature_second_order():
    exact = sphere_area(6) * quad(lambda r: math.sin(3 * r) * r ** 5, 0, 1)[0]
    errs = []
    for n in (64, 128, 256):
        g = make_grid(6, n)
        f = RadialFn.from_values(g, np.sin(3 * g.nodes))
        errs.append(abs(integrate(f) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_geometric_grading_ratio():
    g = geometric_grid(6, 200, 300.0)
    h = np.diff(g.nodes)
    assert h[-1] / h[0] == pytest.approx(300.0, rel=1e-10)
    assert np.all(np.diff(h) > 0)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0


def test_core_grid_resolves_scale():
    mu = 3e-3
    g = make_core_grid(6, mu, h_over_scale=1.0 / 40.0)
    h = np.diff(g.nodes)
    assert h[0] <= mu / 40.0 * (1 + 1e-12)
    # fine spacing maintained through the core region
    core = g.nodes[:-1] < 5 * mu
    assert np.all(h[core] <= mu / 40.0 * (1 + 1e-12))
    assert g.nodes[-1] == 1.0
    one = RadialFn.from_values(g, np.ones(len(g.nodes)))
    assert integrate(one) == pytest.approx(ball_volume(6), rel=1e-13)


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(6, 8)
    with pytest.raises(ValueError):
        make_grid(2, 64)
    with pytest.raises(ValueError):
        geometric_grid(6, 64, 0.5)
    with pytest.raises(ValueError):
        geometric_grid(6, 8, 2.0)


def test_radialfn_length_mismatch():
    g = make_grid(6, 32)
    with pytest.raises(ValueError):
        RadialFn.from_values(g, np.ones(5))


def test_lp_norms():
    g = make_grid(6, 512)
    f = RadialFn.from_values(g, np.full(len(g.nodes), -2.0))
    assert lp_norm(f, 2) == pytest.approx(2.0 * math.sqrt(ball_volume(6)), rel=1e-14)
    assert lp_norm(f, np.inf) == pytest.approx(2.0)
    assert lp_norm(f, 1.5) == pytest.approx((2.0 ** 1.5 * ball_volume(6)) ** (2.0 / 3.0),
                                            rel=1e-13)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_lp_norm_scaling_property():
    rng = np.random.default_rng(7)
    g = make_grid(6, 64)
    for _ in range(50):
        vals = rng.normal(size=len(g.nodes))
        c = rng.uniform(-5, 5)
        f = RadialFn.from_values(g, vals)
        cf = RadialFn.from_values(g, c * vals)
        for p in (1.0, 1.5, 2.0, 3.0, np.inf):
            assert lp_norm(cf, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12, abs=1e-300)


def test_integrate_linearity():
    rng = np.random.default_rng(11)
    g = geometric_grid(5, 48, 30.0)
    a = rng.normal(size=len(g.nodes))
    b = rng.normal(size=len(g.nodes))
    fa = RadialFn.from_values(g, a)
    fb = RadialFn.from_values(g, b)
    fab = RadialFn.from_values(g, 2.0 * a - 3.0 * b)
    assert integrate(fab) == pytest.approx(2 * integrate(fa) - 3 * integrate(fb),
                                           rel=1e-12, abs=1e-13)


def test_differentiate_exact_on_quadratics():
    g = geometric_grid(6, 100, 40.0)
    vals = 2.0 * g.nodes ** 2 - 3.0 * g.nodes + 1.0
    d = differentiate(g.nodes, vals)
    assert np.allclose(d, 4.0 * g.nodes - 3.0, rtol=1e-10, atol=1e-10)


def test_differentiate_second_order():
    errs = []
    for n in (100, 200):
        g = make_grid(6, n)
        vals = np.sin(2.0 * g.nodes)
        d = differentiate(g.nodes, vals)
        errs.append(np.max(np.abs(d - 2.0 * np.cos(2.0 * g.nodes))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_h1_norm_against_closed_form():
    # u = 1 - r^2 on B_1, N = 6: int |u'|^2 = omega_6 int 4 r^7 = pi^3 / 2,
    # int u^2 = omega_6 int (1-r^2)^2 r^5 = pi^3 (1/6 - 2/8 + 1/10) = pi^3/60
    g = make_grid(6, 2000)
    u = RadialFn(g, 1.0 - g.nodes ** 2, -2.0 * g.nodes)
    assert h1_norm(u, lam_weight=1.0) ** 2 == pytest.approx(
        math.pi ** 3 / 2.0 + math.pi ** 3 / 60.0, rel=1e-6)
