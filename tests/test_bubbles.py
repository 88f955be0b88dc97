"""Concentration bubbles, their ball projections, and the expansion constants."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_array_max_ulp
from scipy.integrate import quad

from bn6.bubbles import (
    ALPHA6,
    GAUSS_LEGENDRE,
    GAUSS_ORDER,
    ball_integral_u,
    ball_integral_u2,
    ball_integral_u3,
    boundary_trace,
    constants,
    d1_closed_form,
    d1_quadrature,
    d2_value,
    talenti_du,
    talenti_u,
)
from bn6.grid import RadialFn, make_grid, sphere_area
from bn6.operators import OperatorSpec
from bn6.serialize import record

from oracles import apply_operator, kernel_psi0, project_bubble


def test_alpha_values():
    # the Sobolev amplitude [N(N-2)]^{(N-2)/4} at N = 6
    N = 6
    assert ALPHA6 == (N * (N - 2.0)) ** ((N - 2.0) / 4.0) == 24.0
    assert talenti_u(0.0, 1.0) == ALPHA6


def test_bubble_solves_critical_equation():
    # -Delta U = U^2 on the discrete radial Laplacian
    g = make_grid(6, 2048)
    U = RadialFn.from_values(g, talenti_u(g.nodes, 1.0))
    lu = apply_operator(OperatorSpec(g), U)
    err = np.max(np.abs(lu[:-1] - talenti_u(g.nodes[:-1], 1.0) ** 2))
    assert err / talenti_u(0.0, 1.0) ** 2 < 1e-5


def test_derivative_consistency():
    r = np.linspace(0.0, 2.0, 7)
    h = 1e-6
    fd = (talenti_u(r + h, 0.7) - talenti_u(r - h, 0.7)) / (2.0 * h)
    assert np.max(np.abs(fd - talenti_du(r, 0.7))) < 1e-7


def test_scaling_covariance():
    # U_mu(r) = mu^{-(N-2)/2} U_1(r / mu) = mu^{-2} U_1(r / mu) at N = 6
    rng = np.random.default_rng(11)
    for _ in range(50):
        mu = rng.uniform(0.05, 2.0)
        r = rng.uniform(0.0, 3.0)
        lhs = talenti_u(r, mu)
        rhs = mu ** -2.0 * talenti_u(r / mu, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_gauss_legendre_rule_is_leggauss():
    # numpy's eigensolve-and-Newton rule stays the oracle of the literals,
    # which are its bits where they were read; another host's LAPACK may
    # round its eigenvalues differently by an ulp
    nodes, weights = leggauss(GAUSS_ORDER)
    assert_array_max_ulp(GAUSS_LEGENDRE[0], nodes, maxulp=1)
    assert_array_max_ulp(GAUSS_LEGENDRE[1], weights, maxulp=1)


def test_gauss_legendre_rule_is_exact_to_degree_23():
    # host-independent: the rule is literals, and fsum rounds once
    x, w = GAUSS_LEGENDRE
    assert GAUSS_LEGENDRE.shape == (2, GAUSS_ORDER)
    assert not GAUSS_LEGENDRE.flags.writeable
    assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
    assert np.all(w > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    ulp = np.finfo(float).eps
    assert abs(math.fsum(w) - 2.0) <= 2.0 * ulp
    for k in range(2 * GAUSS_ORDER):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(w * x ** k) - exact) <= 4.0 * ulp, k
    # x^24 is the first power a 12-point rule misses
    assert abs(math.fsum(w * x ** 24) - 2.0 / 25.0) > 1e-8


def test_bubble_rejects_bad_mu():
    with pytest.raises(ValueError):
        talenti_u(0.5, 0.0)
    with pytest.raises(ValueError):
        talenti_u(0.5, -1.0)


def test_projection_is_exact():
    g = make_grid(6, 2048)
    W, c = project_bubble(g, 0.5)
    assert c == boundary_trace(0.5)
    assert W.values[-1] == 0.0
    # the shift is harmonic, so W satisfies the same equation as U
    lw = apply_operator(OperatorSpec(g), W)
    err = np.max(np.abs(lw[:-1] - talenti_u(g.nodes[:-1], 0.5) ** 2))
    assert err / talenti_u(0.0, 0.5) ** 2 < 1e-5


def test_projection_requires_n6():
    with pytest.raises(ValueError):
        project_bubble(make_grid(4, 64), 0.5)


@pytest.mark.parametrize("mu", [0.1, 0.3, 1.0])
def test_ball_integrals_match_quadrature(mu):
    cases = (
        (ball_integral_u, 1.0),
        (ball_integral_u2, 2.0),
        (ball_integral_u3, 3.0),
    )
    for closed_form, power in cases:
        ref = sphere_area(6) * quad(
            lambda r: talenti_u(r, mu) ** power * r ** 5,
            0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        assert closed_form(mu) == pytest.approx(ref, rel=1e-11)


def test_small_mu_asymptotics():
    # the whole-space limits the expansion constants come from
    assert ball_integral_u2(1e-3) / 1e-6 == pytest.approx(
        96.0 * math.pi ** 3, rel=1e-5)
    assert ball_integral_u3(1e-3) == pytest.approx(
        24.0 ** 3 * math.pi ** 3 / 60.0, rel=1e-8)


def test_d1_routes_agree():
    assert d1_closed_form() == pytest.approx(96.0 * math.pi ** 3, rel=1e-15)
    assert d1_quadrature() == pytest.approx(d1_closed_form(), rel=1e-12)


def test_dilation_kernel_is_mu_derivative():
    r = np.array([0.0, 0.3, 2.0])
    h = 1e-5
    fd = (talenti_u(r, 1.0 + h) - talenti_u(r, 1.0 - h)) / (2.0 * h)
    assert np.max(np.abs(fd - kernel_psi0(r, 1.0))) < 1e-8
    assert kernel_psi0(0.0, 1.0) == -48.0


def test_constants_registry():
    u_center = 22.469107870851314 / 2.0
    reg = constants(u_center)
    d = record(reg)
    assert d["alpha6"] == 24.0
    assert d["omega6"] == pytest.approx(math.pi ** 3, rel=1e-15)
    assert d["d1"] == pytest.approx(96.0 * math.pi ** 3, rel=1e-15)
    assert d["d1_quadrature"] == pytest.approx(d["d1"], rel=1e-12)
    assert d["d2"] == pytest.approx(d2_value(u_center), rel=1e-15)
    assert d["d2"] == pytest.approx(
        24.0 ** 1.5 * math.pi ** 3 * u_center ** 1.5, rel=1e-14)
    assert d["d2_formula"] == "alpha6^(3/2) * omega6 * |u(center)|^(3/2)"
