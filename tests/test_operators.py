"""Sector operator assembly, Dirichlet solves, spectra."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal, get_lapack_funcs
from scipy.optimize import brentq
from scipy.special import jn_zeros, jv

from bn6 import operators
from bn6.errors import NearSingularError, NotConvergedError
from bn6.grid import RadialFn, make_grid
from bn6.operators import (
    BACKWARD_ERROR_TOL,
    NEAR_SINGULAR_RTOL,
    STURM_TOL,
    OperatorSpec,
    assemble,
    min_singular_value,
    solve_dirichlet,
)

from oracles import apply_operator, geometric_grid, weak_apply

# First Dirichlet eigenvalue of -Delta on B_1 in R^N is the squared first
# zero of J_{N/2-1}; half-integer orders (N odd) via brentq on jv.
LAMBDA1 = {
    3: math.pi ** 2,
    4: jn_zeros(1, 1)[0] ** 2,
    5: brentq(lambda x: jv(1.5, x), 3.2, 6.0) ** 2,
    6: jn_zeros(2, 1)[0] ** 2,
}


def _richardson(dim, index, sector=0):
    """The sector's index-th FEM eigenvalue of -Delta, Richardson-
    extrapolated from 512 and 1024 cells (second order in h)."""
    coarse, fine = (assemble(OperatorSpec(make_grid(dim, n), sector=sector))
                    .eigenvalues(index)[index - 1] for n in (512, 1024))
    return (4.0 * fine - coarse) / 3.0


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_lambda1_matches_bessel(dim):
    assert _richardson(dim, 1) == pytest.approx(LAMBDA1[dim], rel=1e-9)


def test_higher_radial_eigenvalues_n6():
    zeros = jn_zeros(2, 3)
    for m in (2, 3):
        got = _richardson(6, m)
        assert got == pytest.approx(zeros[m - 1] ** 2, rel=1e-8)


@pytest.mark.parametrize("sector,order", [(1, 3), (2, 4)])
def test_sector_eigenvalues_n6(sector, order):
    # sector l shifts the Bessel order to N/2 - 1 + l
    got = _richardson(6, 1, sector)
    assert got == pytest.approx(jn_zeros(order, 1)[0] ** 2, rel=1e-9)


def test_sector_eigenvalues_sorted_and_counted():
    g = make_grid(6, 256)
    vals = assemble(OperatorSpec(g)).eigenvalues(5)
    assert len(vals) == 5
    assert np.all(np.diff(vals) > 0)


def test_poisson_ball_n6():
    # -Delta u = 1 on B_1 in R^6 gives u = (1 - r^2) / 12
    g = make_grid(6, 512)
    one = RadialFn.from_values(g, np.ones(len(g.nodes)))
    u = solve_dirichlet(OperatorSpec(g), one)
    assert np.max(np.abs(u.values - (1.0 - g.nodes ** 2) / 12.0)) < 5e-6
    assert u.values[-1] == 0.0
    assert u.derivative[0] == 0.0


def test_poisson_second_order():
    errs = []
    for n in (128, 256, 512):
        g = make_grid(6, n)
        one = RadialFn.from_values(g, np.ones(len(g.nodes)))
        u = solve_dirichlet(OperatorSpec(g), one)
        errs.append(np.max(np.abs(u.values - (1.0 - g.nodes ** 2) / 12.0)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_manufactured_solution_with_potential():
    # u = 1 - r^2, L = -Delta - lam - q with q = r^2, lam = 3:
    # L u = 12 - (3 + r^2)(1 - r^2)
    g = geometric_grid(6, 1024, 20.0)
    r = g.nodes
    op = OperatorSpec(g, sector=0, lam=3.0, potential=r ** 2)
    rhs = RadialFn.from_values(g, 12.0 - (3.0 + r ** 2) * (1.0 - r ** 2))
    u = solve_dirichlet(op, rhs)
    assert np.max(np.abs(u.values - (1.0 - r ** 2))) < 2e-5


def test_apply_operator_consistency():
    # quadratic in r^2 is reproduced exactly by the pointwise stencils
    g = geometric_grid(6, 512, 40.0)
    r = g.nodes
    op = OperatorSpec(g, sector=0, lam=3.0, potential=r ** 2)
    u = RadialFn.from_values(g, 1.0 - r ** 2)
    lu = apply_operator(op, u)
    exact = 12.0 - (3.0 + r ** 2) * (1.0 - r ** 2)
    # stencils reproduce quadratics; the floor is value-sampling roundoff
    # at the origin, eps * u / r_1^2
    assert np.max(np.abs(lu[:-1] - exact[:-1])) < 1e-7
    assert lu[-1] == 0.0


def test_apply_operator_smooth_convergence():
    # u = cos(pi r / 2) at N = 6, sector 1:
    # L u = (pi^2/4) cos + (5 pi / (2 r)) sin + (5 / r^2) cos
    errs = []
    for n in (256, 512):
        g = make_grid(6, n)
        r = g.nodes
        u = RadialFn.from_values(g, np.cos(np.pi * r / 2.0), regular_origin=False)
        lu = apply_operator(OperatorSpec(g, sector=1), u)
        with np.errstate(divide="ignore", invalid="ignore"):
            exact = (np.pi ** 2 / 4.0) * np.cos(np.pi * r / 2.0) \
                + (5.0 * np.pi / (2.0 * r)) * np.sin(np.pi * r / 2.0) \
                + (5.0 / r ** 2) * np.cos(np.pi * r / 2.0)
        errs.append(np.max(np.abs(lu[1:-1] - exact[1:-1])))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_discrete_duality():
    rng = np.random.default_rng(3)
    g = geometric_grid(5, 64, 10.0)
    m = g.cell_masses()
    op = OperatorSpec(g, sector=2, lam=1.5, potential=np.cos(g.nodes))
    for _ in range(25):
        a = rng.normal(size=len(g.nodes))
        b = rng.normal(size=len(g.nodes))
        a[0] = a[-1] = b[0] = b[-1] = 0.0  # sector 2 kills the origin node
        fa = RadialFn.from_values(g, a)
        fb = RadialFn.from_values(g, b)
        la = weak_apply(op, fa)
        lb = weak_apply(op, fb)
        lhs = float(np.dot(m * la, b))
        rhs = float(np.dot(m * a, lb))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-12


# random operators for the property suites: a uniform or geometric grid,
# a Gaussian well, and lam below, inside or (on coarse grids) above the
# spectrum
random_operators = dict(
    n=st.integers(16, 256), dim=st.integers(3, 6), sector=st.integers(0, 4),
    ratio=st.one_of(st.just(1.0), st.floats(1.5, 200.0)),
    depth=st.floats(0.0, 200.0), width=st.floats(0.05, 1.0),
    lam=st.floats(-1e4, 1e5), seed=st.integers(0, 2 ** 32 - 1))


def _grid(dim, n, ratio):
    return make_grid(dim, n) if ratio == 1.0 else geometric_grid(dim, n, ratio)


def _random_operator(n, dim, sector, ratio, depth, width, lam):
    g = _grid(dim, n, ratio)
    q = depth * np.exp(-(g.nodes / width) ** 2)
    return OperatorSpec(g, sector=sector, lam=lam, potential=q)


@settings(max_examples=100, deadline=None)
@given(**random_operators)
def test_discrete_duality_random_grids(n, dim, sector, ratio, depth, width,
                                       lam, seed):
    op = _random_operator(n, dim, sector, ratio, depth, width, lam)
    m = op.grid.cell_masses()
    a, b = np.random.default_rng(seed).standard_normal((2, n + 1))
    a[-1] = b[-1] = 0.0
    if sector > 0:
        a[0] = b[0] = 0.0
    la = weak_apply(op, RadialFn.from_values(op.grid, a))
    lb = weak_apply(op, RadialFn.from_values(op.grid, b))
    # <M L a, b> = <a, M L b> up to the rounding of two length-n sums
    size = np.dot(m * np.abs(la), np.abs(b)) + np.dot(m * np.abs(a), np.abs(lb))
    u = np.finfo(float).eps / 2
    assert abs(np.dot(m * la, b) - np.dot(m * a, lb)) <= n * u * size


@settings(max_examples=100, deadline=None)
@given(**random_operators)
def test_solve_then_weak_apply_round_trip(n, dim, sector, ratio, depth, width,
                                          lam, seed):
    op = _random_operator(n, dim, sector, ratio, depth, width, lam)
    asm = assemble(op)
    assume(asm.min_singular(lam) >= 2 * NEAR_SINGULAR_RTOL * asm.scale())
    g = np.random.default_rng(seed).standard_normal(n + 1)
    x = solve_dirichlet(op, RadialFn.from_values(op.grid, g))
    # weak_apply's flux form recomputes A x by another route; at the
    # unknown nodes M (L x - g) is the residual of a backward-stable solve
    idx = asm.idx
    m = asm.masses
    res = m * (weak_apply(op, x) - g)[idx]
    d, e = asm.shifted(lam)
    row = np.abs(d)
    row[:-1] += np.abs(e)
    row[1:] += np.abs(e)
    size = np.max(row) * np.max(np.abs(x.values)) + np.max(np.abs(m * g[idx]))
    assert np.max(np.abs(res)) <= BACKWARD_ERROR_TOL * size


def test_near_singular_raises():
    g = make_grid(6, 256)
    nu1 = assemble(OperatorSpec(g)).eigenvalues(1)[0]
    one = RadialFn.from_values(g, np.ones(len(g.nodes)))
    with pytest.raises(NearSingularError):
        solve_dirichlet(OperatorSpec(g, lam=float(nu1)), one)


def test_min_singular_value_matches_spectrum():
    g = make_grid(6, 256)
    lam = 10.0
    vals = assemble(OperatorSpec(g)).eigenvalues(4)
    expect = float(np.min(np.abs(vals - lam)))
    assert min_singular_value(OperatorSpec(g, lam=lam)) == pytest.approx(expect, rel=1e-9)
    asm = assemble(OperatorSpec(g, lam=lam))
    assert asm.min_singular(lam) == pytest.approx(expect, rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(16, 512), dim=st.integers(3, 6), sector=st.integers(0, 5),
       ratio=st.one_of(st.just(1.0), st.floats(1.5, 200.0)),
       depth=st.floats(0.0, 200.0), width=st.floats(0.05, 1.0),
       where=st.sampled_from(["below", "inside", "above"]),
       pick=st.floats(0.0, 1.0), frac=st.floats(0.0, 1.0))
def test_min_singular_value_matches_full_spectrum(n, dim, sector, ratio, depth,
                                                  width, where, pick, frac):
    g = _grid(dim, n, ratio)
    q = depth * np.exp(-(g.nodes / width) ** 2)
    asm = assemble(OperatorSpec(g, sector=sector, potential=q))
    vals = eigvalsh_tridiagonal(*asm.pencil)
    if where == "below":
        lam = vals[0] - pick * asm.scale()
    elif where == "above":
        lam = vals[-1] + pick * asm.scale()
    else:
        j = min(int(pick * (len(vals) - 1)), len(vals) - 2)
        lam = vals[j] + frac * (vals[j + 1] - vals[j])
    lam = float(lam)
    # oracle: every eigenvalue of the pencil, then the nearest to lam
    expect = float(np.min(np.abs(vals - lam)))
    got = min_singular_value(OperatorSpec(g, sector=sector, lam=lam, potential=q))
    assert abs(got - expect) <= 1e-12 * asm.scale()


@pytest.mark.parametrize("where", ["below", "above"])
def test_min_singular_value_outside_spectrum(where):
    # lam below every eigenvalue has Sturm count k = 0 (only the upper
    # neighbour exists); lam above the top one has k = n (only the lower)
    g = make_grid(6, 16)
    q = np.cos(g.nodes)
    asm = assemble(OperatorSpec(g, sector=1, potential=q))
    vals = eigvalsh_tridiagonal(*asm.pencil)
    lam = float(vals[0] - 3.0) if where == "below" else float(vals[-1] + 3.0)
    got = min_singular_value(OperatorSpec(g, sector=1, lam=lam, potential=q))
    assert abs(got - 3.0) <= 1e-12 * asm.scale()


def test_input_validation():
    g = make_grid(6, 64)
    with pytest.raises(ValueError):
        OperatorSpec(g, sector=-1)
    with pytest.raises(ValueError):
        OperatorSpec(g, potential=np.ones(3))
    other = make_grid(6, 32)
    one = RadialFn.from_values(other, np.ones(len(other.nodes)))
    with pytest.raises(ValueError):
        solve_dirichlet(OperatorSpec(g), one)


# ------------------------------------------- LAPACK kernels against scipy

def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1),
       split=st.floats(0.0, 1.0), select=st.sampled_from(["v", "i"]),
       tol=st.sampled_from([0.0, STURM_TOL]),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_eigvalsh_tridiagonal_matches_scipy(n, seed, split, select, tol, ends):
    # random symmetric tridiagonals, some off-diagonals zeroed so that the
    # matrix splits into blocks (repeated eigenvalues across blocks); n >= 2,
    # as bn6's calls have it (stebz's f2py wrapper refuses an empty e)
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    e = rng.standard_normal(n - 1) * (rng.random(n - 1) >= split)
    lo, hi = sorted(ends)
    if select == "v":
        bound = np.sum(np.abs(d)) + 2 * np.sum(np.abs(e)) + 1.0
        select_range = (bound * (2 * lo - 1), bound * (2 * hi - 1))
    else:
        select_range = (int(lo * (n - 1)), int(hi * (n - 1)))
    try:
        want = eigvalsh_tridiagonal(d, e, select=select,
                                    select_range=select_range, tol=tol)
    except ValueError as exc:  # stebz refuses an empty interval (lo, lo]
        with pytest.raises(ValueError) as got:
            operators.eigvalsh_tridiagonal(d, e, select, select_range, tol=tol)
        assert str(got.value) == str(exc)
        return
    got = operators.eigvalsh_tridiagonal(d, e, select, select_range, tol=tol)
    assert got.dtype == want.dtype and _hex(got) == _hex(want)


@pytest.mark.parametrize("d,e,select,select_range", [
    (np.array([1.0, np.nan, 2.0]), np.ones(2), "v", (0.0, 1.0)),
    (np.ones(3), np.array([1.0, np.inf]), "i", (0, 1)),
    (np.array([np.inf]), np.ones(0), "i", (0, 0)),
    # the id this case has always had, whatever its place in the list
    pytest.param(np.ones(4), np.ones(3), "v", (1.0, 1.0),
                 id="d4-e4-v-select_range4"),
])
def test_eigvalsh_tridiagonal_refuses_as_scipy(d, e, select, select_range):
    with pytest.raises(ValueError) as want:
        eigvalsh_tridiagonal(d, e, select=select, select_range=select_range)
    with pytest.raises(ValueError) as got:
        operators.eigvalsh_tridiagonal(d, e, select, select_range)
    assert str(got.value) == str(want.value)


def test_failed_stebz_raises_not_converged(monkeypatch):
    def stebz(d, e, *args):
        return 0, np.zeros(len(d)), None, None, 1
    monkeypatch.setattr(operators, "dstebz", stebz)
    with pytest.raises(NotConvergedError):
        assemble(OperatorSpec(make_grid(6, 64))).eigenvalues(3)
    with pytest.raises(NotConvergedError):
        min_singular_value(OperatorSpec(make_grid(6, 64), lam=10.0))


@settings(max_examples=100, deadline=None)
@given(**random_operators)
def test_factor_solve_matches_get_lapack_funcs(n, dim, sector, ratio, depth,
                                               width, lam, seed):
    # the Jacobi-scaled solve built from scipy's get_lapack_funcs routines
    asm = assemble(_random_operator(n, dim, sector, ratio, depth, width, lam))
    d, u = asm.shifted(lam)
    s = 1.0 / np.sqrt(np.maximum(np.abs(d), 1e-300))
    ds, us = d * s * s, u * s[:-1] * s[1:]
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (ds,))
    *fact, info = gttrf(us.copy(), ds, us)
    if info > 0:
        with pytest.raises(NearSingularError):
            asm.factor(lam)
        return
    rhs = np.random.default_rng(seed).standard_normal(len(d))
    x, _ = gttrs(*fact, s * rhs)
    assert _hex(asm.factor(lam)(rhs)) == _hex(s * x)
