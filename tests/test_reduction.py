"""Bubble ansatz assembly, reduced energies, expansion and refinement sweeps."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicHermiteSpline

from bn6 import reduction
from bn6.auxiliary import AuxProfiles, build_profiles
from bn6.bubbles import boundary_trace, constants, d1_closed_form, d2_value
from bn6.errors import (
    ConfigError,
    RadialModeViolationError,
    UnderResolvedError,
)
from bn6.grid import (RadialFn, RadialGrid, make_core_grid, make_grid,
                      sphere_area)
from bn6.reduction import (
    EDGE_MERGE_TOL,
    GAUSS_ORDER,
    MU3_RATIO,
    PAPER_MU3_RATIO,
    QUAD_CHUNK,
    DEFAULT_EPS_MAGNITUDES,
    TAU_MULTIPLIERS,
    EpsTable,
    SplineSet,
    case1_parameters,
    expansion_E,
    expansion_check,
    residual_norm,
    tau_star,
    _base_energy,
    _eps_rows,
    _mu_refined_edges,
    _panel_integral,
    _sign_crossing,
)
from bn6.serialize import record

from oracles import (ansatz_on_grid, branch_tail_ratio,
                     cubic_coefficient_probe, energy, fd_residual_norm,
                     project_bubble, reduced_energy_polynomial,
                     row_integrals_by_quad)

# tau_star(d1 |1/2 - v(0)|, d2) with v(0) of oracles.aux_profile_shot at
# rtol 3e-14 from the certificate's (lam_0, lam_0/2)
TAU_STAR_FROZEN = 0.04409648235422302


def test_tau_star_formula_and_validation():
    assert tau_star(2.0, 3.0) == pytest.approx(12.0 / 33.0, rel=1e-15)
    with pytest.raises(ValueError):
        tau_star(-1.0, 3.0)
    with pytest.raises(ValueError):
        tau_star(1.0, 0.0)


def test_tau_star_minimizes_reduced_energy():
    # the closed-form minimizer must beat every nearby competitor, and
    # the minimum value is strictly negative (the energy well exists)
    rng = np.random.default_rng(2024)
    a = rng.uniform(0.1, 10.0, size=1000)
    d2 = rng.uniform(0.1, 100.0, size=1000)
    ts = 6.0 * a / (11.0 * d2)
    best = reduced_energy_polynomial(ts, a, d2)
    assert np.all(best < 0.0)
    for mult in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0):
        other = reduced_energy_polynomial(mult * ts, a, d2)
        assert np.all(other > best)


def test_reduced_energy_polynomial_values():
    got = reduced_energy_polynomial([0.0, 1.0, 3.0], 2.0, 9.0)
    assert got == pytest.approx([0.0, -2.0 + 11.0, -18.0 + 297.0])


def test_case1_parameters(profiles):
    sign, tau = case1_parameters(profiles)
    assert sign == -1.0
    assert tau == pytest.approx(TAU_STAR_FROZEN, rel=1e-8)
    # tau* reproduces its defining formula at the center data
    b = 0.5 - profiles.v0
    d2 = d2_value(profiles.u0.values[0])
    assert tau == pytest.approx(6.0 * d1_closed_form() * b / (11.0 * d2),
                                rel=1e-14)


def test_expansion_E_vanishing_leading_term(profiles):
    lam0 = profiles.lam0
    mu, eps = 3e-3, -0.1
    got = expansion_E(0.5 * lam0, profiles.v0, -1, mu, eps, lam0)
    d1 = d1_closed_form()
    d2 = d2_value(0.5 * lam0)
    expect = (eps * d1 * (0.5 - profiles.v0) * mu ** 2
              - MU3_RATIO * d2 * mu ** 3)
    assert got == pytest.approx(expect, rel=1e-13)


def test_mu3_ratio_derivation():
    # MU3_RATIO re-derived symbolically.  At eps = 0, with beta = -1, the
    # gap assembly splits the cubic group of J(z - W) - J(z) at the sign
    # change into an inner (W > z) and an outer (W < z) integrand
    sp = pytest.importorskip("sympy")
    r, z, w, a, K, mu = sp.symbols("r z w a K mu", positive=True)
    inner = -w ** 3 / 3 + w ** 2 * z - w * z ** 2 + 2 * z ** 3 / 3
    outer = z ** 2 * w - z * w ** 2 + w ** 3 / 3
    assert sp.expand(-((w - z) ** 3 - z ** 3) / 3 - inner) == 0
    assert sp.expand(-((z - w) ** 3 - z ** 3) / 3 - outer) == 0

    # to leading order z = a = lam0/2 and W = K/r^4 near R, R^4 = K/a;
    # after the bulk bubble terms give c2 and the mu^2 terms cancel
    # (a = lam0/2), five crossing-region integrals remain (per omega_6)
    W = K / r ** 4
    R = (K / a) ** sp.Rational(1, 4)

    def shell(f, lo, hi):
        return sp.integrate(f * r ** 5, (r, lo, hi))

    unit = a ** 3 * R ** 6
    terms = [
        sp.Rational(2, 3) * shell(W ** 3, R, sp.oo),
        -a * shell(W ** 2, R, sp.oo),
        -a * shell(W ** 2, R, sp.oo),
        -2 * a ** 2 * shell(W, 0, R),
        sp.Rational(2, 3) * shell(a ** 3, 0, R),
    ]
    ratios = [sp.simplify(t / unit) for t in terms]
    assert ratios == [sp.Rational(1, 9), sp.Rational(-1, 2),
                      sp.Rational(-1, 2), -1, sp.Rational(1, 9)]
    total = sum(ratios)
    assert total == sp.Rational(-16, 9)

    # omega_6 a^3 R^6 = d2 mu^3 for the bubble tail K = alpha_6 mu^2
    d2_per_omega = 24 ** sp.Rational(3, 2) * a ** sp.Rational(3, 2)
    tail = unit.subs(K, 24 * mu ** 2)
    assert sp.simplify(tail - d2_per_omega * mu ** 3) == 0
    assert d2_value(2.0) == pytest.approx(
        float(d2_per_omega.subs(a, 2) * sp.pi ** 3), rel=1e-14)

    # the package constants are these rationals, exactly as floats allow
    assert MU3_RATIO == float(total)
    assert sp.Rational(MU3_RATIO).limit_denominator(10 ** 6) == total
    assert PAPER_MU3_RATIO == float(sp.Rational(-11, 9))
    paper = sp.Rational(PAPER_MU3_RATIO).limit_denominator(10 ** 6)
    assert paper == sp.Rational(-11, 9)


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 40), clustered=st.booleans(), data=st.data())
def test_spline_set_matches_scipy_cubic_spline(n, clustered, data):
    # knots from random cell widths, or cells growing geometrically away
    # from r = 0 as on the profile grids; values and slopes random
    if clustered:
        widths = data.draw(st.floats(1.0, 1.5)) ** np.arange(n - 1)
    else:
        widths = np.array(data.draw(st.lists(st.floats(0.01, 1.0),
                                             min_size=n - 1, max_size=n - 1)))
    cum = np.cumsum(widths)
    x = np.concatenate(([0.0], cum / cum[-1]))
    # signed zeros are frequent, and some rows hold nothing else, so
    # -0.0 + -0.0 sums show
    zero = st.sampled_from((0.0, -0.0))
    finite = st.one_of(zero, st.floats(-10.0, 10.0))
    row = st.one_of(st.lists(finite, min_size=n, max_size=n),
                    st.lists(zero, min_size=n, max_size=n))
    grid = RadialGrid(6, x, np.zeros(n))
    fns = [RadialFn(grid, np.array(data.draw(row)), np.array(data.draw(row)))
           for _ in range(3)]
    S = SplineSet(AuxProfiles(6, 20.0, 1.0, *fns))

    fracs = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                        max_size=4)))
    inside = (x[:-1, None] + fracs * np.diff(x)[:, None]).ravel()
    r = np.concatenate((x, inside, [0.0, 1.0, -1e-3, np.nextafter(0.0, -1.0),
                                    np.nextafter(1.0, 2.0), 1.0 + 1e-3]))
    scalars = (0.0, float(inside[0]), 1.0, -1e-3, 1.0 + 1e-3)
    for k, f in enumerate(fns):
        spline = CubicHermiteSpline(x, f.values, f.derivative)
        for ours, ref in ((S._values, spline), (S._slopes,
                                                 spline.derivative())):
            assert _hex(ours(*S._cell(r))[k]) == _hex(ref(r))
            assert _hex([ours(*S._cell(t))[k] for t in scalars]) == _hex(
                [ref(t) for t in scalars])


def _fresh_nodes(edges):
    # Gauss nodes and weights of the panels `edges`, computed afresh
    nodes, weights = leggauss(GAUSS_ORDER)
    a, h = edges[:-1], np.diff(edges)
    x = (a[:, None] + 0.5 * h[:, None] * (nodes[None, :] + 1.0)).ravel()
    return x, (0.5 * h[:, None] * weights[None, :]).ravel()


def _fresh_panel_integral(f, edges, evaluate):
    # the quadrature with every node's fields evaluated afresh, chunked
    # and summed as _panel_integral chunks and sums
    x, w = _fresh_nodes(edges)
    return sum(f(x[k:k + QUAD_CHUNK], evaluate(x[k:k + QUAD_CHUNK]))
               @ w[k:k + QUAD_CHUNK] for k in range(0, len(x), QUAD_CHUNK))


def _bits(values) -> np.ndarray:
    # the bit patterns of float64 values: equal iff float.hex is
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def _fresh_eps_fields(S, eps, lam):
    # z, z', the source, J(z)'s integrand and r^5, written out from u_0,
    # v, w
    def evaluate(r):
        (u0, v, w), (du0, dv, dw) = S._evaluate(r)
        z = u0 + eps * v + eps ** 2 * w
        dz = du0 + eps * dv + eps ** 2 * dw
        source = (u0 + eps * v) ** 2 + 2.0 * eps ** 2 * u0 * w - eps ** 3 * w
        direct_z = 0.5 * dz ** 2 - 0.5 * lam * z ** 2 - np.abs(z) ** 3 / 3.0
        return np.stack((z, dz, source, direct_z, r ** 5))
    return evaluate


def _base_energy_written_out(S, eps, lam):
    # J(z) by the -Delta z form over the knot cells, u_0, v, w evaluated
    # afresh at every node
    lam0 = S.profiles.lam0

    def integrand(r, fields):
        u0, v, w = fields[0]
        z = u0 + eps * v + eps ** 2 * w
        neg_laplacian_z = (lam0 * u0 + u0 ** 2
                           + eps * ((lam0 + 2.0 * u0) * v + u0)
                           + eps ** 2 * ((lam0 + 2.0 * u0) * w + v + v ** 2))
        return (0.5 * z * neg_laplacian_z
                - 0.5 * lam * z ** 2 - z ** 3 / 3.0) * r ** 5
    return sphere_area(6) * float(
        _fresh_panel_integral(integrand, S.knots, S._evaluate))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_panel_integral_table_route_is_fresh_evaluation(seed, data):
    # 1200 random knot cells, so edge sets span three QUAD_CHUNKs
    rng = np.random.default_rng(seed)
    cum = np.cumsum(rng.uniform(0.2, 1.0, 1200))
    x = np.concatenate(([0.0], cum / cum[-1]))
    grid = RadialGrid(6, x, np.zeros(len(x)))
    fns = [RadialFn(grid, rng.normal(size=len(x)),
                    np.append(np.zeros(len(x) - 1), rng.normal()))
           for _ in range(3)]
    S = SplineSet(AuxProfiles(6, 20.0, 1.0, *fns))
    eps = data.draw(st.floats(-0.5, 0.5))
    lam = data.draw(st.floats(10.0, 30.0))
    T = EpsTable(S, eps, lam)

    # the SplineSet's knot-cell chunks are u_0, v, w and their slopes at
    # every knot cell's Gauss nodes, as _evaluate gives them
    assert np.array_equal(
        _bits(np.concatenate([f for *_, f in S.cell_chunks()], -1)),
        _bits(S._evaluate(_fresh_nodes(x)[0])))
    # J(z), summed as the eps table fills, is the -Delta z form evaluated
    # afresh; the form needs z > 0, so u_0 is lifted
    lifted = RadialFn(grid, fns[0].values + 20.0, fns[0].derivative)
    P = SplineSet(AuxProfiles(6, 20.0, 1.0, lifted, *fns[1:]))
    assert _hex(_base_energy(EpsTable(P, eps, lam))) == _hex(
        _base_energy_written_out(P, eps, lam))

    # a C-ordered stack, as the reduction integrands build theirs: the
    # matrix-vector sum of another layout sums in another order
    def g(r, fields):
        return np.stack((*fields[:4], fields[0] * r)) * fields[4]

    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    splits = data.draw(st.lists(unit, max_size=6))
    j = data.draw(st.integers(1, len(x) - 2))
    near = x[j] + data.draw(st.floats(-1e-14, 1e-14))
    # a split cell in the middle chunk, panels 512 to 1023
    middle = data.draw(st.floats(float(x[600]), float(x[900])))
    knot = float(x[data.draw(st.integers(1, len(x) - 2))])
    crossing = data.draw(unit)
    mu = data.draw(st.floats(1e-4, 0.05))
    edge_sets = [np.unique(np.concatenate((x, splits, [near, middle])))]
    for c in (knot, crossing):
        edge_sets += [_mu_refined_edges(x, mu, 0.0, c),
                      _mu_refined_edges(x, mu, c, 1.0)]
    evaluate = _fresh_eps_fields(S, eps, lam)
    for edges in edge_sets:
        x_fresh, w_fresh = _fresh_nodes(edges)
        assert _hex(_panel_integral(g, edges, T)) == _hex(
            _fresh_panel_integral(g, edges, evaluate))
        # a sum can hide a last-bit difference, so every node's nodes and
        # fields are compared too, chunk by chunk
        starts = range(0, len(x_fresh), QUAD_CHUNK)
        chunks = list(T.chunks(edges))
        assert len(chunks) == len(starts)
        for k, (r, w, fields) in zip(starts, chunks):
            c = slice(k, k + QUAD_CHUNK)
            assert np.array_equal(_bits((r, w)),
                                  _bits((x_fresh[c], w_fresh[c])))
            assert np.array_equal(_bits(fields), _bits(evaluate(r)))
    # whole knot cells are read as views of the eps table, not gathered;
    # the table is read-only, and its rule is the only one the route serves
    cells = x[3:4 + QUAD_CHUNK // GAUSS_ORDER]
    (_, _, fields), = T.chunks(cells)
    assert np.shares_memory(fields, T._table)
    with pytest.raises(ValueError):
        fields[0, 0] = 1.0
    with pytest.raises(ValueError):
        T._table[0, 0] = 1.0
    with pytest.raises(ValueError):
        _panel_integral(g, x, T, order=GAUSS_ORDER - 4)


def test_base_energy_refuses_negative_z():
    # z = 2 - r^2 - 6 eps r^2 stays positive at eps = 0 and changes sign
    # inside the ball at eps = 0.5, where the -Delta z form of J(z) fails
    grid = make_grid(6, 64)
    r2 = grid.nodes ** 2
    u0, v = (RadialFn.from_values(grid, y) for y in (2.0 - r2, -6.0 * r2))
    zero = RadialFn.from_values(grid, np.zeros(len(r2)))
    S = SplineSet(AuxProfiles(6, 20.0, 1.0, u0, v, zero))
    assert np.isfinite(_base_energy(EpsTable(S, 0.0, 20.0)))
    # the table itself builds; only reading J(z) from it fails
    T = EpsTable(S, 0.5, 20.5)
    with pytest.raises(ConfigError, match="z must stay positive"):
        _base_energy(T)


def test_expansion_check_builds_one_table_per_eps(profiles, monkeypatch):
    # one SplineSet per run, which holds no node array and evaluates
    # nothing, and one eps table per eps magnitude, each built from it and
    # freed before the next; two panel integrals per row, over eps tables
    # and never over the bare knots (J(z) is summed as the eps table
    # fills); _evaluate runs only on the panels that split a knot cell
    built, eps_tables, fresh, calls = [], [], [], []
    init, evaluate = SplineSet.__init__, SplineSet._evaluate
    eps_init = EpsTable.__init__
    panel_integral = reduction._panel_integral

    def counting_init(self, p):
        built.append(self)
        init(self, p)
        assert not fresh
        nodes = GAUSS_ORDER * (len(p.grid.nodes) - 1)
        assert all(np.shape(a)[-1:] != (nodes,) for a in vars(self).values())

    def counting_eps_init(self, splines, eps, lam):
        assert all(ref() is None for ref, *_ in eps_tables)
        eps_tables.append((weakref.ref(self), splines, eps))
        eps_init(self, splines, eps, lam)

    def counting_evaluate(self, r):
        fresh.append(len(r))
        return evaluate(self, r)

    def counting_panel_integral(f, edges, table):
        # the table's type, not the table, which must be freed
        calls.append((edges, type(table)))
        return panel_integral(f, edges, table)

    monkeypatch.setattr(SplineSet, "__init__", counting_init)
    monkeypatch.setattr(EpsTable, "__init__", counting_eps_init)
    monkeypatch.setattr(SplineSet, "_evaluate", counting_evaluate)
    monkeypatch.setattr(reduction, "_panel_integral", counting_panel_integral)
    mags = np.geomspace(0.02, 0.25, 6)
    report = expansion_check(profiles, eps_magnitudes=mags)
    assert len(built) == 1
    assert all(splines is built[0] for _, splines, _ in eps_tables)
    assert [abs(eps) for *_, eps in eps_tables] == list(mags)
    knots = profiles.grid.nodes
    assert len(calls) == 2 * len(report.rows)
    assert all(kind is EpsTable for _, kind in calls)
    assert not any(np.array_equal(edges, knots) for edges, _ in calls)
    cells = set(zip(knots[:-1], knots[1:]))
    split = sum((a, b) not in cells
                for edges, _ in calls for a, b in zip(edges[:-1], edges[1:]))
    nodes = sum(GAUSS_ORDER * (len(edges) - 1) for edges, _ in calls)
    assert 0 < sum(fresh) == GAUSS_ORDER * split < 0.01 * nodes


def test_expansion_check_peak_memory(profiles, expansion):
    # warm (the session's expansion fixture has run it), the sweep holds
    # one eps table (1.9 MiB) and chunk-sized temporaries, 4.1 MiB in all;
    # a node-sized array of u_0, v, w and slopes (2.4 MiB) beside the
    # table would break the bound
    tracemalloc.start()
    try:
        expansion_check(profiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.0 * 2 ** 20


def test_spline_set_holds_one_coefficient_array(profiles):
    # the cubics' coefficients (3 fields x 4 powers x n cells) and nothing
    # node- or cell-sized beside them: the derivative's coefficients are
    # formed as each evaluation needs them, and the Gauss rule is a
    # module constant
    n = len(profiles.grid.nodes) - 1
    assert n == 4096
    tracemalloc.start()
    try:
        S = SplineSet(profiles)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    coef_bytes = 3 * 4 * n * 8
    assert S._coef.nbytes == coef_bytes
    assert held <= coef_bytes + 64 * 2 ** 10


@pytest.mark.parametrize("mag, t", [
    (DEFAULT_EPS_MAGNITUDES[0], TAU_MULTIPLIERS[0]),
    (DEFAULT_EPS_MAGNITUDES[4], 1.0),
    (DEFAULT_EPS_MAGNITUDES[-1], TAU_MULTIPLIERS[-1]),
], ids=["smallest-mu", "tau-star", "largest-mu"])
def test_row_integrals_match_adaptive_quadrature(certificate, mag, t):
    # On 64 knot cells, not the command's 4096: the oracle checks the
    # panel quadrature of the profiles' cubics at any resolution, and wide
    # knot cells leave the sign change of V inside a panel unless the
    # panels split there.  Panels that do not split there miss J(V) - J(z)
    # by 5.6e-11 to 4.7e-10 and the residual norm by up to 3.3e-6
    # relative on these rows; split, the gaps measured at most 2.1e-12
    # over all 40 default rows.  The residual's own zeros are kinks no
    # panel splits at, so its bound is relative: measured at most 1.8e-7.
    profiles = build_profiles(certificate, grid_n=64)
    sign, tau = case1_parameters(profiles)
    eps, mu = sign * mag, t * tau * mag
    _, [(gap, resid, direct_gap, direct_z)] = _eps_rows(
        SplineSet(profiles), eps, [mu])
    gap_ref, resid_ref, base_ref = row_integrals_by_quad(profiles, eps, mu)
    assert abs(direct_gap - gap_ref) <= 2e-11
    assert abs(gap - gap_ref) <= 2e-11
    assert abs(direct_z - base_ref) <= 1e-12
    assert resid == pytest.approx(resid_ref, rel=5e-7, abs=0.0)


def test_assemble_z_splines_follow_their_profiles():
    # each AuxProfiles is freed before the next is built, so CPython
    # hands the next one the same id; the resampled z = V + W of the
    # eps = 0 ansatz must still come from the new values
    grid = make_grid(6, 64)
    finer = make_grid(6, 256)
    mu = 0.1
    W, _ = project_bubble(finer, mu)
    fns = [RadialFn.from_values(grid, k * (1.0 - grid.nodes ** 2))
           for k in range(1, 9)]
    for k, fn in enumerate(fns, 1):
        p = AuxProfiles(6, 20.0, float(k), fn, fn, fn)
        ansatz = ansatz_on_grid(SplineSet(p), 0.0, mu, finer)
        del p
        z = ansatz.values + W.values
        assert np.max(np.abs(z - k * (1.0 - finer.nodes ** 2))) < 1e-12


def test_assemble_ansatz_structure(profiles):
    sign, tau = case1_parameters(profiles)
    mag = 0.1
    eps, mu = sign * mag, mag * tau
    grid = make_core_grid(6, mu)
    S = SplineSet(profiles)
    v = ansatz_on_grid(S, eps, mu, grid).values
    crossing = _sign_crossing(S, eps, mu)
    assert mu < crossing < 1.0
    # center: the bubble dominates with its negative sign
    z0 = profiles.u0.values[0] + eps * profiles.v0 + eps ** 2 * profiles.w0
    expect0 = z0 - 24.0 / mu ** 2 + boundary_trace(mu)
    assert v[0] == pytest.approx(expect0, rel=1e-10)
    # boundary: c(mu) cancels U(1) and v, w vanish, so V(1) is u_0(1)
    assert v[-1] == pytest.approx(profiles.u0.values[-1], abs=1e-15)
    # exactly one sign change, at the crossing radius
    keep = np.abs(v) > 1e-12 * np.max(np.abs(v))
    signs = np.sign(v[keep])
    assert int(np.sum(signs[1:] != signs[:-1])) == 1
    assert np.all((grid.nodes[keep] < crossing) == (signs < 0.0))


def test_spline_set_requires_n6():
    # the ansatz is specific to N = 6; the guard sits in SplineSet, which
    # both residual_norm and expansion_check start from
    grid = make_grid(4, 64)
    fn = RadialFn.from_values(grid, 1.0 - grid.nodes ** 2)
    p = AuxProfiles(4, 20.0, 1.0, fn, fn, fn)
    with pytest.raises(RadialModeViolationError):
        SplineSet(p)
    with pytest.raises(RadialModeViolationError):
        expansion_check(p)


def _must_not_build(*args, **kwargs):
    raise AssertionError("an eps table was built for a refused rate")


def test_rates_outside_the_core_range_are_refused(profiles, monkeypatch):
    # 0 < mu < 0.5 is checked before the eps table of the row is built,
    # on the one path of both commands; a huge eps would overflow there
    S = SplineSet(profiles)
    sign, _ = case1_parameters(profiles)
    monkeypatch.setattr(reduction, "EpsTable", _must_not_build)
    for mu in (0.0, -1e-3, 0.5, np.nan, np.inf):
        with pytest.raises(ConfigError, match="outside"):
            residual_norm(S, sign * 0.1, mu)
    with pytest.raises(ConfigError, match="outside"):
        expansion_check(profiles, 1e150 * 2.0 ** np.arange(6))


def test_residual_norm_is_the_expansion_rows_residual(profiles, expansion):
    # ansatz-check's residual_norm and expansion-check's residual_l32 of
    # the tau-multiplier-1 rows come from one path, so their bits agree
    report, _ = expansion
    sign, tau = case1_parameters(profiles)
    S = SplineSet(profiles)
    central = [row for row in report.rows if row.tau_mult == 1.0]
    mags = sorted(DEFAULT_EPS_MAGNITUDES)
    assert [row.eps for row in central] == [sign * m for m in mags]
    for mag, row in zip(mags, central):
        assert row.mu == tau * mag
        assert residual_norm(S, sign * mag, tau * mag).hex() == \
            row.residual_l32.hex()


def test_residual_routes_agree_in_magnitude(profiles):
    # the analytic route (exact bubble Laplacian + splines) and the
    # finite-difference route on the sampled ansatz measure the same
    # defect; the FD route carries stencil noise at the spike and the
    # kink, so the comparison is order-of-magnitude
    sign, tau = case1_parameters(profiles)
    eps, mu = sign * 0.1, 0.1 * tau
    S = SplineSet(profiles)
    analytic = residual_norm(S, eps, mu)
    fd = fd_residual_norm(ansatz_on_grid(S, eps, mu, make_core_grid(6, mu)),
                          profiles.lam0 + eps)
    assert analytic > 0.0
    assert 0.5 < fd / analytic < 2.0


def test_unresolvable_bubble_scale_raises(profiles):
    # the core panels start at mu/16, so below 16 EDGE_MERGE_TOL they
    # would merge away and the inner integrals read nearly 0
    sign, _ = case1_parameters(profiles)
    with pytest.raises(UnderResolvedError):
        residual_norm(SplineSet(profiles), sign * 40e-30, 1e-30)
    knots = profiles.grid.nodes
    with pytest.raises(UnderResolvedError):
        _mu_refined_edges(knots, 16 * EDGE_MERGE_TOL, 0.0, 1.0)
    edges = _mu_refined_edges(knots, np.nextafter(16 * EDGE_MERGE_TOL, 1.0),
                              0.0, 1.0)
    assert edges[1] == np.nextafter(16 * EDGE_MERGE_TOL, 1.0) / 16


def test_ground_state_energy_identity(profiles):
    # on a solution, testing the equation against u itself leaves
    # J(u) = (1/6) int u^3
    w = profiles.grid.quad_weights
    cube = float(np.dot(w, profiles.u0.values ** 3))
    assert energy(profiles.u0, profiles.lam0) == pytest.approx(
        cube / 6.0, rel=1e-4)


def test_cubic_coefficient_probe(profiles):
    probe = cubic_coefficient_probe(profiles)
    # the fitted mu^3 coefficient of the energy gap sits at the derived
    # -16/9 d2 to a few tenths of a percent, nowhere near the paper's
    # -11/9 d2
    assert probe["ratio_to_d2"] == pytest.approx(MU3_RATIO, rel=5e-3)
    assert abs(probe["ratio_to_d2"] - PAPER_MU3_RATIO) > 0.5
    assert probe["tail_exponent"] > 3.0
    assert abs(probe["extrapolation_spread"]) < 5e-3 * abs(
        probe["mu3_coefficient"])


@pytest.mark.parametrize("mu", [1e-8, 1e-9])
def test_branch_tail_realises_the_derived_mu3_rate(profiles, mu):
    # far out on the N = 6, m = 2 radial branch, mu_b = sqrt(24/(a +
    # lam_0/2)) and eps = lam - lam_0 < 0 approach mu_b/|eps| -> the
    # minimiser 2A/(3 |MU3_RATIO| d2) of the derived reduced energy, with
    # A = d1 |1/2 - v(0)|, and not the paper's 6A/(11 d2) = tau*; the
    # branch comes from an Emden-Fowler scipy shot, A and d2 from bn6
    c = constants(0.5 * profiles.lam0)
    A = c.d1 * abs(0.5 - profiles.v0)
    target = 2.0 * A / (3.0 * abs(MU3_RATIO) * c.d2)
    paper = tau_star(A, c.d2)
    _, _, eps, ratio = branch_tail_ratio(mu, 3e-14)
    assert eps < 0.0
    assert ratio == pytest.approx(target, rel=0.01)
    assert abs(ratio - paper) > 0.3 * paper


def test_expansion_check_report(profiles, expansion):
    report, _ = expansion
    assert len(report.rows) == 40  # 8 magnitudes x 5 multipliers
    assert report.tau_star == pytest.approx(TAU_STAR_FROZEN, rel=1e-8)

    # row bookkeeping: mu schedule, defect definition
    for row in report.rows:
        assert row.mu == pytest.approx(
            row.tau_mult * TAU_STAR_FROZEN * abs(row.eps), rel=1e-8)
        assert row.defect == pytest.approx(
            row.delta - report.c2_closed + row.e_pred, abs=1e-12)
        assert row.j_ansatz == pytest.approx(row.j_base + row.delta,
                                             rel=1e-12)
    # every row's gap is audited by single-shot quadrature of J(V) - J(z)
    assert all(row.audit_gap < 1e-10 for row in report.rows)

    # the constant term of the fit recovers the closed-form c2
    assert report.coef_const == pytest.approx(report.c2_closed, rel=1e-6)
    # the eps mu^2 coefficient lands on its closed-form target
    assert report.coef_eps_mu2 == pytest.approx(report.target_eps_mu2,
                                                rel=5e-3)
    # the measured cubic coefficient: the derived -16/9 d2, reproducibly
    d2 = d2_value(profiles.u0.values[0])
    assert report.coef_mu3 == pytest.approx(MU3_RATIO * d2, rel=2e-2)

    assert 1.5 < report.residual_exponent < 2.5
    assert report.remainder_exponent > 2.5

    d = record(report)
    assert d["tau_star"] == report.tau_star
    assert len(d["rows"]) == 40
    # the paper's coefficient stays in the report beside the derived one
    assert report.target_mu3 == MU3_RATIO * d2
    assert d["paper_mu3"] == PAPER_MU3_RATIO * d2


def test_expansion_check_input_validation(profiles):
    with pytest.raises(ConfigError):
        expansion_check(profiles, eps_magnitudes=(0.1, 0.2, 0.3))
    with pytest.raises(ConfigError):
        expansion_check(profiles,
                        eps_magnitudes=(0.1, 0.1, 0.2, 0.25, 0.3, 0.35))


def test_refinement_sweep(refinement):
    report = refinement
    rows = report.rows
    assert len(rows) == 6
    mags = [abs(r.eps) for r in rows]
    assert mags == sorted(mags)
    for row in rows:
        assert row.iterations < 20
        assert abs(row.multiplier) < 1e-2
        assert row.distance_h1 > 0.0
    # the H^1 correction shrinks faster than mu^2 after dividing out the
    # logarithmic factor; raw fits sit slightly below
    assert report.distance_exponent >= 2.0
    assert report.distance_exponent > report.distance_exponent_raw
    d = record(report)
    assert len(d["rows"]) == 6
    assert d["distance_exponent"] == report.distance_exponent
