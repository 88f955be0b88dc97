"""Bubble ansatz assembly, reduced energies, expansion and refinement sweeps."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline

from bn6 import reduction
from bn6.auxiliary import AuxProfiles
from bn6.bubbles import boundary_trace, d1_closed_form, d2_value, project_bubble
from bn6.errors import (
    BN6Error,
    ConfigError,
    RadialModeViolationError,
    UnderResolvedError,
)
from bn6.grid import RadialFn, RadialGrid, make_grid, sphere_area
from bn6.reduction import (
    EDGE_MERGE_TOL,
    GAUSS_ORDER,
    MU3_RATIO,
    PAPER_MU3_RATIO,
    QUAD_CHUNK,
    AnsatzSpec,
    EpsTable,
    SplineSet,
    assemble_ansatz,
    case1_parameters,
    cubic_coefficient_probe,
    energy,
    expansion_E,
    expansion_check,
    reduced_energy_polynomial,
    refinement_sweep,
    residual_norm,
    tau_star,
    _base_energy,
    _clamped_cubic,
    _mu_refined_edges,
    _panel_integral,
)
from bn6.serialize import record

TAU_STAR_FROZEN = 0.04409647622292704


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


def test_ansatz_spec_validation(profiles):
    with pytest.raises(ConfigError):
        AnsatzSpec(profiles=profiles, eps=0.1, mu=1e-3)  # wrong sign
    with pytest.raises(ValueError):
        AnsatzSpec(profiles=profiles, eps=-0.1, mu=0.0)
    spec = AnsatzSpec(profiles=profiles, eps=-0.1, mu=1e-3)
    assert spec.lam == pytest.approx(profiles.lam0 - 0.1, rel=1e-15)
    assert spec.mu == 1e-3


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 40), clustered=st.booleans(), data=st.data())
def test_spline_set_matches_scipy_cubic_spline(n, clustered, data):
    # knots from random cell widths, or cells growing geometrically away
    # from r = 0 as on the profile grids; values and end slopes random
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
    values = [np.array(data.draw(row)) for _ in range(3)]
    slopes = [data.draw(finite) for _ in range(3)]
    grid = RadialGrid(6, x, np.zeros(n), "uniform")
    fns = [RadialFn(grid, y, np.append(np.zeros(n - 1), e))
           for y, e in zip(values, slopes)]
    S = SplineSet(AuxProfiles(6, 20.0, 1.0, *fns))

    fracs = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                        max_size=4)))
    inside = (x[:-1, None] + fracs * np.diff(x)[:, None]).ravel()
    r = np.concatenate((x, inside, [0.0, 1.0, -1e-3, np.nextafter(0.0, -1.0),
                                    np.nextafter(1.0, 2.0), 1.0 + 1e-3]))
    scalars = (0.0, float(inside[0]), 1.0, -1e-3, 1.0 + 1e-3)
    for k, (y, e) in enumerate(zip(values, slopes)):
        spline = CubicSpline(x, y, bc_type=((1, 0.0), (1, e)))
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
    grid = RadialGrid(6, x, np.zeros(len(x)), "uniform")
    fns = [RadialFn(grid, rng.normal(size=len(x)),
                    np.append(np.zeros(len(x) - 1), rng.normal()))
           for _ in range(3)]
    S = SplineSet(AuxProfiles(6, 20.0, 1.0, *fns))
    eps = data.draw(st.floats(-0.5, 0.5))
    lam = data.draw(st.floats(10.0, 30.0))
    T = EpsTable(S, eps, lam)

    # the SplineSet's node array is u_0, v, w and their slopes at every
    # knot cell's Gauss nodes, and read-only
    assert np.array_equal(_bits(S._fields),
                          _bits(S._evaluate(_fresh_nodes(x)[0])))
    with pytest.raises(ValueError):
        S._fields[0, 0, 0] = 1.0
    # J(z) reads z and r^5 from the eps table and is the -Delta z form
    # evaluated afresh; the form needs z > 0, so u_0 is lifted
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
    with pytest.raises(ConfigError, match="z must stay positive"):
        _base_energy(EpsTable(S, 0.5, 20.5))


def test_expansion_check_builds_one_knot_table(profiles, monkeypatch):
    # one SplineSet (which tabulates the knot cells) per run and one eps
    # table per eps magnitude, each built from it and freed before the
    # next; two panel integrals per row, over eps tables and never over
    # the bare knots (J(z) reads the eps table directly); the rows
    # evaluate afresh only the panels that split a knot cell
    built, eps_tables, fresh, calls = [], [], [], []
    init, evaluate = SplineSet.__init__, SplineSet._evaluate
    eps_init = EpsTable.__init__
    panel_integral = reduction._panel_integral

    def counting_init(self, p):
        built.append(self)
        init(self, p)
        assert sum(fresh) == GAUSS_ORDER * (len(p.grid.nodes) - 1)
        fresh.clear()

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
        ansatz = assemble_ansatz(AnsatzSpec(p, 0.0, mu), grid=finer)
        del p
        z = ansatz.fn.values + W.values
        assert np.max(np.abs(z - k * (1.0 - finer.nodes ** 2))) < 1e-12


def test_assemble_ansatz_refuses_splines_of_other_profiles():
    # equal values are not enough: a shared SplineSet must be built from
    # the spec's own profiles
    grid = make_grid(6, 64)
    fn = RadialFn.from_values(grid, 1.0 - grid.nodes ** 2)
    p, q = (AuxProfiles(6, 20.0, 1.0, fn, fn, fn) for _ in range(2))
    with pytest.raises(ValueError):
        assemble_ansatz(AnsatzSpec(p, 0.0, 0.1), splines=SplineSet(q))
    shared = SplineSet(p)
    assert assemble_ansatz(AnsatzSpec(p, 0.0, 0.1), splines=shared).splines \
        is shared


def test_assemble_ansatz_structure(profiles):
    sign, tau = case1_parameters(profiles)
    mag = 0.1
    mu = mag * tau
    spec = AnsatzSpec(profiles=profiles, eps=sign * mag, mu=mu)
    ansatz = assemble_ansatz(spec)
    assert ansatz.eps == spec.eps
    assert ansatz.mu == mu
    assert mu < ansatz.crossing < 1.0
    # center: the bubble dominates with its negative sign
    z0 = (profiles.u0.values[0] + spec.eps * profiles.v0
          + spec.eps ** 2 * profiles.w0)
    expect0 = z0 - 24.0 / mu ** 2 + boundary_trace(mu)
    assert ansatz.fn.values[0] == pytest.approx(expect0, rel=1e-10)
    assert abs(ansatz.fn.values[-1]) < 1e-12
    # exactly one sign change, at the crossing radius
    v = ansatz.fn.values
    signs = np.sign(v[np.abs(v) > 1e-12 * np.max(np.abs(v))])
    assert int(np.sum(signs[1:] != signs[:-1])) == 1


def test_assemble_ansatz_requires_n6():
    grid = make_grid(4, 64)
    fn = RadialFn.from_values(grid, 1.0 - grid.nodes ** 2)
    spec = AnsatzSpec(profiles=AuxProfiles(4, 20.0, 1.0, fn, fn, fn),
                      eps=0.0, mu=1e-2)
    with pytest.raises(RadialModeViolationError):
        assemble_ansatz(spec)


def test_residual_routes_agree_in_magnitude(profiles):
    # the analytic route (exact bubble Laplacian + splines) and the
    # finite-difference route measure the same defect; the FD route
    # carries stencil noise at the spike and the kink, so the comparison
    # is order-of-magnitude
    sign, tau = case1_parameters(profiles)
    spec = AnsatzSpec(profiles=profiles, eps=sign * 0.1, mu=0.1 * tau)
    ansatz = assemble_ansatz(spec)
    analytic = residual_norm(ansatz, spec.lam)
    fd = residual_norm(ansatz.fn, spec.lam)
    assert analytic > 0.0
    assert 0.5 < fd / analytic < 2.0
    with pytest.raises(TypeError):
        residual_norm(3.14, spec.lam)


def test_unresolvable_bubble_scale_raises(profiles):
    # the core panels start at mu/16, so below 16 EDGE_MERGE_TOL they
    # would merge away and the inner integrals read nearly 0
    sign, _ = case1_parameters(profiles)
    spec = AnsatzSpec(profiles=profiles, eps=sign * 40e-30, mu=1e-30)
    with pytest.raises(UnderResolvedError):
        residual_norm(assemble_ansatz(spec), spec.lam)
    knots = profiles.grid.nodes
    with pytest.raises(UnderResolvedError):
        _mu_refined_edges(knots, 16 * EDGE_MERGE_TOL, 0.0, 1.0)
    edges = _mu_refined_edges(knots, np.nextafter(16 * EDGE_MERGE_TOL, 1.0),
                              0.0, 1.0)
    assert edges[1] == np.nextafter(16 * EDGE_MERGE_TOL, 1.0) / 16


def test_failed_gtsv_raises_a_solver_error(monkeypatch):
    # a singular slope system is a solver failure (exit 2), not a
    # LinAlgError traceback
    monkeypatch.setattr(reduction, "dgtsv",
                        lambda dl, d, du, b, *flags: (dl, d, du, b, 1))
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(BN6Error):
        _clamped_cubic(x, x ** 2, 2.0)


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


def test_refinement_sweep(profiles):
    report = refinement_sweep(profiles)
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
