"""Ansatz assembly, residual scaling, and the reduced-energy expansion.

The construction perturbs the ground state u_0 at lam_0 by the two
auxiliary profiles and one negative boundary-corrected bubble fixed at
the center, where u_0(0) = lam_0/2:

    V = z - W_mu,    z = u_0 + eps v + eps^2 w,    lam = lam_0 + eps.

Everything quantitative about V rests on three exact cancellations:

* -Delta z - lam z = (u_0 + eps v)^2 + 2 eps^2 u_0 w - eps^3 w, because
  the defining equations of v and w absorb the linear terms order by
  order (the eps u_0 and eps^2 v source terms drop out identically);
* -Delta W = U^2 with W = U - c(mu) exactly on the ball;
* at the center, u_0(0) = lam_0/2 kills the quadratic term of the
  reduced energy, leaving the eps- and cubic terms to fix the rate.

Energy comparisons are assembled from integrand-level differences that
stay small pointwise: the naive route computes J(V) and J(z) separately
as O(1) quantities and loses the cubic coefficient to roundoff at small
mu.  Quadrature is composite Gauss on panels aligned with the spline
knots and refined geometrically at the bubble scale, which integrates
spline-by-spline products exactly and resolves the mu-core without
adaptive overhead.  The sign change of V is the only kink of the
integrands of an (eps, mu) row, so each row has one panel set, split
there: the energy gap, the residual norm and the single-shot J(V) that
audits the gap are integrated together on it.  u_0, v, w and their
slopes are tabulated once per SplineSet at the Gauss nodes of every knot
cell, and from them an EpsTable derives, once per eps, what the rows and
J(z) of that eps share: z, z', the source -Delta z - lam z, J(z)'s
integrand and r^5.  The EpsTable is the one table panel quadrature
reads: a row reads runs of whole knot cells as views of it, derives
those fields afresh only on the few panels that split a knot cell, and
evaluates only what depends on mu; J(z) reads z and r^5 from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .auxiliary import AuxProfiles
from .bubbles import (
    ALPHA6,
    ball_integral_u,
    ball_integral_u2,
    ball_integral_u3,
    boundary_trace,
    d1_closed_form,
    d2_value,
    kernel_psi0,
    project_bubble,
    talenti_du,
    talenti_u,
)
from .errors import (
    AllPointsExcludedError,
    ConfigError,
    NearSingularError,
    RadialModeViolationError,
    UnderResolvedError,
)
from .grid import (
    RadialFn,
    RadialGrid,
    ball_volume,
    h1_norm,
    lp_norm,
    make_core_grid,
    rescale_grid,
    sphere_area,
)
from .lapack import dgtsv
from .operators import OperatorSpec, apply_operator
from .roots import brentq
from .shooting import newton_refine

GAUSS_ORDER = 12
# Gauss nodes per evaluation of a panel integrand, whole panels; bounds the
# memory that a stack of integrands and its temporaries take
QUAD_CHUNK = 512 * GAUSS_ORDER
RESOLUTION_FACTOR = 20.0
# panel edges closer than this are merged; the bubble core gets dyadic
# panels from mu/16 up, so mu/16 must exceed it
EDGE_MERGE_TOL = 1e-14
# the constant term of J(V) - J(z): the bubble energy (1/6) int_{R^6} U^3
C2 = ALPHA6 ** 3 * sphere_area(6) / 360.0


# ---------------------------------------------------------------------------
# spline context for the smooth fields

def _clamped_cubic(x: np.ndarray, y: np.ndarray,
                   end_slope: float) -> np.ndarray:
    """Coefficients, shape (4, len(x) - 1) with the cubic first, of the C2
    cubic spline through (x, y) with slope 0 at x[0] and end_slope at x[-1].

    They are scipy's CubicSpline(x, y, bc_type=((1, 0.0), (1, end_slope))).c
    to the bit: the same banded system for the knot slopes, solved by the
    LAPACK gtsv that solve_banded((1, 1), ...) calls, and the same Hermite
    coefficient formulas.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d = np.ones(len(x))
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    b = np.empty(len(x))
    b[0], b[-1] = 0.0, end_slope
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    *_, s, info = dgtsv(np.append(dx[1:], 0.0), d, np.append(0.0, dx[:-1]),
                        b, True, True, True, True)
    if info != 0:
        raise NearSingularError(f"singular spline slope system (LAPACK "
                                f"info={info})")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


class SplineSet:
    """Cubic-spline views of u_0, v, w with clamped center derivative.

    Values and first derivatives are those of scipy's CubicSpline and its
    derivative() to the bit: each r is placed in the cell x[i] <= r <
    x[i + 1] (the end cells extended outward), and each polynomial is
    summed in powers of s = r - x[i] as scipy's PPoly sums it.  _fields
    holds them at the Gauss nodes of every knot cell, read-only, since
    every EpsTable and J(z) read it.
    """

    def __init__(self, profiles: AuxProfiles):
        x = profiles.grid.nodes
        self.profiles, self.knots = profiles, x
        # rows u_0, v, w, and their derivatives' coefficients c * (3, 2, 1);
        # PPoly adds the constant term to 0.0 first, turning a value of
        # -0.0 into +0.0
        c = np.stack([_clamped_cubic(x, f.values, float(f.derivative[-1]))
                      for f in (profiles.u0, profiles.v, profiles.w)])
        self._dcoef = c[:, :3] * np.array([3.0, 2.0, 1.0])[:, None]
        c[:, 3] += 0.0
        self._coef = c
        # not computed on import, where its LAPACK call adds 0.75 MB of RSS
        self._rule = leggauss(GAUSS_ORDER)
        fields = np.empty((2, 3, GAUSS_ORDER * (len(x) - 1)))
        for cols, r, _ in self.cell_chunks():
            fields[..., cols] = self._evaluate(r)
        fields.flags.writeable = False
        self._fields = fields

    def _cell(self, r):
        # np.minimum(np.maximum(...)): np.clip's argument checks cost more
        # than the clipping on the scalars a crossing search passes
        i = np.minimum(np.maximum(np.searchsorted(self.knots, r, "right") - 1,
                                  0), len(self.knots) - 2)
        return i, r - self.knots[i]

    def _values(self, i, s):
        c = self._coef[:, :, i]
        s2 = s * s
        return c[:, 3] + c[:, 2] * s + c[:, 1] * s2 + c[:, 0] * (s2 * s)

    def _slopes(self, i, s):
        c = self._dcoef[:, :, i]
        return c[:, 2] + c[:, 1] * s + c[:, 0] * (s * s)

    @staticmethod
    def _z(fields, eps: float):
        u0, v, w = fields
        return u0 + eps * v + eps ** 2 * w

    def z(self, r, eps: float):
        return self._z(self._values(*self._cell(r)), eps)

    def dz(self, r, eps: float):
        return self._z(self._slopes(*self._cell(r)), eps)

    def gauss_panels(self, lo: np.ndarray, hi: np.ndarray):
        """Gauss nodes and weights of the panels [lo, hi], panel by
        panel."""
        x, w = self._rule
        h = 0.5 * (hi - lo)[:, None]
        return (lo[:, None] + h * (x + 1.0)).ravel(), (h * w).ravel()

    def cell_chunks(self):
        """(columns, Gauss nodes, weights) of the knot cells, QUAD_CHUNK
        nodes (whole cells) at a time, which bounds the temporaries; the
        columns slice the node axis of _fields and of an EpsTable."""
        g, knots = GAUSS_ORDER, self.knots
        lo, hi, n = knots[:-1], knots[1:], QUAD_CHUNK // g
        for p in range(0, len(lo), n):
            r, w = self.gauss_panels(lo[p:p + n], hi[p:p + n])
            yield slice(g * p, g * p + len(r)), r, w

    def _evaluate(self, r):
        i, s = self._cell(r)
        return np.stack((self._values(i, s), self._slopes(i, s)))


class EpsTable:
    """What the (eps, mu) rows of one eps need and that does not depend
    on mu: the rows z = u_0 + eps v + eps^2 w, z', the source
    -Delta z - lam z, J(z)'s integrand z'^2/2 - lam z^2/2 - |z|^3/3 and
    r^5 at the Gauss nodes of every knot cell, derived from the
    SplineSet's _fields and read-only.

    chunks() reads a run of whole knot cells as a view of the table, and
    derives the fields on all the panels that split a knot cell in one
    pass, by the formulas that filled the table, so each field has one
    code path.
    """

    def __init__(self, splines: SplineSet, eps: float, lam: float):
        self.splines, self.eps, self.lam = splines, eps, lam
        table = np.empty((5, splines._fields.shape[-1]))
        for cols, r, _ in splines.cell_chunks():
            table[:, cols] = self._derive(splines._fields[..., cols], r)
        table.flags.writeable = False
        self._table = table

    def _derive(self, fields, r):
        values, slopes = fields
        eps, lam = self.eps, self.lam
        z, dz = SplineSet._z(values, eps), SplineSet._z(slopes, eps)
        u0, v, w = values
        source = (u0 + eps * v) ** 2 + 2.0 * eps ** 2 * u0 * w - eps ** 3 * w
        direct_z = 0.5 * dz ** 2 - 0.5 * lam * z ** 2 - np.abs(z) ** 3 / 3.0
        return np.stack((z, dz, source, direct_z, r ** 5))

    def chunks(self, edges: np.ndarray):
        """Gauss nodes r, weights and fields (5, len(r)) of the panels
        `edges`, QUAD_CHUNK nodes (whole panels) at a time."""
        S, g = self.splines, GAUSS_ORDER
        lo, hi = edges[:-1], edges[1:]
        k = np.searchsorted(S.knots, edges)
        on_knot = S.knots[np.minimum(k, len(S.knots) - 1)] == edges
        split = ~(on_knot[:-1] & on_knot[1:] & (np.diff(k) == 1))
        nodes = S.gauss_panels(lo[split], hi[split])[0]
        fresh = self._derive(S._evaluate(nodes), nodes)
        # each panel's block of g columns in its source: its knot cell in
        # the table, or its place among the split panels in `fresh`
        block = np.where(split, np.cumsum(split) - 1, k[:-1])
        joined = (split[1:] == split[:-1]) & (np.diff(block) == 1)
        breaks = np.flatnonzero(~joined) + 1
        n = QUAD_CHUNK // g
        for p0 in range(0, len(block), n):
            p1 = min(p0 + n, len(block))
            bounds = [p0, *breaks[(breaks > p0) & (breaks < p1)], p1]
            pieces = [(fresh if split[p] else self._table)[
                          :, g * block[p]:g * (block[p] + q - p)]
                      for p, q in zip(bounds[:-1], bounds[1:])]
            r, w = S.gauss_panels(lo[p0:p1], hi[p0:p1])
            yield r, w, (pieces[0] if len(pieces) == 1
                         else np.concatenate(pieces, -1))


# ---------------------------------------------------------------------------
# panel quadrature: exact on spline products, geometric at the bubble core

def _panel_integral(f, edges: np.ndarray, table: EpsTable,
                    order: int = GAUSS_ORDER):
    """Composite Gauss integral over the panels `edges` of f(r, fields),
    fields those that table.chunks gives at the nodes r; f may return a
    stack of integrands (one per row), integrated together QUAD_CHUNK
    nodes at a time.  order must be GAUSS_ORDER; perfbench counts by
    it."""
    if order != GAUSS_ORDER:
        raise ValueError(f"order must be GAUSS_ORDER = {GAUSS_ORDER}")
    total = 0
    for r, w, fields in table.chunks(edges):
        total = total + f(r, fields) @ w
    return total


def _mu_refined_edges(knots: np.ndarray, mu: float, lo: float,
                      hi: float) -> np.ndarray:
    scale = mu / 16.0
    if not scale > EDGE_MERGE_TOL:
        raise UnderResolvedError(
            f"mu = {mu:.3g} is below the panel quadrature's scale: its core "
            f"panels start at mu/16 and edges merge within {EDGE_MERGE_TOL:g}")
    pts = [lo, hi]
    while scale < hi:
        if lo < scale:
            pts.append(scale)
        scale *= 2.0
    # np.sort, not np.unique, whose masked-array check imports numpy.ma;
    # the merge below drops exact duplicates
    edges = np.sort(np.concatenate((pts, knots[(knots > lo) & (knots < hi)])))
    keep = np.concatenate([[True], np.diff(edges) > EDGE_MERGE_TOL])
    return edges[keep]


# ---------------------------------------------------------------------------
# ansatz types

@dataclass(frozen=True, eq=False)
class AnsatzSpec:
    """Parameters of V = u_0 + eps v + eps^2 w - W_mu, one negative bubble
    of rate mu at the center."""

    profiles: AuxProfiles
    eps: float
    mu: float

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.eps != 0.0:
            required = -math.copysign(1.0, 0.5 - self.profiles.v0)
            if math.copysign(1.0, self.eps) != required:
                raise ConfigError(
                    "sign of eps is inconsistent with the fixed-center "
                    f"rule -sgn(1/2 - v(0)) = {required:+.0f}")

    @property
    def lam(self) -> float:
        return self.profiles.lam0 + self.eps


@dataclass(frozen=True, eq=False)
class AnsatzProfile:
    """Sampled ansatz plus the data the analytic residual route needs."""

    fn: RadialFn = field(repr=False)
    eps: float
    mu: float
    lam: float
    crossing: float
    splines: SplineSet = field(repr=False)

    @property
    def grid(self) -> RadialGrid:
        return self.fn.grid


def _sign_crossing(S: SplineSet, eps: float, mu: float) -> float:
    """Radius where z = W, the sign change of the ansatz."""
    def gap(r):
        return S.z(r, eps) - (talenti_u(r, mu) - boundary_trace(mu))
    lo, hi = mu, 0.999
    if gap(lo) >= 0.0 or gap(hi) <= 0.0:
        raise ConfigError("ansatz sign change not bracketed; mu outside the "
                          "supported range")
    return float(brentq(gap, lo, hi, xtol=1e-15, rtol=1e-15))


def assemble_ansatz(spec: AnsatzSpec, grid: RadialGrid | None = None,
                    splines: SplineSet | None = None) -> AnsatzProfile:
    """Sample V on a core-refined grid; splines: SplineSet(spec.profiles)."""
    profiles = spec.profiles
    if profiles.dimension != 6:
        raise RadialModeViolationError("the ansatz is specific to N = 6")
    mu = spec.mu
    if grid is None:
        grid = make_core_grid(6, mu)
    S = SplineSet(profiles) if splines is None else splines
    if S.profiles is not profiles:
        raise ValueError("splines are not built from spec.profiles")
    r = grid.nodes
    W, _ = project_bubble(grid, mu)
    return AnsatzProfile(
        fn=RadialFn(grid, S.z(r, spec.eps) - W.values,
                    S.dz(r, spec.eps) - W.derivative, regular_origin=True),
        eps=spec.eps,
        mu=mu,
        lam=spec.lam,
        crossing=_sign_crossing(S, spec.eps, mu),
        splines=S,
    )


# ---------------------------------------------------------------------------
# residual measurement

def _check_resolved(grid: RadialGrid, mu: float) -> None:
    nodes = grid.nodes
    core = nodes[nodes <= 4.0 * mu]
    if len(core) < 2 or np.max(np.diff(nodes[:len(core)])) > mu / RESOLUTION_FACTOR:
        raise UnderResolvedError(
            f"grid does not resolve the bubble core at mu = {mu:.3g} "
            f"(need spacing <= mu/{RESOLUTION_FACTOR:.0f} near the origin)")


def residual_norm(v, lam: float) -> float:
    """L^{3/2}(B_1) norm of -Delta V - lam V - |V|V.

    AnsatzProfile inputs use the analytic route (exact bubble Laplacian,
    spline smooth part); plain RadialFn inputs are measured by pointwise
    finite differences on their own grid.
    """
    if isinstance(v, AnsatzProfile):
        _check_resolved(v.fn.grid, v.mu)
        return _row_integrals(EpsTable(v.splines, v.eps, lam), v.mu,
                              v.crossing)[1]
    if isinstance(v, RadialFn):
        op = OperatorSpec(v.grid, sector=0, lam=lam)
        vals = apply_operator(op, v) - np.abs(v.values) * v.values
        vals[-1] = 0.0
        return lp_norm(RadialFn.from_values(v.grid, vals), 1.5)
    raise TypeError(f"expected AnsatzProfile or RadialFn, got {type(v)!r}")


# ---------------------------------------------------------------------------
# reduced-energy formulas

# The mu^3 coefficient of J(V) - J(z), in units of d2, for the ansatz
# V = u_0 + eps v + eps^2 w - (U_mu - c(mu)) built here.  At eps = 0 and
# to leading order z ~ a = u_0(0) = lam0/2 and W ~ K/r^4 with K = 24 mu^2
# near the sign change r = R, R^4 = K/a; the mu^2 terms cancel because
# a = lam0/2, and the cubic group leaves five crossing-region integrals,
# in units of omega_6 a^3 R^6 = d2 mu^3:
#     (2/3) int_{r>R} W^3          +1/9
#     -a int_{r>R} W^2             -1/2
#     -a int_{r>R} W^2             -1/2
#     -2 a^2 int_{r<R} W           -1
#     (2/3) int_{r<R} a^3          +1/9
# which sum to -16/9.  tests/test_reduction.py re-derives them with sympy.
MU3_RATIO = -16.0 / 9.0
# The same coefficient as the paper states it.  It is not reconciled with
# MU3_RATIO; it still fixes the paper's rate rule tau* = 6a/(11 d2).
PAPER_MU3_RATIO = -11.0 / 9.0


def tau_star(a: float, d2: float) -> float:
    """The paper's rate rule tau* = 6a/(11 d2), the minimizer over
    tau > 0 of reduced_energy_polynomial, -a tau^2 - PAPER_MU3_RATIO d2
    tau^3.

    The minimizer with the derived coefficient MU3_RATIO would be
    3a/(8 d2); it is not adopted, so every sweep keeps the paper's mu.
    The rule is written with integers, 2/(3 * 11/9) = 6/11, so that tau*
    does not pick up the rounding of PAPER_MU3_RATIO.
    """
    if a <= 0.0:
        raise ValueError("quadratic coefficient must be positive; the point "
                         "admits no fixed-center construction")
    if d2 <= 0.0:
        raise ValueError(f"d2 must be positive, got {d2}")
    return 6.0 * a / (11.0 * d2)


def reduced_energy_polynomial(tau, a: float, d2: float):
    """The paper's reduced energy P(tau) = -a tau^2 - PAPER_MU3_RATIO d2
    tau^3 = -a tau^2 + (11/9) d2 tau^3 (vectorized in tau), whose
    minimizer is tau_star."""
    tau = np.asarray(tau, dtype=float)
    return -a * tau ** 2 - PAPER_MU3_RATIO * d2 * tau ** 3


def expansion_E(u_xi: float, v_xi: float, beta: int, mu: float, eps: float,
                lam0: float) -> float:
    """Three-term reduced energy at a concentration point.

    d1 (lam0/2 + beta u(xi)) mu^2 + eps d1 (1/2 + beta v(xi)) mu^2
    - MU3_RATIO d2 mu^3, so that J(V) - J(z) = c2 - E to this order; the
    first term is identically zero on the levels u(xi) = -beta lam0/2.
    """
    d1 = d1_closed_form()
    d2 = d2_value(u_xi)
    return (d1 * (0.5 * lam0 + beta * u_xi) * mu ** 2
            + eps * d1 * (0.5 + beta * v_xi) * mu ** 2
            - MU3_RATIO * d2 * mu ** 3)


# ---------------------------------------------------------------------------
# energies

def energy(u, lam: float) -> float:
    """J(u) = 1/2 ||grad u||^2 - lam/2 ||u||^2 - 1/3 ||u||_3^3 by grid
    quadrature."""
    if isinstance(u, AnsatzProfile):
        u = u.fn
    w = u.grid.quad_weights
    kinetic = 0.5 * float(np.dot(w, u.derivative ** 2))
    mass = 0.5 * lam * float(np.dot(w, u.values ** 2))
    cubic = float(np.dot(w, np.abs(u.values) ** 3)) / 3.0
    return kinetic - mass - cubic


def _base_energy(T: EpsTable) -> float:
    """J(z) via 1/2 int z (-Delta z) - lam/2 int z^2 - 1/3 int z^3 at
    eps = T.eps, lam = T.lam, over the knot cells: z and r^5 from the eps
    table, u_0, v, w from its SplineSet's _fields."""
    S, eps, lam = T.splines, T.eps, T.lam
    lam0 = S.profiles.lam0
    total = 0
    for cols, _, weights in S.cell_chunks():
        u0, v, w = S._fields[0, :, cols]
        z, r5 = T._table[0, cols], T._table[4, cols]
        if np.any(z < 0.0):
            raise ConfigError("z must stay positive on the ball for the "
                              "base-energy formula; reduce |eps|")
        neg_laplacian_z = (lam0 * u0 + u0 ** 2
                           + eps * ((lam0 + 2.0 * u0) * v + u0)
                           + eps ** 2 * ((lam0 + 2.0 * u0) * w + v + v ** 2))
        total = total + (0.5 * z * neg_laplacian_z - 0.5 * lam * z ** 2
                         - z ** 3 / 3.0) * r5 @ weights
    return sphere_area(6) * float(total)


def _row_integrals(T: EpsTable, mu: float,
                   crossing: float) -> tuple[float, float, float, float]:
    """(J(V) - J(z), ||-Delta V - lam V - |V|V||_{L^{3/2}}, the
    single-shot J(V) - J(z), the single-shot J(z)) of one ansatz row at
    eps = T.eps, lam = T.lam, from one pass of panel quadrature.

    The sign change of V is the only kink of these integrands, so the
    mu-refined panels of [0, crossing] and [crossing, 1] serve all of
    them.  What does not depend on mu (z, z', the source, J(z)'s
    integrand and r^5) comes from the eps table T, which the rows of one
    eps share: a run of whole knot cells reads it as a view, and only the
    panels that split a knot cell derive it afresh.  The row evaluates U,
    W, V, the cubic, the residual and the V side of the audit.

    The gap is assembled from pointwise-small differences: the quadratic
    groups use the exact bubble integrals, and the cubic group is
    expanded on each side of the sign change, so no O(1) totals are
    subtracted.  The residual is in cancellation-free form: with
    G := -Delta z it equals (G - lam z) - U^2 + lam W - f(z - W), the
    source identity replaces G - lam z, and the U^2-vs-f(V) difference is
    expanded so no large squares survive.  The single-shot J(V) - J(z)
    integrates the difference of the two functionals' kinetic, quadratic
    and cubic integrands pointwise, which audits the assembled gap; the
    single-shot J(z) checks _base_energy's form of J(z).
    """
    lam, c = T.lam, boundary_trace(mu)

    def integrands(inside: bool):
        def f(r, fields):
            z, dz, source, direct_z, r5 = fields
            u = talenti_u(r, mu)
            u2 = u ** 2
            w = u - c
            v = z - w
            if inside:
                # V = z - W < 0: f(V) = -(W - z)^2
                cubic = (-w ** 3 / 3.0 + w ** 2 * z - w * z ** 2
                         + 2.0 * z ** 3 / 3.0)
                resid = source + lam * w - 2.0 * u * (z + c) + (z + c) ** 2
            else:
                # V = z - W > 0: f(V) = (z - W)^2
                cubic = z ** 2 * w - z * w ** 2 + w ** 3 / 3.0
                resid = source + lam * w - u2 - v ** 2
            direct_v = (0.5 * (dz - talenti_du(r, mu)) ** 2
                        - 0.5 * lam * v ** 2 - np.abs(v) ** 3 / 3.0)
            return np.stack((z * u2, z * w, cubic, np.abs(resid) ** 1.5,
                             direct_v - direct_z, direct_z)) * r5
        return f

    knots = T.splines.knots
    inner = _panel_integral(integrands(True),
                            _mu_refined_edges(knots, mu, 0.0, crossing), T)
    outer = _panel_integral(integrands(False),
                            _mu_refined_edges(knots, mu, crossing, 1.0), T)
    zu2, zw, cubic_gap, resid, direct_gap, direct_z = (
        sphere_area(6) * (inner + outer))

    iu2 = ball_integral_u2(mu)
    w_l2 = iu2 - 2.0 * c * ball_integral_u(mu) + c ** 2 * ball_volume(6)
    grad_gap = -zu2 + 0.5 * (ball_integral_u3(mu) - c * iu2)
    mass_gap = lam * zw - 0.5 * lam * w_l2
    return (float(grad_gap + mass_gap + cubic_gap),
            float(resid ** (2.0 / 3.0)), float(direct_gap), float(direct_z))


# ---------------------------------------------------------------------------
# the expansion sweep

@dataclass(frozen=True)
class ExpansionRow:
    """One (eps, tau-multiplier) cell of the expansion comparison."""

    eps: float
    tau_mult: float
    mu: float
    j_ansatz: float
    j_base: float
    delta: float
    e_pred: float
    defect: float
    residual_l32: float
    audit_gap: float
    base_form_gap: float


@dataclass(frozen=True)
class ExpansionReport:
    """Fitted expansion coefficients against their closed-form targets.

    delta = J(V) - J(z) is regressed on {1, mu^2, eps mu^2, mu^3} plus
    nuisance columns {eps^2 mu^2, eps mu^3, mu^4, mu^4 log mu} that the
    next expansion orders contribute; without them the leading-column
    readings absorb percent-level bias.  remainder_exponent is the
    log-log slope, along the mu = tau* |eps| ray, of the defect
    delta - c2 + E (the part of the energy the closed-form three-term
    model fails to capture), and residual_exponent is the slope of the
    ansatz residual norm on the same ray.  target_mu3 is the derived
    cubic coefficient MU3_RATIO d2; paper_mu3 = PAPER_MU3_RATIO d2 is the
    paper's, kept beside it because the two disagree.
    """

    lam0: float
    tau_star: float
    rows: tuple
    coef_const: float
    coef_mu2: float
    coef_eps_mu2: float
    coef_mu3: float
    coef_eps2_mu2: float
    coef_eps_mu3: float
    c2_closed: float
    target_eps_mu2: float
    target_mu3: float
    paper_mu3: float
    remainder_exponent: float
    residual_exponent: float


DEFAULT_EPS_MAGNITUDES = tuple(np.geomspace(0.02, 0.25, 8))
# Fewest eps magnitudes expansion_check fits (cli checks --eps-grid
# against it).
MIN_EPS_MAGNITUDES = 6
DEFAULT_TAU_MULTIPLIERS = (0.6, 0.8, 1.0, 1.25, 1.5)
REFINEMENT_EPS_MAGNITUDES = tuple(np.geomspace(0.05, 0.4, 6))


def cubic_coefficient_probe(profiles: AuxProfiles, mu_values=None) -> dict:
    """Measure the mu^3 coefficient of J(V) - J(z) at eps = 0 directly.

    Richardson extrapolation of (delta - c2)/mu^3 over a geometric mu
    ladder isolates the cubic coefficient from the mu^4 log mu tail; the
    ratio to d2 is the dimensionless constant MU3_RATIO derives.
    """
    if mu_values is None:
        mu_values = np.geomspace(4e-4, 4e-3, 6)
    mu_values = np.asarray(sorted(mu_values), dtype=float)
    S = SplineSet(profiles)
    T = EpsTable(S, 0.0, profiles.lam0)
    ratios = []
    for mu in mu_values:
        delta, *_ = _row_integrals(T, mu, _sign_crossing(S, 0.0, mu))
        ratios.append((delta - C2) / mu ** 3)
    ratios = np.asarray(ratios)
    # leading drift is ~mu; eliminate it pairwise and keep the smallest-mu
    # extrapolant
    q = mu_values[1:] / mu_values[:-1]
    extrap = (q * ratios[:-1] - ratios[1:]) / (q - 1.0)
    value = float(extrap[0])
    spread = float(np.max(np.abs(np.diff(extrap))))
    # with the cubic term removed, the rest of the gap is the expansion
    # tail; its measured exponent certifies the remainder order
    tail = np.abs((ratios - value) * mu_values ** 3)
    tail_exponent = float(np.polyfit(np.log(mu_values), np.log(tail), 1)[0])
    return {
        "mu3_coefficient": value,
        "extrapolation_spread": spread,
        "ratio_to_d2": value / d2_value(float(profiles.u0.values[0])),
        "tail_exponent": tail_exponent,
        "mu_values": [float(m) for m in mu_values],
    }


def case1_parameters(profiles: AuxProfiles) -> tuple[float, float]:
    """(sign of eps, tau*) for the fixed-center construction at the
    center with beta = -1.

    tau* follows the paper's rate rule 6a/(11 d2) (see tau_star), not the
    minimizer 3a/(8 d2) of the derived cubic MU3_RATIO.
    """
    b = 0.5 - profiles.v0
    if b == 0.0:
        raise AllPointsExcludedError("v(0) = 1/2: no fixed-center "
                                     "construction at the center")
    d2 = d2_value(profiles.u0.values[0])
    return -math.copysign(1.0, b), tau_star(d1_closed_form() * abs(b), d2)


def expansion_check(profiles: AuxProfiles,
                    eps_magnitudes=DEFAULT_EPS_MAGNITUDES,
                    tau_multipliers=DEFAULT_TAU_MULTIPLIERS) -> ExpansionReport:
    """Sweep (eps, mu) on the fixed-center schedule and fit the expansion.

    Every row carries J(V), J(z), their gap, the three-term prediction,
    and the residual norm.  Every row is audited: audit_gap is the
    distance of the single-shot quadrature of J(V) - J(z) from the gap,
    a bound on the assembly error of the gap route, and base_form_gap is
    the distance of the single-shot J(z) from j_base, which comes from
    the -Delta z form of _base_energy.
    """
    mags = sorted(float(m) for m in eps_magnitudes)
    if len(mags) < MIN_EPS_MAGNITUDES:
        raise ConfigError(f"at least {MIN_EPS_MAGNITUDES} eps magnitudes "
                          f"are required")
    if len(set(mags)) != len(mags):
        raise ConfigError("eps magnitudes must be distinct")
    S = SplineSet(profiles)
    lam0 = profiles.lam0
    u00, v00 = float(profiles.u0.values[0]), profiles.v0
    sign, tau0 = case1_parameters(profiles)

    rows = []
    for mag in mags:
        eps = sign * mag
        lam = lam0 + eps
        T = EpsTable(S, eps, lam)
        j_base = _base_energy(T)
        for t in tau_multipliers:
            mu = t * tau0 * mag
            delta, resid, direct_gap, direct_z = _row_integrals(
                T, mu, _sign_crossing(S, eps, mu))
            e_pred = expansion_E(u00, v00, -1, mu, eps, lam0)
            rows.append(ExpansionRow(
                eps=eps,
                tau_mult=t,
                mu=mu,
                j_ansatz=j_base + delta,
                j_base=j_base,
                delta=delta,
                e_pred=e_pred,
                defect=delta - C2 + e_pred,
                residual_l32=resid,
                audit_gap=abs(direct_gap - delta),
                base_form_gap=abs(direct_z - j_base),
            ))
        del T  # one eps table alive at a time

    eps_arr = np.array([row.eps for row in rows])
    mu_arr = np.array([row.mu for row in rows])
    y = np.array([row.delta for row in rows])
    columns = np.column_stack([
        np.ones_like(mu_arr),
        mu_arr ** 2,
        eps_arr * mu_arr ** 2,
        mu_arr ** 3,
        eps_arr ** 2 * mu_arr ** 2,
        eps_arr * mu_arr ** 3,
        mu_arr ** 4,
        mu_arr ** 4 * np.log(mu_arr),
    ])
    scale = np.max(np.abs(columns), axis=0)
    coef, *_ = np.linalg.lstsq(columns / scale, y, rcond=None)
    coef /= scale
    central = [row for row in rows if math.isclose(row.tau_mult, 1.0)]

    def _ray_slope(values) -> float:
        vals = np.asarray(values, dtype=float)
        keep = np.abs(vals) > 1e-12
        if np.count_nonzero(keep) < 4:
            return math.inf
        x = np.log([row.mu for row, k in zip(central, keep) if k])
        return float(np.polyfit(x, np.log(np.abs(vals[keep])), 1)[0])

    rem_slope = _ray_slope([row.defect for row in central])
    res_slope = _ray_slope([row.residual_l32 for row in central])

    d1 = d1_closed_form()
    return ExpansionReport(
        lam0=lam0,
        tau_star=tau0,
        rows=tuple(rows),
        coef_const=float(coef[0]),
        coef_mu2=float(coef[1]),
        coef_eps_mu2=float(coef[2]),
        coef_mu3=float(coef[3]),
        coef_eps2_mu2=float(coef[4]),
        coef_eps_mu3=float(coef[5]),
        c2_closed=C2,
        target_eps_mu2=-d1 * (0.5 - v00),
        target_mu3=MU3_RATIO * d2_value(u00),
        paper_mu3=PAPER_MU3_RATIO * d2_value(u00),
        remainder_exponent=rem_slope,
        residual_exponent=res_slope,
    )


# ---------------------------------------------------------------------------
# Newton refinement sweep (the remainder-size proxy)

@dataclass(frozen=True)
class RefinementRow:
    """Newton outcome for one fixed-center ansatz."""

    eps: float
    mu: float
    distance_h1: float
    iterations: int
    residual_l32: float
    multiplier: float


@dataclass(frozen=True)
class RefinementReport:
    """Newton-refinement sweep with the fitted decay of the correction.

    distance_exponent fits ||u* - V||_{H^1} against mu after dividing
    out the slowly varying factor |ln mu|^{2/3} that multiplies the
    quadratic term of the remainder bound; distance_exponent_raw fits the
    distances as they are.  Over any finite mu window the raw fit
    sits below the adjusted one by roughly (2/3)/|ln mu|.
    """

    rows: tuple
    distance_exponent: float
    distance_exponent_raw: float


def refinement_sweep(profiles: AuxProfiles,
                     eps_magnitudes=REFINEMENT_EPS_MAGNITUDES,
                     tau_mult: float = 1.0,
                     h_over_scale: float = 0.0025,
                     h_max: float = 1.0 / 512.0,
                     max_iter: int = 60) -> RefinementReport:
    """Refine the ansatz to a true solution for each eps and record the
    H^1 drift, which the remainder bound controls by mu^2 log and eps^3
    terms.

    Newton runs in the core variable y = r/mu with the critically scaled
    unknown mu^2 u(mu y), where the bubble has amplitude and spacing O(1).
    In the original variable the flux differences of the discrete
    Laplacian cancel to (h/mu)^2 of terms of size 1/mu^4, and the rounding
    floor eps_mach |u| / h^2 swamps the Newton correction long before the
    iteration can settle; the rescaling removes the cancellation while the
    gradient seminorm, the L^{3/2} residual norm, and the solution set of
    the discrete system are all invariant under it.

    The iteration is pinned along the dilation generator of the bubble,
    mu d/dmu of the scaled profile, the direction in which the
    linearization is nearly singular; the refined profile solves the
    equation in the complement and the recorded distance is the size of
    the transversal correction, the quantity the remainder bound speaks
    about.  The leftover one-dimensional defect is the Newton result's
    multiplier.
    """
    sign, tau0 = case1_parameters(profiles)
    S = SplineSet(profiles)
    rows = []
    for mag in sorted(float(m) for m in eps_magnitudes):
        eps = sign * mag
        mu = tau_mult * tau0 * mag
        spec = AnsatzSpec(profiles=profiles, eps=eps, mu=mu)
        grid = make_core_grid(6, mu, h_over_scale=h_over_scale, h_max=h_max)
        ansatz = assemble_ansatz(spec, grid=grid, splines=S)
        core_grid = rescale_grid(grid, 1.0 / mu)
        guess = RadialFn(core_grid, mu ** 2 * ansatz.fn.values,
                         mu ** 3 * ansatz.fn.derivative)
        pin = RadialFn.from_values(core_grid,
                                   -kernel_psi0(core_grid.nodes, 1.0))
        result = newton_refine(guess, spec.lam * mu ** 2,
                               max_iter=max_iter, pin=pin)
        err = RadialFn(grid,
                       (result.profile.values - guess.values) / mu ** 2,
                       (result.profile.derivative - guess.derivative) / mu ** 3)
        rows.append(RefinementRow(
            eps=eps,
            mu=mu,
            distance_h1=h1_norm(err),
            iterations=result.iterations,
            residual_l32=residual_norm(ansatz, spec.lam),
            multiplier=result.multiplier,
        ))
    log_mu = np.log([row.mu for row in rows])
    log_d = np.log([row.distance_h1 for row in rows])
    raw = float(np.polyfit(log_mu, log_d, 1)[0])
    adjusted = float(np.polyfit(log_mu, log_d - (2.0 / 3.0) * np.log(-log_mu), 1)[0])
    return RefinementReport(rows=tuple(rows), distance_exponent=adjusted,
                            distance_exponent_raw=raw)
