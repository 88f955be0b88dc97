"""The residual and the reduced-energy expansion of the bubble ansatz.

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
mu.  z is read from auxiliary.AuxFields, which build_profiles returns
and which exist only at N = 6: the dense output of the three shots
behind u_0, v and w (u, psi = du/da and w_p), which is one polynomial
between the shots' step ends (the knots, about 200).  No grid is sampled.
Quadrature is composite Gauss on panels aligned with the knots and
refined geometrically at the bubble scale, which is exact on products
of those pieces up to degree 23 and resolves the mu-core without
adaptive overhead.  The sign change of V is the only kink of the integrands of
an (eps, mu) row, so each row has one panel set, split there: the energy
gap, the residual norm and the single-shot J(V) that audits the gap are
integrated together on it.  What the rows of one eps share (z, z', the
source -Delta z - lam z, J(z)'s integrand and r^5) is an EpsTable at the
Gauss nodes of every knot cell, filled in one pass that also sums J(z).
It is the one table panel quadrature reads: a row reads runs of whole
knot cells as views of it, derives those fields afresh only on the
panels that split a knot cell, and evaluates only what depends on mu.
V itself is never sampled: residual_norm (one row) and expansion_check
(the sweep) reach every row through _eps_rows, so a row's residual has
one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auxiliary import AuxFields
from .bubbles import (
    ALPHA6,
    GAUSS_LEGENDRE,
    GAUSS_ORDER,
    ball_integral_u,
    ball_integral_u2,
    ball_integral_u3,
    boundary_trace,
    d1_closed_form,
    d2_value,
    talenti_du,
    talenti_u,
)
from .errors import (
    AllPointsExcludedError,
    ConfigError,
    UnderResolvedError,
)
from .grid import ball_volume, sphere_area
from .roots import brentq

# Gauss nodes per evaluation of a panel integrand, whole panels; bounds
# the memory that a chunk's temporaries take
QUAD_CHUNK = 512 * GAUSS_ORDER
# panel edges closer than this are merged; the bubble core gets dyadic
# panels from mu/16 up, so mu/16 must exceed it
EDGE_MERGE_TOL = 1e-14
# the constant term of J(V) - J(z): the bubble energy (1/6) int_{R^6} U^3
C2 = ALPHA6 ** 3 * sphere_area(6) / 360.0


# ---------------------------------------------------------------------------
# the fields of one eps

def _gauss_panels(lo: np.ndarray, hi: np.ndarray):
    """Gauss nodes and weights of the panels [lo, hi], panel by panel."""
    x, w = GAUSS_LEGENDRE
    h = 0.5 * (hi - lo)[:, None]
    return (lo[:, None] + h * (x + 1.0)).ravel(), (h * w).ravel()


class EpsTable:
    """What the (eps, mu) rows of one eps need and that does not depend
    on mu: the rows z = u_0 + eps v + eps^2 w, z', the source
    -Delta z - lam z, J(z)'s integrand z'^2/2 - lam z^2/2 - |z|^3/3 and
    r^5 at the Gauss nodes of every cell between the fields'
    breakpoints (the knots), read-only; the pass that fills it sums J(z)
    for _base_energy.

    chunks() reads a run of whole knot cells as a view of the table, and
    derives the fields on all the panels that split a knot cell in one
    pass, by the formulas that filled the table, so each field has one
    code path.
    """

    def __init__(self, fields: AuxFields, eps: float, lam: float):
        self.fields, self.eps, self.lam = fields, eps, lam
        self.knots = knots = fields.breakpoints
        r, weights = _gauss_panels(knots[:-1], knots[1:])
        samples = fields(r)
        table = self._derive(samples, r)
        (u0, v, w), z, r5 = samples[0], table[0], table[4]
        lam0 = fields.lam0
        a = lam0 + 2.0 * u0
        neg_laplacian_z = (lam0 * u0 + u0 ** 2 + eps * (a * v + u0)
                           + eps ** 2 * (a * w + v + v ** 2))
        total = (0.5 * z * neg_laplacian_z - 0.5 * lam * z ** 2
                 - z ** 3 / 3.0) * r5 @ weights
        table.flags.writeable = False
        self._table = table
        self._j_base = (None if np.any(z < 0.0)
                        else sphere_area(6) * float(total))

    def _derive(self, samples, r):
        (u0, v, w), (du0, dv, dw) = samples
        eps, lam = self.eps, self.lam
        z = u0 + eps * v + eps ** 2 * w
        dz = du0 + eps * dv + eps ** 2 * dw
        source = (u0 + eps * v) ** 2 + 2.0 * eps ** 2 * u0 * w - eps ** 3 * w
        direct_z = 0.5 * dz ** 2 - 0.5 * lam * z ** 2 - np.abs(z) ** 3 / 3.0
        return np.stack((z, dz, source, direct_z, r ** 5))

    def chunks(self, edges: np.ndarray):
        """Gauss nodes r, weights and fields (5, len(r)) of the panels
        `edges`, QUAD_CHUNK nodes (whole panels) at a time."""
        knots, g = self.knots, GAUSS_ORDER
        lo, hi = edges[:-1], edges[1:]
        k = np.searchsorted(knots, edges)
        on_knot = knots[np.minimum(k, len(knots) - 1)] == edges
        split = ~(on_knot[:-1] & on_knot[1:] & (np.diff(k) == 1))
        nodes = _gauss_panels(lo[split], hi[split])[0]
        fresh = self._derive(self.fields(nodes), nodes)
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
            r, w = _gauss_panels(lo[p0:p1], hi[p0:p1])
            yield r, w, (pieces[0] if len(pieces) == 1
                         else np.concatenate(pieces, -1))


# ---------------------------------------------------------------------------
# panel quadrature: on the fields' pieces, geometric at the bubble core

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
# the rows of one eps

def _sign_crossing(fields: AuxFields, eps: float, mu: float) -> float:
    """Radius where z = W, the sign change of the ansatz.  A rate mu
    outside (0, 0.5) is refused: the bubble is no longer concentrated,
    and the |eps| behind it can overflow z."""
    if not 0.0 < mu < 0.5:
        raise ConfigError(f"bubble rate mu = {mu:.6g} is outside (0, 0.5); "
                          "reduce |eps|")

    def gap(r):
        return fields.z(r, eps) - (talenti_u(r, mu) - boundary_trace(mu))
    lo, hi = mu, 0.999
    if gap(lo) >= 0.0 or gap(hi) <= 0.0:
        raise ConfigError("ansatz sign change not bracketed; mu outside the "
                          "supported range")
    return float(brentq(gap, lo, hi, xtol=1e-15, rtol=1e-15))


def _eps_rows(fields: AuxFields, eps: float,
              mus) -> tuple[EpsTable, list]:
    """(the EpsTable of eps at lam = lam_0 + eps, the _row_integrals of
    the ansatz row at each rate in mus): the one path from (eps, mu) to a
    row's integrals, for residual_norm and expansion_check alike.  The
    sign changes are found first, so a bad rate is refused before the
    table is built."""
    crossings = [_sign_crossing(fields, eps, mu) for mu in mus]
    T = EpsTable(fields, eps, fields.lam0 + eps)
    return T, [_row_integrals(T, mu, x) for mu, x in zip(mus, crossings)]


def residual_norm(fields: AuxFields, eps: float, mu: float) -> float:
    """L^{3/2}(B_1) norm of -Delta V - lam V - |V|V at lam = lam_0 + eps,
    by the analytic route: the exact bubble Laplacian and the smooth part
    from the fields.  It is expansion_check's residual_l32 of the same
    row."""
    _, [row] = _eps_rows(fields, eps, [mu])
    return row[1]


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
    tau > 0 of the paper's reduced energy P(tau) = -a tau^2
    - PAPER_MU3_RATIO d2 tau^3.

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

def _base_energy(T: EpsTable) -> float:
    """J(z) via 1/2 int z (-Delta z) - lam/2 int z^2 - 1/3 int z^3 at
    eps = T.eps, lam = T.lam, over the knot cells, as T summed it."""
    if T._j_base is None:
        raise ConfigError("z must stay positive on the ball for the "
                          "base-energy formula; reduce |eps|")
    return T._j_base


def _row_integrals(T: EpsTable, mu: float,
                   crossing: float) -> tuple[float, float, float, float]:
    """(J(V) - J(z), ||-Delta V - lam V - |V|V||_{L^{3/2}}, the
    single-shot J(V) - J(z), the single-shot J(z)) of one ansatz row at
    eps = T.eps, lam = T.lam, from one pass of panel quadrature.

    The sign change of V is the only kink of these integrands, so the
    mu-refined panels of [0, crossing] and [crossing, 1] serve all of
    them.  What does not depend on mu comes from the eps table T, which
    the rows of one eps share; the row evaluates U, W, V, the cubic, the
    residual and the V side of the audit.

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
            # scaled in place, so the stack is the one (6, len(r)) buffer
            out = np.stack((z * u2, z * w, cubic, np.abs(resid) ** 1.5,
                            direct_v - direct_z, direct_z))
            return np.multiply(out, r5, out=out)
        return f

    knots = T.knots
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
# the rates mu = t tau* |eps| of each eps's rows
TAU_MULTIPLIERS = (0.6, 0.8, 1.0, 1.25, 1.5)


def case1_parameters(fields: AuxFields) -> tuple[float, float]:
    """(sign of eps, tau*) for the fixed-center construction at the
    center with beta = -1.

    tau* follows the paper's rate rule 6a/(11 d2) (see tau_star), not the
    minimizer 3a/(8 d2) of the derived cubic MU3_RATIO.
    """
    u00, v00, _ = fields.origin()
    b = 0.5 - v00
    if b == 0.0:
        raise AllPointsExcludedError("v(0) = 1/2: no fixed-center "
                                     "construction at the center")
    d2 = d2_value(u00)
    return -math.copysign(1.0, b), tau_star(d1_closed_form() * abs(b), d2)


def expansion_check(fields: AuxFields,
                    eps_magnitudes=DEFAULT_EPS_MAGNITUDES) -> ExpansionReport:
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
    lam0 = fields.lam0
    u00, v00, _ = fields.origin()
    sign, tau0 = case1_parameters(fields)

    rows = []
    for mag in mags:
        eps = sign * mag
        mus = [t * tau0 * mag for t in TAU_MULTIPLIERS]
        T, integrals = _eps_rows(fields, eps, mus)
        j_base = _base_energy(T)
        del T  # one eps table alive at a time
        for t, mu, (delta, resid, direct_gap, direct_z) in zip(
                TAU_MULTIPLIERS, mus, integrals):
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
