"""Auxiliary linear profiles and non-degeneracy certificates.

Around the ground state u_0 at the self-consistent parameter lam_0, the
linearized operator is L = -Delta - lam_0 - 2|u_0|.  Two radial profiles
with Dirichlet boundary feed the finite-dimensional expansion:

    L v = u_0,    L w = v + sgn(u_0) v^2.

No matrix gives them.  At N = 6 the critical scaling u -> s^2 u(s .)
gives L (u_0 + r u_0'/2) = lam_0 u_0, and L psi = 0 for the certificate's
psi = du/da, so v is (u_0 + r u_0'/2)/lam_0 plus the multiple of psi
that makes v(1) = 0, and w one forced linear shot plus a multiple of psi.
Essential non-degeneracy of u_0 is the statement that lam_0 keeps a
positive distance from the Dirichlet spectrum of -Delta - 2|u_0| in
every angular sector; sectors l with

    nu_1(-Delta_0 - 2|u_0|) + l (l + N - 2) > lam_0

cannot close the gap because 1/r^2 >= 1 on the ball, so only finitely
many sectors need an eigensolve and the cutoff is certified, not assumed.
nu_1 is the first entry of sector 0's Sturm bracket of lam_0, which gives its gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import DEFAULT_L_MAX
from .grid import RadialFn, RadialGrid, make_grid
from .operators import OperatorSpec, assemble, min_singular_value
from .shooting import Lambda0Certificate, linear_shot

# E: a stated bound on the IVP error of the end values u_0(1), u_0'(1) and
# psi(1) of the certificate's shots; against an rtol 3e-14 shot they are
# off by 1.2e-11, 1.1e-11 and 2.4e-12, which a test checks
END_VALUE_ERROR = 1e-10


@dataclass(frozen=True, eq=False)
class AuxProfiles:
    """Ground state and the two auxiliary profiles on a shared grid, the
    certificate's Newton step and psi(1) (nan if tabulated)."""

    dimension: int
    lam0: float
    amplitude: float
    u0: RadialFn = field(repr=False)
    v: RadialFn = field(repr=False)
    w: RadialFn = field(repr=False)
    newton_step: float = field(default=math.nan, repr=False)
    psi_at_1: float = field(default=math.nan, repr=False)

    @property
    def grid(self) -> RadialGrid:
        return self.u0.grid

    @property
    def v0(self) -> float:
        return float(self.v.values[0])

    @property
    def w0(self) -> float:
        return float(self.w.values[0])

    def linearized_potential(self) -> np.ndarray:
        return 2.0 * np.abs(self.u0.values)


def build_profiles(certificate: Lambda0Certificate,
                   grid_n: int = 4096) -> AuxProfiles:
    """u_0 and psi sampled from the certificate's shots on a uniform grid of
    grid_n cells; v = (u_0 + r u_0'/2)/lam_0 + alpha psi, with u_0'' in v'
    from the equation and alpha = -(u_0(1) + u_0'(1)/2)/(lam_0 psi(1)); and
    w = w_p + beta psi, w_p the linear shot of L w_p = v + sgn(u_0) v^2 from
    w_p(0) = 0 and beta = -w_p(1)/psi(1)."""
    lam0, u, psi = certificate.lam0, certificate.trajectory, certificate.psi
    grid = make_grid(certificate.dimension, grid_n)
    u0, psi_g = u(grid), psi(grid)
    u1, du1 = u.ivp.y_end
    alpha = -(u1 + 0.5 * du1) / (lam0 * certificate.psi_at_1)
    r, f, df = grid.nodes, u0.values, u0.derivative
    v = RadialFn(grid, (f + 0.5 * r * df) / lam0 + alpha * psi_g.values,
                 -(df + 0.5 * r * (lam0 + np.abs(f)) * f) / lam0
                 + alpha * psi_g.derivative)

    def forcing(r, u_r):
        v_r = (u_r + 0.5 * r * u.ivp.at(r, 1)) / lam0 + alpha * psi.ivp.at(r, 0)
        return v_r + math.copysign(v_r * v_r, u_r)

    v0 = float(v.values[0])  # u_0(0) = lam_0/2 > 0
    w_p = linear_shot(u, lam0, (0.0, -(v0 + v0 * v0) / 12.0), forcing)
    beta = -w_p.ivp.y_end[0] / certificate.psi_at_1
    wp_g = w_p(grid)
    w = RadialFn(grid, wp_g.values + beta * psi_g.values,
                 wp_g.derivative + beta * psi_g.derivative)
    return AuxProfiles(certificate.dimension, lam0, certificate.amplitude,
                       u0, v, w, certificate.newton_step,
                       certificate.psi_at_1)


@dataclass(frozen=True)
class ConcentrationPoint:
    """A critical point of u_0 sitting on the level +lam_0/2 or -lam_0/2.

    level is +1 or -1 for the two levels; beta = -level is the bubble sign
    that cancels the leading term of the reduced expansion there.  case is
    1 when v escapes both excluded levels +-1/2 (fixed-center schedule), 2
    when v hits +-1/2 but dv/dr does not vanish (shifted-center schedule),
    and 0 when the point supports no construction.
    """

    radius: float
    level: int
    u_value: float
    v_value: float
    dv_dr: float
    beta: int
    case: int


@dataclass(frozen=True)
class ConcentrationSurvey:
    """Critical-level survey of u_0 plus the scalar 2 v(0) - 1 report.

    essential is the verdict that the union of the two level sets is
    nonempty.  two_v_minus_one = 2 alpha = -(2 u_0(1) + u_0'(1))/(lam_0
    psi(1)) (`build_profiles`), and two_v_error is the first-order
    propagation through it of an error END_VALUE_ERROR in each of u_0(1),
    u_0'(1) and psi(1) (nan for tabulated profiles).
    """

    lam0: float
    points: tuple
    two_v_minus_one: float
    two_v_error: float
    essential: bool


LEVEL_RTOL = 1e-6
V_EXCLUSION_TOL = 1e-8


def _classify_case(v_value: float, dv_dr: float) -> int:
    if min(abs(v_value - 0.5), abs(v_value + 0.5)) > V_EXCLUSION_TOL:
        return 1
    if abs(dv_dr) > V_EXCLUSION_TOL:
        return 2
    return 0


def survey_concentration_points(profiles: AuxProfiles) -> ConcentrationSurvey:
    """Enumerate critical points of u_0 on the levels +-lam_0/2.

    Radially the candidates are the center plus any interior zero of u_0';
    each is kept when u_0 matches one of the levels to LEVEL_RTOL
    (relative to lam_0/2).  For the ground state the survey returns the
    center alone on the + level, matching the known ball picture.
    """
    lam0 = profiles.lam0
    half = 0.5 * lam0
    tol = LEVEL_RTOL * half
    r = profiles.grid.nodes
    u, du = profiles.u0.values, profiles.u0.derivative
    v, dv = profiles.v.values, profiles.v.derivative

    candidates = [0.0]
    interior = slice(1, len(r) - 1)
    sign_flip = np.flatnonzero(np.diff(np.sign(du[interior])) != 0) + 1
    for i in sign_flip:
        denom = du[i + 1] - du[i]
        frac = 0.0 if denom == 0.0 else -du[i] / denom
        candidates.append(float(r[i] + frac * (r[i + 1] - r[i])))

    points = []
    for rc in candidates:
        u_val = float(np.interp(rc, r, u))
        for level in (+1, -1):
            if abs(u_val - level * half) <= tol:
                v_val = float(np.interp(rc, r, v))
                dv_val = 0.0 if rc == 0.0 else float(np.interp(rc, r, dv))
                points.append(ConcentrationPoint(
                    radius=rc,
                    level=level,
                    u_value=u_val,
                    v_value=v_val,
                    dv_dr=dv_val,
                    beta=-level,
                    case=_classify_case(v_val, dv_val),
                ))

    two_v = 2.0 * profiles.v0 - 1.0
    e = END_VALUE_ERROR
    err = (3.0 * e + abs(two_v) * lam0 * e) / (lam0 * abs(profiles.psi_at_1))
    return ConcentrationSurvey(lam0, tuple(points), two_v, err, bool(points))


@dataclass(frozen=True)
class NondegeneracyReport:
    """Certificate that lam_0 avoids every sector's Dirichlet spectrum.

    sector_gaps[l] = min |nu - lam_0| over the computed head of sector l;
    comparison_l is the first sector where the centrifugal comparison bound
    nu_1(sector 0) + l(l+N-2) > lam_0 takes over, making the finite scan
    exhaustive (cutoff_certified).  hessian_witness is Delta u_0(0) =
    -(lam_0 u_0(0) + u_0(0)^2), strictly negative iff the center is a
    non-degenerate maximum.  origin_value_gap is the certificate's |delta|.
    survey is the critical-level enumeration; it finds the center alone.
    """

    dimension: int
    lam0: float
    l_max: int
    sector_gaps: tuple
    min_gap: float
    comparison_l: int
    cutoff_certified: bool
    hessian_witness: float
    origin_value_gap: float
    survey: ConcentrationSurvey | None = None


def essential_nondegeneracy(profiles: AuxProfiles,
                            l_max: int = DEFAULT_L_MAX,
                            ) -> NondegeneracyReport:
    """Measure the spectral gap in each sector and certify the cutoff."""
    N, lam0 = profiles.dimension, profiles.lam0
    q = profiles.linearized_potential()
    sector0 = assemble(OperatorSpec(profiles.grid, lam=lam0, potential=q))
    nu1 = float(sector0.nearest(lam0)[0])
    gaps = [sector0.min_singular(lam0)] + [min_singular_value(
        OperatorSpec(profiles.grid, sector=l, lam=lam0, potential=q))
        for l in range(1, l_max + 1)]
    comparison_l = next((l for l in range(1, l_max + 1)
                         if nu1 + l * (l + N - 2) > lam0), -1)
    u00 = float(profiles.u0.values[0])
    return NondegeneracyReport(
        dimension=N,
        lam0=lam0,
        l_max=l_max,
        sector_gaps=tuple(float(g) for g in gaps),
        min_gap=float(min(gaps)),
        comparison_l=comparison_l,
        cutoff_certified=comparison_l > 0,
        hessian_witness=-(lam0 * u00 + u00 ** 2),
        origin_value_gap=abs(profiles.newton_step),
        survey=survey_concentration_points(profiles),
    )
