"""Shooting, matching, and Newton refinement for the critical radial problem.

Radial solutions of

    -Delta u = lam u + |u|^{p-1} u  on B_1,   u(1) = 0,
    p = (N+2)/(N-2) the critical exponent,

solve the initial value problem

    u'' + (N-1)/r u' + lam u + |u|^{p-1} u = 0,  u(0) = a, u'(0) = 0,

and the branch with m nodal regions is the amplitude a at which the m-th
zero of the trajectory sits exactly at r = 1.  The m-th zero position is
strictly decreasing in lam (Sturm comparison) and, along the branches of
interest, decreasing in a; both one-dimensional matchings are therefore
bracketed root problems.

The distinguished value lam_0 solves the scalar equation

    2 u_lam(0) = lam

along the one-region (positive) branch: the solution whose doubled
maximum equals its own linear parameter.  No search is needed for it.
The critical dilation u(r) = a phi(a^{2/(N-2)} r) maps the trajectory
with parameters (lam, a) onto the one with phi(0) = 1 and
mu = lam a^{-4/(N-2)}, so its m-th zero is z_m(lam, a) =
Z_m(mu) a^{-2/(N-2)}.  At N = 6 that reads mu = lam / a, the relation
2 u(0) = lam becomes mu = 2, and matching Z_1(2) a^{-1/2} = 1 gives

    lam_0 = 2 Z_1(2)^2

from a single IVP.  The certificate then solves the Dirichlet problem
at lam_0 in the original variables, independently of the dilation, and
records the matching residuals of both readings of the relation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import (
    BlowUpBeforeOneError,
    DivergedError,
    JacobianSingularError,
    NearSingularError,
    NoSignChangeError,
    NotConvergedError,
    RadialModeViolationError,
)
from .grid import RadialFn, RadialGrid, make_core_grid, make_grid
from .operators import OperatorSpec, assemble

RTOL = 1e-10
ATOL = 1e-12
BLOWUP_FACTOR = 4.0
SIGN_TOL = 1e-10  # |u| below SIGN_TOL * ||u||_inf counts as zero


def critical_exponent(dimension: int) -> float:
    return (dimension + 2.0) / (dimension - 2.0)


def _fnl(u, p):
    return np.abs(u) ** (p - 1.0) * u


def _fnl_prime(u, p):
    return p * np.abs(u) ** (p - 1.0)


def _series(dimension: int, lam: float, a: float, p: float):
    """Coefficients (c, d) of the regular series u = a + c r^2 + d r^4:
    orders r^0 and r^2 of the equation give c = -(lam a + f(a)) / (2N)
    and d = -(lam + f'(a)) c / (4 (N + 2)).
    """
    c = -(lam * a + _fnl(a, p)) / (2.0 * dimension)
    d = -(lam + _fnl_prime(a, p)) * c / (4.0 * (dimension + 2.0))
    return c, d


def _series_start(dimension: int, lam: float, a: float, p: float):
    """Start point (r0, u, u') on the regular series (`_series`), with r0
    so small that the neglected r^6 term is far below the IVP tolerance."""
    c, d = _series(dimension, lam, a, p)
    scale = math.sqrt(abs(a) / max(abs(c), 1e-300))
    r0 = max(min(1e-3, 0.01 * scale), 1e-250)
    u0 = a + c * r0 ** 2 + d * r0 ** 4
    u1 = 2.0 * c * r0 + 4.0 * d * r0 ** 3
    return r0, u0, u1


def _make_rhs(dimension: int, lam: float, p: float):
    nm1 = dimension - 1.0

    def rhs(r, y):
        u, du = y
        return (du, -nm1 / r * du - lam * u - _fnl(u, p))

    return rhs


@dataclass(frozen=True, eq=False)
class ShootResult:
    profile: RadialFn
    boundary_value: float
    zero_count: int
    amplitude: float
    lam: float


def _integrate(dimension: int, lam: float, a: float, r_end: float,
               dense: bool = False, max_zeros: int | None = None):
    """Integrate the IVP to r_end; returns the solve_ivp solution object.

    Zero crossings are recorded as events; blow-up beyond BLOWUP_FACTOR x |a|
    terminates (the radial energy  u'^2/2 + lam u^2/2 + F(u) decreases in r,
    so trajectories are a-priori bounded and the guard only trips on
    integrator runaway).
    """
    if a == 0.0:
        raise ValueError("amplitude must be nonzero")
    p = critical_exponent(dimension)
    r0, u0, du0 = _series_start(dimension, lam, a, p)

    def zero(r, y):
        return y[0]

    zero.direction = 0.0
    if max_zeros is not None:
        zero.terminal = max_zeros

    def blowup(r, y):
        return abs(y[0]) - BLOWUP_FACTOR * abs(a)

    blowup.terminal = True

    # Flat absolute tolerance: the spike region is governed by the
    # relative tolerance, while the far field of a concentrated profile
    # carries amplitude ~ 1/a that an |a|-scaled floor would drown.
    sol = solve_ivp(_make_rhs(dimension, lam, p), (r0, r_end), (u0, du0),
                    method="DOP853", rtol=RTOL, atol=ATOL,
                    events=(zero, blowup), dense_output=dense)
    if not sol.success:
        raise NotConvergedError(f"IVP integration failed: {sol.message}")
    if len(sol.t_events[1]) > 0 and (max_zeros is None
                                     or len(sol.t_events[0]) < max_zeros):
        raise BlowUpBeforeOneError(
            f"trajectory left trust region at r={sol.t_events[1][0]:.6f} "
            f"(lam={lam}, a={a})")
    return sol, r0, p


def _sample(sol, r0: float, dimension: int, lam: float, a: float, p: float,
            grid: RadialGrid) -> RadialFn:
    """Evaluate the dense IVP solution on grid nodes, series below r0."""
    r = grid.nodes
    vals = np.empty_like(r)
    derivs = np.empty_like(r)
    below = r < r0
    if np.any(below):
        c, d = _series(dimension, lam, a, p)
        rb = r[below]
        vals[below] = a + c * rb ** 2 + d * rb ** 4
        derivs[below] = 2.0 * c * rb + 4.0 * d * rb ** 3
    above = ~below
    y = sol.sol(r[above])
    vals[above] = y[0]
    derivs[above] = y[1]
    return RadialFn(grid, vals, derivs, regular_origin=True)


def shoot(dimension: int, lam: float, amplitude: float,
          grid: RadialGrid | None = None, grid_n: int = 1024) -> ShootResult:
    """Shoot from u(0) = amplitude to r = 1 and sample the profile.

    Raises BlowUpBeforeOneError if the trajectory leaves the trust region.
    """
    if grid is None:
        grid = profile_grid(dimension, amplitude, grid_n)
    sol, r0, p = _integrate(dimension, lam, amplitude, 1.0, dense=True)
    profile = _sample(sol, r0, dimension, lam, amplitude, p, grid)
    zeros = sol.t_events[0]
    interior = int(np.sum(zeros < 1.0 - 1e-13))
    return ShootResult(profile, float(sol.y[0, -1]), interior,
                       float(amplitude), float(lam))


def profile_grid(dimension: int, amplitude: float, grid_n: int = 1024) -> RadialGrid:
    """Grid graded to the inner scale |a|^{-(p-1)/2} of a shot profile."""
    p = critical_exponent(dimension)
    scale = abs(amplitude) ** (-(p - 1.0) / 2.0)
    if scale >= 0.1:
        return make_grid(dimension, grid_n, "uniform")
    return make_core_grid(dimension, scale, h_over_scale=1.0 / 30.0,
                          h_max=1.0 / grid_n)


def _mth_zero(sol, m: int) -> float | None:
    zeros = sol.t_events[0]
    if len(zeros) < m:
        return None
    return float(zeros[m - 1])


def zero_position(dimension: int, lam: float, amplitude: float, m: int,
                  r_max: float = 10.0) -> float | None:
    """Position of the m-th zero of the trajectory, or None if it does not
    occur before r_max."""
    sol, _, _ = _integrate(dimension, lam, amplitude, r_max, max_zeros=m)
    return _mth_zero(sol, m)


def shoot_to_zero(dimension: int, lam: float, amplitude: float, m: int,
                  r_max: float = 10.0):
    """zero_position's IVP with dense output, so it can also be the profile.

    Returns the m-th zero (None if it does not occur before r_max) and a
    function that samples the trajectory on profile_grid as shoot does.
    Dense output does not change the steps, so the zero is
    zero_position's to the bit.  At a matched lambda the zero lies within
    the IVP tolerance of r = 1; when it falls short, the last step's
    interpolant carries the profile over the remaining distance.
    """
    sol, r0, p = _integrate(dimension, lam, amplitude, r_max, dense=True,
                            max_zeros=m)

    def sample() -> ShootResult:
        grid = profile_grid(dimension, amplitude)
        profile = _sample(sol, r0, dimension, lam, amplitude, p, grid)
        interior = int(np.sum(sol.t_events[0] < 1.0 - 1e-13))
        return ShootResult(profile, float(profile.values[-1]), interior,
                           float(amplitude), float(lam))

    return _mth_zero(sol, m), sample


def nodal_count(f: RadialFn, tol: float = SIGN_TOL) -> int:
    """Number of nodal regions of f on (0, 1): sign changes + 1, values below
    tol * ||f||_inf treated as zero."""
    v = f.values
    thresh = tol * np.max(np.abs(v))
    signs = np.sign(v[np.abs(v) > thresh])
    if len(signs) == 0:
        return 0
    return int(np.sum(signs[1:] != signs[:-1])) + 1


@dataclass(frozen=True, eq=False)
class BranchPoint:
    """One solution on an m-region radial branch."""

    dimension: int
    lam: float
    amplitude: float
    nodal_count: int
    residual: float
    grid_n: int
    profile: RadialFn = field(repr=False)


def solve_bvp(dimension: int, lam: float, m: int,
              amp_bracket: tuple[float, float] = (1e-2, 1e8),
              grid_n: int = 1024) -> BranchPoint:
    """Solve the Dirichlet problem on the m-region branch at fixed lam.

    Matches the m-th zero position to 1 by a bracketed solve in ln(a);
    raises NoSignChangeError when no amplitude in the bracket brackets the
    matching condition.  brentq starts from the scan's last two points,
    so psi is cached and each ln(a) is shot once.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")

    @functools.cache
    def psi(x):
        z = zero_position(dimension, lam, math.exp(x), m)
        return (z if z is not None else 10.0 * (1.0 + abs(x))) - 1.0

    lo, hi = math.log(amp_bracket[0]), math.log(amp_bracket[1])
    # geometric scan for a sign change of psi (decreasing in a)
    xs = np.linspace(lo, hi, 49)
    prev_x, prev_f = None, None
    bracket = None
    for x in xs:
        fx = psi(x)
        if prev_f is not None and prev_f > 0.0 >= fx:
            bracket = (prev_x, x)
            break
        prev_x, prev_f = x, fx
    if bracket is None:
        raise NoSignChangeError(
            f"no m={m} matching amplitude in {amp_bracket} at lam={lam}")
    xstar = brentq(psi, bracket[0], bracket[1], xtol=1e-14, rtol=1e-15)
    a = math.exp(xstar)
    res = shoot(dimension, lam, a, grid_n=grid_n)
    residual = abs(res.boundary_value) / np.max(np.abs(res.profile.values))
    regions = nodal_count(res.profile)
    if regions != m:
        raise NotConvergedError(
            f"matched profile has {regions} regions, wanted {m}")
    return BranchPoint(dimension, float(lam), a, m, float(residual),
                       res.profile.grid.n_cells, res.profile)


@dataclass(frozen=True, eq=False)
class Lambda0Certificate:
    """Certificate for the self-consistent parameter 2 max u = lam.

    gap is |2 u(0) - lam_0|; gap_alt is the halved reading |u(0) - lam_0/2|.
    """

    dimension: int
    lam0: float
    amplitude: float
    gap: float
    gap_alt: float
    branch: BranchPoint = field(repr=False)


def find_lambda0(dimension: int = 6, grid_n: int = 2048) -> Lambda0Certificate:
    """Solve 2 a(lam) = lam along the positive branch.

    By the critical dilation (module docstring) the solution is
    lam_0 = 2 Z_1(2)^2, with Z_1(2) the first zero of the trajectory with
    phi(0) = 1 at lam = 2: one IVP.  The branch point at lam_0 is then
    matched by solve_bvp in the original variables, so gap checks the
    dilation route.  Only at N = 6 do u(0) and lam scale alike under the
    dilation; any other dimension raises RadialModeViolationError.
    """
    if dimension != 6:
        raise RadialModeViolationError(
            f"2u(0) = lambda_0 is specific to N = 6, got N = {dimension}")
    z = zero_position(6, 2.0, 1.0, 1)
    lam0 = 2.0 * z * z
    branch = solve_bvp(dimension, lam0, 1, grid_n=grid_n)
    u0 = branch.amplitude
    return Lambda0Certificate(dimension, float(lam0), float(u0),
                              abs(2.0 * u0 - lam0), abs(u0 - 0.5 * lam0),
                              branch)


@dataclass(frozen=True, eq=False)
class NewtonResult:
    profile: RadialFn = field(repr=False)
    iterations: int
    residual_history: tuple
    multiplier: float = 0.0


def newton_refine(guess: RadialFn, lam: float, max_iter: int = 40,
                  tol: float = 1e-11, pin: RadialFn | None = None) -> NewtonResult:
    """Damped Newton on the discrete problem from the given profile.

    Works on the guess's own grid with the lumped weak residual
    F(u) = M^{-1} A0 u - lam u - f(u); the Jacobian is the sector-0 linear
    operator with potential f'(u).  Damping is error-oriented: a trial
    step is accepted when the simplified correction J(u)^{-1} F(u + s d)
    contracts relative to d, which keeps working when the residual norm
    itself is a poor progress measure.

    A concentrated two-scale profile makes the plain iteration hopeless:
    the linearization is nearly singular along the dilation direction of
    the concentrating piece, so the Newton step blows a tiny residual up
    into an enormous excursion along that mode.  Passing that direction
    as `pin` switches to the bordered system

        F(u) - a pin = 0,   <pin, u - guess>_M = 0,

    with the scalar multiplier a as extra unknown.  The bordered Jacobian
    is uniformly invertible, Newton contracts at the usual rate, and the
    refined profile solves the equation exactly in the complement of the
    pinned direction (a is reported as `multiplier`; |a| measures the
    leftover one-dimensional defect).

    Failure to contract raises DivergedError, a singular Jacobian raises
    JacobianSingularError.
    """
    grid = guess.grid
    p = critical_exponent(grid.dimension)
    asm0 = assemble(OperatorSpec(grid, sector=0, lam=lam))
    idx = asm0.idx
    masses = asm0.masses

    def weak_residual(u_full: np.ndarray) -> np.ndarray:
        return (asm0.apply(u_full) - _fnl(u_full, p))[idx]

    def norm(vec: np.ndarray) -> float:
        return math.sqrt(float(np.dot(masses, vec ** 2)))

    u = guess.values.copy()
    u[-1] = 0.0
    if pin is not None:
        psi = pin.values[idx]
        pin_scale = norm(psi)
        if pin_scale == 0.0:
            raise ValueError("pin direction vanishes at the interior nodes")
        psi = psi / pin_scale
        mpsi = masses * psi
        u_anchor = u[idx].copy()
    a = 0.0
    res = weak_residual(u)
    history = [norm(res)]
    converged = False
    damping = 1.0

    def corrector(u_cur):
        """Return a solve closure mapping (u, a) to the Newton correction."""
        jac = assemble(OperatorSpec(grid, sector=0, lam=lam,
                                    potential=_fnl_prime(u_cur, p)))
        if pin is None:
            try:
                solve = jac.factor(lam)
            except NearSingularError as exc:
                raise JacobianSingularError(str(exc)) from exc

            def correct(u_full, a_cur):
                du = solve(-masses * weak_residual(u_full))
                return du, 0.0
            return correct
        d, e = jac.shifted(lam)
        m = len(d)
        ji = np.concatenate((np.arange(m), np.arange(m - 1),
                             np.arange(1, m), np.arange(m),
                             np.full(m, m), [m]))
        jj = np.concatenate((np.arange(m), np.arange(1, m),
                             np.arange(m - 1), np.full(m, m),
                             np.arange(m), [m]))
        jv = np.concatenate((d, e, e, -mpsi, mpsi, [0.0]))
        try:
            lu = splu(csc_matrix((jv, (ji, jj)), shape=(m + 1, m + 1)))
        except RuntimeError as exc:
            raise JacobianSingularError(str(exc)) from exc

        def correct(u_full, a_cur):
            g1 = masses * weak_residual(u_full) - a_cur * mpsi
            g2 = float(np.dot(mpsi, u_full[idx] - u_anchor))
            sol = lu.solve(np.concatenate((-g1, [-g2])))
            return sol[:-1], float(sol[-1])
        return correct

    for it in range(max_iter):
        correct = corrector(u)
        du, da = correct(u, a)
        if not np.all(np.isfinite(du)) or not math.isfinite(da):
            raise JacobianSingularError("non-finite Newton step")
        norm_delta = math.hypot(norm(du), da)
        scale = max(1.0, float(np.max(np.abs(u))))
        if norm_delta <= tol * scale:
            u[idx] += du
            a += da
            converged = True
            break
        step = damping
        while step >= 2.0 ** -16:
            trial = u.copy()
            trial[idx] += step * du
            a_trial = a + step * da
            du2, da2 = correct(trial, a_trial)
            theta = math.hypot(norm(du2), da2) / norm_delta
            if theta < 1.0:
                break
            step *= 0.5
        else:
            raise DivergedError(
                f"no contraction at iteration {it} "
                f"(residual {history[-1]:.3e})")
        u = trial
        a = a_trial
        res = weak_residual(u) - (a * psi if pin is not None else 0.0)
        history.append(norm(res))
        damping = min(1.0, 2.0 * step) if theta < 0.5 else step
        if step == 1.0 and math.hypot(norm(du2), da2) <= tol * scale:
            converged = True
            break
    if not converged:
        raise NotConvergedError(
            f"Newton did not converge in {max_iter} iterations "
            f"(last residual {history[-1]:.3e})")
    return NewtonResult(RadialFn.from_values(grid, u), it + 1, tuple(history),
                        a / pin_scale if pin is not None else 0.0)
