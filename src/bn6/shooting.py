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

Every IVP runs on this module's own DOP853 loop, `solve_ivp`: the
tableau of the public scipy.integrate.DOP853 class attributes with
scipy's step control, event location and dense output, bit-identical
to scipy.integrate.solve_ivp(method="DOP853") on the same host at
about a third of its cost per IVP.  The stage, solution and error sums
stay numpy's BLAS dots on the same arrays: OpenBLAS fuses
multiply-adds that no Python float sum reproduces, and a pure-float
DOP853 moved the N = 4, m = 2 branch tail by up to 9.996e-9 relative,
because the matched lambda there sits in the IVP's noise band.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.integrate import DOP853, DenseOutput, OdeSolution
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
    """Right-hand side of the first-order system, on Python floats: the
    operations of `_fnl` in the same order, so the value is bit-identical
    and the per-step cost of numpy scalars is avoided."""
    nm1 = dimension - 1.0
    q = p - 1.0

    def rhs(r, u, du):
        return du, -nm1 / r * du - lam * u - abs(u) ** q * u

    return rhs


# scipy's DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.10)
# and step control; error_estimator_order 7 gives the step exponent -1/8.
_STAGES = DOP853.n_stages
_STAGE_ROWS = tuple((s, DOP853.A[s, :s], float(DOP853.C[s]))
                    for s in range(1, _STAGES))
# stage rows: 12 stages, the FSAL derivative, 3 interpolant stages
_EXTENDED = _STAGES + 1 + len(DOP853.C_EXTRA)
_EXTRA_ROWS = tuple((s, DOP853.A_EXTRA[i, :s], float(DOP853.C_EXTRA[i]))
                    for i, s in enumerate(range(_STAGES + 1, _EXTENDED)))
_ERROR_EXPONENT = -1.0 / 8.0
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EVENT_TOL = 4.0 * np.finfo(float).eps


class _Dop853Interpolant(DenseOutput):
    """DOP853's degree-7 interpolant over one step, evaluated with scipy's
    operations in scipy's order."""

    def __init__(self, r_old, r, y_old, F):
        super().__init__(r_old, r)
        self.h = r - r_old
        self.F = F
        self.y_old = y_old

    def _call_impl(self, r):
        x = (r - self.t_old) / self.h
        if r.ndim == 0:
            y = np.zeros_like(self.y_old)
        else:
            x = x[:, None]
            y = np.zeros((len(x), len(self.y_old)))
        for i, f in enumerate(reversed(self.F)):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old
        return y.T


@dataclass(frozen=True, eq=False)
class IVPResult:
    """One radial IVP: the zeros of u found (in order), the r where |u|
    reached the guard (None if it did not), the end point and state
    (the terminating zero's when the solve stopped there), the RHS
    evaluations, counted as solve_ivp counts them, and the dense
    solution (None unless asked for)."""

    zeros: list
    blowup: float | None
    r_end: float
    y_end: tuple
    nfev: int
    sol: OdeSolution | None


def _initial_step(rhs, r0, r_bound, y, f):
    """solve_ivp's first step (Solving ODEs I, II.4), with its numpy norms."""
    y = np.array(y)
    f = np.array(f)
    scale = ATOL + np.abs(y) * RTOL
    d0 = np.linalg.norm(y / scale) / 2 ** 0.5
    d1 = np.linalg.norm(f / scale) / 2 ** 0.5
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    interval = abs(r_bound - r0)
    h0 = min(h0, interval)
    f1 = np.array(rhs(r0 + h0, *(y + h0 * f).tolist()))
    d2 = np.linalg.norm((f1 - f) / scale) / 2 ** 0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, interval))


def solve_ivp(rhs, r0: float, r_bound: float, y0: tuple, u_max: float,
              max_zeros: int | None = None, dense: bool = False) -> IVPResult:
    """DOP853 from r0 to r_bound for y = (u, u'), y' = rhs(r, u, u').

    Bit for bit the steps, events, end state, nfev and dense output of
    scipy.integrate.solve_ivp(method="DOP853", rtol=RTOL, atol=ATOL) with
    two events: the zeros of u (terminal at the max_zeros-th when given)
    and the terminal guard |u| = u_max.  Step collapse raises
    NotConvergedError; a non-finite start raises ValueError.
    """
    u, du = y0
    if not (math.isfinite(u) and math.isfinite(du)):
        raise ValueError(f"IVP start (u, u') = ({u!r}, {du!r}) is not finite")
    # Every sum over the stage rows K is the BLAS dot solve_ivp makes
    # (ndarray.dot is np.dot), on the same views: BLAS fuses
    # multiply-adds that no Python float sum reproduces.  Everything
    # elementwise runs on Python floats, and K and the error scale are
    # written through flat memoryviews.
    K = np.empty((_EXTENDED, 2))
    kv = memoryview(K.reshape(-1))
    KT = [K[:s].T for s in range(len(K) + 1)]
    f0, f1 = rhs(r0, u, du)
    h_abs = _initial_step(rhs, r0, r_bound, (u, du), (f0, f1))
    nfev = 2
    r = r0
    g_blow = abs(u) - u_max
    zeros = []
    blowup = None
    rs, pieces = [r0], []
    scale = np.empty(2)
    sv = memoryview(scale)
    while True:
        min_step = 10 * abs(math.nextafter(r, math.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NotConvergedError(
                    "IVP integration failed: required step size is less "
                    "than spacing between numbers")
            r_new = r + h_abs
            if r_new > r_bound:
                r_new = r_bound
            h = r_new - r
            h_abs = abs(h)
            kv[0], kv[1] = f0, f1
            for s, a, c in _STAGE_ROWS:
                d0, d1 = KT[s].dot(a).tolist()
                kv[2 * s], kv[2 * s + 1] = rhs(r + c * h, u + d0 * h,
                                               du + d1 * h)
            b0, b1 = KT[_STAGES].dot(DOP853.B).tolist()
            u_new, du_new = u + h * b0, du + h * b1
            f_new = rhs(r + h, u_new, du_new)
            kv[2 * _STAGES], kv[2 * _STAGES + 1] = f_new
            nfev += _STAGES
            sv[0] = ATOL + max(abs(u), abs(u_new)) * RTOL
            sv[1] = ATOL + max(abs(du), abs(du_new)) * RTOL
            err5 = KT[_STAGES + 1].dot(DOP853.E5)
            err5 /= scale
            err3 = KT[_STAGES + 1].dot(DOP853.E3)
            err3 /= scale
            n5 = math.sqrt(err5.dot(err5)) ** 2
            n3 = math.sqrt(err3.dot(err3)) ** 2
            if n5 == 0 and n3 == 0:
                error = 0.0
            else:
                error = h_abs * n5 / math.sqrt((n5 + 0.01 * n3) * 2)
            if error < 1:
                factor = (_MAX_FACTOR if error == 0 else
                          min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT))
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True

        zero_hit = u <= 0 <= u_new or u >= 0 >= u_new
        g_new = abs(u_new) - u_max
        blow_hit = g_blow <= 0 <= g_new or g_blow >= 0 >= g_new
        piece = None
        if dense or zero_hit or blow_hit:
            piece = _interpolant(rhs, K, KT, kv, r, r_new, h, (u, du),
                                 (f0, f1), (u_new, du_new), f_new)
            nfev += len(_EXTRA_ROWS)
            if dense:
                pieces.append(piece)
        stop = None
        if zero_hit or blow_hit:
            # solve_ivp's handle_events: roots in order of r, recorded up
            # to the first terminal one
            events = []
            if zero_hit:
                events.append((_event_root(piece, r, r_new), False,
                               max_zeros is not None
                               and len(zeros) + 1 >= max_zeros))
            if blow_hit:
                events.append((_event_root(piece, r, r_new, u_max), True,
                               True))
            events.sort(key=lambda event: event[0])
            for root, is_blowup, terminal in events:
                if is_blowup:
                    blowup = root
                else:
                    zeros.append(root)
                if terminal:
                    stop = root
                    break
        if stop is not None:
            if dense and len(rs) > 1 and rs[-1] == stop:
                pieces.pop()
            else:
                rs.append(stop)
                u, du = piece(stop).tolist()
            r = stop
            break
        r, u, du, f0, f1, g_blow = r_new, u_new, du_new, *f_new, g_new
        rs.append(r)
        if r >= r_bound:
            break
    sol = OdeSolution(np.array(rs), pieces) if dense else None
    return IVPResult(zeros, blowup, r, (u, du), nfev, sol)


def _interpolant(rhs, K, KT, kv, r, r_new, h, y, f, y_new, f_new):
    """The step's dense output: three extra stages and the coefficients
    of solve_ivp's DOP853 interpolant."""
    for s, a, c in _EXTRA_ROWS:
        d0, d1 = KT[s].dot(a).tolist()
        kv[2 * s], kv[2 * s + 1] = rhs(r + c * h, y[0] + d0 * h,
                                       y[1] + d1 * h)
    F = np.empty((len(DOP853.D) + 3, 2))
    for j in range(2):
        delta = y_new[j] - y[j]
        F[0, j] = delta
        F[1, j] = h * f[j] - delta
        F[2, j] = 2 * delta - h * (f_new[j] + f[j])
    F[3:] = h * np.dot(DOP853.D, K)
    return _Dop853Interpolant(r, r_new, np.array(y), F)


def _event_root(piece, r_old, r_new, u_max=None):
    """Root of u (of |u| - u_max when given) on one step's interpolant,
    located as solve_ivp locates events; the polynomial is evaluated on
    Python floats in _Dop853Interpolant's order.  It calls
    optimize.brentq, so the module's brentq stays the matching root
    finder alone."""
    F = piece.F[::-1, 0].tolist()
    u_old = float(piece.y_old[0])
    h = piece.h

    def event(r):
        x = (r - r_old) / h
        y = 0.0
        for i, f in enumerate(F):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += u_old
        return y if u_max is None else abs(y) - u_max

    return optimize.brentq(event, r_old, r_new, xtol=_EVENT_TOL,
                           rtol=_EVENT_TOL)


@dataclass(frozen=True, eq=False)
class ShootResult:
    profile: RadialFn
    boundary_value: float
    zero_count: int
    amplitude: float
    lam: float


def _integrate(dimension: int, lam: float, a: float, r_end: float,
               dense: bool = False, max_zeros: int | None = None):
    """Integrate the IVP to r_end, or to the max_zeros-th zero of u.

    Blow-up beyond BLOWUP_FACTOR x |a| raises BlowUpBeforeOneError (the
    radial energy  u'^2/2 + lam u^2/2 + F(u) decreases in r, so
    trajectories are a-priori bounded and the guard only trips on
    integrator runaway).
    """
    if a == 0.0:
        raise ValueError("amplitude must be nonzero")
    p = critical_exponent(dimension)
    r0, u0, du0 = _series_start(dimension, lam, a, p)
    # Flat absolute tolerance: the spike region is governed by the
    # relative tolerance, while the far field of a concentrated profile
    # carries amplitude ~ 1/a that an |a|-scaled floor would drown.
    sol = solve_ivp(_make_rhs(dimension, lam, p), r0, r_end, (u0, du0),
                    BLOWUP_FACTOR * abs(a), max_zeros, dense)
    if sol.blowup is not None:
        raise BlowUpBeforeOneError(
            f"trajectory left trust region at r={sol.blowup:.6f} "
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
    return ShootResult(profile, sol.y_end[0], _interior_zeros(sol),
                       float(amplitude), float(lam))


def profile_grid(dimension: int, amplitude: float, grid_n: int = 1024) -> RadialGrid:
    """Grid graded to the inner scale |a|^{-(p-1)/2} of a shot profile."""
    p = critical_exponent(dimension)
    scale = abs(amplitude) ** (-(p - 1.0) / 2.0)
    if scale >= 0.1:
        return make_grid(dimension, grid_n, "uniform")
    return make_core_grid(dimension, scale, h_over_scale=1.0 / 30.0,
                          h_max=1.0 / grid_n)


def _interior_zeros(sol) -> int:
    return sum(z < 1.0 - 1e-13 for z in sol.zeros)


def _mth_zero(sol, m: int) -> float | None:
    return sol.zeros[m - 1] if len(sol.zeros) >= m else None


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
        return ShootResult(profile, float(profile.values[-1]),
                           _interior_zeros(sol),
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
