"""Radial solution branches in the (amplitude, lambda) plane and their limits.

At fixed amplitude a = u(0), the m-region Dirichlet solution on the unit
ball selects lambda through the matching condition z_m(lam; a) = 1, where
z_m is the m-th zero of the shooting trajectory.  Sturm comparison makes
z_m strictly decreasing in lam, so amplitude is a fold-free continuation
parameter: each a on the branch determines exactly one lambda, while
lambda(a) is free to approach its large-amplitude limit from either side.

By the critical dilation (bn6.shooting), z_m(lam, a) = Z_m(mu) a^{-2/(N-2)}
with mu = lam a^{-4/(N-2)}, so lambda is smooth in ln a along a branch.
The branch is therefore matched by predictor-corrector continuation: the
last accepted points extrapolate lambda in ln a, and a secant corrector on
z_m - 1 lands on the root in a few IVPs.  Every shot stops at the m-th
zero; the first within the IVP tolerance of r = 1 is accepted, and its
trajectory, sampled on demand, is the point's profile.  Every match
searches the one admissible window (LAMBDA_FLOOR, 0.9999 lambda_m); a
bracketed scalar root find in it starts the trace and is the fallback.

As a -> infinity the positive part of the profile concentrates and
lambda(a) tends to a dimension-dependent value strictly below the m-th
radial eigenvalue.  The branch is sampled on a geometric amplitude
schedule; the limit is recovered by fitting the tail with a power law
    lambda(a) = lambda_inf + C a^{-gamma},
with the rate gamma fitted rather than assumed, or with a shifted-log
law lambda_inf + C/(ln a - s) when that fits decisively better; its
error bar is the larger of the jackknife spread and the drift under a
one-point window shift.

Both laws are lambda_inf + C g(a; theta), linear in (lambda_inf, C) once
theta is fixed, so each fit is by variable projection (Golub & Pereyra
1973): (lambda_inf, C) is solved in closed form for every theta, and the
one-dimensional profiled residual is scanned on a fixed grid of theta
and refined by a Brent root of its derivative.  No starting guess and no
iterative three-parameter search are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import MIN_TAIL_POINTS
from .errors import (
    BlowUpBeforeOneError,
    BranchLostError,
    NotConvergedError,
)
from .operators import dirichlet_eigenvalue
from .roots import brentq
from .shooting import (
    RTOL,
    BranchPoint,
    nodal_count,
    shoot,
    shoot_to_zero,
)

LAMBDA_FLOOR = 1e-2
RESIDUAL_TOL = 1e-6
# The secant converges in 3-5 shots from the predictor; a corrector still
# short of RTOL after this many is chasing IVP noise or a poor guess.
CORRECTOR_SHOTS = 6
# Relative offset of the corrector's second shot when no slope is known:
# the forward-difference step that balances truncation against IVP noise.
KICK = math.sqrt(RTOL)
# Each tail fit scans its law's one nonlinear parameter theta on
# SCAN_POINTS geometric grid points, then refines the best one to
# THETA_XTOL + THETA_RTOL |theta| (the smallest rtol brentq accepts).
SCAN_POINTS = 129
THETA_XTOL = 1e-16
THETA_RTOL = 4 * np.finfo(float).eps
# The power law's rates gamma, and the farthest the log law's pole s sits
# below the first fitted point in ln a (the nearest is 0.25).
POWER_RATES = np.geomspace(1e-3, 20.0, SCAN_POINTS)
LOG_POLE_FAR = 1e4


@dataclass(frozen=True)
class Branch:
    """m-region branch sampled at increasing amplitudes.

    points hold the matched solutions in schedule order; diagnostics
    lists (amplitude, reason) pairs for schedule entries that produced no
    admissible point, so a partial trace is still usable downstream.
    """

    dimension: int
    m: int
    points: tuple
    diagnostics: tuple = ()

    def __post_init__(self):
        amps = [p.amplitude for p in self.points]
        if any(b <= a for a, b in zip(amps, amps[1:])):
            raise ValueError("branch amplitudes must be strictly increasing")
        if any(p.nodal_count != self.m for p in self.points):
            raise ValueError("nodal count must be constant along the branch")

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([p.amplitude for p in self.points])

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])


@dataclass(frozen=True)
class LimitEstimate:
    """Extrapolated large-amplitude limit of lambda along a branch.

    model names the tail law the estimate came from: "power" for
    lam_inf + C a^{-gamma} (exponent = gamma) or "log" for
    lam_inf + C / (ln a - s) (exponent = 1, the decay order in ln a),
    the latter kept only when it beats the power law decisively.
    uncertainty is the larger of the jackknife spread of the
    extrapolation and its drift when the tail window slides back one
    point (inf when the jackknife fails); poor_fit flags a tail the
    selected model does not describe, and a tail that is neither monotone
    nor alternating is a warning carried by the flags, not a failure.
    """

    lam_infinity: float
    model: str
    exponent: float
    coefficient: float
    uncertainty: float
    tail: tuple
    monotone: bool
    alternating: bool
    poor_fit: bool


def _match_lambda(dimension: int, amplitude: float, m: int, lo: float,
                  hi: float, guess: float | None = None,
                  slope: float | None = None):
    """Solution with lambda in [lo, hi] and its m-th zero at r = 1, or None.

    Returns (shot, slope): the ShootResult at the matched lambda and the
    corrector's last secant slope d z_m / d lambda, which seeds the next
    branch point (None when the bracket found the root).

    From a guess inside the window, secant steps on z_m - 1 (the first
    along `slope`, or a relative KICK without one) stop at the first
    shot_to_zero shot with |z_m - 1| <= RTOL, the IVP's own tolerance,
    and sample it as the profile.  A corrector that leaves the window,
    steps by less than an ulp or has not converged in CORRECTOR_SHOTS
    shots hands over to the bracket.

    z_m is strictly decreasing in lambda (module docstring), so z_m - 1
    has at most one root in the window, bracketed exactly when the
    endpoints have opposite signs.  The endpoints are the nearest shots on
    either side of the root, else the window ends; brentq finds the root
    and shoot samples it.  Shots are cached, so no lambda is shot twice.
    """
    shots = {}

    def fire(lam: float):
        try:
            z, sample = shoot_to_zero(dimension, lam, amplitude, m)
        except (BlowUpBeforeOneError, NotConvergedError):
            z = sample = None
        shots[lam] = 10.0 if z is None else z - 1.0
        return shots[lam], sample

    def excess(lam: float) -> float:
        return shots[lam] if lam in shots else fire(lam)[0]

    if guess is not None and lo < guess < hi:
        lam = guess
        res, sample = fire(lam)
        for _ in range(CORRECTOR_SHOTS - 1):  # the guess was shot 1
            if abs(res) <= RTOL:
                break
            step = -res / slope if slope else KICK * lam
            if lam + step == lam or not lo < lam + step < hi:
                break
            res_next, sample = fire(lam + step)
            slope = (res_next - res) / step
            lam, res = lam + step, res_next
        if abs(res) <= RTOL:
            return sample(), slope

    right = min((lam for lam, res in shots.items() if res <= 0.0),
                default=hi)
    left = max((lam for lam, res in shots.items()
                if res > 0.0 and lam < right), default=lo)
    if not (excess(left) > 0.0 >= excess(right)):
        return None
    lam = float(brentq(excess, left, right, xtol=1e-13, rtol=1e-14))
    return shoot(dimension, lam, amplitude), None


def _predict(rows, amplitude: float) -> float:
    """lambda at `amplitude`, extrapolated in ln a through the last accepted
    points: quadratic from three, linear from two, constant from one."""
    x = np.log([p.amplitude for p in rows[-3:]])
    lams = [p.lam for p in rows[-3:]]
    return float(np.polyval(np.polyfit(x, lams, len(x) - 1),
                            math.log(amplitude)))


def trace_branch(dimension: int, m: int, a_start: float = 1.0,
                 a_end: float | None = None) -> Branch:
    """Trace the m-region branch over a geometric amplitude schedule.

    The schedule has round(log2(a_end / a_start)) + 1 points, a ratio of
    about 2 between neighbours.  The default a_end follows the amplitude
    ranges that expose the limits at desk scale: 1e4, or 1e5 in
    dimension 6 where the approach to the limit is slower.  Each schedule
    entry is matched once in the window (LAMBDA_FLOOR, 0.9999 lambda_m):
    the first point is bracketed, each later one predicted from the
    accepted points and corrected from the previous point's slope.
    Raises BranchLostError when no schedule entry admits a matched
    solution; partial failures are reported through Branch.diagnostics
    instead.  A window too narrow for 2 schedule points raises ValueError
    naming a_start and a_end.
    """
    default = ""
    if a_end is None:
        a_end = 1e5 if dimension == 6 else 1e4
        default = f" (the N = {dimension} default)"
    points = int(round(math.log2(a_end / a_start))) + 1
    if points < 2:
        raise ValueError(
            f"amplitude schedule needs at least 2 points, got {points} from "
            f"a_start = {a_start!r} and a_end = {a_end!r}{default}")
    lam_hi = 0.9999 * dirichlet_eigenvalue(dimension, m, n=1024)
    schedule = np.geomspace(a_start, a_end, points)
    rows = []
    diagnostics = []
    slope = None
    for a in schedule:
        match = _match_lambda(dimension, a, m, LAMBDA_FLOOR, lam_hi,
                              _predict(rows, a) if rows else None, slope)
        if match is None:
            diagnostics.append((float(a), "no matching lambda in window"))
            continue
        sol, point_slope = match
        residual = abs(sol.boundary_value) / np.max(np.abs(sol.profile.values))
        if residual > RESIDUAL_TOL:
            diagnostics.append((float(a), f"residual {residual:.3e}"))
            continue
        regions = nodal_count(sol.profile)
        if regions != m:
            diagnostics.append((float(a), f"{regions} nodal regions"))
            continue
        rows.append(BranchPoint(dimension, sol.lam, float(a), m,
                                float(residual), sol.profile.grid.n_cells,
                                sol.profile))
        slope = point_slope
    if not rows:
        raise BranchLostError(
            f"no (N={dimension}, m={m}) solution in [{a_start:g}, {a_end:g}]")
    return Branch(dimension, m, tuple(rows), tuple(diagnostics))


def _tail_signature(diffs: np.ndarray) -> tuple[bool, bool]:
    signs = np.sign(diffs[np.abs(diffs) > 0.0])
    if len(signs) == 0:
        return True, False
    monotone = bool(np.all(signs == signs[0]))
    alternating = bool(len(signs) > 1
                       and np.all(signs[1:] == -signs[:-1]))
    return monotone, alternating


def _power_law(a, gamma):
    """a^-gamma and its gamma-derivative."""
    g = a ** -gamma
    return g, -np.log(a) * g


def _log_law(a, s):
    """1/(ln a - s) and its s-derivative."""
    g = 1.0 / (np.log(a) - s)
    return g, g * g


def _log_poles(x_first: float) -> np.ndarray:
    """The log law's scan grid of poles s, even in ln(x_first - s) from
    LOG_POLE_FAR to 0.25: the pole stays 0.25 in ln a below x_first."""
    return x_first - np.geomspace(LOG_POLE_FAR, 0.25, SCAN_POINTS)


def _profile(g, y, lam_box):
    """lam_inf, C and the residuals of the least-squares fit
    y ~ lam_inf + C g, one per row of g, with lam_inf held in lam_box.

    The free fit solves the two-column problem by centred sums.  The
    objective is a convex quadratic in (lam_inf, C), so when lam_inf
    leaves the box the violated bound is active at the constrained
    minimum: lam_inf sits on it and C solves the one-column problem left.
    A row whose basis under- or overflows gives NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        gm = np.mean(g, axis=-1, keepdims=True)
        dg = g - gm
        dy = y - np.mean(y)
        c = np.sum(dg * dy, axis=-1, keepdims=True) / np.sum(
            dg * dg, axis=-1, keepdims=True)
        lam = np.mean(y) - c * gm
        held = np.clip(lam, *lam_box)
        r = y - held
        c_held = np.sum(g * r, axis=-1, keepdims=True) / np.sum(
            g * g, axis=-1, keepdims=True)
        out = held != lam
        c = np.where(out, c_held, c)
        return held, c, np.where(out, r - c * g, dy - c * dg)


def curve_fit(law, a, y, thetas, lam_box=(-np.inf, np.inf)):
    """(lam_inf, C, theta) minimising sum (y - lam_inf - C g(a; theta))^2
    with theta in [thetas[0], thetas[-1]] and lam_inf in lam_box, where
    law(a, theta) gives g and its theta-derivative.

    The model is linear in (lam_inf, C) at fixed theta, so the fit
    searches theta alone (variable projection, Golub & Pereyra 1973): the
    profiled residual sum of squares is scanned on the grid thetas, and
    when its theta-derivative changes sign across the two cells beside
    the smallest grid value, Brent's method finds the zero.  By the
    envelope theorem that derivative is -2 C sum r dg/dtheta at the
    profiled (lam_inf, C), bound or not.  Raises ValueError when no theta
    of the grid gives a finite residual, RuntimeError when brentq does
    not converge.
    """
    def slope(theta):
        g, dg = law(a, theta)
        lam, c, r = _profile(g, y, lam_box)
        if lam_box[0] < lam[0] < lam_box[1]:
            # free residuals sum to zero: centring dg drops the rounding
            # of mean(y), which shifts every residual alike
            dg = dg - np.mean(dg)
        return float(-2.0 * c[0] * np.sum(r * dg))

    r = _profile(law(a, thetas[:, None])[0], y, lam_box)[2]
    k = int(np.nanargmin(np.sum(r * r, axis=-1)))
    lo, hi = thetas[max(k - 1, 0)], thetas[min(k + 1, len(thetas) - 1)]
    theta = float(thetas[k])
    if slope(lo) < 0.0 < slope(hi):
        theta = brentq(slope, lo, hi, xtol=THETA_XTOL, rtol=THETA_RTOL)
    lam, c, _ = _profile(law(a, theta)[0], y, lam_box)
    return np.array([float(lam[0]), float(c[0]), theta])


def _rms(law, a, y, popt) -> float:
    lam_inf, c, theta = popt
    return float(np.sqrt(np.mean((y - lam_inf - c * law(a, theta)[0]) ** 2)))


def extract_limit(branch: Branch, tail_length: int = MIN_TAIL_POINTS) -> LimitEstimate:
    """Extrapolate the large-amplitude limit of lambda from the tail.

    The default tail law is lambda(a) = lam_inf + C a^{-gamma} with the
    rate gamma in [1e-3, 20] fitted.  A shifted-log law lam_inf + C/(ln a
    - s) is fitted alongside and kept only when its tail residual is
    decisively (2x) smaller: some branches close their spectral gap at a
    logarithmic rate, slower than any power, and the power fit then
    stalls visibly above the limit.  Every log fit keeps its pole s at
    least 0.25 in ln a below the first point of both the tail and the
    points it fits, so the pole never falls inside the fitted data.  The
    uncertainty is the jackknife spread of lam_inf under the selected
    model, or 1.25 times its drift when the tail window slides back one
    branch point, whichever is larger.
    """
    if tail_length < MIN_TAIL_POINTS:
        raise ValueError(f"tail must keep >= {MIN_TAIL_POINTS} points, got {tail_length}")
    if len(branch.points) < tail_length:
        raise ValueError(
            f"limit extraction needs >= {tail_length} branch points, "
            f"got {len(branch.points)}")
    amps = branch.amplitudes[-tail_length:]
    lams = branch.lambdas[-tail_length:]
    x_tail = np.log(amps[0])
    monotone, alternating = _tail_signature(np.diff(lams))

    # A decaying-correction fit cannot honestly place the limit much
    # beyond one tail-span of the data; boxing lam_inf removes the
    # degenerate gamma -> 0 ridge where the power law imitates a line
    # in ln a and the extrapolation becomes arbitrary.  The log law is
    # exempt: its remaining distance C/(ln a - s) is legitimately large.
    span = max(float(np.max(lams) - np.min(lams)), 1e-12)
    box = (float(np.min(lams)) - span, float(np.max(lams)) + span)

    def fit(name, a, y):
        if name == "power":
            return curve_fit(_power_law, a, y, POWER_RATES, box)
        return curve_fit(_log_law, a, y,
                         _log_poles(min(x_tail, np.log(a[0]))))

    fits = {}
    for name, law in (("power", _power_law), ("log", _log_law)):
        try:
            popt = fit(name, amps, lams)
        except (RuntimeError, ValueError):
            continue
        fits[name] = (popt, _rms(law, amps, lams, popt))
    if not fits:
        raise NotConvergedError("no tail model fits the branch tail")
    name = "power"
    if "power" not in fits:
        name = "log"
    elif "log" in fits and fits["log"][1] < 0.5 * fits["power"][1]:
        name = "log"
    popt, rms = fits[name]
    lam_inf, coeff = float(popt[0]), float(popt[1])
    exponent = float(popt[2]) if name == "power" else 1.0

    # Dropping one tail point at a time measures single-point leverage
    # on the short tail.
    jack = []
    for i in range(tail_length):
        keep = np.delete(np.arange(tail_length), i)
        try:
            jack.append(fit(name, amps[keep], lams[keep])[0])
        except (RuntimeError, ValueError):
            continue
    uncertainty = math.inf
    if len(jack) >= 4:
        n = len(jack)
        uncertainty = math.sqrt((n - 1) / n * np.sum((np.array(jack)
                                                      - np.mean(jack)) ** 2))

    # Sliding the tail window back one branch point probes model drift
    # (the local rate is rarely settled); with the 1.25 coverage factor
    # the quoted bar dominates the drop-last-point sensitivity.
    if len(branch.points) > tail_length:
        try:
            shifted = fit(name, branch.amplitudes[-tail_length - 1:-1],
                          branch.lambdas[-tail_length - 1:-1])
            uncertainty = max(uncertainty, 1.25 * abs(float(shifted[0])
                                                      - lam_inf))
        except (RuntimeError, ValueError):
            pass

    poor_fit = bool(rms > 0.05 * span)
    tail = tuple((float(a), float(l)) for a, l in zip(amps, lams))
    return LimitEstimate(lam_inf, name, exponent, coeff, uncertainty, tail,
                         monotone, alternating, poor_fit)
