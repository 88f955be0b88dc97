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
with the rate gamma fitted rather than assumed; its error bar is the
larger of the jackknife spread and the drift under a one-point window
shift.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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
# Shortest tail extract_limit fits (cli checks fit_min_points against it).
MIN_TAIL_POINTS = 8


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

    def as_dict(self) -> dict:
        return {
            "lam_infinity": self.lam_infinity,
            "model": self.model,
            "exponent": self.exponent,
            "coefficient": self.coefficient,
            "uncertainty": self.uncertainty,
            "tail": [list(pair) for pair in self.tail],
            "monotone": self.monotone,
            "alternating": self.alternating,
            "poor_fit": self.poor_fit,
        }


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
                 a_end: float | None = None,
                 points: int | None = None) -> Branch:
    """Trace the m-region branch over a geometric amplitude schedule.

    Defaults follow the amplitude ranges that expose the limits at desk
    scale: ratio-2 growth up to 1e4, or 1e5 in dimension 6 where the
    approach to the limit is slower.  Each schedule entry is matched once
    in the window (LAMBDA_FLOOR, 0.9999 lambda_m): the first point is
    bracketed, each later one predicted from the accepted points and
    corrected from the previous point's slope.  Raises BranchLostError
    when no schedule entry admits a matched solution; partial failures
    are reported through Branch.diagnostics instead.  A window too narrow
    for 2 schedule points raises ValueError naming a_start and a_end.
    """
    default = ""
    if a_end is None:
        a_end = 1e5 if dimension == 6 else 1e4
        default = f" (the N = {dimension} default)"
    if points is None:
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


def _power_model(a, lam_inf, c, gamma):
    return lam_inf + c * a ** -gamma


def _log_model(a, lam_inf, c, s):
    return lam_inf + c / (np.log(a) - s)


def curve_fit(model, a, y, p0, bounds):
    """The parameters scipy.optimize.curve_fit fits, with OptimizeWarning
    silenced.  scipy.optimize is imported on the first call: only the
    tail fits need it."""
    from scipy.optimize import OptimizeWarning
    from scipy.optimize import curve_fit as fit

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        return fit(model, a, y, p0=p0, bounds=bounds, maxfev=20000)[0]


def _fit(model, a, y, p0, bounds):
    return curve_fit(model, a, y, np.clip(p0, *bounds), bounds)


def _rms(model, a, y, popt) -> float:
    return float(np.sqrt(np.mean((y - model(a, *popt)) ** 2)))


def _log_seed(x, lams):
    """Starting point for the shifted-log tail law.

    lam_inf is seeded by Aitken acceleration on the last three tail
    values (exact for the power law, adequate for 1/ln); the shift s
    then comes from matching the first and last residual gaps.
    """
    d1, d2 = lams[-2] - lams[-3], lams[-1] - lams[-2]
    lam0 = lams[-1] + (d2 * d2 / (d1 - d2) if abs(d1 - d2) > 0.0 else 0.0)
    ga, gb = lams[0] - lam0, lams[-1] - lam0
    if ga * gb > 0.0 and abs(ga - gb) > 0.0:
        s0 = (ga * x[0] - gb * x[-1]) / (ga - gb)
    else:
        s0 = x[0] - 5.0
    s0 = min(s0, x[0] - 0.5)
    return lam0, ga * (x[0] - s0), s0


def extract_limit(branch: Branch, tail_length: int = MIN_TAIL_POINTS) -> LimitEstimate:
    """Extrapolate the large-amplitude limit of lambda from the tail.

    The default tail law is lambda(a) = lam_inf + C a^{-gamma} with the
    rate gamma fitted, seeded from the log-log slope of successive
    lambda differences.  A shifted-log law lam_inf + C/(ln a - s) is
    fitted alongside and kept only when its tail residual is decisively
    (2x) smaller: some branches close their spectral gap at a
    logarithmic rate, slower than any power, and the power fit then
    stalls visibly above the limit.  The uncertainty is the jackknife
    spread of lam_inf under the selected model, or 1.25 times its drift
    when the tail window slides back one branch point, whichever is
    larger.
    """
    if tail_length < MIN_TAIL_POINTS:
        raise ValueError(f"tail must keep >= {MIN_TAIL_POINTS} points, got {tail_length}")
    if len(branch.points) < tail_length:
        raise ValueError(
            f"limit extraction needs >= {tail_length} branch points, "
            f"got {len(branch.points)}")
    amps = branch.amplitudes[-tail_length:]
    lams = branch.lambdas[-tail_length:]
    x = np.log(amps)
    diffs = np.diff(lams)
    monotone, alternating = _tail_signature(diffs)

    live = np.abs(diffs) > 0.0
    slope = np.polyfit(x[:-1][live], np.log(np.abs(diffs[live])), 1)[0]
    gamma0 = max(0.2, -float(slope))
    c0 = float(lams[0] - lams[-1]) / max(amps[0] ** -gamma0
                                         - amps[-1] ** -gamma0, 1e-300)

    # A decaying-correction fit cannot honestly place the limit much
    # beyond one tail-span of the data; boxing lam_inf removes the
    # degenerate gamma -> 0 ridge where the power law imitates a line
    # in ln a and the extrapolation becomes arbitrary.  The log law is
    # exempt: its remaining distance C/(ln a - s) is legitimately large.
    span = max(float(np.max(lams) - np.min(lams)), 1e-12)
    box_lo = float(np.min(lams)) - span
    box_hi = float(np.max(lams)) + span
    candidates = {
        "power": (_power_model, (float(lams[-1]), c0, gamma0),
                  ([box_lo, -np.inf, 1e-3], [box_hi, np.inf, 20.0])),
        "log": (_log_model, _log_seed(x, lams),
                ([-np.inf, -np.inf, -np.inf],
                 [np.inf, np.inf, float(x[0]) - 0.25])),
    }
    fits = {}
    for name, (model, p0, bounds) in candidates.items():
        try:
            popt = _fit(model, amps, lams, p0, bounds)
            fits[name] = (popt, _rms(model, amps, lams, popt))
        except (RuntimeError, ValueError):
            continue
    if not fits:
        raise NotConvergedError("no tail model fits the branch tail")
    name = "power"
    if "power" not in fits:
        name = "log"
    elif "log" in fits and fits["log"][1] < 0.5 * fits["power"][1]:
        name = "log"
    model, p0, bounds = candidates[name]
    popt, rms = fits[name]
    lam_inf, coeff = float(popt[0]), float(popt[1])
    exponent = float(popt[2]) if name == "power" else 1.0

    # Dropping one tail point at a time measures single-point leverage
    # on the short tail.
    jack = []
    for i in range(tail_length):
        keep = np.delete(np.arange(tail_length), i)
        try:
            jack.append(_fit(model, amps[keep], lams[keep], popt, bounds)[0])
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
            shifted = _fit(model, branch.amplitudes[-tail_length - 1:-1],
                           branch.lambdas[-tail_length - 1:-1], popt, bounds)
            uncertainty = max(uncertainty, 1.25 * abs(float(shifted[0])
                                                      - lam_inf))
        except (RuntimeError, ValueError):
            pass

    poor_fit = bool(rms > 0.05 * span)
    tail = tuple((float(a), float(l)) for a, l in zip(amps, lams))
    return LimitEstimate(lam_inf, name, exponent, coeff, uncertainty, tail,
                         monotone, alternating, poor_fit)
