"""Branch tracing over amplitude and large-amplitude limit extraction."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jn_zeros, jv

from bn6 import continuation, shooting
from bn6.continuation import (
    RESIDUAL_TOL,
    Branch,
    LimitEstimate,
    extract_limit,
    trace_branch,
)
from bn6.errors import BranchLostError
from bn6.operators import dirichlet_eigenvalue
from bn6.shooting import (
    RTOL,
    BranchPoint,
    nodal_count,
    shoot_to_zero,
    solve_bvp,
)

# m-th radial Dirichlet eigenvalue of -Delta on B_1 in R^N: squared m-th
# zero of J_{N/2-1}.  N = 3 gives (m pi)^2; N = 5 needs brentq on the
# half-integer order.
RADIAL_EV = {
    (3, 1): math.pi ** 2,
    (3, 2): 4.0 * math.pi ** 2,
    (3, 3): 9.0 * math.pi ** 2,
    (4, 2): jn_zeros(1, 2)[1] ** 2,
    (5, 2): brentq(lambda x: jv(1.5, x), 6.5, 9.5) ** 2,
    (6, 2): jn_zeros(2, 2)[1] ** 2,
}


@pytest.mark.parametrize("dim,m", sorted(RADIAL_EV))
def test_radial_eigenvalue_matches_bessel(dim, m):
    got = dirichlet_eigenvalue(dim, m, n=1024)
    assert got == pytest.approx(RADIAL_EV[(dim, m)], rel=1e-8)


def test_radial_eigenvalue_rejects_bad_m():
    with pytest.raises(ValueError):
        dirichlet_eigenvalue(6, 0, n=1024)


def _synthetic_point(amplitude, lam, m=1):
    return BranchPoint(3, float(lam), float(amplitude), m, 0.0, 0, None)


def _synthetic_branch(amps, lams, m=1):
    pts = tuple(_synthetic_point(a, l, m) for a, l in zip(amps, lams))
    return Branch(3, m, pts)


def test_branch_rejects_unordered_amplitudes():
    with pytest.raises(ValueError):
        _synthetic_branch([1.0, 3.0, 2.0], [5.0, 4.0, 3.0])


def test_branch_rejects_mixed_nodal_counts():
    pts = (_synthetic_point(1.0, 5.0, m=1), _synthetic_point(2.0, 4.0, m=2))
    with pytest.raises(ValueError):
        Branch(3, 1, pts)


def test_extract_limit_input_validation():
    amps = np.geomspace(1.0, 128.0, 8)
    branch = _synthetic_branch(amps, 5.0 + 1.0 / amps)
    with pytest.raises(ValueError):
        extract_limit(branch, tail_length=7)
    short = _synthetic_branch(amps[:5], 5.0 + 1.0 / amps[:5])
    with pytest.raises(ValueError):
        extract_limit(short)


def test_power_tail_recovered_exactly():
    amps = np.geomspace(1e2, 1e5, 12)
    lams = 5.0 + 3.0 * amps ** -1.5
    est = extract_limit(_synthetic_branch(amps, lams))
    assert est.model == "power"
    # exact data, so the floor is curve_fit's own stopping tolerance
    assert est.lam_infinity == pytest.approx(5.0, abs=1e-6)
    assert est.exponent == pytest.approx(1.5, rel=1e-4)
    assert est.coefficient == pytest.approx(3.0, rel=1e-3)
    assert est.monotone and not est.alternating
    assert not est.poor_fit
    assert est.uncertainty < 1e-4


def test_log_tail_selects_log_model():
    # gap closing like 1/ln(a) is slower than any power; the power fit
    # stalls above the limit and the shifted-log law must take over
    amps = np.geomspace(1e3, 1e6, 10)
    lams = 10.0 - 12.0 / (np.log(amps) - 3.0)
    est = extract_limit(_synthetic_branch(amps, lams))
    assert est.model == "log"
    assert est.exponent == 1.0
    assert est.lam_infinity == pytest.approx(10.0, abs=1e-6)
    assert est.coefficient == pytest.approx(-12.0, rel=1e-4)


def test_alternating_tail_flagged():
    amps = np.geomspace(1e2, 1e5, 8)
    lams = 7.0 + np.array([(-1.0) ** k for k in range(8)]) * amps ** -0.4
    est = extract_limit(_synthetic_branch(amps, lams))
    assert est.alternating and not est.monotone
    # boxing keeps the extrapolation inside the data's reach even here
    span = lams.max() - lams.min()
    assert lams.min() - span <= est.lam_infinity <= lams.max() + span


def test_extract_limit_is_deterministic():
    amps = np.geomspace(10.0, 1e4, 9)
    lams = 2.0 + 0.7 * amps ** -0.8
    branch = _synthetic_branch(amps, lams)
    assert extract_limit(branch) == extract_limit(branch)
    assert isinstance(extract_limit(branch), LimitEstimate)


def test_limit_estimate_round_trips_to_dict():
    amps = np.geomspace(10.0, 1e4, 9)
    est = extract_limit(_synthetic_branch(amps, 2.0 + 0.7 * amps ** -0.8))
    d = est.as_dict()
    assert d["model"] == est.model
    assert d["tail"] == [list(pair) for pair in est.tail]
    assert len(d["tail"]) == 8


def test_trace_branch_ground_state_short_window():
    branch = trace_branch(3, 1, a_start=1.0, a_end=256.0)
    assert len(branch.points) == 9
    assert branch.diagnostics == ()
    assert all(p.residual <= RESIDUAL_TOL for p in branch.points)
    assert all(p.nodal_count == 1 for p in branch.points)
    # lambda decreases toward its limit on the ground-state branch
    assert np.all(np.diff(branch.lambdas) < 0.0)

    # matching is fold-free: an independent solve at a traced lambda
    # returns the traced amplitude
    mid = branch.points[4]
    again = solve_bvp(3, mid.lam, 1)
    assert again.amplitude == pytest.approx(mid.amplitude, rel=1e-8)

    est = extract_limit(branch)
    limit = math.pi ** 2 / 4.0
    assert est.lam_infinity == pytest.approx(limit, rel=0.05)
    assert math.isfinite(est.uncertainty)

    # dropping the newest point moves the estimate by at most the quoted
    # uncertainty: the error bar covers window-shift sensitivity
    est2 = extract_limit(Branch(3, 1, branch.points[:-1]))
    assert abs(est2.lam_infinity - est.lam_infinity) <= 1.5 * est.uncertainty


def test_trace_branch_raises_when_window_is_hopeless():
    # the fixed profile grid stops resolving the spike at extreme
    # amplitude; every schedule entry is rejected and the trace reports
    # the loss instead of returning junk
    with pytest.raises(BranchLostError):
        trace_branch(4, 2, a_start=1e7, a_end=4e7, points=2)


def test_match_lambda_shoots_each_lambda_once(monkeypatch):
    # the bracket test and brentq share the window endpoints; each
    # distinct lambda costs one IVP
    calls = []

    def counting(dimension, lam, amplitude, m):
        calls.append(lam)
        return shoot_to_zero(dimension, lam, amplitude, m)

    monkeypatch.setattr(continuation, "shoot_to_zero", counting)
    lam = continuation._match_lambda(3, 4.0, 1, 1.0, 0.9999 * math.pi ** 2)
    assert lam is not None
    assert len(calls) == len(set(calls)) > 2


def _counting_shots(monkeypatch):
    """Record the lambda of every bracket and corrector shot."""
    calls = []

    def counting(dimension, lam, amplitude, m):
        calls.append(lam)
        return shoot_to_zero(dimension, lam, amplitude, m)

    monkeypatch.setattr(continuation, "shoot_to_zero", counting)
    return calls


def test_match_lambda_corrector_lands_on_bracketed_root(monkeypatch):
    lo, hi = continuation.LAMBDA_FLOOR, 0.9999 * RADIAL_EV[(6, 2)]
    bracketed, slope = continuation._match_lambda(6, 100.0, 2, lo, hi)
    assert slope is None
    calls = _counting_shots(monkeypatch)
    # no slope: the second shot is a kick, then secant steps
    shot, slope = continuation._match_lambda(6, 100.0, 2, lo, hi,
                                             1.001 * bracketed.lam)
    assert shot.lam == pytest.approx(bracketed.lam, rel=1e-9)
    assert len(calls) == len(set(calls)) <= continuation.CORRECTOR_SHOTS
    assert slope < 0.0  # z_m decreases in lambda
    # the accepted shot is the profile: its zero sits at r = 1
    assert shot.profile.values[0] == 100.0
    assert abs(shot.boundary_value) <= 1e-6 * 100.0
    assert nodal_count(shot.profile) == 2

    calls.clear()
    again, _ = continuation._match_lambda(6, 100.0, 2, lo, hi,
                                          0.999 * bracketed.lam, slope)
    assert again.lam == pytest.approx(bracketed.lam, rel=1e-9)
    assert len(calls) == len(set(calls)) <= continuation.CORRECTOR_SHOTS


def test_shot_on_the_root_is_accepted_after_one_ivp(monkeypatch):
    # a guess whose zero already meets RTOL is the point: one IVP, no
    # secant step, and that trajectory sampled is the profile
    lo, hi = continuation.LAMBDA_FLOOR, 0.9999 * RADIAL_EV[(6, 2)]
    root = continuation._match_lambda(6, 100.0, 2, lo, hi)[0].lam
    assert abs(shoot_to_zero(6, root, 100.0, 2)[0] - 1.0) <= RTOL
    ivps = []
    solve_ivp = shooting.solve_ivp

    def counting_ivp(*args):
        ivps.append(args)
        return solve_ivp(*args)

    calls = _counting_shots(monkeypatch)
    monkeypatch.setattr(shooting, "solve_ivp", counting_ivp)
    shot, slope = continuation._match_lambda(6, 100.0, 2, lo, hi, root, -0.02)
    assert calls == [root] == [shot.lam]
    assert len(ivps) == 1
    assert slope == -0.02
    assert nodal_count(shot.profile) == 2


def test_match_lambda_guess_outside_window_is_bracketed():
    lo, hi = 20.0, 0.9999 * RADIAL_EV[(6, 2)]
    plain, plain_slope = continuation._match_lambda(6, 100.0, 2, lo, hi)
    for guess in (0.5 * lo, lo, hi, 2.0 * hi):
        shot, slope = continuation._match_lambda(6, 100.0, 2, lo, hi, guess,
                                                 -0.02)
        assert shot.lam == plain.lam
        assert slope is plain_slope is None


def test_trace_branch_corrects_in_few_ivps(monkeypatch):
    # after the bracketed start every point is predicted and corrected:
    # at most 6 IVPs each, and exactly one shot per point is sampled
    ivps, samples = [0], [0]
    solve_ivp = shooting.solve_ivp

    def counting_ivp(*args, **kwargs):
        ivps[0] += 1
        return solve_ivp(*args, **kwargs)

    shoot = continuation.shoot_to_zero

    def counting_samples(dimension, lam, amplitude, m):
        zero, sample = shoot(dimension, lam, amplitude, m)

        def counted():
            samples[0] += 1
            return sample()
        return zero, counted

    spent = []
    match_lambda = continuation._match_lambda

    def recording(dimension, amplitude, m, lo, hi, guess=None, slope=None):
        before = ivps[0], samples[0]
        match = match_lambda(dimension, amplitude, m, lo, hi, guess, slope)
        spent.append((guess is not None, ivps[0] - before[0],
                      samples[0] - before[1]))
        return match

    monkeypatch.setattr(shooting, "solve_ivp", counting_ivp)
    monkeypatch.setattr(continuation, "shoot_to_zero", counting_samples)
    monkeypatch.setattr(continuation, "_match_lambda", recording)
    branch = trace_branch(6, 2, a_start=1.0, a_end=2.0 ** 12)
    assert branch.diagnostics == ((1.0, "3 nodal regions"),)
    assert len(branch.points) == 12
    assert all(p.residual <= RESIDUAL_TOL for p in branch.points)
    predicted = [(n, sampled) for guessed, n, sampled in spent if guessed]
    assert len(predicted) == 11
    assert max(n for n, _ in predicted) <= 6
    assert all(sampled == 1 for _, sampled in predicted)
    # every IVP belongs to a match: the accepted shot is the profile
    assert sum(n for _, n, _ in spent) == ivps[0]


def test_trace_branch_matches_each_amplitude_once(monkeypatch):
    # one match per schedule entry, over the whole admissible window: the
    # first bracketed, every later one predicted and corrected
    seen = []
    match_lambda = continuation._match_lambda

    def recording(dimension, amplitude, m, lo, hi, guess=None, slope=None):
        seen.append((amplitude, lo, hi, guess is None))
        return match_lambda(dimension, amplitude, m, lo, hi, guess, slope)

    monkeypatch.setattr(continuation, "_match_lambda", recording)
    branch = trace_branch(3, 1, a_end=256.0)
    assert len(branch.points) == 9 and branch.diagnostics == ()
    assert [a for a, *_ in seen] == list(branch.amplitudes)
    hi = 0.9999 * dirichlet_eigenvalue(3, 1, n=1024)
    assert all(lo == continuation.LAMBDA_FLOOR and top == hi
               for _, lo, top, _ in seen)
    assert [bracketed for *_, bracketed in seen] == [True] + [False] * 8


def test_uncertainty_is_jackknife_or_window_shift(monkeypatch):
    # record lam_inf of every tail fit: two full-tail fits (power, log),
    # one per dropped point, then the window slid back one point
    fits = []
    fit = continuation._fit

    def recording(model, a, y, p0, bounds):
        popt = fit(model, a, y, p0, bounds)
        fits.append((len(a), float(a[-1]), float(popt[0])))
        return popt

    monkeypatch.setattr(continuation, "_fit", recording)
    for count in (11, 8):
        fits.clear()
        amps = np.geomspace(1e2, 1e5, count)
        # a second, slower correction keeps the fitted rate drifting
        lams = 5.0 + 3.0 * amps ** -0.6 + 0.5 * amps ** -0.25
        est = extract_limit(_synthetic_branch(amps, lams))
        jack = np.array([lam for n, _, lam in fits if n == 7])
        assert len(jack) == 8
        spread = math.sqrt(7 / 8 * np.sum((jack - jack.mean()) ** 2))
        shifted = [lam for n, last, lam in fits[2:]
                   if n == 8 and last == amps[-2]]
        if count == 8:
            assert shifted == []
            assert est.uncertainty == pytest.approx(spread, rel=1e-12)
        else:
            drift = 1.25 * abs(shifted[0] - est.lam_infinity)
            assert drift > spread  # the window shift binds, as on branches
            assert est.uncertainty == pytest.approx(drift, rel=1e-12)
