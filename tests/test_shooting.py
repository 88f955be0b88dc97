"""Shooting integration, branch solves, the self-consistent parameter."""

import math

import numpy as np
import pytest
from scipy.special import jn_zeros

from bn6 import shooting
from bn6.errors import BN6Error, NoSignChangeError
from bn6.grid import RadialFn, h1_norm
from bn6.shooting import (
    BranchPoint,
    critical_exponent,
    find_lambda0,
    newton_refine,
    nodal_count,
    shoot,
    shoot_to_zero,
    solve_bvp,
    zero_position,
)

LAMBDA0_FROZEN = 22.469107870851314


def test_critical_exponent():
    assert critical_exponent(3) == 5.0
    assert critical_exponent(4) == 3.0
    assert critical_exponent(5) == pytest.approx(7.0 / 3.0, rel=1e-15)
    assert critical_exponent(6) == 2.0


def test_shoot_reproduces_bubble_n3():
    # at lam = 0 the equation -u'' - (2/r) u' = u^5 is solved exactly by
    # a (1 + a^4 r^2 / 3)^{-1/2}; the trajectory must track spike and
    # far field alike
    a = 10.0
    res = shoot(3, 0.0, a)
    r = res.profile.grid.nodes
    exact = a / np.sqrt(1.0 + a ** 4 * r ** 2 / 3.0)
    assert np.max(np.abs(res.profile.values - exact) / exact) < 1e-9
    assert res.amplitude == a
    assert res.zero_count == 0


def test_shoot_reproduces_bubble_n6():
    # N = 6, lam = 0: u = 24 mu^2 / (mu^2 + r^2)^2 with u(0) = 24 / mu^2
    res = shoot(6, 0.0, 24.0)
    r = res.profile.grid.nodes
    exact = 24.0 / (1.0 + r ** 2) ** 2
    assert np.max(np.abs(res.profile.values - exact) / exact) < 5e-9
    assert res.boundary_value == pytest.approx(6.0, rel=1e-9)


def test_zero_positions_near_linear_limit():
    # amplitude 1e-3 makes the nonlinear correction (a^4 in N = 3)
    # negligible while keeping the trajectory well above the integrator's
    # absolute-tolerance floor; zeros sit at k pi / sqrt(lam)
    z1 = zero_position(3, 4.0, 1e-3, 1)
    z2 = zero_position(3, 4.0, 1e-3, 2)
    assert z1 == pytest.approx(math.pi / 2.0, rel=1e-6)
    assert z2 == pytest.approx(math.pi, rel=1e-6)
    # first zero beyond the trust radius: no m-th zero to report
    assert zero_position(3, 0.05, 1e-3, 1) is None


def test_zero_position_decreasing_in_lambda():
    zs = [zero_position(6, lam, 30.0, 1) for lam in (5.0, 10.0, 20.0)]
    assert zs[0] > zs[1] > zs[2]


def test_shoot_to_zero_is_zero_position_kept_dense():
    lam = 25.0
    a = solve_bvp(6, lam, 2).amplitude
    for amplitude in (0.9 * a, 1.1 * a, a):
        zero, sample = shoot_to_zero(6, lam, amplitude, 2)
        assert zero == zero_position(6, lam, amplitude, 2)
    # at the matched amplitude the profile is shoot's, sampled up to the
    # zero instead of integrated to r = 1
    got, want = sample(), shoot(6, lam, a)
    assert np.array_equal(got.profile.grid.nodes, want.profile.grid.nodes)
    scale = np.max(np.abs(want.profile.values))
    assert np.max(np.abs(got.profile.values - want.profile.values)) <= (
        1e-8 * scale)
    assert abs(got.boundary_value) <= 1e-8 * scale
    assert got.zero_count == want.zero_count
    assert (got.lam, got.amplitude) == (want.lam, want.amplitude)
    assert nodal_count(got.profile) == 2


def test_nodal_count_synthetic():
    res = shoot(3, 0.0, 10.0)
    grid = res.profile.grid
    r = grid.nodes
    three = RadialFn.from_values(grid, np.sin(3.0 * math.pi * r))
    assert nodal_count(three) == 3
    # noise below the sign threshold must not create regions
    noisy = RadialFn.from_values(grid, 1.0 + 0.0 * r)
    vals = noisy.values.copy()
    vals[10] = 1e-12
    assert nodal_count(RadialFn.from_values(grid, vals)) == 1


def test_solve_bvp_ground_state_n6():
    pt = solve_bvp(6, 20.0, 1)
    assert isinstance(pt, BranchPoint)
    assert pt.nodal_count == 1
    assert pt.residual <= 1e-6
    assert np.all(pt.profile.values[:-1] > 0.0)
    assert pt.profile.values[-1] == pytest.approx(0.0, abs=1e-6 * pt.amplitude)
    assert pt.profile.values[0] == pytest.approx(pt.amplitude, rel=1e-12)
    assert pt.profile.derivative[0] == 0.0


def test_solve_bvp_two_region_n6():
    pt = solve_bvp(6, 25.0, 2)
    assert pt.nodal_count == 2
    assert pt.residual <= 1e-6
    # one interior sign change
    v = pt.profile.values
    signs = np.sign(v[np.abs(v) > 1e-10 * np.max(np.abs(v))])
    assert int(np.sum(signs[1:] != signs[:-1])) == 1


def test_solve_bvp_shoots_each_amplitude_once(monkeypatch):
    # brentq starts from the last two scan points; each distinct ln a
    # costs one IVP
    calls = []

    def counting(dimension, lam, amplitude, m):
        calls.append(amplitude)
        return zero_position(dimension, lam, amplitude, m)

    monkeypatch.setattr(shooting, "zero_position", counting)
    pt = solve_bvp(6, 20.0, 1)
    assert pt.nodal_count == 1
    assert len(calls) == len(set(calls)) > 2


def test_solve_bvp_below_window_raises():
    with pytest.raises(NoSignChangeError):
        solve_bvp(3, 0.9 * math.pi ** 2 / 4.0, 1)


def test_lambda0_certificate(certificate):
    lam1 = jn_zeros(2, 1)[0] ** 2
    assert 0.0 < certificate.lam0 < lam1
    assert certificate.lam0 == pytest.approx(LAMBDA0_FROZEN, rel=1e-8)
    assert certificate.gap <= 1e-8
    assert certificate.gap_alt <= 1e-8
    assert certificate.branch.nodal_count == 1
    assert certificate.branch.residual <= 1e-6
    assert certificate.amplitude == pytest.approx(certificate.lam0 / 2.0,
                                                  abs=1e-8)


def test_find_lambda0_requires_n6():
    with pytest.raises(BN6Error, match="N = 6"):
        find_lambda0(5)


def test_lambda0_matches_mpmath(certificate):
    # independent reference: the phi(0) = 1, mu = 2 trajectory
    # phi'' + (5/s) phi' + 2 phi + phi^2 = 0 started from its regular
    # series phi = sum b_k s^{2k} and integrated by mpmath's Taylor
    # method; lambda_0 = 2 Z_1^2 agrees to 20 digits at 20, 30 and 40
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(20):
        b = [mp.mpf(1)]
        for k in range(1, 12):
            conv = sum(b[i] * b[k - 1 - i] for i in range(k))
            b.append(-(2 * b[k - 1] + conv) / (2 * k * (2 * k + 4)))
        s0 = mp.mpf("0.05")
        phi0 = sum(c * s0 ** (2 * k) for k, c in enumerate(b))
        dphi0 = sum(2 * k * c * s0 ** (2 * k - 1)
                    for k, c in enumerate(b) if k)
        phi = mp.odefun(lambda s, y: [y[1], -5 * y[1] / s - 2 * y[0]
                                      - y[0] ** 2], s0, [phi0, dphi0])
        z = mp.findroot(lambda s: phi(s)[0], mp.mpf("3.35"))
        lam0 = float(2 * z * z)
    assert lam0 == pytest.approx(22.469107870741982642, rel=1e-15)
    assert certificate.lam0 == pytest.approx(lam0, rel=1e-10)


@pytest.mark.parametrize("dim,lam,a,m", [
    (4, 10.0, 5.0, 1), (4, 30.0, 0.5, 2), (5, 15.0, 40.0, 1),
    (5, 30.0, 3.0, 2), (6, 20.0, 10.0, 1), (6, 40.0, 50.0, 2)])
def test_zero_position_dilation_identity(dim, lam, a, m):
    # u(r) = a phi(a^{2/(N-2)} r) maps (lam, a) to (lam a^{-4/(N-2)}, 1)
    scaled = zero_position(dim, lam * a ** (-4.0 / (dim - 2)), 1.0, m)
    got = zero_position(dim, lam, a, m)
    assert got == pytest.approx(a ** (-2.0 / (dim - 2)) * scaled, rel=1e-8)


def test_newton_refine_is_a_local_contraction(certificate):
    # the shot profile and a 0.1%-perturbed copy must refine to the same
    # discrete solution
    prof = certificate.branch.profile
    base = newton_refine(prof, certificate.lam0)
    assert base.residual_history[-1] <= 1e-8
    assert base.residual_history[-1] <= 1e-4 * base.residual_history[0]

    bump = 1.0 + 1e-3 * (1.0 - prof.grid.nodes ** 2)
    pert = RadialFn.from_values(prof.grid, prof.values * bump)
    again = newton_refine(pert, certificate.lam0)
    disagreement = np.max(np.abs(base.profile.values - again.profile.values))
    assert disagreement <= 1e-8 * certificate.amplitude

    def travel(result, guess):
        return h1_norm(RadialFn.from_values(
            prof.grid, result.profile.values - guess.values))
    assert travel(again, pert) > travel(base, prof)  # it had farther to travel
