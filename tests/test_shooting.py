"""Shooting integration, branch solves, the self-consistent parameter."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

from bn6 import cli, shooting
from bn6.errors import (BlowUpBeforeOneError, BN6Error, NearSingularError,
                        NoSignChangeError)
from bn6.grid import RadialFn
from bn6.shooting import (
    BranchPoint,
    critical_exponent,
    find_lambda0,
    nodal_count,
    shoot,
    shoot_to_zero,
    solve_bvp,
)

from oracles import amplitude_derivative_shot, fnl, h1_norm, newton_refine

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
    assert nodal_count(res.profile) == 1


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
    z1 = shoot_to_zero(3, 4.0, 1e-3, 1)[0]
    z2 = shoot_to_zero(3, 4.0, 1e-3, 2)[0]
    assert z1 == pytest.approx(math.pi / 2.0, rel=1e-6)
    assert z2 == pytest.approx(math.pi, rel=1e-6)
    # first zero beyond the trust radius: no m-th zero to report
    assert shoot_to_zero(3, 0.05, 1e-3, 1)[0] is None


def test_zero_position_decreasing_in_lambda():
    zs = [shoot_to_zero(6, lam, 30.0, 1)[0] for lam in (5.0, 10.0, 20.0)]
    assert zs[0] > zs[1] > zs[2]


def _signed(lo_exp: float, hi_exp: float):
    return st.builds(lambda sign, e: sign * 10.0 ** e,
                     st.sampled_from((-1.0, 1.0)), st.floats(lo_exp, hi_exp))


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(3, 6), lam=st.floats(0.0, 100.0),
       r=st.floats(-250.0, 1.0).map(lambda e: 10.0 ** e),
       u=st.one_of(st.just(0.0), _signed(-300.0, 8.0)),
       du=st.one_of(st.just(0.0), _signed(-300.0, 8.0)))
def test_rhs_is_the_numpy_formula_bit_for_bit(dim, lam, r, u, du):
    # the float kernel performs fnl's operations in the same order, so
    # every IVP takes the same steps as with numpy scalars
    p = critical_exponent(dim)
    y = np.array([u, du])
    yu, ydu = y
    want = (ydu, -(dim - 1) / r * ydu - lam * yu - fnl(yu, p))
    got = shooting._make_rhs(dim, lam, p)(r, u, du)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def test_dop853_tableau_is_scipys():
    # the literal tableau equals the DOP853 class attributes to the bit,
    # and the stage rows the loop uses are their slices
    DOP853 = scipy.integrate.DOP853
    assert shooting._STAGES == DOP853.n_stages
    for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
        ours, theirs = getattr(shooting, "_" + name), getattr(DOP853, name)
        assert ours.dtype == theirs.dtype == np.float64, name
        assert np.array_equal(ours, theirs), name
        assert ours.tobytes() == theirs.tobytes(), name
    assert [s for s, _, _ in shooting._STAGE_ROWS] == list(range(1, 12))
    for s, a, c in shooting._STAGE_ROWS:
        assert np.array_equal(a, DOP853.A[s, :s]) and c == DOP853.C[s]
    assert [s for s, _, _ in shooting._EXTRA_ROWS] == [13, 14, 15]
    for i, (s, a, c) in enumerate(shooting._EXTRA_ROWS):
        assert np.array_equal(a, DOP853.A_EXTRA[i, :s])
        assert c == DOP853.C_EXTRA[i]


def _scipy_ivp(dim, lam, a, r_end, dense, max_zeros):
    """The reference: scipy.integrate.solve_ivp with the zero and blow-up
    events, as _integrate called it before bn6 drove DOP853 itself."""
    p = critical_exponent(dim)
    r0, u0, du0 = shooting._series_start(dim, lam, a, p)
    rhs = shooting._make_rhs(dim, lam, p)

    def zero(r, y):
        return y[0]

    zero.direction = 0.0
    if max_zeros is not None:
        zero.terminal = max_zeros

    def blowup(r, y):
        return abs(y[0]) - shooting.BLOWUP_FACTOR * abs(a)

    blowup.terminal = True
    sol = scipy.integrate.solve_ivp(
        lambda r, y: rhs(r, *y.tolist()), (r0, r_end), (u0, du0),
        method="DOP853", rtol=shooting.RTOL, atol=shooting.ATOL,
        events=(zero, blowup), dense_output=dense)
    assert sol.success
    return sol, r0, p


def _hex(values):
    return [float(v).hex() for v in values]


def _assert_same_ivp(dim, lam, a, max_zeros):
    """bn6's IVP against scipy's: zeros, RHS count, end point and state of
    a plain run, then the dense profile, built on demand, against scipy's
    dense_output run, and the on-demand stages against its extra nfev."""
    r_end = 1.0 if max_zeros is None else 10.0
    want, r0, p = _scipy_ivp(dim, lam, a, r_end, False, max_zeros)
    got, _, _ = shooting._integrate(dim, lam, a, r_end, max_zeros)
    assert len(want.t_events[1]) == 0  # the blow-up event never fires
    assert _hex(got.zeros) == _hex(want.t_events[0])
    assert got.nfev == want.nfev
    assert _hex((got.r_end, *got.y_end)) == _hex((want.t[-1],
                                                  *want.y[:, -1]))
    dense, _, _ = _scipy_ivp(dim, lam, a, r_end, True, max_zeros)
    calls = []

    def counting(*args):
        calls.append(args)
        return got.rhs(*args)

    grid = shooting.profile_grid(dim, a)
    f_want = shooting._sample(dense, r0, dim, lam, a, p, grid)
    f_got = shooting._sample(dataclasses.replace(got, rhs=counting), r0,
                             dim, lam, a, p, grid)
    assert _hex(f_got.values) == _hex(f_want.values)
    assert _hex(f_got.derivative) == _hex(f_want.derivative)
    assert got.nfev + len(calls) == dense.nfev
    return got


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(3, 6), lam=st.floats(0.01, 80.0),
       ln_a=st.floats(-5.0, 18.0), max_zeros=st.sampled_from((1, 2, None)))
def test_ivp_driver_is_scipy_solve_ivp_bit_for_bit(dim, lam, ln_a, max_zeros):
    # zeros, RHS count, end point and state, and the sampled profile of
    # bn6's DOP853 loop equal scipy's to the last bit; max_zeros None is
    # shoot's run to r = 1
    _assert_same_ivp(dim, lam, math.exp(ln_a), max_zeros)


def test_ivp_driver_runs_out_without_the_mth_zero():
    # the first zero lies beyond r_max: both reach r = 10 and report none
    got = _assert_same_ivp(3, 0.05, 1e-3, 1)
    assert got.zeros == [] and got.r_end == 10.0
    assert shoot_to_zero(3, 0.05, 1e-3, 1)[0] is None


def test_blowup_guard_trips_on_the_first_step_past_u_max(monkeypatch):
    # u'' = u from (1, 0) grows like cosh r; with u_max = 10 the driver
    # raises right after accepting the first step that ends with
    # |u| >= 10: its last RHS call is that step's end
    def logging(calls):
        def rhs(r, u, du):
            calls.append((r, u, du))
            return du, u
        return rhs

    free_calls, calls = [], []
    free = shooting.solve_ivp(logging(free_calls), 0.0, 5.0, (1.0, 0.0),
                              math.inf)
    r_new, y_new = next((r_new, y_new) for _, r_new, _, y_new, _
                        in free.steps if abs(y_new[0]) >= 10.0)
    with pytest.raises(BlowUpBeforeOneError, match=f"r={r_new:.6f}"):
        shooting.solve_ivp(logging(calls), 0.0, 5.0, (1.0, 0.0), 10.0)
    assert calls == free_calls[:len(calls)]
    assert calls[-1] == (r_new, *y_new)
    # _integrate's message names the IVP's lambda and amplitude
    monkeypatch.setattr(shooting, "BLOWUP_FACTOR", 0.999)
    with pytest.raises(BlowUpBeforeOneError, match=r"lam=20.0, a=30.0"):
        shooting._integrate(6, 20.0, 30.0, 10.0, max_zeros=2)


@pytest.mark.parametrize("y0", [(math.nan, 0.0), (math.inf, 0.0),
                                (1.0, -math.inf)])
def test_ivp_driver_rejects_a_non_finite_start(y0):
    rhs = shooting._make_rhs(6, 20.0, 2.0)
    with pytest.raises(ValueError):
        scipy.integrate.solve_ivp(lambda r, y: rhs(r, *y.tolist()),
                                  (1e-3, 1.0), y0, method="DOP853")
    with pytest.raises(ValueError, match="not finite"):
        shooting.solve_ivp(rhs, 1e-3, 1.0, y0, 4.0)


def test_dense_output_is_built_on_demand_once(monkeypatch):
    # an unsampled shot builds coefficients only on the steps where u
    # changes sign; the dense output keeps them, builds every other
    # step's once in one pass, and asking again builds nothing
    passes = []
    coefficients = shooting._coefficients

    def counting(rhs, steps):
        passes.append([r for r, *_ in steps])
        return coefficients(rhs, steps)

    monkeypatch.setattr(shooting, "_coefficients", counting)
    sol, _, _ = shooting._integrate(6, 20.0, 30.0, 10.0, max_zeros=2)
    starts = [r for r, *_ in sol.steps]
    crossing = [r for r, _, (u, _), (u_new, _), _ in sol.steps
                if u * u_new <= 0.0]
    assert len(sol.zeros) == 2
    assert passes == [[r] for r in crossing] and len(crossing) == 2
    first = sol.sol
    assert len(passes) == 3
    assert passes[2] == [r for r in starts if r not in crossing]
    for k, kept in sol.crossings.items():
        assert first.F[k].tobytes() == kept.tobytes()
    assert sol.sol is first
    passes.clear()
    _, sample = shoot_to_zero(6, 20.0, 30.0, 2)
    assert len(passes) == 2
    once = sample()
    assert len(passes) == 3 and sum(map(len, passes)) == len(starts)
    again = sample()
    assert len(passes) == 3
    assert np.array_equal(once.profile.values, again.profile.values)


def _step_coefficients(rhs, step):
    """One step's extra stages and interpolant coefficients with scipy's
    per-step operations: Dop853's K[:s].T.dot(a) and np.dot(D, K)."""
    r, r_new, y, y_new, K = step
    K = K.copy()
    h = r_new - r
    for s, a, c in shooting._EXTRA_ROWS:
        d0, d1 = K[:s].T.dot(a).tolist()
        K[s] = rhs(r + c * h, y[0] + d0 * h, y[1] + d1 * h)
    F = np.empty((7, 2))
    delta = np.subtract(y_new, y)
    F[0] = delta
    F[1] = h * K[0] - delta
    F[2] = 2 * delta - h * (K[shooting._STAGES] + K[0])
    F[3:] = h * np.dot(shooting._D, K)
    return K, F


@pytest.mark.parametrize("dim,lam,a", [(4, 15.87, 1e6), (4, 10.0, 5.0),
                                       (6, 20.0, 30.0), (6, 22.45, 1e8)])
def test_stacked_dense_output_keeps_the_per_step_bits(dim, lam, a):
    # the two bit contracts the stacked dense output rests on: the
    # stacked BLAS products equal each step's own dots, and the scalar
    # at(k, r, j) that locates zeros equals the vectorised evaluation
    sol, _, _ = shooting._integrate(dim, lam, a, 10.0, max_zeros=2)
    steps = sol.steps
    per_step = [_step_coefficients(sol.rhs, step) for step in steps]
    K = np.array([k for k, _ in per_step])
    for s, a_row, _ in shooting._EXTRA_ROWS:
        stacked = np.matmul(K[:, :s].transpose(0, 2, 1), a_row)
        for k in range(len(steps)):
            assert stacked[k].tobytes() == K[k, :s].T.dot(a_row).tobytes()
    stacked = np.matmul(shooting._D, K)
    for k in range(len(steps)):
        assert stacked[k].tobytes() == np.dot(shooting._D, K[k]).tobytes()
    F = shooting._coefficients(sol.rhs, steps)
    assert F.tobytes() == np.array([f for _, f in per_step]).tobytes()
    # OdeSolution's rule: rs[k] < r <= rs[k + 1] is step k, rs[0] and
    # points below it step 0, points above rs[-1] the last step
    dense = sol.sol
    rs = dense.rs
    n = len(steps)
    assert len(rs) == n + 1
    points = np.concatenate((rs, (rs[:-1] + rs[1:]) / 2, rs[:-1] + (
        rs[1:] - rs[:-1]) / 7, [rs[0] / 2, rs[-1] + 0.25, 20.0]))
    owner = np.concatenate(([0], np.arange(n), np.arange(n), np.arange(n),
                            [0, n - 1, n - 1]))
    want = dense(points)
    for j in (0, 1):
        got = [dense.at(k, r, j) for k, r in zip(owner.tolist(),
                                                 points.tolist())]
        assert _hex(got) == _hex(want[j])


def test_shoot_to_zero_samples_the_profile_shoot_integrates():
    # stopping at the m-th zero does not change the steps before it: the
    # zero is the one a run on to r_max records, to the bit, also on the
    # noisy N = 4 tail, on the N = 3 ground state and around a match
    lam = 25.0
    a = solve_bvp(6, lam, 2).amplitude
    for dim, lam_m, amplitude, m in ((4, 15.870007, 1e6, 2),
                                     (4, 15.87, 1e6, 2),
                                     (3, 4.0, 0.5, 1), (3, 4.0, 8.0, 1),
                                     (6, lam, 0.9 * a, 2),
                                     (6, lam, 1.1 * a, 2), (6, lam, a, 2)):
        zero, sample = shoot_to_zero(dim, lam_m, amplitude, m)
        run_on, _, _ = shooting._integrate(dim, lam_m, amplitude, 10.0)
        assert zero is not None
        assert zero == run_on.zeros[m - 1]
    # at the matched amplitude the profile is shoot's, sampled up to the
    # zero instead of integrated to r = 1
    got, want = sample(), shoot(6, lam, a)
    assert np.array_equal(got.profile.grid.nodes, want.profile.grid.nodes)
    scale = np.max(np.abs(want.profile.values))
    assert np.max(np.abs(got.profile.values - want.profile.values)) <= (
        1e-8 * scale)
    assert abs(got.boundary_value) <= 1e-8 * scale
    assert nodal_count(got.profile) == nodal_count(want.profile)
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
        return shoot_to_zero(dimension, lam, amplitude, m)

    monkeypatch.setattr(shooting, "shoot_to_zero", counting)
    pt = solve_bvp(6, 20.0, 1)
    assert pt.nodal_count == 1
    assert len(calls) == len(set(calls)) > 2


def test_solve_bvp_below_window_raises():
    with pytest.raises(NoSignChangeError):
        solve_bvp(3, 0.9 * math.pi ** 2 / 4.0, 1)


@pytest.mark.parametrize("lam", [-3.0, -0.5, 0.0])
def test_solve_bvp_at_nonpositive_lambda_finds_no_sign_change(lam):
    # by Pohozaev there is no positive solution for lam <= 0 at N = 6; the
    # scan's large-amplitude shots blow up before their first zero, which
    # counts as no zero, so the scan ends without a bracket
    with pytest.raises(NoSignChangeError):
        solve_bvp(6, lam, 1)


def test_lambda0_certificate(certificate):
    lam1 = jn_zeros(2, 1)[0] ** 2
    assert 0.0 < certificate.lam0 < lam1
    assert certificate.lam0 == pytest.approx(LAMBDA0_FROZEN, rel=1e-8)
    assert certificate.gap <= 1e-8
    assert certificate.branch.nodal_count == 1
    assert certificate.branch.residual <= 1e-6
    assert certificate.amplitude == pytest.approx(certificate.lam0 / 2.0,
                                                  abs=1e-8)


def test_certificate_psi_matches_scipy(certificate):
    # psi = du/da at r = 1 from the certificate's two shots against one
    # scipy shot of (u, u', psi, psi') in the same steps
    psi1 = amplitude_derivative_shot(certificate.lam0,
                                     certificate.amplitude)[2]
    assert certificate.psi_at_1 == pytest.approx(psi1, rel=1e-6)
    assert certificate.gap == 2.0 * abs(certificate.newton_step) > 0.0
    assert certificate.amplitude == 0.5 * certificate.lam0


def test_certificate_refuses_a_perturbed_lambda0(certificate, monkeypatch,
                                                 tmp_path, capsys):
    # at lam_0 + 1e-6 the Newton step from lam/2 lands on solve_bvp's
    # matched amplitude (the step converges quadratically), and its gap,
    # far above GAP_BOUND, makes the lambda0 command exit 2
    z = math.sqrt(0.5 * (certificate.lam0 + 1e-6))
    lam = 2.0 * z * z
    shot = shoot(6, lam, 0.5 * lam, 2048)
    delta = -shot.boundary_value / shooting._psi_at_1(shot)
    assert 2.0 * abs(delta) > 1e-6
    assert shot.amplitude + delta == pytest.approx(
        solve_bvp(6, lam, 1).amplitude, rel=1e-11)
    monkeypatch.setattr(shooting, "shoot_to_zero", lambda *args: (z, None))
    assert cli.main(["lambda0", "--out", str(tmp_path)]) == 2
    assert "NotConvergedError" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_certificate_refuses_psi_below_its_floor(monkeypatch):
    # |psi(1)| = 0.028: a floor above it reads as a singular linearization
    monkeypatch.setattr(shooting, "PSI_FLOOR", 0.03)
    with pytest.raises(NearSingularError, match="psi"):
        find_lambda0(6)


def test_find_lambda0_makes_three_ivps(monkeypatch):
    # Z_1(2), then u from (lam_0, lam_0/2) and psi along it: no scan
    calls = []
    ivp = shooting.solve_ivp

    def counted(*args, **kwargs):
        calls.append(1)
        return ivp(*args, **kwargs)
    monkeypatch.setattr(shooting, "solve_ivp", counted)
    find_lambda0(6)
    assert len(calls) == 3


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
    scaled = shoot_to_zero(dim, lam * a ** (-4.0 / (dim - 2)), 1.0, m)[0]
    got = shoot_to_zero(dim, lam, a, m)[0]
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
