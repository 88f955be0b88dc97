"""End-to-end acceptance checks, one test per criterion.

Each test pins the tolerances it must meet and asserts its runtime
budget; the assertion messages carry the measured numbers so a failure
line documents itself.  Criterion 9 checks the mu^3 coefficient of the
reduced energy against -(16/9) d2, the value derived for the ansatz this
package builds (bn6.reduction.MU3_RATIO); the paper states -(11/9) d2
(PAPER_MU3_RATIO), which the measurement does not reproduce and which is
not yet reconciled with the derivation.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jn_zeros, jv

from bn6.auxiliary import essential_nondegeneracy
from bn6.bubbles import constants, d2_value, talenti_u
from bn6.cli import main as cli_main
from bn6.continuation import extract_limit, trace_branch
from bn6.errors import NoSignChangeError
from bn6.grid import RadialFn, make_grid
from bn6 import shooting
from bn6.operators import OperatorSpec
from bn6.shooting import dirichlet_eigenvalue, find_lambda0, solve_bvp

from oracles import (bessel_eigenvalue, reduced_energy_polynomial, w_eta,
                     weak_apply)

# independent eigenvalue oracle: squared first zero of J_{N/2-1}
LAMBDA1 = {
    3: math.pi ** 2,
    4: jn_zeros(1, 1)[0] ** 2,
    5: brentq(lambda x: jv(1.5, x), 3.2, 6.0) ** 2,
    6: jn_zeros(2, 1)[0] ** 2,
}


def test_criterion_01_constants():
    start = time.perf_counter()
    reg = constants(u_center=22.469107870851314 / 2.0)
    d1_target = 96.0 * math.pi ** 3
    rel_d1 = abs(reg.d1 - d1_target) / d1_target
    rel_d1q = abs(reg.d1_quadrature - d1_target) / d1_target
    rel_om = abs(reg.omega6 - math.pi ** 3) / math.pi ** 3
    elapsed = time.perf_counter() - start
    assert rel_d1 <= 1e-8, f"d1 off by {rel_d1:.3e}"
    assert rel_d1q <= 1e-8, f"d1 by quadrature off by {rel_d1q:.3e}"
    assert rel_om <= 1e-10, f"omega6 off by {rel_om:.3e}"
    assert reg.alpha6 == 24.0
    assert elapsed < 1.0, f"constants took {elapsed:.2f}s"


def test_criterion_02_eigenvalue_oracles(monkeypatch):
    # the lambda_m that limits and branch take, one IVP each, against the
    # squared Bessel zeros for N = 3..6 and m = 1..3
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)
    solve_ivp = shooting.solve_ivp
    monkeypatch.setattr(shooting, "solve_ivp", counted)
    start = time.perf_counter()
    worst = 0.0
    for dim in (3, 4, 5, 6):
        for m in (1, 2, 3):
            target = bessel_eigenvalue(dim, m)
            got = dirichlet_eigenvalue(dim, m)
            worst = max(worst, abs(got - target) / target)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-7, f"worst eigenvalue error {worst:.3e}"
    assert len(calls) == 12, f"{len(calls)} IVPs for 12 eigenvalues"
    with pytest.raises(ValueError):
        dirichlet_eigenvalue(6, 0)
    assert elapsed < 5.0, f"eigenvalues took {elapsed:.2f}s"


def test_criterion_03_n3_window():
    start = time.perf_counter()
    branch = trace_branch(3, 1, a_end=1e4)
    est = extract_limit(branch)
    target = math.pi ** 2 / 4.0
    rel = abs(est.lam_infinity - target) / target
    assert rel <= 0.01, (
        f"m=1 limit {est.lam_infinity:.8f} vs pi^2/4 off by {rel:.3e}")
    with pytest.raises(NoSignChangeError):
        solve_bvp(3, 0.9 * target, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion took {elapsed:.1f}s"


def test_criterion_04_higher_branch_limits():
    start = time.perf_counter()
    # N = 3: the m-region limits (m pi / 2)^2 at odd multiples
    for m, target in ((2, 9.0 * math.pi ** 2 / 4.0),
                      (3, 25.0 * math.pi ** 2 / 4.0)):
        est = extract_limit(trace_branch(3, m, a_end=1e4))
        rel = abs(est.lam_infinity - target) / target
        assert rel <= 0.02, f"N=3 m={m} limit off by {rel:.3e}"

    # N = 4: the m=2 branch closes the gap to lambda_1 from above,
    # logarithmically slowly, so the window extends to 1e6
    est4 = extract_limit(trace_branch(4, 2, a_end=1e6))
    rel4 = abs(est4.lam_infinity - LAMBDA1[4]) / LAMBDA1[4]
    assert rel4 <= 0.02, f"N=4 m=2 limit off by {rel4:.3e}"
    tail4 = np.array([lam for _, lam in est4.tail])
    assert np.all(tail4 > LAMBDA1[4]), "N=4 approach is not from above"

    # N = 5: the branch dips below lambda_1 and returns from below
    est5 = extract_limit(trace_branch(5, 2, a_end=1e8))
    rel5 = abs(est5.lam_infinity - LAMBDA1[5]) / LAMBDA1[5]
    assert rel5 <= 0.02, f"N=5 m=2 limit off by {rel5:.3e}"
    tail5 = np.array([lam for _, lam in est5.tail])
    assert np.all(tail5 < LAMBDA1[5]), "N=5 approach is not from below"

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion took {elapsed:.1f}s"


def test_criterion_05_n6_concentration_value():
    start = time.perf_counter()
    cert = find_lambda0(6)
    assert 0.0 < cert.lam0 < LAMBDA1[6], (
        f"lambda0 {cert.lam0:.6f} outside (0, lambda1)")
    assert cert.gap <= 1e-8, f"|2u(0) - lambda0| = {cert.gap:.3e}"

    est = extract_limit(trace_branch(6, 2, a_end=1e8))
    rel = abs(est.lam_infinity - cert.lam0) / cert.lam0
    assert rel <= 0.02, (
        f"m=2 limit {est.lam_infinity:.6f} vs lambda0 {cert.lam0:.6f} "
        f"off by {rel:.3e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion took {elapsed:.1f}s"


def test_criterion_06_translation_dilation_profiles(certificate, tables,
                                                   w_eta_ladder):
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(10):
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)
        eta = rng.uniform(0.05, 0.95) * direction
        dec = w_eta(certificate.lam0, *tables[:2], eta)
        worst = max(worst, dec.residual_sector0, dec.residual_sector1)
        u00, v00, _ = (f.values[0] for f in tables)
        origin_gap = abs(dec.origin_value - (u00 - certificate.lam0 * v00))
        assert origin_gap <= 1e-10, (
            f"w_eta(0) identity violated by {origin_gap:.3e}")
    assert worst <= 1e-6, f"worst sector residual {worst:.3e}"

    # order under grid doubling, measured below the trajectory-precision
    # floor; 1.9 is the order-2 verification threshold (measurement of a
    # limit slope on finite grids), at eta = 0.45 e_2
    order0 = math.log2(w_eta_ladder[512].residual_sector0
                       / w_eta_ladder[2048].residual_sector0) / 2.0
    order1 = math.log2(w_eta_ladder[512].residual_sector1
                       / w_eta_ladder[2048].residual_sector1) / 2.0
    assert order0 >= 1.9, f"sector-0 residual order {order0:.3f}"
    assert order1 >= 1.9, f"sector-1 residual order {order1:.3f}"


def test_criterion_07_nondegeneracy_report(certificate, tables):
    rep = essential_nondegeneracy(certificate, *tables[:2])
    survey = rep.survey
    plus = [p for p in survey.points if p.level == 1]
    minus = [p for p in survey.points if p.level == -1]
    assert len(plus) == 1 and plus[0].radius == 0.0, (
        "the + level must hold exactly the center")
    assert minus == [], "the - level must be empty"
    assert rep.cutoff_certified and rep.min_gap > 0.0
    # 2 v(0) - 1 with refinement error bars; a zero crossing fails
    assert survey.two_v_error > 0.0
    assert abs(survey.two_v_minus_one) > survey.two_v_error, (
        f"2v(0)-1 = {survey.two_v_minus_one:.6f} within error bar "
        f"{survey.two_v_error:.2e} of zero")


def test_criterion_08_residual_scaling(expansion):
    # the budget applies to the shared sweep's own wall time
    report, elapsed = expansion
    got = report.residual_exponent
    assert 1.8 <= got <= 2.2, f"residual exponent {got:.4f} outside [1.8, 2.2]"
    assert elapsed < 300.0, f"criterion took {elapsed:.1f}s"


def test_criterion_09_expansion_coefficients(fields, expansion):
    report, _ = expansion

    rel_eps_mu2 = (abs(report.coef_eps_mu2 - report.target_eps_mu2)
                   / abs(report.target_eps_mu2))
    assert rel_eps_mu2 <= 0.05, (
        f"eps mu^2 coefficient off by {rel_eps_mu2:.3e}")

    assert report.remainder_exponent > 3.0, (
        f"remainder exponent {report.remainder_exponent:.4f}")

    # target: the derived -(16/9) d2, the sum of the five crossing-region
    # integrals at the sign change.  The paper states -(11/9) d2, which the
    # fit misses by about 46%; the report carries it as paper_mu3.
    d2 = d2_value(fields.origin()[0])
    rel_mu3 = abs(report.coef_mu3 - report.target_mu3) / abs(report.target_mu3)
    assert rel_mu3 <= 0.05, (
        f"mu^3 coefficient {report.coef_mu3:.6g} vs target "
        f"{report.target_mu3:.6g} (= -16/9 d2, derived) off by "
        f"{rel_mu3:.3e}; measured / d2 = {report.coef_mu3 / d2:.6f} = "
        f"{report.coef_mu3 / d2 * 9:.3f}/9; the paper states "
        f"{report.paper_mu3:.6g} (= -11/9 d2)")


def test_criterion_10_newton_refinement(refinement):
    report = refinement
    for row in report.rows:
        assert row.iterations < 60, (
            f"Newton did not converge at eps {row.eps:+.4f}")
    assert report.distance_exponent >= 2.0, (
        f"H^1 distance exponent {report.distance_exponent:.4f} "
        f"(raw {report.distance_exponent_raw:.4f})")


def test_criterion_11_property_suites(tmp_path):
    # quadrature order: the weights reproduce the ball volume exactly and
    # integrate cos(|x|) (closed form via repeated integration by parts)
    # at the scheme's second order
    exact = math.pi ** 3 * (101.0 * math.sin(1.0)
                            + 65.0 * math.cos(1.0) - 120.0)
    errs = []
    for n in (128, 256):
        g = make_grid(6, n)
        vol = float(np.sum(g.quad_weights))
        assert vol == pytest.approx(math.pi ** 3 / 6.0, rel=1e-12)
        errs.append(abs(float(np.dot(g.quad_weights, np.cos(g.nodes)))
                        - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    # operator/solver duality on random data
    rng = np.random.default_rng(99)
    g = make_grid(6, 128)
    m = g.cell_masses()
    op = OperatorSpec(g, sector=1, lam=2.0, potential=np.sin(g.nodes))
    for _ in range(20):
        a = rng.normal(size=len(g.nodes))
        b = rng.normal(size=len(g.nodes))
        a[0] = a[-1] = b[0] = b[-1] = 0.0
        fa, fb = RadialFn.from_values(g, a), RadialFn.from_values(g, b)
        lhs = float(np.dot(m * weak_apply(op, fa), b))
        rhs = float(np.dot(m * a, weak_apply(op, fb)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    # minimizer optimality over 1000 random instances
    a = rng.uniform(0.1, 10.0, size=1000)
    d2 = rng.uniform(0.1, 100.0, size=1000)
    ts = 6.0 * a / (11.0 * d2)
    best = reduced_energy_polynomial(ts, a, d2)
    for mult in (0.9, 0.99, 1.01, 1.1):
        assert np.all(reduced_energy_polynomial(mult * ts, a, d2) > best)

    # scaling covariance of the bubble, U_mu(r) = mu^{-2} U_1(r / mu)
    for _ in range(50):
        mu = rng.uniform(0.05, 2.0)
        r = rng.uniform(0.0, 3.0)
        lhs = talenti_u(r, mu)
        rhs = mu ** -2.0 * talenti_u(r / mu, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    # CLI determinism: identical invocations, identical bytes
    out = tmp_path / "det"
    argv = ["constants", "--lambda", "22.469107870851314", "--out", str(out)]
    assert cli_main(list(argv)) == 0
    first = (out / "constants.json").read_bytes()
    assert cli_main(list(argv)) == 0
    assert (out / "constants.json").read_bytes() == first
    assert json.loads(first)["alpha6"] == 24.0
