"""Auxiliary linear profiles, sector spectra, the non-degeneracy report."""

import math

import numpy as np
import pytest

from bn6.auxiliary import (
    END_VALUE_ERROR,
    essential_nondegeneracy,
    survey_concentration_points,
)
from bn6.errors import NotConvergedError
from bn6.grid import RadialFn, make_grid
from bn6.operators import (
    OperatorSpec,
    _Assembled,
    assemble,
    solve_dirichlet,
)
from bn6.serialize import record
from bn6.shooting import shoot

from oracles import aux_profile_shot, dilation_series, w_eta

# v(0), w(0) and u_0(0) - lam_0 v(0) of oracles.aux_profile_shot at
# rtol 3e-14 from the certificate's (lam_0, lam_0/2)
V0_FROZEN = -3.2284194178820984
W0_FROZEN = 0.10573625886655641
WETA0_FROZEN = 83.77425808804324
MIN_GAP_FROZEN = 4.1104750029379069
HESSIAN_FROZEN = -378.64560638396387


def test_profile_structure(fields, tables, certificate):
    u0, v, w = tables
    assert u0.grid.dimension == 6
    assert certificate.amplitude == pytest.approx(certificate.lam0 / 2.0,
                                                  abs=1e-8)
    assert u0.values[0] == pytest.approx(certificate.amplitude, rel=1e-12)
    assert np.all(u0.values[:-1] > 0.0)
    # the boundary value is the shot's u(1) from a = lam_0/2, which the
    # certificate's Newton step accounts for, within the IVP's own error
    assert u0.values[-1] == pytest.approx(
        -certificate.newton_step * certificate.psi_at_1, rel=1e-12)
    assert abs(u0.values[-1]) < 1e-11
    assert v.values[-1] == 0.0
    assert w.values[-1] == 0.0
    _, v0, w0 = fields.origin()
    assert v0 == pytest.approx(V0_FROZEN, rel=1e-8)
    assert w0 == pytest.approx(W0_FROZEN, rel=1e-7)


def _same_bytes(f, g) -> bool:
    return (f.grid.nodes.tobytes(), f.values.tobytes(),
            f.derivative.tobytes()) == (g.grid.nodes.tobytes(),
                                        g.values.tobytes(),
                                        g.derivative.tobytes())


def _fresh_u0(certificate, grid):
    """u0 from a new IVP of the certificate's (lam0, a), sampled on grid."""
    return shoot(6, certificate.lam0, certificate.amplitude).trajectory(grid)


@pytest.mark.parametrize("n", [64, 2048, 4096])
def test_profiles_resample_the_certificates_shot(certificate, fields, n):
    # u0 is the certificate's trajectory sampled on the tables' grid: the
    # same bytes as a new IVP sampled there
    u0 = fields.tabulate(n)[0]
    assert u0.grid.n_cells == n
    assert _same_bytes(u0, _fresh_u0(certificate, u0.grid))


def test_fields_are_the_grid_tables_to_the_bit(fields, tables):
    # tabulate samples the fields, so the fields at the grid's nodes are
    # u_0, v, w and their slopes to the bit; v(0) and w(0) come from the
    # series, the tables' first entries
    nodes = tables[0].grid.nodes
    values, slopes = fields(nodes)
    for k, f in enumerate(tables):
        assert values[k].tobytes() == f.values.tobytes()
        assert slopes[k].tobytes() == f.derivative.tobytes()
    assert fields.origin() == [f.values[0] for f in tables]
    # z on Python floats, as the sign-change search reads it, is the
    # tables' z at every node past the shots' start
    r0 = fields.u.ivp.rs[0]
    for eps in (-0.25, 0.02):
        z = values[0] + eps * values[1] + eps ** 2 * values[2]
        past = nodes >= r0
        assert [fields.z(r, eps).hex() for r in nodes[past].tolist()] == [
            x.hex() for x in z[past].tolist()]
        assert fields.z(0.0, eps) == pytest.approx(z[0], rel=1e-15)


def test_profiles_match_the_variation_of_constants_oracle(certificate,
                                                        fields, tables):
    # scipy's DOP853 at rtol 3e-14 gives v = v_p + c psi with v_p forced by
    # u_0, and w likewise: a route that does not use the dilation identity
    want = aux_profile_shot(certificate.lam0, certificate.amplitude, 3e-14)
    survey = survey_concentration_points(certificate, *tables[:2])
    gap = abs(survey.two_v_minus_one - want["two_v_minus_one"])
    assert gap <= 1e-9
    assert abs(fields.origin()[2] - want["w0"]) <= 1e-9
    # the bar covers the distance, far below the FEM's error of 1.04e-6
    assert gap < survey.two_v_error < 1e-6
    # the bar's premise: every end value it propagates is within E
    u1, du1 = certificate.trajectory.ivp.y_end
    for got, key in ((u1, "u1"), (du1, "du1"),
                     (certificate.psi_at_1, "psi1")):
        assert abs(got - want[key]) <= END_VALUE_ERROR, key


def test_certificate_matches_the_dilation_series(certificate, tables):
    # lambda_0, psi(1), u_0'(1) and 2 v(0) - 1 from mpmath's series of
    # the critical dilation profile at 40 digits, a route with no IVP:
    # each agrees with bn6 within bn6's own bar
    pytest.importorskip("mpmath")
    want = dilation_series(400, 40)
    # test_lambda0_matches_mpmath's bar on the certificate
    assert certificate.lam0 == pytest.approx(want["lambda0"], rel=1e-10)
    du1 = certificate.trajectory.ivp.y_end[1]
    assert abs(certificate.psi_at_1 - want["psi1"]) <= END_VALUE_ERROR
    assert abs(du1 - want["du1"]) <= END_VALUE_ERROR
    survey = survey_concentration_points(certificate, *tables[:2])
    assert abs(survey.two_v_minus_one
               - want["two_v_minus_one"]) <= survey.two_v_error


def test_fem_profiles_converge_to_the_shot_profiles(certificate,
                                                    tables_ladder):
    # the P1 FEM is the shot profiles' oracle: L v = u_0 and then
    # L w = v + sgn(u_0) v^2 solved on 1024, 2048 and 4096 cells of the
    # shot's u_0 approach the shot's v and w at second order (max norm)
    gaps = []
    for n in (1024, 2048, 4096):
        u0, v, w = tables_ladder[n]
        op = OperatorSpec(u0.grid, lam=certificate.lam0,
                          potential=2.0 * np.abs(u0.values))
        fem_v = solve_dirichlet(op, u0)
        fem_w = solve_dirichlet(op, RadialFn.from_values(
            u0.grid, fem_v.values + np.sign(u0.values) * fem_v.values ** 2))
        gaps.append([np.max(np.abs(fem_v.values - v.values)),
                     np.max(np.abs(fem_w.values - w.values))])
    gaps = np.array(gaps)
    assert np.all(gaps[-1] < 1e-5)
    assert np.all(np.diff(gaps, axis=0) < 0.0)
    assert np.all(np.log2(gaps[0] / gaps[-1]) / 2.0 >= 1.9)


@pytest.mark.parametrize("n", [1024, 4096])
def test_dirichlet_guard_rejects_corrupted_solve(certificate, monkeypatch, n):
    # a relative error of 1e-13 in the solution of the v equation is
    # caught; the solve itself passes
    u0 = certificate.trajectory(make_grid(6, n))
    op = OperatorSpec(u0.grid, lam=certificate.lam0,
                      potential=2.0 * np.abs(u0.values))
    solve_dirichlet(op, u0)
    factor = _Assembled.factor

    def corrupted(self, lam):
        solve = factor(self, lam)

        def noisy(rhs):
            x = solve(rhs)
            noise = np.random.default_rng(0).standard_normal(len(x))
            return x * (1.0 + 1e-13 * noise)

        return noisy

    monkeypatch.setattr(_Assembled, "factor", corrupted)
    with pytest.raises(NotConvergedError):
        solve_dirichlet(op, u0)


def test_w_eta_origin_identity(certificate, fields, tables):
    dec = w_eta(certificate.lam0, *tables[:2], np.zeros(6))
    u00, v00, _ = fields.origin()
    expected = u00 - certificate.lam0 * v00
    assert dec.origin_value == pytest.approx(expected, abs=1e-10)
    assert dec.origin_value == pytest.approx(WETA0_FROZEN, rel=1e-8)
    # no shift: the first-harmonic part vanishes identically
    assert dec.residual_sector1 == 0.0
    assert np.all(dec.sector1.values == 0.0)


def test_w_eta_sector_residuals_random_shifts(certificate, tables):
    rng = np.random.default_rng(7)
    for _ in range(10):
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)
        eta = rng.uniform(0.05, 0.95) * direction
        dec = w_eta(certificate.lam0, *tables[:2], eta)
        assert dec.residual_sector0 < 1e-6
        assert dec.residual_sector1 < 1e-6
        assert dec.eta == pytest.approx(tuple(eta))


def test_w_eta_residual_convergence_order(w_eta_ladder):
    # second-order scheme: residuals drop ~4x per refinement until the
    # finest grid touches the trajectory-precision floor, so the order is
    # measured on the pre-floor ladder (eta = 0.45 e_2)
    res0, res1 = [], []
    for n in (512, 1024, 2048):
        dec = w_eta_ladder[n]
        res0.append(dec.residual_sector0)
        res1.append(dec.residual_sector1)
    order0 = math.log2(res0[0] / res0[-1]) / 2.0
    order1 = math.log2(res1[0] / res1[-1]) / 2.0
    assert order0 >= 1.9
    assert order1 >= 1.9


def test_w_eta_input_validation(certificate, tables):
    with pytest.raises(ValueError):
        w_eta(certificate.lam0, *tables[:2], np.zeros(5))
    bad = np.zeros(6)
    bad[0] = 1.0
    with pytest.raises(ValueError):
        w_eta(certificate.lam0, *tables[:2], bad)


def test_sector_spectrum_monotone(tables):
    u0 = tables[0]
    q = 2.0 * np.abs(u0.values)
    spec = np.vstack([assemble(OperatorSpec(u0.grid, sector=l,
                                            potential=q)).eigenvalues(3)
                      for l in range(6)])
    assert spec.shape == (6, 3)
    assert np.all(np.diff(spec, axis=1) > 0.0)  # sorted within a sector
    assert np.all(np.diff(spec[:, 0]) > 0.0)    # centrifugal monotonicity


def test_concentration_survey(certificate, tables):
    survey = survey_concentration_points(certificate, *tables[:2])
    # the + level holds exactly the center; the - level is empty
    assert len(survey.points) == 1
    pt = survey.points[0]
    assert pt.radius == 0.0
    assert pt.level == 1
    assert pt.beta == -1
    assert pt.case == 1
    assert pt.u_value == pytest.approx(certificate.lam0 / 2.0, abs=1e-8)
    assert survey.essential
    # 2 v(0) - 1 is far from its degenerate zero, beyond the error bar
    assert survey.two_v_minus_one == pytest.approx(2.0 * V0_FROZEN - 1.0,
                                                   rel=1e-8)
    # 2 v(0) - 1 = -(2 u_0(1) + u_0'(1))/(lam_0 psi(1)), from the
    # certificate's end values, and the bar is E propagated through it
    u1, du1 = certificate.trajectory.ivp.y_end
    lam0, psi1, e = certificate.lam0, certificate.psi_at_1, END_VALUE_ERROR
    assert survey.two_v_minus_one == pytest.approx(
        -(2.0 * u1 + du1) / (lam0 * psi1), rel=1e-14)
    assert survey.two_v_error == (3.0 * e + abs(survey.two_v_minus_one)
                                  * lam0 * e) / (lam0 * abs(psi1))
    assert 0.0 < survey.two_v_error < 1e-6
    assert abs(survey.two_v_minus_one) > 100.0 * survey.two_v_error


def test_nondegeneracy_report(certificate, tables, tables_ladder):
    rep = essential_nondegeneracy(certificate, *tables[:2])
    # 2 v(0) - 1 and its bar come from the shots' end values, on any grid
    coarse = survey_concentration_points(certificate, *tables_ladder[512][:2])
    assert rep.survey.two_v_minus_one == coarse.two_v_minus_one
    assert rep.survey.two_v_error == coarse.two_v_error
    assert rep.dimension == 6
    assert rep.l_max == 24
    assert len(rep.sector_gaps) == 25
    assert rep.min_gap == pytest.approx(min(rep.sector_gaps), rel=1e-15)
    assert rep.min_gap == pytest.approx(MIN_GAP_FROZEN, rel=1e-6)
    assert rep.min_gap > 1.0  # lam0 is far from every sector's spectrum
    assert rep.comparison_l == 1
    assert rep.cutoff_certified
    assert rep.hessian_witness == pytest.approx(HESSIAN_FROZEN, rel=1e-6)
    assert rep.hessian_witness < 0.0
    assert rep.origin_value_gap <= 1e-8
    assert rep.survey is not None and rep.survey.essential

    d = record(rep)
    assert d["lambda0"] == rep.lam0
    assert d["min_gap"] == rep.min_gap
    assert d["cutoff_certified"] is True


def test_cutoff_nu1_is_the_lowest_sector_0_eigenvalue(certificate, tables,
                                                      monkeypatch):
    # comparison_l reads nu_1 as the first entry of sector 0's Sturm bracket
    # of lam_0, bisected at STURM_TOL, and the bracket is computed once; the
    # head eigensolve bisects at stebz's default tolerance, so the two agree
    # to the looser one
    brackets = []
    u0 = tables[0]
    nearest = _Assembled.nearest

    def recorded(self, lam):
        bracket = nearest(self, lam)
        if self.op.grid is u0.grid and self.op.sector == 0:
            brackets.append(bracket)
        return bracket
    monkeypatch.setattr(_Assembled, "nearest", recorded)
    rep = essential_nondegeneracy(certificate, *tables[:2], l_max=2)
    assert len(brackets) == 2 and brackets[0] is brackets[1]
    nu1 = brackets[0][0]
    q = 2.0 * np.abs(u0.values)
    head = assemble(OperatorSpec(u0.grid, potential=q)).eigenvalues(1)[0]
    assert nu1 == pytest.approx(head, rel=1e-8)
    assert rep.comparison_l == next(l for l in (1, 2)
                                    if nu1 + l * (l + 4) > rep.lam0)


def test_origin_value_gap_is_the_certificates_newton_step(certificate,
                                                          tables):
    # u_0(0) is lam_0/2 itself; the gap is how far the amplitude that
    # matches u(1) = 0 lies from it, |delta|, and that is not 0
    rep = essential_nondegeneracy(certificate, *tables[:2], l_max=0)
    assert tables[0].values[0] == 0.5 * certificate.lam0
    assert rep.origin_value_gap > 0.0
    assert rep.origin_value_gap == certificate.gap / 2.0
