"""Auxiliary linear profiles, sector spectra, the non-degeneracy report."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bn6 import auxiliary, shooting
from bn6.auxiliary import (
    _linearized,
    build_profiles,
    essential_nondegeneracy,
    survey_concentration_points,
)
from bn6.errors import NotConvergedError
from bn6.grid import make_grid
from bn6.operators import (
    OperatorSpec,
    _Assembled,
    assemble,
    solve_dirichlet,
)
from bn6.serialize import record
from bn6.shooting import shoot

from oracles import geometric_grid, w_eta, weak_apply

V0_FROZEN = -3.2284188994808511
W0_FROZEN = 0.10573771048525127
WETA0_FROZEN = 83.774246440155977
MIN_GAP_FROZEN = 4.1104750029379069
HESSIAN_FROZEN = -378.64560638396387


def test_profile_structure(profiles, certificate):
    assert profiles.dimension == 6
    assert profiles.amplitude == pytest.approx(profiles.lam0 / 2.0, abs=1e-8)
    assert profiles.u0.values[0] == pytest.approx(profiles.amplitude,
                                                  rel=1e-12)
    assert np.all(profiles.u0.values[:-1] > 0.0)
    # the boundary value is the shot's u(1) from a = lam_0/2, which the
    # certificate's Newton step accounts for, within the IVP's own error
    assert profiles.u0.values[-1] == pytest.approx(
        -certificate.newton_step * certificate.psi_at_1, rel=1e-12)
    assert abs(profiles.u0.values[-1]) < 1e-11
    assert profiles.v.values[-1] == 0.0
    assert profiles.w.values[-1] == 0.0
    assert profiles.v0 == pytest.approx(V0_FROZEN, rel=1e-8)
    assert profiles.w0 == pytest.approx(W0_FROZEN, rel=1e-7)


def _same_bytes(f, g) -> bool:
    return (f.grid.nodes.tobytes(), f.values.tobytes(),
            f.derivative.tobytes()) == (g.grid.nodes.tobytes(),
                                        g.values.tobytes(),
                                        g.derivative.tobytes())


def _fresh_u0(certificate, grid):
    """u0 from a new IVP of the certificate's (lam0, a), sampled on grid."""
    return shoot(6, certificate.lam0, certificate.amplitude).trajectory(grid)


@pytest.mark.parametrize("n", [64, 2048, 4096])
def test_profiles_resample_the_certificates_shot(certificate, n):
    # u0 is the certificate's trajectory sampled on the profiles' grid:
    # the same bytes as a new IVP sampled there
    u0 = build_profiles(certificate, grid_n=n).u0
    assert u0.grid.n_cells == n
    assert _same_bytes(u0, _fresh_u0(certificate, u0.grid))


@pytest.mark.parametrize("grid_n,half_grid", [
    (64, make_grid),
    (4096, lambda dimension, n: geometric_grid(dimension, n, 2.0)),
])
def test_half_grid_resamples_the_certificates_shot(certificate, monkeypatch,
                                                   grid_n, half_grid):
    # the half grid of 2 v(0) - 1's error bar, of other cells (32) or of
    # 2048 cells at other nodes than the certificate's (geometric), gets
    # u0 from the certificate's trajectory, with no IVP
    profiles = build_profiles(certificate, grid_n=grid_n)
    sampled = []

    def trajectory(grid):
        sampled.append(certificate.trajectory(grid))
        return sampled[-1]

    def no_ivp(*args, **kwargs):
        raise AssertionError("essential_nondegeneracy made an IVP")
    monkeypatch.setattr(auxiliary, "make_grid", half_grid)
    monkeypatch.setattr(shooting, "solve_ivp", no_ivp)
    rep = essential_nondegeneracy(replace(profiles, trajectory=trajectory))
    monkeypatch.undo()
    u0, = sampled
    assert u0.grid.n_cells == grid_n // 2
    assert (u0.grid.nodes.tobytes()
            != certificate.branch.profile.grid.nodes.tobytes())
    assert _same_bytes(u0, _fresh_u0(certificate, u0.grid))
    assert 0.0 < rep.survey.two_v_error < abs(rep.survey.two_v_minus_one)


def test_v_and_w_solve_their_equations(profiles):
    # check against the assembled operator the solver factorized; the
    # floor is LU roundoff at the operator's condition number
    op = OperatorSpec(profiles.grid, sector=0, lam=profiles.lam0,
                      potential=profiles.linearized_potential())
    scale = np.max(np.abs(profiles.u0.values))
    res_v = weak_apply(op, profiles.v) - profiles.u0.values
    assert np.max(np.abs(res_v[1:-1])) / scale < 1e-7

    rhs = profiles.v.values + np.sign(profiles.u0.values) * profiles.v.values ** 2
    res_w = weak_apply(op, profiles.w) - rhs
    assert np.max(np.abs(res_w[1:-1])) / np.max(np.abs(rhs)) < 1e-7


@pytest.mark.parametrize("n", [1024, 4096])
def test_dirichlet_guard_rejects_corrupted_solve(certificate, monkeypatch, n):
    # a relative error of 1e-13 in the solution of the v equation is
    # caught; the solve itself passes
    u0 = certificate.trajectory(make_grid(6, n))
    op = _linearized(u0, certificate.lam0)
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


def test_v_grid_refinement(profiles, profiles_coarse):
    # halving h moves v(0) by the expected O(h^2); the difference doubles
    # as the refinement error bar downstream
    diff = abs(profiles.v0 - profiles_coarse.v0)
    assert 0.0 < diff < 1e-5


def test_w_eta_origin_identity(profiles):
    dec = w_eta(profiles, np.zeros(6))
    expected = profiles.u0.values[0] - profiles.lam0 * profiles.v0
    assert dec.origin_value == pytest.approx(expected, abs=1e-10)
    assert dec.origin_value == pytest.approx(WETA0_FROZEN, rel=1e-8)
    # no shift: the first-harmonic part vanishes identically
    assert dec.residual_sector1 == 0.0
    assert np.all(dec.sector1.values == 0.0)


def test_w_eta_sector_residuals_random_shifts(profiles):
    rng = np.random.default_rng(7)
    for _ in range(10):
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)
        eta = rng.uniform(0.05, 0.95) * direction
        dec = w_eta(profiles, eta)
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


def test_w_eta_input_validation(profiles):
    with pytest.raises(ValueError):
        w_eta(profiles, np.zeros(5))
    bad = np.zeros(6)
    bad[0] = 1.0
    with pytest.raises(ValueError):
        w_eta(profiles, bad)


def test_sector_spectrum_monotone(profiles):
    q = profiles.linearized_potential()
    spec = np.vstack([assemble(OperatorSpec(profiles.grid, sector=l,
                                            potential=q)).eigenvalues(3)
                      for l in range(6)])
    assert spec.shape == (6, 3)
    assert np.all(np.diff(spec, axis=1) > 0.0)  # sorted within a sector
    assert np.all(np.diff(spec[:, 0]) > 0.0)    # centrifugal monotonicity


def test_concentration_survey(profiles, profiles_coarse):
    survey = survey_concentration_points(profiles,
                                         coarse_v0=profiles_coarse.v0)
    # the + level holds exactly the center; the - level is empty
    assert len(survey.points) == 1
    pt = survey.points[0]
    assert pt.radius == 0.0
    assert pt.level == 1
    assert pt.beta == -1
    assert pt.case == 1
    assert pt.u_value == pytest.approx(profiles.lam0 / 2.0, abs=1e-8)
    assert survey.essential
    # 2 v(0) - 1 is far from its degenerate zero, beyond the error bar
    assert survey.two_v_minus_one == pytest.approx(2.0 * V0_FROZEN - 1.0,
                                                   rel=1e-8)
    assert 0.0 < survey.two_v_error < 1e-4
    assert abs(survey.two_v_minus_one) > 100.0 * survey.two_v_error


def test_nondegeneracy_report(profiles, profiles_coarse):
    rep = essential_nondegeneracy(profiles)
    # the error bar's half-grid v(0) is the 2048-cell profiles' own
    assert rep.survey.two_v_error == 2.0 * abs(profiles.v0
                                               - profiles_coarse.v0)
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


def test_cutoff_nu1_is_the_lowest_sector_0_eigenvalue(profiles, monkeypatch):
    # comparison_l reads nu_1 as the first entry of sector 0's Sturm bracket
    # of lam_0, bisected at STURM_TOL, and the bracket is computed once; the
    # head eigensolve bisects at stebz's default tolerance, so the two agree
    # to the looser one
    brackets = []
    nearest = _Assembled.nearest

    def recorded(self, lam):
        bracket = nearest(self, lam)
        if self.op.grid is profiles.grid and self.op.sector == 0:
            brackets.append(bracket)
        return bracket
    monkeypatch.setattr(_Assembled, "nearest", recorded)
    rep = essential_nondegeneracy(profiles, l_max=2)
    assert len(brackets) == 2 and brackets[0] is brackets[1]
    nu1 = brackets[0][0]
    q = profiles.linearized_potential()
    head = assemble(OperatorSpec(profiles.grid, potential=q)).eigenvalues(1)[0]
    assert nu1 == pytest.approx(head, rel=1e-8)
    assert rep.comparison_l == next(l for l in (1, 2)
                                    if nu1 + l * (l + 4) > rep.lam0)


def test_origin_value_gap_is_the_certificates_newton_step(certificate,
                                                          profiles):
    # u_0(0) is lam_0/2 itself; the gap is how far the amplitude that
    # matches u(1) = 0 lies from it, |delta|, and that is not 0
    rep = essential_nondegeneracy(profiles, l_max=0)
    assert profiles.u0.values[0] == 0.5 * profiles.lam0
    assert rep.origin_value_gap > 0.0
    assert rep.origin_value_gap == certificate.gap / 2.0
