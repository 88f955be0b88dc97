"""Auxiliary linear profiles, sector spectra, the non-degeneracy report."""

import math

import numpy as np
import pytest

from bn6.auxiliary import (
    build_profiles,
    essential_nondegeneracy,
    solve_v,
    survey_concentration_points,
    w_eta,
)
from bn6.errors import NotConvergedError
from bn6.grid import make_grid
from bn6.operators import OperatorSpec, _Assembled, sector_eigenvalues, weak_apply
from bn6.shooting import shoot

V0_FROZEN = -3.2284188994808511
W0_FROZEN = 0.10573771048525127
WETA0_FROZEN = 83.774246440155977
MIN_GAP_FROZEN = 4.1104750029379069
HESSIAN_FROZEN = -378.64560638396387


def test_profile_structure(profiles):
    assert profiles.dimension == 6
    assert profiles.amplitude == pytest.approx(profiles.lam0 / 2.0, abs=1e-8)
    assert profiles.u0.values[0] == pytest.approx(profiles.amplitude,
                                                  rel=1e-12)
    assert np.all(profiles.u0.values[:-1] > 0.0)
    # the boundary value inherits the shooting residual of u_0, nothing more
    assert abs(profiles.u0.values[-1]) < 1e-12
    assert profiles.v.values[-1] == 0.0
    assert profiles.w.values[-1] == 0.0
    assert profiles.v0 == pytest.approx(V0_FROZEN, rel=1e-8)
    assert profiles.w0 == pytest.approx(W0_FROZEN, rel=1e-7)


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
    u0 = shoot(6, certificate.lam0, certificate.amplitude,
               grid=make_grid(6, n)).profile
    solve_v(u0, certificate.lam0)
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
        solve_v(u0, certificate.lam0)


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


def test_w_eta_residual_convergence_order(certificate):
    # second-order scheme: residuals drop ~4x per refinement until the
    # finest grid touches the trajectory-precision floor, so the order is
    # measured on the pre-floor ladder
    eta = np.zeros(6)
    eta[1] = 0.45
    res0, res1 = [], []
    for n in (512, 1024, 2048):
        prof = build_profiles(6, certificate, grid_n=n)
        dec = w_eta(prof, eta)
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
    spec = np.vstack([sector_eigenvalues(profiles.grid, l, 3, potential=q)
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
    rep = essential_nondegeneracy(profiles, coarse_v0=profiles_coarse.v0)
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

    d = rep.as_dict()
    assert d["lambda0"] == rep.lam0
    assert d["min_gap"] == rep.min_gap
    assert d["cutoff_certified"] is True
