"""Concentration bubbles on R^6, their exact ball integrals, and constants.

The extremal profile of the critical Sobolev embedding at N = 6 is

    U_mu(x) = alpha_6 mu^2 / (mu^2 + |x|^2)^2,   alpha_6 = [N(N-2)]^{(N-2)/4} = 24,

which solves -Delta U = U^2 on all of R^6.  Centered at the origin its
projection to H^1_0(B_1) is exact: the harmonic correction is the
constant boundary trace, so

    W_mu = U_mu - c(mu),   c(mu) = U_mu(1) = 24 mu^2 / (1 + mu^2)^2,

satisfies -Delta W = U^2 with W(1) = 0.

Every ball integral of a power of U reduces, via t = r^2 and u = mu^2 + t,
to an exact rational/log antiderivative; those closed forms are what the
energy expansion consumes, since they carry the mu^2 log mu cancellations
that quadrature would have to resolve numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import sphere_area

ALPHA6 = 24.0
N6 = 6
# d1_quadrature's rule: D1_PANELS geometric panels on [1/64, D1_CUTOFF]
# and the analytic tail beyond D1_CUTOFF
D1_PANELS = 40
D1_CUTOFF = 50.0


# The GAUSS_ORDER-point Gauss-Legendre rule on [-1, 1], rows (nodes
# ascending, weights), of d1_quadrature and the reduction's panel
# quadrature; read-only, since every caller shares it.  The literals are
# numpy.polynomial.legendre.leggauss(12)'s positive half to the bit, and
# the negative half mirrors them as leggauss symmetrises its rule (nodes
# exactly antisymmetric, weights exactly symmetric), so building the rule
# takes no eigensolve and no BLAS call.
GAUSS_ORDER = 12
_HALF = np.array([[float.fromhex(h) for h in row] for row in (
    ("0x1.007a5f8f630e4p-3", "0x1.78a8d20a8b19dp-2", "0x1.2cb4f05c077f9p-1",
     "0x1.8a30aeed88f36p-1", "0x1.cee874ffb88b3p-1", "0x1.f68f1d8e42e81p-1"),
    ("0x1.fe40ce6d4f022p-3", "0x1.de3155c256aaep-3", "0x1.a0163e6b1ab6bp-3",
     "0x1.47d7258f22d96p-3", "0x1.b60602bce61afp-4", "0x1.8275d9dea6d53p-5"))])
GAUSS_LEGENDRE = np.concatenate((_HALF[:, ::-1] * [[-1.0], [1.0]], _HALF), 1)
GAUSS_LEGENDRE.flags.writeable = False


def talenti_u(r, mu: float):
    """The bubble U_mu(r) = 24 mu^2 / (mu^2 + r^2)^2."""
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    return ALPHA6 * mu ** 2 / (mu ** 2 + np.asarray(r, dtype=float) ** 2) ** 2


def talenti_du(r, mu: float):
    """Radial derivative of talenti_u, -96 r mu^2 / (mu^2 + r^2)^3."""
    r = np.asarray(r, dtype=float)
    return -4.0 * r * ALPHA6 * mu ** 2 / (mu ** 2 + r ** 2) ** 3


def boundary_trace(mu: float) -> float:
    """c(mu) = U_mu(1), the constant harmonic extension on the ball."""
    return ALPHA6 * mu ** 2 / (1.0 + mu ** 2) ** 2


# ---------------------------------------------------------------------------
# exact ball integrals of bubble powers (N = 6)
#
# with t = r^2, u = m + t, m = mu^2:  int_0^1 f(r) r^5 dr = (1/2) int_m^{m+1}
# f (u - m)^2 du, and (u - m)^2 / u^k expands into three monomials.

def _f2(u: float, m: float) -> float:
    # antiderivative of (u-m)^2 / u^2
    return u - 2.0 * m * math.log(u) - m ** 2 / u


def _f4(u: float, m: float) -> float:
    # antiderivative of (u-m)^2 / u^4
    return -1.0 / u + m / u ** 2 - m ** 2 / (3.0 * u ** 3)


def _f6(u: float, m: float) -> float:
    # antiderivative of (u-m)^2 / u^6
    return -1.0 / (3.0 * u ** 3) + m / (2.0 * u ** 4) - m ** 2 / (5.0 * u ** 5)


def ball_integral_u(mu: float) -> float:
    """int_{B_1} U_mu dx, exact."""
    m = mu ** 2
    val = _f2(m + 1.0, m) - (-2.0 * m * math.log(m))
    return sphere_area(N6) * ALPHA6 * m / 2.0 * val


def ball_integral_u2(mu: float) -> float:
    """int_{B_1} U_mu^2 dx, exact; tends to 96 pi^3 mu^2 as mu -> 0."""
    m = mu ** 2
    val = _f4(m + 1.0, m) - (-1.0 / (3.0 * m))
    return sphere_area(N6) * ALPHA6 ** 2 * m ** 2 / 2.0 * val


def ball_integral_u3(mu: float) -> float:
    """int_{B_1} U_mu^3 dx, exact; tends to 24^3 pi^3 / 60."""
    m = mu ** 2
    val = _f6(m + 1.0, m) - (-1.0 / (30.0 * m ** 3))
    return sphere_area(N6) * ALPHA6 ** 3 * m ** 3 / 2.0 * val


def d1_closed_form() -> float:
    """||U_mu||^2_{L^2(R^6)} / mu^2 = 96 pi^3."""
    return 96.0 * math.pi ** 3


def d1_quadrature() -> float:
    """Same constant by quadrature on [0, R] plus the analytic r^{-8} tail
    of U^2 = 24^2 mu^4 r^{-8} (1 + O(mu^2/r^2)) at mu = 1, R = D1_CUTOFF.

    [0, R] is cut into D1_PANELS geometric panels from 1/64 to R, plus
    [0, 1/64], each integrated by the rule GAUSS_LEGENDRE."""
    R = D1_CUTOFF
    edges = np.concatenate(([0.0], np.geomspace(1.0 / 64.0, R,
                                                D1_PANELS + 1)))
    x, w = GAUSS_LEGENDRE
    half = 0.5 * np.diff(edges)[:, None]
    r = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * x).ravel()
    head = float(np.dot(talenti_u(r, 1.0) ** 2 * r ** 5, (half * w).ravel()))
    # exact tail: int_R^inf 24^2 r^5 (1+r^2)^{-4} dr with u = 1 + r^2
    m = 1.0
    tail = ALPHA6 ** 2 * m ** 2 / 2.0 * (0.0 - _f4(m + R ** 2, m))
    return sphere_area(N6) * (head + tail)


def d2_value(u_center: float) -> float:
    """d_2 = alpha_6^{3/2} omega_6 |u(xi_0)|^{3/2}; ValueError if not finite."""
    try:
        d2 = ALPHA6 ** 1.5 * sphere_area(N6) * abs(u_center) ** 1.5
    except OverflowError:
        d2 = math.inf
    if not math.isfinite(d2):
        raise ValueError(f"d_2 is not finite at u_center = {u_center!r}")
    return d2


@dataclass(frozen=True)
class ConstantsRegistry:
    """The expansion constants with both computation routes recorded."""

    alpha6: float
    omega6: float
    d1: float
    d1_quadrature: float
    d2: float
    u_center: float
    d2_formula: str = "alpha6^(3/2) * omega6 * |u(center)|^(3/2)"


def constants(u_center: float) -> ConstantsRegistry:
    """Registry of expansion constants for a ground state with the given
    center value (lam_0 / 2 at the self-consistent parameter)."""
    return ConstantsRegistry(
        alpha6=ALPHA6,
        omega6=sphere_area(N6),
        d1=d1_closed_form(),
        d1_quadrature=d1_quadrature(),
        d2=d2_value(u_center),
        u_center=float(u_center),
    )
