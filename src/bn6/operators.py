"""Radial sector operators on the unit ball and their linear algebra.

The Laplacian on B_1 restricted to the angular sector l (spherical
harmonic degree l) acts on radial profiles as

    (-Delta_l u)(r) = -u'' - (N-1)/r u' + l(l+N-2)/r^2 u .

The discrete form is the symmetric tridiagonal matrix obtained from
piecewise-linear elements with every coefficient moment int r^p dr
integrated exactly and the mass lumped onto the nodes; the lumped masses
coincide with the grid quadrature weights, so discrete duality
<L u, v> = <u, L v> holds to machine precision.  For l = 0 the origin
node carries the natural zero-flux (even parity) closure; for l >= 1
the profile vanishes at r = 0.  A Dirichlet condition u(1) = 0 is
imposed at the outer boundary throughout.

Operators of interest have the shifted Schroedinger form
L = -Delta_l - lam - q(r).  `_Assembled.nearest` is the one Sturm bracket
of lam: the Dirichlet eigenvalues of -Delta_l - q (lumped-mass inner
product) up to the first above lam, found by Sturm-count bisection
(LAPACK stebz) on the symmetric pencil, never the full spectrum, once
per operator and lam.  Its distance to lam (`min_singular_value`) guards
the Dirichlet solves and gives the sector gaps of the non-degeneracy
report; its first entry is the lowest eigenvalue.  `dirichlet_solver`
guards and factorizes an operator once for any number of solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearSingularError, NotConvergedError
from .grid import RadialFn, RadialGrid, hat_moments, make_grid
from .lapack import dgttrf, dgttrs, dstebz

NEAR_SINGULAR_RTOL = 1e-8
# Largest normwise backward error of a Dirichlet solve: 16u (u = eps/2).
# The LU is backward stable and the computed residual adds a few u, so
# solves stay below 1.4u; a relative error of 1e-13 in x gives ~50u.
BACKWARD_ERROR_TOL = 8 * np.finfo(float).eps
# absolute bisection tolerance of the Sturm-count eigensolves: twice the
# safe minimum, LAPACK stebz's most accurate setting
STURM_TOL = 2 * np.finfo(float).tiny


def eigvalsh_tridiagonal(d, e, select: str, select_range,
                         tol: float = 0.0) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e: those in (lo, hi] for select "v",
    those of 0-based index lo..hi for select "i" (lo, hi = select_range,
    lo <= hi, n >= 2).

    scipy.linalg.eigvalsh_tridiagonal's stebz call, to the bit.  An empty
    value interval lo = hi raises stebz's ValueError, as scipy does; a
    bisection that fails to converge raises NotConvergedError.
    """
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    lo, hi = select_range
    # stebz's RANGE, VL, VU, IL, IU
    if select == "v":
        window = (1, lo, hi, 1, 1)
    else:
        window = (2, 0.0, 1.0, lo + 1, hi + 1)  # Fortran indices, from 1
    m, w, _, _, info = dstebz(d, e, *window, float(tol), "E")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal "
                         f"stebz (eigh_tridiagonal)")
    if info > 0:
        raise NotConvergedError(f"stebz (eigh_tridiagonal) did not converge "
                                f"(LAPACK info={info})")
    return w[:m]


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """Spec for L = -Delta_l - lam - q on a grid.

    potential is None (q = 0) or the array of q at the grid nodes.
    """

    grid: RadialGrid
    sector: int = 0
    lam: float = 0.0
    potential: np.ndarray | None = None

    def __post_init__(self):
        if self.sector < 0:
            raise ValueError(f"sector must be >= 0, got {self.sector}")
        q = self.potential
        if q is not None and len(q) != len(self.grid.nodes):
            raise ValueError("potential array must match grid length")

    def potential_values(self) -> np.ndarray:
        if self.potential is None:
            return np.zeros(len(self.grid.nodes))
        return np.asarray(self.potential, dtype=float)


class _Assembled:
    """Tridiagonal form of -Delta_l - q restricted to the unknown nodes.

    Unknowns are nodes istart..n-1 (istart = 0 for sector 0, else 1);
    node n is the Dirichlet boundary.  diag/upper/lower describe the
    stiffness-plus-centrifugal-minus-potential matrix A0 with
    A0 u = nu M u the lumped eigenproblem; masses is diag(M).
    """

    def __init__(self, op: OperatorSpec):
        grid = op.grid
        nodes = grid.nodes
        ncells = grid.n_cells
        N = grid.dimension
        l = op.sector
        # exact FEM stiffness couplings k_i = int_cell r^{N-1} dr / h^2
        cell_m0 = (nodes[1:] ** N - nodes[:-1] ** N) / N
        h = np.diff(nodes)
        k = cell_m0 / h ** 2
        masses_full = grid.cell_masses()
        cent_full = l * (l + N - 2) * hat_moments(nodes, N - 3)
        qvals = op.potential_values()

        istart = 0 if l == 0 else 1
        idx = np.arange(istart, ncells)  # unknown node indices
        k_left = np.concatenate(([0.0], k))    # stiffness of the cell left of node i
        k_right = np.concatenate((k, [0.0]))   # and right of node i
        diag_full = k_left + k_right + cent_full - masses_full * qvals

        self.op = op
        self.idx = idx
        self.diag = diag_full[idx]
        # coupling between unknown nodes i and i+1 is the stiffness of cell i
        self.upper = -k[idx[:-1]]
        self.masses = masses_full[idx]
        sm = np.sqrt(self.masses)
        self._pencil = (self.diag / self.masses, self.upper / (sm[:-1] * sm[1:]))
        self._brackets = {}

    def shifted(self, lam: float):
        """diag/upper of A0 - lam M."""
        return self.diag - lam * self.masses, self.upper

    def pencil(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the symmetric form M^{-1/2} A0 M^{-1/2}."""
        return self._pencil

    def eigenvalues(self, count: int) -> np.ndarray:
        """Lowest `count` eigenvalues of A0 z = nu M z."""
        d, e = self.pencil()
        count = min(count, len(d))
        return eigvalsh_tridiagonal(d, e, select="i", select_range=(0, count - 1))

    def factor(self, lam: float):
        """LU factor of A0 - lam M; returns a solve closure, raising
        NearSingularError when the factorization hits an exact zero pivot.

        The system is Jacobi-equilibrated first: near r = 0 the stiffness
        entries scale like h^{N-2} x h^2 and an unscaled elimination lets
        roundoff excite the singular homogeneous mode r^{2-N}.
        """
        d, u = self.shifted(lam)
        s = 1.0 / np.sqrt(np.maximum(np.abs(d), 1e-300))
        ds = d * s * s
        us = u * s[:-1] * s[1:]
        fact = dgttrf(us, ds, us)
        if fact[-1] > 0:
            raise NearSingularError(
                f"zero pivot in sector {self.op.sector} factorization at lam={lam}")
        dlf, df, duf, du2f, ipiv, _ = fact

        def solve(rhs: np.ndarray) -> np.ndarray:
            x, info = dgttrs(dlf, df, duf, du2f, ipiv, s * rhs)
            if info != 0:
                raise NearSingularError("tridiagonal back-substitution failed")
            return s * x

        return solve

    def nearest(self, lam: float) -> np.ndarray:
        """The pencil's eigenvalues up to the first above lam, ascending,
        by Sturm bisection at STURM_TOL, once per lam: those in the window
        (below the Gershgorin bound, lam], whose number k is the Sturm count
        of A0 - lam M, then eigenvalue k.  The window's lower end stays
        strictly below lam, since stebz rejects an empty interval."""
        if lam not in self._brackets:
            window = (min(-self.scale(), lam) - 1.0, lam)
            below = eigvalsh_tridiagonal(*self._pencil, "v", window, STURM_TOL)
            k = len(below)
            above = below[:0] if k == len(self.diag) else eigvalsh_tridiagonal(
                *self._pencil, "i", (k, k), STURM_TOL)
            self._brackets[lam] = np.concatenate((below, above))
        return self._brackets[lam]

    def min_singular(self, lam: float) -> float:
        """Distance from lam to the pencil spectrum (`nearest`)."""
        return float(np.min(np.abs(self.nearest(lam) - lam)))

    def scale(self) -> float:
        """Gershgorin-type magnitude of the pencil, for singularity thresholds."""
        d, e = self._pencil
        e = np.abs(e)
        rad = np.abs(d)
        rad[:-1] += e
        rad[1:] += e
        return float(np.max(rad))


def assemble(op: OperatorSpec) -> _Assembled:
    return _Assembled(op)


def dirichlet_solver(asm: _Assembled):
    """Guard and factorize L = asm.op once; returns solve(g), the solution
    of L u = g with u(1) = 0 (and the sector origin condition).  Raises
    NearSingularError when lam sits within NEAR_SINGULAR_RTOL x scale of
    the sector spectrum.  Each solve raises ValueError for g on another
    grid, and NotConvergedError when the normwise backward error
    ||b - A x|| / (||A|| ||x|| + ||b||) (infinity norms; Rigal and Gaches)
    exceeds BACKWARD_ERROR_TOL, which, unlike a relative residual, does not
    grow with the conditioning of the grid."""
    op = asm.op
    sigma = asm.min_singular(op.lam)
    if sigma < NEAR_SINGULAR_RTOL * asm.scale():
        raise NearSingularError(
            f"sector {op.sector}: lam={op.lam} within {sigma:.3e} of spectrum")
    factored = asm.factor(op.lam)
    d, u = asm.shifted(op.lam)
    anorm = np.max(np.abs(d) + np.append(np.abs(u), 0.0) + np.append(0.0, np.abs(u)))

    def solve(g: RadialFn) -> RadialFn:
        if g.grid is not op.grid:
            raise ValueError("rhs grid does not match operator grid")
        rhs = asm.masses * g.values[asm.idx]
        x = factored(rhs)
        res = d * x
        res[:-1] += u * x[1:]
        res[1:] += u * x[:-1]
        res -= rhs
        rnorm = np.max(np.abs(res))
        bound = anorm * np.max(np.abs(x)) + np.max(np.abs(rhs))
        if not rnorm <= BACKWARD_ERROR_TOL * bound:
            raise NotConvergedError(f"linear solve backward error {rnorm / bound:.3e}")
        full = np.zeros(len(op.grid.nodes))
        full[asm.idx] = x
        return RadialFn.from_values(op.grid, full, regular_origin=(op.sector == 0))

    return solve


def solve_dirichlet(op: OperatorSpec, g: RadialFn) -> RadialFn:
    """Solve L u = g once (`dirichlet_solver`)."""
    return dirichlet_solver(assemble(op))(g)


def min_singular_value(op: OperatorSpec) -> float:
    """Distance from lam to the sector spectrum of -Delta_l - q."""
    return assemble(op).min_singular(op.lam)


def dirichlet_eigenvalue(dimension: int, index: int = 1,
                         n: int = 2048) -> float:
    """Radial Dirichlet eigenvalue of -Delta on B_1, Richardson-extrapolated
    from grids with n and 2n cells."""
    if index < 1:
        raise ValueError(f"index must be >= 1, got {index}")
    coarse, fine = (assemble(OperatorSpec(make_grid(dimension, cells)))
                    .eigenvalues(index)[index - 1] for cells in (n, 2 * n))
    return float((4.0 * fine - coarse) / 3.0)
