"""Radial grids and weighted quadrature on the unit ball.

A function on the unit ball B_1 of R^N that depends only on r = |x|
reduces every volume integral to a weighted 1-D integral,

    integral_{B_1} f dx = omega_N * integral_0^1 f(r) r^{N-1} dr,

where omega_N = 2 pi^{N/2} / Gamma(N/2) is the surface area of the unit
sphere S^{N-1}.  A grid is a node set 0 = r_0 < r_1 < ... < r_n = 1.
Quadrature is the product trapezoid rule: the integrand is interpolated
linearly on each cell while the moment r^{N-1} dr is integrated exactly,
so constants integrate to |B_1| at machine precision and smooth
integrands converge at second order.  The grids are uniform, or, for a
profile concentrating at a scale << 1, uniform with a graded core at the
origin (make_core_grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_CELLS = 16
# make_core_grid's fine zone reaches CORE_EXTENT scales from the origin,
# and its cells then grow by CORE_GROWTH per cell up to h_max
CORE_EXTENT = 10.0
CORE_GROWTH = 1.06


def sphere_area(dimension: int) -> float:
    """Surface area omega_N of the unit sphere S^{N-1} in R^N."""
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


def ball_volume(dimension: int) -> float:
    """Volume of the unit ball B_1 in R^N, equal to omega_N / N."""
    return sphere_area(dimension) / dimension


def hat_moments(nodes: np.ndarray, p: int) -> np.ndarray:
    """Exact per-node moments int phi_i(r) r^p dr of the linear hats.

    With p = N - 1 these are the lumped masses, and sum_i w_i f(r_i) is
    int_0^1 f r^{N-1} dr exactly for piecewise-linear f.  On the cell
    [a, b] of width h the hats are (b - r)/h and (r - a)/h, so the left
    node gets (b m0 - m1)/h and the right node (m1 - a m0)/h, with
    m0 = int_a^b r^p dr and m1 = int_a^b r^{p+1} dr.
    """
    a, b = nodes[:-1], nodes[1:]
    m0 = np.diff(nodes ** (p + 1)) / (p + 1)
    m1 = np.diff(nodes ** (p + 2)) / (p + 2)
    h = b - a
    out = np.zeros(len(nodes))
    out[:-1] += (b * m0 - m1) / h
    out[1:] += (m1 - a * m0) / h
    return out


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Node set on [0, R] with exact product-trapezoid weights.

    The constructors in this module build unit-ball grids (R = 1); no
    command builds another (rescale_grid's copies serve tests only).

    Attributes
    ----------
    dimension : int
        Ambient dimension N >= 3.
    nodes : ndarray
        Strictly increasing, nodes[0] == 0.0.
    quad_weights : ndarray
        Weights including the omega_N factor; quad_weights @ f approximates
        the volume integral of the radial function f over the ball B_R.
    """

    dimension: int
    nodes: np.ndarray
    quad_weights: np.ndarray

    @property
    def n_cells(self) -> int:
        return len(self.nodes) - 1

    def cell_masses(self) -> np.ndarray:
        """Lumped masses m_i = int r^{N-1} phi_i dr (no omega_N factor)."""
        return self.quad_weights / sphere_area(self.dimension)


def _validate_nodes(nodes: np.ndarray) -> None:
    if len(nodes) < MIN_CELLS + 1:
        raise ValueError(f"grid needs at least {MIN_CELLS} cells, got {len(nodes) - 1}")
    if nodes[0] != 0.0:
        raise ValueError("grid must start at r = 0")
    if np.any(np.diff(nodes) <= 0.0):
        raise ValueError("grid nodes must be strictly increasing")


def _finish(dimension: int, nodes: np.ndarray) -> RadialGrid:
    if dimension < 3:
        raise ValueError(f"dimension must be >= 3, got {dimension}")
    nodes = np.asarray(nodes, dtype=float)
    _validate_nodes(nodes)
    w = sphere_area(dimension) * hat_moments(nodes, dimension - 1)
    return RadialGrid(dimension, nodes, w)


def make_grid(dimension: int, n: int) -> RadialGrid:
    """Build a uniform grid with n cells."""
    if n < MIN_CELLS:
        raise ValueError(f"n must be >= {MIN_CELLS}, got {n}")
    return _finish(dimension, np.linspace(0.0, 1.0, n + 1))


def make_core_grid(dimension: int, scale: float, h_over_scale: float = 1.0 / 50.0,
                   h_max: float = 1.0 / 512.0) -> RadialGrid:
    """Three-zone grid for profiles concentrating at scale << 1.

    Uniform spacing scale*h_over_scale out to CORE_EXTENT*scale, geometric
    growth by CORE_GROWTH until the spacing reaches h_max, then uniform
    h_max to r = 1 (last zone adjusted to land on 1 exactly).  Intended
    for profiles where both the core at r ~ scale and the outer region
    need second-order resolution.
    """
    if not 0.0 < scale < 0.5:
        raise ValueError(f"scale must be in (0, 0.5), got {scale}")
    h0 = scale * h_over_scale
    if h0 >= h_max:
        # concentration scale coarse enough that a uniform grid suffices
        n = max(MIN_CELLS, int(math.ceil(1.0 / h_max)))
        return make_grid(dimension, n)
    widths = [h0] * int(math.ceil(CORE_EXTENT * scale / h0))
    pos = h0 * len(widths)
    h = h0
    while pos < 1.0 and h * CORE_GROWTH < h_max:
        h *= CORE_GROWTH
        widths.append(h)
        pos += h
    if pos < 1.0:
        n_out = int(math.ceil((1.0 - pos) / h_max))
        widths.extend([(1.0 - pos) / n_out] * n_out)
    nodes = np.concatenate(([0.0], np.cumsum(widths)))
    # trim any overshoot from the geometric zone ending past 1
    nodes = nodes[nodes < 1.0 - 1e-12]
    nodes = np.append(nodes, 1.0)
    return _finish(dimension, nodes)


def rescale_grid(grid: RadialGrid, factor: float) -> RadialGrid:
    """Dilated copy of the grid, nodes r -> factor * r, weights times
    factor^N.  No command calls it: it serves the Newton refinement of
    the test oracles, and the benchmark's tracer names it."""
    if factor <= 0.0:
        raise ValueError(f"factor must be positive, got {factor}")
    return RadialGrid(grid.dimension, grid.nodes * factor,
                      grid.quad_weights * factor ** grid.dimension)


def differentiate(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-order finite-difference derivative on a nonuniform grid."""
    x = np.asarray(nodes, dtype=float)
    u = np.asarray(values, dtype=float)
    d = np.empty_like(u)
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    d[1:-1] = (u[2:] * h1 ** 2 - u[:-2] * h2 ** 2 + u[1:-1] * (h2 ** 2 - h1 ** 2)) \
        / (h1 * h2 * (h1 + h2))
    ha, hb = x[1] - x[0], x[2] - x[1]
    d[0] = (-u[0] * (2 * ha + hb) / (ha * (ha + hb))
            + u[1] * (ha + hb) / (ha * hb)
            - u[2] * ha / (hb * (ha + hb)))
    ha, hb = x[-2] - x[-3], x[-1] - x[-2]
    d[-1] = (u[-3] * hb / (ha * (ha + hb))
             - u[-2] * (ha + hb) / (ha * hb)
             + u[-1] * (2 * hb + ha) / (hb * (ha + hb)))
    return d


@dataclass(frozen=True, eq=False)
class RadialFn:
    """Radial function sampled on a grid, with derivative samples.

    regular_origin marks the even (l = 0) parity class with u'(0) = 0;
    profiles in angular sectors l >= 1 vanish at the origin instead.
    """

    grid: RadialGrid
    values: np.ndarray
    derivative: np.ndarray
    regular_origin: bool = True

    def __post_init__(self):
        n = len(self.grid.nodes)
        if len(self.values) != n or len(self.derivative) != n:
            raise ValueError("value and derivative arrays must match grid length")

    @classmethod
    def from_values(cls, grid: RadialGrid, values: np.ndarray,
                    regular_origin: bool = True) -> "RadialFn":
        """The samples with derivative by `differentiate`, zero at the
        origin when regular_origin."""
        values = np.asarray(values, dtype=float)
        derivative = differentiate(grid.nodes, values)
        if regular_origin:
            derivative[0] = 0.0
        return cls(grid, values, derivative, regular_origin)
