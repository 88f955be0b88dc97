"""Shooting and matching for the critical radial problem.

Radial solutions of

    -Delta u = lam u + |u|^{p-1} u  on B_1,   u(1) = 0,
    p = (N+2)/(N-2) the critical exponent,

solve the initial value problem

    u'' + (N-1)/r u' + lam u + |u|^{p-1} u = 0,  u(0) = a, u'(0) = 0,

and the branch with m nodal regions is the amplitude a at which the m-th
zero of the trajectory sits exactly at r = 1.  The m-th zero position is
strictly decreasing in lam (Sturm comparison) and, along the branches of
interest, decreasing in a; both one-dimensional matchings are therefore
bracketed root problems.

The distinguished value lam_0 solves the scalar equation

    2 u_lam(0) = lam

along the one-region (positive) branch: the solution whose doubled
maximum equals its own linear parameter.  No search is needed for it.
The critical dilation u(r) = a phi(a^{2/(N-2)} r) maps the trajectory
with parameters (lam, a) onto the one with phi(0) = 1 and
mu = lam a^{-4/(N-2)}, so its m-th zero is z_m(lam, a) =
Z_m(mu) a^{-2/(N-2)}.  At N = 6 that reads mu = lam / a, the relation
2 u(0) = lam becomes mu = 2, and matching Z_1(2) a^{-1/2} = 1 gives

    lam_0 = 2 Z_1(2)^2

from a single IVP.  The certificate checks it in the original variables
by one Newton step of u(1) = 0 in the amplitude from a = lam_0/2
(find_lambda0).

Every IVP runs on this module's own DOP853 loop, `solve_ivp`: Hairer's
dop853 tableau with scipy's step control and event location,
bit-identical to scipy.integrate.solve_ivp(method="DOP853") on the same
host at about a third of its cost per IVP.  Its dense output is built
only when a profile is sampled, for every step at once: `_coefficients`
forms the interpolant coefficients of a list of steps as one stacked
array, and `_DenseOutput` evaluates them at all sample points in one
Horner pass.  The stage, solution and error sums stay
numpy's BLAS dots on the same arrays: OpenBLAS fuses multiply-adds that
no Python float sum reproduces, and a pure-float DOP853 moved the N = 4,
m = 2 branch tail by up to 9.996e-9 relative (its matched lambda sits
in the IVP's noise band).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import roots
from .errors import (
    BlowUpBeforeOneError,
    NearSingularError,
    NoSignChangeError,
    NotConvergedError,
    RadialModeViolationError,
)
from .grid import RadialFn, RadialGrid, make_core_grid, make_grid
from .roots import brentq

RTOL = 1e-10
ATOL = 1e-12
BLOWUP_FACTOR = 4.0
SIGN_TOL = 1e-10  # |u| below SIGN_TOL * ||u||_inf counts as zero
# shoot_to_zero stops at the m-th zero or at R_MAX, far beyond r = 1
R_MAX = 10.0
# the amplitudes solve_bvp scans for a matching sign change
AMP_BRACKET = (1e-2, 1e8)
# find_lambda0 refuses |psi(1)| < PSI_FLOOR and gap > GAP_BOUND.  u(1)'s
# IVP error, 1.2e-11 (against rtol 1e-13), over |psi(1)| >= PSI_FLOOR moves
# gap by at most 2.4e-9.  GAP_BOUND is the tests' and the benchmark's
# bound; lam_0 reads 2.6e-10, lam_0 + 1e-6 7.5e-6.
PSI_FLOOR = 1e-2
GAP_BOUND = 1e-8


def critical_exponent(dimension: int) -> float:
    return (dimension + 2.0) / (dimension - 2.0)


def _series(dimension: int, lam: float, a: float, p: float):
    """Coefficients (c, d) of the regular series u = a + c r^2 + d r^4:
    orders r^0 and r^2 of the equation give c = -(lam a + f(a)) / (2N)
    and d = -(lam + f'(a)) c / (4 (N + 2)), with f(a) = |a|^(p-1) a and
    f'(a) = p |a|^(p-1).  On Python floats, with the operations of the
    numpy forms of f and f' in the same order."""
    lam, a = float(lam), float(a)
    power = abs(a) ** (p - 1.0)
    c = -(lam * a + power * a) / (2.0 * dimension)
    d = -(lam + p * power) * c / (4.0 * (dimension + 2.0))
    return c, d


def _series_start(dimension: int, lam: float, a: float, p: float):
    """Start point (r0, u, u') on the regular series (`_series`), with r0
    so small that the neglected r^6 term is far below the IVP tolerance.
    A start that is not finite raises ValueError naming lam and a."""
    try:
        c, d = _series(dimension, lam, a, p)
    except OverflowError:  # |a|^(p-1) is not a float
        c = d = math.nan
    scale = math.sqrt(abs(a) / max(abs(c), 1e-300))
    r0 = max(min(1e-3, 0.01 * scale), 1e-250)
    u0 = a + c * r0 ** 2 + d * r0 ** 4
    u1 = 2.0 * c * r0 + 4.0 * d * r0 ** 3
    if not (math.isfinite(u0) and math.isfinite(u1)):
        raise ValueError(f"the regular series start is not finite at "
                         f"lam={float(lam)!r}, a={float(a)!r}")
    return r0, u0, u1


def _make_rhs(dimension: int, lam: float, p: float):
    """Right-hand side of the first-order system, on Python floats: the
    operations of the numpy form |u|^(p-1) u in the same order, so the
    value is bit-identical and the per-step cost of numpy scalars is
    avoided."""
    nm1 = dimension - 1.0
    q = p - 1.0

    def rhs(r, u, du):
        return du, -nm1 / r * du - lam * u - abs(u) ** q * u

    return rhs


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10): the literals
# of Hairer's dop853.f as scipy/integrate/_ivp/dop853_coefficients.py
# (BSD) writes them, in its layout: the 12 stages, the FSAL row (the
# weights B) and the interpolant's 3 extra stages share one 16 x 16
# array, and E3 is B minus literals, so every array is scipy's to the bit.
_STAGES = 12
_EXTENDED = 16


def _sparse(shape, rows):
    table = np.zeros(shape)
    for i, row in rows.items():
        for j, value in row.items():
            table[i, j] = value
    return table


_A_EXT = _sparse((_EXTENDED, _EXTENDED), {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2,
        3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1,
         3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654,
         5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1,
         7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762,
         9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449,
         3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444,
         5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1,
         7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258,
         9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2,
         5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044,
         7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1,
         9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1,
         11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2,
         6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1,
         8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1,
         10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3,
         12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2,
         5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2,
         7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4,
         11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4,
         13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1,
         5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878,
         7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1,
         12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149,
         14: -9.15095847217987001081870187138},
})
_C_EXT = np.array([0.0, 0.526001519587677318785587544488e-01,
                   0.789002279381515978178381316732e-01,
                   0.118350341907227396726757197510,
                   0.281649658092772603273242802490,
                   0.333333333333333333333333333333, 0.25,
                   0.307692307692307692307692307692,
                   0.651282051282051282051282051282, 0.6,
                   0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
                   0.777777777777777777777777777778])
_A, _C = _A_EXT[:_STAGES, :_STAGES], _C_EXT[:_STAGES]
_A_EXTRA, _C_EXTRA = _A_EXT[_STAGES + 1:], _C_EXT[_STAGES + 1:]
_B = _A_EXT[_STAGES, :_STAGES]
_E3 = np.zeros(_STAGES + 1)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = np.array([0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
                -0.1225156446376204440720569753e+1,
                -0.4957589496572501915214079952,
                0.1664377182454986536961530415e+1,
                -0.3503288487499736816886487290,
                0.3341791187130174790297318841,
                0.8192320648511571246570742613e-1,
                -0.2235530786388629525884427845e-1, 0.0])
# the last 4 rows of the interpolant's coefficients F (`_coefficients`
# forms the first 3 from the step's end points and derivatives)
_D = _sparse((4, _EXTENDED), {
    0: {0: -0.84289382761090128651353491142e+1,
        5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1,
        7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1,
        9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1,
        11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1,
        13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1,
        15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2,
        5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3,
        7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2,
        9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2,
        11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2,
        13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1,
        15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2,
        5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3,
        7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2,
        9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1,
        11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1,
        13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2,
        15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2,
        5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3,
        7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2,
        9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3,
        11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2,
        13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2,
        15: -0.14972683625798562581422125276e+3},
})
_STAGE_ROWS = tuple((s, _A[s, :s], float(_C[s])) for s in range(1, _STAGES))
_EXTRA_ROWS = tuple((s, _A_EXTRA[i, :s], float(_C_EXTRA[i]))
                    for i, s in enumerate(range(_STAGES + 1, _EXTENDED)))
# scipy's step control; error_estimator_order 7 gives the exponent -1/8
_ERROR_EXPONENT = -1.0 / 8.0
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EVENT_TOL = roots.RTOL_MIN  # solve_ivp locates events at 4 eps


class _DenseOutput:
    """DOP853's degree-7 interpolants of a list of accepted steps (tuples
    r_old, r_new, y_old, y_new, K as `solve_ivp` keeps them) with their
    coefficients F, one (steps, 7, 2) array, evaluated with scipy's
    elementwise operations in scipy's order.  A sample point belongs to
    the step whose breakpoint interval rs[k] < r <= rs[k + 1] holds it,
    points outside rs to the end steps: scipy's OdeSolution rule.  The
    steps' r_old, h and y_old arrays of __call__ and, for at, each step's
    end points, y_old and reversed coefficient rows as Python floats are
    built once, here."""

    def __init__(self, rs, steps, F):
        self.rs = rs
        self.F = F
        r_old, r_new, y_old, _, _ = zip(*steps)
        self.r_old = np.array(r_old)
        self.h = np.array(r_new) - self.r_old
        self.y_old = np.array(y_old)
        self._rows = list(zip(r_old, r_new, y_old,
                              F[:, ::-1].transpose(0, 2, 1).tolist()))

    def __call__(self, r):
        """(u, u') at the array of points r, one Horner row at a time."""
        k = np.searchsorted(self.rs, r, side="left") - 1
        np.clip(k, 0, len(self.h) - 1, out=k)
        x = ((r - self.r_old[k]) / self.h[k])[:, None]
        y = np.zeros((len(r), 2))
        # scipy's reversed(F): rows 6, 4, 2, 0 multiply by x, the odd by 1 - x
        for i in range(self.F.shape[1] - 1, -1, -1):
            y += self.F[k, i]
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old[k]
        return y.T

    def at(self, k: int, r: float, j: int) -> float:
        """Component j (0 for u, 1 for u') of step k's interpolant at the
        point r, on Python floats: the same IEEE operations as __call__,
        so the same bits."""
        r_old, r_new, y_old, rows = self._rows[k]
        x = (r - r_old) / (r_new - r_old)
        x1 = 1 - x
        f6, f5, f4, f3, f2, f1, f0 = rows[j]
        return (((((((0.0 + f6) * x + f5) * x1 + f4) * x + f3) * x1 + f2) * x
                 + f1) * x1 + f0) * x + y_old[j]


@dataclass(frozen=True, eq=False)
class IVPResult:
    """One radial IVP: the zeros of u found (in order), the end point and
    state (the terminating zero's when the solve stopped there), the RHS
    evaluations, counted as solve_ivp counts them, the breakpoints rs and
    each accepted step's end points, states and stage rows.  The dense
    solution `sol`, one `_DenseOutput` over all steps, is built when first
    asked for: a step that located a zero keeps the coefficients its
    event built (`crossings` maps its index to them), and one
    `_coefficients` pass builds every other step's, 3 extra stages each.
    """

    zeros: list
    r_end: float
    y_end: tuple
    nfev: int
    rhs: object = field(repr=False)
    rs: list = field(repr=False)
    steps: list = field(repr=False)
    crossings: dict = field(repr=False)

    @functools.cached_property
    def sol(self) -> _DenseOutput:
        F = np.empty((len(self.steps), len(_D) + 3, 2))
        todo = [k for k in range(len(self.steps)) if k not in self.crossings]
        if todo:
            F[todo] = _coefficients(self.rhs, [self.steps[k] for k in todo])
        for k, coefficients in self.crossings.items():
            F[k] = coefficients
        return _DenseOutput(np.array(self.rs), self.steps, F)

    def at(self, r: float, j: int) -> float:
        """Component j of the dense solution at the point r, on Python
        floats, on the step that holds r by _DenseOutput.__call__'s rule."""
        k = bisect.bisect_left(self.rs, r) - 1
        return self.sol.at(min(max(k, 0), len(self.steps) - 1), r, j)


def _initial_step(rhs, r0, r_bound, y, f):
    """solve_ivp's first step (Solving ODEs I, II.4), with its numpy norms."""
    y = np.array(y)
    f = np.array(f)
    scale = ATOL + np.abs(y) * RTOL
    d0 = np.linalg.norm(y / scale) / 2 ** 0.5
    d1 = np.linalg.norm(f / scale) / 2 ** 0.5
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    interval = abs(r_bound - r0)
    h0 = min(h0, interval)
    f1 = np.array(rhs(r0 + h0, *(y + h0 * f).tolist()))
    d2 = np.linalg.norm((f1 - f) / scale) / 2 ** 0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, interval))


def solve_ivp(rhs, r0: float, r_bound: float, y0: tuple, u_max: float,
              max_zeros: int | None = None) -> IVPResult:
    """DOP853 from r0 to r_bound for y = (u, u'), y' = rhs(r, u, u').

    Bit for bit the steps, zeros, end state, nfev and (on demand) dense
    output of scipy.integrate.solve_ivp(method="DOP853", rtol=RTOL,
    atol=ATOL) with the zeros of u as event, terminal at the max_zeros-th
    when given.  The first accepted step that ends with |u| >= u_max
    raises BlowUpBeforeOneError, step collapse NotConvergedError and a
    non-finite start ValueError.
    """
    u, du = y0
    if not (math.isfinite(u) and math.isfinite(du)):
        raise ValueError(f"IVP start (u, u') = ({u!r}, {du!r}) is not finite")
    # Every sum over the stage rows K is the BLAS dot solve_ivp makes
    # (ndarray.dot is np.dot), on the same views: BLAS fuses
    # multiply-adds that no Python float sum reproduces.  Everything
    # elementwise runs on Python floats, and K and the error scale are
    # written through flat memoryviews.
    K = np.empty((_EXTENDED, 2))
    kv = memoryview(K.reshape(-1))
    KT = [K[:s].T for s in range(_STAGES + 2)]
    f0, f1 = rhs(r0, u, du)
    h_abs = _initial_step(rhs, r0, r_bound, (u, du), (f0, f1))
    nfev = 2
    r = r0
    zeros = []
    rs, steps, crossings = [r0], [], {}
    scale = np.empty(2)
    sv = memoryview(scale)
    while True:
        min_step = 10 * abs(math.nextafter(r, math.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NotConvergedError(
                    "IVP integration failed: required step size is less "
                    "than spacing between numbers")
            r_new = r + h_abs
            if r_new > r_bound:
                r_new = r_bound
            h = r_new - r
            h_abs = abs(h)
            kv[0], kv[1] = f0, f1
            for s, a, c in _STAGE_ROWS:
                d0, d1 = KT[s].dot(a).tolist()
                kv[2 * s], kv[2 * s + 1] = rhs(r + c * h, u + d0 * h,
                                               du + d1 * h)
            b0, b1 = KT[_STAGES].dot(_B).tolist()
            u_new, du_new = u + h * b0, du + h * b1
            f_new = rhs(r + h, u_new, du_new)
            kv[2 * _STAGES], kv[2 * _STAGES + 1] = f_new
            nfev += _STAGES
            sv[0] = ATOL + max(abs(u), abs(u_new)) * RTOL
            sv[1] = ATOL + max(abs(du), abs(du_new)) * RTOL
            err5 = KT[_STAGES + 1].dot(_E5)
            err5 /= scale
            err3 = KT[_STAGES + 1].dot(_E3)
            err3 /= scale
            n5 = math.sqrt(err5.dot(err5)) ** 2
            n3 = math.sqrt(err3.dot(err3)) ** 2
            if n5 == 0 and n3 == 0:
                error = 0.0
            else:
                error = h_abs * n5 / math.sqrt((n5 + 0.01 * n3) * 2)
            if error < 1:
                factor = (_MAX_FACTOR if error == 0 else
                          min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT))
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True

        if abs(u_new) >= u_max:
            raise BlowUpBeforeOneError(
                f"trajectory left trust region at r={r_new:.6f}")
        # the stage rows are overwritten by the next step: keep a copy
        step = (r, r_new, (u, du), (u_new, du_new), K.copy())
        steps.append(step)
        if u <= 0 <= u_new or u >= 0 >= u_new:
            piece = _DenseOutput((r, r_new), [step],
                                 _coefficients(rhs, [step]))
            crossings[len(steps) - 1] = piece.F[0]
            nfev += len(_EXTRA_ROWS)
            root = _event_root(piece, r, r_new)
            zeros.append(root)
            if max_zeros is not None and len(zeros) >= max_zeros:
                # solve_ivp's dense output drops a step its root empties
                if len(rs) > 1 and rs[-1] == root:
                    del crossings[len(steps) - 1], steps[-1]
                else:
                    rs.append(root)
                    u, du = piece.at(0, root, 0), piece.at(0, root, 1)
                r = root
                break
        r, u, du, f0, f1 = r_new, u_new, du_new, *f_new
        rs.append(r)
        if r >= r_bound:
            break
    return IVPResult(zeros, r, (u, du), nfev, rhs, rs, steps, crossings)


def _coefficients(rhs, steps):
    """The coefficients F (steps, 7, 2) of solve_ivp's DOP853 interpolant
    on each of a list of steps, built at once.  Each of the three extra
    stages is one stacked matmul over the steps' stage rows, the same BLAS
    dot per step as K[:s].T.dot(a), and one RHS call per step; F's last 4
    rows are one stacked _D @ K."""
    r_old, r_new, y_old, y_new, K = (np.array(c) for c in zip(*steps))
    h = r_new - r_old
    start = (r_old.tolist(), h.tolist(), *y_old.T.tolist())
    for s, a, c in _EXTRA_ROWS:
        d = np.matmul(K[:, :s].transpose(0, 2, 1), a)
        K[:, s] = [rhs(r + c * hk, u + d0 * hk, du + d1 * hk)
                   for r, hk, u, du, d0, d1 in zip(*start, *d.T.tolist())]
    hs = h[:, None]
    F = np.empty((len(steps), len(_D) + 3, 2))
    delta = y_new - y_old
    F[:, 0] = delta
    F[:, 1] = hs * K[:, 0] - delta
    F[:, 2] = 2 * delta - hs * (K[:, _STAGES] + K[:, 0])
    F[:, 3:] = hs[:, None] * np.matmul(_D, K)
    return F


def _event_root(piece, r_old, r_new):
    """Root of u on the one step of `piece`, located as solve_ivp locates
    events.  It calls roots.brentq through the module: the name brentq
    here is the matching root finder."""
    return roots.brentq(lambda r: piece.at(0, r, 0), r_old, r_new,
                        xtol=_EVENT_TOL, rtol=_EVENT_TOL)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One IVP's y, below the start on the series a + c r^2 + d r^4,
    series = (a, c, d): y or y' at one point on Python floats (`at`),
    (y, y') at an array of points (`sample`) or on a grid."""

    ivp: IVPResult
    series: tuple

    def at(self, r: float, j: int) -> float:
        if r >= self.ivp.rs[0]:
            return self.ivp.at(r, j)
        a, c, d = self.series
        return a + c * r ** 2 + d * r ** 4 if j == 0 else (
            2.0 * c * r + 4.0 * d * r ** 3)

    def sample(self, r: np.ndarray) -> np.ndarray:
        return _sample(self.ivp, self.ivp.rs[0], self.series, r)

    def __call__(self, grid: RadialGrid) -> RadialFn:
        return RadialFn(grid, *self.sample(grid.nodes), regular_origin=True)


@dataclass(frozen=True, eq=False)
class ShootResult:
    profile: RadialFn
    boundary_value: float
    amplitude: float
    lam: float
    # set by shoot; shoot_to_zero's samples (a traced branch's shots) keep none
    trajectory: Trajectory | None = field(default=None, repr=False)


def _integrate(dimension: int, lam: float, a: float, r_end: float,
               max_zeros: int | None = None):
    """Integrate the IVP to r_end, or to the max_zeros-th zero of u; its
    Trajectory, on the regular series (`_series`) below the start.

    Blow-up beyond BLOWUP_FACTOR x |a| raises BlowUpBeforeOneError (the
    radial energy  u'^2/2 + lam u^2/2 + F(u) decreases in r, so
    trajectories are a-priori bounded by |a| and the guard only trips on
    integrator runaway).
    """
    if a == 0.0:
        raise ValueError("amplitude must be nonzero")
    p = critical_exponent(dimension)
    r0, u0, du0 = _series_start(dimension, lam, a, p)
    # Flat absolute tolerance: the spike region is governed by the
    # relative tolerance, while the far field of a concentrated profile
    # carries amplitude ~ 1/a that an |a|-scaled floor would drown.
    try:
        sol = solve_ivp(_make_rhs(dimension, lam, p), r0, r_end, (u0, du0),
                        BLOWUP_FACTOR * abs(a), max_zeros)
    except BlowUpBeforeOneError as exc:
        raise BlowUpBeforeOneError(f"{exc} (lam={lam}, a={a})") from None
    return Trajectory(sol, (a, *_series(dimension, lam, a, p)))


def _sample(sol, r0: float, series: tuple, r: np.ndarray) -> np.ndarray:
    """(y, y'), shape (2, len(r)), of the dense IVP solution at the points
    r, below r0 the regular series a + c r^2 + d r^4 of series = (a, c,
    d)."""
    out = np.empty((2, len(r)))
    below = r < r0
    a, c, d = series
    rb = r[below]
    out[0, below] = a + c * rb ** 2 + d * rb ** 4
    out[1, below] = 2.0 * c * rb + 4.0 * d * rb ** 3
    out[:, ~below] = sol.sol(r[~below])
    return out


def shoot(dimension: int, lam: float, amplitude: float,
          grid_n: int = 1024) -> ShootResult:
    """Shoot from u(0) = amplitude to r = 1 and sample the profile.

    Raises BlowUpBeforeOneError if the trajectory leaves the trust region.
    """
    trajectory = _integrate(dimension, lam, amplitude, 1.0)
    profile = trajectory(profile_grid(dimension, amplitude, grid_n))
    return ShootResult(profile, trajectory.ivp.y_end[0], float(amplitude),
                       float(lam), trajectory)


def profile_grid(dimension: int, amplitude: float, grid_n: int = 1024) -> RadialGrid:
    """Grid graded to the inner scale |a|^{-(p-1)/2} of a shot profile."""
    p = critical_exponent(dimension)
    scale = abs(amplitude) ** (-(p - 1.0) / 2.0)
    if scale >= 0.1:
        return make_grid(dimension, grid_n)
    return make_core_grid(dimension, scale, h_over_scale=1.0 / 30.0,
                          h_max=1.0 / grid_n)


def shoot_to_zero(dimension: int, lam: float, amplitude: float, m: int):
    """The m-th zero of the trajectory (None if it does not occur before
    R_MAX) and a function that samples the trajectory on profile_grid as
    shoot does, building the dense output only if called.  At a matched
    lambda the zero lies within the IVP tolerance of r = 1; when it falls
    short, the last step's interpolant carries the profile the rest of
    the way."""
    u = _integrate(dimension, lam, amplitude, R_MAX, max_zeros=m)

    def sample() -> ShootResult:
        profile = u(profile_grid(dimension, amplitude))
        return ShootResult(profile, float(profile.values[-1]),
                           float(amplitude), float(lam))

    zeros = u.ivp.zeros
    return zeros[m - 1] if len(zeros) >= m else None, sample


def dirichlet_eigenvalue(dimension: int, index: int) -> float:
    """lam_m = Z_m^2, the index-th radial Dirichlet eigenvalue of -Delta on
    B_1: y(sqrt(lam) r) solves y'' + (N-1)/r y' + lam y = 0 for the y of
    lam = 1 with y(0) = 1 (the radial IVP at lam = 0 and p = 1), whose m-th
    zero is Z_m = j_{N/2-1,m} (Watson 1944).  One IVP to that zero, bounded
    at (m + N/4 + 1) pi, past McMahon's (m + N/4 - 3/4) pi; index < 1
    raises ValueError, fewer than index zeros NotConvergedError."""
    if index < 1:
        raise ValueError(f"index must be >= 1, got {index}")
    r0, y0, dy0 = _series_start(dimension, 0.0, 1.0, 1.0)
    zeros = solve_ivp(_make_rhs(dimension, 0.0, 1.0), r0,
                      (index + dimension / 4.0 + 1.0) * math.pi, (y0, dy0),
                      math.inf, index).zeros
    if len(zeros) < index:
        raise NotConvergedError(f"{len(zeros)} zeros, wanted {index}")
    return zeros[-1] * zeros[-1]


def nodal_count(f: RadialFn) -> int:
    """Number of nodal regions of f on (0, 1): sign changes + 1, values below
    SIGN_TOL * ||f||_inf treated as zero."""
    v = f.values
    thresh = SIGN_TOL * np.max(np.abs(v))
    signs = np.sign(v[np.abs(v) > thresh])
    if len(signs) == 0:
        return 0
    return int(np.sum(signs[1:] != signs[:-1])) + 1


@dataclass(frozen=True, eq=False)
class BranchPoint:
    """One solution on an m-region radial branch."""

    dimension: int
    lam: float
    amplitude: float
    nodal_count: int
    residual: float
    grid_n: int
    profile: RadialFn = field(repr=False)


def _branch_point(dimension: int, res: ShootResult, m: int) -> BranchPoint:
    """res on the m-region branch; other nodal counts raise."""
    regions = nodal_count(res.profile)
    if regions != m:
        raise NotConvergedError(f"profile has {regions} regions, wanted {m}")
    residual = abs(res.boundary_value) / np.max(np.abs(res.profile.values))
    return BranchPoint(dimension, res.lam, res.amplitude, m, float(residual),
                       res.profile.grid.n_cells, res.profile)


def solve_bvp(dimension: int, lam: float, m: int,
              grid_n: int = 1024) -> BranchPoint:
    """Solve the Dirichlet problem on the m-region branch at fixed lam.

    Matches the m-th zero position to 1 by a bracketed solve in ln(a);
    raises NoSignChangeError when no amplitude in AMP_BRACKET brackets the
    matching condition.  brentq starts from the scan's last two points,
    so psi is cached and each ln(a) is shot once.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")

    @functools.cache
    def psi(x):
        # shoot_to_zero stops at the m-th zero, so a blow-up means there is
        # none, as in continuation._match_lambda
        try:
            z = shoot_to_zero(dimension, lam, math.exp(x), m)[0]
        except BlowUpBeforeOneError:
            z = None
        return (z if z is not None else 10.0 * (1.0 + abs(x))) - 1.0

    lo, hi = math.log(AMP_BRACKET[0]), math.log(AMP_BRACKET[1])
    # geometric scan for a sign change of psi (decreasing in a)
    xs = np.linspace(lo, hi, 49).tolist()
    bracket = next(((x0, x1) for x0, x1 in zip(xs, xs[1:])
                    if psi(x0) > 0.0 >= psi(x1)), None)
    if bracket is None:
        raise NoSignChangeError(
            f"no m={m} matching amplitude in {AMP_BRACKET} at lam={lam}")
    xstar = brentq(psi, bracket[0], bracket[1], xtol=1e-14, rtol=1e-15)
    return _branch_point(dimension,
                         shoot(dimension, lam, math.exp(xstar), grid_n), m)


def linear_shot(u: Trajectory, lam: float, series: tuple,
                forcing=None) -> Trajectory:
    """One linear shot along an N = 6 trajectory u (linear, so with no
    trust region): y'' + 5/r y' + (lam + 2|u|) y = -forcing(r, u), or 0
    when forcing is None, u from u's dense output, started at u's r0 on
    the series y = y0 + c r^2 of series = (y0, c)."""
    ivp = u.ivp

    def rhs(r, y, dy):
        u_r = ivp.at(r, 0)
        f = -5.0 / r * dy - (lam + 2.0 * abs(u_r)) * y
        return (dy, f) if forcing is None else (dy, f - forcing(r, u_r))

    (y0, c), r0 = series, ivp.rs[0]
    return Trajectory(solve_ivp(rhs, r0, 1.0, (y0 + c * r0 ** 2, 2.0 * c * r0),
                                math.inf), (y0, c, 0.0))


@dataclass(frozen=True, eq=False)
class Lambda0Certificate:
    """Certificate for the self-consistent parameter 2 max u = lam
    (find_lambda0).  branch is the shot of u from amplitude = lam_0/2, its
    trajectory u_0's one integration, which grids sample, and psi = du/da
    along it."""

    dimension: int
    lam0: float
    amplitude: float
    gap: float
    newton_step: float
    psi_at_1: float
    branch: BranchPoint = field(repr=False)
    trajectory: Trajectory = field(repr=False)
    psi: Trajectory = field(repr=False)


def find_lambda0(dimension: int = 6, grid_n: int = 2048) -> Lambda0Certificate:
    """Solve 2 a(lam) = lam along the positive branch, and check it.

    lam_0 = 2 Z_1(2)^2 by the critical dilation (module docstring): one
    IVP.  Two more check it: u from a = lam_0/2 and psi = du/da along it.
    To second order delta = -u(1)/psi(1) is the distance from a of
    the amplitude that matches u(1) = 0, so gap = 2|delta| is
    |2 u(0) - lam_0| there, with condition number 1/|psi(1)|.  Only at
    N = 6 do u(0) and lam scale alike under the dilation; other
    dimensions raise RadialModeViolationError.
    """
    if dimension != 6:
        raise RadialModeViolationError(
            f"2u(0) = lambda_0 is specific to N = 6, got N = {dimension}")
    z = shoot_to_zero(6, 2.0, 1.0, 1)[0]
    lam0 = 2.0 * z * z
    shot = shoot(6, lam0, 0.5 * lam0, grid_n)
    # psi = du/da from its series 1 + c_a r^2, c_a = dc/da (`_series`)
    psi = linear_shot(shot.trajectory, lam0,
                      (1.0, -(lam0 + 2.0 * shot.amplitude) / 12.0))
    psi1 = psi.ivp.y_end[0]
    if not abs(psi1) >= PSI_FLOOR:
        raise NearSingularError(f"psi(1) = {psi1:.3e} at lam0={lam0!r}, "
                                f"below {PSI_FLOOR:g}")
    delta = -shot.boundary_value / psi1
    if not 2.0 * abs(delta) <= GAP_BOUND:
        raise NotConvergedError(f"lam0={lam0!r} is not 2 u(0): Newton step "
                                f"{delta:.3e}, gap above {GAP_BOUND:g}")
    return Lambda0Certificate(6, float(lam0), shot.amplitude, 2.0 * abs(delta),
                              delta, psi1, _branch_point(6, shot, 1),
                              shot.trajectory, psi)
