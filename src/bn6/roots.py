"""Bracketed scalar roots: Brent's method on Python floats.

`brentq` is the Brent-Dekker iteration of scipy.optimize.brentq
(scipy/optimize/Zeros/brentq.c; Brent, Algorithms for Minimization
without Derivatives, ch. 4) operation for operation: from the same
bracket and tolerances it evaluates f at the same points and returns the
same root to the bit, and it raises as scipy does.  Owning these few
lines keeps scipy.optimize off the import path of every command that
does not fit a tail.
"""

from __future__ import annotations

import math
import sys

RTOL_MIN = 4.0 * sys.float_info.epsilon  # the smallest rtol accepted


def brentq(f, a: float, b: float, xtol: float, rtol: float,
           maxiter: int = 100) -> float:
    """Root of f in [a, b], where f(a) and f(b) have opposite signs.

    Stops when half the bracket is below (xtol + rtol |x|) / 2 or f is
    exactly zero.  Raises ValueError for xtol <= 0, rtol < 4 eps,
    maxiter < 0, a same-sign bracket or a NaN value of f, and
    RuntimeError after maxiter iterations without convergence.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x: float) -> float:
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # C's signbit tests, which on nonzero values are comparisons with 0
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        # xblk is the contrapoint: f changes sign between it and xcur
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.nan
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # C's inf or nan: a bisection
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
