"""Brent's bracketed root finder, bit-identical to ``scipy.optimize.brentq``.

The cutoff solvers (:mod:`repro.core.inversion`, :mod:`repro.core.tail`)
and :meth:`repro.queueing.mmk.MMk.response_time_percentile` each need one
scalar root on a sign-changing bracket.  Importing ``scipy.optimize`` for
that costs most of the CLI's cold start, so this module ports scipy's
``Zeros/brentq.c`` statement for statement: the same IEEE-754 operations
in the same order give the same root, bit for bit, and the same errors —
``ValueError`` for a bracket without a sign change or a NaN from ``f``,
``RuntimeError`` when ``maxiter`` runs out.
"""

from __future__ import annotations

import math
from collections.abc import Callable

__all__ = ["brentq"]

#: scipy's default and minimum relative tolerance, ``4 * DBL_EPSILON``.
_RTOL = 4 * 2.220446049250313e-16


def _eval(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 2e-12,
    rtol: float = _RTOL,
    maxiter: int = 100,
) -> float:
    """A root of ``f`` in ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in sign.

    Converges when the bracket half-width falls below
    ``(xtol + rtol * |x|) / 2``; arguments and defaults match scipy's.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter should be > 0")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _eval(f, xpre), _eval(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # In C, x / 0 is +-inf or NaN; both fail the short-step
                # test below, so inf stands in for them.
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            # C's MIN(a, b); min() would differ when a is NaN.
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _eval(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
