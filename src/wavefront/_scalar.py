"""Brent's root finder and minimizer, ported from SciPy.

``brentq`` is SciPy 1.17's C ``brentq`` (``scipy/optimize/Zeros/brentq.c``)
behind the checks of its Python wrapper, and ``minimize_bounded`` is
``scipy.optimize._optimize._minimize_scalar_bounded``; both implement
R. P. Brent, *Algorithms for Minimization Without Derivatives* (1973),
chapters 4 and 5.  They evaluate f at the same points and return the same
floats as SciPy does, so the spectral code needs no SciPy import.  SciPy is
BSD-3-Clause licensed; copyright (c) 2001-2002 Enthought, Inc. and
2003-2025 SciPy Developers.
"""

from __future__ import annotations

import math
import operator
import sys

# SciPy's floor for the relative tolerance of brentq, 4 eps
RTOL_FLOOR = 4 * sys.float_info.epsilon


def _signbit(v: float) -> bool:
    return math.copysign(1.0, v) < 0.0


def _div(num: float, den: float) -> float:
    """num / den with C semantics: a zero divisor gives inf or NaN."""
    if den != 0.0:
        return num / den
    if num != num or num == 0.0:
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def brentq(f, a, b, xtol: float, rtol: float = RTOL_FLOOR, maxiter: int = 100) -> float:
    """Zero of f in [a, b] by Brent's method; f(a) and f(b) must differ in sign.

    Stops when the bracket half-width drops below (xtol + rtol |x|) / 2.
    Raises ValueError for xtol <= 0, rtol below 4 eps, a negative maxiter,
    f(a) and f(b) of one sign, or a NaN value of f; RuntimeError when
    maxiter iterations do not converge.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_FLOOR:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_FLOOR:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
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
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre),
                            dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def minimize_bounded(f, x1, x2, xatol: float, maxiter: int = 500) -> tuple[float, float]:
    """(x, f(x)) at a local minimum of f on [x1, x2] by golden-section and parabolic steps.

    Stops when x is known to within about xatol, or after maxiter
    evaluations of f (without an error, as SciPy does).
    """
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
            else:
                golden = True

        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e

        step = max(abs(rat), tol1)
        x = xf + (-step if rat < 0 else step)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx
