"""Characteristic functions, their real zeros, and minimal-speed computation.

chi(z) = 1 - sum_tau w(tau) * T_tau(z), with T_tau the kernel transforms.
On the real strip chi is strictly concave (kernel transforms are
log-convex, hence convex), so it has at most two real zeros
lambda_l <= lambda_r and they bracket the concave maximum.  All root
location here exploits that structure: locate the maximizer, classify,
then bisect on each side; the solver's closure rate is the left zero of
the grid chi by the same search.  The minimal speed c* solves
max_z chi(z, c) = 0 in c alone: ``min_speed`` sees chi only through
``max_at(c) -> (z_c, max)``, which the caller builds per family and
caches, so each trial speed is assembled and maximized once.  Complex
zeros are counted by the winding number of chi around a box, in steps
certified by a bound on |chi'| (:func:`zero_count`).

The maximizer is Brent's bounded golden-section/parabolic search and the
root finder Brent's ``brentq``, both ported bit for bit from SciPy in
:mod:`wavefront._scalar` so that the spectral commands load no SciPy.
The searches take chi at a float, in float arithmetic bit-identical to the array path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from ._scalar import brentq, minimize_bounded
from .errors import BracketFailure, NoRoots, StripTooNarrow
from .kernels import KernelComponent, _check_param, _check_strip, _common_strip

INF = math.inf

ROOT_VALUE_TOL = 1e-10
# criticality band: roots closer than this are one double root
MULTIPLICITY_RTOL = 1e-5
DOUBLING_CAP = 1e6
# absolute tolerance of the tangency search for c*
SPEED_XTOL = 1e-12
# strip scan: how far right of lambda_l the box reaches when lambda_r is missing
SCAN_RIGHT_CAP = 10.0
# zero count: the most evaluations of f one count spends before it is undetermined
COUNT_MAX_POINTS = 2 ** 17

__all__ = [
    "CharacteristicFunction",
    "SpectralData",
    "ScanReport",
    "chi",
    "real_roots",
    "min_speed",
    "strip_zero_scan",
    "zero_count",
    "chi1_margin",
]


@dataclass(frozen=True)
class CharacteristicFunction:
    """Weighted kernel family defining chi(z) = 1 - sum w_tau T_tau(z).

    The weights are the slopes at zero of the per-atom nonlinearities, or
    their Lipschitz constants for the chi_1 variant used by the fast-front
    uniqueness route.  ``strip`` is the kernels' common strip, derived
    once; it is no field, so equality ignores it.
    """

    components: tuple[tuple[KernelComponent, float], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one weighted kernel")
        for _, w in self.components:
            _check_param("weight", w)
        strip = _common_strip(*[k.abscissas() for k, _ in self.components])
        object.__setattr__(self, "strip", strip)

    def __call__(self, z):
        return chi(self, z)


def chi(cf: CharacteristicFunction, z):
    """Evaluate chi at complex z (scalar or array) inside the open strip."""
    _check_strip(cf.strip, z)
    acc = 1.0
    for k, w in cf.components:
        acc = acc - w * k.laplace(z)
    return acc


def chi_prime(cf: CharacteristicFunction, x: float) -> float:
    """d chi / dz at real x via a complex step (chi is analytic in the strip)."""
    h = 1e-20
    # a 0-d array: numpy's complex arithmetic, not Python's (its division rounds otherwise)
    return float(np.imag(chi(cf, np.asarray(x + 1j * h)))) / h


@dataclass(frozen=True)
class SpectralData:
    """Real zeros of chi plus the strip data the asymptotics needs.

    lambda_rK is lambda_r when it exists and gamma_K otherwise; ``critical``
    means lambda_l and lambda_r coincide within the multiplicity band.
    """

    lambda_l: float
    lambda_r: float | None
    gamma_K: float
    sigma_K: float
    critical: bool
    chi_prime_at_ll: float

    def __post_init__(self):
        _check_param("lambda_l", self.lambda_l)
        if self.lambda_r is not None:
            _check_param("lambda_r", self.lambda_r, self.lambda_l - 1e-12, closed=True)

    @property
    def lambda_rK(self) -> float:
        return self.lambda_r if self.lambda_r is not None else self.gamma_K

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda_rK"] = self.lambda_rK
        return d


def _max_bracket(f) -> float:
    """Right end b for maximizing concave f over (0, inf), found by doubling.

    Each of x = 1, 2, 4, ... is evaluated once.  Returns 2x at the first x
    where f(2x) >= f(x) fails (a drop, or not a number), and the last x
    once x reaches DOUBLING_CAP with f still nondecreasing.
    """
    x = 1.0
    fx = f(x)
    while x < DOUBLING_CAP:
        f2 = f(2.0 * x)
        if not f2 >= fx:
            return 2.0 * x
        x, fx = 2.0 * x, f2
    return x


def _inside(gamma: float) -> float:
    """The abscissa just inside a finite strip end gamma where searches stop."""
    return gamma - max(1e-13, 1e-12 * abs(gamma))


def _concave_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Maximize concave f on (lo, hi) (finite hi) by bounded golden/parabolic search."""
    x, fx = minimize_bounded(lambda x: -f(x), lo, hi, xatol=1e-11)
    return float(x), float(-fx)


def _strip_max(f, strip: tuple[float, float]) -> tuple[float, float]:
    """(maximizer, maximum) of concave f over the positive part of the strip.

    The search runs on (max(sigma, 0) + 1e-13, b), with b just inside a
    finite gamma and the doubling bracket of :func:`_max_bracket` otherwise.
    """
    lo, hi = strip
    b = _inside(hi) if math.isfinite(hi) else _max_bracket(f)
    return _concave_max(f, max(lo, 0.0) + 1e-13, b)


def _left_zero(f, gamma: float) -> tuple[float, float, float]:
    """(xhat, max, lambda_l) for concave f with f(0) < 0 on (0, gamma).

    lambda_l is the zero left of the maximizer xhat, or xhat itself when
    max <= ROOT_VALUE_TOL (a double zero, or none).
    """
    xhat, fmax = _strip_max(f, (0.0, gamma))
    if fmax <= ROOT_VALUE_TOL:
        return xhat, fmax, xhat
    return xhat, fmax, brentq(f, 0.0, xhat, xtol=1e-14, rtol=8.9e-16)


def _right_zero(f, xhat: float, gamma: float) -> float | None:
    """The zero of concave f right of its maximizer xhat and below gamma, if any.

    f is negative at b, just inside a finite gamma or doubling from xhat;
    halving the gap to b closes the bracket (1 - 2^-53 is the last factor
    below 1).
    """
    left, b = xhat, (_inside(gamma) if math.isfinite(gamma) else 2.0 * xhat)
    fb = f(b)
    while fb >= 0.0 and math.isinf(gamma) and b < DOUBLING_CAP:
        left, b = b, 2.0 * b
        fb = f(b)
    if not fb < 0.0:
        return None
    right, start = b, left
    for j in range(1, 54):
        t = start + (b - start) * (1.0 - 0.5 ** j)
        if f(t) < 0.0:
            right = t
            break
        left = t
    return brentq(f, left, right, xtol=1e-14, rtol=8.9e-16)


def real_roots(cf: CharacteristicFunction) -> SpectralData:
    """Locate lambda_l <= lambda_r on (0, gamma_K) exploiting concavity.

    lambda_l comes from :func:`_left_zero`, the search the solver's closure
    rate shares, and lambda_r from :func:`_right_zero`.  Raises NoRoots
    when the concave maximum is negative (the regime with no semi-wavefront
    vanishing at -inf) and StripTooNarrow when gamma_K <= 0.
    """
    sigma_K, gamma_K = cf.strip
    if gamma_K <= 0:
        raise StripTooNarrow(f"gamma_K = {gamma_K:g} <= 0")
    if sigma_K >= 0:
        raise StripTooNarrow(f"sigma_K = {sigma_K:g} >= 0; cannot evaluate chi(0)")
    chi0 = float(chi(cf, 0.0))
    if chi0 >= 0:
        raise ValueError(f"chi(0) = {chi0:g} must be negative for a wave analysis")

    def f(x):
        return float(chi(cf, x))

    xhat, chimax, lam_l = _left_zero(f, gamma_K)
    if chimax < -ROOT_VALUE_TOL:
        raise NoRoots(f"max chi = {chimax:g} < 0 on (0, {gamma_K:g}): no positive zero")
    lam_r = xhat if chimax <= ROOT_VALUE_TOL else _right_zero(f, xhat, gamma_K)
    critical = lam_r is not None and (lam_r - lam_l) < MULTIPLICITY_RTOL * max(1.0, lam_l)
    return SpectralData(lambda_l=lam_l, lambda_r=lam_r, gamma_K=gamma_K,
                        sigma_K=sigma_K, critical=critical,
                        chi_prime_at_ll=chi_prime(cf, lam_l))


def min_speed(max_at, c_bracket: tuple[float, float]) -> tuple[float, float]:
    """Minimal speed by the tangency condition max_z chi(z, c*) = 0.

    max_at(c) -> (z_c, max_z chi(z, c)) over the positive part of the strip
    at speed c, with chi concave in z and strictly increasing in c for fixed
    z > 0; every trial speed is passed to it, so a caching max_at maximizes
    each speed once.  Returns (c*, z*) with z* the tangency point.
    """
    c_lo, c_hi = c_bracket
    m_lo = max_at(c_lo)[1]
    m_hi = max_at(c_hi)[1]
    if m_lo > 0 or m_hi < 0:
        raise BracketFailure(
            f"max chi has no sign change on [{c_lo:g}, {c_hi:g}]: "
            f"values {m_lo:g}, {m_hi:g}")
    c_star = brentq(lambda c: max_at(c)[1], c_lo, c_hi, xtol=SPEED_XTOL, rtol=8.9e-16)
    return c_star, max_at(c_star)[0]


def zero_count(f, slope_bound, box: tuple[float, float, float, float]):
    """(count, points, min |f|, notes) for analytic f on box = (x0, x1, y0, y1).

    The count of zeros inside, with multiplicity, is the winding number of f
    around the boundary.  ``slope_bound(xa, xb)`` bounds |f'| on the band
    xa <= Re z <= xb.  A step [a, b] of a side with bound D counts only when
    D |b - a| < min(|f(a)|, |f(b)|): f then stays in a disc about f(a) that
    misses 0 (Ying and Katz, Numer. Math. 53, 1988).  Each round splits a
    side's failing steps into the fewest equal steps that would pass were |f|
    its smaller end value, with one call of f.  The count is None when f is
    nan on a side (min |f| is then nan) or needs over COUNT_MAX_POINTS points.
    """
    x0, x1, y0, y1 = box
    turn, points, least, across = 0.0, 0, INF, slope_bound(x0, x1)
    for name, a, b, slope in (("bottom", complex(x0, y0), complex(x1, y0), across),
                              ("right", complex(x1, y0), complex(x1, y1), slope_bound(x1, x1)),
                              ("top", complex(x1, y1), complex(x0, y1), across),
                              ("left", complex(x0, y1), complex(x0, y0), slope_bound(x0, x0))):
        t = np.array([0.0, 1.0])
        v = np.asarray(f(a + t * (b - a)), dtype=complex)
        while not np.isnan(v).any():
            with np.errstate(all="ignore"):
                ratio = slope * abs(b - a) * np.diff(t) / np.minimum(np.abs(v[:-1]), np.abs(v[1:]))
            bad = np.flatnonzero(~(ratio < 1.0))
            pieces = np.floor(ratio[bad]) + 1.0
            if bad.size == 0 or not points + t.size + np.sum(pieces - 1.0) <= COUNT_MAX_POINTS:
                break
            seg = np.repeat(bad, pieces.astype(np.int64) - 1)
            k = np.arange(1, seg.size + 1) - np.searchsorted(seg, seg)
            tn = t[seg] + k * (t[seg + 1] - t[seg]) / (np.floor(ratio[seg]) + 1.0)
            t = np.insert(t, seg + 1, tn)
            v = np.insert(v, seg + 1, np.asarray(f(a + tn * (b - a)), dtype=complex))
        points, least = points + v.size, float(np.minimum(least, np.min(np.abs(v))))
        if math.isnan(least) or bad.size:
            return None, points, least, (f"f is nan on the {name} side" if math.isnan(least) else
                                         f"the {name} side (|f'| <= {slope:.3g}) needs over "
                                         f"{COUNT_MAX_POINTS} points")
        turn += float(np.sum(np.angle(v[1:] / v[:-1])))
    return round(turn / (2.0 * math.pi)), points, least, ""


@dataclass(frozen=True)
class ScanReport:
    """chi's zero count in ``box`` against the ``expected`` one: ``status`` is
    "pass" if they agree, "undetermined" if the count was not certified (None),
    and "fail" otherwise or if chi is nan on the boundary (``min_abs_chi``)."""

    count: int | None
    expected: int
    box: tuple[float, float, float, float]
    points: int
    min_abs_chi: float
    status: str
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


def strip_zero_scan(cf: CharacteristicFunction, sd: SpectralData, y_max: float) -> ScanReport:
    """Count the zeros of chi in [lambda_l / 2, x1] x [-y_max, y_max].

    x1 is lambda_r + max((lambda_r - lambda_l) / 2, 0.2), or lambda_l +
    SCAN_RIGHT_CAP without lambda_r, at most halfway to gamma_K; the box
    should hold just the real zeros (a double one counts twice).  As |s| <=
    (e^{ds} + e^{-ds}) / (e d), |chi'(x + iy)| <= (2 - chi(x - d) - chi(x + d))
    / (e d), convex in x.  On a band that is taken at its ends, and least over
    d = d_max 2^(-k/2), k < 40, with d_max half the least of the box's width
    and the band's margins in the strip.
    """
    _check_param("y_max", y_max)
    sigma_K, gamma_K = cf.strip
    lam_l, lam_r = sd.lambda_l, sd.lambda_r
    right, reach, expected = ((lam_l, SCAN_RIGHT_CAP, 1) if lam_r is None
                              else (lam_r, max((lam_r - lam_l) / 2.0, 0.2), 2))
    x0, x1 = lam_l / 2.0, right + min(reach, (gamma_K - right) / 2.0)

    def slope_bound(xa, xb):
        d = min(x1 - x0, xa - sigma_K, gamma_K - xb) / 2.0 * 2.0 ** (-0.5 * np.arange(40))
        mass = [2.0 - np.real(chi(cf, x - d) + chi(cf, x + d)) for x in (xa, xb)]
        return float(np.min(np.maximum(*mass) / (math.e * d)))

    box = (x0, x1, -y_max, y_max)
    count, points, least, notes = zero_count(cf, slope_bound, box)
    status = ("pass" if count == expected else
              "undetermined" if count is None and not math.isnan(least) else "fail")
    return ScanReport(count, expected, box, points, least, status, notes)


def chi1_margin(cf1: CharacteristicFunction, sd: SpectralData) -> tuple[float, float] | None:
    """Maximizer m of chi_1 on (0, lambda_rK) and its value, if nonnegative.

    Returns None when max chi_1 < 0, i.e. the Lipschitz-weighted route has
    no usable margin.
    """
    m, val = _strip_max(lambda x: float(chi(cf1, x)),
                        (0.0, min(sd.lambda_rK, cf1.strip[1])))
    return (m, val) if val >= 0.0 else None
