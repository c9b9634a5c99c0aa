"""Characteristic functions, their real zeros, and minimal-speed computation.

chi(z) = 1 - sum_tau w(tau) * T_tau(z), with T_tau the kernel transforms.
On the real strip chi is strictly concave (kernel transforms are
log-convex, hence convex), so it has at most two real zeros
lambda_l <= lambda_r and they bracket the concave maximum.  All root
location here exploits that structure: locate the maximizer, classify,
then bisect on each side.  The minimal speed c* solves max_z chi(z, c) = 0
in c alone: ``min_speed`` sees chi only through ``max_at(c) -> (z_c, max)``,
which the caller builds per family and caches, so each trial speed is
assembled and maximized once.

The maximizer is Brent's bounded golden-section/parabolic search and the
root finder Brent's ``brentq``, both ported bit for bit from SciPy in
:mod:`wavefront._scalar` so that the spectral commands load no SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from ._scalar import brentq, minimize_bounded
from .errors import BracketFailure, NoRoots, StripTooNarrow
from .kernels import KernelComponent, _check_strip

INF = math.inf

ROOT_VALUE_TOL = 1e-10
# criticality band: roots closer than this are one double root
MULTIPLICITY_RTOL = 1e-5
DOUBLING_CAP = 1e6
# absolute tolerance of the tangency search for c*
SPEED_XTOL = 1e-12
# strip scan: the half-height of the excluded band around the real axis, and
# how far right of lambda_l the scan runs when lambda_rK is infinite
SCAN_EPS_IM = 0.1
SCAN_RIGHT_CAP = 10.0

__all__ = [
    "CharacteristicFunction",
    "SpectralData",
    "ScanReport",
    "chi",
    "real_roots",
    "min_speed",
    "strip_zero_scan",
    "chi1_margin",
]


@dataclass(frozen=True)
class CharacteristicFunction:
    """Weighted kernel family defining chi(z) = 1 - sum w_tau T_tau(z).

    The weights are the slopes at zero of the per-atom nonlinearities, or
    their Lipschitz constants for the chi_1 variant used by the fast-front
    uniqueness route.
    """

    components: tuple[tuple[KernelComponent, float], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one weighted kernel")
        for _, w in self.components:
            if w <= 0:
                raise ValueError("weights must be positive")
        lo, hi = self.strip
        if not lo < hi:
            raise ValueError(f"empty common strip ({lo:g}, {hi:g})")

    @property
    def strip(self) -> tuple[float, float]:
        lo, hi = -INF, INF
        for k, _ in self.components:
            a, b = k.abscissas()
            lo, hi = max(lo, a), min(hi, b)
        return (lo, hi)

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
    return float(np.imag(chi(cf, x + 1j * h))) / h


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
        if not self.lambda_l > 0:
            raise ValueError("lambda_l must be positive")
        if self.lambda_r is not None and self.lambda_r < self.lambda_l - 1e-12:
            raise ValueError("need lambda_l <= lambda_r")

    @property
    def lambda_rK(self) -> float:
        return self.lambda_r if self.lambda_r is not None else self.gamma_K

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda_rK"] = self.lambda_rK
        return d


def _max_bracket(f) -> tuple[float, float | None]:
    """Right end b for maximizing concave f over (0, inf), found by doubling.

    Each of x = 1, 2, 4, ... is evaluated once.  Returns (2x, None) at the
    first x where f(2x) >= f(x) fails (a drop, or not a number), and
    (b, f(b)) when f is still nondecreasing at b = DOUBLING_CAP.
    """
    x = 1.0
    fx = f(x)
    while x < DOUBLING_CAP:
        f2 = f(2.0 * x)
        if not f2 >= fx:
            return 2.0 * x, None
        x, fx = 2.0 * x, f2
    return x, fx


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
    lo = max(lo, 0.0) + 1e-13
    if math.isfinite(hi):
        b = hi - max(1e-13, 1e-12 * abs(hi))
    else:
        b = _max_bracket(f)[0]
    return _concave_max(f, lo, b)


def real_roots(cf: CharacteristicFunction) -> SpectralData:
    """Locate lambda_l <= lambda_r on (0, gamma_K) exploiting concavity.

    Raises NoRoots when the concave maximum is negative (the regime with no
    semi-wavefront vanishing at -inf) and StripTooNarrow when gamma_K <= 0.
    """
    sigma_K, gamma_K = cf.strip
    if gamma_K <= 0:
        raise StripTooNarrow(f"gamma_K = {gamma_K:g} <= 0")
    if sigma_K >= 0:
        raise StripTooNarrow(f"sigma_K = {sigma_K:g} >= 0; cannot evaluate chi(0)")
    chi0 = float(np.real(chi(cf, 0.0)))
    if chi0 >= 0:
        raise ValueError(f"chi(0) = {chi0:g} must be negative for a wave analysis")

    def f(x):
        return float(np.real(chi(cf, x)))

    if math.isfinite(gamma_K):
        b = gamma_K - 1e-12 * max(1.0, abs(gamma_K))
    else:
        b, f_cap = _max_bracket(f)
        if f_cap is not None:
            # chi nondecreasing out to the cap: either it crossed zero
            # (lambda_l exists, lambda_r absent) or it never will resolve
            if f_cap > ROOT_VALUE_TOL:
                lam_l = brentq(f, 0.0, b, xtol=1e-14, rtol=8.9e-16)
                return SpectralData(lambda_l=lam_l, lambda_r=None,
                                    gamma_K=gamma_K, sigma_K=sigma_K, critical=False,
                                    chi_prime_at_ll=chi_prime(cf, lam_l))
            raise NoRoots(f"chi stays below tolerance up to doubling cap {DOUBLING_CAP:g}")

    xhat, chimax = _concave_max(f, 1e-14, b)
    if chimax < -ROOT_VALUE_TOL:
        raise NoRoots(f"max chi = {chimax:g} < 0 on (0, {b:g}): no positive zero")
    if abs(chimax) <= ROOT_VALUE_TOL:
        return SpectralData(lambda_l=xhat, lambda_r=xhat, gamma_K=gamma_K,
                            sigma_K=sigma_K, critical=True,
                            chi_prime_at_ll=chi_prime(cf, xhat))

    lam_l = brentq(f, 0.0, xhat, xtol=1e-14, rtol=8.9e-16)

    # lambda_r: concave past xhat, chi crosses zero at most once more
    lam_r, left = None, xhat
    fb = f(b)
    if fb < 0.0:
        # the first negative point halving the gap to b closes the bracket;
        # 1 - 2^-53 is the last factor below 1
        right = b
        for j in range(1, 54):
            t = xhat + (b - xhat) * (1.0 - 0.5 ** j)
            if f(t) < 0.0:
                right = t
                break
            left = t
        lam_r = brentq(f, left, right, xtol=1e-14, rtol=8.9e-16)
    elif not math.isfinite(gamma_K):
        # chi can still be positive at b, the doubling bracket of its
        # maximizer; it falls further right
        while fb >= 0.0 and b < DOUBLING_CAP:
            left, b = b, 2.0 * b
            fb = f(b)
        if fb < 0.0:
            lam_r = brentq(f, left, b, xtol=1e-14, rtol=8.9e-16)

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


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a strip scan for complex zeros of chi.

    ``min_abs_chi`` and ``passed`` cover the off-axis set (the complex-zero
    content of the scan); the real-axis segment between the known zeros is
    reported separately, since there |chi| dips to |chi'(lambda_l)| * eps
    right next to the excluded roots.
    """

    min_abs_chi: float
    argmin: tuple[float, float]
    grid: dict
    passed: bool
    min_abs_chi_real_axis: float = INF
    argmin_real_axis: float = math.nan
    empty: bool = False
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "min_abs_chi": self.min_abs_chi,
            "argmin": list(self.argmin),
            "grid": dict(self.grid),
            "pass": self.passed,
            "min_abs_chi_real_axis": self.min_abs_chi_real_axis,
            "argmin_real_axis": self.argmin_real_axis,
            "empty": self.empty,
            "notes": self.notes,
        }


def strip_zero_scan(cf: CharacteristicFunction, sd: SpectralData, y_max: float,
                    grid_density: float = 40.0, eps_re: float = 1e-3,
                    zero_tol: float = 1e-3) -> ScanReport:
    """Evaluate |chi| over the open strip lambda_l < Re z < lambda_rK.

    Off-axis rectangle [lambda_l+eps_re, lambda_rK-eps_re] x ([-y_max, y_max]
    with |Im z| >= SCAN_EPS_IM) plus the two boundary verticals under the
    same imaginary exclusion; the known real zeros sit on the excluded
    segments.  An infinite lambda_rK is capped at lambda_l + SCAN_RIGHT_CAP.
    This is a regression diagnostic: zero-freeness off the real axis holds
    analytically, so PASS means min |chi| > zero_tol there.  The real-axis
    segment is scanned too and reported separately without a gate (its
    minimum is pinned at |chi'| * eps_re by the adjacent real zeros).
    """
    if not 0.0 <= y_max < INF:
        raise ValueError(f"y_max must be finite and >= 0, got {y_max:g}")
    if not 0.0 < grid_density < INF:
        raise ValueError(f"grid_density must be finite and positive, got {grid_density:g}")
    notes = []
    _, gamma_K = cf.strip
    rk = sd.lambda_rK
    if not math.isfinite(rk):
        rk = sd.lambda_l + SCAN_RIGHT_CAP
        notes.append(f"lambda_rK infinite; scan capped at lambda_l + {SCAN_RIGHT_CAP:g}")
    # keep evaluation strictly inside the kernel strip
    strip_pad = 1e-9 * max(1.0, abs(gamma_K)) if math.isfinite(gamma_K) else 0.0
    rk_eval = min(rk, gamma_K - strip_pad) if math.isfinite(gamma_K) else rk

    x_lo, x_hi = sd.lambda_l + eps_re, rk_eval - eps_re
    best = (INF, (math.nan, math.nan))
    pts = 0

    def scan_block(X, Y):
        nonlocal best, pts
        Z = X + 1j * Y
        vals = np.abs(chi(cf, Z))
        pts += vals.size
        i = int(np.argmin(vals))
        if vals.ravel()[i] < best[0]:
            best = (float(vals.ravel()[i]), (float(np.ravel(X)[i]), float(np.ravel(Y)[i])))

    def y_band(height):
        ny = max(81, int(math.ceil(2.0 * (height - SCAN_EPS_IM) * grid_density)) + 1)
        return np.concatenate([np.linspace(-height, -SCAN_EPS_IM, ny // 2),
                               np.linspace(SCAN_EPS_IM, height, ny // 2)])

    if y_max <= SCAN_EPS_IM:
        notes.append(f"y_max <= {SCAN_EPS_IM:g}: off-axis set empty, scan vacuous")
    axis_min, axis_arg = INF, math.nan
    if x_hi > x_lo and y_max > SCAN_EPS_IM:
        nx = max(41, int(math.ceil((x_hi - x_lo) * grid_density)) + 1)
        xs = np.linspace(x_lo, x_hi, nx)
        ys = y_band(y_max)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        scan_block(X, Y)
        grid_meta = {"nx": nx, "ny": ys.size, "x": [x_lo, x_hi], "y": [-y_max, y_max]}
        empty = False
        axis_vals = np.abs(chi(cf, xs + 0.0j))
        i = int(np.argmin(axis_vals))
        axis_min, axis_arg = float(axis_vals[i]), float(xs[i])
    else:
        grid_meta = {"nx": 0, "ny": 0, "x": [x_lo, x_hi], "y": [-y_max, y_max]}
        empty = True
        if x_hi <= x_lo:
            notes.append("interior rectangle empty (lambda_l ~ lambda_rK)")

    if y_max > SCAN_EPS_IM:
        yb = y_band(y_max)
        for x_line in (sd.lambda_l, rk_eval):
            X = np.full(yb.shape, x_line)
            scan_block(X, yb)

    passed = best[0] > zero_tol if pts else True
    return ScanReport(min_abs_chi=best[0] if pts else INF, argmin=best[1],
                      grid={**grid_meta, "points": pts, "zero_tol": zero_tol,
                            "eps_re": eps_re, "eps_im": SCAN_EPS_IM},
                      passed=passed, min_abs_chi_real_axis=axis_min,
                      argmin_real_axis=axis_arg,
                      empty=empty, notes="; ".join(notes))


def chi1_margin(cf1: CharacteristicFunction, sd: SpectralData) -> tuple[float, float] | None:
    """Maximizer m of chi_1 on (0, lambda_rK) and its value, if nonnegative.

    Returns None when max chi_1 < 0, i.e. the Lipschitz-weighted route has
    no usable margin.
    """
    _, gamma_K = cf1.strip
    hi = min(sd.lambda_rK, gamma_K)

    def f(x):
        return float(np.real(chi(cf1, x)))

    m, val = _strip_max(f, (0.0, hi))
    if val < 0.0:
        return None
    return m, val
