"""Decay laws at the left tail and the asymptotic-representation diagnostics.

A resolved profile decays like (a - t)^k e^{lambda t} as t -> -inf with
k = 0 for a simple leading zero and k = 1 for a double one.  fit_decay
fits both candidates in log space and selects by residual with a
parsimony margin; check_representation subtracts the fitted main term and
tests whether the remainder stays below e^{(lambda + delta) t}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, integrate

from .charfun import SpectralData
from .errors import NonPositiveTail, TailUnresolved
from .wavesolver import WaveProfile

__all__ = [
    "DecayFit",
    "fit_decay",
    "RepresentationReport",
    "check_representation",
    "psi_integral",
    "max_supported_delta",
]

TAIL_FRACTION = 0.01   # default window ends where phi first exceeds this * kappa
# k=1 is selected only when it cuts the rms residual 5-fold.  The factor
# model nests the plain exponential (A -> inf), so on solved profiles it
# always shaves some of the nonlinear-harmonic bend off the k=0 residual
# (measured ratio ~0.6 on noncritical solves vs ~0.025 on critical ones);
# a margin of 10% would misclassify noncritical profiles.
PARSIMONY = 0.2
# check_representation passes while the remainder's log-slope is >= -SLOPE_EPS
SLOPE_EPS = 0.05


@dataclass(frozen=True)
class DecayFit:
    """Fitted left-tail law phi(t + m) ~ (a - t)^k e^{lambda t}.

    ``a`` is meaningful only when k_hat = 1.  Residual norms are taken in
    log space over the fitted window.
    """

    lambda_hat: float
    k_hat: int
    a: float
    m: float
    window: tuple[float, float]
    residual_sup: float
    residual_l2: float
    # intercept of the fitted log phi = lambda t + b, plus log(a + m - t) when k = 1
    b: float = 0.0

    def __post_init__(self):
        if not self.lambda_hat > 0:
            raise ValueError("fitted decay rate must be positive")
        if self.k_hat not in (0, 1):
            raise ValueError("k_hat must be 0 or 1")

    def to_dict(self) -> dict:
        return {
            "lambda_hat": self.lambda_hat, "k_hat": self.k_hat, "a": self.a,
            "m": self.m, "window": list(self.window),
            "residual_sup": self.residual_sup, "residual_l2": self.residual_l2,
        }


def _default_window(profile: WaveProfile, floor: float) -> np.ndarray:
    ts = profile.grid.ts
    vals = profile.values
    kappa = profile.plateau
    lo_t = profile.grid.t_min + 10.0 * profile.grid.step
    above = np.where(vals >= TAIL_FRACTION * kappa)[0]
    if len(above) == 0:
        raise TailUnresolved(
            f"profile never reaches {TAIL_FRACTION:g} kappa: tail window undefined")
    hi_t = ts[above[0]]
    mask = (ts >= lo_t) & (ts < hi_t) & (vals > floor)
    if vals[0] > TAIL_FRACTION * kappa:
        raise TailUnresolved("left tail not resolved down to the window fraction")
    return mask


def _fit_k0(t, logp):
    lam, b = np.polyfit(t, logp, 1)
    res = logp - (lam * t + b)
    return float(lam), float(b), res


def _fit_k1(t, logp, lam0, b0):
    t_hi = t[-1]

    def model(params):
        lam, A, b = params
        return lam * t + np.log(np.maximum(A - t, 1e-12)) + b - logp

    span = t_hi - t[0]
    ls = optimize.least_squares(
        model, x0=[lam0, t_hi + span, b0 - math.log(span)],
        bounds=([1e-8, t_hi + 1e-9, -700.0], [50.0, 1e9, 700.0]))
    lam, A, b = ls.x
    return float(lam), float(A), float(b), ls.fun


def fit_decay(profile: WaveProfile, window: tuple[float, float] | None = None,
              floor: float | None = None) -> DecayFit:
    """Fit the left-tail decay law over ``window`` (default: resolved tail).

    The default window runs from 10 grid steps above t_min to the first
    crossing of 0.01 kappa, dropping values at or below the noise floor
    (iteration-tolerance scale).
    """
    ts = profile.grid.ts
    vals = profile.values
    if floor is None:
        fu = profile.convergence.get("final_update", 0.0)
        floor = max(1e-13, 30.0 * fu)
    if window is None:
        mask = _default_window(profile, floor)
    else:
        t_a, t_b = window
        mask = (ts >= t_a) & (ts <= t_b)
        if np.any(vals[mask] <= 0.0):
            raise NonPositiveTail("window contains non-positive values")
    if int(mask.sum()) < 30:
        raise TailUnresolved(f"only {int(mask.sum())} window points; need >= 30")
    t = ts[mask]
    p = vals[mask]
    if np.any(p <= 0.0):
        raise NonPositiveTail("window contains non-positive values")
    logp = np.log(p)

    lam0, b0, res0 = _fit_k0(t, logp)
    r0 = float(np.sqrt(np.mean(res0 ** 2)))
    lam1, A1, b1, res1 = _fit_k1(t, logp, lam0, b0)
    r1 = float(np.sqrt(np.mean(res1 ** 2)))

    if r1 <= PARSIMONY * r0:
        k, lam, b = 1, lam1, b1
        res = res1
        m = -b / lam
        a = A1 - m
        rms = r1
    else:
        k, lam, b = 0, lam0, b0
        res = res0
        m = -b / lam
        a = 0.0
        rms = r0
    if lam <= 0:
        raise TailUnresolved(f"fitted rate {lam:g} is not positive")
    return DecayFit(lambda_hat=float(lam), k_hat=k, a=float(a), m=float(m),
                    window=(float(t[0]), float(t[-1])),
                    residual_sup=float(np.max(np.abs(res))), residual_l2=rms,
                    b=float(b))


def max_supported_delta(sd: SpectralData, alpha: float) -> float:
    """Largest remainder gap the decay representation can carry.

    The remainder after the leading term collects the next real zero and
    the first nonlinear harmonic of the tail, so delta must stay below
    min(alpha * lambda_l, lambda_r - lambda_l, gamma_K - lambda_l).
    """
    gaps = [alpha * sd.lambda_l, sd.gamma_K - sd.lambda_l]
    if sd.lambda_r is not None and not sd.critical:
        gaps.append(sd.lambda_r - sd.lambda_l)
    return min(gaps)


@dataclass(frozen=True)
class RepresentationReport:
    passed: bool
    slope: float
    sup_r: float
    l2_r: float
    delta: float
    window: tuple[float, float]
    l2_refined: float | None = None
    stable: bool | None = None
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "pass": self.passed, "slope": self.slope, "sup_r": self.sup_r,
            "l2_r": self.l2_r, "delta": self.delta, "window": list(self.window),
            "l2_refined": self.l2_refined, "stable": self.stable, "notes": self.notes,
        }


def _remainder_r(profile: WaveProfile, delta: float, floor: float):
    """(t, r(t)) with the fitted main term subtracted and e^{-(lam+delta)t} applied.

    Two-stage windowing: the main term is refitted on the deepest part of
    the decay window (where any higher-order term is negligible), the
    remainder is then examined on the shallow part where it is genuine
    signal above the noise floor.
    """
    fit = fit_decay(profile, floor=floor)
    ts = profile.grid.ts
    vals = profile.values
    t_a, t_b = fit.window
    mask = (ts >= t_a) & (ts <= t_b) & (vals > 0)
    t = ts[mask]
    p = vals[mask]
    logp = np.log(p)
    lo, hi = logp.min(), logp.max()
    deep = logp <= lo + 0.4 * (hi - lo)
    shallow = ~deep
    if int(deep.sum()) < 10 or int(shallow.sum()) < 10:
        deep = np.ones_like(deep, dtype=bool)
        shallow = deep
    if fit.k_hat == 0:
        lam, b, _ = _fit_k0(t[deep], logp[deep])
        main = np.exp(lam * t + b)
    else:
        lam, A, b, _ = _fit_k1(t[deep], logp[deep], fit.lambda_hat, fit.b)
        main = np.exp(lam * t + b) * np.maximum(A - t, 1e-300)
    rem = p - main
    keep = shallow & (np.abs(rem) > floor)
    r = rem * np.exp(-(lam + delta) * (t - t[-1]))  # normalized at the window end
    return fit, t[keep], r[keep]


def check_representation(profile: WaveProfile, sd: SpectralData, delta: float,
                         refined: WaveProfile | None = None) -> RepresentationReport:
    """Test the remainder law phi(t+m) - (a-t)^k e^{lam t} = e^{(lam+delta)t} r(t).

    PASS requires log |r| to have no leftward growth trend (slope of the
    linear fit >= -SLOPE_EPS) and, when a refined profile is supplied, the
    discrete L2 norm of r to be grid-stable within 20%.  Values below
    max(1e-12, 30 * final update) are noise and are left out.

    delta is meaningful only up to max_supported_delta(sd, alpha), with
    alpha the Holder exponent of the nonlinearity.  On a genuine wave a
    delta above that cap yields FAIL with slope ~ cap - delta, since the
    remainder then carries the nonlinear harmonic or the next real zero.
    The ValueError guard covers only gamma_K - lambda_l, because this
    function is not given alpha.
    """
    if not 0.0 < delta < sd.gamma_K - sd.lambda_l:
        raise ValueError(f"delta must lie in (0, {sd.gamma_K - sd.lambda_l:g})")
    fu = profile.convergence.get("final_update", 0.0)
    floor = max(1e-12, 30.0 * fu)
    notes = []
    fit, t, r = _remainder_r(profile, delta, floor)
    if len(t) < 10:
        return RepresentationReport(passed=False, slope=math.nan, sup_r=math.nan,
                                    l2_r=math.nan, delta=delta,
                                    window=fit.window,
                                    notes="remainder below noise floor everywhere")
    slope = float(np.polyfit(t, np.log(np.abs(r)), 1)[0])
    sup_r = float(np.max(np.abs(r)))
    l2 = float(np.sqrt(integrate.trapezoid(r * r, t)))
    passed = slope >= -SLOPE_EPS

    l2_ref = None
    stable = None
    if refined is not None:
        fu_ref = refined.convergence.get("final_update", 0.0)
        _, t2, r2 = _remainder_r(refined, delta, max(1e-12, 30.0 * fu_ref))
        if len(t2) >= 10:
            l2_ref = float(np.sqrt(integrate.trapezoid(r2 * r2, t2)))
            stable = abs(l2_ref - l2) <= 0.2 * max(l2, l2_ref)
            passed = passed and stable
        else:
            notes.append("refined remainder below noise floor")
    return RepresentationReport(passed=passed, slope=slope, sup_r=sup_r, l2_r=l2,
                                delta=delta, window=(float(t[0]), float(t[-1])),
                                l2_refined=l2_ref, stable=stable,
                                notes="; ".join(notes))


def psi_integral(profile: WaveProfile, fit: DecayFit | None = None) -> np.ndarray:
    """psi(t) = integral_{-inf}^t phi, cumulative trapezoid plus the tail closure.

    The mass left of the grid is closed analytically as phi(t_min)/lambda,
    using the fitted decay rate.
    """
    vals = profile.values
    kappa = profile.plateau
    if vals[0] > TAIL_FRACTION * kappa:
        raise TailUnresolved("left tail not resolved; psi would miss mass")
    if fit is None:
        fit = fit_decay(profile)
    tail = vals[0] / fit.lambda_hat
    out = integrate.cumulative_trapezoid(vals, profile.grid.ts, initial=0.0)
    return out + tail
