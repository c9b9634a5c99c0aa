"""Semi-wavefront profiles by damped fixed-point iteration on a truncated grid.

The wave operator N[phi](t) = sum_tau integral K(s,tau) g(phi(t-s),tau) ds
is applied kernel-by-kernel through ``convolve_field``; each kernel shape
defines its own grid action in :mod:`wavefront.kernels`.

Plain iteration of the truncated operator bleeds the marginal left-tail
mode through the boundary (the profile then slides rightward and
collapses), so the solver iterates with a tail-transparent left closure
(exponential extension at the discrete decay rate) and pins the phase at
a fixed level crossing each sweep.  The reported residual is always
measured against the plain operator with the zero left closure.

Whether a wave exists is decided by chi alone: with no positive zero of
chi there is no semi-wavefront, and the solver says so before any sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._scalar import brentq
from .charfun import _concave_max
from .errors import (MaxIterExceeded, NegativeValues, NoCrossing, NoWave,
                     TailUnresolved)
from .kernels import _shifted, convolve_field
from .models import ConvolutionProblem

__all__ = [
    "Grid",
    "WaveProfile",
    "SolveOptions",
    "CappedExponential",
    "apply_operator",
    "solve_profile",
    "residual",
    "discrete_decay_rate",
    "level_crossing",
]


PIN_FRACTION = 0.5
# a settled shape whose pin drifts more than this * step per sweep is not
# converged: genuine waves drift O(step^2) per sweep (up to ~1e-3 step at
# critical speed on coarse grids)
DRIFT_GATE_STEPS = 0.02
# settled sweeps of pin drift above the gate that back a TailUnresolved verdict
TRANSLATION_WINDOW = 50
# grid points left out of the residual at each edge
RESIDUAL_MARGIN = 10


@dataclass(frozen=True)
class Grid:
    """Uniform grid t_min = t_0 < ... < t_{n-1} = t_max with t_min < 0 < t_max."""

    t_min: float
    t_max: float
    n: int

    def __post_init__(self):
        if not -math.inf < self.t_min < 0.0 < self.t_max < math.inf:
            raise ValueError("need finite t_min < 0 < t_max")
        if self.n < 64:
            raise ValueError("need at least 64 grid points")

    @property
    def step(self) -> float:
        return (self.t_max - self.t_min) / (self.n - 1)

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n)


@dataclass
class WaveProfile:
    """Grid-sampled profile with speed, plateau and convergence metadata."""

    grid: Grid
    values: np.ndarray
    speed: float
    plateau: float
    convergence: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        ts = self.grid.ts
        with open(path, "w") as fh:
            fh.write("t,phi\n")
            for t, v in zip(ts, self.values):
                fh.write(f"{t:.17g},{v:.17g}\n")

    def meta_dict(self) -> dict:
        return {
            "speed": self.speed,
            "plateau": self.plateau,
            "grid": {"t_min": self.grid.t_min, "t_max": self.grid.t_max, "n": self.grid.n},
            "convergence": dict(self.convergence),
        }


# ---------------------------------------------------------------------------
# the wave operator


def apply_operator(p: ConvolutionProblem, values: np.ndarray, grid: Grid,
                   lam_left: float | None = None) -> np.ndarray:
    """One application of the wave operator on grid values.

    The public closure is phi := 0 left of the grid and phi := phi(t_max)
    right of it (lam_left=None); the solver passes its tail rate instead.
    """
    ts = grid.ts
    out = np.zeros_like(values)
    for atom in p.atoms:
        G = np.asarray(atom.nonlinearity(values), dtype=float)
        out += convolve_field(atom.kernel, ts, G, lam_left)
    return out


def residual(p: ConvolutionProblem, profile: WaveProfile) -> float:
    """sup |phi - N[phi]| off the RESIDUAL_MARGIN edge points, N with the zero left closure."""
    vals = profile.values
    out = apply_operator(p, vals, profile.grid, lam_left=None)
    sl = slice(RESIDUAL_MARGIN, len(vals) - RESIDUAL_MARGIN)
    return float(np.max(np.abs(vals - out)[sl]))


def level_crossing(ts: np.ndarray, values: np.ndarray, level: float) -> float:
    """First upcrossing of ``level`` from the left, sub-grid by interpolation."""
    above = np.where(values >= level)[0]
    if len(above) == 0 or above[0] == 0:
        if len(above) and above[0] == 0:
            return float(ts[0])
        raise NoCrossing(f"profile never reaches level {level:g}")
    i = above[0]
    f = (level - values[i - 1]) / (values[i] - values[i - 1])
    return float(ts[i - 1] + f * (ts[i] - ts[i - 1]))


def discrete_decay_rate(p: ConvolutionProblem, grid: Grid,
                        lam_guess: float) -> float:
    """Decay rate selected by the discretized linear operator.

    Applies the linearization (weights g'(0,tau)) to pure exponential
    fields and root-finds the grid-level characteristic function; this is
    the rate the discrete profile tail actually adopts, within O(step^2)
    of the analytic lambda_l.  Falls back to the tangency point when the
    discretization just misses a double root.
    """
    ts = grid.ts
    mid = grid.n // 2

    def chi_h(lam: float) -> float:
        fieldv = np.exp(np.minimum(lam * (ts - ts[mid]), 700.0))
        acc = 0.0
        for atom in p.atoms:
            out = convolve_field(atom.kernel, ts, fieldv, lam)
            acc += atom.weight * out[mid]
        return 1.0 - acc

    _, gamma = p.charfun().strip
    hi = min(1.7 * lam_guess, gamma - 1e-9 * max(1.0, abs(gamma))) \
        if math.isfinite(gamma) else 1.7 * lam_guess
    lo = 0.3 * lam_guess
    if not lo < hi:
        return lam_guess
    xhat, fmax = _concave_max(chi_h, lo, hi)
    if fmax <= 0.0:
        return float(xhat)
    if chi_h(lo) >= 0.0:
        return lam_guess
    return brentq(chi_h, lo, xhat, xtol=1e-14)


# ---------------------------------------------------------------------------
# fixed-point solver


@dataclass(frozen=True)
class CappedExponential:
    """Initial guess min(e^{rate t}, cap), informed by the expected decay law."""

    rate: float
    cap: float

    def on(self, grid: Grid) -> np.ndarray:
        t = grid.ts
        return np.minimum(np.exp(np.minimum(self.rate * t, 700.0)), self.cap)


@dataclass(frozen=True)
class SolveOptions:
    damping: float = 0.5
    tol: float = 1e-8
    max_iter: int = 5000

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not 0.0 < self.tol < math.inf or self.max_iter < 1:
            raise ValueError("tol must be positive and finite, and max_iter >= 1")


def _init_values(init, grid: Grid) -> np.ndarray:
    if isinstance(init, CappedExponential):
        return init.on(grid)
    vals = np.asarray(init, dtype=float)
    if vals.shape != (grid.n,):
        raise ValueError(f"init array must have shape ({grid.n},)")
    return vals.copy()


def solve_profile(p: ConvolutionProblem, grid: Grid, init,
                  opts: SolveOptions = SolveOptions()) -> WaveProfile:
    """Damped fixed-point iteration phi <- (1-theta) phi + theta N[phi].

    A semi-wavefront needs a positive zero of chi (the Diekmann-Kaper
    necessity condition), so when ``p.spectral is None`` the verdict is
    ``NoWave`` before the first sweep, once the initial profile has passed
    its shape and sign checks.  Otherwise a wave exists, and a shape that
    settles while the pin keeps translating for ``TRANSLATION_WINDOW``
    sweeps is a resolution failure of the truncated grid: it raises
    ``TailUnresolved``.  ``NoWave`` is also raised on collapse to zero or a
    constant and on an unresolved left tail after convergence;
    ``MaxIterExceeded`` carries the best-effort profile.
    """
    ts = grid.ts
    kappa = p.equilibrium()
    values = _init_values(init, grid)
    if np.any(values < 0):
        raise NegativeValues("initial profile has negative values")
    if p.spectral is None:
        raise NoWave(f"no positive zero of chi: no semi-wavefront at speed {p.speed:g}")

    lam_base = p.spectral.lambda_l
    if grid.t_min > -5.0 / lam_base:
        raise ValueError(
            f"left margin too small: need t_min <= {-5.0 / lam_base:g} for tail closure")

    lam_left = discrete_decay_rate(p, grid, lam_base)

    theta = opts.damping
    # anchor below both the equilibrium and the initial range so the
    # crossing exists from the first sweep on
    pin_level = PIN_FRACTION * min(kappa, float(np.max(values)))
    pin_at = None
    if pin_level > 0.0:
        pin_at = level_crossing(ts, values, pin_level)

    update = math.inf
    drift = 0.0
    drift_gate = DRIFT_GATE_STEPS * grid.step
    translating_sweeps = 0
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        new = (1.0 - theta) * values + theta * apply_operator(p, values, grid, lam_left)
        if float(np.min(new)) < -1e-10 * max(1.0, kappa):
            raise NegativeValues(
                f"iteration produced negative values (min {float(np.min(new)):g})")
        if float(np.max(new)) < 1e-10 * kappa:
            raise NoWave("iterates collapsed to zero")
        if pin_at is not None:
            try:
                drift = level_crossing(ts, new, pin_level) - pin_at
            except NoCrossing:
                raise NoWave("iterates fell below the pinning level") from None
            new = _shifted(ts, new, -drift, lam_left)
        update = float(np.max(np.abs(new - values)))
        values = new
        if update < opts.tol:
            # a settled shape must also stop translating
            if pin_at is None or abs(drift) <= drift_gate:
                converged = True
                break
            translating_sweeps += 1
        else:
            translating_sweeps = 0
        if translating_sweeps >= TRANSLATION_WINDOW:
            break

    meta = {
        "iterations": iterations,
        "final_update": update,
        "damping": theta,
        "pinned": pin_at is not None,
        "closure_rate": lam_left,
        "final_drift": drift,
    }
    profile = WaveProfile(grid=grid, values=values, speed=p.speed,
                          plateau=kappa, convergence=meta)

    if not converged:
        if translating_sweeps > 0:
            raise TailUnresolved(
                f"profile settles while translating ({drift:+.3g} per sweep over "
                f"{translating_sweeps} sweeps, sweep {iterations}) although chi has a "
                f"positive zero, so a wave exists that this grid does not "
                f"resolve (phi(t_min)/kappa = {values[0] / kappa:.3g})")
        raise MaxIterExceeded(
            f"update {update:g} above tol {opts.tol:g} after {iterations} iterations",
            profile=profile)

    vmax, vmin = float(np.max(values)), float(np.min(values))
    if vmax - vmin < 1e-6 * max(vmax, kappa):
        raise NoWave(f"iterates converged to a constant ({vmax:g})")
    if values[0] > 1e-3 * kappa:
        raise NoWave(
            f"left tail unresolved: phi(t_min) = {values[0]:g} > 1e-3 kappa")

    meta["residual"] = residual(p, profile)
    return profile
