"""Semi-wavefront profiles by relaxed fixed-point iteration on a truncated grid.

The wave operator N[phi](t) = sum_tau integral K(s,tau) g(phi(t-s),tau) ds
is applied one kernel factor at a time through ``convolve_field``; each
kernel shape defines its own grid action in :mod:`wavefront.kernels`.  The
atoms whose kernels share an outer factor (the inverted differential part
of the model, in three of the four families) are summed before it, so a
sweep applies each outer kernel once, to the summed inner fields.

Plain iteration of the truncated operator bleeds the marginal left-tail
mode through the boundary (the profile then slides rightward and
collapses), so the solver iterates with a tail-transparent left closure
(exponential extension at the discrete decay rate) and pins the phase at
a fixed level crossing each sweep.  Each sweep is
phi <- (1 - theta) phi + theta N[phi] with theta = ``p.relaxation``: 1 where
N is order-preserving on [0, kappa], falling toward 0 as the negative
slopes of the atoms near the plateau grow.  The reported residual is always
measured against the plain operator with the zero left closure.

Whether a wave exists is decided by chi alone: with no positive zero of
chi there is no semi-wavefront, and the solver says so before any sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._json import write_csv
from .charfun import _left_zero
from .errors import (MaxIterExceeded, NegativeValues, NoCrossing, NoWave,
                     TailUnresolved)
from .kernels import _shift, convolve_field
from .models import ConvolutionProblem

__all__ = [
    "Grid",
    "WaveProfile",
    "SolveOptions",
    "CappedExponential",
    "default_init",
    "apply_operator",
    "solve_profile",
    "residual",
    "discrete_decay_rate",
    "level_crossing",
    "SOLVE_FAILURES",
]


PIN_FRACTION = 0.5
# a settled shape whose pin drifts more than theta * this * step per sweep
# is not converged (a sweep moves the pin theta times as far as a unit of
# pseudo-time): genuine waves drift O(step^2) per sweep (up to ~1e-3 step
# at critical speed on coarse grids)
DRIFT_GATE_STEPS = 0.04
# settled sweeps of pin drift above the gate that back a TailUnresolved verdict
TRANSLATION_WINDOW = 50
# points at each grid edge that the closure reaches: the residual, the
# profile alignment and the default decay-fit window leave them out
EDGE_POINTS = 10
# the verdicts of a solve that ran and did not resolve a profile: ``solve``
# and ``verify`` report each of them in their artifact and exit 1
SOLVE_FAILURES = (NoWave, MaxIterExceeded, NegativeValues, TailUnresolved)


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

    @cached_property
    def ts(self) -> np.ndarray:
        """The grid points, one read-only array per Grid."""
        ts = np.linspace(self.t_min, self.t_max, self.n)
        ts.setflags(write=False)
        return ts


@dataclass
class WaveProfile:
    """Grid-sampled profile with speed, plateau and convergence metadata."""

    grid: Grid
    values: np.ndarray
    speed: float
    plateau: float
    convergence: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        write_csv(path, "t,phi", self.grid.ts, self.values)

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

    Each outer kernel of ``p.outer_groups`` acts once, on the sum of its
    atoms' inner fields: every grid action is linear, closures included,
    so this is the sum of the atoms' actions up to rounding.  The public
    closure is phi := 0 left of the grid and phi := phi(t_max) right of
    it (lam_left=None); the solver passes its tail rate instead.
    """
    ts = grid.ts
    out = np.zeros_like(values)
    for outer, terms in p.outer_groups:
        rhs = None
        for inner, g in terms:
            G = np.asarray(g(values), dtype=float)
            if inner is not None:
                G = convolve_field(inner, ts, G, lam_left)
            rhs = G if rhs is None else rhs + G
        out += convolve_field(outer, ts, rhs, lam_left)
    return out


def residual(p: ConvolutionProblem, profile: WaveProfile) -> float:
    """sup |phi - N[phi]| off the EDGE_POINTS at each end, N with the zero left closure."""
    vals = profile.values
    out = apply_operator(p, vals, profile.grid, lam_left=None)
    sl = slice(EDGE_POINTS, len(vals) - EDGE_POINTS)
    return float(np.max(np.abs(vals - out)[sl]))


def level_crossing(ts: np.ndarray, values: np.ndarray, level: float) -> float:
    """First upcrossing of ``level`` from the left, sub-grid by interpolation."""
    above = np.where(values >= level)[0]
    if len(above) == 0:
        raise NoCrossing(f"profile never reaches level {level:g}")
    i = above[0]
    if i == 0:
        return float(ts[0])
    f = (level - values[i - 1]) / (values[i] - values[i - 1])
    return float(ts[i - 1] + f * (ts[i] - ts[i - 1]))


def discrete_decay_rate(p: ConvolutionProblem, grid: Grid) -> float:
    """Decay rate selected by the discretized linear operator.

    The left zero (or tangency point) of the grid-level characteristic
    function chi_h(lam) = 1 - sum_tau g'(0,tau) T_h[K_tau](lam), where
    T_h = ``kernel.grid_laplace(lam, step)`` is the factor by which the
    kernel's grid action multiplies e^{lam t}: no field and no grid sweep.
    Every grid action is a positive discrete kernel, so chi_h is concave
    like chi, and ``real_roots``' search (:func:`~wavefront.charfun._left_zero`)
    finds it.  This is the rate the discrete profile tail adopts, within
    O(step^2) of the analytic lambda_l.
    """
    dt = grid.step

    def chi_h(lam: float) -> float:
        return 1.0 - sum(a.weight * a.kernel.grid_laplace(lam, dt) for a in p.atoms)

    return _left_zero(chi_h, p.charfun().strip[1])[2]


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


def default_init(p: ConvolutionProblem) -> CappedExponential:
    """min(e^{lambda_l t}, kappa/2), the initial profile of ``solve`` and of verify's probe.

    Below c* chi has no lambda_l, and the rate 1 stands in: the solve
    then reports NoWave.
    """
    kappa = p.equilibrium()
    lam = p.spectral.lambda_l if p.spectral is not None else 1.0
    return CappedExponential(rate=lam, cap=kappa / 2.0)


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 20000

    def __post_init__(self):
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
    """Relaxed fixed-point iteration phi <- (1-theta) phi + theta N[phi], theta = p.relaxation.

    A semi-wavefront needs a positive zero of chi (the Diekmann-Kaper
    necessity condition), so when ``p.spectral is None`` the verdict is
    ``NoWave`` before the first sweep, once the initial profile has passed
    its shape and sign checks; an all-zero initial profile is ``NoWave``
    too.  These are the only ``NoWave`` verdicts.  Otherwise a wave exists,
    and every failure to resolve it on the truncated grid raises
    ``TailUnresolved``: a shape that settles while the pin keeps
    translating for ``TRANSLATION_WINDOW`` sweeps, iterates that collapse
    to zero or fall below the pinning level, and a converged constant or
    unresolved left tail; a left margin t_min > -5 / lambda_l raises it
    before the first sweep.  ``MaxIterExceeded`` carries the best-effort
    profile.

    Each solve finds its tail closure rate with :func:`discrete_decay_rate`;
    theta is cached on the problem.  The pin must drift at most
    theta * DRIFT_GATE_STEPS grid steps per sweep to count as settled.
    """
    ts = grid.ts
    kappa = p.equilibrium()
    values = _init_values(init, grid)
    if np.any(values < 0):
        raise NegativeValues("initial profile has negative values")
    if p.spectral is None:
        raise NoWave(f"no positive zero of chi: no semi-wavefront at speed {p.speed:g}")
    # anchor below both the equilibrium and the initial range so the
    # crossing exists from the first sweep on
    pin_level = PIN_FRACTION * min(kappa, float(np.max(values)))
    if not pin_level > 0.0:
        raise NoWave("initial profile is identically zero, which is no semi-wavefront")
    pin_at = level_crossing(ts, values, pin_level)

    lam_base = p.spectral.lambda_l
    if grid.t_min > -5.0 / lam_base:
        raise TailUnresolved(
            f"left margin too small: need t_min <= {-5.0 / lam_base:g} for tail closure")

    lam_left = discrete_decay_rate(p, grid)

    theta = p.relaxation
    update = math.inf
    drift = 0.0
    drift_gate = theta * DRIFT_GATE_STEPS * grid.step
    translating_sweeps = 0
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        new = (1.0 - theta) * values + theta * apply_operator(p, values, grid, lam_left)
        if float(np.min(new)) < -1e-10 * max(1.0, kappa):
            raise NegativeValues(
                f"iteration produced negative values (min {float(np.min(new)):g})")
        if float(np.max(new)) < 1e-10 * kappa:
            raise TailUnresolved("iterates collapsed to zero")
        try:
            drift = level_crossing(ts, new, pin_level) - pin_at
        except NoCrossing:
            raise TailUnresolved("iterates fell below the pinning level") from None
        new = _shift(ts, new, -drift, lam_left)
        update = float(np.max(np.abs(new - values)))
        values = new
        if update < opts.tol:
            # a settled shape must also stop translating
            if abs(drift) <= drift_gate:
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
        "closure_rate": lam_left,
        "final_drift": drift,
        "relaxation": theta,
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
        raise TailUnresolved(f"iterates converged to a constant ({vmax:g})")
    if values[0] > 1e-3 * kappa:
        raise TailUnresolved(
            f"left tail unresolved: phi(t_min) = {values[0]:g} > 1e-3 kappa")

    meta["residual"] = residual(p, profile)
    return profile
