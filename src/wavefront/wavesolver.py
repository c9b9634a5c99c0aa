"""Semi-wavefront profiles by relaxed fixed-point iteration on a truncated grid.

The wave operator N[phi](t) = sum_tau integral K(s,tau) g(phi(t-s),tau) ds
is applied one kernel factor at a time through ``convolve_field``; each
kernel shape defines its own grid action in :mod:`wavefront.kernels`, on
the uniform :class:`~wavefront.kernels.Grid` defined there.  The
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

A :class:`PinnedMap`, built once per (problem, grid, init), holds the
closure rate, the pin and theta, and sweeps an array into one the caller
owns.  :func:`solve_profile`, a two-step (heavy-ball) driver that owns
every iterate (Polyak 1964; Golub and Varga 1961), feeds it y + beta (y -
y_prev) once the transient is over, with beta below the bound 1 / ell that
keeps the relaxed map's most negative mode stable, and stops only after
SETTLE_SWEEPS settled sweeps in a row.
:func:`_failure` turns the driver's last state into its verdict.

Whether a wave exists is decided by chi alone: with no positive zero of
chi there is no semi-wavefront, and the solver says so before any sweep.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._json import row_format, write_csv
from .charfun import _left_zero
from .errors import (MaxIterExceeded, NegativeValues, NoCrossing, NoWave,
                     TailUnresolved)
from .kernels import Grid, _apply_taps, _check_count, _check_param, _check_samples, _taps, convolve_field
from .models import ConvolutionProblem

__all__ = [
    "Grid",
    "WaveProfile",
    "SolveOptions",
    "CappedExponential",
    "default_init",
    "apply_operator",
    "PinnedMap",
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
# consecutive settled sweeps (update below tol, drift within the gate) that
# make a converged profile: one such sweep can be a dip of the update
SETTLE_SWEEPS = 5
# the update below which the transient is over and the driver extrapolates
EXTRAPOLATE_BELOW = 1e-3
# the heavy-ball weight where the relaxed map has no negative slope to respect
EXTRAPOLATION_CAP = 0.3
# points at each grid edge that the closure reaches: the residual, the
# profile alignment and the default decay-fit window leave them out
EDGE_POINTS = 10
# the verdicts of a solve that ran and did not resolve a profile: ``solve``
# and ``verify`` report each of them in their artifact and exit 1
SOLVE_FAILURES = (NoWave, MaxIterExceeded, NegativeValues, TailUnresolved)


@functools.lru_cache(maxsize=8)
def _profile_rows(grid: Grid) -> str:
    """The rows of a profile.csv on ``grid``, its t column filled in (~0.1 MB at n = 4,096).

    Built on the first write on a grid, never at import; equal grids share
    one entry.
    """
    return row_format(grid.ts)


@dataclass
class WaveProfile:
    """Grid-sampled profile with speed, plateau and convergence metadata."""

    grid: Grid
    values: np.ndarray
    speed: float
    plateau: float
    convergence: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Write ``t,phi`` and one row per grid point, each value as '%.17g'.

        The t column's text is formatted once per grid and reused by later
        writes on an equal grid, so such a write formats only the values.
        """
        if len(self.values) != self.grid.n:
            raise ValueError(f"profile has {len(self.values)} values on a grid "
                             f"of {self.grid.n} points")
        write_csv(path, "t,phi", _profile_rows(self.grid), self.values)

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
    so this is the sum of the atoms' actions up to rounding.  The sum
    starts from the first group's field: every grid action returns a
    fresh array, so the result is the caller's to overwrite.  The public
    closure is phi := 0 left of the grid and phi := phi(t_max) right of
    it (lam_left=None); the solver passes its tail rate instead.
    """
    out = None
    for outer, terms in p.outer_groups:
        rhs = None
        for inner, g in terms:
            G = np.asarray(g(values), dtype=float)
            if inner is not None:
                G = convolve_field(inner, grid, G, lam_left)
            rhs = G if rhs is None else rhs + G
        H = convolve_field(outer, grid, rhs, lam_left)
        if out is None:
            out = H
        else:
            out += H
    return out


def residual(p: ConvolutionProblem, profile: WaveProfile) -> float:
    """sup |phi - N[phi]| off the EDGE_POINTS at each end, N with the zero left closure."""
    vals = profile.values
    out = apply_operator(p, vals, profile.grid, lam_left=None)
    sl = slice(EDGE_POINTS, len(vals) - EDGE_POINTS)
    return float(np.max(np.abs(vals - out)[sl]))


def level_crossing(ts: np.ndarray, values: np.ndarray, level: float) -> float:
    """First upcrossing of ``level`` from the left, sub-grid by interpolation."""
    above = values >= level
    i = int(np.argmax(above))
    if not above[i]:
        raise NoCrossing(f"profile never reaches level {level:g}")
    if i == 0:
        return float(ts[0])
    f = (level - values[i - 1]) / (values[i] - values[i - 1])
    return float(ts[i - 1] + f * (ts[i] - ts[i - 1]))


def discrete_decay_rate(p: ConvolutionProblem, grid: Grid) -> float:
    """Decay rate selected by the discretized linear operator.

    The left zero (or tangency point) of the grid-level characteristic
    function chi_h(lam) = 1 - sum_tau g'(0,tau) T_h[K_tau](lam), where
    T_h = ``kernel.grid_laplace(lam, grid)`` is the factor by which the
    kernel's grid action multiplies e^{lam t}: no field and no grid sweep.
    It reads each kernel's zero-closure plan on ``grid``, which the
    residual acts with too.
    Every grid action is a positive discrete kernel, so chi_h is concave
    like chi, and ``real_roots``' search (:func:`~wavefront.charfun._left_zero`)
    finds it.  This is the rate the discrete profile tail adopts, within
    O(step^2) of the analytic lambda_l.  It is found once per problem and
    grid step, so verify's two solves share it.
    """
    dt = grid.step
    # kept on the problem, whose atoms are fixed
    rates = vars(p).setdefault("_decay_rates", {})
    if dt not in rates:
        def chi_h(lam: float) -> float:
            return 1.0 - sum(a.weight * a.kernel.grid_laplace(lam, grid) for a in p.atoms)

        rates[dt] = _left_zero(chi_h, p.charfun().strip[1])[2]
    return rates[dt]


# ---------------------------------------------------------------------------
# fixed-point solver


@dataclass(frozen=True)
class CappedExponential:
    """Initial guess min(e^{rate t}, cap), informed by the expected decay law."""

    rate: float
    cap: float

    def __post_init__(self):
        _check_param("rate", self.rate)
        _check_param("cap", self.cap)

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
        _check_param("tol", self.tol)
        _check_count("max_iter", self.max_iter, 1)


def _init_values(init, grid: Grid) -> np.ndarray:
    """A fresh array of the initial profile: a CappedExponential on ``grid``, or a checked float copy."""
    if isinstance(init, CappedExponential):
        return init.on(grid)
    vals = _check_samples("init array", init)
    if vals.shape != (grid.n,):
        raise ValueError(f"init array must have shape ({grid.n},)")
    return vals


class PinnedMap:
    """The pinned sweep phi -> S[(1 - theta) phi + theta N[phi]], a function of phi.

    Built once per (problem, grid, init), after the checks that need no
    sweep: the initial profile's shape, finiteness and sign, the existence
    verdict of chi, a nonzero initial profile and the left margin.  It holds
    theta, the closure rate, the pin level PIN_FRACTION * min(kappa,
    max phi_0), its first crossing t_pin and the profile phi_0 itself as
    ``initial``, which it never writes: it keeps no iterate.  S shifts the
    relaxed sweep back so that it crosses the pin level at t_pin again.
    """

    def __init__(self, p: ConvolutionProblem, grid: Grid, init):
        self.p, self.grid = p, grid
        self.kappa = kappa = p.equilibrium()
        values = _init_values(init, grid)
        if np.any(values < 0):
            raise NegativeValues("initial profile has negative values")
        if p.spectral is None:
            raise NoWave(f"no positive zero of chi: no semi-wavefront at speed {p.speed:g}")
        # anchor below both the equilibrium and the initial range so the
        # crossing exists from the first sweep on
        self.pin_level = PIN_FRACTION * min(kappa, float(np.max(values)))
        if not self.pin_level > 0.0:
            raise NoWave("initial profile is identically zero, which is no semi-wavefront")
        self.t_pin = level_crossing(grid.ts, values, self.pin_level)
        lam_base = p.spectral.lambda_l
        if grid.t_min > -5.0 / lam_base:
            raise TailUnresolved(
                f"left margin too small: need t_min <= {-5.0 / lam_base:g} for tail closure")
        self.closure_rate = discrete_decay_rate(p, grid)
        self.theta = p.relaxation
        self.initial = values

    def step(self, phi: np.ndarray, out: np.ndarray) -> tuple[float, float, float]:
        """One sweep of ``phi``, which it only reads, into ``out``, which must not be ``phi``.

        Returns (update, drift, min): the sup-norm change from phi to the
        pinned iterate, the pin crossing's drift before the shift back, and
        the minimum of the relaxed sweep.  A sweep with negative values
        raises NegativeValues, one that collapses to zero or misses the pin
        level raises TailUnresolved, and ``out`` then holds no iterate.
        """
        lam, grid = self.closure_rate, self.grid
        new = apply_operator(self.p, phi, grid, lam)
        if self.theta != 1.0:
            # at theta = 1 the blend 0 phi + 1 N is N, up to the sign of a zero
            np.multiply(phi, 1.0 - self.theta, out=out)
            new *= self.theta
            new += out
        low = float(new.min())
        if low < -1e-10 * max(1.0, self.kappa):
            raise NegativeValues(f"iteration produced negative values (min {low:g})")
        # a max below the floor misses a pin above it: max waits for the miss there
        floor = 1e-10 * self.kappa
        if self.pin_level < floor and float(new.max()) < floor:
            raise TailUnresolved("iterates collapsed to zero")
        try:
            drift = level_crossing(grid.ts, new, self.pin_level) - self.t_pin
        except NoCrossing:
            raise TailUnresolved("iterates collapsed to zero" if float(new.max()) < floor
                                 else "iterates fell below the pinning level") from None
        # a zero drift is a bitwise copy; the spent blend is the update's scratch
        _apply_taps(new, _taps(grid, -drift, lam), out)
        np.subtract(out, phi, out=new)
        update = float(np.abs(new, out=new).max())
        return update, drift, low


def _extrapolation(theta: float) -> float:
    """The driver's heavy-ball weight beta = min(0.3, 1 / (2 ell)), ell = 2 / theta - 2.

    The relaxed map's most negative mode is mu = -ell / (2 + ell), and the
    two-step iteration x <- y + beta (y - y_prev) is stable on it exactly
    when beta < 1 / ell; half that bound keeps a margin.  Where ell = 0
    (theta = 1) only the cap EXTRAPOLATION_CAP holds: at 0.4 the shipped
    local_delayed_rd stops at sweep 31, 3.1e-6 from its tol = 1e-12
    solve, against 1.5e-8 at 0.3.
    """
    ell = 2.0 / theta - 2.0
    return min(EXTRAPOLATION_CAP, 0.5 / ell) if ell > 0.0 else EXTRAPOLATION_CAP


def solve_profile(p: ConvolutionProblem, grid: Grid, init,
                  opts: SolveOptions = SolveOptions()) -> WaveProfile:
    """Two-step fixed-point iteration on phi <- (1-theta) phi + theta N[phi], theta = p.relaxation.

    A semi-wavefront needs a positive zero of chi (the Diekmann-Kaper
    necessity condition), so when ``p.spectral is None`` the verdict is
    ``NoWave`` before the first sweep, once the initial profile has passed
    its shape, finiteness and sign checks; an all-zero initial profile is
    ``NoWave`` too.  These are the only ``NoWave`` verdicts.  Otherwise a
    wave exists, and every failure to resolve it on the truncated grid
    raises ``TailUnresolved``: a shape that settles while the pin keeps
    translating for ``TRANSLATION_WINDOW`` sweeps, iterates that collapse
    to zero or fall below the pinning level, and a converged constant or
    unresolved left tail; a left margin t_min > -5 / lambda_l raises it
    before the first sweep.  ``MaxIterExceeded`` carries the best-effort
    profile.

    This is the two-step (heavy-ball) driver over one :class:`PinnedMap`,
    and it owns the arrays x, y and y_prev.  Each sweep maps x to the
    pinned iterate y, written over y_prev before the two swap; x is y,
    the last iterate, until a sweep's update falls below EXTRAPOLATE_BELOW,
    and from then on x = max(0, y + beta (y - y_prev)) with beta =
    ``_extrapolation(theta)``.  It stops once the update is below tol and
    the pin drifts at most theta * DRIFT_GATE_STEPS grid steps per sweep
    on SETTLE_SWEEPS sweeps in a row, and :func:`_failure` judges the
    state it stops in.  The profile is always the iterate y, never the
    extrapolated x.
    """
    pinned = PinnedMap(p, grid, init)
    beta = _extrapolation(pinned.theta)
    # the driver's arrays: the sweep's input phi is the extrapolated x or the iterate y
    phi = y = pinned.initial.copy()
    y_prev, x = np.empty(grid.n), np.empty(grid.n)
    drift_gate = pinned.theta * DRIFT_GATE_STEPS * grid.step
    settled_sweeps = translating_sweeps = 0
    extrapolating = converged = False
    for iterations in range(1, opts.max_iter + 1):
        update, drift, _ = pinned.step(phi, y_prev)
        y, y_prev = y_prev, y
        if update < opts.tol:
            # a settled shape must also stop translating
            if abs(drift) <= drift_gate:
                settled_sweeps += 1
                translating_sweeps = 0
            else:
                settled_sweeps = 0
                translating_sweeps += 1
        else:
            settled_sweeps = translating_sweeps = 0
        if settled_sweeps >= SETTLE_SWEEPS:
            converged = True
            break
        if translating_sweeps >= TRANSLATION_WINDOW:
            break
        extrapolating = extrapolating or update < EXTRAPOLATE_BELOW
        if extrapolating:
            np.subtract(y, y_prev, out=x)
            x *= beta
            x += y
            # only the extrapolation can go negative here: the map's own
            # NegativeValues check still judges the model's sign
            np.maximum(x, 0.0, out=x)
        phi = x if extrapolating else y

    meta = {
        "iterations": iterations,
        "final_update": update,
        "closure_rate": pinned.closure_rate,
        "final_drift": drift,
        "relaxation": pinned.theta,
        "extrapolation": beta,
    }
    profile = WaveProfile(grid=grid, values=y, speed=p.speed,
                          plateau=pinned.kappa, convergence=meta)
    failure = _failure(profile, converged, translating_sweeps, opts)
    if failure is not None:
        raise failure
    meta["residual"] = residual(p, profile)
    return profile


def _failure(profile: WaveProfile, converged: bool, translating_sweeps: int,
             opts: SolveOptions) -> Exception | None:
    """The verdict on the driver's last state: None for a resolved profile."""
    values, kappa, meta = profile.values, profile.plateau, profile.convergence
    if not converged:
        if translating_sweeps > 0:
            return TailUnresolved(
                f"profile settles while translating ({meta['final_drift']:+.3g} per sweep "
                f"over {translating_sweeps} sweeps, sweep {meta['iterations']}) although "
                f"chi has a positive zero, so a wave exists that this grid does not "
                f"resolve (phi(t_min)/kappa = {values[0] / kappa:.3g})")
        return MaxIterExceeded(
            f"update {meta['final_update']:g} above tol {opts.tol:g} after "
            f"{meta['iterations']} iterations", profile=profile)
    vmax, vmin = float(np.max(values)), float(np.min(values))
    if vmax - vmin < 1e-6 * max(vmax, kappa):
        return TailUnresolved(f"iterates converged to a constant ({vmax:g})")
    if values[0] > 1e-3 * kappa:
        return TailUnresolved(
            f"left tail unresolved: phi(t_min) = {values[0]:g} > 1e-3 kappa")
    return None
