"""Kernel components: transforms, grid action and JSON, and the grid they act on.

Every kernel here is a nonnegative integrable function K(s) with positive
mass, represented exactly enough that its transform

    T(z) = integral K(s) e^{-z s} ds

has a closed form on the maximal open strip sigma < Re z < gamma.  The
supported shapes are the analytic families used by the model reductions
(Gaussian, one-sided exponential, two-sided piecewise exponential built
from the roots nu < 0 < mu of z^2 - c z - q = 0), atomic combs, tabulated
data on a compact grid, and lazy convolutions of the above.

Each shape is one class, the only place that knows it: its transform, its
action on a grid field (``grid_convolve(grid, G, lam_left)``) and the
factor that action multiplies e^{lam t} by (``grid_laplace(lam, dt)``),
and how it is read from JSON (``shape``, ``from_dict``).  Every grid
action reads its points and step from its uniform :class:`Grid`, where
the field is closed by an exponential tail at rate ``lam_left`` (or 0) on
the left and always by its last value on the right.  There, exponential
pieces run exact O(n) linear recurrences on the piecewise-linear
interpolant, atomic combs add shifted copies, Gaussian and tabulated
densities are sampled at multiples of the grid step and applied as one
discrete convolution, summed as a blocked Toeplitz product, and a lazy
product applies its inner factor, then its outer one.  K(s - d), a delay
c h included, is K convolved with a unit point mass at d
(:func:`shift_kernel`), so a shifted copy (a comb atom or the solver's
phase pin) is one two-tap stencil on the uniform grid: a whole number of
steps moves the field by whole indices, any other shift interpolates
linearly between two neighbours, and the closure fills the points moved
in from beyond either end.

Extended-real abscissas use ``math.inf`` directly; +inf is a meaningful
value (a Gaussian converges everywhere) and is never replaced by a large
sentinel float.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import MISSING, dataclass, fields
from functools import cached_property, lru_cache, reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import EmptyStrip, OutOfStrip

INF = math.inf
# float64 machine epsilon, the rounding unit of a shift measured in steps
_EPS = np.finfo(float).eps
# k + 1 and (k + 1) / (k + 2) for k = 1..15, the terms of the series in _filon_weights
_SERIES_DIV = np.arange(2.0, 17.0)
_SERIES_C1 = _SERIES_DIV / (_SERIES_DIV + 1.0)

__all__ = [
    "Grid",
    "KernelComponent",
    "GaussianKernel",
    "OneSidedExponential",
    "PiecewiseGreen",
    "DiracComb",
    "TabulatedKernel",
    "ConvolvedKernel",
    "laplace",
    "convolve",
    "shift_kernel",
    "convolve_field",
    "load_tabulated",
    "kernel_from_dict",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid t_min = t_0 < ... < t_{n-1} = t_max with t_min < 0 < t_max.

    Every grid action reads its points ``ts`` and its ``step`` here.  The
    step is (t_max - t_min) / (n - 1), not ts[1] - ts[0], which carries
    the rounding of ts[1].
    """

    t_min: float
    t_max: float
    n: int

    def __post_init__(self):
        if not -math.inf < self.t_min < 0.0 < self.t_max < math.inf:
            raise ValueError("need finite t_min < 0 < t_max")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"grid size n must be an integer, got {self.n!r}")
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


def _common_strip(*strips) -> tuple[float, float]:
    """The intersection of the open strips (lo, hi); EmptyStrip, naming each, when it is empty."""
    lo, hi = -INF, INF
    for a, b in strips:
        # comparisons, not max/min: a third of the time, and the same first maximum
        if a > lo:
            lo = a
        if b < hi:
            hi = b
    if not lo < hi:
        raise EmptyStrip("strips " + ", ".join(f"({a:g}, {b:g})" for a, b in strips)
                         + " have no common part")
    return (lo, hi)


def _check_strip(strip, z):
    lo, hi = strip
    if isinstance(z, (int, float, complex, np.number)):
        # a scalar is its own min and max: no array reduction
        xmin = xmax = float(z.real)
    else:
        x = np.real(z)
        xmin = float(np.min(x))
        xmax = float(np.max(x))
    if xmin <= lo or xmax >= hi:
        raise OutOfStrip(
            f"Re z in [{xmin:g}, {xmax:g}] outside open strip ({lo:g}, {hi:g})"
        )


class KernelComponent:
    """Base class: one kernel K(s) and everything the package does with it.

    A new shape sets ``shape`` and implements ``mass``, ``abscissas``,
    ``laplace``, ``support``, ``grid_convolve`` and ``grid_laplace``; a
    sampled density takes the last two from ``_SampledDensity``, sets
    ``_sample_window`` and implements ``value(s)``, the pointwise density
    it samples.  A shape has no shift of its own: K(s - d) is
    :func:`shift_kernel`.
    ``from_dict`` works on any frozen dataclass of JSON-ready fields.
    """

    shape = ""

    @property
    def mass(self) -> float:
        raise NotImplementedError

    def abscissas(self) -> tuple[float, float]:
        """Endpoints (sigma, gamma) of the maximal open convergence strip."""
        raise NotImplementedError

    def laplace(self, z):
        """Transform at complex z (scalar or ndarray), Re z inside the strip."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """Closure bounds of the support (may be +-inf)."""
        raise NotImplementedError

    def grid_convolve(self, grid: Grid, G: np.ndarray, lam_left: float | None) -> np.ndarray:
        """integral K(s) G~(t - s) ds on ``grid``; see :func:`convolve_field`."""
        raise TypeError(f"no grid convolution for {type(self).__name__}")

    def grid_laplace(self, lam: float, dt: float) -> float:
        """Factor by which ``grid_convolve`` multiplies e^{lam t} on an unbounded grid of step dt.

        This is the grid-level transform at real lam inside the strip: the
        same arithmetic as ``grid_convolve`` applied to an exact exponential,
        with no array and no closure at either end.
        """
        raise TypeError(f"no grid transform for {type(self).__name__}")

    def factors(self) -> tuple["KernelComponent", "KernelComponent | None"]:
        """(outer, inner): the grid action is the inner one's, then the outer one's.

        A shape that is no product is its own outer factor, with no inner
        one.  The solver applies an outer factor that atoms share once per
        sweep, to the sum of their inner fields.
        """
        return self, None

    @classmethod
    def from_dict(cls, spec: dict, base_dir=None) -> "KernelComponent":
        """Kernel from a JSON object holding one key per dataclass field.

        Fields with a default may be left out; any key outside them (and
        ``shape``/``shift``, read by :func:`kernel_from_dict`) is an error.
        ``base_dir`` resolves a relative file path in shapes that read one.
        """
        _check_keys(spec, [f.name for f in fields(cls)])
        return cls(**{f.name: spec[f.name] for f in fields(cls)
                      if f.name in spec or f.default is MISSING})


class _SampledDensity(KernelComponent):
    """A density sampled on the grid (:func:`_lumped_samples`) over its ``_sample_window()``."""

    def grid_convolve(self, grid, G, lam_left):
        return _sampled_convolve(self, grid, G, lam_left)

    def grid_laplace(self, lam, dt):
        return _sampled_laplace(self, lam, dt)


@dataclass(frozen=True)
class GaussianKernel(_SampledDensity):
    """scale * normal density with the given variance; transform e^{v z^2 / 2}."""

    variance: float
    scale: float = 1.0

    shape = "gaussian"

    def __post_init__(self):
        _check_param("variance", self.variance)
        _check_param("scale", self.scale)

    @property
    def mass(self) -> float:
        return self.scale

    def abscissas(self):
        return (-INF, INF)

    def laplace(self, z):
        z = np.asarray(z)
        return self.scale * np.exp(self.variance * z * z / 2.0)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        v = self.variance
        return self.scale * np.exp(-s * s / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)

    def support(self):
        return (-INF, INF)

    def _sample_window(self):
        w = 9.0 * math.sqrt(self.variance)
        return (-w, w)


@dataclass(frozen=True)
class OneSidedExponential(KernelComponent):
    """One-sided exponential of unit mass times ``scale``.

    direction=+1: K(s) = rate e^{-rate s} on s >= 0, strip (-rate, inf).
    direction=-1: K(s) = rate e^{+rate s} on s <= 0, strip (-inf, rate).
    """

    rate: float
    direction: int = 1
    scale: float = 1.0

    shape = "exponential_onesided"

    def __post_init__(self):
        _check_param("rate", self.rate)
        if self.direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        _check_param("scale", self.scale)

    @property
    def mass(self) -> float:
        return self.scale

    def abscissas(self):
        if self.direction == 1:
            return (-self.rate, INF)
        return (-INF, self.rate)

    def laplace(self, z):
        z = np.asarray(z)
        r = self.rate
        den = r + z if self.direction == 1 else r - z
        return self.scale * r / den

    def value(self, s):
        u = np.asarray(s, dtype=float) * self.direction
        return np.where(u >= 0, self.scale * self.rate * np.exp(-self.rate * np.maximum(u, 0.0)), 0.0)

    def support(self):
        if self.direction == 1:
            return (0.0, INF)
        return (-INF, 0.0)

    def grid_convolve(self, grid, G, lam_left):
        out = _recurse(grid, G, self.rate, self.direction, lam_left)
        if self.scale != 1.0:
            out *= self.scale
        return out

    def grid_laplace(self, lam, dt):
        return self.scale * _recurse_factor(self.rate, self.direction, lam, dt)


@dataclass(frozen=True)
class PiecewiseGreen(KernelComponent):
    """Two-sided piecewise exponential from the roots nu < 0 < mu of z^2 - c z - q = 0.

    K(s) = scale/(mu - nu) * { e^{nu s}  for s >= 0,
                               e^{mu s}  for s <  0 },
    with transform scale / (q + c z - z^2) on (nu, mu) and
    mass scale / q, where c = nu + mu, q = -nu mu.  This is the Green
    kernel inverting the second-order part of a profile equation.
    """

    nu: float
    mu: float
    scale: float = 1.0

    shape = "piecewise_green"

    def __post_init__(self):
        _check_param("-nu", -self.nu)
        _check_param("mu", self.mu)
        _check_param("scale", self.scale)

    @classmethod
    def from_speed_damping(cls, c: float, q: float, scale: float = 1.0):
        _check_param("damping q", q)
        _check_param("speed c", c, -INF)
        disc = math.sqrt(c * c + 4.0 * q)
        return cls(nu=(c - disc) / 2.0, mu=(c + disc) / 2.0, scale=scale)

    @property
    def damping(self) -> float:
        return -self.nu * self.mu

    @property
    def speed(self) -> float:
        return self.nu + self.mu

    @property
    def mass(self) -> float:
        return self.scale / self.damping

    def abscissas(self):
        return (self.nu, self.mu)

    def laplace(self, z):
        z = np.asarray(z)
        den = self.damping + self.speed * z - z * z
        return self.scale / den

    @cached_property
    def _pieces(self) -> tuple[float, float, float]:
        """(amp, rho1, rho2) = (scale / (mu - nu), -nu, mu): the amplitude and the two rates."""
        return self.scale / (self.mu - self.nu), -self.nu, self.mu

    def value(self, s):
        s = np.asarray(s, dtype=float)
        amp = self._pieces[0]
        return amp * np.where(s >= 0, np.exp(self.nu * np.maximum(s, 0.0)),
                              np.exp(self.mu * np.minimum(s, 0.0)))

    def support(self):
        return (-INF, INF)

    def grid_convolve(self, grid, G, lam_left):
        amp, rho1, rho2 = self._pieces
        # amp * (forward / rho1 + backward / rho2), in the forward piece's array
        out = _recurse(grid, G, rho1, 1, lam_left)
        out /= rho1
        backward = _recurse(grid, G, rho2, -1, lam_left)
        backward /= rho2
        out += backward
        out *= amp
        return out

    def grid_laplace(self, lam, dt):
        amp, rho1, rho2 = self._pieces
        return amp * (_recurse_factor(rho1, 1, lam, dt) / rho1
                      + _recurse_factor(rho2, -1, lam, dt) / rho2)

    @classmethod
    def from_dict(cls, spec, base_dir=None):
        if "nu" in spec and "mu" in spec:
            return super().from_dict(spec)
        _check_keys(spec, ("c", "q", "scale"))
        return cls.from_speed_damping(spec["c"], spec["q"], scale=spec.get("scale", 1.0))


@dataclass(frozen=True)
class DiracComb(KernelComponent):
    """Atomic measure sum_j w_j delta(s - a_j); transform sum_j w_j e^{-z a_j}.

    A finite comb converges everywhere: the lattice abscissa formula
    gamma = -limsup_k ln(w(-k))/k degenerates to +inf once the weights
    vanish beyond a largest offset (ln 0 = -inf), and likewise on the left.
    """

    offsets: tuple[float, ...]
    weights: tuple[float, ...]

    shape = "dirac_comb"

    def __post_init__(self):
        if len(self.offsets) != len(self.weights) or not self.offsets:
            raise ValueError("offsets and weights must be equal-length and nonempty")
        for a, w in zip(self.offsets, self.weights):
            _check_param("offset", a, -INF)
            _check_param("weight", w, closed=True)
        _check_param("total weight", sum(self.weights))
        object.__setattr__(self, "offsets", tuple(float(a) for a in self.offsets))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def mass(self) -> float:
        return float(sum(self.weights))

    def abscissas(self):
        return (-INF, INF)

    def laplace(self, z):
        z = np.asarray(z)
        return reduce(np.add, (w * np.exp(-z * a) for a, w in zip(self.offsets, self.weights)))

    def support(self):
        return (min(self.offsets), max(self.offsets))

    def grid_convolve(self, grid, G, lam_left):
        # w_1 S_1 G + w_2 S_2 G + ..., summed from the first term on in place
        plans = _comb_plans(self, grid, lam_left)
        out = _stencil(G, plans[0], np.empty(len(G)))
        out *= self.weights[0]
        term = np.empty(len(G))
        for plan, w in zip(plans[1:], self.weights[1:]):
            _stencil(G, plan, term)
            term *= w
            out += term
        return out

    def grid_laplace(self, lam, dt):
        return sum(w * _shift_factor(a, lam, dt) for a, w in zip(self.offsets, self.weights))


def _filon_weights(q):
    """(c0(q), c1(q)) elementwise: c0 = int_0^1 e^{-q u} du, c1 = int_0^1 u e^{-q u} du.

    These are Filon's weights for one linear segment of width h at z = q/h.
    Both are summed by series below |q| = 0.2, where the closed forms cancel.
    For Re q < 0 they grow like e^{-q}; callers then anchor the segment at
    its right end, where c0(q) = e^{-q} c0(-q) and
    c1(q) = e^{-q} (c0(-q) - c1(-q)), and take the weights at -q.
    """
    c0 = np.empty_like(q)
    c1 = np.empty_like(q)
    small = np.abs(q) < 0.2
    if small.any():
        # column k-1 holds (-q)^k / (k+1)!; by k = 15 it is below 1e-18 of c0
        terms = np.cumprod(-q[small, None] / _SERIES_DIV, axis=1)
        c0[small] = 1.0 + terms.sum(axis=1)
        c1[small] = 0.5 + terms @ _SERIES_C1
    big = ~small
    if big.any():
        qb = q[big]
        E = np.exp(-qb)
        c0[big] = (1.0 - E) / qb
        c1[big] = (1.0 - E * (1.0 + qb)) / (qb * qb)
    return c0, c1


def _segments_transform(z, t: np.ndarray, v: np.ndarray):
    """Exact transform of the piecewise-linear interpolant of (t, v) at one z.

    Segment j contributes
    integral_{t_j}^{t_j+1} (v_j + m (s - t_j)) e^{-z s} ds
      = e^{-z t_j} h_j [v_j c0(q_j) + (v_j+1 - v_j) c1(q_j)],   q_j = z h_j,
    with the weights of :func:`_filon_weights`; for Re z < 0 it is anchored
    at its right end instead,
      = e^{-z t_j+1} h_j [v_j+1 c0(-q_j) - (v_j+1 - v_j) c1(-q_j)].
    """
    h = np.diff(t)
    if np.real(z) < 0.0:
        c0, c1 = _filon_weights(-z * h)
        return np.sum(np.exp(-z * t[1:]) * h * (v[1:] * c0 - np.diff(v) * c1))
    c0, c1 = _filon_weights(z * h)
    return np.sum(np.exp(-z * t[:-1]) * h * (v[:-1] * c0 + np.diff(v) * c1))


@dataclass(frozen=True, eq=False)
class _UniformNodes:
    """Transform of an interpolant on uniform nodes, as two polynomials in w = e^{-z h}.

    With t_j = t_0 + j h every segment has the same q = z h, so the
    segment sum is h [c0(q) P + c1(q) Q] with P = sum_j e^{-z t_j} v_j and
    Q = sum_j e^{-z t_j} (v_j+1 - v_j).  The exponentials come in baby and
    giant steps: segment j = j* + k of a block of B ~ sqrt(n) segments has
    e^{-z t_j} = w^k e^{-z t_j*}.  The baby powers w^k, k < B, are a
    running product of one exponential, the giant powers one exponential
    per block, and one real matrix product sums each block, so a point
    costs about sqrt(n) exponentials where the segment sum takes 2n.  For
    Re z < 0 each segment is anchored at its right end, as in
    :func:`_segments_transform`: P and Q then take e^{-z t_j+1}, and the
    sum is h [c0(-q) P + (c0(-q) - c1(-q)) Q].  The giant power is taken at
    a node of the block (its first for Re z >= 0, its last for Re z < 0),
    so every baby power has modulus <= 1 and every giant power is a term of
    the direct sum: nothing overflows that the direct sum does not.  The
    last block is moved back to end at the last segment, with zero
    coefficients for the segments the block before holds.
    """

    h: float
    anchors: np.ndarray   # 2 x A: left node of each block's first segment, right node of its last
    coef: np.ndarray      # B x 2A: the coefficients of P, then of Q, block by block

    @classmethod
    def of(cls, t, v):
        """The uniform form of (t, v); None if a node is over 8 eps max|t| off t_0 + j h."""
        n = t.size - 1
        h = (t[-1] - t[0]) / n
        moved = np.max(np.abs(t - (t[0] + np.arange(n + 1) * h)))
        if moved > 8.0 * _EPS * max(abs(t[0]), abs(t[-1])):
            return None
        B = math.isqrt(n - 1) + 1          # ceil(sqrt(n))
        A = -(-n // B)
        starts = np.minimum(np.arange(A) * B, n - B)
        j = starts + np.arange(B)[:, None]              # B x A segment indices
        fresh = j >= np.arange(A) * B                    # not held by the block before
        coef = np.hstack([np.where(fresh, v[j], 0.0), np.where(fresh, np.diff(v)[j], 0.0)])
        anchors = t[np.stack([starts, starts + B])]
        coef.flags.writeable = anchors.flags.writeable = False
        return cls(float(h), anchors, coef)

    def transform(self, z: np.ndarray) -> np.ndarray:
        """The transform at the 1-d array z, float where z is real."""
        q = z * self.h
        back = q.real < 0.0
        B, A = self.coef.shape[0], self.anchors.shape[1]
        # w^k for k < B as a running product, w = e^{-q} or e^{q}, whichever
        # has modulus <= 1
        w = np.exp(np.where(back, q, -q))
        powers = np.empty((B, z.size), dtype=z.dtype)
        powers[0] = 1.0
        np.cumprod(np.broadcast_to(w, (B - 1, z.size)), axis=0, out=powers[1:])
        # row b: e^{-q (b - b*)}, b* the block's first segment (Re z >= 0) or its last
        powers[:, back] = powers[::-1, back]
        # real and imaginary parts side by side: one real product either way
        sums = (self.coef.T @ powers.view(float)).view(z.dtype).reshape(2, A, z.size)
        giant = np.multiply(-z, np.where(back, self.anchors[1][:, None], self.anchors[0][:, None]))
        sums *= np.exp(giant, out=giant)
        P, Q = sums.sum(axis=1)
        c0, c1 = _filon_weights(np.where(back, -q, q))
        return self.h * (c0 * P + np.where(back, c0 - c1, c1) * Q)


def _trapezoid(v, t):
    """Trapezoid rule for samples v at nodes t, summed as ``scipy.integrate.trapezoid`` sums."""
    return np.sum(np.diff(t) * (v[1:] + v[:-1]) / 2.0)


@dataclass(frozen=True)
class TabulatedKernel(_SampledDensity):
    """Kernel given by samples on a strictly increasing grid, linearly interpolated.

    Treated as compactly supported on its grid; no extrapolation beyond it.
    The transform integrates the interpolant exactly (Filon's rule for
    piecewise-linear data), so it is entire in z (strip = all of R,
    compact-support surrogate).
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]

    shape = "tabulated"

    def __post_init__(self):
        t = np.array(self.grid, dtype=float)
        v = np.array(self.values, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
            raise ValueError("need matching 1-d grid/values with >= 2 points")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("kernel grid and values must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("kernel values must be nonnegative")
        if _trapezoid(v, t) <= 0:
            raise ValueError("kernel mass must be positive")
        object.__setattr__(self, "grid", tuple(t.tolist()))
        object.__setattr__(self, "values", tuple(v.tolist()))
        # the one array pair every method reads; the tuples are the JSON form
        t.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "_t", t)
        object.__setattr__(self, "_v", v)

    @cached_property
    def mass(self) -> float:
        return float(_trapezoid(self._v, self._t))

    @cached_property
    def _uniform(self) -> _UniformNodes | None:
        return _UniformNodes.of(self._t, self._v)

    def abscissas(self):
        return (-INF, INF)

    def laplace(self, z):
        """Closed form in e^{-z h} on uniform nodes, else one segment sum per z.

        Real z gives float64 (a float for a scalar), complex z complex128.
        """
        zs = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)
        if self._uniform is not None:
            out = self._uniform.transform(zs.ravel())
        else:
            out = np.array([_segments_transform(zz, self._t, self._v) for zz in zs.ravel()],
                           dtype=zs.dtype)
        return out.reshape(zs.shape) if zs.ndim else out.item()

    def value(self, s):
        return np.interp(np.asarray(s, dtype=float), self._t, self._v, left=0.0, right=0.0)

    def support(self):
        return (self.grid[0], self.grid[-1])

    def _sample_window(self):
        return self.support()

    @classmethod
    def from_dict(cls, spec, base_dir=None):
        if "path" in spec:
            _check_keys(spec, ("path",))
            return load_tabulated(os.path.join(base_dir or "", spec["path"]))
        return super().from_dict(spec)


class ConvolvedKernel(KernelComponent):
    """Lazy convolution a * b: transform is the product of the factor transforms.

    It has no pointwise density of its own.  On the grid b acts first and
    a, the outer factor, acts on its result; atoms of one problem that
    share their outer factor have it applied once per sweep, to the sum of
    their inner fields (see :meth:`factors`).
    """

    shape = "convolved"

    def __init__(self, a: KernelComponent, b: KernelComponent):
        self.a = a
        self.b = b
        self._strip = _common_strip(a.abscissas(), b.abscissas())

    @property
    def mass(self) -> float:
        return self.a.mass * self.b.mass

    def abscissas(self):
        return self._strip

    def laplace(self, z):
        return self.a.laplace(z) * self.b.laplace(z)

    def support(self):
        lo_a, hi_a = self.a.support()
        lo_b, hi_b = self.b.support()
        return (lo_a + lo_b, hi_a + hi_b)

    def grid_convolve(self, grid, G, lam_left):
        # through the module-level name, so each factor is seen as its own shape
        inner = convolve_field(self.b, grid, G, lam_left)
        return convolve_field(self.a, grid, inner, lam_left)

    def grid_laplace(self, lam, dt):
        return self.a.grid_laplace(lam, dt) * self.b.grid_laplace(lam, dt)

    def factors(self):
        return self.a, self.b

    @classmethod
    def from_dict(cls, spec, base_dir=None):
        _check_keys(spec, ("a", "b"))
        return convolve(kernel_from_dict(spec["a"], base_dir),
                        kernel_from_dict(spec["b"], base_dir))


_SHAPES = (GaussianKernel, OneSidedExponential, PiecewiseGreen, DiracComb,
           TabulatedKernel, ConvolvedKernel)


def _check_keys(spec: dict, allowed, what: str | None = None) -> None:
    """Reject a JSON key outside ``allowed``; a kernel (no ``what``) may also have shape/shift."""
    if what is None:
        allowed, what = (*allowed, "shape", "shift"), f"{spec.get('shape')} kernel"
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {what}")


def _check_param(name: str, x, lo: float = 0.0, closed: bool = False):
    """``x`` if it is a finite real above ``lo`` (or at it, when ``closed``), else ValueError.

    The one rule for a model parameter: a plain comparison, which NaN and
    +-inf fail as an out-of-range value does.  The message names the
    parameter and its value.
    """
    if (lo <= x if closed else lo < x) and x < INF:
        return x
    if lo == -INF:
        rule = "finite"
    elif lo == 0.0:
        rule = f"{'nonnegative' if closed else 'positive'} and finite"
    else:
        rule = f"{'>=' if closed else '>'} {lo:g} and finite"
    raise ValueError(f"{name} must be {rule}, got {x:g}")


def _object(spec, what: str) -> dict:
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be an object, got {spec!r}")
    return spec


def kernel_from_dict(spec: dict, base_dir=None) -> KernelComponent:
    """Kernel from its JSON form, moved by any ``"shift"``; a relative ``path`` is read from ``base_dir``."""
    shape = _object(spec, "kernel").get("shape")
    shift = spec.get("shift", 0.0)
    if isinstance(shift, bool) or not isinstance(shift, (int, float)):
        raise ValueError(f"kernel shift must be a number, got {shift!r}")
    _check_param("kernel shift", shift, -INF)
    for cls in _SHAPES:
        if cls.shape == shape:
            return shift_kernel(cls.from_dict(spec, base_dir), shift)
    raise ValueError(f"unknown kernel shape {shape!r}")


# ---------------------------------------------------------------------------
# module-level operation surface


def laplace(k: KernelComponent, z):
    """Bilateral Laplace transform of k at z; raises OutOfStrip outside the strip."""
    _check_strip(k.abscissas(), z)
    return k.laplace(z)


def convolve(a: KernelComponent, b: KernelComponent) -> KernelComponent:
    """a * b: a unit point mass at 0 is the identity, combs combine exactly, others are lazy."""
    for unit, other in ((a, b), (b, a)):
        if isinstance(unit, DiracComb) and unit.offsets == (0.0,) and unit.weights == (1.0,):
            return other
    if isinstance(a, DiracComb) and isinstance(b, DiracComb):
        offs, ws = [], []
        for oa, wa in zip(a.offsets, a.weights):
            for ob, wb in zip(b.offsets, b.weights):
                offs.append(oa + ob)
                ws.append(wa * wb)
        return DiracComb(tuple(offs), tuple(ws))
    return ConvolvedKernel(a, b)


def shift_kernel(k: KernelComponent, delta: float) -> KernelComponent:
    """K(. - delta), realized exactly as convolution with a unit point mass (none at delta = 0)."""
    return convolve(DiracComb((delta,), (1.0,)), k)


# ---------------------------------------------------------------------------
# grid action: closure-aware sampling and the building blocks of grid_convolve


def convolve_field(k: KernelComponent, grid: Grid, G: np.ndarray,
                   lam_left: float | None) -> np.ndarray:
    """integral K(s) G~(t - s) ds on ``grid``, G~ closed per the solver rules.

    G holds one value per point of ``grid.ts``.  G~ is its piecewise-linear
    interpolant there, extended by G[0] e^{lam_left (t - t_min)} on the
    left (0 when lam_left is None) and by its last value G[-1] on the right.
    """
    return k.grid_convolve(grid, G, lam_left)


def _exp_step_weights(rate: float, dt: float) -> tuple[float, float, float]:
    """(E, w_far, w_near) for one exact step of rate*int_0^dt e^{-rate u} P1 du."""
    q = rate * dt
    E = math.exp(-q)
    if q < 1e-4:
        far = q / 2.0 - q * q / 3.0 + q ** 3 / 8.0
    else:
        far = (1.0 - E * (1.0 + q)) / q
    near = (1.0 - E) - far
    return E, far, near


_BLOCK = 64   # points per block of the first-order recurrence and the sampled convolution


@lru_cache(maxsize=32)
def _block_powers(E, blocks):
    """(within, across, step) for :func:`_first_order` on ``blocks`` blocks.

    ``within`` is the upper-triangular matrix E^(j-i) that maps one block
    row to its solution from a zero start, ``across`` the lower-triangular
    matrix (E^64)^(k-j) on the block ends, and ``step`` the row E^(1..64).
    Powers that underflow are 0.
    """
    def lower(base, size):
        d = np.arange(size)[:, None] - np.arange(size)
        return np.where(d >= 0, base ** np.maximum(d, 0), 0.0)

    step = E ** np.arange(1, _BLOCK + 1)
    # C-contiguous: the block product runs faster than on a transposed view
    return lower(E, _BLOCK).T.copy(), lower(step[-1], blocks), step


def _first_order(E, src):
    """y_i = src_i + E y_{i-1}, y_{-1} = 0, for 0 <= E < 1, on whole 64-point blocks.

    ``src`` is a whole number of blocks long: a caller with n values pads
    them with zeros, and reads y_i for i < n.  Blocked in two levels: one
    matrix product solves every block from a zero start, a second one
    carries the block ends across blocks, and each block then adds its
    predecessor's end times E^(1..64).  Each y_i is still a sum of
    E^(i-j) src_j, so its error is at rounding level relative to the same
    sum over |src_j|.
    """
    blocks = len(src) // _BLOCK
    within, across, step = _block_powers(E, blocks)
    y = src.reshape(blocks, _BLOCK) @ within
    ends = across @ y[:, -1]
    y[1:] += ends[:-1, None] * step
    return y.ravel()


def _recurse(grid, G, rate, direction, lam_left):
    """H(x_i) = rate * int_0^inf e^{-rate u} G~(x_i - direction u) du, exact on the interpolant.

    One left-to-right recurrence, seeded by the left closure.  The backward
    piece (direction -1) runs it on the reversed field, whose left closure
    is the plateau G[-1], and reverses the result.  The source is built
    in the zero-padded blocks :func:`_first_order` reads, so it is never
    copied.
    """
    E, far, near = _exp_step_weights(rate, grid.step)
    if direction == 1:
        seed = 0.0 if lam_left is None else G[0] * rate / (rate + lam_left)
    else:
        G, seed = G[::-1], G[-1]
    n = grid.n
    src = np.empty(-(-n // _BLOCK) * _BLOCK)
    src[n:] = 0.0
    src[0] = seed
    np.multiply(G[:-1], far, out=src[1:n])
    src[1:n] += near * G[1:]
    return _first_order(E, src)[:n][::direction]


def _recurse_factor(rate, direction, lam, dt):
    """Factor (far e + near) / (1 - E e) by which :func:`_recurse` multiplies e^{lam t}.

    y_i = c G_i solves y_i = far G_{i-1} + near G_i + E y_{i-1} when
    G_{i-1} = e G_i, with e = e^{-direction lam dt}: the backward piece runs
    on the reversed field.  The strip is lam > -rate forward, lam < rate
    backward.
    """
    E, far, near = _exp_step_weights(rate, dt)
    e = math.exp(-direction * lam * dt)
    return (far * e + near) / (1.0 - E * e)


def _snap_steps(shift, dt):
    """(s, m): ``shift`` in grid steps, snapped to a whole number within rounding, and m = ceil(s)."""
    s = shift / dt
    if abs(s - round(s)) <= 4.0 * _EPS * abs(s):
        s = round(s)
    return s, math.ceil(s)


def _shift_plan(grid, shift, lam_left):
    """(s, m, lo, hi, closure): the constants of a shift by ``shift`` on ``grid``.

    s = shift / step, snapped by :func:`_snap_steps`, and m = ceil(s).
    Points below lo come from left of t_min and take G[0] times the
    ``closure`` vector e^{lam_left (x - t_min)} (0 when lam_left is None),
    and points from hi on come from t_max or right of it.
    """
    n, ts = grid.n, grid.ts
    s, m = _snap_steps(shift, grid.step)
    lo, hi = min(max(m, 0), n), min(max(n - 1 + m, 0), n)
    closure = None if lam_left is None else np.exp(lam_left * (ts[:lo] - shift - ts[0]))
    return s, m, lo, hi, closure


@lru_cache(maxsize=32)
def _comb_plans(comb, grid, lam_left):
    """The :func:`_shift_plan` of each atom of ``comb`` on ``grid``.

    Cached per (comb, grid, closure rate), so a solve builds them once, not
    once per sweep; the closure vectors are read-only.
    """
    plans = tuple(_shift_plan(grid, a, lam_left) for a in comb.offsets)
    for plan in plans:
        if plan[4] is not None:
            plan[4].flags.writeable = False
    return plans


def _stencil(G, plan, out):
    """Write G~(t - shift), from the constants ``plan``, into ``out``, and return it.

    G~ is closed as in :func:`convolve_field`.  With s = shift / step and
    m = ceil(s), point i takes the two-tap stencil
    G[i-m] + (m - s)(G[i-m+1] - G[i-m]).  A shift within rounding of a
    whole number of steps moves G by whole indices, bit for bit, and a
    zero shift is a copy.  Points left of t_min take the closure (0, or
    G[0] e^{lam_left (x - t_min)}), and points at or right of t_max take
    G[-1].  A comb reads its atoms' constants from :func:`_comb_plans`;
    the solver's pin moves each sweep, so it builds them with
    :func:`_shift_plan` and writes the stencil into a buffer it owns.
    """
    s, m, lo, hi, closure = plan
    if closure is None:
        out[:lo] = 0.0
    else:
        np.multiply(G[0], closure, out=out[:lo])
    mid, g0 = out[lo:hi], G[lo - m:hi - m]
    if m == s:
        mid[:] = g0
    else:
        np.subtract(G[lo - m + 1:hi - m + 1], g0, out=mid)
        mid *= m - s
        mid += g0
    out[hi:] = G[-1]
    return out


def _shift_factor(shift, lam, dt):
    """Factor by which :func:`_stencil` multiplies e^{lam t}: e^{-lam m dt} (1 + (m - s)(e^{lam dt} - 1)).

    Where e^{lam dt} would overflow or e^{-lam m dt} is subnormal or 0 (m >= 1), it sums
    the two taps one by one: (1 - f) e^{-lam m dt} + f e^{-lam (m - 1) dt}, f = m - s.
    """
    if shift == 0.0:
        return 1.0
    s, m = _snap_steps(shift, dt)
    step = math.exp(-lam * m * dt)
    if m >= 1 and (lam * dt > 700.0 or step < np.finfo(float).tiny):
        f = m - s
        return (1.0 - f) * step + f * math.exp(-lam * (m - 1) * dt)
    return step * (1.0 + (m - s) * math.expm1(lam * dt))


@lru_cache(maxsize=8)
def _lumped_samples(k: KernelComponent, dt):
    """(jlo, jhi, kv, T): K at j dt for jlo <= j <= jhi, mass-lumped to sum to k.mass, as one Toeplitz block.

    The indices cover ``k._sample_window()`` and always include 0.  With m
    samples, T is the (64 + m - 1) x 64 matrix whose column c holds the
    reversed samples from row c down, so one row of 64 + m - 1 field
    values times T gives 64 consecutive outputs of the convolution.
    Cached per (kernel, step), so ``k.value`` runs once per kernel and
    grid, not once per sweep and per closure-rate evaluation; ``kv`` and
    ``T`` are read-only.  The cache is small, since T takes 64 times the
    memory of the samples.
    """
    lo, hi = k._sample_window()
    jlo = min(math.floor(lo / dt), 0)
    jhi = max(math.ceil(hi / dt), 0)
    kv = np.asarray(k.value(np.arange(jlo, jhi + 1) * dt), dtype=float) * dt
    total = kv.sum()
    if not total > 0:
        raise ValueError(f"{type(k).__name__} has no mass on multiples of the grid step {dt:g}")
    kv *= k.mass / total
    m = len(kv)
    d = np.arange(_BLOCK + m - 1)[:, None] - np.arange(_BLOCK)
    T = np.where((d >= 0) & (d < m), kv[::-1][np.clip(d, 0, m - 1)], 0.0)
    kv.flags.writeable = T.flags.writeable = False
    return jlo, jhi, kv, T


def _sampled_convolve(k: KernelComponent, grid, G, lam_left):
    """Discrete convolution with the samples of :func:`_lumped_samples`.

    The samples are mass-lumped so constant states stay exact.  Grid-aligned
    samples need no interpolation: the field is padded with its closure
    values (the exponential extension on the left, G[-1] on the right), so
    out[i] = sum_j kv_j G[i - j].  That sum is one matrix product: the
    padded field, with zeros after it to fill the last block, is viewed as
    rows of 64 + m - 1 values, one row starting every 64 points, and each
    row times the Toeplitz block of :func:`_lumped_samples` gives 64
    outputs.  Every output is still a sum of the same nonnegative products,
    summed in another order, so nonnegative weights and fields cannot
    produce negative roundoff, unlike an FFT, and the deep left tail keeps
    its relative accuracy.
    """
    dt = grid.step
    jlo, jhi, _, T = _lumped_samples(k, dt)
    n = len(G)
    blocks = -(-n // _BLOCK)
    padded = np.zeros(blocks * _BLOCK + jhi - jlo)
    if lam_left is not None:
        padded[:jhi] = G[0] * np.exp(lam_left * dt * np.arange(-jhi, 0))
    padded[jhi:jhi + n] = G
    padded[jhi + n:jhi + n - jlo] = G[-1]
    item = padded.itemsize
    rows = as_strided(padded, (blocks, len(T)), (_BLOCK * item, item), writeable=False)
    return np.dot(rows, T).ravel()[:n]


def _sampled_laplace(k: KernelComponent, lam, dt):
    """Factor by which :func:`_sampled_convolve` multiplies e^{lam t}: sum_j kv_j e^{-lam j dt}."""
    jlo, jhi, kv, _ = _lumped_samples(k, dt)
    return float(kv @ np.exp(-lam * dt * np.arange(jlo, jhi + 1)))


def load_tabulated(path) -> TabulatedKernel:
    """Load a two-column CSV (t, value); a leading '# t,value' comment is tolerated."""
    ts, vs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            first = row[0].strip()
            if first.startswith("#"):
                continue
            if len(row) < 2:
                raise ValueError(f"expected two columns, got {row!r}")
            ts.append(float(first))
            vs.append(float(row[1]))
    return TabulatedKernel(tuple(ts), tuple(vs))
