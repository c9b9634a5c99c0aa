"""Kernel components: transforms, grid action, quadrature windows and JSON.

Every kernel here is a nonnegative integrable function K(s) with positive
mass, represented exactly enough that its transform

    T(z) = integral K(s) e^{-z s} ds

has a closed form on the maximal open strip sigma < Re z < gamma.  The
supported shapes are the analytic families used by the model reductions
(Gaussian, one-sided exponential, two-sided piecewise exponential built
from the roots nu < 0 < mu of z^2 - c z - q = 0), atomic combs, tabulated
data on a compact grid, and lazy convolutions of the above.

Each shape is one class, the only place that knows it: its transform, its
action on a grid field (``grid_convolve(ts, G, lam_left)``), its quadrature
windows and kinks, and its JSON form (``shape``, ``to_dict``,
``from_dict``).  On the grid the field is closed by an exponential tail at
rate ``lam_left`` (or 0) on the left and always by its last value on the
right.  There, exponential pieces run exact O(n) linear recurrences on the
piecewise-linear interpolant, atomic combs add shifted copies, Gaussian
and tabulated densities are sampled at multiples of the grid step and
applied as one discrete convolution, and a lazy product applies its
factors in turn.

Extended-real abscissas use ``math.inf`` directly; +inf is a meaningful
value (a Gaussian converges everywhere) and is never replaced by a large
sentinel float.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np
from scipy import integrate

from .errors import EmptyStrip, OutOfStrip, QuadratureFailure

INF = math.inf
# log of the factor by which a truncated tail is smaller than the integral
_TAIL = math.log(1e16)
# absolute and relative tolerance of the adaptive panels in laplace_quadrature
_QUAD_TOL = 1e-10

__all__ = [
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
    "laplace_quadrature",
    "load_tabulated",
    "kernel_from_dict",
]


def _check_strip(strip, z):
    lo, hi = strip
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
    ``laplace``, ``value``, ``support`` and ``grid_convolve``; unless it is
    compactly supported also ``truncation_window`` and ``density_window``;
    and ``breakpoints`` where its density has kinks.  ``to_dict`` and
    ``from_dict`` work on any frozen dataclass of JSON-ready fields.
    """

    shape = ""
    compact_support = False

    @property
    def mass(self) -> float:
        raise NotImplementedError

    def abscissas(self) -> tuple[float, float]:
        """Endpoints (sigma, gamma) of the maximal open convergence strip."""
        raise NotImplementedError

    def laplace(self, z):
        """Transform at complex z (scalar or ndarray), Re z inside the strip."""
        raise NotImplementedError

    def value(self, s):
        """Pointwise density K(s).  Atomic kernels have no density."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """Closure bounds of the support (may be +-inf)."""
        raise NotImplementedError

    def grid_convolve(self, ts: np.ndarray, G: np.ndarray, lam_left: float | None) -> np.ndarray:
        """integral K(s) G~(t - s) ds on the uniform grid ts; see :func:`convolve_field`."""
        raise TypeError(f"no grid convolution for {type(self).__name__}")

    def truncation_window(self, x: float) -> tuple[float, float]:
        """Window outside which K(s)e^{-x s} contributes < ~1e-13 of the integral."""
        if self.compact_support:
            return self.support()
        raise TypeError(f"no quadrature window for {type(self).__name__}")

    def density_window(self) -> tuple[float, float]:
        """Finite interval holding all but ~1e-16 of the kernel's mass."""
        if self.compact_support:
            return self.support()
        raise TypeError(f"no density window for {type(self).__name__}")

    def breakpoints(self) -> list[float]:
        """Interior kink locations the adaptive panels must split at."""
        return []

    def exp_dominated(self, x: float) -> bool:
        """True when sup_s K(s) e^{-x s} is finite for the given x > 0.

        For every shape here that holds exactly when x <= gamma: as
        s -> -inf the kernel decays like e^{gamma s} or faster.
        """
        return x <= self.abscissas()[1]

    def to_dict(self) -> dict:
        """JSON form: ``shape`` plus the dataclass fields, tuples as lists."""
        out = {"shape": self.shape}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, spec: dict, base_dir=None) -> "KernelComponent":
        """Inverse of :meth:`to_dict`; fields with a default may be left out.

        ``base_dir`` resolves a relative file path in shapes that read one.
        """
        return cls(**{f.name: spec[f.name] for f in fields(cls)
                      if f.name in spec or f.default is MISSING})


@dataclass(frozen=True)
class GaussianKernel(KernelComponent):
    """scale * normal density with the given variance; transform e^{v z^2 / 2}."""

    variance: float
    scale: float = 1.0

    shape = "gaussian"

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("variance must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

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

    def grid_convolve(self, ts, G, lam_left):
        w = 9.0 * math.sqrt(self.variance)
        return _sampled_convolve(self, ts, G, lam_left, -w, w)

    def truncation_window(self, x):
        v = self.variance
        center = -x * v
        w = math.sqrt(2.0 * v * _TAIL) + 2.0 * math.sqrt(v)
        return (center - w, center + w)

    def density_window(self):
        w = math.sqrt(2.0 * self.variance * _TAIL)
        return (-w, w)


@dataclass(frozen=True)
class OneSidedExponential(KernelComponent):
    """One-sided exponential of unit mass times ``scale``.

    direction=+1: K(s) = rate e^{-rate (s - shift)} on s >= shift, strip (-rate, inf).
    direction=-1: K(s) = rate e^{+rate (s - shift)} on s <= shift, strip (-inf, rate).
    """

    rate: float
    direction: int = 1
    shift: float = 0.0
    scale: float = 1.0

    shape = "exponential_onesided"

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

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
        return self.scale * np.exp(-z * self.shift) * r / den

    def value(self, s):
        s = np.asarray(s, dtype=float)
        u = (s - self.shift) * self.direction
        out = np.where(u >= 0, self.scale * self.rate * np.exp(-self.rate * np.maximum(u, 0.0)), 0.0)
        return out

    def support(self):
        if self.direction == 1:
            return (self.shift, INF)
        return (-INF, self.shift)

    def grid_convolve(self, ts, G, lam_left):
        if self.direction == 1:
            H = self.scale * _recurse_forward(ts, G, self.rate, lam_left)
        else:
            H = self.scale * _recurse_backward(ts, G, self.rate)
        return _shifted(ts, H, self.shift, lam_left)

    def _window(self, decay):
        length = _TAIL / decay
        if self.direction == 1:
            return (self.shift, self.shift + length)
        return (self.shift - length, self.shift)

    def truncation_window(self, x):
        return self._window(self.rate + x if self.direction == 1 else self.rate - x)

    def density_window(self):
        return self._window(self.rate)

    def breakpoints(self):
        return [self.shift]


@dataclass(frozen=True)
class PiecewiseGreen(KernelComponent):
    """Two-sided piecewise exponential from the roots nu < 0 < mu of z^2 - c z - q = 0.

    K(s) = scale/(mu - nu) * { e^{nu (s - shift)}  for s >= shift,
                               e^{mu (s - shift)}  for s <  shift },
    with transform scale * e^{-z shift} / (q + c z - z^2) on (nu, mu) and
    mass scale / q, where c = nu + mu, q = -nu mu.  This is the Green
    kernel inverting the second-order part of a profile equation.
    """

    nu: float
    mu: float
    shift: float = 0.0
    scale: float = 1.0

    shape = "piecewise_green"

    def __post_init__(self):
        if not (self.nu < 0 < self.mu):
            raise ValueError("need nu < 0 < mu")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @classmethod
    def from_speed_damping(cls, c: float, q: float, shift: float = 0.0, scale: float = 1.0):
        if q <= 0:
            raise ValueError("damping q must be positive")
        disc = math.sqrt(c * c + 4.0 * q)
        return cls(nu=(c - disc) / 2.0, mu=(c + disc) / 2.0, shift=shift, scale=scale)

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
        return self.scale * np.exp(-z * self.shift) / den

    def value(self, s):
        s = np.asarray(s, dtype=float)
        u = s - self.shift
        amp = self.scale / (self.mu - self.nu)
        return amp * np.where(u >= 0, np.exp(self.nu * np.maximum(u, 0.0)),
                              np.exp(self.mu * np.minimum(u, 0.0)))

    def support(self):
        return (-INF, INF)

    def grid_convolve(self, ts, G, lam_left):
        rho1, rho2 = -self.nu, self.mu
        amp = self.scale / (self.mu - self.nu)
        H = amp * (_recurse_forward(ts, G, rho1, lam_left) / rho1
                   + _recurse_backward(ts, G, rho2) / rho2)
        return _shifted(ts, H, self.shift, lam_left)

    def truncation_window(self, x):
        return (self.shift - _TAIL / (self.mu - x), self.shift + _TAIL / (x - self.nu))

    def density_window(self):
        return (self.shift - _TAIL / self.mu, self.shift + _TAIL / (-self.nu))

    def breakpoints(self):
        return [self.shift]

    @classmethod
    def from_dict(cls, spec, base_dir=None):
        if "nu" in spec and "mu" in spec:
            return super().from_dict(spec)
        return cls.from_speed_damping(spec["c"], spec["q"], shift=spec.get("shift", 0.0),
                                      scale=spec.get("scale", 1.0))


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
    compact_support = True

    def __post_init__(self):
        if len(self.offsets) != len(self.weights) or not self.offsets:
            raise ValueError("offsets and weights must be equal-length and nonempty")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if sum(self.weights) <= 0:
            raise ValueError("total weight must be positive")
        object.__setattr__(self, "offsets", tuple(float(a) for a in self.offsets))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def mass(self) -> float:
        return float(sum(self.weights))

    def abscissas(self):
        return (-INF, INF)

    def laplace(self, z):
        z = np.asarray(z)
        out = np.zeros(np.shape(z), dtype=complex if np.iscomplexobj(z) else float)
        for a, w in zip(self.offsets, self.weights):
            out = out + w * np.exp(-z * a)
        return out

    def value(self, s):
        raise TypeError("atomic comb has no pointwise density")

    def support(self):
        return (min(self.offsets), max(self.offsets))

    def grid_convolve(self, ts, G, lam_left):
        out = np.zeros_like(G)
        for a, w in zip(self.offsets, self.weights):
            out += w * _sample(ts, G, ts - a, lam_left)
        return out


def _segment_transform(z, t0, t1, v0, v1):
    """Exact transform of the linear segment through (t0,v0),(t1,v1).

    integral_{t0}^{t1} (v0 + m (s-t0)) e^{-z s} ds
      = e^{-z t0} h [v0 c0(q) + (v1-v0) c1(q)],   q = z h,
    with c0 = int_0^1 e^{-q u} du and c1 = int_0^1 u e^{-q u} du.  Both are
    summed by series below |q| = 0.2, where the closed forms cancel.
    """
    h = t1 - t0
    q = z * h
    if abs(q) < 0.2:
        c0 = term = 1.0 + 0.0j
        c1 = 0.5 + 0.0j
        for k in range(1, 30):
            term = term * (-q) / (k + 1)       # (-q)^k / (k+1)!
            c0 += term
            c1 += term * (k + 1) / (k + 2)     # (-q)^k (k+1) / (k+2)!
            if abs(term) < 1e-18:
                break
    else:
        E = np.exp(-q)
        c0 = (1.0 - E) / q
        c1 = (1.0 - E * (1.0 + q)) / (q * q)
    return np.exp(-z * t0) * h * (v0 * c0 + (v1 - v0) * c1)


def _segments_transform(z: complex, t: np.ndarray, v: np.ndarray) -> complex:
    """Sum of :func:`_segment_transform` over the segments of (t, v), vectorized.

    Takes one scalar z; the same series/closed-form split applies per segment.
    """
    h = np.diff(t)
    dv = np.diff(v)
    q = z * h
    c0 = np.empty_like(q)
    c1 = np.empty_like(q)
    small = np.abs(q) < 0.2
    if np.any(small):
        # column k-1 holds (-q)^k / (k+1)!; by k = 15 it is below 1e-18 of c0
        ks = np.arange(1, 16)
        terms = np.cumprod(-q[small, None] / (ks + 1), axis=1)
        c0[small] = 1.0 + terms.sum(axis=1)
        c1[small] = 0.5 + terms @ ((ks + 1) / (ks + 2))
    big = ~small
    if np.any(big):
        qb = q[big]
        E = np.exp(-qb)
        c0[big] = (1.0 - E) / qb
        c1[big] = (1.0 - E * (1.0 + qb)) / (qb * qb)
    return complex(np.sum(np.exp(-z * t[:-1]) * h * (v[:-1] * c0 + dv * c1)))


@dataclass(frozen=True)
class TabulatedKernel(KernelComponent):
    """Kernel given by samples on a strictly increasing grid, linearly interpolated.

    Treated as compactly supported on its grid; no extrapolation beyond it.
    The transform integrates the interpolant segment-by-segment in closed
    form, so it is entire in z (strip = all of R, compact-support surrogate).
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]

    shape = "tabulated"
    compact_support = True

    def __post_init__(self):
        t = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
            raise ValueError("need matching 1-d grid/values with >= 2 points")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("kernel values must be nonnegative")
        if integrate.trapezoid(v, t) <= 0:
            raise ValueError("kernel mass must be positive")
        object.__setattr__(self, "grid", tuple(t.tolist()))
        object.__setattr__(self, "values", tuple(v.tolist()))

    @cached_property
    def mass(self) -> float:
        return float(integrate.trapezoid(np.asarray(self.values), np.asarray(self.grid)))

    def abscissas(self):
        return (-INF, INF)

    def laplace(self, z):
        t = np.asarray(self.grid)
        v = np.asarray(self.values)
        zs = np.asarray(z)
        # one z at a time keeps temporaries O(segments) on long z traces
        out = np.array([_segments_transform(complex(zz), t, v) for zz in zs.ravel()],
                       dtype=complex).reshape(zs.shape)
        if np.ndim(z) == 0:
            val = complex(out)
            return val.real if abs(val.imag) == 0.0 else val
        if not np.iscomplexobj(zs):
            if np.allclose(out.imag, 0.0):
                return out.real
        return out

    def value(self, s):
        t = np.asarray(self.grid)
        v = np.asarray(self.values)
        return np.interp(np.asarray(s, dtype=float), t, v, left=0.0, right=0.0)

    def support(self):
        return (self.grid[0], self.grid[-1])

    def grid_convolve(self, ts, G, lam_left):
        return _sampled_convolve(self, ts, G, lam_left, self.grid[0], self.grid[-1])

    def breakpoints(self):
        return [self.grid[0], self.grid[-1]]

    @classmethod
    def from_dict(cls, spec, base_dir=None):
        if "path" in spec:
            return load_tabulated(os.path.join(base_dir or "", spec["path"]))
        return super().from_dict(spec)


class ConvolvedKernel(KernelComponent):
    """Lazy convolution a * b: transform is the product of the factor transforms.

    Pointwise values come from adaptive quadrature and are meant for
    diagnostics; on the grid the factors act one after the other.
    """

    shape = "convolved"

    def __init__(self, a: KernelComponent, b: KernelComponent):
        lo_a, hi_a = a.abscissas()
        lo_b, hi_b = b.abscissas()
        lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
        if not lo < hi:
            raise EmptyStrip(f"factor strips ({lo_a:g},{hi_a:g}) and ({lo_b:g},{hi_b:g}) do not overlap")
        self.a = a
        self.b = b
        self._strip = (lo, hi)

    @property
    def compact_support(self):
        return self.a.compact_support and self.b.compact_support

    @property
    def mass(self) -> float:
        return self.a.mass * self.b.mass

    def abscissas(self):
        return self._strip

    def laplace(self, z):
        _check_strip(self._strip, z)
        return self.a.laplace(z) * self.b.laplace(z)

    def value(self, s):
        comb, other = None, None
        if isinstance(self.a, DiracComb):
            comb, other = self.a, self.b
        elif isinstance(self.b, DiracComb):
            comb, other = self.b, self.a
        if comb is not None:
            s = np.asarray(s, dtype=float)
            out = np.zeros(np.shape(s))
            for off, w in zip(comb.offsets, comb.weights):
                out = out + w * other.value(s - off)
            return out
        ss = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.array([self._value_quad(float(x)) for x in ss])
        return out[0] if np.ndim(s) == 0 else out.reshape(np.shape(s))

    def _value_quad(self, s: float) -> float:
        lo_a, hi_a = self.a.density_window()
        lo_b, hi_b = self.b.density_window()
        lo, hi = max(lo_a, s - hi_b), min(hi_a, s - lo_b)
        if hi <= lo:
            return 0.0
        pts = sorted({p for p in self.a.breakpoints() if lo < p < hi}
                     | {s - p for p in self.b.breakpoints() if lo < s - p < hi}) or None
        val, err = integrate.quad(lambda u: float(self.a.value(u)) * float(self.b.value(s - u)),
                                  lo, hi, limit=200, points=pts)
        if err > 1e-7 * (1.0 + abs(val)):
            raise QuadratureFailure(f"convolution value at s={s:g}: error {err:g}")
        return val

    def support(self):
        lo_a, hi_a = self.a.support()
        lo_b, hi_b = self.b.support()
        return (lo_a + lo_b, hi_a + hi_b)

    def grid_convolve(self, ts, G, lam_left):
        # through the module-level name, so each factor is seen as its own shape
        inner = convolve_field(self.b, ts, G, lam_left)
        return convolve_field(self.a, ts, inner, lam_left)

    def truncation_window(self, x):
        lo_a, hi_a = self.a.truncation_window(x)
        lo_b, hi_b = self.b.truncation_window(x)
        return (lo_a + lo_b, hi_a + hi_b)

    def density_window(self):
        lo_a, hi_a = self.a.density_window()
        lo_b, hi_b = self.b.density_window()
        return (lo_a + lo_b, hi_a + hi_b)

    def breakpoints(self):
        return self.a.breakpoints() + self.b.breakpoints()

    def to_dict(self):
        return {"shape": self.shape, "a": self.a.to_dict(), "b": self.b.to_dict()}

    @classmethod
    def from_dict(cls, spec, base_dir=None):
        return convolve(kernel_from_dict(spec["a"], base_dir),
                        kernel_from_dict(spec["b"], base_dir))


_SHAPES = (GaussianKernel, OneSidedExponential, PiecewiseGreen, DiracComb,
           TabulatedKernel, ConvolvedKernel)


def kernel_from_dict(spec: dict, base_dir=None) -> KernelComponent:
    """Kernel from its JSON form; a relative tabulated ``path`` is read from ``base_dir``."""
    if not isinstance(spec, dict):
        raise ValueError(f"kernel must be an object, got {spec!r}")
    shape = spec.get("shape")
    for cls in _SHAPES:
        if cls.shape == shape:
            return cls.from_dict(spec, base_dir)
    raise ValueError(f"unknown kernel shape {shape!r}")


# ---------------------------------------------------------------------------
# module-level operation surface


def laplace(k: KernelComponent, z):
    """Bilateral Laplace transform of k at z; raises OutOfStrip outside the strip."""
    _check_strip(k.abscissas(), z)
    return k.laplace(z)


def convolve(a: KernelComponent, b: KernelComponent) -> KernelComponent:
    """Convolution of two kernels; combs combine exactly, otherwise lazy."""
    if isinstance(a, DiracComb) and isinstance(b, DiracComb):
        offs, ws = [], []
        for oa, wa in zip(a.offsets, a.weights):
            for ob, wb in zip(b.offsets, b.weights):
                offs.append(oa + ob)
                ws.append(wa * wb)
        return DiracComb(tuple(offs), tuple(ws))
    if isinstance(a, DiracComb) and len(a.offsets) == 1 and a.offsets[0] == 0.0 and a.weights[0] == 1.0:
        return b
    if isinstance(b, DiracComb) and len(b.offsets) == 1 and b.offsets[0] == 0.0 and b.weights[0] == 1.0:
        return a
    return ConvolvedKernel(a, b)


def shift_kernel(k: KernelComponent, delta: float) -> KernelComponent:
    """K(. - delta), realized exactly as convolution with a unit point mass."""
    if delta == 0.0:
        return k
    return convolve(DiracComb((delta,), (1.0,)), k)


# ---------------------------------------------------------------------------
# grid action: closure-aware sampling and the building blocks of grid_convolve


def convolve_field(k: KernelComponent, ts: np.ndarray, G: np.ndarray,
                   lam_left: float | None) -> np.ndarray:
    """integral K(s) G~(t - s) ds on the grid, G~ closed per the solver rules.

    G~ is the piecewise-linear interpolant of G on ts, extended by
    G[0] e^{lam_left (t - t0)} on the left (0 when lam_left is None) and by
    its last value G[-1] on the right.
    """
    return k.grid_convolve(ts, G, lam_left)


def _sample(ts, values, x, lam_left):
    """Piecewise-linear field at points x with the solver's closure rules.

    Left of the grid: 0 when lam_left is None, else the exponential
    extension values[0] e^{lam (x - t0)}.  Right of the grid: values[-1].
    """
    out = np.interp(x, ts, values)
    mask = x < ts[0]
    if np.any(mask):
        if lam_left is None:
            out[mask] = 0.0
        else:
            out[mask] = values[0] * np.exp(lam_left * (x[mask] - ts[0]))
    return out


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


def _first_order(E, src):
    """y_i = src_i + E y_{i-1}, y_{-1} = 0.

    ``scipy.signal`` is imported here, on the first grid sweep, so that the
    commands that never convolve on a grid do not pay for loading it.
    """
    from scipy.signal import lfilter
    return lfilter([1.0], [1.0, -E], src)


def _recurse_forward(ts, G, rate, lam_left):
    """H(x_i) = rate * int_0^inf e^{-rate u} G~(x_i - u) du, exact on the interpolant."""
    dt = ts[1] - ts[0]
    E, far, near = _exp_step_weights(rate, dt)
    src = np.empty_like(G)
    src[0] = 0.0 if lam_left is None else G[0] * rate / (rate + lam_left)
    src[1:] = far * G[:-1] + near * G[1:]
    return _first_order(E, src)


def _recurse_backward(ts, G, rate):
    """H(x_i) = rate * int_0^inf e^{-rate v} G~(x_i + v) dv; seeds with the plateau G[-1]."""
    dt = ts[1] - ts[0]
    E, far, near = _exp_step_weights(rate, dt)
    Grev = G[::-1]
    src = np.empty_like(G)
    src[0] = G[-1]
    src[1:] = far * Grev[:-1] + near * Grev[1:]
    return _first_order(E, src)[::-1]


def _shifted(ts, H, shift, lam_left):
    """H(t - shift) on the grid, closed like :func:`_sample`."""
    if shift == 0.0:
        return H.copy()
    return _sample(ts, H, ts - shift, lam_left)


def _sampled_convolve(k: KernelComponent, ts, G, lam_left, lo, hi):
    """Discrete convolution with K sampled at multiples of the grid step on [lo, hi].

    The samples are mass-lumped so constant states stay exact.  Grid-aligned
    samples need no interpolation: the field is padded with its closure
    values (the exponential extension on the left, G[-1] on the right)
    and convolved once.  Direct summation of nonnegative weights and
    nonnegative fields cannot produce negative roundoff, unlike an FFT.
    """
    dt = ts[1] - ts[0]
    jlo = min(math.floor(lo / dt), 0)
    jhi = max(math.ceil(hi / dt), 0)
    kv = np.asarray(k.value(np.arange(jlo, jhi + 1) * dt), dtype=float) * dt
    total = kv.sum()
    if not total > 0:
        raise ValueError(f"{type(k).__name__} has no mass on multiples of the grid step {dt:g}")
    kv *= k.mass / total
    if lam_left is None:
        left = np.zeros(jhi)
    else:
        left = G[0] * np.exp(lam_left * dt * np.arange(-jhi, 0))
    padded = np.concatenate((left, G, np.full(-jlo, G[-1])))
    return np.convolve(padded, kv, "valid")


# ---------------------------------------------------------------------------
# quadrature (the independent route used to cross-check closed forms)


def laplace_quadrature(k: KernelComponent, z):
    """Transform by adaptive (Gauss-Kronrod) panels on a truncated window.

    Independent of the closed forms; used as the second route in tests.
    Atomic combs are summed exactly (no quadrature error on discrete
    measures); a comb convolved with a density reduces to shifted copies.
    """
    z = complex(z)
    _check_strip(k.abscissas(), z)
    if isinstance(k, DiracComb):
        return sum(w * np.exp(-z * a) for a, w in zip(k.offsets, k.weights))
    if isinstance(k, ConvolvedKernel) and isinstance(k.a, DiracComb):
        return k.a.laplace(z) * laplace_quadrature(k.b, z)
    if isinstance(k, ConvolvedKernel) and isinstance(k.b, DiracComb):
        return k.b.laplace(z) * laplace_quadrature(k.a, z)
    lo, hi = k.truncation_window(z.real)
    pts = sorted(p for p in k.breakpoints() if lo < p < hi) or None

    def f_re(s):
        return float(np.real(k.value(s) * np.exp(-z * s)))

    def f_im(s):
        return float(np.imag(k.value(s) * np.exp(-z * s)))

    re, err_re = integrate.quad(f_re, lo, hi, limit=400, epsabs=_QUAD_TOL,
                                epsrel=_QUAD_TOL, points=pts)
    im, err_im = integrate.quad(f_im, lo, hi, limit=400, epsabs=_QUAD_TOL,
                                epsrel=_QUAD_TOL, points=pts)
    scale = 1.0 + abs(complex(re, im))
    if err_re + err_im > 100.0 * _QUAD_TOL * scale:
        raise QuadratureFailure(f"laplace quadrature error {err_re + err_im:g} at z={z}")
    if z.imag == 0.0:
        return re
    return complex(re, im)


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
