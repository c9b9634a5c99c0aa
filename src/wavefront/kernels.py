"""Kernel components and their bilateral Laplace transforms.

Every kernel here is a nonnegative integrable function K(s) with positive
mass, represented exactly enough that its transform

    T(z) = integral K(s) e^{-z s} ds

has a closed form on the maximal open strip sigma < Re z < gamma.  The
supported shapes are the analytic families used by the model reductions
(Gaussian, one-sided exponential, two-sided piecewise exponential built
from the roots nu < 0 < mu of z^2 - c z - q = 0), atomic combs, tabulated
data on a compact grid, and lazy convolutions of the above.

Extended-real abscissas use ``math.inf`` directly; +inf is a meaningful
value (a Gaussian converges everywhere) and is never replaced by a large
sentinel float.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import integrate

from .errors import EmptyStrip, OutOfStrip, QuadratureFailure

INF = math.inf

__all__ = [
    "KernelComponent",
    "GaussianKernel",
    "OneSidedExponential",
    "PiecewiseGreen",
    "DiracComb",
    "TabulatedKernel",
    "ConvolvedKernel",
    "GreenKernel",
    "laplace",
    "abscissas",
    "convolve",
    "convolve_green",
    "laplace_quadrature",
    "load_tabulated",
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
    """Base class: one kernel K(s) with transform, abscissas and mass."""

    compact_support = False
    atomic = False

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

    def convolve(self, other: "KernelComponent") -> "KernelComponent":
        return convolve(self, other)


@dataclass(frozen=True)
class GaussianKernel(KernelComponent):
    """scale * normal density with the given variance; transform e^{v z^2 / 2}."""

    variance: float
    scale: float = 1.0

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


@dataclass(frozen=True)
class PiecewiseGreen(KernelComponent):
    """Two-sided piecewise exponential from the roots nu < 0 < mu of z^2 - c z - q = 0.

    K(s) = scale/(mu - nu) * { e^{nu (s - shift)}  for s >= shift,
                               e^{mu (s - shift)}  for s <  shift },
    with transform scale * e^{-z shift} / (q + c z - z^2) on (nu, mu) and
    mass scale / q, where c = nu + mu, q = -nu mu.
    """

    nu: float
    mu: float
    shift: float = 0.0
    scale: float = 1.0

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


@dataclass(frozen=True)
class DiracComb(KernelComponent):
    """Atomic measure sum_j w_j delta(s - a_j); transform sum_j w_j e^{-z a_j}.

    A finite comb converges everywhere: the lattice abscissa formula
    gamma = -limsup_k ln(w(-k))/k degenerates to +inf once the weights
    vanish beyond a largest offset (ln 0 = -inf), and likewise on the left.
    """

    offsets: tuple[float, ...]
    weights: tuple[float, ...]

    atomic = True
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


class ConvolvedKernel(KernelComponent):
    """Lazy convolution a * b: transform is the product of the factor transforms.

    Pointwise values come from adaptive quadrature and are meant for
    diagnostics; grid-level applications use the factors sequentially.
    """

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
        lo_a, hi_a = _density_window(self.a)
        lo_b, hi_b = _density_window(self.b)
        lo, hi = max(lo_a, s - hi_b), min(hi_a, s - lo_b)
        if hi <= lo:
            return 0.0
        pts = sorted({p for p in _breakpoints(self.a) if lo < p < hi}
                     | {s - p for p in _breakpoints(self.b) if lo < s - p < hi}) or None
        val, err = integrate.quad(lambda u: float(self.a.value(u)) * float(self.b.value(s - u)),
                                  lo, hi, limit=200, points=pts)
        if err > 1e-7 * (1.0 + abs(val)):
            raise QuadratureFailure(f"convolution value at s={s:g}: error {err:g}")
        return val

    def support(self):
        lo_a, hi_a = self.a.support()
        lo_b, hi_b = self.b.support()
        return (lo_a + lo_b, hi_a + hi_b)


@dataclass(frozen=True)
class GreenKernel:
    """Second-order Green kernel data: nu, mu solve z^2 - c z - q = 0.

    Encodes the inverse of the differential part of the profile equation;
    integrates to 1/q.  The first-order analogue (a one-sided exponential)
    is represented directly by :class:`OneSidedExponential`.
    """

    c: float
    q: float
    nu: float = field(default=None)  # type: ignore[assignment]
    mu: float = field(default=None)  # type: ignore[assignment]
    sigma: float = field(default=None)  # type: ignore[assignment]
    shift: float = 0.0

    def __post_init__(self):
        if self.c == 0:
            raise ValueError("wave speed must be nonzero")
        if self.q <= 0:
            raise ValueError("damping coefficient q must be positive")
        disc = math.sqrt(self.c * self.c + 4.0 * self.q)
        nu = (self.c - disc) / 2.0
        mu = (self.c + disc) / 2.0
        if self.nu is None:
            object.__setattr__(self, "nu", nu)
        if self.mu is None:
            object.__setattr__(self, "mu", mu)
        if self.sigma is None:
            object.__setattr__(self, "sigma", disc)
        if abs(self.nu * self.mu + self.q) > 1e-9 * max(1.0, self.q):
            raise ValueError("nu, mu must solve z^2 - c z - q = 0")
        if abs((self.mu - self.nu) - self.sigma) > 1e-9 * max(1.0, self.sigma):
            raise ValueError("sigma must equal mu - nu")

    @property
    def mass(self) -> float:
        return 1.0 / self.q

    def to_component(self) -> PiecewiseGreen:
        return PiecewiseGreen(nu=self.nu, mu=self.mu, shift=self.shift)


# ---------------------------------------------------------------------------
# module-level operation surface


def laplace(k: KernelComponent, z):
    """Bilateral Laplace transform of k at z; raises OutOfStrip outside the strip."""
    _check_strip(k.abscissas(), z)
    return k.laplace(z)


def abscissas(k: KernelComponent) -> tuple[float, float]:
    return k.abscissas()


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


def convolve_green(k: KernelComponent, green) -> KernelComponent:
    """Convolve k with a Green kernel (GreenKernel or any KernelComponent)."""
    g = green.to_component() if isinstance(green, GreenKernel) else green
    return convolve(k, g)


def shift_kernel(k: KernelComponent, delta: float) -> KernelComponent:
    """K(. - delta), realized exactly as convolution with a unit point mass."""
    if delta == 0.0:
        return k
    return convolve(DiracComb((delta,), (1.0,)), k)


# ---------------------------------------------------------------------------
# quadrature (the independent route used to cross-check closed forms)


def _truncation_window(k: KernelComponent, x: float) -> tuple[float, float]:
    """Window outside which K(s)e^{-x s} contributes < ~1e-13 of the integral."""
    tail = math.log(1e16)
    if isinstance(k, GaussianKernel):
        v = k.variance
        center = -x * v
        w = math.sqrt(2.0 * v * tail) + 2.0 * math.sqrt(v)
        return (center - w, center + w)
    if isinstance(k, OneSidedExponential):
        decay = k.rate + x if k.direction == 1 else k.rate - x
        length = tail / decay
        if k.direction == 1:
            return (k.shift, k.shift + length)
        return (k.shift - length, k.shift)
    if isinstance(k, PiecewiseGreen):
        right = tail / (x - k.nu)
        left = tail / (k.mu - x)
        return (k.shift - left, k.shift + right)
    if isinstance(k, TabulatedKernel):
        return k.support()
    if isinstance(k, ConvolvedKernel):
        lo_a, hi_a = _truncation_window(k.a, x)
        lo_b, hi_b = _truncation_window(k.b, x)
        return (lo_a + lo_b, hi_a + hi_b)
    raise TypeError(f"no quadrature window for {type(k).__name__}")


def _density_window(k: KernelComponent) -> tuple[float, float]:
    """Finite interval holding all but ~1e-16 of the kernel's mass."""
    tail = math.log(1e16)
    if isinstance(k, GaussianKernel):
        w = math.sqrt(2.0 * k.variance * tail)
        return (-w, w)
    if isinstance(k, OneSidedExponential):
        length = tail / k.rate
        return (k.shift, k.shift + length) if k.direction == 1 else (k.shift - length, k.shift)
    if isinstance(k, PiecewiseGreen):
        return (k.shift - tail / k.mu, k.shift + tail / (-k.nu))
    if isinstance(k, TabulatedKernel):
        return k.support()
    if isinstance(k, ConvolvedKernel):
        lo_a, hi_a = _density_window(k.a)
        lo_b, hi_b = _density_window(k.b)
        return (lo_a + lo_b, hi_a + hi_b)
    if isinstance(k, DiracComb):
        return k.support()
    raise TypeError(f"no density window for {type(k).__name__}")


def _breakpoints(k: KernelComponent) -> list[float]:
    """Interior kink locations the adaptive panels must split at."""
    if isinstance(k, (OneSidedExponential, PiecewiseGreen)):
        return [k.shift]
    if isinstance(k, TabulatedKernel):
        return [k.grid[0], k.grid[-1]]
    if isinstance(k, ConvolvedKernel):
        return _breakpoints(k.a) + _breakpoints(k.b)
    return []


def laplace_quadrature(k: KernelComponent, z, tol: float = 1e-10):
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
        return k.a.laplace(z) * laplace_quadrature(k.b, z, tol)
    if isinstance(k, ConvolvedKernel) and isinstance(k.b, DiracComb):
        return k.b.laplace(z) * laplace_quadrature(k.a, z, tol)
    lo, hi = _truncation_window(k, z.real)
    pts = sorted(p for p in _breakpoints(k) if lo < p < hi) or None

    def f_re(s):
        return float(np.real(k.value(s) * np.exp(-z * s)))

    def f_im(s):
        return float(np.imag(k.value(s) * np.exp(-z * s)))

    re, err_re = integrate.quad(f_re, lo, hi, limit=400, epsabs=tol, epsrel=tol,
                                points=pts)
    im, err_im = integrate.quad(f_im, lo, hi, limit=400, epsabs=tol, epsrel=tol,
                                points=pts)
    scale = 1.0 + abs(complex(re, im))
    if err_re + err_im > 100.0 * tol * scale:
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
