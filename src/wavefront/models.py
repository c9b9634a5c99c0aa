"""Model families reduced to convolution form at a given wave speed.

Each family rewrites its profile equation as
phi(t) = sum_tau integral K(s,tau) g(phi(t-s),tau) ds over a finite atom
set, inverting the local differential part through an exponential or
two-sided Green kernel and shifting delays into the kernels.  Birth terms
with steep negative slopes and damping terms are made Lipschitz first by
the slope shift g_beta(s) = g(s) + beta s (resp. f_beta(s) = beta s - f(s)),
which cancels identically in the reduced characteristic function.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from ._scalar import brentq
from .charfun import (CharacteristicFunction, SpectralData, _strip_max,
                      min_speed, real_roots)
from .errors import (DegenerateRange, HypothesisViolation, NoRoots,
                     StripTooNarrow, ZeroSpeed)
from .kernels import (DiracComb, KernelComponent, OneSidedExponential,
                      PiecewiseGreen, convolve, kernel_from_dict, shift_kernel)

INF = math.inf
DERIV_SAMPLES = 10_000
DERIV_STEP = 1e-6

__all__ = [
    "Nonlinearity",
    "logistic",
    "mackey_glass",
    "linear",
    "tabulated_nonlinearity",
    "Atom",
    "ConvolutionProblem",
    "ModelSpec",
    "NonlocalKPP",
    "NonlocalLattice",
    "NonlocalDelayedRD",
    "LocalDelayedRD",
    "beta_select",
    "model_chi",
    "ModelChi",
    "model_min_speed",
    "load_model",
    "nonlinearity_from_dict",
    "model_from_dict",
]


@dataclass(frozen=True)
class Nonlinearity:
    """Scalar birth/damping term g with g(0) = 0 and g'(0) > 0.

    ``deriv`` is the analytic derivative when one is registered; otherwise
    derivative extremes fall back to dense sampling with central
    differences (the numerical surrogate for almost-everywhere slope
    conditions).
    """

    fn: callable
    gprime0: float
    deriv: callable | None = None
    holder: tuple[float, float] | None = None  # (C, alpha) with |g(u)-g'(0)u| <= C u^{1+alpha}
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.gprime0 <= 0:
            raise ValueError("g'(0) must be positive")
        g0 = float(self.fn(0.0))
        if abs(g0) > 1e-12:
            raise ValueError(f"g(0) = {g0:g} must vanish")

    def __call__(self, u):
        return self.fn(u)

    def derivative(self, u):
        if self.deriv is not None:
            return self.deriv(u)
        u = np.asarray(u, dtype=float)
        h = DERIV_STEP
        lo = np.maximum(u - h, 0.0)
        return (np.asarray(self.fn(u + h)) - np.asarray(self.fn(lo))) / (u + h - lo)

    def _deriv_samples(self, lo: float, hi: float) -> np.ndarray:
        u = np.linspace(lo, hi, DERIV_SAMPLES)
        return np.asarray(self.derivative(u), dtype=float)

    def inf_deriv(self, lo: float, hi: float) -> float:
        return float(np.min(self._deriv_samples(lo, hi)))

    def sup_deriv(self, lo: float, hi: float) -> float:
        return float(np.max(self._deriv_samples(lo, hi)))

    def lipschitz_on(self, M: float) -> float:
        """Lipschitz constant of g on [0, M] (sup |g'|, analytic or sampled)."""
        if M <= 0:
            raise DegenerateRange("bound M must be positive")
        d = self._deriv_samples(0.0, M)
        return float(np.max(np.abs(d)))

    def to_dict(self) -> dict:
        return {"kind": self.name, **self.params}


def logistic(rate: float = 2.0, carrying: float = 1.0) -> Nonlinearity:
    """g(u) = rate * u * (1 - u/carrying); slope at zero is ``rate``."""
    if rate <= 0 or carrying <= 0:
        raise ValueError("rate and carrying capacity must be positive")
    return Nonlinearity(
        fn=lambda u: rate * np.asarray(u) * (1.0 - np.asarray(u) / carrying),
        deriv=lambda u: rate * (1.0 - 2.0 * np.asarray(u) / carrying),
        gprime0=rate,
        holder=(rate / carrying, 1.0),
        name="logistic",
        params={"rate": rate, "carrying": carrying},
    )


def mackey_glass(p: float = 2.0, n: float = 6.0) -> Nonlinearity:
    """g(u) = p u / (1 + u^n), the saturating feedback nonlinearity."""
    if p <= 0 or n <= 0:
        raise ValueError("p and n must be positive")

    def fn(u):
        u = np.asarray(u, dtype=float)
        return p * u / (1.0 + u ** n)

    def deriv(u):
        u = np.asarray(u, dtype=float)
        un = u ** n
        return p * (1.0 + (1.0 - n) * un) / (1.0 + un) ** 2

    return Nonlinearity(fn=fn, deriv=deriv, gprime0=p, holder=(p, min(n, 1.0)),
                        name="mackey_glass", params={"p": p, "n": n})


def linear(slope: float = 1.0) -> Nonlinearity:
    if slope <= 0:
        raise ValueError("slope must be positive")
    return Nonlinearity(fn=lambda u: slope * np.asarray(u, dtype=float),
                        deriv=lambda u: np.full_like(np.asarray(u, dtype=float), slope),
                        gprime0=slope, name="linear", params={"slope": slope})


identity = linear  # the tau-atoms carrying the linear part use g(s, tau) = s


def tabulated_nonlinearity(u, g, gprime0: float | None = None) -> Nonlinearity:
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    if u.ndim != 1 or u.shape != g.shape or u.size < 3:
        raise ValueError("need matching 1-d u/g samples with >= 3 points")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(g))):
        raise ValueError("u/g samples must be finite")
    if u[0] != 0.0 or abs(g[0]) > 1e-12:
        raise ValueError("samples must start at u=0 with g(0)=0")
    if np.any(np.diff(u) <= 0):
        raise ValueError("u samples must be strictly increasing")
    gp0 = gprime0 if gprime0 is not None else float(g[1] / u[1])
    return Nonlinearity(fn=lambda x: np.interp(np.asarray(x, dtype=float), u, g),
                        gprime0=gp0, name="tabulated",
                        params={"u": u.tolist(), "g": g.tolist(), "gprime0": gp0})


def beta_select(n: Nonlinearity, M: float, role: str = "birth", margin: float = 1.0) -> float:
    """Slope shift beta making the shifted term Lipschitz on [0, M].

    birth:   g_beta(s) = g(s) + beta s with constant beta + g'(0);
             beta = max(0, (-inf g' - g'(0)) / 2) + margin.
    damping: f_beta(s) = beta s - f(s) >= 0 with constant beta - inf f';
             beta = max(f'(0), sup f' - inf f', sup f') + margin, the extra
             sup f' term keeping f_beta nondecreasing for slope profiles the
             midpoint rule alone would miss.

    ``inf f'`` for the damping role is taken over s >= 0, sampled out to
    max(10 M, 100).
    """
    if M <= 0:
        raise DegenerateRange("bound M must be positive")
    if margin <= 0:
        raise ValueError("margin must be positive")
    if role == "birth":
        inf_d = n.inf_deriv(0.0, M)
        return max(0.0, (-inf_d - n.gprime0) / 2.0) + margin
    if role == "damping":
        sup_d = n.sup_deriv(0.0, M)
        inf_d = n.inf_deriv(0.0, max(10.0 * M, 100.0))
        return max(n.gprime0, sup_d - inf_d, sup_d) + margin
    raise ValueError("role must be 'birth' or 'damping'")


def _birth_shift(g: Nonlinearity, beta: float) -> Nonlinearity:
    return Nonlinearity(fn=lambda u: np.asarray(g.fn(u)) + beta * np.asarray(u, dtype=float),
                        deriv=(None if g.deriv is None
                               else lambda u: np.asarray(g.deriv(u)) + beta),
                        gprime0=g.gprime0 + beta, holder=g.holder,
                        name=f"{g.name}+beta*u", params={**g.params, "beta": beta})


def _damping_shift(f: Nonlinearity, beta: float) -> Nonlinearity:
    return Nonlinearity(fn=lambda u: beta * np.asarray(u, dtype=float) - np.asarray(f.fn(u)),
                        deriv=(None if f.deriv is None
                               else lambda u: beta - np.asarray(f.deriv(u))),
                        gprime0=beta - f.gprime0,
                        name=f"beta*u-{f.name}", params={**f.params, "beta": beta})


@dataclass(frozen=True)
class Atom:
    """One tau-atom of the convolution problem."""

    kernel: KernelComponent
    nonlinearity: Nonlinearity
    weight: float            # g'(0, tau)
    lipschitz_weight: float  # lambda(tau)


@dataclass
class ConvolutionProblem:
    """Finite-atom convolution problem at a fixed speed c, assembled and frozen.

    ``spectral`` is the real-zero data of the derivative-weighted
    characteristic function, found on first read, or None when chi has no
    positive zero (the problem stays usable by the solver, which then
    reports NoWave).
    """

    atoms: tuple[Atom, ...]
    speed: float
    beta_used: float
    bound: float
    family: str

    def __post_init__(self):
        for a in self.atoms:
            if a.kernel.mass <= 0:
                raise ValueError("atom kernels must have positive mass")
        chi0 = self.chi0()
        if chi0 >= 0:
            raise HypothesisViolation(f"chi(0) = {chi0:g} must be negative")
        sigma_K, gamma_K = self.charfun().strip
        if not sigma_K < 0.0 < gamma_K:
            raise StripTooNarrow(
                f"assembled strip ({sigma_K:g}, {gamma_K:g}) must straddle 0")

    @cached_property
    def spectral(self) -> SpectralData | None:
        try:
            return real_roots(self.charfun())
        except NoRoots:
            return None

    def chi0(self) -> float:
        return 1.0 - sum(a.weight * a.kernel.mass for a in self.atoms)

    def charfun(self) -> CharacteristicFunction:
        return CharacteristicFunction(tuple((a.kernel, a.weight) for a in self.atoms))

    def charfun_lipschitz(self) -> CharacteristicFunction:
        return CharacteristicFunction(
            tuple((a.kernel, a.lipschitz_weight) for a in self.atoms))

    def equilibrium(self) -> float:
        """Smallest positive root of kappa = sum_tau mass_tau g_tau(kappa) on (0, bound]."""
        terms = [(a.kernel.mass, a.nonlinearity) for a in self.atoms]
        kappa = _smallest_root(lambda x: sum(m * g(x) for m, g in terms) - x, self.bound)
        if kappa is None:
            raise NoRoots(f"no positive equilibrium on (0, {self.bound:g}]")
        return kappa


def _smallest_root(F, hi: float) -> float | None:
    """First sign change of F on 4000 points of [1e-6 hi, hi], refined by brentq.

    F takes an array for the scan and a scalar for brentq; None when F
    keeps one sign on the scan.
    """
    xs = np.linspace(hi * 1e-6, hi, 4000)
    idx = np.flatnonzero(np.diff(np.sign(F(xs))))
    if not len(idx):
        return None
    i = idx[0]
    return brentq(F, xs[i], xs[i + 1], xtol=1e-14)


def _bound_from(F) -> float:
    """1.5 times the smallest positive root of F on (0, 1], (0, 10] or (0, 100]; else 1."""
    for hi in (1.0, 10.0, 100.0):
        kappa = _smallest_root(F, hi)
        if kappa is not None:
            return 1.5 * kappa
    return 1.0


class ModelSpec:
    """Base for the four reducible families."""

    family: str = ""

    def validate(self) -> None:
        raise NotImplementedError

    def default_bound(self) -> float:
        raise NotImplementedError

    def to_convolution_form(self, c: float, M: float | None = None,
                            margin: float = 1.0) -> ConvolutionProblem:
        raise NotImplementedError

    def _resolve_bound(self, M: float | None, margin: float) -> float:
        """The solution bound M (``default_bound()`` when None); M and margin must be positive."""
        if not margin > 0:
            raise ValueError(f"margin must be positive, got {margin:g}")
        if M is None:
            return self.default_bound()
        if not M > 0:
            raise ValueError(f"bound must be positive, got {M:g}")
        return M

    def tilde_chi(self, z, c: float):
        """Closed-form numerator of the assembled chi (derivative weights)."""
        raise NotImplementedError

    def tilde_chi_lipschitz(self, z, c: float):
        """Closed-form numerator of the assembled chi_1 (Lipschitz weights)."""
        return self.tilde_chi(z, c)

    def denominator(self, z, c: float, beta: float):
        raise NotImplementedError

    def tilde_strip(self, c: float) -> tuple[float, float]:
        """z-interval on which tilde_chi is evaluable (independent of beta)."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _check_speed(self, c: float, negative_ok: bool = False) -> None:
        if c == 0:
            raise ZeroSpeed("c = 0: stationary fronts are out of scope")
        if c < 0 and not negative_ok:
            raise HypothesisViolation(
                f"family '{self.family}' supports positive wave speeds only")


@dataclass(frozen=True)
class NonlocalKPP(ModelSpec):
    """u_t = J*u - u + g(u) with dispersal kernel J (possibly asymmetric)."""

    J: KernelComponent
    g: Nonlinearity

    family = "nonlocal_kpp"

    def validate(self):
        if not 1.0 - self.J.mass < self.g.gprime0:
            raise HypothesisViolation(
                f"need 1 - mass(J) < g'(0): {1.0 - self.J.mass:g} vs {self.g.gprime0:g}")

    def default_bound(self):
        slope = self.J.mass - 1.0
        return _bound_from(lambda x: slope * x + self.g(x))

    def to_convolution_form(self, c, M=None, margin=1.0):
        self.validate()
        self._check_speed(c, negative_ok=True)
        M = self._resolve_bound(M, margin)
        beta = beta_select(self.g, M, role="birth", margin=margin)
        k = OneSidedExponential(rate=(1.0 + beta) / abs(c),
                                direction=1 if c > 0 else -1,
                                scale=1.0 / (1.0 + beta))
        gb = _birth_shift(self.g, beta)
        atoms = (
            Atom(convolve(k, self.J), identity(1.0), 1.0, 1.0),
            Atom(k, gb, gb.gprime0, gb.gprime0),
        )
        return ConvolutionProblem(atoms, c, beta, M, self.family)

    def tilde_chi(self, z, c):
        return 1.0 - self.g.gprime0 + c * np.asarray(z) - self.J.laplace(z)

    def denominator(self, z, c, beta):
        return 1.0 + beta + c * np.asarray(z)

    def tilde_strip(self, c):
        return self.J.abscissas()

    def to_dict(self):
        return {"family": self.family, "kernel": self.J.to_dict(),
                "nonlinearity": self.g.to_dict()}


@dataclass(frozen=True)
class NonlocalLattice(ModelSpec):
    """Lattice sites coupled to nearest neighbours with dispersed delayed birth."""

    D: float
    d: float
    beta_weights: dict
    g: Nonlinearity
    delay: float = 0.0

    family = "nonlocal_lattice"
    TRUNCATE_RTOL = 1e-15

    def __post_init__(self):
        if self.D <= 0 or self.d <= 0:
            raise ValueError("need D > 0 and d > 0")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        clean = {int(k): float(w) for k, w in self.beta_weights.items() if float(w) > 0}
        if not clean:
            raise ValueError("comb weights must include a positive entry")
        wmax = max(clean.values())
        kept = {k: w for k, w in clean.items() if w > self.TRUNCATE_RTOL * wmax}
        object.__setattr__(self, "beta_weights", kept)
        object.__setattr__(self, "_truncation_error", sum(clean.values()) - sum(kept.values()))

    @property
    def truncation_error(self) -> float:
        return self._truncation_error

    def _comb_sum(self) -> float:
        return sum(self.beta_weights.values())

    def validate(self):
        if not self.g.gprime0 * self._comb_sum() > self.d:
            raise HypothesisViolation(
                f"need g'(0) sum(beta) > d: {self.g.gprime0 * self._comb_sum():g} vs {self.d:g}")

    def default_bound(self):
        s = self._comb_sum()
        return _bound_from(lambda x: s * self.g(x) - self.d * x)

    def to_convolution_form(self, c, M=None, margin=1.0):
        self.validate()
        self._check_speed(c)
        M = self._resolve_bound(M, margin)
        H0 = OneSidedExponential(rate=(2.0 * self.D + self.d) / c,
                                 scale=1.0 / (2.0 * self.D + self.d))
        neigh = DiracComb((-1.0, 1.0), (self.D, self.D))
        ks = sorted(self.beta_weights)
        comb = DiracComb(tuple(k + c * self.delay for k in ks),
                         tuple(self.beta_weights[k] for k in ks))
        atoms = (
            Atom(convolve(neigh, H0), identity(1.0), 1.0, 1.0),
            Atom(convolve(comb, H0), self.g, self.g.gprime0, self.g.gprime0),
        )
        return ConvolutionProblem(atoms, c, 0.0, M, self.family)

    def _comb_transform(self, z):
        z = np.asarray(z)
        out = 0.0
        for k, w in sorted(self.beta_weights.items()):
            out = out + w * np.exp(-k * z)
        return out

    def tilde_chi(self, z, c):
        z = np.asarray(z)
        return (self.d + 2.0 * self.D + c * z - self.D * (np.exp(z) + np.exp(-z))
                - self.g.gprime0 * np.exp(-c * self.delay * z) * self._comb_transform(z))

    def denominator(self, z, c, beta):
        return 2.0 * self.D + self.d + c * np.asarray(z)

    def tilde_strip(self, c):
        return (-INF, INF)

    def to_dict(self):
        return {"family": self.family, "D": self.D, "d": self.d,
                "beta": {str(k): w for k, w in sorted(self.beta_weights.items())},
                "delay": self.delay, "nonlinearity": self.g.to_dict()}


@dataclass(frozen=True)
class NonlocalDelayedRD(ModelSpec):
    """u_t = u_xx - f(u) + (k * g(u(t-h, .)))(x) with strictly increasing damping f."""

    f: Nonlinearity
    g: Nonlinearity
    k: KernelComponent
    delay: float

    family = "nonlocal_delayed_rd"

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError("delay must be >= 0")

    def validate(self):
        if not self.g.gprime0 > self.f.gprime0:
            raise HypothesisViolation(
                f"need g'(0) > f'(0): {self.g.gprime0:g} vs {self.f.gprime0:g}")
        if self.f.inf_deriv(0.0, max(1.0, 10.0)) < -1e-9:
            raise HypothesisViolation("damping term must be increasing")

    def _inf_fprime(self) -> float:
        return self.f.inf_deriv(0.0, 100.0)

    def default_bound(self):
        mass = self.k.mass
        return _bound_from(lambda x: mass * self.g(x) - self.f(x))

    def to_convolution_form(self, c, M=None, margin=1.0):
        self.validate()
        self._check_speed(c)
        M = self._resolve_bound(M, margin)
        beta = beta_select(self.f, M, role="damping", margin=margin)
        green = PiecewiseGreen.from_speed_damping(c, beta)
        k_h = shift_kernel(self.k, c * self.delay)
        fb = _damping_shift(self.f, beta)
        atoms = (
            Atom(convolve(k_h, green), self.g, self.g.gprime0, self.g.gprime0),
            Atom(green, fb, beta - self.f.gprime0, beta - self._inf_fprime()),
        )
        return ConvolutionProblem(atoms, c, beta, M, self.family)

    def tilde_chi(self, z, c):
        z = np.asarray(z)
        return (c * z - z * z + self.f.gprime0
                - self.g.gprime0 * np.exp(-z * c * self.delay) * self.k.laplace(z))

    def tilde_chi_lipschitz(self, z, c):
        z = np.asarray(z)
        return (c * z - z * z + self._inf_fprime()
                - self.g.gprime0 * np.exp(-z * c * self.delay) * self.k.laplace(z))

    def denominator(self, z, c, beta):
        z = np.asarray(z)
        return beta + c * z - z * z

    def tilde_strip(self, c):
        return self.k.abscissas()

    def to_dict(self):
        return {"family": self.family, "damping": self.f.to_dict(),
                "kernel": self.k.to_dict(), "delay": self.delay,
                "nonlinearity": self.g.to_dict()}


@dataclass(frozen=True)
class LocalDelayedRD(ModelSpec):
    """u_t = u_xx - u + g(u(t-h, x)), the local delayed reaction-diffusion model."""

    g: Nonlinearity
    L: float
    delay: float = 0.0

    family = "local_delayed_rd"

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.L < self.g.gprime0:
            raise ValueError("Lipschitz bound L must be >= g'(0)")

    def validate(self):
        if not self.g.gprime0 > 1.0:
            raise HypothesisViolation(f"need g'(0) > 1: {self.g.gprime0:g}")

    def default_bound(self):
        return _bound_from(lambda x: self.g(x) - x)

    def to_convolution_form(self, c, M=None, margin=1.0):
        self.validate()
        self._check_speed(c)
        M = self._resolve_bound(M, margin)
        green = PiecewiseGreen.from_speed_damping(c, 1.0, shift=c * self.delay)
        atoms = (Atom(green, self.g, self.g.gprime0, self.L),)
        return ConvolutionProblem(atoms, c, 0.0, M, self.family)

    def tilde_chi(self, z, c):
        z = np.asarray(z)
        return 1.0 + c * z - z * z - self.g.gprime0 * np.exp(-z * c * self.delay)

    def tilde_chi_lipschitz(self, z, c):
        z = np.asarray(z)
        return 1.0 + c * z - z * z - self.L * np.exp(-z * c * self.delay)

    def denominator(self, z, c, beta):
        z = np.asarray(z)
        return 1.0 + c * z - z * z

    def tilde_strip(self, c):
        return (-INF, INF)

    def to_dict(self):
        return {"family": self.family, "L": self.L, "delay": self.delay,
                "nonlinearity": self.g.to_dict()}


@dataclass(frozen=True)
class ModelChi:
    """Assembled characteristic functions plus their closed-form factorization."""

    problem: ConvolutionProblem
    cf: CharacteristicFunction
    cf_lipschitz: CharacteristicFunction
    tilde: callable
    tilde_lipschitz: callable
    denominator: callable


def model_chi(m: ModelSpec, c: float, M: float | None = None,
              margin: float = 1.0) -> ModelChi:
    """Assemble the problem at speed c and expose both chi routes.

    The identity chi(z) == tilde(z) / denominator(z) on the strip is the
    core test surface tying the reduction to its closed form.
    """
    prob = m.to_convolution_form(c, M, margin)
    beta = prob.beta_used
    return ModelChi(
        problem=prob,
        cf=prob.charfun(),
        cf_lipschitz=prob.charfun_lipschitz(),
        tilde=lambda z: m.tilde_chi(z, c),
        tilde_lipschitz=lambda z: m.tilde_chi_lipschitz(z, c),
        denominator=lambda z: m.denominator(z, c, beta),
    )


def _closed_max_at(m: ModelSpec):
    @cache
    def max_at(c: float) -> tuple[float, float]:
        return _strip_max(lambda z: float(np.real(m.tilde_chi_lipschitz(z, c))),
                          m.tilde_strip(c))

    return max_at


def model_min_speed(m: ModelSpec, M: float | None = None, margin: float = 1.0,
                    via: str = "assembled") -> tuple[float, float]:
    """Minimal admissible speed (c*, z*) of the family's characteristic function.

    via='assembled' runs the tangency search on the fully assembled
    Lipschitz-weighted chi, so the slope shift enters and must cancel;
    via='closed_form' uses the family's beta-free closed form directly.
    Both routes agree to solver tolerance.  Each trial speed is assembled
    and maximized once: the bracket walk and the root search share one cache.
    """
    m.validate()
    if via == "assembled":
        # the bound does not depend on c: resolve it once, not per trial speed
        M = m._resolve_bound(M, margin)

        @cache
        def max_at(c: float) -> tuple[float, float]:
            cf = m.to_convolution_form(c, M, margin).charfun_lipschitz()
            return _strip_max(lambda z: float(np.real(cf(z))), cf.strip)
    elif via == "closed_form":
        max_at = _closed_max_at(m)
    else:
        raise ValueError("via must be 'assembled' or 'closed_form'")

    # expand a bracket on the positive axis; the nonlocal dispersal family
    # admits c* <= 0, which the beta-free closed form handles across c = 0
    hi = 1.0
    while max_at(hi)[1] < 0.0:
        hi *= 2.0
        if hi > 512.0:
            raise HypothesisViolation("no admissible speed below 512")
    lo = hi / 2.0
    while max_at(lo)[1] > 0.0 and lo > 1e-4:
        lo /= 2.0
    if max_at(lo)[1] > 0.0:
        if not isinstance(m, NonlocalKPP):
            raise HypothesisViolation(
                f"max chi positive down to c = {lo:g}; c* at or below zero is outside "
                f"the supported range for family '{m.family}'")
        # c* <= 0: walk the closed form to negative speeds, where it stays
        # regular across c = 0
        max_at = _closed_max_at(m)
        lo = -1.0
        while lo > -512.0 and max_at(lo)[1] > 0.0:
            lo *= 2.0
        if lo <= -512.0:
            raise HypothesisViolation("no sign change of max chi down to c = -512")
    return min_speed(max_at, (lo, hi))


# ---------------------------------------------------------------------------
# JSON model files


def _object(spec, what: str) -> dict:
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be an object, got {spec!r}")
    return spec


def nonlinearity_from_dict(spec: dict) -> Nonlinearity:
    kind = _object(spec, "nonlinearity").get("kind")
    if kind == "logistic":
        return logistic(rate=spec.get("rate", 2.0), carrying=spec.get("carrying", 1.0))
    if kind == "mackey_glass":
        return mackey_glass(p=spec.get("p", 2.0), n=spec.get("n", 6.0))
    if kind == "linear":
        return linear(slope=spec.get("slope", 1.0))
    if kind == "tabulated":
        return tabulated_nonlinearity(spec["u"], spec["g"], spec.get("gprime0"))
    raise ValueError(f"unknown nonlinearity kind {kind!r}")


def model_from_dict(spec: dict, base_dir=None) -> ModelSpec:
    """Model from its JSON form; ``base_dir`` resolves relative kernel file paths."""
    family = _object(spec, "model").get("family")
    g = nonlinearity_from_dict(spec["nonlinearity"])
    if family == "nonlocal_kpp":
        return NonlocalKPP(J=kernel_from_dict(spec["kernel"], base_dir), g=g)
    if family == "nonlocal_lattice":
        beta = _object(spec["beta"], "beta")
        return NonlocalLattice(D=spec["D"], d=spec["d"], beta_weights=beta,
                               g=g, delay=spec.get("delay", 0.0))
    if family == "nonlocal_delayed_rd":
        return NonlocalDelayedRD(f=nonlinearity_from_dict(spec["damping"]), g=g,
                                 k=kernel_from_dict(spec["kernel"], base_dir),
                                 delay=spec.get("delay", 0.0))
    if family == "local_delayed_rd":
        return LocalDelayedRD(g=g, L=spec.get("L", g.gprime0),
                              delay=spec.get("delay", 0.0))
    raise ValueError(f"unknown family {family!r}")


def _finite_float(text: str) -> float:
    # json hands NaN, Infinity and -Infinity (not JSON) here as well as
    # literals such as 1e999 that overflow
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite number")
    return x


def _float_sized_int(text: str) -> int:
    # every model number is used as a float; a larger integer would
    # overflow there
    n = int(text)
    try:
        float(n)
    except OverflowError:
        raise ValueError(f"integer of {len(text)} digits is too large for a float") from None
    return n


def load_model(path) -> tuple[ModelSpec, dict]:
    """Load a model JSON file; returns (spec, full config dict).

    A relative kernel ``path`` inside it is read from the file's directory.
    """
    with open(path) as fh:
        cfg = json.load(fh, parse_constant=_finite_float, parse_float=_finite_float,
                        parse_int=_float_sized_int)
    return model_from_dict(cfg, os.path.dirname(path)), cfg
