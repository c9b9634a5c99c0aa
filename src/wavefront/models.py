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
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial

import numpy as np

from ._scalar import brentq
from .charfun import (CharacteristicFunction, SpectralData, _strip_max,
                      min_speed, real_roots)
from .errors import HypothesisViolation, NoRoots, StripTooNarrow, ZeroSpeed
from .kernels import (DiracComb, KernelComponent, OneSidedExponential,
                      PiecewiseGreen, _check_keys, _check_param, _check_samples, _object,
                      convolve, kernel_from_dict, shift_kernel)

INF = math.inf
DERIV_SAMPLES = 10_000
DERIV_STEP = 1e-6
S_MAX = 100.0  # inf f' over s >= 0 is read on [0, S_MAX]

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
    "model_min_speed",
    "load_model",
    "nonlinearity_from_dict",
    "model_from_dict",
]


@dataclass(frozen=True)
class Nonlinearity:
    """Scalar birth/damping term g with g(0) = 0 and g'(0) > 0; the one owner of its slopes.

    ``deriv`` is the analytic derivative when one is registered, else
    central differences.  Every slope condition besides g'(0) reads
    ``slopes``, dense sampling (the surrogate for almost-everywhere slope
    conditions) cached once per (nonlinearity, interval).
    """

    fn: callable
    gprime0: float
    deriv: callable | None = None
    name: str = "custom"

    def __post_init__(self):
        _check_param("g'(0)", self.gprime0)
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

    # bounded: every model load and slope shift makes new nonlinearities
    @lru_cache(maxsize=256)
    def slopes(self, lo: float, hi: float) -> tuple[float, float]:
        """(inf g', sup g') over DERIV_SAMPLES equispaced points of [lo, hi]."""
        d = np.asarray(self.derivative(np.linspace(lo, hi, DERIV_SAMPLES)), dtype=float)
        return float(np.min(d)), float(np.max(d))

    def lipschitz_on(self, M: float) -> float:
        """Lipschitz constant of g on [0, M] (sup |g'|, analytic or sampled)."""
        inf_d, sup_d = self.slopes(0.0, _check_param("bound M", M))
        return max(sup_d, -inf_d)


def logistic(rate: float = 2.0, carrying: float = 1.0) -> Nonlinearity:
    """g(u) = rate * u * (1 - u/carrying); slope at zero is ``rate``."""
    _check_param("rate", rate)
    _check_param("carrying", carrying)
    return Nonlinearity(fn=lambda u: rate * u * (1.0 - u / carrying),
                        deriv=lambda u: rate * (1.0 - 2.0 * np.asarray(u) / carrying),
                        gprime0=rate, name="logistic")


def mackey_glass(p: float = 2.0, n: float = 6.0) -> Nonlinearity:
    """g(u) = p u / (1 + u^n), the saturating feedback nonlinearity."""
    _check_param("p", p)
    _check_param("n", n)

    def deriv(u):
        un = np.power(u, n)
        return p * (1.0 + (1.0 - n) * un) / (1.0 + un) ** 2

    return Nonlinearity(fn=lambda u: p * u / (1.0 + np.power(u, n)), deriv=deriv,
                        gprime0=p, name="mackey_glass")


def linear(slope: float = 1.0) -> Nonlinearity:
    """g(u) = slope u; at slope 1 it returns its argument, which 1.0 * u equals bit for bit.

    No caller writes into a nonlinearity's result, so the identity need not copy.
    """
    _check_param("slope", slope)
    return Nonlinearity(fn=(lambda u: u) if slope == 1.0 else (lambda u: slope * u),
                        deriv=lambda u: np.full_like(np.asarray(u, dtype=float), slope),
                        gprime0=slope, name="linear")


def tabulated_nonlinearity(u, g) -> Nonlinearity:
    """Piecewise-linear interpolant of the samples; g'(0) is its first segment's slope."""
    u = _check_samples("u samples", u)
    g = _check_samples("g samples", g)
    if u.ndim != 1 or u.shape != g.shape or u.size < 3:
        raise ValueError("need matching 1-d u/g samples with >= 3 points")
    if u[0] != 0.0 or abs(g[0]) > 1e-12:
        raise ValueError("samples must start at u=0 with g(0)=0")
    if np.any(np.diff(u) <= 0):
        raise ValueError("u samples must be strictly increasing")
    return Nonlinearity(fn=lambda x: np.interp(np.asarray(x, dtype=float), u, g),
                        gprime0=float(g[1] / u[1]), name="tabulated")


def _slope_shift(g: Nonlinearity, sign: float, beta: float, name: str) -> Nonlinearity:
    """sign * g(u) + beta * u: the birth shift g_beta (sign 1) or the damping shift f_beta (-1)."""
    return Nonlinearity(fn=lambda u: sign * g.fn(u) + beta * u,
                        deriv=(None if g.deriv is None
                               else lambda u: sign * np.asarray(g.deriv(u)) + beta),
                        gprime0=sign * g.gprime0 + beta, name=name)


@dataclass(frozen=True)
class Atom:
    """One tau-atom of the convolution problem; its chi weight g'(0, tau) is the nonlinearity's."""

    kernel: KernelComponent
    nonlinearity: Nonlinearity
    lipschitz_weight: float  # lambda(tau)

    @property
    def weight(self) -> float:
        return self.nonlinearity.gprime0


@dataclass
class ConvolutionProblem:
    """Finite-atom convolution problem at a fixed speed c, assembled and frozen.

    ``spectral`` is the real-zero data of the derivative-weighted
    characteristic function, found on first read, or None when chi has no
    positive zero (the problem stays usable by the solver, which then
    reports NoWave).  ``relaxation`` is the solver's sweep weight theta,
    set from the negative slopes of the atoms on [0, kappa].
    """

    atoms: tuple[Atom, ...]
    speed: float
    bound: float

    def __post_init__(self):
        _check_param("speed", self.speed, -INF)
        _check_param("bound", self.bound)
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

    # a drop -inf g' within 4 eps of g'(0) is rounding, as a shift within 4 eps is (_snap_steps)
    SLOPE_SNAP_RTOL = 4.0 * np.finfo(float).eps

    @cached_property
    def relaxation(self) -> float:
        """theta = 2 / (2 + ell) with ell = sum_tau mass_tau max(0, -inf_[0, kappa] g_tau').

        ell bounds the negative part of the sweep map's slope near the
        plateau: theta = 1 (plain iteration) where N is order-preserving on
        [0, kappa], and 2 / (2 + ell) otherwise, which balances a real
        spectrum in [-ell, 0] however large ell grows.  0 < theta <= 1
        always, so every sweep stays a convex combination of nonnegative
        fields.  A drop of at most SLOPE_SNAP_RTOL g'(0) counts as 0: the
        logistic's g'(kappa) = -4.4e-16 at kappa = 0.5000000000000001 is one.
        """
        kappa = self.equilibrium()
        ell = sum(a.kernel.mass * drop for a in self.atoms
                  if (drop := -a.nonlinearity.slopes(0.0, kappa)[0])
                  > self.SLOPE_SNAP_RTOL * a.nonlinearity.gprime0)
        return 2.0 / (2.0 + ell)

    @cached_property
    def outer_groups(self) -> tuple:
        """The atoms grouped by the outer factor of their kernels, in order of first atom.

        One group is (outer, ((inner, g), ...)), an atom's kernel being
        outer * inner (inner None when it is outer itself), so that
        N[phi] = sum over groups of outer * sum (inner * g(phi)): a sweep
        applies each outer kernel once.
        """
        groups: dict = {}
        for a in self.atoms:
            outer, inner = a.kernel.factors()
            groups.setdefault(outer, []).append((inner, a.nonlinearity))
        return tuple((outer, tuple(terms)) for outer, terms in groups.items())

    def chi0(self) -> float:
        return 1.0 - sum(a.weight * a.kernel.mass for a in self.atoms)

    def charfun(self) -> CharacteristicFunction:
        return CharacteristicFunction(tuple((a.kernel, a.weight) for a in self.atoms))

    def charfun_lipschitz(self) -> CharacteristicFunction:
        return CharacteristicFunction(
            tuple((a.kernel, a.lipschitz_weight) for a in self.atoms))

    def equilibrium(self) -> float:
        """Smallest positive root of kappa = sum_tau mass_tau g_tau(kappa) on (0, bound].

        Found on the first call; later calls return the same float.
        """
        return self._kappa

    @cached_property
    def _kappa(self) -> float:
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
    """1.5 times the smallest positive root of F on (0, 1], (0, 10] or (0, 100].

    F > 0 on all of (0, 100] leaves the model without a positive
    equilibrium: NoRoots, before any command reports on it.  F < 0 there
    means F'(0) <= 0, that is chi(0) >= 0, which the assembly refuses by
    name; the bound 1 stands in until then.
    """
    for hi in (1.0, 10.0, 100.0):
        kappa = _smallest_root(F, hi)
        if kappa is not None:
            return 1.5 * kappa
    if F(hi) > 0:
        raise NoRoots(f"no positive equilibrium on (0, {hi:g}]")
    return 1.0


class ModelSpec:
    """Base for the four reducible families."""

    family: str = ""
    # c* may be <= 0, so speeds c < 0 are valid (c = 0 never is)
    admits_nonpositive_speed: bool = False

    def default_bound(self) -> float:
        raise NotImplementedError

    def to_convolution_form(self, c: float, M: float | None = None) -> ConvolutionProblem:
        raise NotImplementedError

    def _resolve_bound(self, M: float | None) -> float:
        """The solution bound M (``default_bound()`` when None); M must be positive."""
        return self.default_bound() if M is None else _check_param("bound M", M)

    def _checked_bound(self, c: float, M: float | None) -> float:
        """Every family's ``to_convolution_form`` preamble: check c, then resolve M."""
        _check_param("c", c, -INF)
        if c == 0:
            raise ZeroSpeed("c = 0: stationary fronts are out of scope")
        if c < 0 and not self.admits_nonpositive_speed:
            raise HypothesisViolation(
                f"family '{self.family}' supports positive wave speeds only")
        return self._resolve_bound(M)


@dataclass(frozen=True)
class NonlocalKPP(ModelSpec):
    """u_t = J*u - u + g(u) with dispersal kernel J (possibly asymmetric)."""

    J: KernelComponent
    g: Nonlinearity

    family = "nonlocal_kpp"
    admits_nonpositive_speed = True

    def default_bound(self):
        slope = self.J.mass - 1.0
        return _bound_from(lambda x: slope * x + self.g(x))

    def to_convolution_form(self, c, M=None):
        M = self._checked_bound(c, M)
        # g_beta(s) = g(s) + beta s has constant beta + g'(0) on [0, M]
        inf_d, _ = self.g.slopes(0.0, M)
        beta = max(0.0, (-inf_d - self.g.gprime0) / 2.0) + 1.0
        k = OneSidedExponential(rate=(1.0 + beta) / abs(c),
                                direction=1 if c > 0 else -1,
                                scale=1.0 / (1.0 + beta))
        gb = _slope_shift(self.g, 1.0, beta, f"{self.g.name}+beta*u")
        atoms = (
            Atom(convolve(k, self.J), linear(1.0), 1.0),
            Atom(k, gb, gb.gprime0),
        )
        return ConvolutionProblem(atoms, c, M)

    def tilde_chi_lipschitz(self, z, c):
        return 1.0 - self.g.gprime0 + c * z - self.J.laplace(z)

    def tilde_strip(self, c):
        return self.J.abscissas()


def _comb_site(k) -> int:
    """The lattice site a comb key names: 1, -1, "-1" and 1.0 name one; 0.5, "0.5" and True do not."""
    try:
        site = int(k)
    except (TypeError, ValueError, OverflowError):
        site = None
    if site is None or isinstance(k, bool) or not (isinstance(k, str) or site == k):
        raise ValueError(f"comb site must be an integer, got {k!r}")
    return site


@dataclass(frozen=True)
class NonlocalLattice(ModelSpec):
    """Lattice sites coupled to nearest neighbours with dispersed delayed birth.

    ``beta_weights`` gives each site k one nonnegative weight beta(k).  ``comb``
    is the birth comb sum_k beta(k) delta(s - k), offsets increasing, without
    the weights below TRUNCATE_RTOL of the largest (zero weights included).
    """

    D: float
    d: float
    beta_weights: dict
    g: Nonlinearity
    delay: float = 0.0

    family = "nonlocal_lattice"
    TRUNCATE_RTOL = 1e-15

    def __post_init__(self):
        _check_param("D", self.D)
        _check_param("d", self.d)
        _check_param("delay", self.delay, closed=True)
        sites = {_comb_site(k): float(_check_param("comb weights", w, closed=True))
                 for k, w in self.beta_weights.items()}
        if len(sites) < len(self.beta_weights):
            raise ValueError("comb weights must name each site once")
        wmax = _check_param("largest comb weight", max(sites.values(), default=0.0))
        kept = {k: w for k, w in sites.items() if w > self.TRUNCATE_RTOL * wmax}
        object.__setattr__(self, "beta_weights", kept)
        ks = sorted(kept)
        object.__setattr__(self, "comb", DiracComb(tuple(ks), tuple(kept[k] for k in ks)))

    def default_bound(self):
        s = self.comb.mass
        return _bound_from(lambda x: s * self.g(x) - self.d * x)

    def to_convolution_form(self, c, M=None):
        M = self._checked_bound(c, M)
        H0 = OneSidedExponential(rate=(2.0 * self.D + self.d) / c,
                                 scale=1.0 / (2.0 * self.D + self.d))
        neigh = DiracComb((-1.0, 1.0), (self.D, self.D))
        comb = shift_kernel(self.comb, c * self.delay)
        atoms = (
            Atom(convolve(H0, neigh), linear(1.0), 1.0),
            Atom(convolve(H0, comb), self.g, self.g.gprime0),
        )
        return ConvolutionProblem(atoms, c, M)

    def tilde_chi_lipschitz(self, z, c):
        return (self.d + 2.0 * self.D + c * z - self.D * (np.exp(z) + np.exp(-z))
                - self.g.gprime0 * np.exp(-c * self.delay * z) * self.comb.laplace(z))

    def tilde_strip(self, c):
        return (-INF, INF)


@dataclass(frozen=True)
class NonlocalDelayedRD(ModelSpec):
    """u_t = u_xx - f(u) + (k * g(u(t-h, .)))(x) with strictly increasing damping f.

    ``inf_fprime`` is inf f' over s >= 0, read on [0, S_MAX].
    """

    f: Nonlinearity
    g: Nonlinearity
    k: KernelComponent
    delay: float

    family = "nonlocal_delayed_rd"

    def __post_init__(self):
        _check_param("delay", self.delay, closed=True)
        object.__setattr__(self, "inf_fprime", self.f.slopes(0.0, S_MAX)[0])
        if self.inf_fprime < -1e-9:
            raise HypothesisViolation("damping term must be increasing")

    def default_bound(self):
        mass = self.k.mass
        return _bound_from(lambda x: mass * self.g(x) - self.f(x))

    def to_convolution_form(self, c, M=None):
        M = self._checked_bound(c, M)
        # f_beta(s) = beta s - f(s) >= 0 has constant beta - inf f'; the sup f'
        # term (over [0, M]) keeps it nondecreasing for slope profiles the
        # midpoint rule alone would miss
        _, sup_d = self.f.slopes(0.0, M)
        beta = max(self.f.gprime0, sup_d - self.inf_fprime, sup_d) + 1.0
        green = PiecewiseGreen.from_speed_damping(c, beta)
        k_h = shift_kernel(self.k, c * self.delay)
        fb = _slope_shift(self.f, -1.0, beta, f"beta*u-{self.f.name}")
        atoms = (
            Atom(convolve(green, k_h), self.g, self.g.gprime0),
            Atom(green, fb, beta - self.inf_fprime),
        )
        return ConvolutionProblem(atoms, c, M)

    def tilde_chi_lipschitz(self, z, c):
        return (c * z - z * z + self.inf_fprime
                - self.g.gprime0 * np.exp(-z * c * self.delay) * self.k.laplace(z))

    def tilde_strip(self, c):
        return self.k.abscissas()


@dataclass(frozen=True)
class LocalDelayedRD(ModelSpec):
    """u_t = u_xx - u + g(u(t-h, x)), the local delayed reaction-diffusion model."""

    g: Nonlinearity
    L: float
    delay: float = 0.0

    family = "local_delayed_rd"

    def __post_init__(self):
        _check_param("delay", self.delay, closed=True)
        _check_param("Lipschitz bound L", self.L, self.g.gprime0, closed=True)

    def default_bound(self):
        return _bound_from(lambda x: self.g(x) - x)

    def to_convolution_form(self, c, M=None):
        M = self._checked_bound(c, M)
        green = shift_kernel(PiecewiseGreen.from_speed_damping(c, 1.0), c * self.delay)
        atoms = (Atom(green, self.g, self.L),)
        return ConvolutionProblem(atoms, c, M)

    def tilde_chi_lipschitz(self, z, c):
        return 1.0 + c * z - z * z - self.L * np.exp(-z * c * self.delay)

    def tilde_strip(self, c):
        return (-INF, INF)


def _cached_max(chi_at):
    """max_at(c) = (z*, max) of Re chi_1 on its strip, cached per c; chi_at(c) is (chi_1, strip)."""
    @cache
    def max_at(c: float) -> tuple[float, float]:
        f, strip = chi_at(c)
        return _strip_max(lambda z: float(f(z)), strip)

    return max_at


def _closed_max_at(m: ModelSpec):
    """max_at on the family's beta-free chi_1 numerator ``tilde_chi_lipschitz`` over ``tilde_strip``."""
    return _cached_max(lambda c: (partial(m.tilde_chi_lipschitz, c=c), m.tilde_strip(c)))


def model_min_speed(m: ModelSpec, M: float | None = None,
                    via: str = "assembled") -> tuple[float, float]:
    """Minimal admissible speed (c*, z*) of the family's characteristic function.

    via='assembled' runs the tangency search on the fully assembled
    Lipschitz-weighted chi, so the slope shift enters and must cancel;
    via='closed_form' uses the family's beta-free closed form directly.
    Both routes agree to solver tolerance.  Each trial speed is assembled
    and maximized once: the bracket walk and the root search share one cache.
    A model with chi(0) >= 0 raises HypothesisViolation from the assembly.
    """
    if via == "assembled":
        # the bound does not depend on c: resolve it once, not per trial speed
        M = m._resolve_bound(M)

        def assembled(c: float):
            cf = m.to_convolution_form(c, M).charfun_lipschitz()
            return cf, cf.strip

        max_at = _cached_max(assembled)
    elif via == "closed_form":
        # chi_1(0) < 0 need not mean chi(0) < 0: one assembly checks the latter
        m.to_convolution_form(1.0, M)
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
        if not m.admits_nonpositive_speed:
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


# each kind's parameters; one left out takes its constructor's default.  A
# tabulated g takes no "gprime0": g'(0) is the slope of its first segment
_NONLINEARITIES = {"logistic": (logistic, ("rate", "carrying")),
                   "mackey_glass": (mackey_glass, ("p", "n")),
                   "linear": (linear, ("slope",)),
                   "tabulated": (tabulated_nonlinearity, ("u", "g"))}


def nonlinearity_from_dict(spec: dict) -> Nonlinearity:
    """Nonlinearity from its JSON form; a key outside its kind's form is an error."""
    kind = _object(spec, "nonlinearity").get("kind")
    if kind not in _NONLINEARITIES:
        raise ValueError(f"unknown nonlinearity kind {kind!r}")
    make, params = _NONLINEARITIES[kind]
    _check_keys(spec, ("kind", *params), f"{kind} nonlinearity")
    return make(**{k: spec[k] for k in params if k in spec})


# the keys each family reads, besides "family" and "nonlinearity", and the
# run key "c" that the commands read
_MODEL_KEYS = {"nonlocal_kpp": ("kernel",),
               "nonlocal_lattice": ("D", "d", "beta", "delay"),
               "nonlocal_delayed_rd": ("damping", "kernel", "delay"),
               "local_delayed_rd": ("L", "delay")}


def model_from_dict(spec: dict, base_dir=None) -> ModelSpec:
    """Model from its JSON form; ``base_dir`` resolves relative kernel file paths."""
    family = _object(spec, "model").get("family")
    if family not in _MODEL_KEYS:
        raise ValueError(f"unknown family {family!r}")
    _check_keys(spec, ("family", "nonlinearity", "c", *_MODEL_KEYS[family]),
                f"{family} model")
    if "c" in spec:  # read by the commands, not the model: speed never reads it
        _check_param("c", spec["c"], -INF)
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
    return LocalDelayedRD(g=g, L=spec.get("L", g.gprime0), delay=spec.get("delay", 0.0))


def _unique_keys(pairs) -> dict:
    """A JSON object's dict, refusing a repeated key, which json would keep the last of.

    The reader judges no value: every number meets its parameter's check.
    """
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_model(path) -> tuple[ModelSpec, dict]:
    """Load a model JSON file; returns (spec, full config dict).

    A relative kernel ``path`` inside it is read from the file's directory.
    """
    with open(path) as fh:
        cfg = json.load(fh, object_pairs_hook=_unique_keys)
    return model_from_dict(cfg, os.path.dirname(path)), cfg
