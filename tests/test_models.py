import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavefront as wf
from wavefront import models
from wavefront.errors import HypothesisViolation, ZeroSpeed
from wavefront.kernels import kernel_from_dict
from wavefront.models import model_from_dict

import closed_forms
from quadrature import laplace_by_quad

MODELS_DIR = Path(__file__).resolve().parents[1] / "models"
SQRT_LN2 = math.sqrt(math.log(2.0))  # minimal speed of the local family at L=2, h=1
GAUSS_C_STAR = 2.544841358927859


def four_families():
    return [
        wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0)),
        wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={-1: 0.3, 0: 0.4, 2: 0.3},
                           g=wf.logistic(2.0, 1.0), delay=0.5),
        wf.NonlocalDelayedRD(f=wf.linear(1.0), g=wf.logistic(2.0, 1.0),
                             k=wf.GaussianKernel(1.0), delay=0.5),
        wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=1.0),
    ]


# --- nonlinearities and the slope shift --------------------------------------

def test_logistic_basics():
    g = wf.logistic(2.0, 1.0)
    assert g(0.0) == 0.0
    assert g.gprime0 == 2.0
    assert g(0.5) == pytest.approx(0.5)
    assert g.lipschitz_on(1.0) == pytest.approx(2.0, rel=1e-3)
    assert g.lipschitz_on(1.5) == pytest.approx(4.0, rel=1e-3)


def test_unit_linear_returns_its_argument():
    # linear(1) skips the multiplication: 1.0 * u is u bit for bit, signed
    # zeros, subnormals, infinities and nan included, so the identity is
    # the same function; any other slope still multiplies
    u = np.array([0.0, -0.0, 5e-324, -2.5e-310, 0.7, -3.0, 1e308, math.inf, -math.inf, math.nan])
    for slope in (1.0, 1):
        g = wf.linear(slope)
        assert g(u) is u
        assert g(u).tobytes() == (1.0 * u).tobytes()
        assert g.derivative(u).tobytes() == np.ones(u.size).tobytes()
    g = wf.linear(1.5)
    assert g(u).tobytes() == (1.5 * u).tobytes()
    assert g(u) is not u


def test_mackey_glass_derivative_extremes():
    g = wf.mackey_glass(2.0, 6.0)
    # min g' = -p (n-1)^2 / (4 n) at u = ((n+1)/(n-1))^{1/n}
    inf_d, sup_d = g.slopes(0.0, 2.0)
    assert inf_d == pytest.approx(-2.0 * 25.0 / 24.0, rel=1e-4)
    assert sup_d == pytest.approx(2.0, rel=1e-6)


_U = np.linspace(0.0, 2.0, 401)
# the tabulated g has no analytic derivative: its slopes are finite differences
SLOPED = {"logistic": wf.logistic(2.0, 1.0), "mackey_glass": wf.mackey_glass(2.0, 6.0),
          "linear": wf.linear(1.5), "tabulated": wf.tabulated_nonlinearity(_U, 2 * _U * (1 - _U))}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(SLOPED)), lo=st.floats(0.0, 3.0),
       width=st.floats(1e-3, 120.0))
def test_slopes_are_the_extremes_of_one_sample(kind, lo, width):
    g = SLOPED[kind]
    hi = lo + width

    def samples(a, b):
        return np.asarray(g.derivative(np.linspace(a, b, models.DERIV_SAMPLES)), dtype=float)

    d = samples(lo, hi)
    assert g.slopes(lo, hi) == (float(np.min(d)), float(np.max(d)))
    assert g.lipschitz_on(hi) == float(np.max(np.abs(samples(0.0, hi))))
    # a second read is the cached pair itself
    assert g.slopes(lo, hi) is g.slopes(lo, hi)


@pytest.mark.parametrize("name, intervals", [("nonlocal_delayed_rd", 2),
                                             ("nonlocal_kpp_gaussian", 1),
                                             ("local_delayed_rd", 0),
                                             ("nonlocal_lattice", 0)])
def test_min_speed_samples_each_slope_interval_once(name, intervals, monkeypatch):
    # the slope shift does not depend on c: the damping reads [0, M] and
    # [0, S_MAX], the KPP birth term [0, M], however many speeds are tried
    sampled = []
    derivative = wf.Nonlinearity.derivative

    def counting(self, u):
        if np.ndim(u):
            sampled.append((float(u[0]), float(u[-1])))
        return derivative(self, u)

    monkeypatch.setattr(wf.Nonlinearity, "derivative", counting)
    # loading reads the damping's [0, S_MAX] slopes already
    spec, _ = wf.load_model(MODELS_DIR / f"{name}.json")
    wf.model_min_speed(spec)
    assert len(sampled) == len(set(sampled)) == intervals


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_atom_transforms_match_quadrature(path):
    spec, cfg = wf.load_model(path)
    zs = np.array([0.25, 0.25 + 1.0j])
    for atom in spec.to_convolution_form(cfg["c"]).atoms:
        closed = atom.kernel.laplace(zs)
        quad = laplace_by_quad(atom.kernel, zs)
        assert np.all(np.abs(closed - quad) <= 1e-8 * (1.0 + np.abs(closed))), atom.kernel


def test_beta_select_birth_branches():
    m = wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0))
    # inf g' on [0, 1.5] is -4: beta = (4 - 2)/2 + 1
    assert closed_forms.slope_shift(m, m.to_convolution_form(3.0, 1.5)) == pytest.approx(2.0)
    # slopes never fall below -g'(0) on [0, 1]: the max(0, .) branch
    assert closed_forms.slope_shift(m, m.to_convolution_form(3.0, 1.0)) == pytest.approx(1.0, rel=1e-3)


def test_beta_select_damping_linear():
    m = wf.NonlocalDelayedRD(f=wf.linear(1.0), g=wf.logistic(2.0, 1.0),
                             k=wf.GaussianKernel(1.0), delay=0.5)
    assert closed_forms.slope_shift(m, m.to_convolution_form(3.0, 3.0)) == pytest.approx(2.0)


def test_tabulated_nonlinearity():
    u = np.linspace(0.0, 2.0, 401)
    g = wf.tabulated_nonlinearity(u, 2 * u * (1 - u))
    assert g(0.5) == pytest.approx(0.5, abs=1e-12)
    assert g.gprime0 == pytest.approx(2.0, rel=0.02)
    # g'(0) is the slope of the first segment, 2 (1 - u_1)
    assert g.gprime0 == pytest.approx(1.99, rel=1e-12)
    with pytest.raises(ValueError, match="finite"):
        wf.tabulated_nonlinearity(u, np.where(u == 1.0, np.nan, 2 * u * (1 - u)))
    # no analytic derivative: slopes come from finite differences of the
    # interpolant, whose segment j has slope 2 (1 - u_j - u_{j+1})
    assert g.deriv is None
    assert float(g.derivative(0.5025)) == pytest.approx(-0.01, abs=1e-8)
    assert float(g.derivative(0.0)) == pytest.approx(g.gprime0, rel=1e-9)
    # the steepest segment is the last, [1.995, 2]
    assert g.lipschitz_on(2.0) == pytest.approx(5.99, rel=1e-8)
    m = wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=g)
    assert closed_forms.slope_shift(m, m.to_convolution_form(3.0, 2.0)) == pytest.approx(
        (5.99 - 1.99) / 2.0 + 1.0, rel=1e-8)


# --- reductions to convolution form ------------------------------------------

def test_local_family_reduction():
    m = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=1.0)
    prob = m.to_convolution_form(2.5)
    assert len(prob.atoms) == 1
    k = prob.atoms[0].kernel
    # the delay is a unit point mass at c * h convolved with the Green kernel
    assert isinstance(k, wf.ConvolvedKernel) and isinstance(k.b, wf.PiecewiseGreen)
    assert k.a == wf.DiracComb((2.5,), (1.0,))  # c * h
    # no slope shift: the damping is the model's own 1, beta = 0
    assert k.b.damping == pytest.approx(1.0, rel=1e-12)
    assert prob.atoms[0].weight == 2.0
    assert prob.atoms[0].lipschitz_weight == 2.0


def test_kpp_reduction_atoms():
    m = wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0))
    prob = m.to_convolution_form(1.0, M=0.5)
    beta = closed_forms.slope_shift(m, prob)
    assert beta == pytest.approx(1.0, rel=1e-3)
    conv_atom, exp_atom = prob.atoms
    assert isinstance(conv_atom.kernel, wf.ConvolvedKernel)
    assert conv_atom.weight == 1.0
    k = exp_atom.kernel
    assert isinstance(k, wf.OneSidedExponential)
    assert k.rate == pytest.approx((1.0 + beta) / 1.0, rel=1e-9)
    assert k.mass == pytest.approx(1.0 / (1.0 + beta), rel=1e-9)
    assert exp_atom.weight == pytest.approx(2.0 + beta, rel=1e-9)


def test_kpp_assembled_chi_example():
    # beta = 1, c = 1, z = 1: chi = -e^{1/2}/3
    m = wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0))
    prob = m.to_convolution_form(1.0, M=0.5)
    beta = closed_forms.slope_shift(m, prob)
    assert beta == pytest.approx(1.0, rel=1e-6)
    val = complex(prob.charfun()(1.0)).real
    assert val == pytest.approx(-math.exp(0.5) / 3.0, rel=1e-9)
    closed = (closed_forms.tilde_chi(m, 1.0, 1.0)
              / closed_forms.denominator(m, 1.0, 1.0, beta))
    assert val == pytest.approx(float(np.real(closed)), rel=1e-12)


def test_kpp_negative_speed_reduction():
    m = wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0))
    prob = m.to_convolution_form(-1.0, M=0.5)
    k = prob.atoms[1].kernel
    assert k.direction == -1
    # transform is 1/(1 + beta + c z) on Re z < (1+beta)/|c|
    z = 0.7
    assert complex(np.asarray(k.laplace(z)).item()).real == pytest.approx(
        1.0 / (1.0 + closed_forms.slope_shift(m, prob) - z), rel=1e-12)


def test_lattice_reduction_and_comb():
    m = wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={0: 1.0},
                           g=wf.logistic(2.0, 1.0), delay=0.0)
    prob = m.to_convolution_form(2.0)
    coupling, birth = prob.atoms
    assert isinstance(coupling.kernel, wf.ConvolvedKernel)
    assert coupling.kernel.mass == pytest.approx(2.0 / 3.0, rel=1e-12)
    z = 0.4
    expect = 2.0 * np.cosh(z) / (3.0 + 2.0 * z)
    assert complex(np.asarray(coupling.kernel.laplace(z)).item()).real == pytest.approx(
        float(expect), rel=1e-12)
    assert birth.kernel.mass == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_lattice_delay_shifts_comb_offsets_exactly():
    # the delay is a unit point mass at c h, which the comb absorbs: each
    # offset is the float k + c h, weights unchanged
    beta, c, h = {2: 0.3, -1: 0.3, 0: 0.4}, 2.3, 0.37
    m = wf.NonlocalLattice(D=1.0, d=1.0, beta_weights=beta, g=wf.logistic(2.0, 1.0), delay=h)
    comb = m.to_convolution_form(c).atoms[1].kernel.b
    assert isinstance(comb, wf.DiracComb)
    ks = sorted(beta)
    assert np.array(comb.offsets).tobytes() == np.array([k + c * h for k in ks]).tobytes()
    assert comb.weights == tuple(beta[k] for k in ks)


def test_lattice_bound_ignores_the_order_of_beta_keys():
    # 0.3 + 0.2 + 0.1 and 0.1 + 0.2 + 0.3 differ in the last bit
    bounds = {wf.NonlocalLattice(D=1.0, d=0.5, beta_weights=beta,
                                 g=wf.logistic(2.0, 1.0)).default_bound()
              for beta in ({1: 0.3, 0: 0.2, -1: 0.1}, {-1: 0.1, 0: 0.2, 1: 0.3})}
    assert bounds == {0.875}


def test_lattice_truncation_reported():
    m = wf.NonlocalLattice(D=1.0, d=1.0,
                           beta_weights={0: 1.0, 7: 1e-20},
                           g=wf.logistic(2.0, 1.0))
    assert 7 not in m.beta_weights


def test_lattice_drops_zero_weights_as_it_truncates():
    m = wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={-1: 0.6, 0: 0.0, 1: 0.3, 7: 1e-20},
                           g=wf.logistic(2.0, 1.0))
    assert m.beta_weights == {-1: 0.6, 1: 0.3}


@pytest.mark.parametrize("beta, match", [
    ({-1: 0.6, 0: -0.9, 1: 0.3}, "nonnegative"),
    ({0: 1.0, 1: -1e-300}, "nonnegative"),
    ({"0": 0.6, "00": 0.6}, "each site once"),
    ({0: 0.6, "0": 0.6}, "each site once"),
    ({"-1": 0.6, "-01": 0.0}, "each site once"),
], ids=["negative", "tiny-negative", "string-keys", "int-and-string", "zero-weight-twice"])
def test_lattice_rejects_a_negative_or_repeated_site(beta, match):
    # each was once changed silently: the weight dropped, or one of the two kept
    with pytest.raises(ValueError, match=match):
        wf.NonlocalLattice(D=1.0, d=1.0, beta_weights=beta, g=wf.logistic(2.0, 1.0))


@pytest.mark.parametrize("site, expected", [(1, 1), (-1, -1), ("-1", -1), (1.0, 1), (np.int64(2), 2)],
                         ids=["int", "negative", "string", "float", "numpy"])
def test_lattice_comb_site_names_an_integer(site, expected):
    m = wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={site: 0.4, 0: 0.6}, g=wf.logistic(2.0, 1.0))
    assert m.beta_weights == {expected: 0.4, 0: 0.6}


@pytest.mark.parametrize("site", [0.5, "0.5", True, math.nan, math.inf, "one"],
                         ids=["float", "string", "bool", "nan", "inf", "word"])
def test_lattice_refuses_a_non_integer_comb_site(site):
    # 0.5 was once truncated to site 0 and True read as site 1
    with pytest.raises(ValueError, match=f"comb site must be an integer, got {re.escape(repr(site))}"):
        wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={site: 1.0}, g=wf.logistic(2.0, 1.0))


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("g", [
    wf.logistic(0.4, 1.0),
    wf.mackey_glass(0.3, 6.0),
    wf.linear(0.25),
    wf.tabulated_nonlinearity([0.0, 0.5, 1.0, 2.0], [0.0, 0.2, 0.3, 0.1]),
], ids=lambda g: g.name)
def test_slope_shift_is_both_old_shifts_by_bytes(g, beta):
    # the birth shift g + beta u (sign 1) and the damping shift beta u - g
    # (sign -1), as the two helpers the slope shift replaced wrote them
    u = np.linspace(0.0, 2.5, 251)
    old = {1.0: (lambda x: np.asarray(g.fn(x)) + beta * np.asarray(x, dtype=float),
                 lambda x: np.asarray(g.deriv(x)) + beta, g.gprime0 + beta),
           -1.0: (lambda x: beta * np.asarray(x, dtype=float) - np.asarray(g.fn(x)),
                  lambda x: beta - np.asarray(g.deriv(x)), beta - g.gprime0)}
    for sign, (fn, deriv, gprime0) in old.items():
        shifted = models._slope_shift(g, sign, beta, "shifted")
        assert shifted.name == "shifted"
        assert shifted.fn(u).tobytes() == fn(u).tobytes()
        assert shifted.gprime0.hex() == gprime0.hex()
        if g.deriv is None:
            assert shifted.deriv is None
            lo = np.maximum(u - models.DERIV_STEP, 0.0)
            expected = (fn(u + models.DERIV_STEP) - fn(lo)) / (u + models.DERIV_STEP - lo)
        else:
            expected = deriv(u)
        assert shifted.derivative(u).tobytes() == expected.tobytes()


def test_nonlocal_rd_reduction():
    m = wf.NonlocalDelayedRD(f=wf.linear(1.0), g=wf.logistic(2.0, 1.0),
                             k=wf.GaussianKernel(1.0), delay=0.5)
    prob = m.to_convolution_form(2.0, M=1.0)
    birth, damping = prob.atoms
    assert isinstance(damping.kernel, wf.PiecewiseGreen)
    # the Green kernel's damping is the slope shift beta
    beta = damping.kernel.damping
    assert beta == pytest.approx(2.0)  # f' = 1: max(1, 0, 1) + 1
    assert damping.weight == pytest.approx(beta - 1.0)
    assert damping.lipschitz_weight == pytest.approx(beta - 1.0)
    # f_beta(s) = (beta - 1) s stays nonnegative
    fb = damping.nonlinearity
    assert float(fb(0.7)) == pytest.approx((beta - 1.0) * 0.7, rel=1e-12)


def test_standing_hypotheses():
    with pytest.raises(HypothesisViolation):
        wf.LocalDelayedRD(g=wf.logistic(0.8, 1.0), L=0.8).to_convolution_form(2.0)
    with pytest.raises(ValueError):
        wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=1.5)  # L < g'(0)
    with pytest.raises(HypothesisViolation):
        wf.NonlocalLattice(D=1.0, d=3.0, beta_weights={0: 1.0},
                           g=wf.logistic(2.0, 1.0)).to_convolution_form(1.0)
    with pytest.raises(HypothesisViolation):
        wf.NonlocalDelayedRD(f=wf.linear(3.0), g=wf.logistic(2.0, 1.0),
                             k=wf.GaussianKernel(1.0), delay=0.1).to_convolution_form(1.0)
    with pytest.raises(HypothesisViolation):
        wf.NonlocalKPP(J=wf.GaussianKernel(1.0, scale=0.1),
                       g=wf.logistic(0.5, 1.0)).to_convolution_form(1.0)
    with pytest.raises(ZeroSpeed):
        wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0).to_convolution_form(0.0)
    with pytest.raises(HypothesisViolation):
        wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0).to_convolution_form(-1.0)


# every model parameter the one rule covers: (build from x, the name its
# message gives, the in-range boundary value refused before NaN and inf were)
_LOGISTIC = wf.logistic(2.0, 1.0)
_PARAMETERS = {
    "gaussian-variance": (lambda x: wf.GaussianKernel(x), "variance", 0.0),
    "gaussian-scale": (lambda x: wf.GaussianKernel(1.0, scale=x), "scale", 0.0),
    "exponential-rate": (lambda x: wf.OneSidedExponential(rate=x), "rate", 0.0),
    "exponential-scale": (lambda x: wf.OneSidedExponential(rate=1.0, scale=x), "scale", 0.0),
    "green-nu": (lambda x: wf.PiecewiseGreen(nu=-x, mu=1.0), "-nu", 0.0),
    "green-mu": (lambda x: wf.PiecewiseGreen(nu=-1.0, mu=x), "mu", 0.0),
    "green-scale": (lambda x: wf.PiecewiseGreen(nu=-1.0, mu=1.0, scale=x), "scale", 0.0),
    "green-q": (lambda x: wf.PiecewiseGreen.from_speed_damping(2.0, x), "damping q", 0.0),
    "green-c": (lambda x: wf.PiecewiseGreen.from_speed_damping(x, 1.0), "speed c", None),
    "comb-offset": (lambda x: wf.DiracComb((0.0, x), (0.5, 0.5)), "offset", None),
    "comb-weight": (lambda x: wf.DiracComb((0.0, 1.0), (0.5, x)), "weight", -1e-300),
    "kernel-shift": (lambda x: kernel_from_dict({"shape": "gaussian", "variance": 1.0, "shift": x}),
                     "kernel shift", None),
    "nonlinearity-gprime0": (lambda x: wf.Nonlinearity(fn=lambda u: u, gprime0=x), "g'(0)", 0.0),
    "logistic-rate": (lambda x: wf.logistic(x, 1.0), "rate", 0.0),
    "logistic-carrying": (lambda x: wf.logistic(2.0, x), "carrying", 0.0),
    "mackey_glass-p": (lambda x: wf.mackey_glass(x, 6.0), "p", 0.0),
    "mackey_glass-n": (lambda x: wf.mackey_glass(2.0, x), "n", 0.0),
    "linear-slope": (lambda x: wf.linear(x), "slope", 0.0),
    "lipschitz_on-M": (lambda x: _LOGISTIC.lipschitz_on(x), "bound M", 0.0),
    "charfun-weight": (lambda x: wf.CharacteristicFunction(((wf.GaussianKernel(1.0), x),)),
                       "weight", 0.0),
    "spectral-lambda_l": (lambda x: wf.SpectralData(x, None, 3.0, -1.0, False, 1.0),
                          "lambda_l", 0.0),
    "spectral-lambda_r": (lambda x: wf.SpectralData(0.5, x, 3.0, -1.0, False, 1.0),
                          "lambda_r", 0.4),
    "lattice-D": (lambda x: wf.NonlocalLattice(D=x, d=1.0, beta_weights={0: 1.0}, g=_LOGISTIC),
                  "D", 0.0),
    "lattice-d": (lambda x: wf.NonlocalLattice(D=1.0, d=x, beta_weights={0: 1.0}, g=_LOGISTIC),
                  "d", 0.0),
    "lattice-delay": (lambda x: wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={0: 1.0},
                                                   g=_LOGISTIC, delay=x), "delay", -1e-300),
    "lattice-weight": (lambda x: wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={0: 1.0, 1: x},
                                                    g=_LOGISTIC), "comb weights", -1e-300),
    "local-delay": (lambda x: wf.LocalDelayedRD(g=_LOGISTIC, L=2.0, delay=x), "delay", -1e-300),
    "local-L": (lambda x: wf.LocalDelayedRD(g=_LOGISTIC, L=x), "Lipschitz bound L", 1.5),
    "delayed_rd-delay": (lambda x: wf.NonlocalDelayedRD(f=wf.linear(1.0), g=_LOGISTIC,
                                                        k=wf.GaussianKernel(1.0), delay=x),
                         "delay", -1e-300),
    "speed-c": (lambda x: wf.LocalDelayedRD(g=_LOGISTIC, L=2.0).to_convolution_form(x), "c", None),
    "bound-M": (lambda x: wf.LocalDelayedRD(g=_LOGISTIC, L=2.0).to_convolution_form(2.5, M=x),
                "bound M", 0.0),
}


@pytest.mark.parametrize("build, name, x", [
    pytest.param(build, name, x, id=f"{param}-{label}")
    for param, (build, name, boundary) in _PARAMETERS.items()
    for label, x in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                     ("boundary", boundary))
    if x is not None])
def test_every_parameter_refuses_nan_inf_and_out_of_range_values(build, name, x):
    # the NaN cases and most of the infinite ones once built a model, or
    # failed far from their cause (c = nan as an empty kernel strip)
    value = x
    if name == "-nu" and not math.isfinite(x):
        # the entry builds nu = -x, and a nu that is no finite number is refused as nu
        name, value = "nu", -x
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be .*, got {re.escape(f'{value:g}')}$"):
        build(x)


_BOOLEANS = (("True", True), ("False", False), ("np.True_", np.True_))


@pytest.mark.parametrize("build, name, x", [
    pytest.param(build, name, x, id=f"{param}-{label}")
    for param, (build, name, _) in _PARAMETERS.items() for label, x in _BOOLEANS
    if param != "green-nu"])
def test_every_parameter_refuses_a_boolean(build, name, x):
    # Python's and numpy's booleans once passed as 1 and 0
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a number, got {re.escape(repr(x))}$"):
        build(x)


# the scalars outside the table: a Green kernel's nu, whose table entry negates it
# (a boolean's negation is an int), and the grid's ends
_OTHER_SCALARS = {
    "green-nu": (lambda x: wf.PiecewiseGreen(nu=x, mu=1.0), "nu"),
    "grid-t_max": (lambda x: wf.Grid(-1.0, x, 64), "t_max"),
    "grid-t_min": (lambda x: wf.Grid(x, 1.0, 64), "t_min"),
}


@pytest.mark.parametrize("build, match", [
    (lambda x: wf.OneSidedExponential(1.0, direction=x), "direction must be"),
    *((build, f"^{name} must be a number, got ") for build, name in _OTHER_SCALARS.values()),
], ids=["exponential-direction", *_OTHER_SCALARS])
@pytest.mark.parametrize("x", [x for _, x in _BOOLEANS], ids=[label for label, _ in _BOOLEANS])
def test_every_other_constructor_parameter_refuses_a_boolean(build, match, x):
    # a direction, which is a choice and no number, and the scalars outside the table
    # (the grid's size and the solver options: test_wavesolver)
    with pytest.raises(ValueError, match=match):
        build(x)


_NON_NUMBERS = (("str", "1"), ("None", None), ("list", [1.0]), ("complex", 1 + 0j))

# None stands for "not given" there: no lambda_r, or the default bound
_NONE_IS_DEFAULT = ("spectral-lambda_r", "bound-M")


@pytest.mark.parametrize("build, name, x", [
    pytest.param(build, name, x, id=f"{param}-{label}")
    for param, (build, name) in {**{p: entry[:2] for p, entry in _PARAMETERS.items()},
                                 **_OTHER_SCALARS}.items()
    for label, x in _NON_NUMBERS
    if not (x is None and param in _NONE_IS_DEFAULT)])
def test_every_parameter_refuses_a_value_that_is_no_number(build, name, x):
    # a string or None once reached a comparison and raised TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a number, got {re.escape(repr(x))}$"):
        build(x)


@pytest.mark.parametrize("field, x, refusal", [
    ("speed", math.nan, "finite, got nan"),
    ("speed", math.inf, "finite, got inf"),
    ("speed", True, "a number, got True"),
    ("speed", "1", "a number, got '1'"),
    ("bound", math.nan, "positive and finite, got nan"),
    ("bound", -1.0, "positive and finite, got -1"),
    ("bound", 0.0, "positive and finite, got 0"),
    ("bound", np.True_, f"a number, got {np.True_!r}"),
    ("bound", "1", "a number, got '1'"),
])
def test_convolution_problem_refuses_a_bad_speed_or_bound(field, x, refusal):
    # a NaN bound once failed inside brentq, and a negative one read as "no
    # positive equilibrium": a non-existence verdict for a malformed input
    p = wf.LocalDelayedRD(g=_LOGISTIC, L=2.0).to_convolution_form(2.5)
    fields = {"speed": p.speed, "bound": p.bound, field: x}
    with pytest.raises(ValueError, match=f"^{field} must be {re.escape(refusal)}$"):
        wf.ConvolutionProblem(p.atoms, **fields)


# each bad sample array of length n, and the refusal after "<name> must be "
_BAD_SAMPLES = [
    ("booleans", lambda n: np.arange(n) > 0, "a number, got False"),
    ("mixed", lambda n: [False] + [0.5] * (n - 2) + [True], "a number, got False"),
    ("strings", lambda n: ("0",) + ("1",) * (n - 1), "a number, got '0'"),
    ("None", lambda n: None, "a number, got None"),
    ("nan", lambda n: [0.0] + [math.nan] * (n - 1), "finite, got nan"),
    ("inf", lambda n: np.full(n, math.inf), "finite, got inf"),
    ("-inf", lambda n: (0.0,) * (n - 1) + (-math.inf,), "finite, got -inf"),
]
_INIT_GRID = wf.Grid(-30.0, 20.0, 64)


@pytest.mark.parametrize("build, name, n", [
    (lambda x: wf.TabulatedKernel(x, (1.0, 1.0, 1.0)), "kernel grid", 3),
    (lambda x: wf.TabulatedKernel((0.0, 0.5, 1.0), x), "kernel values", 3),
    (lambda x: wf.tabulated_nonlinearity(x, [0.0, 0.25, 0.0]), "u samples", 3),
    (lambda x: wf.tabulated_nonlinearity([0.0, 0.5, 1.0], x), "g samples", 3),
    (lambda x: wf.solve_profile(wf.LocalDelayedRD(g=_LOGISTIC, L=2.0).to_convolution_form(2.5),
                                _INIT_GRID, x), "init array", _INIT_GRID.n),
], ids=["kernel-grid", "kernel-values", "u-samples", "g-samples", "init"])
@pytest.mark.parametrize("make, refusal", [(make, refusal) for _, make, refusal in _BAD_SAMPLES],
                         ids=[label for label, _, _ in _BAD_SAMPLES])
def test_every_sample_array_refuses_an_entry_that_is_no_finite_number(build, name, n, make,
                                                                      refusal):
    # numpy once read a boolean entry as 0 or 1 and parsed a string one
    with pytest.raises(ValueError, match=f"^{name} must be {re.escape(refusal)}$"):
        build(make(n))


def test_delayed_rd_hypothesis_weighs_the_kernel_mass():
    # chi(0) < 0 reads g'(0) mass(k) > f'(0): 0.8 * 2 > 1 although g'(0) < f'(0)
    m = wf.NonlocalDelayedRD(f=wf.linear(1.0), g=wf.logistic(0.8, 1.0),
                             k=wf.GaussianKernel(1.0, scale=2.0), delay=0.5)
    prob = m.to_convolution_form(1.3)
    assert prob.chi0() == pytest.approx(-0.3, abs=1e-12)
    assert prob.equilibrium() == pytest.approx(0.375, abs=1e-10)
    c_a, _ = wf.model_min_speed(m, via="assembled")
    c_c, _ = wf.model_min_speed(m, via="closed_form")
    assert c_a == pytest.approx(c_c, abs=1e-9)
    assert c_a == pytest.approx(1.17625, abs=1e-4)


@pytest.mark.parametrize("m", [
    # g'(0) mass(k) = 0.75 < f'(0) = 1
    wf.NonlocalDelayedRD(f=wf.linear(1.0), g=wf.logistic(1.5, 1.0),
                         k=wf.GaussianKernel(1.0, scale=0.5), delay=0.5),
    # g'(0) < 1, though chi_1(0) = 1 - L < 0 with L = 1.5
    wf.LocalDelayedRD(g=wf.logistic(0.9, 1.0), L=1.5),
], ids=["delayed-rd-mass-half", "local-lipschitz-above-one"])
def test_hypothesis_violation_on_every_route(m):
    with pytest.raises(HypothesisViolation, match="chi\\(0\\)"):
        m.to_convolution_form(3.0)
    for via in ("assembled", "closed_form"):
        with pytest.raises(HypothesisViolation, match="chi\\(0\\)"):
            wf.model_min_speed(m, via=via)


def test_decreasing_damping_is_refused_on_construction():
    # logistic damping f(u) = u (1 - u) decreases past u = 1/2
    with pytest.raises(HypothesisViolation, match="damping term must be increasing"):
        wf.NonlocalDelayedRD(f=wf.logistic(1.0, 1.0), g=wf.logistic(2.0, 1.0),
                             k=wf.GaussianKernel(1.0), delay=0.5)


def test_chi0_negative_iff_hypothesis():
    for m in four_families():
        prob = m.to_convolution_form(2.0)
        assert prob.chi0() < 0.0


# --- the reduction identity (chi == tilde / denominator) ---------------------

@pytest.mark.parametrize("m", four_families(),
                         ids=["kpp", "lattice", "nonlocal_rd", "local_rd"])
def test_reduction_identity(m, rng):
    c = 2.0
    prob = m.to_convolution_form(c)
    cf, cf1 = prob.charfun(), prob.charfun_lipschitz()
    lo, hi = cf.strip
    lo = max(lo, -2.0)
    hi = min(hi, 3.0)
    xs = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), size=50)
    ys = rng.uniform(-2.0, 2.0, size=50)
    for j, (x, y) in enumerate(zip(xs, ys)):
        z = complex(x, y if j % 2 else 0.0)
        den = closed_forms.denominator(m, z, c, closed_forms.slope_shift(m, prob))
        lhs = complex(np.asarray(cf(z)).item())
        rhs = complex(np.asarray(closed_forms.tilde_chi(m, z, c) / den).item())
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))
        lhs1 = complex(np.asarray(cf1(z)).item())
        rhs1 = complex(np.asarray(m.tilde_chi_lipschitz(z, c) / den).item())
        assert abs(lhs1 - rhs1) <= 1e-8 * (1.0 + abs(rhs1))


def test_local_assembled_chi_root():
    cf = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0).to_convolution_form(2.5).charfun()
    assert complex(np.asarray(cf(0.5)).item()).real == pytest.approx(0.0, abs=1e-12)


def test_delay_shift_multiplies_transform():
    g = wf.logistic(2.0, 1.0)
    m1 = wf.LocalDelayedRD(g=g, L=2.0, delay=0.5)
    m2 = wf.LocalDelayedRD(g=g, L=2.0, delay=1.0)
    c = 2.5
    k1 = m1.to_convolution_form(c).atoms[0].kernel
    k2 = m2.to_convolution_form(c).atoms[0].kernel
    assert k2.a.offsets[0] - k1.a.offsets[0] == pytest.approx(c * 0.5, rel=1e-12)
    for z in (0.3, 0.8, 1.4):
        ratio = complex(np.asarray(k2.laplace(z)).item()) / complex(np.asarray(k1.laplace(z)).item())
        assert ratio == pytest.approx(math.exp(-z * c * 0.5), rel=1e-12)


# --- minimal speeds -----------------------------------------------------------

def test_model_min_speed_local_h0():
    m = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=0.0)
    c_star, z_star = wf.model_min_speed(m)
    assert c_star == pytest.approx(2.0, abs=1e-8)
    assert z_star == pytest.approx(1.0, abs=1e-6)


def test_model_min_speed_local_h1_closed_form():
    # tangency of 1 + c z - z^2 = L e^{-z c h} at L = 2, h = 1 has the exact
    # solution z* = c* = sqrt(ln 2)
    m = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=1.0)
    c_star, z_star = wf.model_min_speed(m)
    assert c_star == pytest.approx(SQRT_LN2, abs=1e-9)
    assert z_star == pytest.approx(SQRT_LN2, abs=1e-6)
    # tangency conditions within 1e-8
    tl = m.tilde_chi_lipschitz
    assert abs(float(np.real(tl(z_star, c_star)))) <= 1e-8
    h = 1e-6
    dz = (float(np.real(tl(z_star + h, c_star))) -
          float(np.real(tl(z_star - h, c_star)))) / (2 * h)
    assert abs(dz) <= 1e-5


def test_model_min_speed_local_h1_2d_grid_oracle():
    # independent 2-d grid search over (z, c) in (0, 3] x (0, 4]
    zs = np.arange(0.002, 3.0, 0.002)
    cs = np.arange(0.002, 4.0, 0.002)
    Z, C = np.meshgrid(zs, cs, indexing="ij")
    T = 1.0 + C * Z - Z * Z - 2.0 * np.exp(-Z * C)
    admissible = cs[np.where(T.max(axis=0) >= 0)[0]]
    coarse = float(admissible.min())
    assert coarse == pytest.approx(SQRT_LN2, abs=5e-3)


def test_model_min_speed_routes_agree():
    for m in (wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0)),
              wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=1.0)):
        c_a, z_a = wf.model_min_speed(m, via="assembled")
        c_c, z_c = wf.model_min_speed(m, via="closed_form")
        assert c_a == pytest.approx(c_c, abs=1e-9)
        assert z_a == pytest.approx(z_c, abs=1e-5)


def test_model_min_speed_negative_branch():
    # rightward-biased point dispersal with a weak birth term pushes the
    # minimal speed below zero; oracle: 1-d grid search refined offline
    m = wf.NonlocalKPP(J=wf.DiracComb((2.0,), (1.0,)), g=wf.logistic(0.5, 1.0))
    c_star, z_star = wf.model_min_speed(m)
    zs = np.arange(0.001, 6.0, 1e-5)
    oracle = float(np.min((0.5 - 1.0 + np.exp(-2.0 * zs)) / zs))
    assert c_star == pytest.approx(oracle, abs=1e-9)
    assert c_star == pytest.approx(-0.3733646176962393, abs=1e-8)
    assert z_star == pytest.approx(0.83917, abs=1e-4)
    # a speed above the (negative) minimum is admissible, one below is not
    assert m.to_convolution_form(-0.2).spectral is not None
    assert m.to_convolution_form(1.2 * c_star).spectral is None


def test_spectral_is_computed_on_first_read(monkeypatch):
    calls = []
    real_roots = models.real_roots

    def counting(cf, *args, **kwargs):
        calls.append(cf)
        return real_roots(cf, *args, **kwargs)

    monkeypatch.setattr(models, "real_roots", counting)
    m = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0)
    prob = m.to_convolution_form(2.5)
    assert calls == []
    sd = prob.spectral
    assert prob.spectral is sd
    assert len(calls) == 1
    # chi = (z^2 - 2.5 z + 1) / (z^2 - 2.5 z - 1) vanishes at 1/2 and 2
    assert (sd.lambda_l, sd.lambda_r) == pytest.approx((0.5, 2.0), abs=1e-8)
    assert m.to_convolution_form(1.0).spectral is None


def test_min_speed_runs_no_derivative_root_search(monkeypatch):
    def refuse(cf, *args, **kwargs):
        raise AssertionError("the tangency search must not look for real roots")

    monkeypatch.setattr(models, "real_roots", refuse)
    c_star, _ = wf.model_min_speed(wf.LocalDelayedRD(wf.logistic(2.0, 1.0), L=2.0))
    assert c_star == pytest.approx(2.0, abs=1e-8)


TANGENCY_MODELS = [
    wf.LocalDelayedRD(wf.logistic(2.0, 1.0), L=2.0),
    wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0)),
]


@pytest.mark.parametrize("m", TANGENCY_MODELS, ids=lambda m: m.family)
def test_min_speed_resolves_the_bound_once(m, monkeypatch):
    calls = []
    default_bound = type(m).default_bound

    def counting(self):
        calls.append(self)
        return default_bound(self)

    monkeypatch.setattr(type(m), "default_bound", counting)
    wf.model_min_speed(m)
    assert len(calls) == 1


@pytest.mark.parametrize("m", TANGENCY_MODELS, ids=lambda m: m.family)
def test_min_speed_assembles_each_trial_speed_once(m, monkeypatch):
    speeds = []
    to_convolution_form = type(m).to_convolution_form

    def counting(self, c, *args, **kwargs):
        speeds.append(c)
        return to_convolution_form(self, c, *args, **kwargs)

    monkeypatch.setattr(type(m), "to_convolution_form", counting)
    wf.model_min_speed(m)
    assert len(speeds) == len(set(speeds))


@pytest.mark.parametrize("m, message", [
    (wf.LocalDelayedRD(wf.logistic(1e5, 1.0), L=1e5), "no admissible speed below 512"),
    (wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={2: 1.0}, g=wf.logistic(1.5, 1.0)),
     r"c\* at or below zero is outside the supported range"),
    (wf.NonlocalKPP(J=wf.DiracComb((5000.0,), (1.0,)), g=wf.logistic(0.5, 1.0)),
     "no sign change of max chi down to c = -512"),
], ids=["no-speed-below-512", "c-star-not-positive", "no-sign-change-above-minus-512"])
def test_min_speed_bracket_walk_gives_up(m, message):
    with pytest.raises(HypothesisViolation, match=message):
        wf.model_min_speed(m)


def test_shifted_gaussian_kpp_min_speed_matches_grid_search():
    # anisotropic dispersal J(s) = N(s - 1/2): c* = min_z (e^{z^2/2 - z/2} + 1)/z
    spec = {"family": "nonlocal_kpp",
            "kernel": {"shape": "gaussian", "variance": 1.0, "shift": 0.5},
            "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}
    m = model_from_dict(spec)
    z = np.linspace(1e-3, 5.0, 500_001)
    oracle = float(np.min((np.exp(z * z / 2.0 - z / 2.0) + 1.0) / z))
    assert oracle == pytest.approx(1.63317, abs=1e-5)
    for via in ("assembled", "closed_form"):
        assert wf.model_min_speed(m, via=via)[0] == pytest.approx(oracle, abs=1e-9)


def test_beta_invariance_of_min_speed():
    kpp = wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0))
    # the bound M sets beta = 2 M - 1: 2, 5 and 19
    cs = [wf.model_min_speed(kpp, M)[0] for M in (1.5, 3.0, 10.0)]
    assert max(cs) - min(cs) < 1e-8
    assert cs[1] == pytest.approx(GAUSS_C_STAR, abs=1e-8)

    # a linear damping gives beta = 2 whatever M is; f(u) = u + u^2 gives
    # beta ~ 2 M + 2: about 3.5, 8 and 22
    u = np.linspace(0.0, 100.0, 2001)
    nrd = wf.NonlocalDelayedRD(f=wf.tabulated_nonlinearity(u, u + u * u),
                               g=wf.logistic(2.0, 1.0), k=wf.GaussianKernel(1.0), delay=0.5)
    cs2 = [wf.model_min_speed(nrd, M)[0] for M in (0.75, 3.0, 10.0)]
    assert max(cs2) - min(cs2) < 1e-8


# --- equilibrium --------------------------------------------------------------

def test_equilibrium_smallest_positive_root():
    m = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0)
    prob = m.to_convolution_form(2.5)
    assert prob.equilibrium() == pytest.approx(0.5, abs=1e-10)


def test_equilibrium_is_found_once_per_problem(monkeypatch):
    calls = []
    scan = models._smallest_root

    def counting(F, hi):
        calls.append(hi)
        return scan(F, hi)

    prob = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0).to_convolution_form(2.5)
    monkeypatch.setattr(models, "_smallest_root", counting)
    kappa = prob.equilibrium()
    assert prob.relaxation == pytest.approx(1.0, abs=1e-12)
    grid = wf.Grid(-60.0, 40.0, 1024)
    init = wf.CappedExponential(prob.spectral.lambda_l, kappa / 2.0)
    assert wf.solve_profile(prob, grid, init).plateau == kappa
    assert prob.equilibrium() == kappa
    assert len(calls) == 1


# --- JSON loading --------------------------------------------------------------

def test_model_json_round_trip(tmp_path):
    cfg = {
        "family": "local_delayed_rd", "c": 2.5, "L": 2.0, "delay": 0.0,
        "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0},
    }
    p = tmp_path / "model.json"
    p.write_text(json.dumps(cfg))
    spec, raw = wf.load_model(p)
    assert isinstance(spec, wf.LocalDelayedRD)
    assert raw["c"] == 2.5
    spec2 = model_from_dict(raw)
    assert spec2.L == spec.L == 2.0 and spec2.delay == spec.delay == 0.0


def test_model_json_all_families():
    specs = [
        {"family": "nonlocal_kpp",
         "kernel": {"shape": "gaussian", "variance": 1.0},
         "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}},
        {"family": "nonlocal_lattice", "D": 1.0, "d": 1.0,
         "beta": {"0": 0.6, "-1": 0.4}, "delay": 0.5,
         "nonlinearity": {"kind": "mackey_glass", "p": 2.0, "n": 6.0}},
        {"family": "nonlocal_delayed_rd", "delay": 0.5,
         "damping": {"kind": "linear", "slope": 1.0},
         "kernel": {"shape": "dirac_comb", "offsets": [-0.5, 0.5], "weights": [0.5, 0.5]},
         "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}},
        {"family": "local_delayed_rd", "L": 2.5, "delay": 1.0,
         "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}},
    ]
    for cfg in specs:
        m = model_from_dict(cfg)
        assert m.family == cfg["family"]
    with pytest.raises(ValueError):
        model_from_dict({"family": "bogus", "nonlinearity": {"kind": "linear"}})
    with pytest.raises(ValueError):
        model_from_dict({"family": "local_delayed_rd",
                         "nonlinearity": {"kind": "unknown"}})


# each family's JSON form, with every field written out, and the model it names
_MODEL_JSON = [
    ({"family": "nonlocal_kpp", "kernel": {"shape": "gaussian", "variance": 1.0, "scale": 0.9},
      "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}},
     wf.NonlocalKPP(J=wf.GaussianKernel(1.0, scale=0.9), g=wf.logistic(2.0, 1.0))),
    ({"family": "nonlocal_lattice", "D": 1.0, "d": 1.0, "beta": {"-1": 0.4, "0": 0.6},
      "delay": 0.5, "nonlinearity": {"kind": "mackey_glass", "p": 2.0, "n": 6.0}},
     wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={0: 0.6, -1: 0.4},
                        g=wf.mackey_glass(2.0, 6.0), delay=0.5)),
    ({"family": "nonlocal_delayed_rd", "damping": {"kind": "linear", "slope": 1.0},
      "kernel": {"shape": "convolved",
                 "a": {"shape": "dirac_comb", "offsets": [0.5], "weights": [1.0]},
                 "b": {"shape": "gaussian", "variance": 0.5}},
      "delay": 0.5, "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}},
     wf.NonlocalDelayedRD(f=wf.linear(1.0), g=wf.logistic(2.0, 1.0),
                          k=wf.convolve(wf.DiracComb((0.5,), (1.0,)), wf.GaussianKernel(0.5)),
                          delay=0.5)),
    ({"family": "local_delayed_rd", "L": 2.5, "delay": 1.0,
      "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}},
     wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.5, delay=1.0)),
]


@pytest.mark.parametrize("spec, model", _MODEL_JSON,
                         ids=[spec["family"] for spec, _ in _MODEL_JSON])
def test_model_dict_round_trip(spec, model):
    again = model_from_dict(json.loads(json.dumps(spec)))
    assert type(again) is type(model)
    # every field but the nonlinearities, which hold functions, compares equal
    for name, value in vars(model).items():
        other = getattr(again, name)
        if isinstance(value, wf.Nonlinearity):
            assert (other.name, other.gprime0) == (value.name, value.gprime0)
        elif isinstance(value, wf.ConvolvedKernel):
            assert (other.a, other.b) == (value.a, value.b)
        else:
            assert other == value
    assert closed_forms.tilde_chi(again, 0.4, 3.0) == closed_forms.tilde_chi(model, 0.4, 3.0)


def test_kernel_from_dict_variants(tmp_path):
    k1 = kernel_from_dict({"shape": "piecewise_green", "c": 2.5, "q": 1.0})
    assert isinstance(k1, wf.PiecewiseGreen)
    k2 = kernel_from_dict({"shape": "convolved",
                           "a": {"shape": "dirac_comb", "offsets": [1.0], "weights": [1.0]},
                           "b": {"shape": "gaussian", "variance": 0.5}})
    assert isinstance(k2, wf.ConvolvedKernel)
    csv = tmp_path / "k.csv"
    csv.write_text("-1.0,0.0\n0.0,1.0\n1.0,0.0\n")
    k3 = kernel_from_dict({"shape": "tabulated", "path": str(csv)})
    assert k3.mass == pytest.approx(1.0)
