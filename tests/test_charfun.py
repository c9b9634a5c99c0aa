import math

import mpmath
import numpy as np
import pytest

import wavefront as wf
from wavefront import charfun
from wavefront.charfun import chi_prime
from wavefront.errors import BracketFailure, NoRoots, OutOfStrip, StripTooNarrow
from wavefront.kernels import KernelComponent

# frozen oracles (quadratic formula / high-resolution 1-d and 2-d grid search
# refined by bisection, computed independently before the build)
GAUSS_C_STAR = 2.544841358927859
GAUSS_Z_STAR = 1.2155945303690765
LATTICE_C_STAR = 2.0734446842053407
LATTICE_Z_STAR = 0.9071032935762898


def local_cf(c: float, weight: float = 2.0, delay: float = 0.0):
    """Characteristic function of the local delayed family at speed c."""
    green = wf.PiecewiseGreen.from_speed_damping(c, 1.0, shift=c * delay)
    return wf.CharacteristicFunction(((green, weight),))


class StubKernel(KernelComponent):
    def __init__(self, strip):
        self._strip = strip

    @property
    def mass(self):
        return 1.0

    def abscissas(self):
        return self._strip

    def laplace(self, z):
        return np.full_like(np.asarray(z, dtype=complex), 0.5)


def test_chi_at_zero_and_root_point():
    cf = local_cf(2.5)
    assert wf.chi(cf, 0.0) == pytest.approx(-1.0, abs=1e-14)
    assert wf.chi(cf, 0.5) == pytest.approx(0.0, abs=1e-14)


def test_chi_complex_against_high_precision():
    cf = local_cf(2.5)
    z = 1.0 + 1.0j
    got = wf.chi(cf, z)
    with mpmath.workdps(40):
        zz = mpmath.mpc(1, 1)
        expected = 1 - 2 / (1 + mpmath.mpf("2.5") * zz - zz * zz)
        expected = complex(expected)
    assert got == pytest.approx(expected, rel=1e-13)
    assert abs(got) > 0.1


def test_chi_out_of_strip():
    cf = local_cf(2.5)
    with pytest.raises(OutOfStrip):
        wf.chi(cf, 3.0)


def test_real_roots_dichotomy():
    sd = wf.real_roots(local_cf(2.5))
    assert sd.lambda_l == pytest.approx(0.5, abs=1e-10)
    assert sd.lambda_r == pytest.approx(2.0, abs=1e-10)
    assert not sd.critical
    assert sd.lambda_rK == pytest.approx(2.0, abs=1e-10)

    sd2 = wf.real_roots(local_cf(2.0))
    assert sd2.critical
    assert sd2.lambda_l == pytest.approx(1.0, abs=1e-5)
    assert abs(sd2.chi_prime_at_ll) < 1e-5

    with pytest.raises(NoRoots):
        wf.real_roots(local_cf(1.0))


def test_root_values_vanish_to_tolerance():
    # the lattice chi at 2 c* is still positive at the doubling bracket of
    # its maximizer, and tends to -inf further right: lambda_r lies beyond it
    lattice = wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={-1: 1.0}, g=wf.logistic(2.0, 1.0))
    c_star, _ = wf.model_min_speed(lattice)
    for cf in (local_cf(2.7), lattice.to_convolution_form(2.0 * c_star).charfun()):
        sd = wf.real_roots(cf)
        assert sd.lambda_r is not None
        assert abs(wf.chi(cf, sd.lambda_l)) <= 1e-10
        assert abs(wf.chi(cf, sd.lambda_r)) <= 1e-10
        assert sd.lambda_l <= sd.lambda_r


def test_real_roots_evaluates_each_doubling_point_once(monkeypatch):
    # chi = 1 - 3 e^{z^2/200} / (1 + z) rises on 1, 2, 4, 8 and falls at 16
    cf = wf.CharacteristicFunction(
        ((wf.convolve(wf.OneSidedExponential(1.0), wf.GaussianKernel(0.01)), 3.0),))
    points = []
    chi = charfun.chi

    def recording_chi(cf, z):
        points.append(z)
        return chi(cf, z)

    monkeypatch.setattr(charfun, "chi", recording_chi)
    wf.real_roots(cf)
    assert [points.count(x) for x in (2.0, 4.0, 8.0)] == [1, 1, 1]


def test_real_roots_gamma_infinite_branch():
    # Gaussian-based chi: strip is all of R, the maximizer bracket doubles
    comb = wf.GaussianKernel(1.0)
    cf = wf.CharacteristicFunction(((comb, 2.0),))
    # chi = 1 - 2 e^{z^2/2} < 0 everywhere: no roots
    with pytest.raises(NoRoots):
        wf.real_roots(cf)


def test_real_roots_lambda_r_absent():
    # one-sided exponential with weight > 1: chi = 1 - w r/(r+z) has a single
    # positive root and then increases to 1: lambda_r is absent, gamma_K = inf
    k = wf.OneSidedExponential(rate=1.0)
    cf = wf.CharacteristicFunction(((k, 3.0),))
    sd = wf.real_roots(cf)
    assert sd.lambda_r is None
    assert sd.lambda_l == pytest.approx(2.0, abs=1e-10)  # 1 - 3/(1+z) = 0
    assert sd.lambda_rK == math.inf


def test_strip_too_narrow():
    with pytest.raises(StripTooNarrow):
        wf.real_roots(wf.CharacteristicFunction(((StubKernel((-1.0, -0.5)), 2.0),)))
    with pytest.raises(StripTooNarrow):
        wf.real_roots(wf.CharacteristicFunction(((StubKernel((0.0, 2.0)), 2.0),)))


def test_chi_prime_complex_step():
    cf = local_cf(2.5)
    # analytic: chi' = 2 (2.5 - 2z)/(1+2.5z-z^2)^2
    for x in (0.3, 0.5, 1.7):
        den = 1 + 2.5 * x - x * x
        expected = 2 * (2.5 - 2 * x) / den ** 2
        assert chi_prime(cf, x) == pytest.approx(expected, rel=1e-12)


def test_concavity_property(rng):
    cf = local_cf(2.5)
    lo, hi = cf.strip
    for _ in range(100):
        xs = np.sort(rng.uniform(lo + 0.05, hi - 0.05, size=3))
        x1, x2, x3 = xs
        if x3 - x1 < 1e-6:
            continue
        w = (x2 - x1) / (x3 - x1)
        chord = (1 - w) * wf.chi(cf, x1) + w * wf.chi(cf, x3)
        assert wf.chi(cf, x2) >= chord - 1e-9
    h = 1e-4
    for x in rng.uniform(lo + 0.1, hi - 0.1, size=20):
        second = (wf.chi(cf, x - h) - 2 * wf.chi(cf, x) + wf.chi(cf, x + h)) / h ** 2
        assert second < 0


# --- minimal speed ----------------------------------------------------------

def test_min_speed_local_family_closed_form():
    m = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=0.0)
    c_star, z_star = wf.min_speed(
        lambda z, c: float(np.real(m.tilde_chi_lipschitz(z, c))),
        m.tilde_strip, (1.0, 4.0))
    assert c_star == pytest.approx(2.0, abs=1e-8)
    assert z_star == pytest.approx(1.0, abs=1e-6)


def test_min_speed_gaussian_dispersal():
    m = wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0))
    c_star, z_star = wf.min_speed(
        lambda z, c: float(np.real(m.tilde_chi(z, c))),
        m.tilde_strip, (1.0, 4.0))
    assert c_star == pytest.approx(GAUSS_C_STAR, abs=1e-9)
    assert z_star == pytest.approx(GAUSS_Z_STAR, abs=1e-6)


def test_min_speed_lattice():
    m = wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={0: 1.0}, g=wf.logistic(2.0, 1.0))
    c_star, z_star = wf.min_speed(
        lambda z, c: float(np.real(m.tilde_chi(z, c))),
        lambda c: (0.0, 6.0), (1.0, 4.0))
    assert c_star == pytest.approx(LATTICE_C_STAR, abs=1e-9)
    assert c_star == pytest.approx(2.07, abs=5e-3)
    assert z_star == pytest.approx(LATTICE_Z_STAR, abs=1e-6)


def test_min_speed_bracket_failure():
    m = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=0.0)
    with pytest.raises(BracketFailure):
        wf.min_speed(lambda z, c: float(np.real(m.tilde_chi_lipschitz(z, c))),
                     m.tilde_strip, (3.0, 4.0))


def test_min_speed_roots_coherence():
    c_star = 2.0
    sd = wf.real_roots(local_cf(c_star))
    assert sd.critical
    sd_fast = wf.real_roots(local_cf(1.1 * c_star))
    assert not sd_fast.critical
    assert sd_fast.lambda_l < sd_fast.lambda_r


def test_monotone_in_speed(rng):
    families = [
        wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0)),
        wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={-1: 0.3, 0: 0.4, 2: 0.3},
                           g=wf.logistic(2.0, 1.0), delay=0.5),
        wf.NonlocalDelayedRD(f=wf.linear(1.0), g=wf.logistic(2.0, 1.0),
                             k=wf.GaussianKernel(1.0), delay=0.5),
        wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=1.0),
    ]
    for m in families:
        for _ in range(10):
            z = rng.uniform(0.05, 1.5)
            c = rng.uniform(0.5, 3.0)
            c2 = c + rng.uniform(0.1, 1.0)
            assert float(np.real(m.tilde_chi(z, c2))) > float(np.real(m.tilde_chi(z, c)))


# --- strip scan -------------------------------------------------------------

def test_strip_zero_scan_pass():
    cf = local_cf(2.5)
    sd = wf.real_roots(cf)
    rep = wf.strip_zero_scan(cf, sd, y_max=50.0, grid_density=40.0)
    assert rep.passed
    assert rep.min_abs_chi > 1e-3
    # on the real-axis segment |chi| dips to |chi'(lambda_l)| * eps_re right
    # next to the excluded zeros: 0.75e-3 for this family
    assert rep.min_abs_chi_real_axis == pytest.approx(7.5e-4, rel=2e-2)
    d = rep.to_dict()
    assert d["pass"] and "min_abs_chi" in d and len(d["argmin"]) == 2


def test_strip_zero_scan_dense_oracle():
    # dense off-axis evaluation over the same rectangle confirms the report
    cf = local_cf(2.5)
    sd = wf.real_roots(cf)
    xs = np.linspace(0.5 + 1e-3, 2.0 - 1e-3, 1200)
    ys = np.concatenate([np.linspace(-50.0, -0.1, 1000), np.linspace(0.1, 50.0, 1000)])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    dense_min = float(np.min(np.abs(wf.chi(cf, X + 1j * Y))))
    assert dense_min > 1e-3
    rep = wf.strip_zero_scan(cf, sd, y_max=50.0, grid_density=40.0)
    assert rep.min_abs_chi >= 0.5 * dense_min


def test_strip_zero_scan_boundary_lines():
    cf = local_cf(2.5)
    sd = wf.real_roots(cf)
    ys = np.concatenate([np.linspace(-50, -0.1, 500), np.linspace(0.1, 50, 500)])
    vals = np.abs(wf.chi(cf, sd.lambda_l + 1j * ys))
    assert float(np.min(vals)) > 0.0


def test_strip_zero_scan_vacuous():
    cf = local_cf(2.5)
    sd = wf.real_roots(cf)
    rep = wf.strip_zero_scan(cf, sd, y_max=0.0)
    assert rep.passed and rep.empty


def test_strip_zero_scan_critical_interior_empty():
    cf = local_cf(2.0)
    sd = wf.real_roots(cf)
    rep = wf.strip_zero_scan(cf, sd, y_max=5.0)
    assert rep.empty
    assert rep.passed  # boundary lines only


# --- chi_1 margin -----------------------------------------------------------

def test_chi1_margin_interior_maximizer():
    cf1 = local_cf(2.5)
    sd = wf.real_roots(cf1)
    res = wf.chi1_margin(cf1, sd)
    assert res is not None
    m, val = res
    assert m == pytest.approx(1.25, abs=1e-6)
    assert val == pytest.approx(1 - 2 / 2.5625, rel=1e-9)


def test_chi1_margin_absent_below_c_star():
    # below the minimal speed there is no root and the maximum is negative;
    # build spectral data from a faster speed merely to bound the search
    cf_fast = local_cf(2.5)
    sd = wf.real_roots(cf_fast)
    cf1_slow = local_cf(1.0)
    assert wf.chi1_margin(cf1_slow, sd) is None


def test_chi1_equals_chi_when_weights_match():
    cf = local_cf(2.5)
    sd = wf.real_roots(cf)
    res = wf.chi1_margin(cf, sd)
    assert res is not None
    # subtangential case: the margin maximum is the chi maximum
    m, val = res
    assert val >= 0.0
    assert wf.chi(cf, sd.lambda_l) == pytest.approx(0.0, abs=1e-10)


def test_dominance_lipschitz_weights(rng):
    cf = local_cf(2.5, weight=2.0)
    cf1 = local_cf(2.5, weight=2.5)  # lambda >= g'(0)
    lo, hi = cf.strip
    for x in rng.uniform(lo + 0.05, hi - 0.05, size=40):
        assert float(np.real(wf.chi(cf1, x))) <= float(np.real(wf.chi(cf, x)))


def test_spectral_data_serialization():
    sd = wf.real_roots(local_cf(2.5))
    d = sd.to_dict()
    assert d["lambda_l"] == pytest.approx(0.5, abs=1e-10)
    assert d["lambda_rK"] == d["lambda_r"]
    assert not d["critical"]
