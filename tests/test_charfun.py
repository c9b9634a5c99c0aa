import dataclasses
import math
import re
import time
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest

import wavefront as wf
from wavefront import charfun
from wavefront.charfun import _strip_max, chi_prime
from wavefront.errors import BracketFailure, NoRoots, OutOfStrip, StripTooNarrow
from wavefront.kernels import KernelComponent, shift_kernel

import closed_forms

MODELS = sorted((Path(__file__).resolve().parents[1] / "models").glob("*.json"))

# frozen oracles (quadratic formula / high-resolution 1-d and 2-d grid search
# refined by bisection, computed independently before the build)
GAUSS_C_STAR = 2.544841358927859
GAUSS_Z_STAR = 1.2155945303690765
LATTICE_C_STAR = 2.0734446842053407
LATTICE_Z_STAR = 0.9071032935762898


def local_cf(c: float, weight: float = 2.0, delay: float = 0.0):
    """Characteristic function of the local delayed family at speed c."""
    green = shift_kernel(wf.PiecewiseGreen.from_speed_damping(c, 1.0), c * delay)
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


def test_root_values_vanish_to_tolerance(monkeypatch):
    # the lattice chi at 2 c* is still positive at the doubling bracket of
    # its maximizer, and tends to -inf further right: lambda_r lies beyond it,
    # and the walk right doubles without probing up to that bracket
    lattice = wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={-1: 1.0}, g=wf.logistic(2.0, 1.0))
    c_star, _ = wf.model_min_speed(lattice)
    calls = []
    chi = charfun.chi

    def counting_chi(cf, z):
        calls.append(z)
        return chi(cf, z)

    monkeypatch.setattr(charfun, "chi", counting_chi)
    for cf, budget in ((local_cf(2.7), 33),
                       (lattice.to_convolution_form(2.0 * c_star).charfun(), 45)):
        calls.clear()
        sd = wf.real_roots(cf)
        assert len(calls) <= budget
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

def max_at_of(chi_zc, strip_of_c):
    """The per-speed maximum min_speed takes: maximize chi_zc(., c) over the strip."""
    return lambda c: _strip_max(lambda z: float(np.real(chi_zc(z, c))), strip_of_c(c))


def test_min_speed_local_family_closed_form():
    m = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=0.0)
    c_star, z_star = wf.min_speed(max_at_of(m.tilde_chi_lipschitz, m.tilde_strip), (1.0, 4.0))
    assert c_star == pytest.approx(2.0, abs=1e-8)
    assert z_star == pytest.approx(1.0, abs=1e-6)


def test_min_speed_gaussian_dispersal():
    m = wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0))
    c_star, z_star = wf.min_speed(max_at_of(partial(closed_forms.tilde_chi, m), m.tilde_strip),
                                  (1.0, 4.0))
    assert c_star == pytest.approx(GAUSS_C_STAR, abs=1e-9)
    assert z_star == pytest.approx(GAUSS_Z_STAR, abs=1e-6)


def test_min_speed_lattice():
    m = wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={0: 1.0}, g=wf.logistic(2.0, 1.0))
    c_star, z_star = wf.min_speed(
        max_at_of(partial(closed_forms.tilde_chi, m), lambda c: (0.0, 6.0)), (1.0, 4.0))
    assert c_star == pytest.approx(LATTICE_C_STAR, abs=1e-9)
    assert c_star == pytest.approx(2.07, abs=5e-3)
    assert z_star == pytest.approx(LATTICE_Z_STAR, abs=1e-6)


def test_min_speed_bracket_failure():
    m = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=0.0)
    with pytest.raises(BracketFailure):
        wf.min_speed(max_at_of(m.tilde_chi_lipschitz, m.tilde_strip), (3.0, 4.0))


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
            assert (float(np.real(closed_forms.tilde_chi(m, z, c2)))
                    > float(np.real(closed_forms.tilde_chi(m, z, c))))


# --- zero count and strip scan ----------------------------------------------

POLY_ROOTS = (1.0, 2.0, 2.0, 1.5 + 0.5j, 5.0, 1.0 + 3.0j)


def poly(z):
    return np.prod([np.asarray(z) - r for r in POLY_ROOTS], axis=0)


def poly_slope_bound(y0, y1):
    """|p'| <= sum_i prod_{j != i} |z - r_j|, each factor at its farthest corner of the band."""
    def bound(xa, xb):
        far = [max(abs(complex(x, y) - r) for x in (xa, xb) for y in (y0, y1))
               for r in POLY_ROOTS]
        return sum(math.prod(far[:i] + far[i + 1:]) for i in range(len(far)))
    return bound


@pytest.mark.parametrize("box, count", [
    ((0.0, 3.0, -1.0, 1.0), 4),    # 1, the double 2 and 1.5 + 0.5i
    ((1.8, 6.0, -0.4, 0.4), 3),    # the double 2 and 5
    ((2.5, 4.5, -2.0, 2.0), 0),
    ((-3.0, 8.0, -5.0, 5.0), 6),
], ids=["three-inside", "double-and-five", "none", "all"])
def test_zero_count_polynomial(box, count):
    got, points, least, notes = charfun.zero_count(poly, poly_slope_bound(*box[2:]), box)
    assert (got, notes) == (count, "")
    assert 4 <= points <= charfun.COUNT_MAX_POINTS
    assert least > 0.0


def test_zero_count_zero_on_the_boundary_is_undetermined():
    # the zero 1 sits on the left side: no step across it can be certified
    box = (1.0, 3.0, -1.0, 1.0)
    got, points, least, notes = charfun.zero_count(poly, poly_slope_bound(-1.0, 1.0), box)
    assert got is None and math.isfinite(least)
    assert points <= charfun.COUNT_MAX_POINTS
    assert notes.startswith("the left side") and "needs over" in notes


def test_strip_zero_scan_pass():
    cf = local_cf(2.5)
    sd = wf.real_roots(cf)
    rep = wf.strip_zero_scan(cf, sd, y_max=50.0)
    assert rep.passed and (rep.count, rep.expected, rep.status) == (2, 2, "pass")
    # x1 is halfway from lambda_r = 2 to the Green pole, short of 2 + 0.75
    assert rep.box == pytest.approx((0.25, (sd.lambda_r + sd.gamma_K) / 2.0, -50.0, 50.0))
    assert rep.min_abs_chi > 1e-3
    d = rep.to_dict()
    assert d["pass"] is True
    assert set(d) == {"count", "expected", "box", "points", "min_abs_chi", "pass",
                      "status", "notes"}


def test_strip_zero_scan_dense_oracle():
    # a dense |chi| grid over the box, off a band about the real axis where
    # the two real zeros sit, agrees with the count: nothing else is inside
    cf = local_cf(2.5)
    sd = wf.real_roots(cf)
    rep = wf.strip_zero_scan(cf, sd, y_max=50.0)
    x0, x1, _, y1 = rep.box
    xs = np.linspace(x0, x1, 1200)
    ys = np.concatenate([np.linspace(-y1, -0.1, 1000), np.linspace(0.1, y1, 1000)])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    dense_min = float(np.min(np.abs(wf.chi(cf, X + 1j * Y))))
    assert dense_min > 1e-3
    assert rep.passed and rep.count == 2


def test_strip_zero_scan_boundary_lines():
    cf = local_cf(2.5)
    sd = wf.real_roots(cf)
    ys = np.concatenate([np.linspace(-50, -0.1, 500), np.linspace(0.1, 50, 500)])
    vals = np.abs(wf.chi(cf, sd.lambda_l + 1j * ys))
    assert float(np.min(vals)) > 0.0


def test_strip_zero_scan_vacuous():
    # a box needs a height
    cf = local_cf(2.5)
    sd = wf.real_roots(cf)
    for y_max in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="y_max must be positive and finite"):
            wf.strip_zero_scan(cf, sd, y_max=y_max)


@pytest.mark.parametrize("y_max", [True, np.True_, "1", None, [1.0], 1 + 0j])
def test_strip_zero_scan_refuses_a_y_max_that_is_no_number(y_max):
    # True once scanned a box of height 1, and a string raised TypeError
    cf = local_cf(2.5)
    with pytest.raises(ValueError, match=f"^y_max must be a number, got {re.escape(repr(y_max))}$"):
        wf.strip_zero_scan(cf, wf.real_roots(cf), y_max=y_max)


def test_strip_zero_scan_critical_interior_empty():
    # at c* the real zeros are one double zero, which counts twice
    cf = local_cf(2.0)
    sd = wf.real_roots(cf)
    assert sd.critical
    rep = wf.strip_zero_scan(cf, sd, y_max=5.0)
    assert rep.passed and rep.count == 2


def test_strip_zero_scan_other_count_fails():
    # told lambda_r = 1, the scan expects two zeros in a box that ends at
    # 1.25, short of the true lambda_r = 2, and holds lambda_l alone
    cf = local_cf(2.5)
    sd = dataclasses.replace(wf.real_roots(cf), lambda_r=1.0)
    rep = wf.strip_zero_scan(cf, sd, y_max=50.0)
    assert rep.box[1] == pytest.approx(1.25)
    assert (rep.count, rep.expected, rep.status, rep.passed) == (1, 2, "fail", False)


def model_cf(path, at_c_star):
    spec, cfg = wf.load_model(path)
    c = (wf.model_min_speed(spec)[0] if at_c_star
         else float(cfg["c"]))
    return spec.to_convolution_form(c).charfun()


@pytest.mark.parametrize("at_c_star", [False, True], ids=["c", "c_star"])
@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_strip_zero_scan_counts_two_on_models(path, at_c_star):
    # an adaptive walk that sizes its steps by the change of arg chi reads 0
    # here: its steps grow across the real-axis crossings of the vertical
    # sides, where chi(x + iy) and chi(x - iy) are conjugates
    cf = model_cf(path, at_c_star)
    rep = wf.strip_zero_scan(cf, wf.real_roots(cf), y_max=50.0)
    assert (rep.count, rep.status) == (2, "pass")
    assert rep.points < 10_000


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_strip_zero_scan_thin_box_holds_both_real_zeros(path):
    cf = model_cf(path, False)
    rep = wf.strip_zero_scan(cf, wf.real_roots(cf), y_max=0.05)
    assert (rep.count, rep.status) == (2, "pass")


def mackey_glass_cf(delay):
    m = wf.LocalDelayedRD(g=wf.mackey_glass(2.0, 6.0), L=3.0, delay=delay)
    return m.to_convolution_form(3.0).charfun()


def test_strip_zero_scan_mackey_glass_without_lambda_r():
    cf = mackey_glass_cf(3.0)
    sd = wf.real_roots(cf)
    assert sd.lambda_r is None
    rep = wf.strip_zero_scan(cf, sd, y_max=50.0)
    assert (rep.count, rep.expected, rep.status) == (1, 1, "pass")


def test_strip_zero_scan_mackey_glass_pole_is_undetermined():
    # lambda_r sits 2.8e-5 below the Green pole gamma_K, so the box's right
    # side is 1.4e-5 from it: the slope bound there is ~3e5, and a certified
    # walk along the 100-unit side needs some 3e7 points, past the cap
    cf = mackey_glass_cf(1.0)
    sd = wf.real_roots(cf)
    assert 0.0 < sd.gamma_K - sd.lambda_r < 3e-5
    start = time.perf_counter()
    rep = wf.strip_zero_scan(cf, sd, y_max=50.0)
    assert time.perf_counter() - start < 1.0
    assert (rep.count, rep.status, rep.passed) == (None, "undetermined", False)
    assert rep.points <= charfun.COUNT_MAX_POINTS
    assert "needs over" in rep.notes


class HoleyGreen(KernelComponent):
    """A Green kernel whose transform is nan on the patch x0 < Re z < x1, y0 < |Im z| < y1."""

    def __init__(self, patch):
        self.green = wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)
        self.patch = patch

    def abscissas(self):
        return self.green.abscissas()

    def laplace(self, z):
        out = np.array(self.green.laplace(z), dtype=complex)
        x0, x1, y0, y1 = self.patch
        out[(np.real(z) > x0) & (np.real(z) < x1)
            & (np.abs(np.imag(z)) > y0) & (np.abs(np.imag(z)) < y1)] = np.nan
        return out


@pytest.mark.parametrize("patch, side", [
    ((1.9, 1.95, 45.0, math.inf), "bottom"),
    ((0.2, 0.3, 10.0, 20.0), "left"),
    ((1.0, 1.2, 10.0, 20.0), None),
], ids=["horizontal-sides", "left-side", "interior"])
def test_strip_zero_scan_nan_on_the_boundary_fails(patch, side):
    # nan on the boundary fails the scan; inside the box the walk never sees it
    sd = wf.real_roots(local_cf(2.5))
    rep = wf.strip_zero_scan(wf.CharacteristicFunction(((HoleyGreen(patch), 2.0),)), sd,
                             y_max=50.0)
    if side is None:
        assert (rep.count, rep.status) == (2, "pass")
    else:
        assert (rep.count, rep.status, rep.notes) == (None, "fail", f"f is nan on the {side} side")
        assert math.isnan(rep.min_abs_chi)


@pytest.mark.parametrize("kernel", [
    wf.GaussianKernel(0.7, scale=1.5),
    shift_kernel(wf.OneSidedExponential(rate=2.5, direction=1, scale=0.8), 0.3),
    shift_kernel(wf.OneSidedExponential(rate=2.5, direction=-1), -0.4),
    shift_kernel(wf.PiecewiseGreen.from_speed_damping(2.5, 1.0, scale=2.0), 0.6),
    wf.DiracComb((-1.0, 0.25, 2.0), (0.5, 1.0, 0.125)),
    wf.TabulatedKernel((-1.0, -0.2, 0.5, 2.0), (0.0, 1.0, 0.4, 0.0)),
    wf.TabulatedKernel(tuple(np.linspace(-8.0, 8.0, 161)),
                       tuple(np.exp(-np.linspace(-8.0, 8.0, 161) ** 2 / 2.0))),
    wf.convolve(wf.GaussianKernel(1.0), wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)),
], ids=["gaussian", "exponential+", "exponential-", "green", "comb", "tabulated",
        "tabulated-uniform", "convolved"])
def test_chi_conjugate_symmetry_is_bitwise(kernel):
    # every kernel is a real measure, so chi(conj z) = conj chi(z); each
    # transform keeps that bit for bit, though no caller relies on it
    cf = wf.CharacteristicFunction(((kernel, 1.3),))
    lo, hi = cf.strip
    xs = np.linspace(max(lo, -1.5) + 0.01, min(hi, 2.0) - 0.01, 37)
    ys = np.linspace(0.1, 30.0, 53)
    Z = xs[:, None] + 1j * ys
    assert wf.chi(cf, np.conj(Z)).tobytes() == np.conj(wf.chi(cf, Z)).tobytes()


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
