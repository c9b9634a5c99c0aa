import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

import wavefront as wf
from wavefront import charfun
from wavefront._json import dumps
from wavefront.charfun import _strip_max, chi_prime
from wavefront.errors import BracketFailure, NoRoots, OutOfStrip, StripTooNarrow
from wavefront.kernels import KernelComponent, shift_kernel

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
    c_star, z_star = wf.min_speed(max_at_of(m.tilde_chi, m.tilde_strip), (1.0, 4.0))
    assert c_star == pytest.approx(GAUSS_C_STAR, abs=1e-9)
    assert z_star == pytest.approx(GAUSS_Z_STAR, abs=1e-6)


def test_min_speed_lattice():
    m = wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={0: 1.0}, g=wf.logistic(2.0, 1.0))
    c_star, z_star = wf.min_speed(max_at_of(m.tilde_chi, lambda c: (0.0, 6.0)), (1.0, 4.0))
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
    assert dumps(rep.to_dict()) == dumps(scan_reference(cf, sd, y_max=5.0))


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
    # every kernel is a real measure; the strip scan evaluates only the upper
    # half of its band and relies on the lower half mirroring it bit for bit
    cf = wf.CharacteristicFunction(((kernel, 1.3),))
    lo, hi = cf.strip
    xs = np.linspace(max(lo, -1.5) + 0.01, min(hi, 2.0) - 0.01, 37)
    ys = np.linspace(0.1, 30.0, 53)
    Z = xs[:, None] + 1j * ys
    assert wf.chi(cf, np.conj(Z)).tobytes() == np.conj(wf.chi(cf, Z)).tobytes()


def scan_reference(cf, sd, y_max, grid_density=40.0, eps_re=1e-3, zero_tol=1e-3):
    """strip_zero_scan over the whole mirrored band: one meshgrid, one chi call per block."""
    INF = math.inf
    notes = []
    _, gamma_K = cf.strip
    rk = sd.lambda_rK
    if not math.isfinite(rk):
        rk = sd.lambda_l + charfun.SCAN_RIGHT_CAP
        notes.append(f"lambda_rK infinite; scan capped at lambda_l + {charfun.SCAN_RIGHT_CAP:g}")
    rk_eval = min(rk, charfun._inside(gamma_K)) if math.isfinite(gamma_K) else rk
    eps_im = charfun.SCAN_EPS_IM
    x_lo, x_hi = sd.lambda_l + eps_re, rk_eval - eps_re
    best = (INF, (math.nan, math.nan))
    pts = nans = 0

    def scan_block(X, Y):
        nonlocal best, pts, nans
        vals = np.abs(wf.chi(cf, X + 1j * Y))
        pts += vals.size
        nans += int(np.count_nonzero(np.isnan(vals)))
        vals = np.where(np.isnan(vals), INF, vals)
        i = int(np.argmin(vals))
        if vals.ravel()[i] < best[0]:
            best = (float(vals.ravel()[i]), (float(np.ravel(X)[i]), float(np.ravel(Y)[i])))

    def y_band(height):
        ny = max(81, int(math.ceil(2.0 * (height - eps_im) * grid_density)) + 1)
        pos = np.linspace(eps_im, height, ny // 2)
        return np.concatenate([-pos[::-1], pos])

    if y_max <= eps_im:
        notes.append(f"y_max <= {eps_im:g}: off-axis set empty, scan vacuous")
    axis_min, axis_arg = INF, math.nan
    if x_hi > x_lo and y_max > eps_im:
        nx = max(41, int(math.ceil((x_hi - x_lo) * grid_density)) + 1)
        xs = np.linspace(x_lo, x_hi, nx)
        ys = y_band(y_max)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        scan_block(X, Y)
        grid_meta = {"nx": nx, "ny": ys.size, "x": [x_lo, x_hi], "y": [-y_max, y_max]}
        empty = False
        axis_vals = np.abs(wf.chi(cf, xs + 0.0j))
        i = int(np.argmin(axis_vals))
        axis_min, axis_arg = float(axis_vals[i]), float(xs[i])
    else:
        grid_meta = {"nx": 0, "ny": 0, "x": [x_lo, x_hi], "y": [-y_max, y_max]}
        empty = True
        if x_hi <= x_lo:
            notes.append("interior rectangle empty (lambda_l ~ lambda_rK)")
    if y_max > eps_im:
        yb = y_band(y_max)
        for x_line in (sd.lambda_l, rk_eval):
            scan_block(np.full(yb.shape, x_line), yb)
    if nans:
        notes.append(f"|chi| is nan at {nans} of {pts} scanned points; "
                     f"the minimum is over the finite ones")
    return {"min_abs_chi": best[0] if pts else INF, "argmin": list(best[1]),
            "grid": {**grid_meta, "points": pts, "zero_tol": zero_tol,
                     "eps_re": eps_re, "eps_im": eps_im},
            "pass": best[0] > zero_tol and not nans if pts else True,
            "min_abs_chi_real_axis": axis_min, "argmin_real_axis": axis_arg,
            "empty": empty, "notes": "; ".join(notes)}


class HoleyGreen(KernelComponent):
    """A Green kernel whose transform is nan on a patch of the scan rectangle."""

    def __init__(self, patch):
        self.green = wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)
        self.patch = patch

    def abscissas(self):
        return self.green.abscissas()

    def laplace(self, z):
        out = np.array(self.green.laplace(z), dtype=complex)
        x0, x1, y0 = self.patch
        out[(np.real(z) > x0) & (np.real(z) < x1) & (np.abs(np.imag(z)) > y0)] = np.nan
        return out


@pytest.mark.parametrize("patch,nans", [((1.9, 1.95, 45.0), 800), ((0.51, 0.53, 0.2), 3984)],
                         ids=["late-rows", "first-rows"])
def test_strip_zero_scan_nan_keeps_finite_minimum_and_fails(patch, nans):
    # the minimum is taken over the finite points, so a nan patch hides no
    # finite minimum in its row block (both patches miss the clean argmin);
    # the nan points are counted in the notes and fail the scan
    cf = local_cf(2.5)
    sd = wf.real_roots(cf)
    green = wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)
    clean = wf.strip_zero_scan(wf.CharacteristicFunction(((green, 2.0),)), sd, y_max=50.0)
    holey = wf.CharacteristicFunction(((HoleyGreen(patch), 2.0),))
    rep = wf.strip_zero_scan(holey, sd, y_max=50.0)
    assert clean.passed and not rep.passed
    assert (rep.min_abs_chi, rep.argmin) == (clean.min_abs_chi, clean.argmin)
    assert sd.lambda_l < rep.argmin[0] < sd.lambda_rK
    assert rep.notes == (f"|chi| is nan at {nans} of {rep.grid['points']} scanned points; "
                         f"the minimum is over the finite ones")
    assert dumps(rep.to_dict()) == dumps(scan_reference(holey, sd, y_max=50.0))


def test_strip_zero_scan_ties_break_like_full_band():
    # |chi| constant: the first point of the whole grid, the lowest y of the
    # lower half in the first row, is the argmin
    sd = wf.real_roots(local_cf(2.5))
    flat = wf.CharacteristicFunction(((StubKernel((-1.0, 3.0)), 2.0),))
    rep = wf.strip_zero_scan(flat, sd, y_max=50.0)
    assert rep.argmin == (sd.lambda_l + 1e-3, -50.0)
    assert dumps(rep.to_dict()) == dumps(scan_reference(flat, sd, y_max=50.0))


@pytest.mark.parametrize("flags", [
    {"y_max": 50.0},                        # the CLI defaults
    {"y_max": 10.0, "grid_density": 7.3},   # an odd number of y values per half
    {"y_max": 0.05},                        # off-axis set empty
], ids=["default", "odd-half", "vacuous"])
@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_strip_zero_scan_matches_full_band_reference(path, flags):
    spec, cfg = wf.load_model(path)
    cf = spec.to_convolution_form(float(cfg["c"]), cfg.get("bound"),
                                  cfg.get("margin", 1.0)).charfun()
    sd = wf.real_roots(cf)
    rep = wf.strip_zero_scan(cf, sd, **flags)
    assert dumps(rep.to_dict()) == dumps(scan_reference(cf, sd, **flags))


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
