import json
import math
import types
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import wavefront as wf
from wavefront import kernels
from wavefront.errors import EmptyStrip, OutOfStrip
from wavefront.kernels import (ConvolvedKernel, KernelComponent, _apply_taps, _lumped_samples,
                               _segments_transform, _snap_steps, _taps,
                               convolve_field, kernel_from_dict, shift_kernel)

from quadrature import laplace_by_quad

INF = math.inf
MODELS_DIR = Path(__file__).resolve().parents[1] / "models"


class StubKernel(KernelComponent):
    """Minimal kernel with a prescribed strip, for defensive-path tests."""

    def __init__(self, strip):
        self._strip = strip

    @property
    def mass(self):
        return 1.0

    def abscissas(self):
        return self._strip

    def laplace(self, z):
        return np.ones_like(np.asarray(z, dtype=complex))

    def support(self):
        return self._strip


# --- closed forms -----------------------------------------------------------

def test_gaussian_laplace_closed_form():
    g = wf.GaussianKernel(1.0)
    assert wf.laplace(g, 1.0) == pytest.approx(math.exp(0.5), abs=1e-12)
    # cross-check against adaptive quadrature of the density
    assert laplace_by_quad(g, [1.0])[0] == pytest.approx(math.exp(0.5), abs=1e-10)


def test_onesided_exponential_mass_and_transform():
    # normalized one-sided exponential, rate (1+beta)/c with c=1, beta=0
    k = wf.OneSidedExponential(rate=1.0)
    assert wf.laplace(k, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert wf.laplace(k, 0.5) == pytest.approx(1.0 / 1.5, abs=1e-12)


def test_onesided_directions_and_strips():
    right = shift_kernel(wf.OneSidedExponential(rate=2.0, direction=1), 0.5)
    left = shift_kernel(wf.OneSidedExponential(rate=2.0, direction=-1), -0.5)
    assert right.abscissas() == (-2.0, INF)
    assert left.abscissas() == (-INF, 2.0)
    # the left-supported flip is the reduction kernel for negative speeds:
    # transform rate/(rate - z) with the shift factor
    z = 0.7
    assert wf.laplace(left, z) == pytest.approx(
        math.exp(-z * -0.5) * 2.0 / (2.0 - z), rel=1e-13)
    # K(s - d) is the unshifted factor's density at s - d
    assert right.b.value(0.4 - 0.5) == 0.0
    assert left.b.value(-0.6 + 0.5) == pytest.approx(2.0 * math.exp(2.0 * -0.1), rel=1e-12)


def test_piecewise_green_roots_and_mass():
    pg = wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)
    s = math.sqrt(2.5 ** 2 + 4.0)
    assert pg.nu == pytest.approx((2.5 - s) / 2, abs=1e-12)
    assert pg.mu == pytest.approx((2.5 + s) / 2, abs=1e-12)
    assert pg.abscissas() == pytest.approx((-0.35078105935821213, 2.850781059358212))
    assert pg.mass == pytest.approx(1.0, rel=1e-12)
    # transform 1/(q + c z - z^2)
    assert wf.laplace(pg, 0.5) == pytest.approx(1.0 / (1.0 + 1.25 - 0.25), rel=1e-12)


def test_green_kernel_dataclass():
    # the Green kernel of z^2 - c z - q is PiecewiseGreen.from_speed_damping
    gk = wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)
    assert gk.mass == pytest.approx(1.0)
    assert gk.mu - gk.nu == pytest.approx(math.sqrt(2.5 ** 2 + 4.0), rel=1e-12)
    assert gk.nu * gk.mu == pytest.approx(-1.0, rel=1e-12)
    assert gk.speed == pytest.approx(2.5, rel=1e-12)
    assert gk.damping == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        wf.PiecewiseGreen.from_speed_damping(2.5, 0.0)


def test_dirac_comb_exact_sum():
    comb = wf.DiracComb((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25))
    assert comb.abscissas() == (-INF, INF)
    z = 0.3 + 0.2j
    expected = 0.25 * np.exp(z) + 0.5 + 0.25 * np.exp(-z)
    assert wf.laplace(comb, z) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("kernel", [
    wf.OneSidedExponential(rate=1.7, direction=1, scale=0.6),
    wf.OneSidedExponential(rate=1.7, direction=-1, scale=0.6),
    wf.PiecewiseGreen.from_speed_damping(2.5, 1.3, scale=0.6),
], ids=["exponential+", "exponential-", "green"])
@pytest.mark.parametrize("z", [
    0.3,
    -0.2,
    np.linspace(-0.3, 1.2, 11),
    np.array([0.4 + 3.0j, -0.2 - 0.7j, 1.1 + 0.0j, 0.5 - 0.0j, 0.9 + 1e-20j]),
], ids=["real-scalar", "negative-scalar", "real-array", "complex-array"])
def test_unshifted_laplace_skips_exp_bit_for_bit(kernel, z):
    # the transforms carry no factor e^{-z 0} = 1 (a shift is a separate
    # point mass); the floats must be the ones that factor would give,
    # signed zeros included, an array in gives an array out and a real
    # scalar in a real scalar out
    zz = np.asarray(z)
    if isinstance(kernel, wf.OneSidedExponential):
        r = kernel.rate
        den = r + zz if kernel.direction == 1 else r - zz
        expect = kernel.scale * np.exp(-zz * 0.0) * r / den
    else:
        den = kernel.damping + kernel.speed * zz - zz * zz
        expect = kernel.scale * np.exp(-zz * 0.0) / den
    got = kernel.laplace(z)
    if zz.ndim:
        assert type(got) is type(expect)
    else:
        assert isinstance(got, float)
    assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()


# --- abscissas --------------------------------------------------------------

def test_abscissas_examples():
    assert wf.DiracComb((-1.0, 0.0, 1.0), (1, 1, 1)).abscissas() == (-INF, INF)
    pg = wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)
    conv = wf.convolve(wf.GaussianKernel(1.0), pg)
    assert conv.abscissas() == pytest.approx((-0.3508, 2.8508), abs=1e-4)


def test_out_of_strip_raises():
    pg = wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)
    with pytest.raises(OutOfStrip):
        wf.laplace(pg, 3.0)
    with pytest.raises(OutOfStrip):
        wf.laplace(pg, pg.mu)  # boundary excluded


def _strip_outcome(strip, z):
    try:
        kernels._check_strip(strip, z)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("strip", [(-1.0, 2.0), (-INF, 2.0), (-1.0, INF), (-INF, INF)],
                         ids=["finite", "lo-inf", "hi-inf", "both-inf"])
def test_scalar_and_array_strip_checks_agree(strip):
    lo, hi = strip
    # inside, at each end, outside on each side, at infinity, and nan
    for x in (0.5, 0.0, -1.0, 2.0, 3.0, -5.0, INF, -INF, math.nan):
        for z in (x, complex(x, 0.25)):
            forms = [z, np.array(z), np.array([z]),
                     np.float64(z) if isinstance(z, float) else np.complex128(z)]
            if isinstance(z, float) and math.isfinite(z) and z == int(z):
                forms.append(int(z))
            outcomes = [_strip_outcome(strip, form) for form in forms]
            # every form of z, scalar or array, fails (or passes) like the 1-d array
            assert outcomes == [outcomes[2]] * len(forms), (strip, z, outcomes)
            if x <= lo or x >= hi:
                assert outcomes[0][0] is OutOfStrip
                assert outcomes[0][1] == (f"Re z in [{x:g}, {x:g}] outside open strip "
                                          f"({lo:g}, {hi:g})")
            else:
                assert outcomes[0] is None, (strip, z)


def test_empty_strip_detected():
    # a lazy product and a characteristic function share one rule and one message
    a, b = StubKernel((2.0, 3.0)), StubKernel((-3.0, -2.0))
    message = r"strips \(2, 3\), \(-3, -2\) have no common part"
    with pytest.raises(EmptyStrip, match=message):
        wf.ConvolvedKernel(a, b)
    with pytest.raises(EmptyStrip, match=message):
        wf.CharacteristicFunction(((a, 1.0), (b, 1.0)))


# --- convolution ------------------------------------------------------------

def test_convolution_identity_with_unit_point_mass():
    pg = wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)
    ident = wf.DiracComb((0.0,), (1.0,))
    conv = wf.convolve(ident, pg)
    assert conv is pg
    ss = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(conv.value(ss), pg.value(ss), rtol=1e-12)
    zz = 0.8
    assert wf.laplace(conv, zz) == pytest.approx(wf.laplace(pg, zz), rel=1e-13)


def test_convolve_green_gaussian_example():
    conv = wf.convolve(wf.GaussianKernel(1.0), wf.PiecewiseGreen.from_speed_damping(2.5, 1.0))
    assert wf.laplace(conv, 0.5) == pytest.approx(math.exp(0.125) / 2.0, rel=1e-12)
    assert conv.mass == pytest.approx(1.0, rel=1e-12)


def test_comb_comb_convolution_is_exact_comb():
    a = wf.DiracComb((0.0, 1.0), (1.0, 2.0))
    b = wf.DiracComb((-1.0,), (3.0,))
    c = wf.convolve(a, b)
    assert isinstance(c, wf.DiracComb)
    assert c.mass == pytest.approx(9.0)
    z = 0.4
    assert c.laplace(z) == pytest.approx(a.laplace(z) * b.laplace(z), rel=1e-14)


def test_convolved_transform_multiplicativity(rng):
    conv = wf.convolve(wf.GaussianKernel(0.7), wf.PiecewiseGreen.from_speed_damping(2.0, 1.5))
    lo, hi = conv.abscissas()
    xs = rng.uniform(lo + 0.05, hi - 0.05, size=100)
    ys = rng.uniform(-3.0, 3.0, size=100)
    for x, y in zip(xs, ys):
        z = complex(x, y)
        prod = conv.a.laplace(z) * conv.b.laplace(z)
        assert abs(conv.laplace(z) - prod) <= 1e-8 * (1 + abs(prod))


# --- dual-route closed form vs quadrature (the 1e-8 contract) ---------------

def skewed_nonuniform():
    """A skewed bump on 161 nodes of [-6, 6] with steps h from 0.05 to 0.1.

    One z can put segments on both sides of the series switch at |z h| = 0.2.
    """
    u = np.linspace(0.0, 1.0, 161)
    t = -6.0 + 8.0 * (u + 0.5 * u * u)
    return wf.TabulatedKernel(tuple(t), tuple(np.exp(-t * t / 2.0) * (1.0 + 0.3 * np.tanh(t))))


@pytest.mark.parametrize("kernel", [
    wf.GaussianKernel(1.0),
    wf.GaussianKernel(0.3, scale=2.0),
    shift_kernel(wf.OneSidedExponential(rate=1.5, scale=0.5), 0.25),
    shift_kernel(wf.OneSidedExponential(rate=0.8, direction=-1), -0.5),
    wf.PiecewiseGreen.from_speed_damping(2.5, 1.0),
    shift_kernel(wf.PiecewiseGreen.from_speed_damping(-1.5, 2.0), 0.75),
    wf.convolve(wf.GaussianKernel(0.5), wf.PiecewiseGreen.from_speed_damping(1.5, 1.0)),
    skewed_nonuniform(),
])
def test_laplace_closed_form_vs_quadrature(kernel, rng):
    lo, hi = kernel.abscissas()
    lo = max(lo, -8.0)
    hi = min(hi, 8.0)
    zs = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), size=200).astype(complex)
    zs[100:] += 1j * rng.uniform(-2.0, 2.0, 100)
    closed = kernel.laplace(zs)
    quad = laplace_by_quad(kernel, zs)
    assert np.all(np.abs(closed - quad) <= 1e-8 * (1.0 + np.abs(closed)))


@pytest.mark.parametrize("kernel", [
    wf.GaussianKernel(1.0),
    wf.OneSidedExponential(rate=1.5),
    wf.PiecewiseGreen.from_speed_damping(2.5, 1.0),
    wf.DiracComb((-1.0, 0.5), (1.0, 2.0)),
])
def test_laplace_real_positive_log_convex(kernel, rng):
    lo, hi = kernel.abscissas()
    lo = max(lo, -4.0)
    hi = min(hi, 4.0)
    h = (hi - lo) / 500
    xs = rng.uniform(lo + 3 * h, hi - 3 * h, size=50)
    for x in xs:
        vals = np.array([kernel.laplace(x - h), kernel.laplace(x), kernel.laplace(x + h)],
                        dtype=float)
        assert np.all(vals > 0)
        second = math.log(vals[0]) - 2 * math.log(vals[1]) + math.log(vals[2])
        assert second >= -1e-9


# --- tabulated kernels ------------------------------------------------------

@pytest.fixture(scope="module")
def tabulated_gaussian():
    ts = np.linspace(-8.0, 8.0, 1601)
    vals = np.exp(-ts * ts / 2.0) / math.sqrt(2 * math.pi)
    return wf.TabulatedKernel(tuple(ts), tuple(vals))


def test_tabulated_transform_matches_analytic(tabulated_gaussian):
    for z in (0.0, 0.5, -0.7, 0.3 + 1.0j):
        approx = tabulated_gaussian.laplace(z)
        exact = np.exp(np.asarray(z) ** 2 / 2.0)
        assert abs(complex(approx) - complex(exact)) <= 2e-5 * (1 + abs(complex(exact)))


def test_tabulated_is_compact_support_surrogate(tabulated_gaussian):
    assert tabulated_gaussian.abscissas() == (-INF, INF)
    assert tabulated_gaussian.value(9.0) == 0.0
    assert tabulated_gaussian.mass == pytest.approx(1.0, abs=1e-6)


def _segment_transform(z, t0, t1, v0, v1):
    """Exact transform of the linear segment through (t0,v0),(t1,v1).

    integral_{t0}^{t1} (v0 + m (s-t0)) e^{-z s} ds
      = e^{-z t0} h [v0 c0(q) + (v1-v0) c1(q)],   q = z h,
    with c0 = int_0^1 e^{-q u} du and c1 = int_0^1 u e^{-q u} du.  Both are
    summed by series below |q| = 0.2, where the closed forms cancel.  This
    scalar form is the reference the vectorized transforms are held to.
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


def test_segment_transform_small_z_series():
    # series branch must agree with a high-precision reference across the switch
    import mpmath
    for z in (1e-5, 9e-5, 2e-4, 1e-3, 5e-3):
        a = _segment_transform(complex(z), 1.0, 1.5, 2.0, 3.0)
        with mpmath.workdps(40):
            brute = mpmath.quad(
                lambda s: (2 + 2 * (s - 1)) * mpmath.exp(-mpmath.mpf(z) * s),
                [1.0, 1.5])
        assert complex(a).real == pytest.approx(float(brute), rel=1e-12)


@pytest.mark.parametrize("z", [
    3.0,                                   # scalar real; |z h| straddles 0.2
    np.linspace(-3.0, 4.0, 9),             # real array
    np.array([0.5 + 2.0j, -1.0 - 0.3j, 3.0 + 0.0j]),  # complex array
    np.array([1e-4, 0.5, 1.9]),            # every |z h| < 0.2: series only
], ids=["scalar-real", "real-array", "complex-array", "series-only"])
def test_tabulated_laplace_matches_segment_sum(z):
    k = skewed_nonuniform()
    t, v = k.grid, k.values

    def reference(zz):
        return sum(_segment_transform(complex(zz), t[i], t[i + 1], v[i], v[i + 1])
                   for i in range(len(t) - 1))

    got = k.laplace(z)
    if np.ndim(z) == 0:
        expect = reference(z)
        assert type(got) is float
        assert abs(got - expect) <= 1e-13 * abs(expect)
        return
    assert isinstance(got, np.ndarray) and got.shape == z.shape
    assert got.dtype == (np.complex128 if np.iscomplexobj(z) else np.float64)
    for zz, g in zip(z, got):
        expect = reference(zz)
        assert abs(g - expect) <= 1e-13 * abs(expect)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 1999), span=st.floats(0.1, 20.0), frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["wide", "unit", "series"]),
       r=st.floats(-1.0, 1.0), y=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)))
@example(n=160, span=16.0, frac=0.5, seed=0, kind="wide", r=-0.8, y=0.0)   # z = -30 on [-8, 8]
@example(n=1, span=1.0, frac=0.0, seed=0, kind="series", r=0.5, y=0.0)
def test_uniform_laplace_matches_segment_sum(n, span, frac, seed, kind, r, y):
    # nodes lo + span j / n as a generator writes them to JSON, each then
    # moved by up to two ulps; grids reach 0, so max|t| <= span
    rng = np.random.default_rng(seed)
    lo = -frac * span
    t = np.array([lo + span * j / n for j in range(n + 1)])
    for step in (rng.integers(-1, 2, n + 1), rng.integers(-1, 2, n + 1)):
        t = np.nextafter(t, t + step)
    v = rng.uniform(0.0, 1.0, n + 1)
    k = wf.TabulatedKernel(tuple(t), tuple(v))
    h = (t[-1] - t[0]) / n
    tmax = max(abs(t[0]), abs(t[-1]))
    # |Re z| span up to 600 (no term or Filon weight beyond e^600), Re z in
    # [-2, 4], or |z h| < 0.2
    x = {"wide": 600.0 * r / span, "unit": 1.0 + 3.0 * r,
         "series": max(-600.0, min(600.0, 0.199 * r / h * span)) / span}[kind]
    z = complex(x, y) if y else x
    got = k.laplace(z)
    expect = _segments_transform(z, t, v)
    assert type(got) is (complex if y else float)
    assert np.isfinite(expect) and np.isfinite(got)
    # the closed form puts each node k h from a node of its block, up to
    # ~2 moved off where it is, which moves e^{-z t_j} by |z| times that;
    # one rounding of z t_j adds |z| eps max|t|
    moved = np.max(np.abs(t - (t[0] + np.arange(n + 1) * h)))
    tol = 1e-13 + 4.0 * abs(z) * (moved + np.finfo(float).eps * tmax)
    assert abs(got - expect) <= tol * _segments_transform(x, t, v)


def test_uniform_laplace_far_left_is_finite():
    # at z = -60 on [-8, 8] the direct sum is 2.93e192; powers of e^{-z h}
    # counted from t_0 would reach e^{60 * 16} and overflow
    t = np.linspace(-8.0, 8.0, 161)
    v = np.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    expect = _segments_transform(-60.0, t, v)
    got = wf.TabulatedKernel(tuple(t), tuple(v)).laplace(-60.0)
    assert expect == pytest.approx(2.93e192, rel=1e-3)
    assert abs(got - expect) <= 1e-13 * expect


@pytest.mark.parametrize("grid, values", [
    ((-0.5, 0.5), (1.0, 1.0)),            # one segment: uniform nodes
    ((-0.5, 0.1, 0.5), (2.0, 0.8, 1.4)),  # two steps: the segment sum
], ids=["one-segment", "nonuniform"])
def test_tabulated_laplace_far_left_does_not_overflow(grid, values):
    # at z = -1200 the Filon weights at q = z h reach e^{1200} and overflow;
    # the integral itself is finite, 3.1e257 on the one segment
    z = mpmath.mpf(-1200)
    exact = 0
    for (t0, v0), (t1, v1) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        m = mpmath.mpf(v1 - v0) / (t1 - t0)
        # an antiderivative of (v0 + m (s - t0)) e^{-z s}
        F = lambda s: -mpmath.exp(-z * s) * ((v0 + m * (s - t0)) / z + m / (z * z))
        exact += F(mpmath.mpf(t1)) - F(mpmath.mpf(t0))
    got = wf.TabulatedKernel(grid, values).laplace(-1200.0)
    assert abs(got - float(exact)) <= 1e-13 * float(exact)


def test_tabulated_laplace_segment_sum_only_off_uniform_nodes(monkeypatch):
    # JSON-style nodes -8 + 16 j / 160 are a few ulps off any t_0 + j h and
    # take the closed form; moving one node by a thousandth of a step does not
    calls = []
    segments = kernels._segments_transform
    monkeypatch.setattr(kernels, "_segments_transform",
                        lambda *args: calls.append(args[0]) or segments(*args))
    t = [-8.0 + 16.0 * j / 160 for j in range(161)]
    v = [math.exp(-s * s / 2.0) for s in t]
    z = np.array([0.5, 1.0 + 2.0j, -3.0])
    uniform = wf.TabulatedKernel(tuple(t), tuple(v))
    got = uniform.laplace(z)
    assert calls == []
    t[80] += 1e-4
    moved = wf.TabulatedKernel(tuple(t), tuple(v))
    near = moved.laplace(z)
    assert len(calls) == z.size
    assert np.all(np.abs(near - got) <= 1e-4 * np.abs(got))


def test_csv_loading(tmp_path):
    p = tmp_path / "kern.csv"
    # blank and '#' lines are skipped wherever they stand
    p.write_text("# t,value\n-1.0,0.0\n\n# mid\n0.0,1.0\n1.0,0.0\n")
    k = wf.load_tabulated(p)
    assert k.mass == pytest.approx(1.0)
    assert k.support() == (-1.0, 1.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0\n0.0,2.0\n")
    with pytest.raises(ValueError):
        wf.load_tabulated(bad)


@pytest.mark.parametrize("row", ["0.0", "0.0,1.0,5", "0.0,1.0,"])
def test_csv_row_without_exactly_two_fields_is_refused(tmp_path, row):
    # a third column was once dropped without a word
    p = tmp_path / "kern.csv"
    p.write_text(f"# t,value\n-1.0,0.0\n{row}\n1.0,0.0\n")
    with pytest.raises(ValueError, match="expected two columns"):
        wf.load_tabulated(p)


# each shape's JSON form, with every field written out, and the kernel it names
_KERNEL_JSON = [
    ({"shape": "gaussian", "variance": 0.3, "scale": 2.0},
     wf.GaussianKernel(0.3, scale=2.0)),
    ({"shape": "exponential_onesided", "rate": 0.8, "direction": -1, "shift": -0.5,
      "scale": 0.5},
     shift_kernel(wf.OneSidedExponential(rate=0.8, direction=-1, scale=0.5), -0.5)),
    ({"shape": "piecewise_green", "nu": -2.0, "mu": 0.5, "shift": 0.75, "scale": 3.0},
     shift_kernel(wf.PiecewiseGreen.from_speed_damping(-1.5, 1.0, scale=3.0), 0.75)),
    ({"shape": "dirac_comb", "offsets": [-1.0, 0.5], "weights": [1.0, 2.0]},
     wf.DiracComb((-1.0, 0.5), (1.0, 2.0))),
    ({"shape": "tabulated", "grid": [-1.0, 0.0, 1.5], "values": [0.0, 1.0, 0.0]},
     wf.TabulatedKernel((-1.0, 0.0, 1.5), (0.0, 1.0, 0.0))),
    ({"shape": "convolved", "a": {"shape": "gaussian", "variance": 1.0},
      "b": {"shape": "piecewise_green", "c": 2.5, "q": 1.0}},
     wf.convolve(wf.GaussianKernel(1.0), wf.PiecewiseGreen.from_speed_damping(2.5, 1.0))),
]
# "shift" is read once for every shape: K(s - d) is K convolved with a unit
# point mass at d, which a comb absorbs into its offsets
_SHIFTED_KERNEL_JSON = [
    ({"shape": "gaussian", "variance": 1.0, "shift": 0.5},
     shift_kernel(wf.GaussianKernel(1.0), 0.5)),
    ({"shape": "tabulated", "grid": [-1.0, 0.0, 1.5], "values": [0.0, 1.0, 0.0], "shift": -2},
     shift_kernel(wf.TabulatedKernel((-1.0, 0.0, 1.5), (0.0, 1.0, 0.0)), -2.0)),
    ({"shape": "dirac_comb", "offsets": [-1.0, 0.5], "weights": [1.0, 2.0], "shift": 0.25},
     wf.DiracComb((-0.75, 0.75), (1.0, 2.0))),
]


@pytest.mark.parametrize("spec, kernel", _KERNEL_JSON + _SHIFTED_KERNEL_JSON,
                         ids=[spec["shape"] for spec, _ in _KERNEL_JSON]
                         + ["shifted_" + spec["shape"] for spec, _ in _SHIFTED_KERNEL_JSON])
def test_kernel_json_round_trip(spec, kernel):
    again = kernel_from_dict(json.loads(json.dumps(spec)))
    assert type(again) is type(kernel)
    if isinstance(kernel, ConvolvedKernel):
        assert (again.a, again.b) == (kernel.a, kernel.b)
    else:
        assert again == kernel
    for z in (-0.2, 0.4):
        assert again.laplace(z) == kernel.laplace(z)


def test_kernel_from_dict_rejects_unknown_shape():
    for shape in ("laplace_two_sided", ["gaussian"], None):
        with pytest.raises(ValueError, match="unknown kernel shape"):
            kernel_from_dict({"shape": shape, "variance": 1.0})


@pytest.mark.parametrize("shift", ["0.5", True, None, [0.5], {"d": 0.5}])
def test_kernel_from_dict_rejects_non_number_shift(shift):
    with pytest.raises(ValueError, match="kernel shift must be a number"):
        kernel_from_dict({"shape": "gaussian", "variance": 1.0, "shift": shift})


# one misspelled or foreign key per JSON form: the fields (plus shape and
# shift), Green's c/q form, a tabulated path and a convolution's a/b
@pytest.mark.parametrize("spec, key", [
    ({"shape": "gaussian", "variance": 1.0, "scael": 2.0}, "scael"),
    ({"shape": "piecewise_green", "c": 2.5, "q": 1.0, "nu": -0.35}, "nu"),
    ({"shape": "tabulated", "path": "missing.csv", "values": [0.0, 1.0]}, "values"),
    ({"shape": "convolved", "a": {"shape": "gaussian", "variance": 1.0},
      "b": {"shape": "gaussian", "variance": 2.0}, "c": 1.0}, "c"),
], ids=["fields", "green-c-q", "tabulated-path", "convolved"])
def test_kernel_from_dict_rejects_unknown_key(spec, key):
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        kernel_from_dict(spec)


# --- grid recurrence -----------------------------------------------------------

def first_order_loop(E, src):
    """y_i = src_i + E y_{i-1}, y_{-1} = 0, one step at a time."""
    out, y = [], 0.0
    for s in src:
        y = s + E * y
        out.append(y)
    return np.array(out)


def first_order_exact(E, src):
    """The same recurrence in 113-bit arithmetic, rounded once to float64."""
    out, y = [], mpmath.mpf(0)
    with mpmath.workprec(113):
        E = mpmath.mpf(E)
        for s in src.tolist():
            y = s + E * y
            out.append(float(y))
    return np.array(out)


def exact_step_weights(q):
    """(E, far, near) of one step at q = rate dt, in 256-bit arithmetic.

    far = q int_0^1 s e^{-q s} ds = (1 - E (1 + q)) / q weighs the point one
    step back and near = (1 - E) - far the point itself; at 256 bits
    neither 1 - E nor 1 - E (1 + q) cancels to below float64 rounding.
    """
    with mpmath.workprec(256):
        q = mpmath.mpf(q)
        E = mpmath.exp(-q)
        far = (1 - E * (1 + q)) / q
        return E, far, (1 - E) - far


def step_weights(q):
    """(E, far, near) of one step at q = rate dt, each the float64 nearest its exact value."""
    return tuple(float(w) for w in exact_step_weights(q))


def test_step_weights_match_256_bit_values():
    # every exponential piece takes its (E, far, near) from Filon's weights:
    # to 4e-16 relative below q = 0.2, where they are series, and to 1e-14
    # above, where 1 - E (1 + q) cancels by up to ~60x at q = 0.2
    qs = np.geomspace(1e-12, 700.0, 1500).tolist() + [0.2]
    # _exponential_plan's step weights, one piece per q, uncached: its W holds c^2 values
    got = kernels._exponential_plan.__wrapped__(tuple((q, 1, 1.0) for q in qs), 1.0, 1)[2]
    for q, weights in zip(qs, got):
        for w, exact in zip(weights, exact_step_weights(q)):
            assert abs(w - exact) <= (4e-16 if q < 0.2 else 1e-14) * exact, (q, w)


def piece_source(rate, direction, scale, step, G, lam_left):
    """(E, src): one exponential piece as y_i = src_i + E y_{i-1}, in the piece's direction.

    src_0 is the closure's seed, G[0] rate / (rate + lam_left) scale (0
    when lam_left is None) forward and the plateau G[-1] scale backward;
    then src_i = far G_{i-1} + near G_i, scaled, on the field read in the
    piece's direction.  Solve it and read it back with ``[::direction]``.
    """
    E, far, near = step_weights(rate * step)
    if direction == 1:
        seed = 0.0 if lam_left is None else G[0] * rate / (rate + lam_left) * scale
    else:
        G, seed = G[::-1], G[-1] * scale
    return E, np.concatenate([[seed], (far * scale) * G[:-1] + (near * scale) * G[1:]])


def piece_terms(rate, direction, scale, step, G, lam_left):
    """The sum over |terms| of each value of the piece: its recurrence on |G|, summed in float64."""
    E, src = piece_source(rate, direction, scale, step, np.abs(G), lam_left)
    return first_order_loop(E, src)[::direction]


def any_grid(step, n):
    """A stand-in for a Grid of any size: an exponential action reads the step and n only."""
    return types.SimpleNamespace(step=step, n=n)


@settings(max_examples=150, deadline=None)
@given(q=st.one_of(st.floats(1e-3, 40.0), st.floats(1e-9, 1e-5), st.floats(745.0, 1000.0)),
       n=st.sampled_from([1, 63, 64, 65, 4001, 4096, 8193]),
       direction=st.sampled_from([1, -1]), lam_left=st.none() | st.floats(0.01, 5.0),
       scale=st.floats(0.1, 3.0), seed=st.integers(0, 2 ** 32 - 1), signed=st.booleans())
# E = 1 - eps: the float64 loop is 1.7e-13 of the scale off here, past the 1e-13 bound
@example(q=1e-16, n=8193, direction=1, lam_left=None, scale=1.0, seed=0, signed=False)
def test_first_order_matches_loop_and_lfilter(q, n, direction, lam_left, scale, seed, signed):
    # an exponential's grid action solves the first-order recurrence of its
    # step weights, seeded by the closure, to rounding: E near 1, E that
    # underflows (q >= 745), fields of one point, of a part of a block and
    # of whole and padded 64-point blocks, in both directions
    rng = np.random.default_rng(seed)
    G = rng.standard_normal(n) if signed else rng.random(n)
    step = 0.1
    rate = q / step
    k = wf.OneSidedExponential(rate, direction, scale)
    E, src = piece_source(rate, direction, scale, step, G, lam_left)
    exact = first_order_exact(E, src)
    # each y_i sums E^(i-j) src_j; rounding is relative to the sum over |terms|
    terms = piece_terms(rate, direction, scale, step, G, lam_left)[::direction]
    got = k.grid_convolve(any_grid(step, n), G, lam_left)[::direction]
    assert np.all(np.abs(got - exact) <= 1e-13 * terms)
    # a step-by-step loop rounds twice per step, so y_i may be (i + 1) eps
    # of the scale off (E^(i-j) terms_j <= terms_i)
    bound = (np.arange(n) + 2) * np.finfo(float).eps * terms
    for ref in (first_order_loop(E, src), lfilter([1.0], [1.0, -E], src)):
        assert np.all(np.abs(ref - exact) <= bound)


@pytest.mark.parametrize("n", [4096, 4001], ids=["whole_blocks", "padded_last_block"])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("lam_left", [None, 0.7])
@pytest.mark.parametrize("rate", [1.3, 0.003])
def test_recurse_builds_its_source_in_the_blocks(n, direction, lam_left, rate):
    # the field fills 64-point blocks, the last one padded with the plateau
    # G[-1]: the action is the exact recurrence, with the kernel's scale in
    # its step weights and seed (both rates take the series form of Filon's
    # weights, q < 0.2), and on a padded last block it is, byte for byte, the
    # action on the field extended by its plateau to whole blocks
    grid = wf.Grid(-60.0, 40.0, n)
    G = np.random.default_rng(n).random(n)
    extended = np.concatenate([G, np.full(-n % 64, G[-1])])
    for scale in (1.0, 0.37):
        k = wf.OneSidedExponential(rate, direction, scale)
        got = convolve_field(k, grid, G, lam_left)
        E, src = piece_source(rate, direction, scale, grid.step, G, lam_left)
        exact = first_order_exact(E, src)[::direction]
        assert np.all(np.abs(got - exact) <= 1e-13 * exact)
        whole = k.grid_convolve(any_grid(grid.step, len(extended)), extended, lam_left)
        assert got.tobytes() == whole[:n].tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([64, 65, 127, 4001, 4096, 8193]), rate=st.floats(0.003, 50.0),
       mu=st.floats(0.003, 50.0), scale=st.floats(0.1, 3.0),
       lam_left=st.none() | st.floats(0.01, 5.0), seed=st.integers(0, 2 ** 32 - 1))
def test_exponential_pieces_start_from_their_closures(n, rate, mu, scale, lam_left, seed):
    # the forward piece at t_min is its left closure's seed alone, which
    # near G[0] does not enter, and the backward piece at t_max the plateau
    # G[-1] scale: on whole blocks each is its block's carry, exactly; on a
    # padded last block t_max sums the plateau's padded terms, so it is
    # within the rounding of a sum of that many terms.  On a nonnegative
    # field with zero stretches no value falls below -4 eps sum|terms|,
    # which the solver's NegativeValues gate relies on
    eps = np.finfo(float).eps
    grid = wf.Grid(-60.0, 40.0, n)
    rng = np.random.default_rng(seed)
    G = rng.random(n) * (rng.random(n) < 0.8)
    forward = convolve_field(wf.OneSidedExponential(rate, 1, scale), grid, G, lam_left)
    backward = convolve_field(wf.OneSidedExponential(rate, -1, scale), grid, G, lam_left)
    seed_value = 0.0 if lam_left is None else G[0] * rate / (rate + lam_left) * scale
    assert abs(forward[0] - seed_value) <= 4 * eps * seed_value
    # the padded points, t_max itself and the carry
    summed = 64 - n % 64 + 2 if n % 64 else 1
    assert abs(backward[-1] - G[-1] * scale) <= max(4, summed / 2) * eps * G[-1] * scale
    green = wf.PiecewiseGreen(-rate, mu, scale)
    amp = scale / (mu + rate)
    green_terms = (piece_terms(rate, 1, amp / rate, grid.step, G, lam_left)
                   + piece_terms(mu, -1, amp / mu, grid.step, G, lam_left))
    for H, terms in ((forward, piece_terms(rate, 1, scale, grid.step, G, lam_left)),
                     (backward, piece_terms(rate, -1, scale, grid.step, G, lam_left)),
                     (convolve_field(green, grid, G, lam_left), green_terms)):
        assert np.all(H >= -4 * eps * terms)


@pytest.mark.parametrize("base", [1.0 - 1e-6, 0.5, 1e-200, 0.0])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("blocks", [1, 63, 64, 65, 1000, 4097])
def test_carry_solve_is_the_block_recurrence(blocks, direction, base):
    # an exponential piece's block carries solve x_0 = seed, x_b = base
    # x_{b-1} + d_{b-1} (mirrored backward), the seed in the slot no block
    # follows: one matrix up to 64 blocks, groups of 64 beyond it, two
    # levels at 1,000 blocks and three at 4,097
    d = np.random.default_rng(blocks).random(blocks)
    got = kernels._carries(kernels._carry_plan(base, blocks, direction), d)
    forward = d[::direction]
    exact = first_order_exact(base, np.concatenate([forward[-1:], forward[:-1]]))[::direction]
    assert np.all(np.abs(got - exact) <= 1e-13 * exact)


def dense_carry_action(k, grid, G, lam_left):
    """k's exponential action with each piece's carries from one blocks x blocks matrix of powers of E^64."""
    pieces, n = k.pieces, len(G)
    blocks = -(-n // 64)
    M, W, weights, _ = kernels._exponential_plan(pieces, grid.step, blocks)
    rows = np.empty((blocks, 64 + len(pieces)))
    body, carries = rows[:, :64], rows[:, 64:]
    last = n - 64 * (blocks - 1)
    body[:-1] = G[:n - last].reshape(blocks - 1, 64)
    body[-1, :last] = G[n - last:]
    body[-1, last:] = G[-1]
    for i, (_, direction, _) in enumerate(pieces):
        if direction == 1:
            carries[:-1, i], carries[-1, i] = body[1:, 0], 0.0
        else:
            carries[1:, i], carries[0, i] = body[:-1, -1], 0.0
    ends = rows @ W
    b = np.arange(blocks)
    steps = b[:, None] - b
    for i, ((rate, direction, scale), (E, _, _)) in enumerate(zip(pieces, weights)):
        base = E ** 64
        q = np.where(steps > 0, base ** np.maximum(steps - 1, 0), 0.0)
        q[:, -1] = base ** b
        if direction == 1:
            ends[-1, i] = 0.0 if lam_left is None else G[0] * rate / (rate + lam_left) * scale
        else:
            ends[0, i] = G[-1] * scale
            q = np.ascontiguousarray(q[::-1, ::-1])
        carries[:, i] = q @ ends[:, i]
    return (rows @ M).ravel()[:n]


@pytest.mark.parametrize("lam_left", [None, 0.7])
def test_exponential_carries_agree_with_the_dense_product(lam_left):
    # the block carries come from one blocks x blocks matrix per piece up
    # to 64 blocks, byte for byte, and 64 blocks at a time beyond: at
    # 65,536 points (1,024 blocks) they agree with the dense product to
    # 1e-13 relative
    kinds = (wf.PiecewiseGreen.from_speed_damping(2.5, 1.0), wf.OneSidedExponential(0.003, 1, 0.4),
             wf.OneSidedExponential(1.3, -1, 1.0))
    for n in (4001, 4096, 65536):
        grid = wf.Grid(-60.0, 40.0, n)
        G = np.random.default_rng(n).random(n)
        for k in kinds:
            got = convolve_field(k, grid, G, lam_left)
            ref = dense_carry_action(k, grid, G, lam_left)
            if n <= 4096:
                assert got.tobytes() == ref.tobytes()
            else:
                assert np.all(np.abs(got - ref) <= 1e-13 * ref)


def plan_bytes(plan):
    """The bytes of the arrays a plan owns; a view owns none of its base's."""
    if isinstance(plan, np.ndarray):
        return plan.nbytes if plan.base is None else 0
    return sum(map(plan_bytes, plan)) if isinstance(plan, tuple) else 0


def test_exponential_plan_grows_linearly():
    # the carries' matrices are 64-block ones at every level, so the plan
    # (the matrices and the block rows) grows no faster than the grid; one
    # blocks x blocks matrix per piece would take 268 MB at 262,144 points
    k = wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)
    sizes = []
    for n in (4096, 16384, 65536, 262144):
        grid = wf.Grid(-60.0, 40.0, n)
        convolve_field(k, grid, np.ones(n), None)
        sizes.append(plan_bytes(k._plan(grid, None)))
    assert all(b <= 4 * a for a, b in zip(sizes, sizes[1:])), sizes


def unweighted_stencil(G, grid, shift, lam_left, combine):
    """The shift's two taps g0 = G[i-m], g1 = G[i-m+1] put together by ``combine(g0, g1, f)``, f = m - s.

    Whole steps take g0; points from left of t_min take the closure
    G[0] e^{lam_left (x - t_min)} (0 when lam_left is None), and points from
    t_max or right of it G[-1].
    """
    s, m = _snap_steps(shift, grid.step)
    n, ts = grid.n, grid.ts
    lo, hi = min(max(m, 0), n), min(max(n - 1 + m, 0), n)
    out = np.empty_like(G)
    out[:lo] = 0.0 if lam_left is None else G[0] * np.exp(lam_left * (ts[:lo] - shift - ts[0]))
    g0 = G[lo - m:hi - m]
    out[lo:hi] = g0 if m == s else combine(g0, G[lo - m + 1:hi - m + 1], m - s)
    out[hi:] = G[-1]
    return out


def scale_after_actions(k, grid, G, lam_left):
    """(H, bound): the grid action with each weight and scale applied after it, and its rounding scale.

    A comb sums w_j times its stencils G[i-m] + (m - s)(G[i-m+1] - G[i-m]),
    an exponential multiplies its unscaled recurrence, solved exactly, by
    its scale, and a Green kernel is amp (forward / rho1 + backward / rho2)
    of its unscaled recurrences.  The recurrences sum positive terms, so
    ``bound`` is |H|; the comb's stencil cancels where m - s is near 1 and
    G[i-m] is the larger tap, so its ``bound`` is sum_j w_j times the larger
    tap.
    """
    if isinstance(k, wf.DiracComb):
        H = sum(w * unweighted_stencil(G, grid, a, lam_left, lambda g0, g1, f: g0 + f * (g1 - g0))
                for a, w in zip(k.offsets, k.weights))
        taps = sum(w * unweighted_stencil(G, grid, a, lam_left, lambda g0, g1, f: np.maximum(g0, g1))
                   for a, w in zip(k.offsets, k.weights))
        return H, taps
    if isinstance(k, wf.OneSidedExponential):
        H = k.scale * unit_recurrence(grid, G, k.rate, k.direction, lam_left)
    else:
        amp, rho1, rho2 = k.scale / (k.mu - k.nu), -k.nu, k.mu
        H = amp * (unit_recurrence(grid, G, rho1, 1, lam_left) / rho1
                   + unit_recurrence(grid, G, rho2, -1, lam_left) / rho2)
    return H, np.abs(H)


def unit_recurrence(grid, G, rate, direction, lam_left):
    """One exponential piece of unit scale on ``grid``, solved in 113-bit arithmetic."""
    E, src = piece_source(rate, direction, 1.0, grid.step, G, lam_left)
    return first_order_exact(E, src)[::direction]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(64, 5000), seed=st.integers(0, 2 ** 32 - 1),
       lam_left=st.none() | st.floats(0.01, 5.0), data=st.data())
def test_folded_weights_agree_with_weights_applied_after(n, seed, lam_left, data):
    # the comb folds its weights into the stencil taps and the exponential
    # pieces fold their scales into the recurrence: on a positive field this
    # moves every value by a few roundings of what it sums at most
    grid = wf.Grid(-60.0, 40.0, n)
    dt = grid.step
    positive = st.floats(0.1, 3.0)
    atoms = st.lists(st.tuples(grid_shifts(dt), positive), min_size=1, max_size=4)
    k = data.draw(st.one_of(
        atoms.map(lambda aw: wf.DiracComb(*zip(*aw))),
        st.builds(wf.OneSidedExponential, rate=st.floats(0.003, 4.0),
                  direction=st.sampled_from([1, -1]), scale=positive),
        st.builds(wf.PiecewiseGreen, nu=st.floats(-4.0, -0.1), mu=st.floats(0.1, 4.0),
                  scale=positive)))
    G = np.exp(np.random.default_rng(seed).uniform(math.log(1e-30), math.log(1e3), n))
    got = convolve_field(k, grid, G, lam_left)
    ref, bound = scale_after_actions(k, grid, G, lam_left)
    assert np.all(np.abs(got - ref) <= 1e-14 * bound)


# --- grid transform -----------------------------------------------------------

def grid_shifts(dt):
    """No shift, a whole number of grid steps, or a shift off the grid."""
    return st.one_of(st.just(0.0),
                     st.integers(-60, 60).map(lambda j: j * dt),
                     st.floats(-3.0, 3.0))


def leaf_kernels(dt):
    positive = st.floats(0.5, 2.0)
    rates = st.floats(1.0, 4.0)
    tabulated = st.tuples(st.floats(-3.0, 2.0), st.floats(1.0, 4.0),
                          st.lists(st.floats(0.1, 1.0), min_size=2, max_size=40))
    atoms = st.lists(st.tuples(grid_shifts(dt), positive), min_size=1, max_size=4)
    return st.one_of(
        st.builds(wf.GaussianKernel, variance=st.floats(0.1, 4.0), scale=positive),
        tabulated.map(lambda a: wf.TabulatedKernel(
            tuple(np.linspace(a[0], a[0] + a[1], len(a[2]))), tuple(a[2]))),
        st.builds(shift_kernel, st.builds(wf.OneSidedExponential, rate=rates, scale=positive,
                                          direction=st.sampled_from([1, -1])),
                  grid_shifts(dt)),
        st.builds(shift_kernel, st.builds(wf.PiecewiseGreen, nu=rates.map(lambda r: -r), mu=rates,
                                          scale=positive),
                  grid_shifts(dt)),
        atoms.map(lambda aw: wf.DiracComb(*zip(*aw))),
    )


@st.composite
def grid_kernels(draw):
    """(kernel, dt): one shape, a convolution of two, or a convolution nested in another."""
    dt = draw(st.sampled_from([0.02, 0.05, 0.1]))
    leaves = leaf_kernels(dt)
    depth = draw(st.integers(0, 2))
    k = draw(leaves)
    for _ in range(depth):
        k = ConvolvedKernel(k, draw(leaves))
    return k, dt


@settings(max_examples=200, deadline=None)
@given(kd=grid_kernels(), u=st.floats(0.2, 0.8))
def test_grid_laplace_matches_convolve_field(kd, u):
    # grid_laplace is the factor the grid action multiplies e^{lam t} by; on a
    # grid wide enough that the end closures decay away before its midpoint,
    # convolve_field on the exponential field must return it there
    k, dt = kd
    lo, hi = k.abscissas()
    lam = max(lo, -3.0) + u * (min(hi, 3.0) - max(lo, -3.0))
    # a recurrence forgets its seed at an end like e^{-dist t}
    dist = min(lam - lo, hi - lam)
    half = 60.0 + 36.0 / dist
    n = 2 * math.ceil(half / dt) + 1
    grid = wf.Grid(-half, half, n)
    ts = grid.ts
    mid = n // 2
    ref = convolve_field(k, grid, np.exp(lam * (ts - ts[mid])), lam)[mid]
    assert abs(k.grid_laplace(lam, grid) - ref) <= 1e-13 * abs(ref)


@settings(max_examples=150, deadline=None)
@given(kd=grid_kernels(), u=st.floats(0.2, 0.8), y=st.floats(-3.0, 3.0),
       data=st.data(), seed=st.integers(0, 2 ** 32 - 1), closed=st.booleans())
def test_shift_kernel_is_a_unit_point_mass(kd, u, y, data, seed, closed):
    # K(. - d) multiplies the transform by e^{-z d}, the grid transform by
    # the unit comb's, and the grid action is that two-tap stencil
    # applied to the unshifted action, byte for byte; a comb takes the shift
    # into its offsets instead (one stencil per atom, not two), and its
    # transform agrees to rounding
    k, dt = kd
    d = data.draw(grid_shifts(dt))
    shifted = shift_kernel(k, d)
    lo, hi = k.abscissas()
    lam = max(lo, -3.0) + u * (min(hi, 3.0) - max(lo, -3.0))
    z = complex(lam, y)
    got, expect = wf.laplace(shifted, z), np.exp(-np.asarray(z) * d) * wf.laplace(k, z)
    if isinstance(k, wf.DiracComb):
        assert shifted == wf.DiracComb(tuple(a + d for a in k.offsets), k.weights)
        scale = sum(w * math.exp(-lam * (a + d)) for a, w in zip(k.offsets, k.weights))
        assert abs(got - expect) <= 1e-13 * scale
        return
    assert got == expect
    grid = wf.Grid(-20.0, 20.0, round(40.0 / dt) + 1)
    assert (shifted.grid_laplace(lam, grid)
            == wf.DiracComb((d,), (1.0,)).grid_laplace(lam, grid) * k.grid_laplace(lam, grid))
    G = np.random.default_rng(seed).random(grid.n)
    lam_left = lam if closed and lam > 0 else None
    action = convolve_field(k, grid, G, lam_left)
    assert (convolve_field(shifted, grid, G, lam_left).tobytes()
            == _apply_taps(action, _taps(grid, d, lam_left), np.empty(grid.n)).tobytes())


# (shift, dt, lam dt): a rightward shift at large lam, where e^{lam dt}
# overflows from lam dt = 709.8 while the factor itself is at most 1; and
# 1.516 steps, where e^{-2 lam dt} is subnormal from lam dt = 354 and 0 from
# 372.5 while the factor, about 0.484 e^{-lam dt}, is a normal float
SHIFT_FACTOR_CASES = ([(shift, 0.0244, lam_dt) for lam_dt in (690.0, 700.5, 750.0, 5000.0)
                       for shift in (2.0, 0.5, 0.0370)]
                      + [(1.516 * 0.0244, 0.0244, lam_dt)
                         for lam_dt in (380.0, 500.0, 690.0, 360.0, 365.0, 370.0, 372.0)])


@pytest.mark.parametrize("shift,dt,lam_dt", SHIFT_FACTOR_CASES,
                         ids=[f"{lam_dt}-{shift}-{dt}" for shift, dt, lam_dt in SHIFT_FACTOR_CASES])
def test_shift_factor_stays_finite_where_the_step_exponential_overflows(shift, dt, lam_dt):
    # a unit comb's grid transform sums its two taps one by one, so it
    # stays finite and accurate where e^{lam dt} overflows and where the
    # first tap's exponential is subnormal
    grid = wf.Grid(-32 * dt, 31 * dt, 64)
    assert grid.step == dt
    lam = lam_dt / dt
    s = mpmath.mpf(shift) / dt
    if abs(s - round(s)) <= 4.0 * np.finfo(float).eps * abs(s):
        s = mpmath.mpf(round(s))
    m = int(mpmath.ceil(s))
    with mpmath.workdps(40):
        exact = mpmath.exp(-lam * m * dt) * (1 + (m - s) * mpmath.expm1(lam * dt))
    got = wf.DiracComb((shift,), (1.0,)).grid_laplace(lam, grid)
    if float(exact) >= np.finfo(float).tiny:
        assert abs(got - float(exact)) <= 1e-12 * float(exact)
    else:
        assert got == 0.0


@settings(max_examples=150, deadline=None)
@given(dt=st.sampled_from([0.02, 0.05, 0.1]), lam=st.floats(-3.0, 3.0),
       atoms=st.lists(st.tuples(st.one_of(st.just(0.0), st.integers(-60, 60), st.floats(-3.0, 3.0)),
                                st.floats(0.1, 3.0)), min_size=1, max_size=4))
@example(dt=0.05, lam=1.7, atoms=[(0.0, 0.75)])
@example(dt=0.05, lam=-2.3, atoms=[(0.0, 1.0), (-7, 0.3), (-0.123, 2.5), (9, 1.0)])
def test_comb_grid_laplace_is_its_tap_sum(dt, lam, atoms):
    # the comb's grid transform is its stencils' action on e^{lam t}, tap by
    # tap, bit for bit: a e^{-lam m dt} + b e^{-lam (m - 1) dt} summed over
    # _taps, over whole steps (an integer offset is that many steps),
    # fractional ones and weights w != 1 alike; a zero shift is w exactly
    grid = wf.Grid(-20.0, 20.0, round(40.0 / dt) + 1)
    offsets = tuple(a * dt if isinstance(a, int) else a for a, _ in atoms)
    weights = tuple(w for _, w in atoms)
    expect = 0.0
    for a, w in zip(offsets, weights):
        _, _, m, ta, tb, _, _ = _taps(grid, a, None, w)
        expect += ta * math.exp(-lam * m * dt)
        if tb is not None:
            expect += tb * math.exp(-lam * (m - 1) * dt)
    got = wf.DiracComb(offsets, weights).grid_laplace(lam, grid)
    assert got == expect
    if offsets == (0.0,):
        assert got == weights[0]


@settings(max_examples=80, deadline=None)
@given(dt=st.sampled_from([0.02, 0.05, 0.1]), data=st.data(),
       lam_left=st.sampled_from([None, 0.3, 2.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_a_unit_comb_atom_is_the_pin_shift(dt, data, lam_left, seed):
    # a comb reads its stencil constants from its plan and the solver's
    # pin builds them afresh each sweep, both from the Grid: the two are one
    # stencil, byte for byte
    d = data.draw(grid_shifts(dt))
    grid = wf.Grid(-20.0, 20.0, round(40.0 / dt) + 1)
    G = np.random.default_rng(seed).random(grid.n)
    assert (convolve_field(wf.DiracComb((d,), (1.0,)), grid, G, lam_left).tobytes()
            == _apply_taps(G, _taps(grid, d, lam_left), np.empty(grid.n)).tobytes())


def plan_builds(monkeypatch):
    """[(kernel, grid, lam_left), ...]: every plan a grid action builds from here on, in order."""
    builds = []
    for cls in (kernels._SampledDensity, kernels._ExponentialPieces, wf.DiracComb):
        def counting(self, grid, lam_left, build=vars(cls)["_build_plan"]):
            builds.append((self, grid, lam_left))
            return build(self, grid, lam_left)

        monkeypatch.setattr(cls, "_build_plan", counting)
    return builds


def test_grid_plans_are_built_once_per_grid_and_closure(monkeypatch):
    # each grid action keeps one plan per (grid, closure rate) on its kernel
    # instance: in an interleaved sequence over two grids of one n and
    # different spans, a 4,001-point grid and three closures, every action
    # equals its cold action (a new instance, the value-keyed caches
    # cleared), byte for byte; writing into a returned array leaves the
    # next action as it was, and no later action writes into it.  A comb, a
    # shifted Green kernel (a comb factor and two exponential pieces), a
    # Gaussian, a tabulated density and a backward one-sided exponential
    # each build one plan per (grid, rate).  A full solve (the decay rate,
    # the sweeps and the residual) builds two per leaf kernel and grid
    makers = (lambda: wf.DiracComb((-1.3, 0.4, 2.0), (0.5, 0.25, 0.25)),
              lambda: shift_kernel(wf.PiecewiseGreen.from_speed_damping(2.5, 1.0), 0.7),
              lambda: wf.GaussianKernel(0.8, 1.2),
              lambda: tabulated_on(-1.0, 3.0, [0.2, 1.0, 0.6, 0.1]),
              lambda: wf.OneSidedExponential(1.3, -1, 0.7))
    grids = (wf.Grid(-40.0, 30.0, 2048), wf.Grid(-60.0, 40.0, 2048), wf.Grid(-60.0, 40.0, 4001))
    rng = np.random.default_rng(11)
    fields = {g: rng.random(g.n) for g in grids}
    copies = {g: G.copy() for g, G in fields.items()}
    rates = (None, 0.3, 1.1)
    cases = [(i, g, lam) for lam in rates for i in range(len(makers)) for g in grids]

    def cold(i, g, lam):
        kernels._lumped_samples.cache_clear()
        kernels._exponential_plan.cache_clear()
        return convolve_field(makers[i](), g, fields[g], lam).tobytes()

    expected = [cold(*case) for case in cases]
    warm = [make() for make in makers]
    builds = plan_builds(monkeypatch)
    order = [*range(len(cases)), *reversed(range(len(cases))), *range(0, len(cases), 5)]
    returned = []
    for j in order:
        i, g, lam = cases[j]
        out = convolve_field(warm[i], g, fields[g], lam)
        assert out.tobytes() == expected[j]
        # every returned array is the caller's: no later action writes into it
        assert all(np.isnan(earlier).all() for earlier in returned)
        out[:] = np.nan
        returned.append(out)
    # the actions only read their field
    assert all(fields[g].tobytes() == copies[g].tobytes() for g in grids)
    # a shifted Green kernel is a comb factor over the Green kernel
    leaves = [warm[0], warm[1].a, warm[1].b, *warm[2:]]
    built = [(id(k), g, lam) for k, g, lam in builds]
    assert sorted(built, key=repr) == sorted(
        [(id(k), g, lam) for k in leaves for g in grids for lam in rates], key=repr)
    # an instance keeps its last _PLANS_KEPT plans, the oldest dropped first
    k, g = warm[2], grids[0]
    for lam in np.linspace(0.1, 2.0, 2 * kernels._PLANS_KEPT):
        convolve_field(k, g, fields[g], lam)
    assert len(k._plans) == kernels._PLANS_KEPT
    del builds[:]
    convolve_field(k, g, fields[g], 2.0)
    convolve_field(k, g, fields[g], 0.1)
    assert [lam for _, _, lam in builds] == [0.1]

    # the shipped nonlocal_delayed_rd: a Green kernel over a comb over a
    # Gaussian, and the Green kernel alone.  The grid transform builds the
    # zero-closure plan of every leaf, whose constants it reads, the sweeps
    # build every leaf's plan at the closure rate, and the residual reuses
    # the zero-closure plans
    spec, cfg = wf.load_model(MODELS_DIR / "nonlocal_delayed_rd.json")
    prob = spec.to_convolution_form(float(cfg["c"]))
    green, (comb, gaussian) = prob.atoms[0].kernel.factors()[0], prob.atoms[0].kernel.b.factors()
    assert (type(green), type(comb), type(gaussian)) == (wf.PiecewiseGreen, wf.DiracComb,
                                                         wf.GaussianKernel)
    grid = wf.Grid(-60.0, 40.0, 4096)
    del builds[:]
    rate = wf.discrete_decay_rate(prob, grid)
    assert sorted((id(k), g, lam) for k, g, lam in builds) == sorted(
        (id(k), grid, None) for k in (green, comb, gaussian))
    init = wf.CappedExponential(prob.spectral.lambda_l, prob.equilibrium() / 2.0)
    profile = wf.solve_profile(prob, grid, init)
    assert profile.convergence["closure_rate"] == rate
    built = [(id(k), g, lam) for k, g, lam in builds]
    assert sorted(built, key=repr) == sorted(
        [(id(k), grid, lam) for k in (green, comb, gaussian) for lam in (None, rate)], key=repr)


@pytest.mark.parametrize("size", [4095, 4097, 2048])
def test_a_field_of_another_length_is_refused(size):
    # every grid action reads its size from its Grid: a field of any other
    # length is a ValueError naming both lengths, on every shape and on a
    # lazy product, under the zero closure and a tail closure alike
    grid = wf.Grid(-60.0, 40.0, 4096)
    G = np.ones(size)
    green = wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)
    shapes = (wf.GaussianKernel(0.8), tabulated_on(-1.0, 3.0, [0.2, 1.0, 0.6, 0.1]),
              wf.OneSidedExponential(1.3, -1, 0.7), green,
              wf.DiracComb((-1.3, 0.4), (0.5, 0.5)),
              ConvolvedKernel(green, wf.GaussianKernel(0.8)))
    for k in shapes:
        for lam_left in (None, 0.5):
            with pytest.raises(ValueError, match=f"field has {size} values on a grid of 4096 points"):
                convolve_field(k, grid, G, lam_left)


# --- sampled convolution --------------------------------------------------------

def direct_convolve(k, grid, G, lam_left):
    """The sampled convolution as one np.convolve of the closure-padded field."""
    dt = grid.step
    jlo, jhi, kv, _ = _lumped_samples(k, dt)
    left = np.zeros(jhi) if lam_left is None else G[0] * np.exp(lam_left * dt * np.arange(-jhi, 0))
    padded = np.concatenate((left, G, np.full(-jlo, G[-1])))
    return np.convolve(padded, kv, "valid")


def tabulated_on(lo, width, values):
    return wf.TabulatedKernel(tuple(np.linspace(lo, lo + width, len(values))), tuple(values))


@st.composite
def sampled_cases(draw):
    """A Gaussian or tabulated kernel, a grid, a field spanning 1e-300 to 1e3 and a closure."""
    n = draw(st.integers(64, 9000))
    dt = draw(st.floats(0.02, 0.2))
    t0 = -draw(st.floats(0.01, 0.99)) * (n - 1) * dt
    grid = wf.Grid(t0, t0 + (n - 1) * dt, n)
    values = st.lists(st.floats(0.1, 1.0), min_size=2, max_size=40)
    width = st.floats(1.0, 4.0)
    kernel = draw(st.one_of(
        st.builds(wf.GaussianKernel, variance=st.floats(0.05, 20.0), scale=st.floats(0.5, 2.0)),
        # support wholly right of 0 (jlo = 0), wholly left of 0 (jhi = 0), or across it
        st.builds(tabulated_on, st.floats(0.0, 3.0), width, values),
        st.builds(lambda w, v, gap: tabulated_on(-gap - w, w, v), width, values, st.floats(0.0, 3.0)),
        st.builds(lambda w, v, u: tabulated_on(-u * w, w, v), width, values, st.floats(0.0, 1.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = np.exp(rng.uniform(math.log(1e-300), math.log(1e3), n))
    if draw(st.booleans()):
        G.sort()
    lam_left = draw(st.none() | st.floats(0.01, 5.0))
    return kernel, grid, G, lam_left


@settings(max_examples=100, deadline=None)
@given(case=sampled_cases())
# n below the sample count, not a multiple of 64, and a support right of 0
@example(case=(wf.GaussianKernel(20.0), wf.Grid(-1.0, -1.0 + 99 * 0.02, 100),
               np.geomspace(1e-300, 1e3, 100), 0.5))
@example(case=(tabulated_on(0.5, 2.0, [1.0, 0.5, 0.25]), wf.Grid(-5.0, 5.0, 65),
               np.geomspace(1e3, 1e-300, 65), None))
def test_sampled_convolve_matches_direct_sum(case):
    # the blocked Toeplitz product sums the same nonnegative products as the
    # direct convolution, in another order
    k, grid, G, lam_left = case
    ref = direct_convolve(k, grid, G, lam_left)
    got = k.grid_convolve(grid, G, lam_left)
    assert got.shape == ref.shape
    assert not np.any(got < 0)
    normal = ref >= np.finfo(float).tiny
    assert np.all(np.abs(got - ref)[normal] <= 1e-13 * ref[normal])


# --- validation -------------------------------------------------------------

def test_nonnegativity_validation():
    with pytest.raises(ValueError):
        wf.TabulatedKernel((0.0, 1.0), (1.0, -0.5))
    with pytest.raises(ValueError):
        wf.DiracComb((0.0,), (-1.0,))
    with pytest.raises(ValueError):
        wf.GaussianKernel(-1.0)
    with pytest.raises(ValueError):
        wf.PiecewiseGreen(nu=0.5, mu=1.0)
