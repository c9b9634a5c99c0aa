import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import wavefront as wf
from wavefront import kernels
from wavefront.errors import EmptyStrip, OutOfStrip
from wavefront.kernels import (ConvolvedKernel, KernelComponent, _first_order,
                               _lumped_samples, _sampled_convolve,
                               _segments_transform, _shift_factor, _shift_plan,
                               _stencil, convolve_field, kernel_from_dict,
                               shift_kernel)

from quadrature import laplace_by_quad

INF = math.inf


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
    # signed zeros and result type included
    zz = np.asarray(z)
    if isinstance(kernel, wf.OneSidedExponential):
        r = kernel.rate
        den = r + zz if kernel.direction == 1 else r - zz
        expect = kernel.scale * np.exp(-zz * 0.0) * r / den
    else:
        den = kernel.damping + kernel.speed * zz - zz * zz
        expect = kernel.scale * np.exp(-zz * 0.0) / den
    got = kernel.laplace(z)
    assert type(got) is type(expect)
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
    p.write_text("# t,value\n-1.0,0.0\n0.0,1.0\n1.0,0.0\n")
    k = wf.load_tabulated(p)
    assert k.mass == pytest.approx(1.0)
    assert k.support() == (-1.0, 1.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0\n0.0,2.0\n")
    with pytest.raises(ValueError):
        wf.load_tabulated(bad)


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


decays = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=0.99999, max_value=1.0, exclude_max=True),
    st.just(math.exp(-800.0)),  # underflows to 0
)


@settings(max_examples=150, deadline=None)
@given(E=decays, n=st.sampled_from([1, 63, 64, 65, 4096, 8193]),
       seed=st.integers(0, 2 ** 32 - 1), signed=st.booleans())
# the float64 loop is 1.7e-13 of the scale off here, past the 1e-13 bound
@example(E=0.9999999999999999, n=8193, seed=0, signed=False)
def test_first_order_matches_loop_and_lfilter(E, n, seed, signed):
    rng = np.random.default_rng(seed)
    src = rng.standard_normal(n) if signed else rng.random(n)
    exact = first_order_exact(E, src)
    # each y_i sums E^(i-j) src_j; rounding is relative to the sum over |src_j|
    scale = first_order_loop(E, np.abs(src))
    # _first_order runs on whole 64-point blocks: pad with zeros, read the first n
    padded = np.zeros(-(-n // 64) * 64)
    padded[:n] = src
    assert np.all(np.abs(_first_order(E, padded)[:n] - exact) <= 1e-13 * scale)
    # a step-by-step loop rounds twice per step, so y_i may be (i + 1) eps
    # of the scale off (E^(i-j) scale_j <= scale_i)
    bound = (np.arange(n) + 2) * np.finfo(float).eps * scale
    for ref in (first_order_loop(E, src), lfilter([1.0], [1.0, -E], src)):
        assert np.all(np.abs(ref - exact) <= bound)


def padded_recurse(grid, G, rate, direction, lam_left):
    """The exponential recurrence with its source in an n-array, copied into zero-padded blocks."""
    E, far, near = kernels._exp_step_weights(rate, grid.step)
    if direction == 1:
        seed = 0.0 if lam_left is None else G[0] * rate / (rate + lam_left)
    else:
        G, seed = G[::-1], G[-1]
    src = np.empty_like(G)
    src[0] = seed
    np.multiply(G[:-1], far, out=src[1:])
    src[1:] += near * G[1:]
    n = len(src)
    blocks = -(-n // 64)
    within, across, step = kernels._block_powers(E, blocks)
    y = np.zeros(blocks * 64)
    y[:n] = src
    y = y.reshape(blocks, 64) @ within
    ends = across @ y[:, -1]
    y[1:] += ends[:-1, None] * step
    return y.ravel()[:n][::direction]


@pytest.mark.parametrize("n", [4096, 4001], ids=["whole_blocks", "padded_last_block"])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("lam_left", [None, 0.7])
@pytest.mark.parametrize("rate", [1.3, 0.003])
def test_recurse_builds_its_source_in_the_blocks(n, direction, lam_left, rate):
    # the source is written straight into the zero-padded blocks: the same
    # floats as a copy of it padded with zeros, byte for byte (rate 0.003
    # takes the series branch of the step weights)
    grid = wf.Grid(-60.0, 40.0, n)
    G = np.random.default_rng(n).random(n)
    got = kernels._recurse(grid, G, rate, direction, lam_left)
    assert got.tobytes() == padded_recurse(grid, G, rate, direction, lam_left).tobytes()


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
    assert abs(k.grid_laplace(lam, grid.step) - ref) <= 1e-13 * abs(ref)


@settings(max_examples=150, deadline=None)
@given(kd=grid_kernels(), u=st.floats(0.2, 0.8), y=st.floats(-3.0, 3.0),
       data=st.data(), seed=st.integers(0, 2 ** 32 - 1), closed=st.booleans())
def test_shift_kernel_is_a_unit_point_mass(kd, u, y, data, seed, closed):
    # K(. - d) multiplies the transform by e^{-z d}, the grid transform by
    # the two-tap stencil's factor, and the grid action is that stencil
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
    assert shifted.grid_laplace(lam, dt) == _shift_factor(d, lam, dt) * k.grid_laplace(lam, dt)
    grid = wf.Grid(-20.0, 20.0, round(40.0 / dt) + 1)
    G = np.random.default_rng(seed).random(grid.n)
    lam_left = lam if closed and lam > 0 else None
    action = convolve_field(k, grid, G, lam_left)
    assert (convolve_field(shifted, grid, G, lam_left).tobytes()
            == _stencil(action, _shift_plan(grid, d, lam_left), np.empty(grid.n)).tobytes())


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
    lam = lam_dt / dt
    s = mpmath.mpf(shift) / dt
    if abs(s - round(s)) <= 4.0 * np.finfo(float).eps * abs(s):
        s = mpmath.mpf(round(s))
    m = int(mpmath.ceil(s))
    with mpmath.workdps(40):
        exact = mpmath.exp(-lam * m * dt) * (1 + (m - s) * mpmath.expm1(lam * dt))
    got = _shift_factor(shift, lam, dt)
    if float(exact) >= np.finfo(float).tiny:
        assert abs(got - float(exact)) <= 1e-12 * float(exact)
    else:
        assert got == 0.0


@settings(max_examples=80, deadline=None)
@given(dt=st.sampled_from([0.02, 0.05, 0.1]), data=st.data(),
       lam_left=st.sampled_from([None, 0.3, 2.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_a_unit_comb_atom_is_the_pin_shift(dt, data, lam_left, seed):
    # a comb reads its stencil constants from the cache and the solver's
    # pin builds them afresh each sweep, both from the Grid: the two are one
    # stencil, byte for byte
    d = data.draw(grid_shifts(dt))
    grid = wf.Grid(-20.0, 20.0, round(40.0 / dt) + 1)
    G = np.random.default_rng(seed).random(grid.n)
    assert (convolve_field(wf.DiracComb((d,), (1.0,)), grid, G, lam_left).tobytes()
            == _stencil(G, _shift_plan(grid, d, lam_left), np.empty(grid.n)).tobytes())


def test_comb_constants_are_cached_per_grid_and_closure():
    # a comb's stencil constants are cached per (comb, grid, closure rate): in
    # an interleaved sequence over two grids of one n and different spans
    # and three closures, every action equals its cold-cache action, byte
    # for byte, and a shifted Green kernel's comb factor does the same
    comb = wf.DiracComb((-1.3, 0.4, 2.0), (0.5, 0.25, 0.25))
    green = shift_kernel(wf.PiecewiseGreen.from_speed_damping(2.5, 1.0), 0.7)
    grids = (wf.Grid(-40.0, 30.0, 2048), wf.Grid(-60.0, 40.0, 2048))
    rng = np.random.default_rng(11)
    fields = {g: rng.random(g.n) for g in grids}
    cases = [(k, g, lam) for lam in (None, 0.3, 1.1) for k in (comb, green) for g in grids]

    def action(k, g, lam):
        return convolve_field(k, g, fields[g], lam).tobytes()

    cold = []
    for case in cases:
        kernels._comb_plans.cache_clear()
        cold.append(action(*case))
    kernels._comb_plans.cache_clear()
    order = [*range(len(cases)), *reversed(range(len(cases))), *range(0, len(cases), 5)]
    for i in order:
        assert action(*cases[i]) == cold[i]
    assert kernels._comb_plans.cache_info().hits > 0
    # the cached closure vectors are read-only
    for k in (comb, green.a):
        for g in grids:
            for plan in kernels._comb_plans(k, g, 1.1):
                closure = plan[-1]
                assert not closure.flags.writeable
                if len(closure):
                    with pytest.raises(ValueError):
                        closure[0] = 0.0


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
    got = _sampled_convolve(k, grid, G, lam_left)
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
