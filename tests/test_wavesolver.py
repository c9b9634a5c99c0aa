import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

import wavefront as wf
from wavefront import charfun, kernels, wavesolver
from wavefront import verify as wf_verify
from wavefront._scalar import brentq
from wavefront._json import row_format, write_csv
from wavefront.charfun import _concave_max
from wavefront.cli import main
from wavefront.errors import (MaxIterExceeded, NegativeValues, NoRoots, NoWave,
                              TailUnresolved)
from wavefront.kernels import (_apply_taps, _snap_steps, _taps, convolve, kernel_from_dict,
                               shift_kernel)
from wavefront.models import ConvolutionProblem
from wavefront.wavesolver import convolve_field, level_crossing

import manufactured
from quadrature import convolve_by_quad


MODELS_DIR = Path(__file__).resolve().parents[1] / "models"


def local_problem(c=2.5):
    return wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=0.0).to_convolution_form(c)


def count_sweeps(monkeypatch):
    calls = []
    apply_operator = wavesolver.apply_operator

    def counting(*args, **kwargs):
        calls.append(None)
        return apply_operator(*args, **kwargs)

    monkeypatch.setattr(wavesolver, "apply_operator", counting)
    return calls


def test_grid_points_are_one_read_only_linspace():
    g = wf.Grid(-10.0, 10.0, 101)
    ts = g.ts
    assert g.ts is ts
    assert ts.tobytes() == np.linspace(-10.0, 10.0, 101).tobytes()
    assert not ts.flags.writeable
    with pytest.raises(ValueError):
        ts[0] = 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        wf.Grid(-1.0, 1.0, 32)
    with pytest.raises(ValueError):
        wf.Grid(1.0, 2.0, 128)
    g = wf.Grid(-10.0, 10.0, 101)
    assert g.step == pytest.approx(0.2)
    assert len(g.ts) == 101


@pytest.mark.parametrize("n", [4096.5, 4096.0, np.float64(4096.0), True, "4096", None, False,
                               np.True_])
def test_grid_rejects_a_size_that_is_no_integer(n):
    # caught when the grid is built, not when its points are first read
    with pytest.raises(ValueError, match="must be an integer"):
        wf.Grid(-60.0, 40.0, n)


@pytest.mark.parametrize("max_iter", [5.0, math.inf, np.float64(5.0), True, "5", None, np.True_])
def test_solve_options_reject_a_max_iter_that_is_no_integer(max_iter):
    # caught when the options are built, not when the driver first loops
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        wf.SolveOptions(max_iter=max_iter)


@pytest.mark.parametrize("tol", [True, False, "1e-8", None, 1e-8 + 0j, [1e-8], np.True_])
def test_solve_options_reject_a_tol_that_is_no_real_number(tol):
    # True once ran as tol = 1.0; a string or None failed with a TypeError
    with pytest.raises(ValueError, match=f"^tol must be a number, got {re.escape(repr(tol))}$"):
        wf.SolveOptions(tol=tol)


@pytest.mark.parametrize("tol, max_iter, message", [
    (math.nan, 5, "tol must be positive and finite, got nan"),
    (0.0, 5, "tol must be positive and finite, got 0"),
    (1e-8, 0, "max_iter must be an integer >= 1, got 0"),
])
def test_solve_options_name_the_option_out_of_range(tol, max_iter, message):
    # one message once named both options, whichever was at fault
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        wf.SolveOptions(tol=tol, max_iter=max_iter)


@pytest.mark.parametrize("field", ["rate", "cap"])
@pytest.mark.parametrize("x, refusal", [
    (True, "a number, got True"), (np.True_, f"a number, got {np.True_!r}"),
    (math.nan, "positive and finite, got nan"), (0.0, "positive and finite, got 0"),
    (-1.0, "positive and finite, got -1"), ("1", "a number, got '1'"),
], ids=["True", "np.True_", "nan", "zero", "negative", "str"])
def test_capped_exponential_refuses_a_bad_field(field, x, refusal):
    # it once built with any fields, a NaN caught only by the solver's init check
    fields = {"rate": 0.5, "cap": 0.25, field: x}
    with pytest.raises(ValueError, match=f"^{field} must be {re.escape(refusal)}$"):
        wf.CappedExponential(**fields)


def test_a_float_init_array_is_checked_whole(monkeypatch):
    # only a sequence or an array of another dtype is read entry by entry
    calls = []
    monkeypatch.setattr(kernels, "_check_param", lambda *a, **k: calls.append(a))
    values = np.linspace(0.0, 1.0, 4096)
    checked = kernels._check_samples("init array", values)
    assert calls == [] and checked.tobytes() == values.tobytes()
    assert not np.shares_memory(checked, values)


@pytest.mark.parametrize("tol", [1e-8, 1, np.float64(1e-8), np.float32(1e-4), np.int64(1)])
def test_solve_options_take_a_real_tol(tol):
    assert wf.SolveOptions(tol=tol).tol == tol


@pytest.mark.parametrize("max_iter", [np.int64(5), np.uint16(5)])
def test_solve_options_take_a_numpy_integer_max_iter(max_iter):
    prob, grid, init = pinned_case("local_delayed_rd")
    with pytest.raises(MaxIterExceeded, match="after 5 iterations"):
        wf.solve_profile(prob, grid, init, wf.SolveOptions(max_iter=max_iter))


@pytest.mark.parametrize("n", [np.int64(4096), np.int32(4096), np.uint16(4096)])
def test_grid_takes_a_numpy_integer_size(n):
    g, ref = wf.Grid(-60.0, 40.0, n), wf.Grid(-60.0, 40.0, 4096)
    assert g == ref and hash(g) == hash(ref)
    assert g.step == ref.step and g.ts.tobytes() == ref.ts.tobytes()


# --- field convolution building blocks ---------------------------------------

def skewed_tabulated(n=161):
    """Skewed bump whose node step (0.10125) is not a multiple of any test grid step."""
    nodes = np.linspace(-7.3, 8.9, n)
    vals = np.exp(-nodes ** 2 / 2.0) * (1.0 + 0.3 * np.tanh(nodes))
    return wf.TabulatedKernel(tuple(nodes), tuple(vals))


@pytest.mark.parametrize("kernel", [
    shift_kernel(wf.OneSidedExponential(rate=1.3), 0.0),
    wf.OneSidedExponential(rate=0.9, direction=-1),
    wf.PiecewiseGreen.from_speed_damping(2.5, 1.0),
    shift_kernel(wf.PiecewiseGreen.from_speed_damping(2.0, 1.5), 0.8),
    wf.GaussianKernel(0.8),
    skewed_tabulated(),
    # the kpp and nonlocal_rd reductions: factors applied one after the other
    wf.convolve(wf.OneSidedExponential(rate=0.8, scale=0.5), wf.GaussianKernel(1.0)),
    wf.convolve(shift_kernel(wf.GaussianKernel(1.0), 1.5),
                wf.PiecewiseGreen.from_speed_damping(3.0, 2.0)),
])
def test_convolve_field_against_quadrature(kernel):
    grid = wf.Grid(-40.0, 40.0, 4096)
    ts = grid.ts
    field_fn = lambda t: math.exp(-((t - 2.0) ** 2) / 8.0)
    G = np.array([field_fn(t) for t in ts])
    out = convolve_field(kernel, grid, G, lam_left=None)
    for idx in (1000, 2048, 3000):
        expect = convolve_by_quad(kernel, field_fn, ts[idx])
        assert out[idx] == pytest.approx(expect, abs=2e-5 * (1 + abs(expect)))


def test_convolve_field_second_order_convergence():
    kernel = wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)
    field_fn = lambda t: math.exp(-((t - 2.0) ** 2) / 8.0)
    errs = []
    for n in (2049, 4097):
        grid = wf.Grid(-40.0, 40.0, n)
        ts = grid.ts
        G = np.array([field_fn(t) for t in ts])
        out = convolve_field(kernel, grid, G, lam_left=None)
        mid = n // 2
        errs.append(abs(out[mid] - convolve_by_quad(kernel, field_fn, ts[mid])))
    assert errs[1] <= errs[0] / 3.0  # ~ O(step^2)


@st.composite
def shifted_cases(draw):
    """A grid, a shift from one of the classes `_taps` must handle, a field and a closure."""
    n = draw(st.integers(64, 8193))
    grid = wf.Grid(-draw(st.floats(1.0, 100.0)), draw(st.floats(1.0, 100.0)), n)
    span = grid.t_max - grid.t_min
    shift = draw(st.one_of(
        st.just(0.0),
        st.integers(-n, n).map(lambda k: k * grid.step),
        st.floats(-1e-6, 1e-6),
        st.floats(1.0, 3.0).map(lambda f: f * span) | st.floats(-3.0, -1.0).map(lambda f: f * span),
        st.floats(-0.5 * span, 0.5 * span)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = np.exp(rng.uniform(math.log(1e-300), math.log(1e3), n))
    order = draw(st.sampled_from(["random", "sorted", "signed zeros"]))
    if order == "sorted":
        G.sort()
    elif order == "signed zeros":
        G[rng.random(n) < 0.2] = -0.0
    lam_left = draw(st.none() | st.floats(0.01, 5.0))
    return grid, shift, G, lam_left


def interp_shift(ts, G, shift, lam_left):
    """np.interp of G at ts - shift, closed by 0 or G[0] e^{lam_left (x - t0)} on the left."""
    x = ts - shift
    out = np.interp(x, ts, G)
    left = x < ts[0]
    out[left] = 0.0 if lam_left is None else G[0] * np.exp(lam_left * (x[left] - ts[0]))
    return out


def weighted_two_tap(grid, G, shift, steps, w, lam_left):
    """w G~(t - shift) by index arrays: w (1 - f) G[i-m] + (w f) G[i-m+1], f = m - s, (s, m) = ``steps``.

    Whole steps take w G[i-m]; points from left of t_min take (w G[0]) times
    the closure (or 0), points from t_max or right of it w G[-1].
    """
    s, m = steps
    n, ts = grid.n, grid.ts
    lo, hi = min(max(m, 0), n), min(max(n - 1 + m, 0), n)
    j = np.arange(lo, hi) - m
    out = np.empty(n)
    if lam_left is None:
        out[:lo] = 0.0
    else:
        out[:lo] = (w * G[0]) * np.exp(lam_left * (ts[:lo] - shift - ts[0]))
    if m == s:
        out[lo:hi] = w * G[j]
    else:
        f = m - s
        out[lo:hi] = (w * (1.0 - f)) * G[j] + (w * f) * G[j + 1]
    out[hi:] = w * G[-1]
    return out


@settings(max_examples=200, deadline=None)
@given(case=shifted_cases(), shape=st.sampled_from(["comb", "exponential", "green"]))
def test_convolve_field_comb_is_exact_shift(case, shape):
    # a shifted copy is one two-tap stencil: whole steps move the field by
    # whole indices, other shifts agree with np.interp plus the closure
    grid, shift, G, lam_left = case
    ts, n, step = grid.ts, grid.n, grid.step
    plan = _taps(grid, shift, lam_left)
    if shape == "comb":
        kernel, H = wf.DiracComb((shift,), (0.75,)), G
        # the weight is folded into the taps, and the sum starts from the
        # first atom, so a -0.0 stays -0.0
        expect = weighted_two_tap(grid, G, shift, _snap_steps(shift, step), 0.75, lam_left)
    else:
        unshifted = (wf.OneSidedExponential(rate=1.3) if shape == "exponential"
                     else wf.PiecewiseGreen.from_speed_damping(2.5, 1.0))
        kernel = shift_kernel(unshifted, shift)
        H = convolve_field(unshifted, grid, G, lam_left)
        expect = _apply_taps(H, plan, np.empty(n))
    # bytes, so that the sign of a zero counts too
    assert convolve_field(kernel, grid, G, lam_left).tobytes() == expect.tobytes()

    got = _apply_taps(H, plan, np.empty(n))
    ref = interp_shift(ts, H, shift, lam_left)
    k = round(shift / step)
    if shift == k * step:
        whole = ref.copy()  # keeps the left closure
        if k >= 0:
            whole[min(k, n):] = H[:max(n - k, 0)]
        else:
            whole[:max(n + k, 0)] = H[-k:]
            whole[max(n + k, 0):] = H[-1]
        assert got.tobytes() == whole.tobytes()
        return
    # np.interp's abscissas ts - shift carry ~|t| eps of rounding, which moves
    # its value by that over the step relative to the two neighbours
    j = np.floor(np.arange(n) - shift / step).astype(int)
    near = np.max([np.abs(H[np.clip(j + d, 0, n - 1)]) for d in (-1, 0, 1, 2)], axis=0)
    eps = np.finfo(float).eps
    rounding = 4.0 * eps * (np.max(np.abs(ts)) + abs(shift))
    tol = (rounding / step + 4.0 * eps) * near
    # under the zero closure the point within rounding of ts[0] may fall on
    # either side of it
    keep = np.abs(ts - shift - ts[0]) > rounding if lam_left is None else np.ones(n, bool)
    assert np.all(np.abs(got - ref)[keep] <= tol[keep])


@pytest.mark.parametrize("n", [4096, 4001])
@pytest.mark.parametrize("lam_left", [None, 0.5])
@pytest.mark.parametrize("shift", [0.0, -0.0])
def test_a_zero_shift_is_a_bitwise_copy(shift, lam_left, n):
    # the pinned map shifts every sweep back, by a zero drift too
    grid = wf.Grid(-60.0, 40.0, n)
    G = np.random.default_rng(n).standard_normal(n)
    G[::5], G[1::5], G[2::5], G[3::7] = -0.0, 0.0, 5e-324, -2.5e-310
    G[0], G[-1] = -0.0, -5e-324
    out = np.full(n, np.nan)
    assert _apply_taps(G, _taps(grid, shift, lam_left), out) is out
    assert out.tobytes() == G.tobytes()


def test_convolve_field_mass_on_constant():
    # far from both boundaries the closure is irrelevant and constants map
    # to kernel mass exactly (the slowest kernel reach here is 1/0.35 units,
    # so 100 units of margin leave ~1e-15 of closure error)
    grid = wf.Grid(-200.0, 200.0, 2048)
    ts = grid.ts
    G = np.ones_like(ts)
    for kernel in (wf.PiecewiseGreen.from_speed_damping(2.5, 1.0),
                   wf.GaussianKernel(1.0),
                   wf.OneSidedExponential(rate=2.0, scale=0.5),
                   skewed_tabulated()):
        out = convolve_field(kernel, grid, G, lam_left=0.5)
        mid = len(ts) // 2
        assert out[mid] == pytest.approx(kernel.mass, rel=1e-9)


def test_convolve_field_rejects_kernel_between_grid_points():
    # a bump that no multiple of the step reaches would act as zero
    grid = wf.Grid(-10.0, 10.0, 201)
    bump = wf.TabulatedKernel((0.01, 0.02, 0.03), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="grid step"):
        convolve_field(bump, grid, np.ones(grid.n), lam_left=None)


@pytest.mark.parametrize("kernel", [wf.GaussianKernel(0.8), skewed_tabulated()])
@pytest.mark.parametrize("lam_left", [None, 3.0])
def test_convolve_field_density_nonnegative(kernel, lam_left):
    # the solver's NegativeValues guard allows only -1e-10, the size of the
    # roundoff an FFT convolution leaves, so a nonnegative field whose tail
    # underflows through subnormals to zero must map to no negative entry
    grid = wf.Grid(-60.0, 40.0, 4096)
    ts = grid.ts
    G = np.minimum(np.exp(15.0 * ts), 1.0)
    assert G[0] == 0.0 and np.any((G > 0.0) & (G < np.finfo(float).tiny))
    out = convolve_field(kernel, grid, G, lam_left=lam_left)
    assert float(np.min(out)) >= 0.0


# --- operator examples --------------------------------------------------------

def test_operator_zero_fixed_point():
    prob = local_problem()
    grid = wf.Grid(-30.0, 20.0, 512)
    out = wf.apply_operator(prob, np.zeros(512), grid)
    assert np.max(np.abs(out)) == 0.0


def test_operator_constant_fixed_point():
    prob = local_problem()
    grid = wf.Grid(-80.0, 40.0, 1024)
    kappa = prob.equilibrium()
    ts = grid.ts
    out = wf.apply_operator(prob, np.full(1024, kappa), grid)
    # pointwise closure bound: mass truncated by the zero left closure decays
    # like e^{nu (t - t_min)} into the interior; the right closure is exact
    nu = prob.atoms[0].kernel.nu
    bound = 2.0 * kappa * np.exp(nu * (ts - grid.t_min)) + 1e-12
    assert np.all(np.abs(out - kappa) <= bound)
    interior = (ts > -15.0) & (ts < 35.0)
    np.testing.assert_allclose(out[interior], kappa, rtol=1e-8)


def test_operator_upper_solution_property():
    # capped exponential at the decay rate is a supersolution
    prob = local_problem(2.5)
    grid = wf.Grid(-60.0, 40.0, 4096)
    ts = grid.ts
    phi = np.minimum(np.exp(0.5 * ts), 0.5)
    out = wf.apply_operator(prob, phi, grid)
    assert np.all(out <= phi + 1e-9)
    # independent quadrature oracle at exact grid points, analytic integrand
    pg = prob.atoms[0].kernel
    phi_fn = lambda t: min(math.exp(0.5 * t), 0.5)
    for i in (1500, 2200, 2410, 2500, 3000):
        t = float(ts[i])
        val, _ = integrate.quad(
            lambda s: float(pg.value(s)) * 2.0 * phi_fn(t - s) * (1 - phi_fn(t - s)),
            -40.0, 60.0, limit=400, points=[0.0])
        assert val <= phi_fn(t) + 1e-9
        assert out[i] == pytest.approx(val, abs=5e-6)


# --- closure rate ------------------------------------------------------------

def shipped_problem(path):
    spec, cfg = wf.load_model(path)
    return spec.to_convolution_form(float(cfg["c"]))


def full_grid_decay_rate(p, grid, lam_guess):
    """discrete_decay_rate as it was: chi_h from convolve_field on a whole grid, read at its midpoint."""
    ts = grid.ts
    mid = grid.n // 2

    def chi_h(lam):
        fieldv = np.exp(np.minimum(lam * (ts - ts[mid]), 700.0))
        acc = 0.0
        for atom in p.atoms:
            acc += atom.weight * convolve_field(atom.kernel, grid, fieldv, lam)[mid]
        return 1.0 - acc

    _, gamma = p.charfun().strip
    hi = min(1.7 * lam_guess, gamma - 1e-9 * max(1.0, abs(gamma))) \
        if math.isfinite(gamma) else 1.7 * lam_guess
    lo = 0.3 * lam_guess
    if not lo < hi:
        return lam_guess
    xhat, fmax = _concave_max(chi_h, lo, hi)
    if fmax <= 0.0:
        return float(xhat)
    if chi_h(lo) >= 0.0:
        return lam_guess
    return brentq(chi_h, lo, xhat, xtol=1e-14)


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_decay_rate_matches_full_grid_chi_h(path):
    prob = shipped_problem(path)
    grid = wf.Grid(-60.0, 40.0, 4096)
    lam = prob.spectral.lambda_l
    ref = full_grid_decay_rate(prob, grid, lam)
    assert abs(wf.discrete_decay_rate(prob, grid) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("factor", [1.0, 1.01], ids=["c_star", "above"])
@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_closure_rate_is_grid_tangency_point_or_left_zero(path, factor):
    # at c* the grid chi_h of every shipped family stays below 0 (by 4e-5 to 7e-5),
    # so the rate is its maximizer; at 1.01 c* it is its left zero.  The
    # oracle is a dense scan of chi_h, refined by SciPy
    spec, _ = wf.load_model(path)
    c_star, z_star = wf.model_min_speed(spec)
    prob = spec.to_convolution_form(factor * c_star)
    grid = wf.Grid(-60.0, 40.0, 4096)

    def chi_h(lam):
        return 1.0 - sum(a.weight * a.kernel.grid_laplace(lam, grid) for a in prob.atoms)

    xs = np.linspace(0.0, 2.0 * z_star, 2001)
    vals = np.array([chi_h(x) for x in xs])
    rate = wf.discrete_decay_rate(prob, grid)
    if vals.max() > charfun.ROOT_VALUE_TOL:
        assert factor > 1.0
        j = int(np.argmax(vals >= 0.0))
        root = optimize.brentq(chi_h, xs[j - 1], xs[j], xtol=1e-15)
        assert rate == pytest.approx(root, rel=1e-13)
    else:
        assert factor == 1.0
        i = int(np.argmax(vals))
        peak = optimize.minimize_scalar(lambda x: -chi_h(x), bounds=(xs[i - 1], xs[i + 1]),
                                        method="bounded", options={"xatol": 1e-12})
        # a flat maximum fixes its maximizer to about sqrt(eps)
        assert rate == pytest.approx(peak.x, rel=1e-6)
        assert chi_h(rate) >= vals.max()


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_decay_rate_makes_no_grid_convolution(path, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(None)
        return convolve_field(*args)

    # a convolved kernel applies its factors through the kernels module's name
    monkeypatch.setattr(kernels, "convolve_field", counting)
    monkeypatch.setattr(wavesolver, "convolve_field", counting)
    prob = shipped_problem(path)
    grid = wf.Grid(-60.0, 40.0, 4096)
    wf.discrete_decay_rate(prob, grid)
    assert calls == []
    wavesolver.apply_operator(prob, grid.ts * 0.0, grid)
    assert calls


# convolve_field calls per kernel class in one sweep: perfbench's per-shape
# wavesolver.convolve.* spans wrap convolve_field, so a kernel factor applied
# around it would drop out of those layer metrics.  The outer kernel the
# atoms share acts once, on their summed inner fields
SWEEP_CONVOLVE_CALLS = {
    "nonlocal_lattice": {"DiracComb": 1, "OneSidedExponential": 1},
    "nonlocal_delayed_rd": {"ConvolvedKernel": 1, "DiracComb": 1, "GaussianKernel": 1,
                            "PiecewiseGreen": 1},
    "nonlocal_kpp_gaussian": {"GaussianKernel": 1, "OneSidedExponential": 1},
}


@pytest.mark.parametrize("name", sorted(SWEEP_CONVOLVE_CALLS))
def test_each_kernel_factor_goes_through_convolve_field(name, monkeypatch):
    calls = {}

    def counting(k, *args):
        calls[type(k).__name__] = calls.get(type(k).__name__, 0) + 1
        return convolve_field(k, *args)

    monkeypatch.setattr(kernels, "convolve_field", counting)
    monkeypatch.setattr(wavesolver, "convolve_field", counting)
    prob = shipped_problem(MODELS_DIR / f"{name}.json")
    grid = wf.Grid(-60.0, 40.0, 4096)
    values = wavesolver.default_init(prob).on(grid)
    wavesolver.apply_operator(prob, values, grid, wf.discrete_decay_rate(prob, grid))
    assert calls == SWEEP_CONVOLVE_CALLS[name]


def per_atom_operator(p, values, grid, lam_left):
    """The wave operator atom by atom: each atom's whole kernel acts on its own field."""
    return sum(convolve_field(a.kernel, grid, np.asarray(a.nonlinearity(values), dtype=float),
                              lam_left)
               for a in p.atoms)


@pytest.mark.parametrize("closure", [False, True], ids=["zero_closure", "closure_rate"])
def test_shared_outer_kernel_only_rounds_on_kpp(closure):
    # both KPP atoms have the exponential k outermost: one action of k on the
    # summed inner fields is the per-atom sum, since every grid action is linear
    prob = shipped_problem(MODELS_DIR / "nonlocal_kpp_gaussian.json")
    assert len(prob.outer_groups) == 1 and len(prob.atoms) == 2
    grid = wf.Grid(-60.0, 40.0, 4096)
    lam = wf.discrete_decay_rate(prob, grid) if closure else None
    values = wavesolver.default_init(prob).on(grid)
    out = wavesolver.apply_operator(prob, values, grid, lam)
    ref = per_atom_operator(prob, values, grid, lam)
    assert np.all(np.abs(out - ref) <= 1e-14 * np.abs(ref))


def with_factors_swapped(p):
    """``p`` with the factors of each product swapped: the atoms share no outer kernel."""
    atoms = []
    for a in p.atoms:
        outer, inner = a.kernel.factors()
        atoms.append(a if inner is None else dataclasses.replace(a, kernel=convolve(inner, outer)))
    return ConvolutionProblem(tuple(atoms), p.speed, p.bound)


DELAYED_LATTICE = wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={-1: 0.3, 0: 0.4, 1: 0.3},
                                     g=wf.logistic(2.0, 1.0), delay=0.37)


@pytest.mark.parametrize("closure", [False, True], ids=["zero_closure", "closure_rate"])
@pytest.mark.parametrize("name", ["nonlocal_lattice", "delayed_lattice", "nonlocal_delayed_rd"])
def test_outer_kernel_first_commutes_away_from_the_edges(name, closure):
    # the lattice's H0 and the delayed RD's Green kernel are now the outer
    # factor, (H0 * neigh, green * k_h); the old order (neigh * H0, k_h * green)
    # differs only through the truncation closures, whose effect decays like
    # e^{-rate x} from the left edge and spans the comb's reach at the right
    if name == "delayed_lattice":
        prob = DELAYED_LATTICE.to_convolution_form(2.0)
    else:
        prob = shipped_problem(MODELS_DIR / f"{name}.json")
    old = with_factors_swapped(prob)
    assert len(prob.outer_groups) == 1 and len(old.outer_groups) == len(old.atoms) == 2
    grid = wf.Grid(-200.0, 100.0, 12286)
    ts = grid.ts
    lam = wf.discrete_decay_rate(prob, grid) if closure else None
    values = 0.3 + 0.2 * np.sin(ts / 3.0)
    out = wavesolver.apply_operator(prob, values, grid, lam)
    ref = wavesolver.apply_operator(old, values, grid, lam)
    interior = (ts >= grid.t_min + 60.0) & (ts <= grid.t_max - 20.0)
    assert np.max(np.abs(out - ref)[interior]) <= 1e-13
    # at the edges the closures do differ: the comparison sees both orders
    assert np.max(np.abs(out - ref)) > 1e-6


def test_sampled_kernel_is_sampled_once_per_step(monkeypatch):
    # the lumped samples and their Toeplitz block are cached per (kernel,
    # step): a whole solve samples the Gaussian once, not once per sweep and
    # per closure-rate evaluation
    kernels._lumped_samples.cache_clear()
    calls = []
    value = wf.GaussianKernel.value

    def counting(self, s):
        calls.append(self)
        return value(self, s)

    monkeypatch.setattr(wf.GaussianKernel, "value", counting)
    sweeps = count_sweeps(monkeypatch)
    prob = shipped_problem(MODELS_DIR / "nonlocal_kpp_gaussian.json")
    # the Gaussian is the second factor of the first atom's kernel
    kernel = prob.atoms[0].kernel.b
    assert isinstance(kernel, wf.GaussianKernel)
    init = wf.CappedExponential(prob.spectral.lambda_l, prob.equilibrium() / 2.0)
    grids = [wf.Grid(-60.0, 40.0, 4096), wf.Grid(-60.0, 40.0, 4001), wf.Grid(-60.0, 40.0, 4096)]
    for grid in grids:
        wf.solve_profile(prob, grid, init)
    assert len(sweeps) > 2 * len(grids)
    assert calls == [kernel, kernel]
    for cached in kernels._lumped_samples(kernel, grids[0].step)[2:]:
        with pytest.raises(ValueError):
            cached[0] = 1.0


@pytest.mark.parametrize("size", [4095, 4097, 2048])
@pytest.mark.parametrize("name", ["nonlocal_kpp_gaussian", "local_delayed_rd", "nonlocal_lattice"])
def test_operator_refuses_a_field_of_another_length(name, size):
    # the wave operator and the residual act through convolve_field, which
    # refuses values that are not one per grid point, naming both lengths
    prob = shipped_problem(MODELS_DIR / f"{name}.json")
    grid = wf.Grid(-60.0, 40.0, 4096)
    values = np.full(size, 0.25)
    message = f"field has {size} values on a grid of 4096 points"
    for lam_left in (None, prob.spectral.lambda_l):
        with pytest.raises(ValueError, match=message):
            wavesolver.apply_operator(prob, values, grid, lam_left)
    profile = wf.WaveProfile(grid=grid, values=values, speed=prob.speed, plateau=1.0)
    with pytest.raises(ValueError, match=message):
        wf.residual(prob, profile)


def test_decay_rate_hashes_a_tabulated_kernel_at_most_once(monkeypatch):
    # the grid transform reads the zero-closure plan kept on the kernel
    # instance, keyed on the grid object: during discrete_decay_rate the
    # 121-node tabulated kernel is hashed at most once, when its plan looks
    # up the lumped samples, not once per chi_h evaluation.  The rate is,
    # bit for bit, the left zero of chi_h summed with the samples read from
    # their value-keyed cache on every evaluation
    grid = wf.Grid(-60.0, 40.0, 4096)
    dt = grid.step
    path = MODELS_DIR / "cases" / "kpp_tabulated_uniform.json"
    ref = shipped_problem(path)

    def transform(k, lam):
        if isinstance(k, kernels.ConvolvedKernel):
            return transform(k.a, lam) * transform(k.b, lam)
        if isinstance(k, wf.TabulatedKernel):
            jlo, jhi, kv, _ = kernels._lumped_samples(k, dt)
            return float(kv @ np.exp(-lam * dt * np.arange(jlo, jhi + 1)))
        return k.grid_laplace(lam, grid)

    def chi_h(lam):
        return 1.0 - sum(a.weight * transform(a.kernel, lam) for a in ref.atoms)

    expected = wavesolver._left_zero(chi_h, ref.charfun().strip[1])[2]
    hashes = []
    tabulated_hash = vars(wf.TabulatedKernel)["__hash__"]
    monkeypatch.setattr(wf.TabulatedKernel, "__hash__",
                        lambda self: hashes.append(self) or tabulated_hash(self))
    prob = shipped_problem(path)
    assert any(isinstance(k, wf.TabulatedKernel) for k in prob.atoms[0].kernel.factors())
    del hashes[:]
    rate = wf.discrete_decay_rate(prob, grid)
    assert len(hashes) <= 1
    assert rate.hex() == expected.hex()


def test_verify_solves_report_bit_identical_closure_rate(monkeypatch, tmp_path):
    # each solve finds its own closure rate; the two verify solves on one
    # problem and grid must find the same float
    rates = []
    solve = wf_verify.solve_profile

    def recording(*args):
        profile = solve(*args)
        rates.append(profile.convergence["closure_rate"])
        return profile

    # and they find it once: the rate is kept per problem and grid step
    searches = []
    left_zero = wavesolver._left_zero
    monkeypatch.setattr(wavesolver, "_left_zero", lambda *a: searches.append(a) or left_zero(*a))
    monkeypatch.setattr(wf_verify, "solve_profile", recording)
    path = MODELS_DIR / "local_delayed_rd.json"
    assert main(["verify", "--model", str(path), "--out", str(tmp_path)]) == 0
    assert len(rates) == 2
    assert rates[0].hex() == rates[1].hex()
    assert len(searches) == 1
    prob = shipped_problem(path)
    direct = wf.discrete_decay_rate(prob, wf.Grid(-60.0, 40.0, 4096))
    assert rates[0].hex() == direct.hex()


# --- the pinned map and its driver against plain-numpy references --------------

def reference_crossing(ts, values, level):
    above = np.where(values >= level)[0]
    if len(above) == 0:
        return None
    i = above[0]
    if i == 0:
        return float(ts[0])
    f = (level - values[i - 1]) / (values[i] - values[i - 1])
    return float(ts[i - 1] + f * (ts[i] - ts[i - 1]))


def reference_sweeps(p, grid, values):
    """The pinned sweeps with the arithmetic of the loop PinnedMap replaced.

    Yields (values, update, drift, min) per sweep: the blend (1 - theta) phi
    + theta N[phi] at every theta, np.where's crossing and a fresh array for
    the pin shift.  An array sent in is the next sweep's input in place of
    the last iterate.
    """
    ts = grid.ts
    kappa = p.equilibrium()
    pin_level = 0.5 * min(kappa, float(np.max(values)))
    pin_at = reference_crossing(ts, values, pin_level)
    lam = wf.discrete_decay_rate(p, grid)
    theta = p.relaxation
    while True:
        new = (1.0 - theta) * values + theta * wavesolver.apply_operator(p, values, grid, lam)
        low = float(np.min(new))
        if low < -1e-10 * max(1.0, kappa):
            raise NegativeValues(f"iteration produced negative values (min {low:g})")
        if float(np.max(new)) < 1e-10 * kappa:
            raise TailUnresolved("iterates collapsed to zero")
        crossing = reference_crossing(ts, new, pin_level)
        if crossing is None:
            raise TailUnresolved("iterates fell below the pinning level")
        drift = crossing - pin_at
        new = _apply_taps(new, _taps(grid, -drift, lam), np.empty(grid.n))
        update = float(np.max(np.abs(new - values)))
        values = new
        sent = yield values, update, drift, low
        if sent is not None:
            values = sent


def reference_solve(p, grid, init, opts=wf.SolveOptions()):
    """The two-step driver over ``reference_sweeps``, with its stop rule, metadata and verdicts.

    Each sweep maps x to the iterate y.  Until an update falls below 1e-3,
    x is the last iterate; from then on it is max(0, y + beta (y - y_prev))
    with beta = min(0.3, 1 / (2 ell)), ell = 2 / theta - 2.  Convergence
    needs five settled sweeps in a row, and the profile is the last y.
    """
    values = np.asarray(init, dtype=float).copy()
    kappa = p.equilibrium()
    theta = p.relaxation
    ell = 2.0 / theta - 2.0
    beta = min(0.3, 1.0 / (2.0 * ell)) if ell > 0.0 else 0.3
    gate = theta * wavesolver.DRIFT_GATE_STEPS * grid.step
    update, drift, settled, translating, iterations = math.inf, 0.0, 0, 0, 0
    converged = extrapolating = False
    sweeps = reference_sweeps(p, grid, values)
    x, y_prev = None, values
    for iterations in range(1, opts.max_iter + 1):
        y, update, drift, _ = sweeps.send(x)
        if update < opts.tol and abs(drift) <= gate:
            settled, translating = settled + 1, 0
        elif update < opts.tol:
            settled, translating = 0, translating + 1
        else:
            settled, translating = 0, 0
        if settled >= 5:
            converged = True
            break
        if translating >= wavesolver.TRANSLATION_WINDOW:
            break
        extrapolating = extrapolating or update < 1e-3
        x = np.maximum(y + beta * (y - y_prev), 0.0) if extrapolating else None
        y_prev = y
    meta = {"iterations": iterations, "final_update": update,
            "closure_rate": wf.discrete_decay_rate(p, grid), "final_drift": drift,
            "relaxation": theta, "extrapolation": beta}
    profile = wf.WaveProfile(grid, y, p.speed, kappa, meta)
    if not converged:
        if translating > 0:
            raise TailUnresolved(
                f"profile settles while translating ({drift:+.3g} per sweep over "
                f"{translating} sweeps, sweep {iterations}) although chi has a "
                f"positive zero, so a wave exists that this grid does not "
                f"resolve (phi(t_min)/kappa = {y[0] / kappa:.3g})")
        raise MaxIterExceeded(
            f"update {update:g} above tol {opts.tol:g} after {iterations} iterations",
            profile=profile)
    meta["residual"] = wf.residual(p, profile)
    return profile


def pinned_case(name):
    path = MODELS_DIR / f"{name}.json"
    prob = shipped_problem(path)
    return prob, wf.Grid(-60.0, 40.0, 4096), wavesolver.default_init(prob)


@pytest.mark.parametrize("name, theta", [
    ("nonlocal_lattice", 1.0),
    ("local_delayed_rd", 1.0),
    ("cases/local_rate_10", 0.2),
])
def test_pinned_map_steps_are_the_old_sweeps_bit_for_bit(name, theta):
    prob, grid, init = pinned_case(name)
    assert prob.relaxation == pytest.approx(theta, abs=1e-9)
    assert (prob.relaxation == 1.0) == (theta == 1.0)
    pinned = wavesolver.PinnedMap(prob, grid, init)
    ref = reference_sweeps(prob, grid, init.on(grid))
    assert pinned.initial.tobytes() == init.on(grid).tobytes()
    # every sweep until the default tol, the settled iterates included
    update, sweep = math.inf, 0
    phi, out = pinned.initial.copy(), np.empty(grid.n)
    while update >= 1e-8:
        sweep += 1
        update, drift, low = pinned.step(phi, out)
        values, *record = next(ref)
        assert out.tobytes() == values.tobytes(), sweep
        assert [update.hex(), drift.hex(), low.hex()] == [x.hex() for x in record], sweep
        assert sweep < 1000
        phi, out = out, phi


def hexes(record):
    return [x.hex() for x in record]


@pytest.mark.parametrize("name", ["nonlocal_lattice", "cases/local_rate_10"])
def test_pinned_map_is_a_function_of_its_input(name):
    # theta = 1 skips the blend, theta = 0.2 runs it with out as its scratch
    prob, grid, init = pinned_case(name)
    pinned = wavesolver.PinnedMap(prob, grid, init)
    initial = pinned.initial.tobytes()
    inputs, results = [pinned.initial.copy()], []
    for _ in range(6):
        phi = inputs[-1]
        before = phi.tobytes()
        # two outs that hold different garbage
        out, other = np.full(grid.n, np.nan), np.full(grid.n, -1.0)
        record = hexes(pinned.step(phi, out))
        assert hexes(pinned.step(phi, other)) == record
        assert out.tobytes() == other.tobytes()
        assert phi.tobytes() == before
        results.append((out.tobytes(), record))
        inputs.append(out)
    assert pinned.initial.tobytes() == initial
    # an earlier input, stepped again after the later ones, sweeps the same
    for phi, (values, record) in zip(inputs, results):
        out = np.empty(grid.n)
        assert hexes(pinned.step(phi, out)) == record
        assert out.tobytes() == values


def negative_sweep_case():
    # logistic rate 10 behind a unit Gaussian: theta = 1/3 still lets a sweep go negative
    prob = wf.NonlocalDelayedRD(f=wf.linear(1.0), g=wf.logistic(10.0, 1.0),
                                k=wf.GaussianKernel(1.0), delay=0.5).to_convolution_form(8.0)
    return prob, wf.Grid(-60.0, 40.0, 4096), wavesolver.default_init(prob)


def ramp_case():
    prob, grid, _ = pinned_case("nonlocal_delayed_rd")
    return prob, grid, np.clip((grid.ts - grid.t_min) / -grid.t_min, 0.0, 1.0) * prob.equilibrium()


@pytest.mark.parametrize("case, opts, error, message, beta", [
    (ramp_case, wf.SolveOptions(), TailUnresolved, "settles while translating", 0.3),
    (lambda: pinned_case("local_delayed_rd"), wf.SolveOptions(max_iter=5), MaxIterExceeded,
     "after 5 iterations", 0.3),
    (negative_sweep_case, wf.SolveOptions(), NegativeValues, r"\(min -0\.0096834\)", 1 / 8),
    (lambda: pinned_case("nonlocal_lattice"), wf.SolveOptions(), None, None, 0.3),
    (lambda: pinned_case("cases/local_rate_10"), wf.SolveOptions(), None, None, 1 / 16),
    (lambda: pinned_case("cases/mackey_glass_h0"), wf.SolveOptions(), None, None, 1 / 4),
], ids=["translating", "max_iter", "negative", "converged", "local_rate_10", "mackey_glass_h0"])
def test_solve_profile_is_the_two_step_reference(case, opts, error, message, beta):
    prob, grid, init = case()
    assert wavesolver._extrapolation(prob.relaxation) == pytest.approx(beta, rel=1e-12)
    if isinstance(init, wf.CappedExponential):
        init = init.on(grid)
    if error is None:
        new, old = wf.solve_profile(prob, grid, init, opts), reference_solve(prob, grid, init, opts)
    else:
        with pytest.raises(error, match=message) as new_exc:
            wf.solve_profile(prob, grid, init, opts)
        with pytest.raises(error) as old_exc:
            reference_solve(prob, grid, init, opts)
        assert str(new_exc.value) == str(old_exc.value)
        if error is not MaxIterExceeded:
            return
        new, old = new_exc.value.profile, old_exc.value.profile
    assert new.values.tobytes() == old.values.tobytes()
    assert repr(new.convergence) == repr(old.convergence)


def test_no_solve_shares_an_array_with_another(monkeypatch):
    prob, grid, init = pinned_case("local_delayed_rd")
    init = init.on(grid)
    before = init.copy()
    profile = wf.solve_profile(prob, grid, init)
    with pytest.raises(MaxIterExceeded) as exc:
        wf.solve_profile(prob, grid, init, wf.SolveOptions(max_iter=5))
    partial = exc.value.profile
    kept = profile.values.copy(), partial.values.copy()
    later = wf.solve_profile(prob, grid, init)
    assert later.values.tobytes() == kept[0].tobytes()
    assert profile.values.tobytes() == kept[0].tobytes()
    assert partial.values.tobytes() == kept[1].tobytes()
    assert init.tobytes() == before.tobytes()
    arrays = (init, profile.values, partial.values, later.values)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
    # verify's two profiles are two arrays
    profiles = []
    solve = wf_verify.solve_profile
    monkeypatch.setattr(wf_verify, "solve_profile", lambda *a: profiles.append(solve(*a)) or profiles[-1])
    wf_verify.uniqueness_probe(prob, grid)
    assert len(profiles) == 2
    assert not np.shares_memory(profiles[0].values, profiles[1].values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_init_is_rejected_before_a_sweep(bad, monkeypatch):
    # one NaN used to end as "iterates fell below the pinning level" after a
    # sweep: a TailUnresolved verdict, which says a wave exists, on bad input
    prob, grid, init = pinned_case("local_delayed_rd")
    values = init.on(grid)
    values[2000] = bad
    sweeps = count_sweeps(monkeypatch)
    with pytest.raises(ValueError, match="finite"):
        wf.solve_profile(prob, grid, values)
    with pytest.raises(ValueError, match="finite"):
        wf.solve_profile(prob, grid, wf.CappedExponential(math.nan, 0.25))
    assert sweeps == []


def test_collapse_and_a_missed_pin_keep_their_verdicts():
    # max is read before the crossing only for a pin below 1e-10 kappa; above
    # it, a collapsed sweep misses the pin and is told apart there
    prob, grid, init = pinned_case("local_delayed_rd")
    floor = 1e-10 * prob.equilibrium()
    pinned = wavesolver.PinnedMap(prob, grid, init)
    assert pinned.pin_level >= floor
    out = np.empty(grid.n)
    with pytest.raises(TailUnresolved, match="^iterates collapsed to zero$"):
        pinned.step(np.zeros(grid.n), out)
    with pytest.raises(TailUnresolved, match="^iterates collapsed to zero$"):
        pinned.step(1e-12 * pinned.initial, out)
    with pytest.raises(TailUnresolved, match="^iterates fell below the pinning level$"):
        pinned.step(1e-3 * pinned.initial, out)
    # an init scaled by 1e-10 pins below the floor and collapses before any crossing
    prob = local_problem()
    small = 1e-10 * wavesolver.default_init(prob).on(grid)
    low_pin = wavesolver.PinnedMap(prob, grid, small)
    assert low_pin.pin_level < 1e-10 * prob.equilibrium()
    with pytest.raises(TailUnresolved, match="^iterates collapsed to zero$"):
        wf.solve_profile(prob, grid, small)


# --- solver -------------------------------------------------------------------

def test_solve_zero_init_is_no_wave(monkeypatch):
    prob = local_problem()
    grid = wf.Grid(-30.0, 20.0, 512)
    sweeps = count_sweeps(monkeypatch)
    with pytest.raises(NoWave, match="initial profile is identically zero"):
        wf.solve_profile(prob, grid, np.zeros(512), wf.SolveOptions(max_iter=5))
    assert sweeps == []


def test_unresolved_left_tail_with_roots_is_no_false_no_wave():
    # c = 2.5 lies above c* = 2, so a wave exists; a left margin this short
    # leaves the converged tail above 1e-3 kappa, a resolution failure
    spec, cfg = wf.load_model(MODELS_DIR / "local_delayed_rd.json")
    prob = spec.to_convolution_form(cfg["c"])
    assert prob.spectral is not None
    with pytest.raises(TailUnresolved, match=r"left tail unresolved: phi\(t_min\) = 0.00146757"):
        wf.solve_profile(prob, wf.Grid(-14.0, 40.0, 512), wf.CappedExponential(0.5, 0.25))


# --- relaxation ---------------------------------------------------------------

def mackey_glass_problem():
    # g'(kappa) = -2 on [0, kappa]: ell = 2, so theta = 1/2
    return wf.LocalDelayedRD(g=wf.mackey_glass(2.0, 6.0), L=3.0,
                             delay=0.0).to_convolution_form(2.5)


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_relaxation_is_one_on_shipped_models(path):
    # every shipped problem is order-preserving on [0, kappa]; on
    # local_delayed_rd kappa rounds up, g'(kappa) = -4.4e-16 is snapped to 0,
    # and theta is 1 exactly
    spec, cfg = wf.load_model(path)
    prob = spec.to_convolution_form(float(cfg["c"]))
    assert prob.relaxation == 1.0


@pytest.mark.parametrize("name", ["local_delayed_rd", "cases/local_delay_half"])
def test_snapped_relaxation_skips_the_blend(name):
    # kappa = 0.5000000000000001 puts the logistic's g'(kappa) one rounding
    # below 0: the drop is within SLOPE_SNAP_RTOL g'(0), so theta is 1 and a
    # sweep is the pin shift of N[phi] itself, with no (1 - theta) phi term
    prob, grid, init = pinned_case(name)
    kappa = prob.equilibrium()
    g = prob.atoms[0].nonlinearity
    assert kappa == 0.5000000000000001
    assert 0.0 < -g.slopes(0.0, kappa)[0] <= ConvolutionProblem.SLOPE_SNAP_RTOL * g.gprime0
    assert prob.relaxation == 1.0
    pinned = wavesolver.PinnedMap(prob, grid, init)
    assert pinned.theta == 1.0
    phi, out = pinned.initial, np.empty(grid.n)
    for _ in range(3):
        update, drift, low = pinned.step(phi, out)
        lam = pinned.closure_rate
        new = wavesolver.apply_operator(prob, phi, grid, lam)
        assert low.hex() == float(new.min()).hex()
        assert drift.hex() == (level_crossing(grid.ts, new, pinned.pin_level) - pinned.t_pin).hex()
        expect = _apply_taps(new, _taps(grid, -drift, lam), np.empty(grid.n))
        assert out.tobytes() == expect.tobytes()
        phi, out = out, np.empty(grid.n)


@pytest.mark.parametrize("name, theta", [
    # g'(kappa) = -8 and -2: a real drop, far beyond the snap
    ("cases/local_rate_10", 0.20000000000000026),
    ("cases/mackey_glass_h0", 0.5),
])
def test_relaxation_keeps_a_real_negative_slope(name, theta):
    spec, cfg = wf.load_model(MODELS_DIR / f"{name}.json")
    assert spec.to_convolution_form(float(cfg["c"])).relaxation == theta


def test_relaxation_balances_a_negative_slope():
    # logistic rate 2.5 with L = 2.5: ell = 0.5, theta = 2 / 2.5
    prob = wf.LocalDelayedRD(g=wf.logistic(2.5, 1.0), L=2.5,
                             delay=0.0).to_convolution_form(3.0)
    assert prob.relaxation == pytest.approx(0.8, abs=1e-9)


def test_relaxation_halves_once_ell_reaches_two(monkeypatch):
    prob = mackey_glass_problem()
    assert prob.relaxation == pytest.approx(0.5, abs=1e-9)
    # cached: the slopes are sampled once per problem
    calls = []
    derivative = wf.Nonlinearity.derivative
    monkeypatch.setattr(wf.Nonlinearity, "derivative",
                        lambda *a: calls.append(a) or derivative(*a))
    assert prob.relaxation == pytest.approx(0.5, abs=1e-9)
    assert calls == []


def test_relaxation_falls_below_one_half_and_the_solve_converges():
    # logistic rate 10 at c = 7.2 > c* = 6: g'(kappa) = -8, ell = 8, theta = 1/5;
    # theta = 1/2 drove the sweeps negative
    spec, cfg = wf.load_model(MODELS_DIR / "cases" / "local_rate_10.json")
    prob = spec.to_convolution_form(float(cfg["c"]))
    assert prob.relaxation == pytest.approx(0.2, abs=1e-9)
    prof = wf.solve_profile(prob, wf.Grid(-60.0, 40.0, 4096),
                            wavesolver.default_init(prob))
    assert prof.convergence["relaxation"] == prob.relaxation
    assert prof.convergence["residual"] < 1e-4
    assert np.all(prof.values >= 0.0)


def test_mackey_glass_converges_within_80_sweeps(monkeypatch):
    # plain iteration (theta = 1) needs 256 sweeps here, the relaxed one 69
    # under the Picard driver and 57 under the two-step driver
    prob = mackey_glass_problem()
    sweeps = count_sweeps(monkeypatch)
    prof = wf.solve_profile(prob, wf.Grid(-60.0, 40.0, 4096),
                            wf.CappedExponential(prob.spectral.lambda_l,
                                                 prob.equilibrium() / 2.0))
    assert prof.convergence["relaxation"] == prob.relaxation
    assert prof.convergence["iterations"] == len(sweeps) - 1  # one residual
    assert len(sweeps) - 1 <= 80


# apply_operator calls of verify at each shipped model's own c with the
# constant damping theta = 0.5 that preceded the per-problem relaxation
DAMPED_VERIFY_SWEEPS = {"local_delayed_rd": 271, "nonlocal_delayed_rd": 284,
                        "nonlocal_kpp_gaussian": 491, "nonlocal_lattice": 594}


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_verify_sweeps_at_most_three_quarters_of_damped(path, tmp_path, monkeypatch):
    sweeps = count_sweeps(monkeypatch)
    main(["verify", "--model", str(path), "--out", str(tmp_path / "out")])
    assert 0 < len(sweeps) <= 0.75 * DAMPED_VERIFY_SWEEPS[path.stem]


# apply_operator calls of solve plus verify over the four shipped models, each
# at its own c, under the Picard driver the two-step driver replaced: solve
# 52/44/97/238 and verify 127/155/237/394 (the two-step driver makes 1,118)
PICARD_SHIPPED_SWEEPS = 1344


def test_two_step_driver_saves_a_tenth_of_the_picard_sweeps(tmp_path, monkeypatch):
    sweeps = count_sweeps(monkeypatch)
    for path in sorted(MODELS_DIR.glob("*.json")):
        for command in ("solve", "verify"):
            main([command, "--model", str(path), "--out", str(tmp_path / path.stem)])
    assert 0 < len(sweeps) <= 0.9 * PICARD_SHIPPED_SWEEPS


def test_stop_rule_outlasts_a_dip_of_the_update():
    # the Picard driver stopped the shipped local_delayed_rd at sweep 51, on
    # one sweep whose update dipped below tol, 2.92e-6 from the tight solve;
    # five settled sweeps in a row put it within 1e-7
    prob, grid, init = pinned_case("local_delayed_rd")
    profile = wf.solve_profile(prob, grid, init)
    tight = wf.solve_profile(prob, grid, init, wf.SolveOptions(tol=1e-12))
    assert float(np.max(np.abs(profile.values - tight.values))) <= 1e-7


@pytest.mark.parametrize("ell", [0.5, 2.0, 8.0, 50.0])
def test_extrapolation_is_stable_on_the_most_negative_mode(ell):
    # heavy ball x <- (1 + beta) mu x - beta mu x_prev on the relaxed map's
    # mode mu = -ell / (2 + ell): both roots of its characteristic polynomial
    # lie in the unit disc exactly when beta < 1 / ell
    theta = 2.0 / (2.0 + ell)
    beta = wavesolver._extrapolation(theta)
    assert beta == pytest.approx(min(0.3, 1.0 / (2.0 * ell)), rel=1e-12)
    mu = -ell / (2.0 + ell)
    roots = np.roots([1.0, -(1.0 + beta) * mu, beta * mu])
    assert np.all(np.abs(roots) < 1.0)
    # the cap of the order-preserving problems
    assert wavesolver._extrapolation(1.0) == 0.3


# sup distance of the Picard driver's default-tol profile from the tol = 1e-12
# solve, from verify's capped exponential and from its ramp
PICARD_DISTANCE = {("cases/local_rate_10", 0): 1.57e-7, ("cases/local_rate_10", 1): 2.32e-6,
                   ("cases/mackey_glass_h0", 0): 1.37e-5, ("cases/mackey_glass_h0", 1): 7.94e-8}


@pytest.mark.parametrize("name, init", sorted(PICARD_DISTANCE))
def test_capped_extrapolation_converges_where_theta_is_below_one(name, init):
    # beta = 1/16 on local_rate_10 (theta = 1/5) and 1/4 on mackey_glass_h0
    # (theta = 1/2): no farther from the tight solve than the Picard driver
    prob, grid, capped = pinned_case(name)
    ramp = np.clip((grid.ts - grid.t_min) / -grid.t_min, 0.0, 1.0) * prob.equilibrium()
    start = (capped, ramp)[init]
    profile = wf.solve_profile(prob, grid, start)
    tight = wf.solve_profile(prob, grid, start, wf.SolveOptions(tol=1e-12))
    assert profile.convergence["extrapolation"] < 0.3
    assert np.all(profile.values >= 0.0)
    distance = float(np.max(np.abs(profile.values - tight.values)))
    assert distance <= 1.1 * PICARD_DISTANCE[name, init]


def test_no_iterate_the_map_receives_is_negative(tmp_path, monkeypatch):
    # the driver clips x at 0; on the shipped models the clip never decides
    # the sign, but the map must never be fed a negative entry
    received = []
    step = wavesolver.PinnedMap.step

    def checking(self, phi, out):
        received.append(float(np.min(phi)))
        return step(self, phi, out)

    monkeypatch.setattr(wavesolver.PinnedMap, "step", checking)
    for path in sorted(MODELS_DIR.glob("*.json")):
        main(["verify", "--model", str(path), "--out", str(tmp_path / path.stem)])
    assert len(received) > 100
    assert min(received) >= 0.0


def test_solve_noncritical(noncritical_profile):
    prob, prof = noncritical_profile
    assert prof.convergence["residual"] < 1e-6
    tail = prof.values[-40:]
    assert np.max(np.abs(tail - 0.5)) < 1e-4
    assert prof.values[0] <= 1e-3 * prof.plateau
    assert np.all(prof.values >= 0.0)
    assert prof.plateau == pytest.approx(0.5, abs=1e-10)


def test_solve_monotone_left_tail(noncritical_profile):
    _, prof = noncritical_profile
    sel = prof.grid.ts <= prof.grid.t_min / 2.0
    assert np.all(np.diff(prof.values[sel]) >= -1e-12)


def test_residual_detects_spike(noncritical_profile):
    prob, prof = noncritical_profile
    spiked = wf.WaveProfile(grid=prof.grid, values=prof.values.copy(),
                            speed=prof.speed, plateau=prof.plateau)
    spiked.values[2000] += 0.1
    assert wf.residual(prob, spiked) >= 0.05
    assert wf.residual(prob, prof) < 1e-6


def test_solve_below_minimal_speed_rejected():
    prob = local_problem(1.0)
    assert prob.spectral is None
    with pytest.raises(NoRoots, match="no positive zero"):
        wf.real_roots(prob.charfun())
    grid = wf.Grid(-60.0, 40.0, 2048)
    with pytest.raises(NoWave, match="no positive zero of chi"):
        wf.solve_profile(prob, grid, wf.CappedExponential(0.5, 0.5),
                         wf.SolveOptions(max_iter=400))


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_models_below_c_star_recede_within_1000_sweeps(path, monkeypatch):
    # chi has no positive zero, so the verdict needs no sweep
    spec, _ = wf.load_model(path)
    c_star, _ = wf.model_min_speed(spec)
    grid = wf.Grid(-60.0, 40.0, 4096)
    sweeps = count_sweeps(monkeypatch)
    for fraction in (0.8, 0.95, 0.99):
        prob = spec.to_convolution_form(fraction * c_star)
        assert prob.spectral is None
        with pytest.raises(NoWave, match="no positive zero of chi"):
            wf.solve_profile(prob, grid,
                             wf.CappedExponential(1.0, prob.equilibrium() / 2.0))
        assert sweeps == [], fraction


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_models_just_below_c_star_give_no_wave(path, monkeypatch):
    # just below c* the pinned front barely drifts; with no positive zero of
    # chi there is still no wave (necessity argument), decided before a sweep
    spec, _ = wf.load_model(path)
    c_star, _ = wf.model_min_speed(spec)
    prob = spec.to_convolution_form(0.999 * c_star)
    assert prob.spectral is None
    sweeps = count_sweeps(monkeypatch)
    # the CLI's grid, tolerance, iteration cap and default init
    with pytest.raises(NoWave, match="no positive zero of chi"):
        wf.solve_profile(prob, wf.Grid(-60.0, 40.0, 4096),
                         wf.CappedExponential(1.0, prob.equilibrium() / 2.0),
                         wf.SolveOptions(tol=1e-8, max_iter=20000))
    assert sweeps == []


def test_below_c_star_bad_init_still_rejected():
    # the init checks come before the spectral verdict
    prob = local_problem(1.0)
    assert prob.spectral is None
    grid = wf.Grid(-60.0, 40.0, 1024)
    negative = np.minimum(np.exp(0.5 * grid.ts), 0.5) - 1e-3
    with pytest.raises(NegativeValues, match="initial profile"):
        wf.solve_profile(prob, grid, negative)
    with pytest.raises(ValueError, match="shape"):
        wf.solve_profile(prob, grid, np.full(grid.n - 1, 0.25))


def test_settled_translation_with_roots_is_no_false_no_wave():
    # the shipped nonlocal_delayed_rd at c = 3 from the verify ramp: chi has
    # a positive zero, so a wave exists and no translation verdict may say
    # otherwise; a drifting fixed point is a resolution failure
    spec, cfg = wf.load_model(MODELS_DIR / "nonlocal_delayed_rd.json")
    prob = spec.to_convolution_form(cfg["c"])
    assert prob.spectral is not None
    grid = wf.Grid(-60.0, 40.0, 4096)
    ramp = np.clip((grid.ts - grid.t_min) / -grid.t_min, 0.0, 1.0) * prob.equilibrium()
    with pytest.raises(TailUnresolved) as exc:
        wf.solve_profile(prob, grid, ramp, wf.SolveOptions(max_iter=20000))
    assert re.search(r"\(\+[^ ]+ per sweep over 50 sweeps, sweep \d+\)", str(exc.value))
    assert "phi(t_min)/kappa" in str(exc.value)


def test_solve_negative_values_detected():
    # pushing the profile far above the carrying capacity makes g negative
    prob = local_problem(2.5)
    grid = wf.Grid(-60.0, 40.0, 2048)
    with pytest.raises(NegativeValues):
        wf.solve_profile(prob, grid, wf.CappedExponential(0.5, 40.0),
                         wf.SolveOptions(max_iter=50))


def test_translation_covariance(local_model, solver_grid):
    prob = local_model.to_convolution_form(2.5)
    opts = wf.SolveOptions(tol=1e-9, max_iter=20000)
    base = wf.solve_profile(prob, solver_grid, wf.CappedExponential(0.5, 0.5), opts)
    delta = 32 * solver_grid.step
    ts = solver_grid.ts
    shifted_init = np.minimum(np.exp(0.5 * (ts - delta)), 0.5)
    moved = wf.solve_profile(prob, solver_grid, shifted_init, opts)
    shift, sup = wf.align_translate(base, moved)
    assert shift == pytest.approx(delta, abs=1e-3)
    assert sup <= 10 * 1e-4  # alignment-interpolation limited


def test_grid_refinement_stability(local_model):
    # doubling n moves the converged profile by less than 5 tol on common
    # points; the movement floors at the O(step^2) discretization shift
    # (~1e-5 for these grids), so tol must sit above that floor
    tol = 1e-4
    opts = wf.SolveOptions(tol=tol, max_iter=20000)
    prob = local_model.to_convolution_form(2.5)
    prof_a = wf.solve_profile(prob, wf.Grid(-60.0, 40.0, 2048),
                              wf.CappedExponential(0.5, 0.5), opts)
    prof_b = wf.solve_profile(prob, wf.Grid(-60.0, 40.0, 4095),
                              wf.CappedExponential(0.5, 0.5), opts)
    ts_a = prof_a.grid.ts
    common = (ts_a > -50.0) & (ts_a < 30.0)
    vals_b = np.interp(ts_a[common], prof_b.grid.ts, prof_b.values)
    diff = float(np.max(np.abs(prof_a.values[common] - vals_b)))
    assert diff < 5 * tol


def test_max_iter_carries_profile():
    prob = local_problem(2.5)
    grid = wf.Grid(-60.0, 40.0, 1024)
    with pytest.raises(MaxIterExceeded) as exc:
        wf.solve_profile(prob, grid, wf.CappedExponential(0.5, 0.5),
                         wf.SolveOptions(tol=1e-12, max_iter=3))
    assert exc.value.profile is not None
    assert exc.value.profile.values.shape == (1024,)


def test_discrete_decay_rate_close_to_analytic():
    prob = local_problem(2.5)
    grid = wf.Grid(-60.0, 40.0, 4096)
    lam_h = wf.discrete_decay_rate(prob, grid)
    assert lam_h == pytest.approx(0.5, abs=1e-3)
    # refine the grid: the discrete rate converges to the analytic one
    lam_h2 = wf.discrete_decay_rate(prob, wf.Grid(-60.0, 40.0, 8192))
    assert abs(lam_h2 - 0.5) < 0.3 * abs(lam_h - 0.5)


def test_profile_converges_to_the_exact_fisher_wave():
    # u_t = u_xx + u(1 - u) at c = 5/sqrt(6) has the exact wave
    # (1 + e^{-(t - s)/sqrt(6)})^{-2} (Ablowitz and Zeppetella, Bull. Math.
    # Biol. 41, 1979), with lambda_l = sqrt(2/3).  Aligned at its half
    # crossing, the solved profile is O(step^2) from it: 1.00e-5, 2.57e-6 and
    # 6.31e-7 at these n, ratios 3.91 and 4.07, and the closure rate sits
    # 0.272 step^2 above lambda_l
    spec, cfg = wf.load_model(MODELS_DIR / "cases" / "fisher_exact.json")
    prob = spec.to_convolution_form(float(cfg["c"]))
    assert float(cfg["c"]) == pytest.approx(5.0 / math.sqrt(6.0), rel=1e-15)
    # the exact wave crosses 1/2 at s + sqrt(6) ln(1 + sqrt(2))
    half = math.sqrt(6.0) * math.log1p(math.sqrt(2.0))
    errors = {}
    for n in (2048, 4096, 8192):
        grid = wf.Grid(-60.0, 40.0, n)
        prof = wf.solve_profile(prob, grid, wavesolver.default_init(prob),
                                wf.SolveOptions(tol=1e-12))
        s = level_crossing(grid.ts, prof.values, 0.5) - half
        exact = (1.0 + np.exp(-(grid.ts - s) / math.sqrt(6.0))) ** -2
        inner = slice(wavesolver.EDGE_POINTS, n - wavesolver.EDGE_POINTS)
        errors[n] = float(np.max(np.abs(prof.values - exact)[inner]))
        offset = prof.convergence["closure_rate"] - math.sqrt(2.0 / 3.0)
        assert abs(offset) <= 0.3 * grid.step ** 2
    assert errors[4096] <= 3e-6
    for coarse, fine in ((2048, 4096), (4096, 8192)):
        assert errors[coarse] / errors[fine] == pytest.approx(4.0, abs=0.3)



@pytest.mark.parametrize("spec, c, a", [
    manufactured.local_delayed(a=0.5, c=2.5, h=0.5),
    manufactured.local_delayed(a=0.6, c=2.5, h=0.0),
    manufactured.lattice(a=0.4, c=3.0, h=0.3, D=1.0, d=1.0, k0=1),
], ids=["local_delayed_h05", "local_h0", "lattice_h03"])
def test_profile_converges_to_a_manufactured_exact_wave(spec, c, a):
    # sigma(a t) is the exact wave of its manufactured g (tests/manufactured.py),
    # under the Green kernel in the two local cases and the one-sided
    # exponential on the lattice.  Aligned at the 1/4 crossing, sigma(a t*)
    # = 1/4 at t* = -ln(3) / a, the error falls ~4x per doubling (3.3-5.0
    # at these n; 3.4e-6 to 4.2e-6 at n = 4,096), and the tail fit reads
    # the known rate a to within 6e-5
    prob = spec.to_convolution_form(c)
    errors = {}
    for n in (1024, 2048, 4096):
        grid = wf.Grid(-60.0, 40.0, n)
        prof = wf.solve_profile(prob, grid, wavesolver.default_init(prob),
                                wf.SolveOptions(tol=1e-11))
        s = level_crossing(grid.ts, prof.values, 0.25) + math.log(3.0) / a
        exact = 1.0 / (1.0 + np.exp(-a * (grid.ts - s)))
        inner = slice(wavesolver.EDGE_POINTS, n - wavesolver.EDGE_POINTS)
        errors[n] = float(np.max(np.abs(prof.values - exact)[inner]))
    assert errors[4096] <= 5e-6
    for coarse, fine in ((1024, 2048), (2048, 4096)):
        assert 3.0 <= errors[coarse] / errors[fine] <= 6.0
    assert abs(wf.fit_decay(prof).lambda_hat - a) <= 1e-4

# rightward dispersal: gamma_K = inf and chi_h rises without bound, so the
# closure rate's bracket search reaches lam dt > 709
RIGHTWARD_KERNELS = [
    {"shape": "dirac_comb", "offsets": [2.0], "weights": [1.0]},
    {"shape": "exponential_onesided", "rate": 1.0, "shift": 0.5},
    {"shape": "dirac_comb", "offsets": [1.0, 3.0], "weights": [0.5, 0.5]},
]


@pytest.mark.parametrize("kernel", RIGHTWARD_KERNELS)
def test_rightward_dispersal_solves(kernel):
    prob = wf.NonlocalKPP(J=kernel_from_dict(kernel), g=wf.logistic(0.5, 1.0)).to_convolution_form(1.0)
    profile = wf.solve_profile(prob, wf.Grid(-60.0, 40.0, 4096),
                               wf.CappedExponential(prob.spectral.lambda_l, prob.equilibrium() / 2.0))
    assert profile.convergence["closure_rate"] == pytest.approx(prob.spectral.lambda_l, abs=1e-4)


def test_left_margin_enforced(monkeypatch):
    # a valid wave the grid cannot hold is TailUnresolved, not malformed
    # input, and it is found before the first sweep
    sweeps = count_sweeps(monkeypatch)
    prob = local_problem(2.5)
    with pytest.raises(TailUnresolved, match=r"need t_min <= -10\b"):
        wf.solve_profile(prob, wf.Grid(-6.0, 40.0, 1024),
                         wf.CappedExponential(0.5, 0.5))
    # delayed Mackey-Glass at c = 3: lambda_l ~ 0.059 needs t_min <= -84.48,
    # beyond the default grid's -60
    mg = wf.LocalDelayedRD(g=wf.mackey_glass(2.0, 6.0), L=3.0,
                           delay=3.0).to_convolution_form(3.0)
    with pytest.raises(TailUnresolved, match=r"need t_min <= -84\.4782"):
        wf.solve_profile(mg, wf.Grid(-60.0, 40.0, 4096),
                         wf.CappedExponential(mg.spectral.lambda_l, mg.equilibrium() / 2.0))
    assert sweeps == []


def test_level_crossing_interpolation():
    ts = np.linspace(-5, 5, 101)
    vals = np.clip(ts, 0.0, None)
    assert level_crossing(ts, vals, 0.55) == pytest.approx(0.55, abs=1e-12)


def test_profile_csv_round_trip(tmp_path, noncritical_profile):
    _, prof = noncritical_profile
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], prof.grid.ts, rtol=1e-15)
    np.testing.assert_allclose(data[:, 1], prof.values, rtol=1e-15)


def _row_loop(header, a, b) -> bytes:
    """The CSV that the per-row f"{a:.17g},{b:.17g}" loop writes."""
    return (header + "\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(a, b))).encode()


def test_csv_writer_matches_row_loop(tmp_path):
    # profile.csv and chi_trace.csv are written in one call over a row
    # template; the bytes must be those of the per-row loop they replaced
    grid = wf.Grid(-3.0, 2.0, 64)
    values = np.linspace(-1.0, 1.0, 64) / 3.0
    values[[0, 5, 9, 17, 30, 41, 63]] = [-0.0, np.inf, np.nan, 5e-324, -np.inf,
                                         2.2250738585072014e-308 / 3.0, 0.0]
    path = tmp_path / "profile.csv"
    wf.WaveProfile(grid, values, speed=1.0, plateau=1.0).to_csv(path)
    loop = _row_loop("t,phi", grid.ts, values)
    assert path.read_bytes() == loop
    for text in (b",-0\n", b",inf\n", b",-inf\n", b",nan\n", b",4.9406564584124654e-324\n"):
        assert text in loop
    # the special values in the first column too, as chi_trace.csv's x can hold them
    write_csv(path, "x,chi", row_format(values[::-1]), values)
    loop = _row_loop("x,chi", values[::-1], values)
    assert path.read_bytes() == loop
    for text in (b"\n-0,", b"\ninf,", b"\n-inf,", b"\nnan,", b"\n4.9406564584124654e-324,"):
        assert text in loop


def test_profile_csv_rows_are_cached_per_grid(tmp_path):
    # one process writes on two grids in turn, then on the first again, on an
    # equal but distinct Grid and on one of the same size with other bounds:
    # every file is the per-row loop's, byte for byte
    grids = [wf.Grid(-60.0, 40.0, 4096), wf.Grid(-60.0, 40.0, 4001),
             wf.Grid(-60.0, 40.0, 4096), wf.Grid(-60.0, 40.0, 4096),
             wf.Grid(-50.0, 50.0, 4096)]
    assert grids[3] is not grids[0] and grids[3] == grids[0]
    for i, grid in enumerate(grids):
        values = np.tanh(grid.ts / (i + 1.0)) + 1.0
        path = tmp_path / f"profile-{i}.csv"
        wf.WaveProfile(grid, values, speed=1.0, plateau=2.0).to_csv(path)
        assert path.read_bytes() == _row_loop("t,phi", grid.ts, values)
    assert wavesolver._profile_rows(grids[3]) is wavesolver._profile_rows(grids[0])


def test_profile_csv_refuses_a_length_mismatch(tmp_path):
    grid = wf.Grid(-3.0, 2.0, 64)
    values = np.linspace(0.0, 1.0, 64)
    for wrong in (values[:-1], np.append(values, 1.0)):
        prof = wf.WaveProfile(grid, wrong, speed=1.0, plateau=1.0)
        with pytest.raises(ValueError, match=f"{len(wrong)} values on a grid of 64 points"):
            prof.to_csv(tmp_path / "profile.csv")
    assert not (tmp_path / "profile.csv").exists()
