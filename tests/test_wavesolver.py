import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import wavefront as wf
from wavefront import wavesolver
from wavefront.errors import (MaxIterExceeded, NegativeValues, NoRoots, NoWave,
                              TailUnresolved)
from wavefront.kernels import shift_kernel
from wavefront.wavesolver import convolve_field, level_crossing


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


def test_grid_validation():
    with pytest.raises(ValueError):
        wf.Grid(-1.0, 1.0, 32)
    with pytest.raises(ValueError):
        wf.Grid(1.0, 2.0, 128)
    g = wf.Grid(-10.0, 10.0, 101)
    assert g.step == pytest.approx(0.2)
    assert len(g.ts) == 101


# --- field convolution building blocks ---------------------------------------

def quad_conv_oracle(kernel, field_fn, t, lo=-60.0, hi=60.0):
    points = [p for p in (getattr(kernel, "shift", None),) if p is not None]
    if isinstance(kernel, wf.TabulatedKernel):
        # panels split at every node, where the interpolant has its kinks
        lo, hi = kernel.support()
        points = list(kernel.grid[1:-1])
    val, _ = integrate.quad(lambda s: float(kernel.value(s)) * field_fn(t - s),
                            lo, hi, limit=400, points=points)
    return val


def skewed_tabulated(n=161):
    """Skewed bump whose node step (0.10125) is not a multiple of any test grid step."""
    nodes = np.linspace(-7.3, 8.9, n)
    vals = np.exp(-nodes ** 2 / 2.0) * (1.0 + 0.3 * np.tanh(nodes))
    return wf.TabulatedKernel(tuple(nodes), tuple(vals))


@pytest.mark.parametrize("kernel", [
    wf.OneSidedExponential(rate=1.3, shift=0.0),
    wf.OneSidedExponential(rate=0.9, direction=-1),
    wf.PiecewiseGreen.from_speed_damping(2.5, 1.0),
    wf.PiecewiseGreen.from_speed_damping(2.0, 1.5, shift=0.8),
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
    out = convolve_field(kernel, ts, G, lam_left=None)
    for idx in (1000, 2048, 3000):
        expect = quad_conv_oracle(kernel, field_fn, ts[idx])
        assert out[idx] == pytest.approx(expect, abs=2e-5 * (1 + abs(expect)))


def test_convolve_field_second_order_convergence():
    kernel = wf.PiecewiseGreen.from_speed_damping(2.5, 1.0)
    field_fn = lambda t: math.exp(-((t - 2.0) ** 2) / 8.0)
    errs = []
    for n in (2049, 4097):
        grid = wf.Grid(-40.0, 40.0, n)
        ts = grid.ts
        G = np.array([field_fn(t) for t in ts])
        out = convolve_field(kernel, ts, G, lam_left=None)
        mid = n // 2
        errs.append(abs(out[mid] - quad_conv_oracle(kernel, field_fn, ts[mid])))
    assert errs[1] <= errs[0] / 3.0  # ~ O(step^2)


def test_convolve_field_comb_is_exact_shift():
    grid = wf.Grid(-10.0, 10.0, 201)
    ts = grid.ts
    G = np.sin(ts) + 2.0
    comb = wf.DiracComb((1.0,), (2.0,))
    out = convolve_field(comb, ts, G, lam_left=None)
    expect = 2.0 * np.interp(ts - 1.0, ts, G, left=0.0, right=G[-1])
    sel = ts - 1.0 >= ts[0]
    np.testing.assert_allclose(out[sel], expect[sel], rtol=1e-12)


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
        out = convolve_field(kernel, ts, G, lam_left=0.5)
        mid = len(ts) // 2
        assert out[mid] == pytest.approx(kernel.mass, rel=1e-9)


def test_convolve_field_rejects_kernel_between_grid_points():
    # a bump that no multiple of the step reaches would act as zero
    ts = wf.Grid(-10.0, 10.0, 201).ts
    bump = wf.TabulatedKernel((0.01, 0.02, 0.03), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="grid step"):
        convolve_field(bump, ts, np.ones_like(ts), lam_left=None)


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
    out = convolve_field(kernel, ts, G, lam_left=lam_left)
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


# --- solver -------------------------------------------------------------------

def test_solve_zero_init_is_no_wave():
    prob = local_problem()
    grid = wf.Grid(-30.0, 20.0, 512)
    with pytest.raises(NoWave):
        wf.solve_profile(prob, grid, np.zeros(512), wf.SolveOptions(max_iter=5))


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
    spec, cfg = wf.load_model(path)
    M, margin = cfg.get("bound"), cfg.get("margin", 1.0)
    c_star, _ = wf.model_min_speed(spec, M, margin)
    grid = wf.Grid(-60.0, 40.0, 4096)
    sweeps = count_sweeps(monkeypatch)
    for fraction in (0.8, 0.95, 0.99):
        prob = spec.to_convolution_form(fraction * c_star, M, margin)
        assert prob.spectral is None
        with pytest.raises(NoWave, match="no positive zero of chi"):
            wf.solve_profile(prob, grid,
                             wf.CappedExponential(1.0, prob.equilibrium() / 2.0))
        assert sweeps == [], fraction


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_models_just_below_c_star_give_no_wave(path, monkeypatch):
    # just below c* the pinned front barely drifts; with no positive zero of
    # chi there is still no wave (necessity argument), decided before a sweep
    spec, cfg = wf.load_model(path)
    M, margin = cfg.get("bound"), cfg.get("margin", 1.0)
    c_star, _ = wf.model_min_speed(spec, M, margin)
    prob = spec.to_convolution_form(0.999 * c_star, M, margin)
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
    try:
        wf.solve_profile(prob, grid, ramp, wf.SolveOptions(max_iter=20000))
    except TailUnresolved as exc:
        assert re.search(r"\(\+[^ ]+ per sweep over 50 sweeps, sweep \d+\)", str(exc))
        assert "phi(t_min)/kappa" in str(exc)


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
    lam_h = wf.discrete_decay_rate(prob, grid, prob.spectral.lambda_l)
    assert lam_h == pytest.approx(0.5, abs=1e-3)
    # refine the grid: the discrete rate converges to the analytic one
    lam_h2 = wf.discrete_decay_rate(prob, wf.Grid(-60.0, 40.0, 8192),
                                    prob.spectral.lambda_l)
    assert abs(lam_h2 - 0.5) < 0.3 * abs(lam_h - 0.5)


def test_left_margin_enforced():
    prob = local_problem(2.5)
    with pytest.raises(ValueError):
        wf.solve_profile(prob, wf.Grid(-6.0, 40.0, 1024),
                         wf.CappedExponential(0.5, 0.5))


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
