"""Acceptance suite: one test per criterion, at the pinned tolerances.

Each criterion prints one PASS/FAIL line.  Criterion 6 checks the decay
representation on both sides of the harmonic gap: the solved profile's
remainder after the leading exponential carries the quadratic harmonic at
twice the decay rate, which caps the admissible delta at
max_supported_delta = 0.5 for this model.  The representation passes at
delta = 0.45, inside the cap, and fails at delta = 0.75 with a remainder
slope of cap - delta.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import wavefront as wf
from wavefront.errors import MaxIterExceeded, NoRoots, NoWave
from wavefront.kernels import shift_kernel

import closed_forms
from quadrature import laplace_by_quad

GAUSS_C_STAR = 2.544841358927859  # 1-d grid-search oracle, z in (0.01, 3], step 1e-5


@contextmanager
def criterion(num, limit_s, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {label}")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed < limit_s else "FAIL (over time budget)"
    print(f"[criterion {num:02d}] {status}  {label}  ({elapsed:.2f}s < {limit_s:g}s)")
    assert elapsed < limit_s


@pytest.fixture(scope="module")
def local_family():
    return wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=0.0)


@pytest.fixture(scope="module")
def acceptance_grid():
    return wf.Grid(-60.0, 40.0, 4096)


@pytest.fixture(scope="module")
def solved_noncritical(local_family, acceptance_grid):
    prob = local_family.to_convolution_form(2.5)
    prof = wf.solve_profile(prob, acceptance_grid, wf.CappedExponential(0.5, 0.5),
                            wf.SolveOptions(tol=1e-9, max_iter=20000))
    return prob, prof


def test_criterion_01_closed_form_minimal_speed(local_family):
    with criterion(1, 1.0, "closed-form minimal speed c*=2, z*=1"):
        c_star, z_star = wf.model_min_speed(local_family, via="closed_form")
        assert abs(c_star - 2.0) < 1e-6
        assert abs(z_star - 1.0) < 1e-6


def test_criterion_02_root_dichotomy(local_family):
    with criterion(2, 1.0, "root dichotomy at c=2.5 / 2.0 / 1.0"):
        sd = wf.real_roots(local_family.to_convolution_form(2.5).charfun())
        assert abs(sd.lambda_l - 0.5) < 1e-8
        assert abs(sd.lambda_r - 2.0) < 1e-8
        sd_crit = wf.real_roots(local_family.to_convolution_form(2.0).charfun())
        assert sd_crit.critical
        with pytest.raises(NoRoots):
            wf.real_roots(wf.CharacteristicFunction(
                ((wf.PiecewiseGreen.from_speed_damping(1.0, 1.0), 2.0),)))


def test_criterion_03_laplace_exactness():
    rng = np.random.default_rng(3)
    nodes = np.linspace(-8.0, 8.0, 161)
    tabulated = wf.TabulatedKernel(tuple(nodes), tuple(np.exp(-nodes ** 2 / 2.0)))
    kernels = [wf.GaussianKernel(1.0),
               shift_kernel(wf.OneSidedExponential(rate=1.5), 0.3),
               wf.PiecewiseGreen.from_speed_damping(2.5, 1.0),
               tabulated]
    with criterion(3, 5.0, "transforms match closed forms at 200 strip points"):
        for k in kernels:
            lo, hi = k.abscissas()
            lo, hi = max(lo, -6.0), min(hi, 6.0)
            zs = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 200).astype(complex)
            if k is tabulated:
                # half the points off the real axis too: the quadrature must
                # split at every node, where the interpolant kinks
                zs[100:] += 1j * rng.uniform(-2.0, 2.0, 100)
            closed = k.laplace(zs)
            quad = laplace_by_quad(k, zs)
            assert np.all(np.abs(closed - quad) <= 1e-8 * (1.0 + np.abs(closed)))


def test_criterion_04_reduction_identity():
    rng = np.random.default_rng(4)
    families = [
        wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0)),
        wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={-1: 0.3, 0: 0.4, 2: 0.3},
                           g=wf.logistic(2.0, 1.0), delay=0.5),
        wf.NonlocalDelayedRD(f=wf.linear(1.0), g=wf.logistic(2.0, 1.0),
                             k=wf.GaussianKernel(1.0), delay=0.5),
        wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=1.0),
    ]
    with criterion(4, 10.0, "assembled chi == tilde/denominator on all four families"):
        for m in families:
            prob = m.to_convolution_form(2.0)
            cf = prob.charfun()
            lo, hi = cf.strip
            lo, hi = max(lo, -2.0), min(hi, 3.0)
            xs = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 50)
            for j, x in enumerate(xs):
                z = complex(x, rng.uniform(-2, 2) if j % 2 else 0.0)
                lhs = complex(np.asarray(cf(z)).item())
                closed = (closed_forms.tilde_chi(m, z, 2.0)
                          / closed_forms.denominator(m, z, 2.0,
                                                     closed_forms.slope_shift(m, prob)))
                rhs = complex(np.asarray(closed).item())
                assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_criterion_05_beta_invariance():
    kpp = wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0))
    with criterion(5, 10.0, "c* of the dispersal family is slope-shift invariant"):
        # the bound M sets beta = 2 M - 1: 2, 5 and 19
        cs = [wf.model_min_speed(kpp, M)[0] for M in (1.5, 3.0, 10.0)]
        assert max(cs) - min(cs) < 1e-8
        for c in cs:
            assert abs(c - GAUSS_C_STAR) < 1e-8


def test_criterion_06_wave_solve_and_decay(solved_noncritical):
    prob, prof = solved_noncritical
    with criterion(6, 60.0, "noncritical solve: residual, plateau, decay law"):
        assert prof.convergence["residual"] < 1e-6
        plateau_err = abs(float(np.max(prof.values[-40:])) - 0.5)
        assert plateau_err < 1e-4
        fit = wf.fit_decay(prof)
        assert abs(fit.lambda_hat - 0.5) <= 0.02 * 0.5
        assert fit.k_hat == 0
        # the representation law holds for every delta below the harmonic gap
        # alpha * lambda_l = 0.5 of this quadratic birth term
        rep = wf.check_representation(prof, prob.spectral, delta=0.45)
        assert rep.passed


def test_criterion_06_representation_delta_075(solved_noncritical):
    """Representation FAIL at delta = 0.75, beyond the harmonic gap.

    The quadratic birth term puts the harmonic e^{(1+alpha) lambda_l t} into
    the remainder, so max_supported_delta caps delta at
    alpha * lambda_l = 0.5.  Beyond the cap r(t) grows leftward with
    log-slope cap - delta = -0.25, and the check must report FAIL with that
    slope.  The PASS side of the gap (delta = 0.45) is asserted in the
    companion criterion-6 test.
    """
    prob, prof = solved_noncritical
    # the logistic g(u) - g'(0) u = -(rate / carrying) u^2 has Hoelder exponent 1
    alpha = 1.0
    cap = wf.max_supported_delta(prob.spectral, alpha)
    with criterion(6, 60.0, "representation check at delta = 0.75 (beyond the harmonic gap)"):
        assert cap == pytest.approx(0.5)
        assert 0.75 > cap
        rep = wf.check_representation(prof, prob.spectral, delta=0.75)
        assert not rep.passed, (
            f"representation passed at delta = 0.75 beyond the harmonic gap "
            f"{cap:g} (remainder slope {rep.slope:+.3f})")
        assert rep.slope == pytest.approx(cap - 0.75, abs=0.05), (
            f"remainder slope {rep.slope:+.3f}, expected cap - delta = {cap - 0.75:+.3f}")


def test_criterion_07_critical_case(local_family, acceptance_grid):
    with criterion(7, 300.0, "critical solve: k=1 decay, two-init agreement"):
        prob = local_family.to_convolution_form(2.0)
        opts = wf.SolveOptions(tol=1e-8, max_iter=40000)
        ramp = np.clip((acceptance_grid.ts + 10.0) / 10.0, 0.0, 1.0) * 0.5
        try:
            p1 = wf.solve_profile(prob, acceptance_grid,
                                  wf.CappedExponential(1.0, 0.25), opts)
            p2 = wf.solve_profile(prob, acceptance_grid, ramp, opts)
            fit = wf.fit_decay(p1)
            assert fit.k_hat == 1
            assert abs(fit.lambda_hat - 1.0) <= 0.03
            fit2 = wf.fit_decay(p2)
            assert fit2.k_hat == 1
            _, sup = wf.align_translate(p1, p2)
            assert sup <= 5e-3
        except MaxIterExceeded as exc:
            # sanctioned downgrade: two-resolution agreement of the decay law
            coarse = exc.profile
            fine = wf.solve_profile(prob, wf.Grid(-60.0, 40.0, 8192),
                                    wf.CappedExponential(1.0, 0.25),
                                    wf.SolveOptions(tol=1e-8, max_iter=80000))
            fit_c = wf.fit_decay(coarse)
            fit_f = wf.fit_decay(fine)
            assert fit_c.k_hat == 1 and fit_f.k_hat == 1
            assert abs(fit_c.lambda_hat - fit_f.lambda_hat) <= 0.03


def test_criterion_08_nonexistence_and_mollison(local_family, acceptance_grid):
    with criterion(8, 60.0, "non-existence regime and necessity checks"):
        prob = local_family.to_convolution_form(1.0)
        regime = {"no_roots": False, "no_wave": False}
        try:
            wf.real_roots(prob.charfun())
        except NoRoots:
            regime["no_roots"] = True
        try:
            wf.solve_profile(prob, acceptance_grid, wf.CappedExponential(0.5, 0.5),
                             wf.SolveOptions(max_iter=600))
        except (NoWave, MaxIterExceeded):
            regime["no_wave"] = True
        assert regime == {"no_roots": True, "no_wave": True}

        solvable = [
            wf.NonlocalKPP(J=wf.GaussianKernel(1.0), g=wf.logistic(2.0, 1.0))
            .to_convolution_form(3.0),
            wf.NonlocalLattice(D=1.0, d=1.0, beta_weights={0: 1.0},
                               g=wf.logistic(2.0, 1.0)).to_convolution_form(2.5),
            wf.NonlocalDelayedRD(f=wf.linear(1.0), g=wf.logistic(2.0, 1.0),
                                 k=wf.GaussianKernel(1.0), delay=0.5)
            .to_convolution_form(3.0),
            local_family.to_convolution_form(2.5),
        ]
        for p in solvable:
            assert p.spectral is not None  # admits a wave analysis
            assert wf.mollison_check(p).status == "pass"


def test_criterion_09_strip_zero_freeness(local_family):
    with criterion(9, 30.0, "no complex zeros in the open spectral strip"):
        prob = local_family.to_convolution_form(2.5)
        cf = prob.charfun()
        sd = prob.spectral
        rep = wf.strip_zero_scan(cf, sd, y_max=50.0)
        assert rep.passed
        assert rep.min_abs_chi > 1e-3


def test_criterion_10_invariant_suites(local_family):
    rng = np.random.default_rng(10)
    with criterion(10, 300.0, "randomized invariant sweeps"):
        # concavity of chi across random speeds and delays
        for _ in range(8):
            c = float(rng.uniform(2.1, 4.0))
            h = float(rng.uniform(0.0, 0.5))
            m = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=h)
            cf = m.to_convolution_form(c).charfun()
            lo, hi = cf.strip
            for _ in range(25):
                xs = np.sort(rng.uniform(lo + 0.05, hi - 0.05, 3))
                if xs[2] - xs[0] < 1e-6:
                    continue
                w = (xs[1] - xs[0]) / (xs[2] - xs[0])
                chord = (1 - w) * wf.chi(cf, xs[0]) + w * wf.chi(cf, xs[2])
                assert wf.chi(cf, xs[1]) >= chord - 1e-9

        # abscissa ordering and translation covariance on random solves
        grid = wf.Grid(-60.0, 40.0, 2048)
        for c in (2.4, 3.1):
            prob = local_family.to_convolution_form(c)
            opts = wf.SolveOptions(tol=1e-8, max_iter=20000)
            base = wf.solve_profile(prob, grid, wf.CappedExponential(
                prob.spectral.lambda_l, 0.25), opts)
            fit = wf.fit_decay(base)
            assert fit.lambda_hat <= prob.spectral.gamma_K + 1e-6
            delta = 16 * grid.step
            shifted = np.minimum(
                np.exp(prob.spectral.lambda_l * (grid.ts - delta)), 0.25)
            moved = wf.solve_profile(prob, grid, shifted, opts)
            shift, sup = wf.align_translate(base, moved)
            assert abs(shift - delta) < 0.05
            assert sup <= 1e-3

        # fixed-point preservation of constants (interior, wide margins)
        wide = wf.Grid(-120.0, 60.0, 2048)
        for c in (2.2, 2.9):
            prob = local_family.to_convolution_form(c)
            kappa = prob.equilibrium()
            out = wf.apply_operator(prob, np.full(wide.n, kappa), wide)
            sel = (wide.ts > -30.0) & (wide.ts < 50.0)
            assert float(np.max(np.abs(out[sel] - kappa))) < 1e-8
