import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

import wavefront as wf
from wavefront._scalar import minimize_bounded
from wavefront.asymptotics import NOISE_ULPS, PARSIMONY, _default_window, _fit_k0, _fit_k1
from wavefront.errors import NonPositiveTail, TailUnresolved
from wavefront.models import load_model
from wavefront.wavesolver import default_init

MODELS = Path(__file__).resolve().parents[1] / "models"


def synthetic_profile(fn, t_min=-60.0, t_max=5.0, n=4096, plateau=None):
    grid = wf.Grid(t_min, t_max, n)
    vals = np.array([fn(t) for t in grid.ts], dtype=float)
    return wf.WaveProfile(grid=grid, values=vals, speed=1.0,
                          plateau=plateau if plateau is not None else float(vals.max()),
                          convergence={"final_update": 0.0})


def test_fit_decay_pure_exponential():
    prof = synthetic_profile(lambda t: math.exp(0.5 * t))
    fit = wf.fit_decay(prof, window=(-40.0, -20.0))
    assert fit.lambda_hat == pytest.approx(0.5, abs=1e-12)
    assert fit.k_hat == 0
    assert fit.residual_l2 < 1e-12
    assert fit.m == pytest.approx(0.0, abs=1e-10)


def test_fit_decay_critical_model():
    prof = synthetic_profile(lambda t: (1.0 - t) * math.exp(t) if t < 0 else 1.0)
    fit = wf.fit_decay(prof, window=(-40.0, -20.0))
    assert fit.lambda_hat == pytest.approx(1.0, abs=1e-9)
    assert fit.k_hat == 1
    assert fit.a == pytest.approx(1.0, abs=1e-6)
    assert fit.m == pytest.approx(0.0, abs=1e-8)


def trust_region_k1(t, logp):
    """(lambda, A, b) of the same k=1 model by a bounded trust-region solve from the k=0 fit."""
    lam0, b0, _ = _fit_k0(t, logp)
    t_hi, span = t[-1], t[-1] - t[0]
    ls = least_squares(
        lambda x: x[0] * t + np.log(np.maximum(x[1] - t, 1e-12)) + x[2] - logp,
        x0=[lam0, t_hi + span, b0 - math.log(span)],
        bounds=([1e-8, t_hi + 1e-9, -700.0], [50.0, 1e9, 700.0]))
    return ls.x


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("a", [-19.0, -10.0, 0.0, 30.0])
def test_fit_k1_matches_trust_region_on_critical_tails(lam, a):
    t = np.linspace(-40.0, -20.0, 800)
    logp = np.log((a - t) * np.exp(lam * t + 0.3))
    lam1, A1, b1, res = _fit_k1(t, logp)
    lam_ref, A_ref, _ = trust_region_k1(t, logp)
    assert lam1 == pytest.approx(lam_ref, rel=1e-8)
    assert lam1 == pytest.approx(lam, rel=1e-8)
    assert A1 == pytest.approx(A_ref, rel=1e-6, abs=1e-9)
    assert float(np.sqrt(np.mean(res ** 2))) < 1e-8


def lstsq_line(t, r):
    """(lambda, b) of the least-squares line r ~ lambda t + b, by np.linalg.lstsq."""
    (lam, b), *_ = np.linalg.lstsq(np.column_stack((t, np.ones_like(t))), r, rcond=None)
    return lam, b


def lstsq_fit_k1(t, logp):
    """The k=1 fit with its linear parameters from np.linalg.lstsq at every trial A."""
    t_hi, span = t[-1], t[-1] - t[0]

    def project(u):
        A = t_hi + span * math.exp(u)
        shift = np.log(A - t)
        lam, b = lstsq_line(t, logp - shift)
        return A, lam, b, logp - (lam * t + shift + b)

    def cost(u):
        res = project(u)[3]
        return float(res @ res)

    u, _ = minimize_bounded(cost, math.log(1e-9 / span), math.log((1e9 - t_hi) / span),
                            xatol=1e-10)
    return project(u)


@pytest.fixture(scope="module",
                params=[*sorted(MODELS.glob("*.json")), MODELS / "cases" / "local_critical.json"],
                ids=lambda path: path.stem)
def solved_tail(request):
    """(profile, t, log phi) on the default decay window of a model file's ``solve`` profile."""
    spec, cfg = load_model(request.param)
    prob = spec.to_convolution_form(float(cfg["c"]))
    prof = wf.solve_profile(prob, wf.Grid(-60.0, 40.0, 4096), default_init(prob))
    mask = _default_window(prof)
    return prof, prof.grid.ts[mask], np.log(prof.values[mask])


def test_fit_k1_projection_is_the_least_squares_line(solved_tail):
    # the closed-form projection is the line np.linalg.lstsq fits at the same A,
    # and fit_decay picks the order that the lstsq projection picks
    prof, t, logp = solved_tail
    lam, A, b, res = _fit_k1(t, logp)
    lam_ref, b_ref = lstsq_line(t, logp - np.log(A - t))
    assert lam == pytest.approx(lam_ref, rel=1e-12)
    assert b == pytest.approx(b_ref, rel=1e-12, abs=1e-12)
    r0 = float(np.sqrt(np.mean(_fit_k0(t, logp)[2] ** 2)))
    r1 = float(np.sqrt(np.mean(lstsq_fit_k1(t, logp)[3] ** 2)))
    assert r0 > NOISE_ULPS * np.finfo(float).eps * float(np.max(np.abs(logp)))
    assert wf.fit_decay(prof).k_hat == (1 if r1 <= PARSIMONY * r0 else 0)


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(0.05, 5.0), shift=st.floats(-20.0, 20.0),
       lo=st.floats(-55.0, -10.0), width=st.floats(1.0, 40.0))
def test_fit_decay_keeps_k0_on_pure_exponentials(lam, shift, lo, width):
    # the k=1 fit can undercut a k=0 fit that is exact up to rounding
    prof = synthetic_profile(lambda t: math.exp(lam * (t - shift)))
    fit = wf.fit_decay(prof, window=(lo, min(lo + width, 0.0)))
    assert fit.k_hat == 0
    assert fit.lambda_hat == pytest.approx(lam, rel=1e-9)


def test_fit_decay_translation_equivariance():
    delta = 7.3
    prof_a = synthetic_profile(lambda t: math.exp(0.5 * t))
    prof_b = synthetic_profile(lambda t: math.exp(0.5 * (t - delta)))
    fit_a = wf.fit_decay(prof_a, window=(-40.0, -20.0))
    fit_b = wf.fit_decay(prof_b, window=(-40.0, -20.0))
    assert fit_b.m - fit_a.m == pytest.approx(delta, abs=1e-9)
    assert fit_b.lambda_hat == pytest.approx(fit_a.lambda_hat, abs=1e-9)
    assert fit_b.k_hat == fit_a.k_hat


def test_fit_decay_window_validation():
    prof = synthetic_profile(lambda t: max(math.exp(0.5 * t) - 0.5, 0.0) + 0.5)
    # never decays below 0.01 * plateau: tail unresolved
    with pytest.raises(TailUnresolved):
        wf.fit_decay(prof)
    prof2 = synthetic_profile(lambda t: max(math.exp(0.5 * t), 0.0) if t > -30 else 0.0)
    with pytest.raises(NonPositiveTail):
        wf.fit_decay(prof2, window=(-40.0, -20.0))
    prof3 = synthetic_profile(lambda t: math.exp(0.5 * t))
    with pytest.raises(TailUnresolved):
        wf.fit_decay(prof3, window=(-20.2, -20.0))  # too few points


def test_fit_decay_solved_noncritical(noncritical_profile):
    prob, prof = noncritical_profile
    fit = wf.fit_decay(prof)
    lam_l = prob.spectral.lambda_l
    assert fit.k_hat == 0
    assert abs(fit.lambda_hat - lam_l) <= 0.02 * lam_l
    # refined-grid oracle: an independent fit at doubled resolution agrees
    fine = wf.solve_profile(prob, wf.Grid(-60.0, 40.0, 8192),
                            wf.CappedExponential(0.5, 0.5),
                            wf.SolveOptions(tol=1e-9, max_iter=20000))
    fit2 = wf.fit_decay(fine)
    assert fit2.k_hat == 0
    assert fit2.lambda_hat == pytest.approx(fit.lambda_hat, abs=2e-3)


def test_fit_decay_solved_critical(critical_profile):
    prob, prof = critical_profile
    fit = wf.fit_decay(prof)
    assert fit.k_hat == 1
    assert abs(fit.lambda_hat - 1.0) <= 0.03


def test_decay_rate_below_gamma_K(noncritical_profile, critical_profile):
    for prob, prof in (noncritical_profile, critical_profile):
        fit = wf.fit_decay(prof)
        assert fit.lambda_hat <= prob.spectral.gamma_K + 1e-6


def test_k_hat_matches_criticality(noncritical_profile, critical_profile):
    for prob, prof in (noncritical_profile, critical_profile):
        fit = wf.fit_decay(prof)
        assert fit.k_hat == (1 if prob.spectral.critical else 0)


# --- representation check -----------------------------------------------------

def test_representation_synthetic_pass():
    prof = synthetic_profile(lambda t: math.exp(0.5 * t) + math.exp(0.9 * t))
    sd = wf.SpectralData(lambda_l=0.5, lambda_r=2.0, gamma_K=3.0, sigma_K=-1.0,
                         critical=False, chi_prime_at_ll=1.0)
    rep = wf.check_representation(prof, sd, delta=0.2)
    assert rep.passed
    assert rep.slope == pytest.approx(0.2, abs=0.05)


def test_representation_synthetic_fail():
    prof = synthetic_profile(lambda t: math.exp(0.5 * t) + math.exp(0.55 * t))
    sd = wf.SpectralData(lambda_l=0.5, lambda_r=2.0, gamma_K=3.0, sigma_K=-1.0,
                         critical=False, chi_prime_at_ll=1.0)
    rep = wf.check_representation(prof, sd, delta=0.2)
    assert not rep.passed
    assert rep.slope < -0.05


def test_representation_solved_profile(noncritical_profile):
    prob, prof = noncritical_profile
    sd = prob.spectral
    # the remainder of this model carries the quadratic harmonic at 2 lambda_l,
    # so any delta below alpha * lambda_l = 0.5 passes
    rep = wf.check_representation(prof, sd, delta=0.4)
    assert rep.passed
    fine = wf.solve_profile(prob, wf.Grid(-60.0, 40.0, 8192),
                            wf.CappedExponential(0.5, 0.5),
                            wf.SolveOptions(tol=1e-9, max_iter=20000))
    rep2 = wf.check_representation(prof, sd, delta=0.4, refined=fine)
    assert rep2.stable is True and rep2.passed
    # while a delta beyond the harmonic gap genuinely fails
    rep3 = wf.check_representation(prof, sd, delta=0.75)
    assert not rep3.passed
    assert rep3.slope == pytest.approx(-0.25, abs=0.05)


def test_representation_delta_range():
    prof = synthetic_profile(lambda t: math.exp(0.5 * t))
    sd = wf.SpectralData(lambda_l=0.5, lambda_r=None, gamma_K=1.0, sigma_K=-1.0,
                         critical=False, chi_prime_at_ll=1.0)
    with pytest.raises(ValueError):
        wf.check_representation(prof, sd, delta=0.8)  # beyond gamma_K - lambda_l


def test_max_supported_delta(noncritical_profile):
    prob, _ = noncritical_profile
    sd = prob.spectral
    # alpha = 1 for the quadratic birth term: harmonic gap alpha*lambda_l = 0.5
    assert wf.max_supported_delta(sd, alpha=1.0) == pytest.approx(0.5, abs=1e-9)
    assert wf.max_supported_delta(sd, alpha=0.5) == pytest.approx(0.25, abs=1e-9)

