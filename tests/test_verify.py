import numpy as np
import pytest

import wavefront as wf
from wavefront.cli import EXIT_OF_VERDICT
from wavefront.errors import HypothesisViolation, NoCrossing, NoRoots
from wavefront.kernels import shift_kernel
from wavefront.models import Atom, ConvolutionProblem


def degenerate_problem(weight, kernel, g=None):
    """Assemble a one-atom problem (g = ``wf.linear(weight)`` by default) without the wave-hypothesis gate."""
    atoms = (Atom(kernel, wf.linear(weight) if g is None else g, weight),)
    prob = ConvolutionProblem.__new__(ConvolutionProblem)
    prob.atoms = atoms
    prob.speed = 1.0
    prob.bound = 1.0
    prob.spectral = None  # seeds the cached value: no root search runs
    return prob


def test_mollison_passes_on_local_family(local_model):
    prob = local_model.to_convolution_form(2.5)
    check = wf.mollison_check(prob)
    assert check.status == "pass"
    assert check.details["gamma_K"] > 0
    assert 1.0 < check.details["weighted_mass"]


def test_mollison_fails_on_left_supported_kernel():
    k = shift_kernel(wf.OneSidedExponential(rate=1.0, direction=-1), -0.25)
    prob = degenerate_problem(2.0, k)
    check = wf.mollison_check(prob)
    assert check.status == "fail"
    assert "negative half-line" in check.details["note"]


def test_mollison_premise_gate():
    # weighted mass 0.9 < 1 is chi(0) > 0, which no assembled problem has
    k = wf.OneSidedExponential(rate=1.0)
    with pytest.raises(HypothesisViolation):
        ConvolutionProblem((Atom(k, wf.linear(0.9), 0.9),), 1.0, 1.0)


def test_mollison_implied_by_solved_profile(noncritical_profile):
    prob, prof = noncritical_profile
    assert prof.values[0] <= 1e-3 * prof.plateau
    assert wf.mollison_check(prob).status == "pass"


def test_speed_admissibility_reads_chi_not_chi_lipschitz():
    # Mackey-Glass with L = 3 > g'(0) = 2: chi's c* is 2, the Lipschitz
    # chi_L's is 2 sqrt(L - 1) = 2.83, so c = 2.5 is above c* although chi_L
    # has no positive zero there
    m = wf.LocalDelayedRD(g=wf.mackey_glass(2.0, 6.0), L=3.0, delay=0.0)
    prob = m.to_convolution_form(2.5)
    with pytest.raises(NoRoots):
        wf.real_roots(prob.charfun_lipschitz())
    assert wf.speed_admissibility(prob) == "noncritical"


def test_speed_admissibility_classification(local_model):
    def classify(c):
        return wf.speed_admissibility(local_model.to_convolution_form(c))

    assert classify(1.0) == "below_c_star"
    assert classify(2.0) == "critical"
    assert classify(2.5) == "noncritical"


def test_nonexistence_coherence(local_model, rng):
    c_star, _ = wf.model_min_speed(local_model)
    for c in rng.uniform(0.5 * c_star, 1.8 * c_star, size=20):
        if abs(c - c_star) < 1e-6:
            continue
        prob = local_model.to_convolution_form(float(c))
        try:
            wf.real_roots(prob.charfun_lipschitz())
            has_roots = True
        except NoRoots:
            has_roots = False
        classification = wf.speed_admissibility(prob)
        assert has_roots == (classification != "below_c_star")


# --- hypothesis audit -----------------------------------------------------------

def test_audit_logistic_subtangential(local_model):
    prob = local_model.to_convolution_form(2.5, M=1.0)
    checks = {c.name: c for c in wf.audit_hypotheses(prob)}
    sub = checks["subtangential[atom0:logistic]"]
    assert sub.status == "pass"
    assert sub.details["sup_abs_slope"] == pytest.approx(2.0, rel=1e-3)
    hol = checks["holder[atom0:logistic]"]
    assert hol.status == "pass"
    assert hol.details["alpha"] == pytest.approx(1.0, abs=0.05)
    route = checks["uniqueness_route"]
    assert route.status == "pass"
    assert "subtangential" in route.details["route"]


def test_audit_steep_saturating_term_routes_to_lipschitz():
    # p u / (1 + u^6) has slope extremes ~ -p 25/24 < -p: the subtangential
    # bound fails while the global Lipschitz route with a larger constant holds
    g = wf.mackey_glass(2.0, 6.0)
    m = wf.LocalDelayedRD(g=g, L=g.lipschitz_on(2.0), delay=0.0)
    prob = m.to_convolution_form(3.0, M=2.0)
    checks = {c.name: c for c in wf.audit_hypotheses(prob)}
    sub = checks["subtangential[atom0:mackey_glass]"]
    assert sub.status == "fail"
    assert sub.details["sup_abs_slope"] > 2.0
    lip = checks["lipschitz[atom0:mackey_glass]"]
    assert lip.status == "pass"
    route = checks["uniqueness_route"]
    assert "Lipschitz" in route.details["route"]


def test_audit_route_exclusivity():
    # when the subtangential bound already passes, the route names it even
    # though the Lipschitz alternative also holds with a larger constant
    g = wf.logistic(2.0, 1.0)
    m = wf.LocalDelayedRD(g=g, L=3.0, delay=0.0)  # generous global constant
    prob = m.to_convolution_form(2.5, M=1.0)
    checks = {c.name: c for c in wf.audit_hypotheses(prob)}
    assert checks["lipschitz[atom0:logistic]"].status == "pass"
    assert "subtangential" in checks["uniqueness_route"].details["route"]


def test_audit_linear_skips_holder_fit():
    # an exactly linear g has no deviation to fit: the check passes on that
    # alone, with no exponent
    prob = degenerate_problem(2.0, wf.OneSidedExponential(rate=1.0))
    checks = {c.name: c for c in wf.audit_hypotheses(prob)}
    hol = checks["holder[atom0:linear]"]
    assert hol.status == "pass"
    assert hol.details == {"note": "deviation below 1e-14; effectively linear near 0"}


def test_audit_fits_the_deviation_of_g_whatever_its_name():
    # a g named "linear" whose deviation is u^{1.005} has alpha = 0.005,
    # below the audit's 0.01
    g = wf.Nonlinearity(fn=lambda u: 2.0 * u + np.power(u, 1.005), gprime0=2.0, name="linear")
    prob = degenerate_problem(2.0, wf.OneSidedExponential(rate=1.0), g)
    hol = {c.name: c for c in wf.audit_hypotheses(prob)}["holder[atom0:linear]"]
    assert hol.status == "fail"
    assert hol.details["alpha"] == pytest.approx(0.005, abs=1e-6)


# --- alignment ------------------------------------------------------------------

def front_profile(grid, shift=0.0):
    vals = 0.25 * (1.0 + np.tanh(0.8 * (grid.ts - shift)))
    return wf.WaveProfile(grid=grid, values=vals, speed=2.5, plateau=0.5,
                          convergence={"final_update": 0.0})


def test_align_translate_exact_shift():
    grid = wf.Grid(-60.0, 40.0, 4001)  # step 0.025 divides the shift exactly
    p1 = front_profile(grid)
    p2 = front_profile(grid, shift=-3.0)  # p2(t) = p1(t + 3)
    shift, sup = wf.align_translate(p1, p2)
    assert shift == pytest.approx(-3.0, abs=1e-12)
    assert sup <= 1e-10


def test_align_translate_identical():
    grid = wf.Grid(-60.0, 40.0, 2048)
    p1 = front_profile(grid)
    shift, sup = wf.align_translate(p1, p1)
    assert shift == 0.0
    assert sup == 0.0


def test_align_translate_no_crossing():
    grid = wf.Grid(-60.0, 40.0, 2048)
    p1 = front_profile(grid)
    low = wf.WaveProfile(grid=grid, values=np.full(2048, 1e-4), speed=2.5,
                         plateau=0.5, convergence={})
    with pytest.raises(NoCrossing):
        wf.align_translate(p1, low)


def test_align_solved_profiles_different_inits(local_model, solver_grid):
    prob = local_model.to_convolution_form(2.5)
    opts = wf.SolveOptions(tol=1e-9, max_iter=20000)
    p1 = wf.solve_profile(prob, solver_grid, wf.CappedExponential(0.5, 0.5), opts)
    ramp = np.clip((solver_grid.ts + 10.0) / 10.0, 0.0, 1.0) * 0.5
    p2 = wf.solve_profile(prob, solver_grid, ramp, opts)
    _, sup = wf.align_translate(p1, p2)
    assert sup <= 1e-3


# --- uniqueness probe -------------------------------------------------------------

def test_uniqueness_probe_noncritical(local_model, solver_grid):
    report = wf.uniqueness_probe(local_model.to_convolution_form(2.5), solver_grid,
                                 wf.SolveOptions(tol=1e-9, max_iter=20000))
    assert report.verdict == "pass"
    assert report.checks[0].name == "mollison"
    probe = {c.name: c for c in report.checks}["uniqueness_probe"]
    assert probe.details["classification"] == "noncritical"
    assert "consistent with uniqueness" in probe.details["note"]
    assert probe.details["decay_orders"] == [0, 0]


def test_uniqueness_probe_below_c_star_guard(local_model, solver_grid):
    report = wf.uniqueness_probe(local_model.to_convolution_form(1.0), solver_grid)
    assert report.verdict == "fail"
    assert [c.name for c in report.checks] == ["mollison", "admissibility_guard"]
    assert EXIT_OF_VERDICT[report.verdict] == 1


def test_verify_report_exit_codes():
    rep = wf.VerifyReport(checks=[wf.Check("a", "pass", "x")])
    assert rep.verdict == "pass" and EXIT_OF_VERDICT[rep.verdict] == 0
    rep.checks.append(wf.Check("b", "undetermined", "y"))
    assert rep.verdict == "undetermined" and EXIT_OF_VERDICT[rep.verdict] == 2
    rep.checks.append(wf.Check("c", "fail", "z"))
    assert rep.verdict == "fail" and EXIT_OF_VERDICT[rep.verdict] == 1
    text = rep.to_text()
    assert "FAIL" in text and "verdict" in text
    d = rep.to_dict()
    assert d["verdict"] == "fail" and len(d["checks"]) == 3
