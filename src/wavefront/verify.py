"""Hypothesis audits and headline diagnostics for assembled problems.

Checks report pass/fail/undetermined with the mathematical criterion they
test spelled out in ``criterion``; numerics cannot prove uniqueness, so
probe verdicts say "consistent with" rather than "verified".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import wavesolver
from .asymptotics import fit_decay
from .charfun import real_roots
from .errors import (MaxIterExceeded, NoCrossing, NoRoots, NoWave, StripTooNarrow,
                     TailUnresolved)
from .models import ConvolutionProblem
from .wavesolver import Grid, SolveOptions, WaveProfile, solve_profile

__all__ = [
    "Check",
    "VerifyReport",
    "mollison_check",
    "speed_admissibility",
    "audit_hypotheses",
    "align_translate",
    "uniqueness_probe",
]


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "pass" | "fail" | "undetermined"
    criterion: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in ("pass", "fail", "undetermined"):
            raise ValueError(f"bad status {self.status!r}")

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "criterion": self.criterion, "details": dict(self.details)}


@dataclass
class VerifyReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        statuses = {c.status for c in self.checks}
        if "fail" in statuses:
            return "fail"
        if "undetermined" in statuses:
            return "undetermined"
        return "pass"

    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "undetermined": 2}[self.verdict]

    def to_dict(self) -> dict:
        return {"verdict": self.verdict,
                "checks": [c.to_dict() for c in self.checks]}

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict.upper()}"]
        for c in self.checks:
            lines.append(f"[{c.status.upper():12s}] {c.name}: {c.criterion}")
            for k, v in c.details.items():
                lines.append(f"    {k} = {v}")
        return "\n".join(lines)


def mollison_check(p: ConvolutionProblem) -> Check:
    """Necessity check: finite weighted transform at some positive argument.

    pass needs gamma_K > 0 together with kernel support meeting the right
    half-line; the premise is that the weighted kernel mass lies in
    (1, inf), without which the necessity statement has no content.
    """
    _, gamma_K = p.charfun().strip
    premise = 1.0 - p.chi0()  # = sum of weight * mass over atoms
    details = {"gamma_K": gamma_K, "weighted_mass": premise}
    criterion = ("weighted kernel transform finite at some z > 0 and kernel "
                 "support meets the right half-line, given weighted mass in (1, inf)")
    if not (1.0 < premise < math.inf):
        return Check("mollison", "undetermined", criterion,
                     {**details, "note": "premise fails: weighted mass outside (1, inf)"})
    if not gamma_K > 0.0:
        return Check("mollison", "fail", criterion,
                     {**details, "note": "no positive argument with finite transform"})
    if not any(a.kernel.support()[1] >= 0.0 for a in p.atoms):
        return Check("mollison", "fail", criterion,
                     {**details, "note": "all kernel mass on the negative half-line"})
    return Check("mollison", "pass", criterion, details)


def speed_admissibility(prob: ConvolutionProblem) -> str:
    """Classify the problem's speed as below_c_star, critical, or noncritical.

    Runs the root dichotomy of the problem's Lipschitz-weighted
    characteristic function, so the classification shares the criticality
    band of the root finder.
    """
    try:
        sd = real_roots(prob.charfun_lipschitz())
    except NoRoots:
        return "below_c_star"
    except StripTooNarrow:
        return "below_c_star"
    return "critical" if sd.critical else "noncritical"


def _holder_fit(g, sigma: float) -> tuple[float, float] | None:
    """(C, alpha) from log-log regression of |g(u) - g'(0) u| on (0, sigma]."""
    u = np.geomspace(sigma * 1e-6, sigma, 400)
    dev = np.abs(np.asarray(g(u)) - g.gprime0 * u)
    keep = dev > 1e-14
    if keep.sum() < 20:
        return None
    slope, intercept = np.polyfit(np.log(u[keep]), np.log(dev[keep]), 1)
    alpha = slope - 1.0
    return float(np.exp(intercept)), float(alpha)


def audit_hypotheses(p: ConvolutionProblem, M: float) -> list[Check]:
    """Audit the slope and smallness conditions backing the uniqueness routes.

    Per atom: the subtangential bound |g(u)-g(v)| <= g'(0)|u-v| on [0, M]
    (sampled slopes), the global Lipschitz alternative with its constant,
    the small-u deviation exponent |g(u) - g'(0)u| <= C u^{1+alpha}, and
    exponential domination of the kernel.  The summary check names which
    uniqueness route the audit supports.
    """
    checks: list[Check] = []
    subtangential_all = True
    lipschitz_all = True
    slack = 1e-9
    for i, atom in enumerate(p.atoms):
        g = atom.nonlinearity
        tag = f"atom{i}:{g.name}"
        d = g._deriv_samples(0.0, M)
        sup_abs = float(np.max(np.abs(d)))
        ok = sup_abs <= g.gprime0 * (1.0 + slack) + 1e-12
        subtangential_all &= ok
        checks.append(Check(
            f"subtangential[{tag}]", "pass" if ok else "fail",
            "|g(u) - g(v)| <= g'(0) |u - v| on [0, M] (sampled slopes)",
            {"sup_abs_slope": sup_abs, "gprime0": g.gprime0, "M": M}))

        lip = atom.lipschitz_weight
        ok_l = math.isfinite(lip) and sup_abs <= lip * (1.0 + slack) + 1e-12
        lipschitz_all &= ok_l
        checks.append(Check(
            f"lipschitz[{tag}]", "pass" if ok_l else "fail",
            "|g(u) - g(v)| <= lambda |u - v| on [0, M] with finite lambda",
            {"lambda": lip, "sup_abs_slope": sup_abs}))

        if g.name == "linear":
            checks.append(Check(
                f"holder[{tag}]", "pass",
                "|g(u) - g'(0) u| <= C u^{1+alpha} near 0",
                {"note": "exactly linear near 0; fit skipped"}))
        else:
            sigma = min(1.0, M)
            fitted = _holder_fit(g, sigma)
            if fitted is None:
                checks.append(Check(
                    f"holder[{tag}]", "pass",
                    "|g(u) - g'(0) u| <= C u^{1+alpha} near 0",
                    {"note": "deviation below 1e-14; effectively linear near 0"}))
            else:
                C, alpha = fitted
                ok_h = alpha > 0.01
                checks.append(Check(
                    f"holder[{tag}]", "pass" if ok_h else "fail",
                    "|g(u) - g'(0) u| <= C u^{1+alpha} near 0 with alpha > 0",
                    {"C": C, "alpha": alpha, "sigma": sigma}))

        lam_l = p.spectral.lambda_l if p.spectral is not None else 1.0
        rho = 0.5 * lam_l
        ok_k = atom.kernel.exp_dominated(rho)
        checks.append(Check(
            f"kernel_domination[{tag}]", "pass" if ok_k else "fail",
            "K(s) <= d1 e^{rho s} for a positive rho below the decay rate",
            {"rho": rho}))

    if subtangential_all:
        route = "subtangential route (slope-at-zero weights)"
        note = "derivative-transform convergence assumed via the smooth-profile analogue"
    elif lipschitz_all:
        route = "Lipschitz route (global constants, margin of the shifted function)"
        note = "requires a nonnegative margin of the Lipschitz-weighted characteristic function"
    else:
        route = "none"
        note = "no uniqueness route is supported by the sampled conditions"
    checks.append(Check(
        "uniqueness_route", "pass" if route != "none" else "fail",
        "which uniqueness hypothesis set the sampled conditions support",
        {"route": route, "note": note}))
    return checks


def align_translate(phi1: WaveProfile, phi2: WaveProfile) -> tuple[float, float]:
    """Shift matching the half-plateau crossings, then sup difference on the overlap.

    Returns (shift, sup_diff) with phi2(t + shift) compared against
    phi1(t); raises NoCrossing when either profile misses the level.
    """
    if phi1.speed != phi2.speed:
        raise ValueError("profiles must share the wave speed")
    level = 0.5 * phi1.plateau
    ts1, ts2 = phi1.grid.ts, phi2.grid.ts
    c1 = wavesolver.level_crossing(ts1, phi1.values, level)
    c2 = wavesolver.level_crossing(ts2, phi2.values, level)
    shift = c2 - c1
    m = 10 * max(phi1.grid.step, phi2.grid.step)
    lo = max(ts1[0], ts2[0] - shift) + m
    hi = min(ts1[-1], ts2[-1] - shift) - m
    if hi <= lo:
        raise ValueError("profiles do not overlap after alignment")
    sel = (ts1 >= lo) & (ts1 <= hi)
    moved = np.interp(ts1[sel] + shift, ts2, phi2.values)
    sup = float(np.max(np.abs(phi1.values[sel] - moved)))
    return shift, sup


def uniqueness_probe(prob: ConvolutionProblem, grid: Grid, inits,
                     opts: SolveOptions = SolveOptions()) -> VerifyReport:
    """Solve from several initial data and compare the aligned profiles.

    PASS is reported as "consistent with uniqueness at tolerance ..."; a
    solve that ends in NoWave, TailUnresolved or MaxIterExceeded aborts
    with a partial report whose last check is a failing ``solve[init i]``.
    The tolerance is max(10 * solver tol, 5 * step^2 * |phi''| estimate).
    """
    report = VerifyReport()
    if len(inits) < 2:
        raise ValueError("need at least two initial conditions")
    admissibility = speed_admissibility(prob)
    if admissibility == "below_c_star":
        report.checks.append(Check(
            "admissibility_guard", "fail",
            "speed must be at or above the minimal admissible speed",
            {"speed": prob.speed, "classification": admissibility}))
        return report
    report.checks.extend(audit_hypotheses(prob, prob.bound))

    profiles: list[WaveProfile] = []
    for i, init in enumerate(inits):
        try:
            profiles.append(solve_profile(prob, grid, init, opts))
        except (NoWave, NoCrossing, MaxIterExceeded, TailUnresolved) as exc:
            report.checks.append(Check(
                f"solve[init{i}]", "fail",
                "fixed-point solve must produce a resolved profile",
                {"error": str(exc)}))
            return report

    dphi2 = np.max(np.abs(np.diff(profiles[0].values, 2))) / grid.step ** 2
    tolerance = max(10.0 * opts.tol, 5.0 * grid.step ** 2 * float(dphi2))
    worst = 0.0
    pair = (0, 0)
    for i in range(len(profiles)):
        for j in range(i + 1, len(profiles)):
            _, sup = align_translate(profiles[i], profiles[j])
            if sup > worst:
                worst, pair = sup, (i, j)
    fits = [fit_decay(pr) for pr in profiles]
    status = "pass" if worst <= tolerance else "fail"
    verdict_note = (f"consistent with uniqueness modulo translation at tolerance "
                    f"{tolerance:g}" if status == "pass"
                    else "aligned profiles disagree beyond tolerance")
    report.checks.append(Check(
        "uniqueness_probe", status,
        "aligned profiles from independent initial data agree within tolerance",
        {"max_sup_diff": worst, "tolerance": tolerance, "worst_pair": list(pair),
         "classification": admissibility,
         "decay_rates": [f.lambda_hat for f in fits],
         "decay_orders": [f.k_hat for f in fits],
         "note": verdict_note}))
    return report
