"""Run one op through ``wavefront.cli.main`` and score it against its expectation.

An op *fails* when its exit code or an artifact disagrees with the expected
outcome, or when an accuracy check misses its tolerance.  A failure is also
*wrong* (the run is then not correct) when an output is numerically off,
when a wave or a zero is reported below c*, or when the op crashes.  An op
that exits 1 where a wave exists fails without being wrong: that is how a
false NoWave shows.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import traceback

import numpy as np

import wavefront.cli
from wavefront.asymptotics import fit_decay
from wavefront.wavesolver import Grid, WaveProfile

import clock
from workloads import Op

# tolerances fixed beforehand from the solver settings: c* routes agree to
# the tangency brentq tolerance; the fitted tail rate carries the O(step^2)
# discretisation and the fit window; the residual is O(step^2) ~ 1e-5
TOL_C_STAR = 1e-8
TOL_LAMBDA_L = 1e-9
TOL_LAMBDA_HAT = 2e-2
TOL_RESIDUAL = 1e-4

ARTIFACTS = {
    "analyze": ("spectral.json", "chi_trace.csv"),
    "speed": ("speed.json",),
    "solve": ("solve.json", "profile.csv"),
    "verify": ("verify.json", "verify.txt"),
    "scan": ("scan.json",),
}


def execute(op: Op, workdir: str, outdir: str) -> tuple[int | None, float, float, str]:
    """(exit code or None on a crash, wall seconds, median probe seconds,
    crash traceback); see clock.timed."""
    shutil.rmtree(outdir, ignore_errors=True)
    argv = op.argv(workdir, outdir)

    def call():
        try:
            return wavefront.cli.main(argv), ""
        except Exception:  # an op boundary: record the crash, keep running
            return None, traceback.format_exc()

    (code, crash), wall, probe_s = clock.timed(call)
    return code, wall, probe_s, crash


def hashes(op: Op, outdir: str) -> dict[str, str]:
    out = {}
    for name in ARTIFACTS[op.command]:
        path = os.path.join(outdir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _load(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _fitted_rate(outdir: str, meta: dict) -> float:
    """lambda_hat from an untimed fit_decay on profile.csv."""
    data = np.loadtxt(os.path.join(outdir, "profile.csv"), delimiter=",", skiprows=1)
    g = meta["grid"]
    grid = Grid(float(g["t_min"]), float(g["t_max"]), int(g["n"]))
    profile = WaveProfile(grid=grid, values=data[:, 1], speed=float(meta["speed"]),
                          plateau=float(meta["plateau"]),
                          convergence=dict(meta["convergence"]))
    return fit_decay(profile).lambda_hat


def score(op: Op, code: int | None, outdir: str, crash: str = "") -> dict:
    """Outcome record: failed, wrong, reasons and the accuracy fields."""
    reasons: list[str] = []
    wrong: list[str] = []
    acc: dict[str, float] = {}

    def check(ok: bool, why: str, numeric: bool) -> None:
        if not ok:
            reasons.append(why)
            if numeric:
                wrong.append(why)

    if code is None:
        check(False, "crashed: " + crash.strip().splitlines()[-1], True)
    elif code != op.expect_exit:
        check(False, f"exit {code}, expected {op.expect_exit}",
              op.expect_flag is not None)  # success claimed below c*
    if code is not None:
        try:
            _score_artifacts(op, outdir, code, acc, check)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            check(False, f"unreadable artifact: {exc!r}", op.expect_exit == code)
    return {"failed": bool(reasons), "wrong": bool(wrong), "reasons": reasons,
            "accuracy": acc, "artifacts": hashes(op, outdir)}


def _score_artifacts(op: Op, outdir: str, code: int, acc: dict, check) -> None:
    if op.command == "analyze":
        data = _load(outdir, "spectral.json")
        if op.expect_flag == "no_roots":
            check(data.get("no_roots") is True, "no_roots flag missing below c*", True)
        elif code == 0:
            acc["lambda_l"] = data["lambda_l"]
            check(abs(data["lambda_l"] - op.lambda_l_ref) <= TOL_LAMBDA_L,
                  f"lambda_l {data['lambda_l']!r} vs reference {op.lambda_l_ref!r}", True)
    elif op.command == "speed" and code == 0:
        c_star = _load(outdir, "speed.json")["c_star"]
        acc["c_star"], acc["c_star_ref"] = c_star, op.c_star_ref
        acc["cstar_abs_err"] = abs(c_star - op.c_star_ref)
        check(acc["cstar_abs_err"] <= TOL_C_STAR,
              f"c* {c_star!r} vs reference {op.c_star_ref!r}", True)
    elif op.command == "scan" and code == 0:
        check(_load(outdir, "scan.json")["pass"] is True, "scan did not pass", True)
    elif op.command == "solve":
        meta = _load(outdir, "solve.json")
        if op.expect_flag == "no_wave":
            check(meta.get("no_wave") is True, "no_wave flag missing below c*", True)
        elif code == 0:
            acc["residual"] = meta["convergence"]["residual"]
            check(acc["residual"] <= TOL_RESIDUAL, f"residual {acc['residual']!r}", True)
            _decay(op, [_fitted_rate(outdir, meta)], acc, check)
    elif op.command == "verify":
        report = _load(outdir, "verify.json")
        failing = [c["name"] for c in report["checks"] if c["status"] != "pass"]
        check(code != 0 or not failing, f"exit 0 with checks {failing} not passing", True)
        if code != 0:
            check(False, f"checks not passing: {', '.join(failing)}", False)
            return
        probe = [c for c in report["checks"] if c["name"] == "uniqueness_probe"]
        check(len(probe) == 1, "verify.json has no uniqueness_probe check", True)
        if probe:
            _decay(op, probe[0]["details"]["decay_rates"], acc, check)


def _decay(op: Op, rates: list[float], acc: dict, check) -> None:
    acc["lambda_l"] = op.lambda_l_ref
    acc["lambda_hat"] = max(rates, key=lambda r: abs(r - op.lambda_l_ref))
    acc["lambda_hat_abs_err"] = abs(acc["lambda_hat"] - op.lambda_l_ref)
    check(acc["lambda_hat_abs_err"] <= TOL_LAMBDA_HAT,
          f"lambda_hat {acc['lambda_hat']!r} vs lambda_l {op.lambda_l_ref!r}", True)
