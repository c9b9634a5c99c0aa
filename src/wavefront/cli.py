"""Command-line front door: analyze | speed | solve | verify | scan.

Loads a model JSON, runs the requested diagnostic, and writes CSV/JSON
artifacts to the output directory.  Exit codes: 0 all pass, 1 any fail
(including the no-positive-zero regime under ``analyze``), 2 undetermined
without failure, 64 malformed input.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from ._json import config_hash, dumps
from .charfun import chi, real_roots, strip_zero_scan
from .errors import (MaxIterExceeded, NoRoots, NoWave, StripTooNarrow,
                     TailUnresolved, WavefrontError)
from .models import load_model, model_min_speed
from .verify import mollison_check, uniqueness_probe
from .wavesolver import CappedExponential, Grid, SolveOptions, solve_profile

log = logging.getLogger("wavefront")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 64

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    level = os.environ.get("WAVEFRONT_LOG", "warn").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wavefront",
        description="Semi-wavefront diagnostics for convolution-form models")
    ap.add_argument("--version", action="version", version=f"wavefront {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--grid", default="-60,40,4096",
                       help="tmin,tmax,n of the solver grid (default: -60,40,4096)")
        p.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")
        p.add_argument("--max-iter", type=int, default=20000, help="iteration cap")
        p.add_argument("--damping", type=float, default=0.5,
                       help="fixed-point damping in (0, 1]")
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in outputs for reproducibility")
        return p

    common(sub.add_parser("analyze", help="real-zero data and a trace of chi"))
    common(sub.add_parser("speed", help="minimal admissible speed (c*, z*)"))
    common(sub.add_parser("solve", help="semi-wavefront profile at the given speed"))
    common(sub.add_parser("verify", help="hypothesis audit plus a two-init uniqueness probe"))
    sc = common(sub.add_parser("scan", help="strip scan for complex zeros"))
    sc.add_argument("--y-max", type=float, default=50.0, help="imaginary scan height")
    sc.add_argument("--density", type=float, default=40.0, help="grid points per unit")
    return ap


def _parse_grid(text: str) -> Grid:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("grid must be tmin,tmax,n")
    return Grid(float(parts[0]), float(parts[1]), int(parts[2]))


def _stamp(cfg: dict, args) -> dict:
    resolved = {"model": cfg, "grid": args.grid, "tol": args.tol,
                "max_iter": args.max_iter, "damping": args.damping,
                "seed": args.seed, "command": args.command}
    return {"version": __version__, "config_hash": config_hash(resolved),
            "seed": args.seed}


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(payload))
        fh.write("\n")
    log.info("wrote %s", path)


def _speed_of(cfg: dict) -> float:
    if "c" not in cfg:
        raise ValueError("model file must set \"c\" for this command")
    return float(cfg["c"])


def _problem(spec, cfg):
    return spec.to_convolution_form(_speed_of(cfg), cfg.get("bound"),
                                    cfg.get("margin", 1.0))


def cmd_analyze(args) -> int:
    spec, cfg = load_model(args.model)
    prob = _problem(spec, cfg)
    cf = prob.charfun()
    lo, hi = cf.strip
    lo_plot = max(lo, -10.0) + 1e-6 * max(1.0, abs(lo) if np.isfinite(lo) else 1.0)
    hi_plot = min(hi, 10.0) - 1e-6
    xs = np.linspace(lo_plot, hi_plot, 401)
    trace = np.real(chi(cf, xs))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "chi_trace.csv"), "w") as fh:
        fh.write("x,chi\n")
        for x, v in zip(xs, trace):
            fh.write(f"{x:.17g},{v:.17g}\n")
    try:
        sd = real_roots(cf)
    except (NoRoots, StripTooNarrow) as exc:
        _write(os.path.join(args.out, "spectral.json"),
               {**_stamp(cfg, args), "error": str(exc), "no_roots": True})
        print("no positive zero of the characteristic function: no semi-wavefront "
              "vanishing at -infinity exists at this speed", file=sys.stderr)
        return EXIT_FAIL
    _write(os.path.join(args.out, "spectral.json"),
           {**_stamp(cfg, args), **sd.to_dict()})
    return EXIT_OK


def cmd_speed(args) -> int:
    spec, cfg = load_model(args.model)
    c_star, z_star = model_min_speed(spec, cfg.get("bound"), cfg.get("margin", 1.0))
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "speed.json"),
           {**_stamp(cfg, args), "c_star": c_star, "z_star": z_star})
    return EXIT_OK


def _default_init(prob) -> CappedExponential:
    kappa = prob.equilibrium()
    lam = prob.spectral.lambda_l if prob.spectral is not None else 1.0
    return CappedExponential(rate=lam, cap=kappa / 2.0)


def cmd_solve(args) -> int:
    spec, cfg = load_model(args.model)
    prob = _problem(spec, cfg)
    grid = _parse_grid(args.grid)
    opts = SolveOptions(damping=args.damping, tol=args.tol, max_iter=args.max_iter)
    os.makedirs(args.out, exist_ok=True)
    try:
        profile = solve_profile(prob, grid, _default_init(prob), opts)
    except (NoWave, MaxIterExceeded, TailUnresolved) as exc:
        _write(os.path.join(args.out, "solve.json"),
               {**_stamp(cfg, args), "error": str(exc),
                "no_wave": isinstance(exc, NoWave)})
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    profile.to_csv(os.path.join(args.out, "profile.csv"))
    _write(os.path.join(args.out, "solve.json"),
           {**_stamp(cfg, args), **profile.meta_dict()})
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, cfg = load_model(args.model)
    grid = _parse_grid(args.grid)
    opts = SolveOptions(damping=args.damping, tol=args.tol, max_iter=args.max_iter)
    prob = _problem(spec, cfg)
    first = _default_init(prob)
    kappa = 2.0 * first.cap  # the cap is kappa / 2, so doubling gives kappa exactly
    ramp = np.clip((grid.ts - grid.t_min) / (0.0 - grid.t_min), 0.0, 1.0) * kappa
    report = uniqueness_probe(prob, grid, [first, ramp], opts)
    report.checks.insert(0, mollison_check(prob))
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "verify.json"),
           {**_stamp(cfg, args), **report.to_dict()})
    with open(os.path.join(args.out, "verify.txt"), "w") as fh:
        fh.write(report.to_text() + "\n")
    return report.exit_code()


def cmd_scan(args) -> int:
    spec, cfg = load_model(args.model)
    prob = _problem(spec, cfg)
    cf = prob.charfun()
    try:
        sd = real_roots(cf)
    except (NoRoots, StripTooNarrow) as exc:
        print(f"scan needs real-zero data: {exc}", file=sys.stderr)
        return EXIT_FAIL
    report = strip_zero_scan(cf, sd, y_max=args.y_max, grid_density=args.density)
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "scan.json"),
           {**_stamp(cfg, args), **report.to_dict()})
    return EXIT_OK if report.passed else EXIT_FAIL


_COMMANDS = {"analyze": cmd_analyze, "speed": cmd_speed, "solve": cmd_solve,
             "verify": cmd_verify, "scan": cmd_scan}


def main(argv=None) -> int:
    _setup_logging()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WavefrontError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
