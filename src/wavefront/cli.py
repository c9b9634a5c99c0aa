"""Command-line front door: analyze | speed | solve | verify | scan.

Loads a model JSON, runs the requested diagnostic, and writes CSV/JSON
artifacts, stamped with a hash of the model and the command's own flags, to
the output directory.  Every command takes --model and --out; solve and
verify add --grid, --tol and --max-iter, and scan adds --y-max.
Exit codes: 0 all pass, 1 any fail (including the no-positive-zero regime
under ``analyze``), 2 undetermined without failure, 64 malformed input or
any usage error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

import numpy as np

from . import __version__
from ._json import config_hash, dumps, row_format, write_csv
from .charfun import chi, real_roots, strip_zero_scan
from .errors import NoRoots, NoWave, WavefrontError
from .models import load_model, model_min_speed
from .verify import uniqueness_probe
from .wavesolver import (SOLVE_FAILURES, Grid, SolveOptions, default_init,
                         solve_profile)

log = logging.getLogger("wavefront")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 64
# the exit code of each verdict that verify and scan report
EXIT_OF_VERDICT = {"pass": EXIT_OK, "fail": EXIT_FAIL, "undetermined": EXIT_UNDETERMINED}

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


_HANDLER = logging.StreamHandler()
_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _setup_logging():
    """Apply WAVEFRONT_LOG to the ``wavefront`` logger; the root logger is the host's."""
    level = os.environ.get("WAVEFRONT_LOG", "warn").lower()
    log.setLevel(_LOG_LEVELS.get(level, logging.WARNING))
    # sys.stderr as it is at this call, which a host or a test may have replaced
    _HANDLER.stream = sys.stderr
    log.addHandler(_HANDLER)
    # a host's root handlers would print each record a second time
    log.propagate = False


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call."""
    ap = argparse.ArgumentParser(
        prog="wavefront",
        description="Semi-wavefront diagnostics for convolution-form models")
    ap.add_argument("--version", action="version", version=f"wavefront {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        return p

    def solver(p):
        p.add_argument("--grid", default="-60,40,4096",
                       help="tmin,tmax,n of the solver grid (default: -60,40,4096)")
        p.add_argument("--tol", type=float, default=SolveOptions.tol,
                       help="solver tolerance")
        p.add_argument("--max-iter", type=int, default=SolveOptions.max_iter,
                       help="iteration cap")

    command("analyze", "real-zero data and a trace of chi")
    command("speed", "minimal admissible speed (c*, z*)")
    solver(command("solve", "semi-wavefront profile at the given speed"))
    solver(command("verify", "hypothesis audit plus a two-init uniqueness probe"))
    sc = command("scan", "count chi's zeros in a box about its real zeros")
    sc.add_argument("--y-max", type=float, default=50.0, help="half-height of the box")
    return ap


def _parse_grid(text: str) -> Grid:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("grid must be tmin,tmax,n")
    return Grid(float(parts[0]), float(parts[1]), int(parts[2]))


def _write(args, cfg: dict, name: str, payload: dict) -> None:
    """Write ``payload`` to args.out/name, stamped with the version and the config hash."""
    resolved = {**vars(args), "model": cfg}
    del resolved["out"]
    text = dumps({"version": __version__, "config_hash": config_hash(resolved), **payload})
    path = os.path.join(args.out, name)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    log.info("wrote %s", path)


def _problem(spec, cfg):
    if "c" not in cfg:
        raise ValueError("model file must set \"c\" for this command")
    return spec.to_convolution_form(float(cfg["c"]))


def cmd_analyze(args) -> int:
    spec, cfg = load_model(args.model)
    prob = _problem(spec, cfg)
    cf = prob.charfun()
    lo, hi = cf.strip
    # the margin off the left end scales with the strip end it keeps; -10 keeps 1e-6
    lo_plot = lo + 1e-6 * max(1.0, -lo) if lo > -10.0 else -10.0 + 1e-6
    hi_plot = min(hi, 10.0) - 1e-6
    xs = np.linspace(lo_plot, hi_plot, 401)
    trace = np.real(chi(cf, xs))
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "chi_trace.csv"), "x,chi", row_format(xs), trace)
    try:
        sd = real_roots(cf)
    except NoRoots as exc:
        _write(args, cfg, "spectral.json", {"error": str(exc), "no_roots": True})
        print("no positive zero of the characteristic function: no semi-wavefront "
              "vanishing at -infinity exists at this speed", file=sys.stderr)
        return EXIT_FAIL
    _write(args, cfg, "spectral.json", sd.to_dict())
    return EXIT_OK


def cmd_speed(args) -> int:
    spec, cfg = load_model(args.model)
    c_star, z_star = model_min_speed(spec)
    os.makedirs(args.out, exist_ok=True)
    _write(args, cfg, "speed.json", {"c_star": c_star, "z_star": z_star})
    return EXIT_OK


def cmd_solve(args) -> int:
    spec, cfg = load_model(args.model)
    prob = _problem(spec, cfg)
    grid = _parse_grid(args.grid)
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter)
    os.makedirs(args.out, exist_ok=True)
    try:
        profile = solve_profile(prob, grid, default_init(prob), opts)
    except SOLVE_FAILURES as exc:
        _write(args, cfg, "solve.json",
               {"error": str(exc), "no_wave": isinstance(exc, NoWave)})
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    profile.to_csv(os.path.join(args.out, "profile.csv"))
    _write(args, cfg, "solve.json", profile.meta_dict())
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, cfg = load_model(args.model)
    grid = _parse_grid(args.grid)
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter)
    report = uniqueness_probe(_problem(spec, cfg), grid, opts)
    os.makedirs(args.out, exist_ok=True)
    _write(args, cfg, "verify.json", report.to_dict())
    with open(os.path.join(args.out, "verify.txt"), "w") as fh:
        fh.write(report.to_text() + "\n")
    return EXIT_OF_VERDICT[report.verdict]


def cmd_scan(args) -> int:
    spec, cfg = load_model(args.model)
    prob = _problem(spec, cfg)
    cf = prob.charfun()
    try:
        sd = real_roots(cf)
    except NoRoots as exc:
        print(f"scan needs real-zero data: {exc}", file=sys.stderr)
        return EXIT_FAIL
    report = strip_zero_scan(cf, sd, y_max=args.y_max)
    os.makedirs(args.out, exist_ok=True)
    _write(args, cfg, "scan.json", report.to_dict())
    return EXIT_OF_VERDICT[report.status]


_COMMANDS = {"analyze": cmd_analyze, "speed": cmd_speed, "solve": cmd_solve,
             "verify": cmd_verify, "scan": cmd_scan}


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as "undetermined"
        if exc.code == 2:
            return EXIT_USAGE
        raise
    try:
        return _COMMANDS[args.command](args)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WavefrontError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
