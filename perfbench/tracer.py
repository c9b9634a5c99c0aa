"""Spans around the public functions of each wavefront module, from outside.

``Tracer.install()`` replaces each traced function with a wrapper wherever
the function object is bound: in its defining module, in every wavefront
module that imported the name (``cli.solve_profile``,
``verify.solve_profile``, ...), and on the classes for the methods
(``laplace`` per kernel class, ``to_convolution_form`` per family,
``ConvolutionProblem.equilibrium``).  ``uninstall()`` puts the originals back.

A span is ``[name, start, end, parent, op, error, points]``: ``parent`` is
the index of the enclosing span (-1 at the op root), ``error`` the class
name of an exception that left the call, ``points`` the number of
arguments evaluated (chi only).  Spans are recorded only while ``op`` is
set, and kept in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# module, attribute, span name
FUNCTIONS = (
    ("wavefront.cli", "main", "cli"),
    ("wavefront.models", "model_min_speed", "models.min_speed"),
    ("wavefront.charfun", "real_roots", "charfun.real_roots"),
    ("wavefront.charfun", "chi", "charfun.chi"),
    ("wavefront.charfun", "min_speed", "charfun.tangency"),
    ("wavefront.charfun", "strip_zero_scan", "charfun.scan"),
    ("wavefront.wavesolver", "solve_profile", "wavesolver.solve"),
    ("wavefront.wavesolver", "apply_operator", "wavesolver.sweep"),
    ("wavefront.wavesolver", "convolve_field", "wavesolver.convolve"),
    ("wavefront.wavesolver", "discrete_decay_rate", "wavesolver.decay_rate"),
    ("wavefront.wavesolver", "residual", "wavesolver.residual"),
    ("wavefront.asymptotics", "fit_decay", "asymptotics.fit_decay"),
    ("wavefront.verify", "uniqueness_probe", "verify.probe"),
    ("wavefront.verify", "audit_hypotheses", "verify.audit"),
    ("wavefront.verify", "speed_admissibility", "verify.admissibility"),
)

# kernel class name -> key in "wavesolver.convolve.<key>" and "kernels.laplace.<key>"
SHAPES = {
    "GaussianKernel": "gaussian",
    "TabulatedKernel": "tabulated",
    "OneSidedExponential": "exponential",
    "PiecewiseGreen": "green",
    "DiracComb": "dirac",
    "ConvolvedKernel": "convolved",
}

NAME, START, END, PARENT, OP, ERROR, POINTS = range(7)


def _shape(k) -> str:
    return SHAPES.get(type(k).__name__, type(k).__name__.lower())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, name_of=None, points_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            rec = [name_of(args) if name_of else name, time.perf_counter(), 0.0,
                   tracer._stack[-1] if tracer._stack else -1, tracer.op, None,
                   points_of(args) if points_of else 1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from wavefront.kernels import KernelComponent
        from wavefront.models import ConvolutionProblem, ModelSpec

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "wavefront" or n.startswith("wavefront."))]
        for mod_name, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[mod_name], attr)
            name_of = points_of = None
            if attr == "convolve_field":
                name_of = lambda args: "wavesolver.convolve." + _shape(args[0])  # noqa: E731
            if attr == "chi":
                points_of = lambda args: int(np.size(args[1]))  # noqa: E731
            wrapper = self._wrap(fn, name, name_of, points_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
        for cls in _subclasses(KernelComponent):
            if "laplace" in vars(cls):
                self._patch(cls, "laplace", self._wrap(
                    vars(cls)["laplace"], "kernels.laplace." + SHAPES.get(cls.__name__, cls.__name__)))
        for cls in _subclasses(ModelSpec):
            if "to_convolution_form" in vars(cls):
                self._patch(cls, "to_convolution_form", self._wrap(
                    vars(cls)["to_convolution_form"], "models.to_convolution_form"))
        self._patch(ConvolutionProblem, "equilibrium",
                    self._wrap(vars(ConvolutionProblem)["equilibrium"], "models.equilibrium"))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "error", "points")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def layer_metrics(spans: list[list], passes: int, useful_solve) -> dict[str, float]:
    """Per-layer metrics per traced pass.

    ``useful_solve(op_id, error)`` says whether a solve span that ended with
    ``error`` (None on success) is the outcome its op expects.
    """
    selfs = self_times(spans)
    tot: dict[str, float] = {}
    calls: dict[str, int] = {}
    in_scan = [False] * len(spans)
    sweeps = nowave_sweeps = useful_sweeps = 0
    sweep_time = chi_points = scan_points = 0.0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        tot[name] = tot.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        parent = spans[rec[PARENT]] if rec[PARENT] >= 0 else None
        in_scan[i] = name == "charfun.scan" or (parent is not None and in_scan[rec[PARENT]])
        if name == "charfun.chi":
            chi_points += rec[POINTS]
            if in_scan[i]:
                scan_points += rec[POINTS]
        if name == "wavesolver.sweep" and parent is not None and parent[NAME] == "wavesolver.solve":
            sweeps += 1
            sweep_time += rec[END] - rec[START]
            if parent[ERROR] == "NoWave":
                nowave_sweeps += 1
            if useful_solve(parent[OP], parent[ERROR]):
                useful_sweeps += 1

    def s(name):
        return tot.get(name, 0.0) / passes

    def n(name):
        return calls.get(name, 0) / passes

    laplace = [k for k in tot if k.startswith("kernels.laplace.")]
    out = {
        "cli.self_s": s("cli"),
        "cli.ops": n("cli"),
        "models.to_convolution_form_s": s("models.to_convolution_form"),
        "models.to_convolution_form_calls": n("models.to_convolution_form"),
        "models.min_speed_s": s("models.min_speed"),
        "models.min_speed_calls": n("models.min_speed"),
        "models.equilibrium_s": s("models.equilibrium"),
        "models.equilibrium_calls": n("models.equilibrium"),
        "charfun.real_roots_s": s("charfun.real_roots"),
        "charfun.real_roots_calls": n("charfun.real_roots"),
        "charfun.chi_s": s("charfun.chi"),
        "charfun.chi_calls": n("charfun.chi"),
        "charfun.chi_points": chi_points / passes,
        "charfun.tangency_s": s("charfun.tangency"),
        "charfun.scan_s": s("charfun.scan"),
        "charfun.scan_points": scan_points / passes,
        "kernels.laplace_s": sum(tot[k] for k in laplace) / passes,
        "kernels.laplace_calls": sum(calls[k] for k in laplace) / passes,
        "kernels.laplace.tabulated_s": s("kernels.laplace.tabulated"),
    }
    for shape in ("gaussian", "tabulated", "exponential", "green", "dirac"):
        out[f"wavesolver.convolve.{shape}_s"] = s(f"wavesolver.convolve.{shape}")
    out.update({
        "wavesolver.solve_s": s("wavesolver.solve"),
        "wavesolver.solve_calls": n("wavesolver.solve"),
        "wavesolver.sweeps": sweeps / passes,
        "wavesolver.sweep_ms": 1e3 * sweep_time / sweeps if sweeps else 0.0,
        "wavesolver.nowave_sweeps": nowave_sweeps / passes,
        "wavesolver.useful_sweep_ratio": useful_sweeps / sweeps if sweeps else 0.0,
        "wavesolver.decay_rate_s": s("wavesolver.decay_rate"),
        "wavesolver.decay_rate_calls": n("wavesolver.decay_rate"),
        "wavesolver.residual_s": s("wavesolver.residual"),
        "asymptotics.fit_decay_s": s("asymptotics.fit_decay"),
        "asymptotics.fit_decay_calls": n("asymptotics.fit_decay"),
        "verify.probe_s": s("verify.probe"),
        "verify.audit_s": s("verify.audit"),
        "verify.admissibility_s": s("verify.admissibility"),
    })
    return out


