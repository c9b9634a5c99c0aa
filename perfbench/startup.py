"""Start-up cost of the CLI, measured in fresh interpreters.

``setup_seconds`` times whole child processes that only import
``wavefront.cli`` (what every CLI invocation pays before doing work),
each scaled by machine-speed probes (``clock.timed``);
``import_breakdown`` reads ``python -X importtime`` for the package and the
two SciPy subpackages that dominate it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

import clock

IMPORT = "import wavefront.cli"
TIMEOUT_S = 60

# importtime module name -> per-layer metric
BREAKDOWN = {
    "wavefront": "import.wavefront_s",
    "scipy.signal": "import.scipy_signal_s",
    "scipy.optimize": "import.scipy_optimize_s",
}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(args: list[str], root: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=TIMEOUT_S, check=True)


def setup_seconds(root: str, repeats: int) -> list[float]:
    """Scaled wall time of ``repeats`` fresh interpreters importing the CLI."""
    out = []
    for _ in range(repeats):
        _, wall, probe_s = clock.timed(lambda: _run(["-c", IMPORT], root))
        out.append(clock.scaled(wall, probe_s))
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of each BREAKDOWN module; 0 for one not imported.

    A package whose own line is missing from the report (SciPy's lazy
    submodule loading can drop it) counts as the sum of its shallowest
    submodule lines.
    """
    rows = []  # (depth, name, cumulative seconds)
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        if not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
    found = {}
    for module, metric in BREAKDOWN.items():
        own = [cum for _, name, cum in rows if name == module]
        subs = [(depth, cum) for depth, name, cum in rows if name.startswith(module + ".")]
        if own:
            found[metric] = own[0]
        elif subs:
            top = min(depth for depth, _ in subs)
            found[metric] = sum(cum for depth, cum in subs if depth == top)
        else:
            found[metric] = 0.0
    return found


def import_breakdown(root: str, repeats: int) -> dict[str, float]:
    """Median over ``repeats`` fresh interpreters of each BREAKDOWN entry."""
    runs = [parse_importtime(_run(["-X", "importtime", "-c", IMPORT], root).stderr)
            for _ in range(repeats)]
    return {metric: statistics.median(r[metric] for r in runs) for metric in BREAKDOWN.values()}
