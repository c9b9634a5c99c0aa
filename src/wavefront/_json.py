"""Deterministic JSON and CSV output: sorted keys, 17-significant-digit floats.

Floats are emitted via '%.17g' so identical inputs give byte-identical
files and every value round-trips exactly.  Non-finite values have no
JSON literal and are emitted as the strings "inf", "-inf", "nan"
(extended-real abscissas are data here, not errors); in CSV they are
written bare, as '%.17g' prints them.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

__all__ = ["dumps", "config_hash", "write_csv"]


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def config_hash(cfg: dict) -> str:
    """Stable short hash of a resolved configuration dictionary."""
    return hashlib.sha256(dumps(cfg).encode()).hexdigest()[:16]


def write_csv(path, header: str, a, b) -> None:
    """Two float columns under a header line, each value as '%.17g', in one write."""
    rows = np.column_stack((a, b)).ravel().tolist()
    with open(path, "w") as fh:
        fh.write(header + "\n" + ("%.17g,%.17g\n" * (len(rows) // 2)) % tuple(rows))
