"""Deterministic JSON and CSV output: sorted keys, 17-significant-digit floats.

Floats are emitted via '%.17g' so identical inputs give byte-identical
files and every value round-trips exactly.  Non-finite values have no
JSON literal and are emitted as the strings "inf", "-inf", "nan"
(extended-real abscissas are data here, not errors); in CSV they are
written bare, as '%.17g' prints them.

A CSV is a header line and two columns.  Its first column is formatted
once into a row template (:func:`row_format`), so a caller that writes
many second columns against one first column, as every ``profile.csv``
on one grid does, formats only the second column on each write.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

__all__ = ["dumps", "config_hash", "row_format", "write_csv"]


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


def row_format(a) -> str:
    """The rows of a two-column CSV with the first column ``a`` filled in.

    Line i reads ``<a_i as '%.17g'>,%.17g``: a ``%`` template for the second
    column, built in one ``%`` pass.  '%.17g' never prints a ``%``, so every
    float, -0, +-inf, nan and subnormals included, leaves the template whole.
    """
    a = np.asarray(a, dtype=float)
    return ("%.17g,%%.17g\n" * len(a)) % tuple(a.tolist())


def write_csv(path, header: str, rows: str, b) -> None:
    """The header line, then ``rows`` (from :func:`row_format`) filled with ``b``, in one write.

    Every value is '%.17g', so the bytes are those of the per-row loop
    ``f"{a:.17g},{b:.17g}\n"``.
    """
    # formatted before the file opens: a length mismatch leaves no empty file
    text = rows % tuple(np.asarray(b, dtype=float).tolist())
    with open(path, "w") as fh:
        fh.write(header + "\n" + text)
