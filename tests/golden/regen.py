"""Golden artifacts of the CLI runs: rewrite them, or compare with them.

Every model file, the shipped ``models/*.json`` and the cases
``models/cases/*.json``, runs through the five commands (analyze, speed,
solve, verify, scan) in this process, each into its own directory, with
the CLI's default flags.  A run is named by its model's path under
``models/`` and its command, as ``cases/kpp_rightward/verify``.  Its exit
code must be the one ``models/expected.tsv`` gives it; the table lists
only the runs that do not exit 0, each with the open item behind it.  The
goldens next to this script are the artifacts each run wrote
(``<run>/``); ``profile.csv`` keeps its header and every 16th row.  From
the root of the checkout:

    PYTHONPATH=src python tests/golden/regen.py          # rewrite the goldens
    PYTHONPATH=src python tests/golden/regen.py --check  # compare only, exit 1 on a mismatch

The comparison reads the numbers: keys, strings, ints and exit codes must
match exactly, floats to a relative ``REL`` (the sampled convolution is one
``np.dot``, whose summation order may follow the BLAS build and the CPU).
A mismatch prints one row per difference: artifact, key or row, old, new
and relative change; the report ends with one line per differing artifact,
its row count and its largest relative change.  The lines of a text
artifact are aligned by ``difflib`` on their text around the numbers
first, so an added or dropped line is one row.  The rewrite writes nothing
while an exit code differs from the table, so a new failure is recorded
only by editing the table.  Needs numpy and wavefront only.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
MODELS = HERE.parents[1] / "models"
# the runs that do not exit 0: model, command, exit code and the reason
TABLE = MODELS / "expected.tsv"
COMMANDS = ("analyze", "speed", "solve", "verify", "scan")
# artifact -> the stride of the data rows kept in its golden
THIN = {"profile.csv": 16}
REL = 1e-12
# rows of a mismatch table printed before the rest is only counted
SHOWN = 40
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def model_files() -> list[Path]:
    """The shipped models, then the cases."""
    return sorted(MODELS.glob("*.json")) + sorted((MODELS / "cases").glob("*.json"))


def run_key(model: Path, command: str) -> str:
    """The name of a run: its model's path under ``models/`` and its command."""
    return f"{model.relative_to(MODELS).with_suffix('').as_posix()}/{command}"


def expected_codes() -> dict[str, tuple[int, str]]:
    """The table: run -> (exit code, reason), for every run that does not exit 0."""
    table = {}
    for line in TABLE.read_text().splitlines():
        if line and not line.startswith("#"):
            model, command, code, reason = line.split("\t")
            table[f"{model}/{command}"] = (int(code), reason)
    return table


def run_all(out: Path) -> dict[str, int]:
    """Run every model file through every command under ``out``; the exit code per run."""
    from wavefront.cli import main

    codes = {}
    for model in model_files():
        for command in COMMANDS:
            key = run_key(model, command)
            with contextlib.redirect_stderr(io.StringIO()):
                codes[key] = main([command, "--model", str(model), "--out", str(out / key)])
    return codes


def code_rows(codes: dict[str, int]) -> list[tuple]:
    """Rows (run, "exit code", expected code and reason, code) where ``codes`` leave the table."""
    table = expected_codes()
    rows = []
    for key in sorted(codes):
        code, reason = table.get(key, (0, ""))
        if codes[key] != code:
            rows.append((key, "exit code", f"{code} ({reason})" if reason else code,
                         codes[key], ""))
    return rows


def thin(name: str, text: str) -> str:
    """The golden form of an artifact: the header and every THIN[name]-th data row."""
    step = THIN.get(name)
    if step is None:
        return text
    lines = text.splitlines(keepends=True)
    return lines[0] + "".join(lines[1::step])


def write(golden: Path, fresh: Path, codes: dict[str, int]) -> None:
    """Replace the goldens with the artifacts under ``fresh``."""
    for old in golden.iterdir():
        if old.is_dir() and old.name != "__pycache__":
            shutil.rmtree(old)
    for key in codes:
        (golden / key).mkdir(parents=True)
        for path in sorted((fresh / key).iterdir()):
            (golden / key / path.name).write_text(thin(path.name, path.read_text()))


# ---------------------------------------------------------------------------
# comparison


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _differ(old, new, where: str) -> list[tuple]:
    """Rows (where, old, new, relative change) for two parsed JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        rows = []
        for k in sorted(set(old) | set(new)):
            sub = f"{where}.{k}" if where else k
            if k not in old or k not in new:
                rows.append((sub, old.get(k, "(absent)"), new.get(k, "(absent)"), ""))
            else:
                rows += _differ(old[k], new[k], sub)
        return rows
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [(f"{where} length", len(old), len(new), "")]
        return [r for i, (a, b) in enumerate(zip(old, new)) for r in _differ(a, b, f"{where}[{i}]")]
    if _is_number(old) and _is_number(new):
        if isinstance(old, int) and isinstance(new, int):
            return [] if old == new else [(where, old, new, "")]
        if old == new or (math.isnan(old) and math.isnan(new)):
            return []
        rel = abs(new - old) / max(abs(old), abs(new))
        return [(where, old, new, rel)] if not rel <= REL else []
    if type(old) is type(new) and old == new:
        return []
    return [(where, old, new, "")]


def _tokens(line: str) -> list:
    """A text line as its literal pieces and its numbers (ints and floats)."""
    out = []
    for i, piece in enumerate(_NUMBER.split(line)):
        if i % 2 == 0:
            out.append(piece)
        else:
            out.append(float(piece) if any(ch in piece for ch in ".eE") else int(piece))
    return out


def _diff_lines(old_lines: list[str], new_lines: list[str]) -> list[tuple]:
    """Rows for two texts whose lines ``difflib`` aligns by their text around the numbers.

    Aligned lines compare number by number; a line on one side only is one
    row, numbered on its own side.
    """
    def masked(lines):
        return [tuple(_tokens(line)[::2]) for line in lines]

    rows = []
    matcher = difflib.SequenceMatcher(None, masked(old_lines), masked(new_lines), autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            for i, j in zip(range(i1, i2), range(j1, j2)):
                rows += _differ(_tokens(old_lines[i]), _tokens(new_lines[j]), f"line {i + 1}")
            continue
        rows += [(f"line {i + 1}", old_lines[i], "(absent)", "") for i in range(i1, i2)]
        rows += [(f"line {j + 1}", "(absent)", new_lines[j], "") for j in range(j1, j2)]
    return rows


def diff_artifact(name: str, old: str, new: str) -> list[tuple]:
    """Rows (key or row, old, new, relative change) between two texts of one artifact.

    ``new`` is the artifact as a run wrote it, ``old`` its golden.
    """
    new = thin(name, new)
    if name.endswith(".json"):
        return _differ(json.loads(old), json.loads(new), "")
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if not name.endswith(".csv"):
        return _diff_lines(old_lines, new_lines)
    rows = []
    if len(old_lines) != len(new_lines):
        rows.append(("lines", len(old_lines), len(new_lines), ""))
    rows += _differ(old_lines[0], new_lines[0], "header")
    columns = old_lines[0].split(",")
    step = THIN.get(name, 1)
    for i, (a, b) in enumerate(zip(old_lines[1:], new_lines[1:])):
        cells = {c: float(v) for c, v in zip(columns, a.split(","))}
        rows += _differ(cells, {c: float(v) for c, v in zip(columns, b.split(","))},
                        f"row {i * step}")
    return rows


def compare(golden: Path, fresh: Path, codes: dict[str, int]) -> list[tuple]:
    """Rows (artifact, key or row, old, new, relative change) where a run leaves the table
    or ``fresh`` leaves the goldens."""
    rows = code_rows(codes)
    runs = {d.relative_to(golden).as_posix() for d in golden.rglob("*")
            if d.is_dir() and d.name in COMMANDS}
    rows += [(key, "run", "present", "(absent)", "") for key in sorted(runs - set(codes))]
    for key in sorted(codes):
        # the scalar artifacts first, then the long tables
        names = sorted({p.name for d in (golden / key, fresh / key) if d.is_dir()
                        for p in d.iterdir()}, key=lambda n: (n.endswith(".csv"), n))
        for name in names:
            g, f = golden / key / name, fresh / key / name
            if not (g.exists() and f.exists()):
                rows.append((f"{key}/{name}", "file", "present" if g.exists() else "(absent)",
                             "present" if f.exists() else "(absent)", ""))
                continue
            rows += [(f"{key}/{name}", *r) for r in diff_artifact(name, g.read_text(), f.read_text())]
    return rows


def _table(body: list[tuple]) -> list[str]:
    widths = [max(len(r[i]) for r in body) for i in range(len(body[0]))]
    return ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in body]


def report(rows: list[tuple]) -> str:
    """The mismatch table, SHOWN rows at most, the count of the rest, then one
    line per artifact: its rows and its largest relative change."""
    head = ("artifact", "key or row", "old", "new", "rel. change")
    lines = _table([head] + [(art, where, str(old), str(new), "" if rel == "" else format(rel, ".3g"))
                             for art, where, old, new, rel in rows[:SHOWN]])
    if len(rows) > SHOWN:
        lines.append(f"... and {len(rows) - SHOWN} more")
    per: dict[str, list] = {}
    for art, _, _, _, rel in rows:
        per.setdefault(art, []).append(rel)
    if per:
        lines.append("")
        lines += _table([("artifact", "rows", "largest rel. change")] + [
            (art, str(len(rels)), max((format(r, ".3g") for r in rels if r != ""),
                                      key=float, default="-"))
            for art, rels in per.items()])
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare the runs with the goldens and rewrite nothing")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        codes = run_all(fresh)
        if not args.check:
            rows = code_rows(codes)
            if rows:
                print(f"{len(rows)} exit codes differ from {TABLE.name}; nothing written:")
                print(report(rows))
                return 1
            write(HERE, fresh, codes)
            print(f"wrote the goldens of {len(codes)} runs to {HERE}")
            return 0
        rows = compare(HERE, fresh, codes)
    if rows:
        print(f"{len(rows)} differences from the goldens (floats to a relative {REL:g}):")
        print(report(rows))
        return 1
    print(f"{len(codes)} runs match the goldens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
