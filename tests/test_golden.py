"""The CLI runs reproduce their committed goldens (``tests/golden/``).

``tests/golden/regen.py`` owns the runs, the goldens and the comparison:
keys, strings, ints and exit codes exactly, floats to a relative 1e-12.
``models/expected.tsv`` owns the exit codes.
"""

import re
import shutil

import pytest

from golden import regen
from wavefront.cli import main

def test_shipped_runs_match_the_goldens(fresh_golden_run):
    # the shipped models and the cases, run once in conftest's fresh interpreter
    assert fresh_golden_run["check"] == 0, fresh_golden_run["report"]
    assert f"{5 * len(regen.model_files())} runs match the goldens" in fresh_golden_run["report"]


def test_a_code_that_leaves_the_table_is_reported_with_its_reason(tmp_path):
    # the goldens of one run the table lists, and that run exiting 0
    key, (code, reason) = min(regen.expected_codes().items())
    shutil.copytree(regen.HERE / key, tmp_path / key)
    rows = regen.compare(tmp_path, tmp_path, {key: 0})
    assert rows == [(key, "exit code", f"{code} ({reason})", 0, "")]
    line = regen.report(rows).splitlines()[1]
    assert line.startswith(key) and f"{code} ({reason})" in line
    # a run the table does not list expects 0
    rows = regen.compare(tmp_path, tmp_path, {key: code, "cases/kpp_rightward/analyze": 2})
    assert ("cases/kpp_rightward/analyze", "exit code", 0, 2, "") in rows
    # and a golden run that did not run is reported too
    assert (key, "run", "present", "(absent)", "") in regen.compare(tmp_path, tmp_path, {})


def test_every_table_row_names_a_run_and_an_item():
    runs = {regen.run_key(m, c) for m in regen.model_files() for c in regen.COMMANDS}
    lines = [line for line in regen.TABLE.read_text().splitlines()
             if line and not line.startswith("#")]
    table = regen.expected_codes()
    assert len(table) == len(lines)  # no run twice
    for key, (code, reason) in table.items():
        assert key in runs
        assert code != 0
        assert re.search(r"\bitems? \d+", reason), (key, reason)


def test_rewrite_writes_nothing_when_a_code_leaves_the_table(tmp_path, monkeypatch, capsys):
    key = min(regen.expected_codes())

    def run_all(out):
        return {key: 0}

    def files():
        return sorted((p.relative_to(golden), p.read_bytes()) for p in golden.rglob("*")
                      if p.is_file())

    golden = tmp_path / "golden"
    shutil.copytree(regen.HERE / key, golden / key)
    before = files()
    monkeypatch.setattr(regen, "HERE", golden)
    monkeypatch.setattr(regen, "run_all", run_all)
    assert regen.main([]) == 1
    assert "nothing written" in capsys.readouterr().out
    assert files() == before


def test_a_moved_number_is_reported_in_a_table(tmp_path):
    # a looser tolerance stops the solve earlier: every number it moves
    # shows as a row, with its relative change where it is a float
    model = regen.MODELS / "nonlocal_lattice.json"
    assert main(["solve", "--model", str(model), "--out", str(tmp_path), "--tol", "1e-6"]) == 0
    golden = regen.HERE / "nonlocal_lattice" / "solve"
    rows = {}
    for name in ("solve.json", "profile.csv"):
        new = (tmp_path / name).read_text()
        rows[name] = regen.diff_artifact(name, (golden / name).read_text(), new)
    keys = {r[0]: r for r in rows["solve.json"]}
    assert keys["convergence.iterations"][1] > keys["convergence.iterations"][2]
    assert keys["convergence.iterations"][3] == ""
    assert 0.0 < keys["convergence.residual"][3]
    assert "config_hash" in keys
    assert rows["profile.csv"] and all(r[0].startswith("row ") for r in rows["profile.csv"])
    # the table names the artifact, the key, both values and the change
    table = regen.report([("nonlocal_lattice/solve/solve.json", *r) for r in rows["solve.json"]])
    head, line = table.splitlines()[0], next(s for s in table.splitlines() if "residual" in s)
    assert head.split() == ["artifact", "key", "or", "row", "old", "new", "rel.", "change"]
    assert line.startswith("nonlocal_lattice/solve/solve.json")
    # equal texts give no row, and a float within REL is equal
    same = (golden / "solve.json").read_text()
    assert regen.diff_artifact("solve.json", same, same) == []
    nudged = same.replace('"plateau": 0.49999999999999972', '"plateau": 0.49999999999999978')
    assert nudged != same and regen.diff_artifact("solve.json", same, nudged) == []


def test_the_report_ends_with_one_line_per_artifact():
    # past SHOWN rows the table is cut, and the per-artifact lines still count every row
    rows = [("a/solve/solve.json", f"k{i}", 1.0, 1.5, 1 / 3) for i in range(regen.SHOWN)]
    rows += [("a/solve/profile.csv", "row 0.phi", 1.0, 1.25, 0.2),
             ("a/solve/profile.csv", "row 16.phi", 2.0, 2.0002, 1e-4),
             ("a/verify/verify.json", "checks length", 11, 10, "")]
    lines = regen.report(rows).splitlines()
    assert "... and 3 more" in lines
    tail = [line.split() for line in lines[lines.index("") + 2:]]
    assert tail == [["a/solve/solve.json", str(regen.SHOWN), "0.333"],
                    ["a/solve/profile.csv", "2", "0.2"],
                    ["a/verify/verify.json", "1", "-"]]
    assert "" not in regen.report([]).splitlines()


def test_a_dropped_text_line_is_one_row():
    # the lines are aligned before they are compared: a dropped line does
    # not shift the lines after it against other golden lines
    golden = (regen.HERE / "local_delayed_rd" / "verify" / "verify.txt").read_text()
    lines = golden.splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if "sup_abs_slope" in line)
    dropped = "".join(lines[:k] + lines[k + 1:])
    assert regen.diff_artifact("verify.txt", golden, dropped) == [
        (f"line {k + 1}", lines[k].rstrip("\n"), "(absent)", "")]
    assert regen.diff_artifact("verify.txt", dropped, golden) == [
        (f"line {k + 1}", "(absent)", lines[k].rstrip("\n"), "")]
    # a number that moves on a later line is still compared with its own line
    moved = dropped.replace("sup_diff = 3.64695", "sup_diff = 3.74695")
    assert moved != dropped
    j = next(i for i, line in enumerate(lines) if "sup_diff" in line)
    old = lines[j].split("=")[1].strip()
    new = old.replace("3.64695", "3.74695")
    rows = regen.diff_artifact("verify.txt", golden, moved)
    assert rows[0][2] == "(absent)"
    assert rows[1:] == [(f"line {j + 1}[1]", float(old), float(new),
                         pytest.approx(1e-8 / float(new)))]
