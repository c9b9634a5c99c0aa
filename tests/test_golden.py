"""The shipped CLI runs reproduce their committed goldens (``tests/golden/``).

``tests/golden/regen.py`` owns the runs, the goldens and the comparison:
keys, strings, ints and exit codes exactly, floats to a relative 1e-12.
"""

from golden import regen
from wavefront.cli import main


def test_shipped_runs_match_the_goldens(tmp_path):
    codes = regen.run_all(tmp_path)
    assert len(codes) == 5 * len(list(regen.MODELS.glob("*.json")))
    rows = regen.compare(regen.HERE, tmp_path, codes)
    assert not rows, "differences from the goldens:\n" + regen.report(rows)


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
