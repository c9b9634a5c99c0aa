"""Tests of the benchmark itself.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import dataclasses
import filecmp
import json
import os
import subprocess
import sys

import pytest

import run
import tracer
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _files(d):
    return sorted(os.listdir(d))


@pytest.mark.parametrize("name", ["spectral", "density", "recurrence"])
def test_generator_is_deterministic_for_a_seed(tmp_path, name):
    a = workloads.generate(name, 5, str(tmp_path / "a"))
    b = workloads.generate(name, 5, str(tmp_path / "b"))
    c = workloads.generate(name, 6, str(tmp_path / "c"))
    assert a.ops == b.ops
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b",
                                               _files(tmp_path / "a"), shallow=False)
    assert not mismatch and not errors
    assert any(not filecmp.cmp(tmp_path / "a" / f, tmp_path / "c" / f, shallow=False)
               for f in _files(tmp_path / "a"))


def _bench_run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_in_benchmark_json_is_emitted(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    out = _bench_run("spectral", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        # the spectral workload does no solver work
        assert result["metrics"]["wavesolver.sweeps"]["value"] == 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    out = _bench_run("spectral", 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout == ""


def _only(wl, op_ids):
    ops = tuple(op for op in wl.ops if op.op_id in op_ids)
    assert len(ops) == len(op_ids)
    return dataclasses.replace(wl, ops=ops)


def test_failed_op_is_counted_not_skipped(tmp_path):
    wl = workloads.generate("density", 1, str(tmp_path / "in"))
    wl = _only(wl, {"nlrd-shipped-verify"})
    records = run.run_passes(wl, str(tmp_path / "in"), str(tmp_path / "out"), 0.0, None)
    assert len(records) == 1
    rec = records[0]
    assert rec["exit"] == 1 and rec["failed"] and not rec["wrong"]
    assert any("solve[init1]" in r for r in rec["reasons"])
    assert run.accuracy_summary(records)["fail_rate"] == 1.0


def test_below_c_star_ops_are_expected_outcomes(tmp_path):
    spec = _only(workloads.generate("spectral", 1, str(tmp_path / "s")), {"loc0-analyze-lo"})
    rec = _only(workloads.generate("recurrence", 1, str(tmp_path / "r")), {"loc0-solve-lo"})
    records = (run.run_passes(spec, str(tmp_path / "s"), str(tmp_path / "so"), 0.0, None)
               + run.run_passes(rec, str(tmp_path / "r"), str(tmp_path / "ro"), 0.0, None))
    assert [r["exit"] for r in records] == [1, 1]
    assert not any(r["failed"] for r in records)

    # the same artifacts scored as if a wave existed count as failed
    import scoring
    op = dataclasses.replace(rec.ops[0], expect_exit=0, expect_flag=None)
    verdict = scoring.score(op, 1, str(tmp_path / "ro" / op.op_id))
    assert verdict["failed"]


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, "op", None, 1],
             ["b", 1.0, 4.0, 0, "op", None, 1],
             ["c", 2.0, 3.0, 1, "op", None, 1],
             ["b", 5.0, 6.0, 0, "op", None, 1]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
