"""wavefront benchmark: seeded workloads of CLI operations.

Run from the root of a wavefront checkout:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 10 --trace 0

One client runs the workload's ops one after another (closed loop) in this
process through ``wavefront.cli.main``, on model files generated from the
seed.  After one untimed warm-up op it repeats the whole op list until
``--seconds`` have passed, always finishing at least one pass.  Every op is
scored against its expected outcome and reference values.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Op records, artifact
hashes and spans go to ``.perfbench_work/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy loads: the benchmark
# measures a single client, and the fresh interpreters inherit this
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

SETUP_REPEATS = 3
WORKDIR = ".perfbench_work"
WORKLOADS = ("spectral", "density", "recurrence")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_passes(wl, inputs, outroot, seconds, tr):
    """Repeat the op list until ``seconds`` pass; with a tracer, alternate
    untraced and traced passes and run at least one of each."""
    import clock
    import scoring

    records, first = [], {}
    scoring.execute(wl.warmup, inputs, os.path.join(outroot, "warmup"))
    deadline = time.perf_counter() + seconds
    p = 0
    while True:
        traced = tr is not None and p % 2 == 1
        if traced:
            tr.install()
        try:
            for op in wl.ops:
                outdir = os.path.join(outroot, op.op_id)
                if traced:
                    tr.op = f"{op.op_id}#{p}"
                try:
                    code, wall, probe_s, crash = scoring.execute(op, inputs, outdir)
                finally:
                    if traced:
                        tr.op = None
                rec = _record(op, p, traced, code, wall, crash, outdir, first)
                rec["probe_s"] = probe_s
                rec["scaled_s"] = clock.scaled(wall, probe_s)
                records.append(rec)
        finally:
            if traced:
                tr.uninstall()
        p += 1
        if time.perf_counter() >= deadline and (tr is None or p >= 2):
            return records


def _record(op, p, traced, code, wall, crash, outdir, first):
    """Score an op; a repeat whose artifacts match the first pass reuses its verdict."""
    import scoring

    hashes = scoring.hashes(op, outdir)
    prev = first.get(op.op_id)
    if prev is not None and prev["exit"] == code and prev["artifacts"] == hashes and code is not None:
        verdict = {k: prev[k] for k in ("failed", "wrong", "reasons", "accuracy", "artifacts")}
    else:
        verdict = scoring.score(op, code, outdir, crash)
        if prev is not None:
            why = f"artifacts or exit differ from pass {prev['pass']}"
            verdict.update(failed=True, wrong=True, reasons=verdict["reasons"] + [why])
    rec = {"op": op.op_id, "pass": p, "traced": traced, "command": op.command,
           "model": op.model, "expect_exit": op.expect_exit, "expect_flag": op.expect_flag,
           "exit": code, "wall_s": wall, **verdict, "note": op.note}
    first.setdefault(op.op_id, rec)
    return rec


def accuracy_summary(records) -> dict:
    """Worst accuracy per kind over all ops; None where no op of that kind ran."""
    out = {}
    for key, field in (("cstar_abs_err", "cstar_abs_err"),
                       ("lambda_hat_abs_err", "lambda_hat_abs_err"),
                       ("residual_max", "residual")):
        vals = [r["accuracy"][field] for r in records if field in r["accuracy"]]
        out[key] = max(vals) if vals else None
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    out["fail_rate"] = failed / attempted
    return out


def artifact_digest(records) -> tuple[str, dict]:
    """Per-op artifact hashes from the first pass, and one digest over all of them."""
    table = {}
    for r in records:
        table.setdefault(r["op"], r["artifacts"])
    h = hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()
    return h, table


def pass_sums(records, key="scaled_s") -> dict[tuple[bool, int], float]:
    """Summed op time per (traced, pass)."""
    sums: dict[tuple[bool, int], float] = {}
    for r in records:
        k = (r["traced"], r["pass"])
        sums[k] = sums.get(k, 0.0) + r[key]
    return sums


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of all order
    statistics.  The op times form clusters by command, and the sample median
    jumps when the middle of the sample falls between two clusters."""
    from scipy.special import betainc

    x = sorted(values)
    a = (len(x) + 1) / 2.0
    cdf = [float(betainc(a, a, i / len(x))) for i in range(len(x) + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(x))


def end_to_end(records, setup):
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_sums(records).values()),
        "op_p50_s": hd_median(r["scaled_s"] for r in records),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(records, tr, imports, ops):
    import tracer

    def useful(span_op, error):
        op = ops[span_op.rsplit("#", 1)[0]]
        return error == "NoWave" if op.expect_flag == "no_wave" else error is None

    sums = pass_sums(records)
    traced = [w for (t, _), w in sorted(sums.items()) if t]
    untraced = [w for (t, _), w in sorted(sums.items()) if not t]
    metrics = dict(imports)
    metrics.update(tracer.layer_metrics(tr.spans, len(traced), useful))
    # pass 0 also pays first-use costs the single warm-up op did not cover;
    # leave it out of the untraced side when a later untraced pass exists
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced[1:] or untraced))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wavefront", "cli.py")):
        print("perfbench: no src/wavefront/cli.py here; run from the root of a "
              "wavefront checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import startup

    # fresh interpreters first, before this process loads the package
    if args.trace:
        imports, setup = startup.import_breakdown(root, SETUP_REPEATS), None
    else:
        imports, setup = None, startup.setup_seconds(root, SETUP_REPEATS)

    import wavefront
    if not os.path.abspath(wavefront.__file__).startswith(src + os.sep):
        print(f"perfbench: imported wavefront from {wavefront.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracer
    import workloads

    workdir = os.path.join(root, WORKDIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = os.path.join(workdir, "inputs")
    wl = workloads.generate(args.workload, args.seed, inputs)

    tr = tracer.Tracer() if args.trace else None
    records = run_passes(wl, inputs, os.path.join(workdir, "out"), args.seconds, tr)

    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    correct = not any(r["wrong"] for r in records)
    passes = len({r["pass"] for r in records})
    if tr is None:
        values = end_to_end(records, setup)
        units = END_TO_END_UNITS
    else:
        values = per_layer(records, tr, imports, {op.op_id: op for op in wl.ops})
        units = {k: layer_unit(k) for k in values}
        tr.write(os.path.join(workdir, "spans.jsonl"))
    accuracy = accuracy_summary(records)
    digest, table = artifact_digest(records)

    with open(os.path.join(workdir, "ops.jsonl"), "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    with open(os.path.join(workdir, "summary.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "passes": passes, "attempted": attempted, "failed": failed,
                   "correct": correct, "metrics": values, "accuracy": accuracy,
                   "setup_runs_s": setup, "artifact_digest": digest, "artifacts": table},
                  fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{passes} passes of {len(wl.ops)} ops, {attempted} ops attempted, {failed} failed")
    raw = pass_sums(records, "wall_s")
    notes = {"setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
             "wall_s": f"median over {passes} passes of {len(wl.ops)} ops "
                       f"(unscaled {statistics.median(raw.values()):.4g} s)",
             "op_p50_s": f"median of {attempted} ops "
                         f"(unscaled {statistics.median(r['wall_s'] for r in records):.4g} s)"}
    for name, v in values.items():
        print(f"  {name:36s} {v:14.6g} {units[name]:6s} {notes.get(name, '')}")
    print("accuracy: " + "; ".join(
        f"{k} {'absent' if v is None else format(v, '.3g')}" for k, v in accuracy.items()))
    shown = set()
    for r in records:
        line = f"failed op {r['op']}: {'; '.join(r['reasons'])}" + (
            f" [{r['note']}]" if r["note"] else "")
        if r["failed"] and line not in shown:
            shown.add(line)
            print(line)
    print(f"artifact digest {digest}  (records in {os.path.relpath(workdir, root)})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
