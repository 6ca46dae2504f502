"""Benchmark child process: runs one workload's operations in process.

Reads a JSON spec on stdin, ``{"ops", "seconds", "trace", "workdir",
"spans_path"}``, and prints one JSON report as its last stdout line.

Each operation calls ``cyclodes.cli.main(argv)`` with stdout and stderr
captured.  A repetition runs the whole operation list; repetitions continue
while another one is expected to fit in ``seconds``.  With ``trace`` set,
untraced and traced repetitions alternate, starting untraced, and at least
one of each runs.  Output checks run after the timed loop, with the tracer
removed, once per distinct output.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy

from cyclodes import cli

import tracer
import workloads


def run_op(op: dict, report_dir: Path) -> dict:
    argv = list(op["argv"])
    csv_path = None
    if op["kind"] == "search":
        report_dir.mkdir(parents=True, exist_ok=True)
        csv_path = report_dir / f"family_report_d{op['d']}.csv"
        csv_path.unlink(missing_ok=True)  # a stale report must not pass for a new one
        argv += ["--report-dir", str(report_dir)]
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an operation that raises counts as failed
        rc = f"raised {exc!r}"
    seconds = perf_counter() - start
    csv = csv_path.read_text() if csv_path and csv_path.exists() else None
    return {"rc": rc, "stdout": out.getvalue(), "csv": csv, "seconds": seconds}


def run_rep(ops: list[dict], workdir: Path, trace: tracer.Tracer | None) -> dict:
    results = []
    with trace or contextlib.nullcontext():
        for i, op in enumerate(ops):
            if trace:
                trace.op = i
            results.append(run_op(op, workdir / f"op{i}"))
    return {"traced": trace is not None, "results": results,
            "job_s": sum(r["seconds"] for r in results),
            "spans": trace.spans if trace else None}


def count_failures(ops: list[dict], reps: list[dict]) -> int:
    verdicts: dict[tuple, bool] = {}
    failed = 0
    for rep in reps:
        for i, (op, r) in enumerate(zip(ops, rep["results"])):
            key = (i, r["rc"], r["stdout"], r["csv"])
            if key not in verdicts:
                verdicts[key] = workloads.check(op, r["rc"], r["stdout"], r["csv"])
            failed += not verdicts[key]
    return failed


def main() -> int:
    spec = json.load(sys.stdin)
    ops, seconds, trace = spec["ops"], spec["seconds"], spec["trace"]
    workdir = Path(spec["workdir"])
    reps: list[dict] = []
    start = perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(ops, workdir, tracer.Tracer() if traced else None))
        elapsed = perf_counter() - start
        typical = statistics.median(r["job_s"] for r in reps)
        if elapsed + typical > seconds and (not trace or len(reps) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    kind_s = {}
    for kind in sorted({op["kind"] for op in ops}):
        kind_s[kind] = statistics.median(
            sum(x["seconds"] for op, x in zip(ops, r["results"]) if op["kind"] == kind)
            for r in untraced)
    report = {
        "attempted": len(ops) * len(reps),
        "failed": count_failures(ops, reps),
        "reps": len(reps),
        "job_s": [r["job_s"] for r in untraced],
        "kind_s": kind_s,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
    }
    if traced:
        # All layer figures come from one traced repetition, the one with the
        # median job time, so that its self times add up to its job time.
        middle = statistics.median_low(r["job_s"] for r in traced)
        rep = next(r for r in traced if r["job_s"] == middle)
        report["layers"] = tracer.layer_metrics(rep["spans"])
        report["traced_job_s"] = middle
        with open(spec["spans_path"], "w") as fh:
            for n, r in enumerate(traced):
                for name, start_s, end_s, parent, op, error, _ in r["spans"]:
                    fh.write(json.dumps({"rep": n, "op": op, "name": name, "start": start_s,
                                         "end": end_s, "parent": parent,
                                         "error": error}) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
