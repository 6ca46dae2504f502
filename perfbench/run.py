"""Benchmark of the cyclodes CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search-d12 --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json): search-d12, search-d4,
verify-d12, cycnums-large.  The program is run from ``src/`` as it stands; no
build step is needed.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``, the
median time of several fresh interpreters to import ``cyclodes.cli`` and
build its parser; ``job_s``, the median wall time of the workload's whole
operation list run in process; ``peak_rss_mb`` of the child process.  With
``--trace 1`` it reports the per-layer metrics of traced repetitions, which
alternate with untraced ones so that ``trace.overhead_s`` is measured in the
same run.

Every operation's output is checked after timing.  The second-to-last stdout
line is a summary with provenance, the resolved inputs, ``fail_ratio`` and
the median time spent in each command kind (``verify_s`` and ``sequence_s``
on verify-d12); the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_STARTS = 11
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("CYCLODES_CACHE", None)  # the table cache would change what is measured
    return env


def setup_seconds(env: dict) -> float:
    """Median time from spawning an interpreter until the CLI parser is built.

    One discarded start first writes the bytecode cache, as an installed
    package would have it.
    """
    code = ("import time, cyclodes.cli; cyclodes.cli.build_parser(); "
            "print(time.monotonic())")
    times = []
    for n in range(SETUP_STARTS + 1):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if n:
            times.append(float(done.stdout) - start)
    return statistics.median(times)


def provenance(numpy_version: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        git_sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            git_sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "cyclodes").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "git_sha": git_sha,
            "src_sha256": src.hexdigest()}


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (summary, result)."""
    ops = workloads.generate(workload, seed, tiny)
    env = child_env()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    spec = {"ops": ops, "seconds": seconds, "trace": trace, "workdir": str(workdir),
            "spans_path": str(OUT / f"spans-{workload}-seed{seed}.jsonl")}
    try:
        setup_s = None if trace else setup_seconds(env)
        done = subprocess.run([sys.executable, str(HERE / "worker.py")], env=env, cwd=ROOT,
                              input=json.dumps(spec), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}):\n{done.stderr}")
    report = json.loads(done.stdout.splitlines()[-1])

    if trace:
        values = dict(report["layers"])
        values["trace.job_s"] = report["traced_job_s"]
        values["trace.overhead_s"] = values["trace.job_s"] - statistics.median(report["job_s"])
    else:
        values = {"setup_s": setup_s, "job_s": statistics.median(report["job_s"]),
                  "peak_rss_mb": report["peak_rss_mb"]}
    units = declared_metrics(trace)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"declared metrics not measured: {sorted(missing)}")
    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    summary = {"workload": workload, "seed": seed, "trace": int(trace),
               "reps": report["reps"], "fail_ratio": report["failed"] / report["attempted"],
               "job_s_reps": report["job_s"],
               **{f"{kind}_s": s for kind, s in report["kind_s"].items()},
               "inputs": [op["argv"] for op in ops],
               "provenance": provenance(report["numpy"])}
    return summary, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "cyclodes" / "cli.py").is_file():
        print(f"error: no cyclodes sources under {SRC}", file=sys.stderr)
        return 2
    try:
        summary, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
