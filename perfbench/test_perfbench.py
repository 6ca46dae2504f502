"""Self-test of the benchmark on tiny inputs (q <= 37); it runs in seconds.

    python3 -m pytest -q perfbench

It checks that every declared metric is emitted with its unit, that traced
call counts equal counts derived from the inputs (a binding site the tracer
missed makes a count fall short), that corrupted outputs count as failed, and
that the fixed input tables agree with the package.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cyclodes  # noqa: E402
from cyclodes import adsets, cyclotomy, dhm, ff, seqkit  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 5
SCRATCH = ROOT / ".perfbench" / "selftest"


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    return {w: run.measure(w, SEED, 0.5, True, tiny=True) for w in workloads.WORKLOADS}


def test_end_to_end_metrics_emitted_with_units():
    summary, result = run.measure("verify-d12", SEED, 0.5, False, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert summary["fail_ratio"] == 0
    assert summary["verify_s"] > 0 and summary["sequence_s"] > 0
    assert {"python", "numpy", "nproc", "cpu", "git_sha", "src_sha256"} <= set(summary["provenance"])
    assert summary["inputs"] == [op["argv"] for op in workloads.generate("verify-d12", SEED, True)]


def test_per_layer_metrics_emitted_with_units(traced):
    for summary, result in traced.values():
        assert result["correct"]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared("per_layer")


def test_traced_counts_match_inputs(traced):
    m = {w: values(result) for w, (_, result) in traced.items()}
    for w, (summary, _) in traced.items():
        assert m[w]["cli.main.calls"] == len(summary["inputs"])
        assert all(v == 0 for name, v in m[w].items() if name.endswith(".errors"))
        self_sum = sum(v for name, v in m[w].items() if name.endswith(".self_s"))
        assert self_sum == pytest.approx(m[w]["trace.job_s"], rel=0.01, abs=0.005)

    runs = {}
    for w in ("search-d12", "search-d4"):
        d = workloads.SEARCH[w][0]
        runs[w] = 2 * len(workloads.search_primes(d, workloads.TINY_SEARCH_BOUND))
        assert m[w]["search.exhaustive_search.calls"] == runs[w]
        assert m[w]["search.pairs"] == runs[w] * comb(d, d // 2) ** 2
        assert m[w]["cyclotomy.build_classes.calls"] == 2 * runs[w]
        assert m[w]["ff.build_index_table.calls"] == 2 * runs[w]
    assert m["search-d12"]["dhm.calibrate_order12.calls"] == runs["search-d12"]
    # 24 triples x 2 zero variants per order-4 condition match, one per prime and run
    assert m["search-d4"]["adsets.distance_spectrum.calls"] == 48 * runs["search-d4"]
    assert m["search-d4"]["dhm.order4_hit_triples.calls"] == 2 * runs["search-d4"]

    v, primes = m["verify-d12"], workloads.TINY_VERIFY_PRIMES
    conditions = [c for q in primes for c in workloads.VERIFY_PRIMES[q]]
    assert v["search.exhaustive_search.calls"] == 0
    assert v["dhm.calibrate_order12.calls"] == len(primes) + len(conditions)
    assert v["dhm.verify_family.calls"] == len(conditions)
    assert v["adsets.distance_spectrum.calls"] == len(primes) + sum(
        2 * len(workloads.recipes_for([c])) for c in conditions)
    assert v["adsets.distance_at.calls"] == sum(2 * q - 1 for q in primes)
    assert v["seqkit.autocorrelation.calls"] == len(primes)
    assert v["seqkit.ac_terms"] == sum((2 * q) ** 2 for q in primes)

    c = m["cycnums-large"]
    assert c["cyclotomy.build_classes.calls"] == c["ff.build_index_table.calls"] == 2
    assert c["cyclotomy.resolve_signs.calls"] == 1       # only at the case-1 prime
    assert c["cyclotomy.classify_case.calls"] == 3       # once per prime, once in resolve_signs
    assert c["cyclotomy.jacobi_sum.calls"] == 6
    assert c["cyclotomy.table_elems"] == 3 * sum(workloads.TINY_CYCNUMS) + 13


def test_tracer_patches_every_binding_site_and_restores():
    sites = [(dhm, "distance_spectrum"), (seqkit, "distance_spectrum"),
             (seqkit, "distance_at"), (cyclotomy, "build_index_table"),
             (cyclotomy, "find_primitive_root"), (cyclotomy, "classify_case"),
             (cyclotomy, "jacobi_sum"), (cyclotomy, "cyclotomic_numbers"),
             (cyclodes, "distance_spectrum"), (cyclodes, "build_classes")]
    originals = [getattr(module, name) for module, name in sites]
    assert dhm.distance_spectrum is adsets.distance_spectrum
    assert cyclotomy.build_index_table is ff.build_index_table
    with tracer.Tracer() as t:
        assert all(getattr(module, name) is not orig
                   for (module, name), orig in zip(sites, originals))
        t.op = 0
        cyclotomy.resolve_signs(cyclotomy.build_classes(13, 12),
                                cyclotomy.quadratic_partitions(13))
    assert all(getattr(module, name) is orig for (module, name), orig in zip(sites, originals))
    names = [span[0] for span in t.spans]
    for name in ("ff.build_index_table", "ff.find_primitive_root", "cyclotomy.classify_case",
                 "cyclotomy.jacobi_sum", "cyclotomy.cyclotomic_numbers"):
        assert name in names
    resolve = names.index("cyclotomy.resolve_signs")
    assert t.spans[names.index("cyclotomy.classify_case")][3] == resolve
    assert all(span[4] == 0 for span in t.spans)


def corrupt(op: dict, r: dict) -> dict:
    r = dict(r)
    if op["kind"] == "search":
        r["stdout"] = "".join(r["stdout"].splitlines(keepends=True)[:-1])
        return r
    out = json.loads(r["stdout"])
    if op["kind"] == "verify":
        out[0]["recipes"][0]["predicted_matches_counts"] = False
    elif op["kind"] == "sequence":
        out["ac_identity"] = False
    else:
        out["checks"]["total_is_q_minus_2"] = False
    r["stdout"] = json.dumps(out)
    return r


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    ops = workloads.generate(workload, SEED, tiny=True)
    try:
        rep = worker.run_rep(ops, SCRATCH, None)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    assert worker.count_failures(ops, [rep]) == 0
    for i, op in enumerate(ops):
        for bad in (corrupt(op, rep["results"][i]), dict(rep["results"][i], rc=2),
                    dict(rep["results"][i], rc="raised ValueError()")):
            broken = copy.deepcopy(rep)
            broken["results"][i] = bad
            assert worker.count_failures(ops, [rep, broken]) == 1


def test_search_spot_checks_use_the_oracle():
    op = workloads.generate("search-d12", SEED, tiny=True)[0]
    fake = json.dumps({"q": 13, "d": 12, "I": [0, 1, 2, 3, 4, 5], "J": [0, 1, 2, 3, 4, 5]})
    assert not workloads.search_spot_checks(op, fake + "\n")


def test_generator_is_seeded():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 11) == workloads.generate(w, 11)
    draws = {json.dumps(workloads.generate("cycnums-large", s)) for s in range(6)}
    assert len(draws) > 1
    draws = {json.dumps(workloads.generate("verify-d12", s)) for s in range(6)}
    assert len(draws) > 1


def test_input_tables_agree_with_the_package():
    for cond in dhm.ORDER12_CONDITIONS:
        assert workloads.recipes_for([cond]) == sorted(
            f"{dhm.SET_NAMES[I]},{dhm.SET_NAMES[J]}" for I, J in dhm.theorem12_pairs(cond))
    order12 = [q for q in range(13, 6000) if q % 24 == 13 and ff.is_prime(q)]
    case1 = []
    for q in order12:
        if cyclotomy.classify_case(cyclotomy.build_classes(q, 12)).case_number == 1:
            assert workloads.may_be_case1(q)
            case1.append(q)
    assert tuple(q for q in case1 if 5000 <= q < 6000) == workloads.CASE1_PRIMES
    assert workloads.search_primes(12, 400) == [q for q in range(401) if ff.is_prime(q)
                                                and q % 24 == 13]


def test_fails_in_a_directory_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search-d4",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and done.stdout == ""
