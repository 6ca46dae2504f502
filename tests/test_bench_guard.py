"""The bench tracer (perfbench/tracer.py) rebinds package functions by name
and reads their arguments by parameter name, and the bench's workloads and
self-test read package attributes by name.  These checks parse those files,
without importing or changing them, and fail when a rename in the package
would leave the tracer wrapping nothing or a bench check reading a name that
is gone."""

import ast
import importlib
import inspect
from pathlib import Path

import cyclodes
from cyclodes import adsets, cyclotomy, dhm, seqkit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def tracer_tables():
    """TARGETS as a dict, and for each COUNTERS entry the argument names it reads."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            tables[node.targets[0].id] = node.value
    targets = ast.literal_eval(tables["TARGETS"])
    reads = {}
    for key, value in zip(tables["COUNTERS"].keys, tables["COUNTERS"].values):
        args = value.args.args[0].arg              # lambda a, r: ...
        reads[ast.literal_eval(key)] = {
            node.slice.value for node in ast.walk(value.body)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == args}
    return targets, reads


def test_every_traced_function_exists_with_the_parameters_counters_read():
    targets, reads = tracer_tables()
    functions = {f"{mod}.{fn}": getattr(importlib.import_module(f"cyclodes.{mod}"), fn)
                 for mod, fns in targets.items() for fn in fns}
    assert all(callable(f) for f in functions.values())
    assert set(reads) <= set(functions)
    assert set().union(*reads.values()) == {"cset", "seq", "q", "d", "sys"}
    for name, params in reads.items():
        assert params <= set(inspect.signature(functions[name]).parameters), name


def test_seqkit_keeps_the_pinned_binding_sites():
    # perfbench/test_perfbench.py checks that the tracer rebinds these
    assert seqkit.distance_at is adsets.distance_at
    assert seqkit.distance_spectrum is adsets.distance_spectrum


def test_hit_pairs_keeps_the_parameters_a_sweep_tracer_reads():
    # ROADMAP item 0 retargets the search counters from exhaustive_search to
    # hit_pairs, reading the pairs off sys.d and the variant off include_zero
    assert list(inspect.signature(dhm.hit_pairs).parameters) == ["sys", "include_zero"]


def test_resolve_signs_calls_classify_case_once(monkeypatch):
    # perfbench/test_perfbench.py pins the parent of the classify_case span
    # to resolve_signs, at q = 13
    calls = []
    original = cyclotomy.classify_case

    def counting(sys):
        calls.append(sys.q)
        return original(sys)

    monkeypatch.setattr(cyclotomy, "classify_case", counting)
    cyclotomy.resolve_signs(cyclotomy.build_classes(13, 12), cyclotomy.quadratic_partitions(13))
    assert calls == [13]


def test_order4_match_counts_each_variant_once(monkeypatch):
    # perfbench/test_perfbench.py pins dhm.order4_hit_triples.calls on
    # search-d4 at two per order-4 condition match
    calls = []
    original = dhm.order4_hit_triples

    def counting(sys, include_zero):
        calls.append(include_zero)
        return original(sys, include_zero)

    monkeypatch.setattr(dhm, "order4_hit_triples", counting)
    dhm.match_order4_conditions(cyclotomy.build_classes(29, 4))
    assert calls == [False, True]


def test_c_parameter_calls_jacobi_sum_twice(monkeypatch):
    # perfbench/test_perfbench.py pins cyclotomy.jacobi_sum.calls on
    # cycnums-large at two per classify_case
    calls = []
    original = cyclotomy.jacobi_sum

    def counting(sys, m, n):
        calls.append((m, n))
        return original(sys, m, n)

    monkeypatch.setattr(cyclotomy, "jacobi_sum", counting)
    cyclotomy.c_parameter(cyclotomy.build_classes(13, 12))
    assert calls == [(3, 1), (5, 1)]


def package_names_read(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) for every module.attribute a bench file reads, and
    every (module, "name") pair it lists as a binding site."""
    modules = {"cyclodes", "adsets", "cyclotomy", "dhm", "ff", "search", "seqkit"}
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            names.add((node.value.id, node.attr))
        if isinstance(node, ast.Tuple) and len(node.elts) == 2:
            module, attr = node.elts
            if isinstance(module, ast.Name) and module.id in modules \
                    and isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                names.add((module.id, attr.value))
    return names


def test_every_package_name_the_bench_reads_exists():
    for path in (PERFBENCH / "workloads.py", PERFBENCH / "test_perfbench.py"):
        names = package_names_read(path)
        assert names, path
        for module, attr in sorted(names):
            home = cyclodes if module == "cyclodes" else \
                importlib.import_module(f"cyclodes.{module}")
            assert hasattr(home, attr), (path.name, f"{module}.{attr}")
