"""The bench tracer (perfbench/tracer.py) rebinds package functions by name
and reads their arguments by parameter name.  These checks read the tracer's
tables from its source, without importing or changing it, and fail when a
rename in the package would leave the tracer wrapping nothing."""

import ast
import importlib
import inspect
from pathlib import Path

from cyclodes import adsets, seqkit

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
