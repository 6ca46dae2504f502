"""Outside-in span tracer for the cyclodes package.

The tracer wraps the public functions of each package module from outside:
no module of ``cyclodes`` changes.  A function is often bound under its name
in several modules (``from .adsets import distance_spectrum`` puts a second
reference into ``dhm`` and ``seqkit``), and calls through such a binding never
touch the home module's attribute.  So every loaded ``cyclodes`` module is
scanned and each global bound to the original function object is replaced.
On exit every replaced binding is restored.

Each call records a span ``[name, start, end, parent, op, error, counters]``.
Spans stay in memory; ``layer_metrics`` turns them into per-function calls,
self time (duration minus the time of child spans, found by parent links) and
errors, plus the computed work counts below.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from math import comb
from time import perf_counter

# Layer -> wrapped public functions.
TARGETS = {
    "cli": ("main",),
    "search": ("exhaustive_search", "cross_prime_family_report"),
    "dhm": ("match_order4_conditions", "order4_hit_triples", "calibrate_order12",
            "verify_family", "predicted_spectrum"),
    "adsets": ("distance_spectrum", "distance_at"),
    "seqkit": ("autocorrelation", "verify_ac_identity"),
    "cyclotomy": ("build_classes", "cyclotomic_numbers", "jacobi_sum",
                  "classify_case", "resolve_signs"),
    "ff": ("build_index_table", "find_primitive_root"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# Counters taken at a span from the call's bound arguments and its result.
# Work counts are computed from the arguments, not counted inside the loops.
COUNTERS = {
    "search.exhaustive_search":
        lambda a, r: {"pairs": comb(a["d"], a["d"] // 2) ** 2, "hits": len(r)},
    "adsets.distance_spectrum":
        lambda a, r: {"shift_tests": (2 * a["cset"].q - 1) * a["cset"].k},
    "seqkit.autocorrelation": lambda a, r: {"ac_terms": a["seq"].n ** 2},
    "cyclotomy.build_classes": lambda a, r: {"table_elems": a["q"], "key": (a["q"], a["d"])},
    "cyclotomy.cyclotomic_numbers": lambda a, r: {"table_elems": a["sys"].q},
    "ff.build_index_table": lambda a, r: {"table_elems": a["q"]},
}


class Tracer:
    """Context manager that records spans while installed.

    Set ``op`` to the id of the root operation before each call into the
    program; every span made under it carries that id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        homes = {mod: importlib.import_module(f"cyclodes.{mod}") for mod in TARGETS}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cyclodes" or name.startswith("cyclodes.")]
        try:
            for mod, fns in TARGETS.items():
                for fn in fns:
                    orig = getattr(homes[mod], fn)
                    wrapper = self._wrap(f"{mod}.{fn}", orig)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is orig:
                                setattr(module, attr, wrapper)
                                self._restore.append((module, attr, orig))
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter:
                span[6] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's operations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = {}
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = 0
        out[f"{fn}.self_s"] = 0.0
        out[f"{fn}.errors"] = 0
    totals = {"pairs": 0, "hits": 0, "shift_tests": 0, "ac_terms": 0, "table_elems": 0}
    keys = set()
    for i, (name, start, end, parent, op, error, counters) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end - start - child[i]
        out[f"{name}.errors"] += error
        for key, value in (counters or {}).items():
            if key == "key":
                keys.add(value)
            else:
                totals[key] += value
    out["search.pairs"] = totals["pairs"]
    out["search.hits"] = totals["hits"]
    out["search.hit_ratio"] = totals["hits"] / totals["pairs"] if totals["pairs"] else 0.0
    out["adsets.shift_tests"] = totals["shift_tests"]
    out["seqkit.ac_terms"] = totals["ac_terms"]
    out["cyclotomy.table_elems"] = totals["table_elems"]
    builds = out["cyclotomy.build_classes.calls"]
    out["cyclotomy.build_classes.distinct_ratio"] = len(keys) / builds if builds else 0.0
    return out
