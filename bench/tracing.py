"""Spans around calls into urprior's public functions, and per-layer metrics from them.

The tracer wraps each function named in a layer module's ``__all__``
under every module namespace that holds it (``urprior.cli.matrix_rank``
and ``urprior.cohomology.matrix_rank`` both record ``numerics.rank``),
so nested and repeated calls all show. A span is
``[name, start, end, parent index or -1, op id, counters]``; spans stay
in memory until the run ends. Counters are computed from a call's
arguments and result after the op, outside every timed interval.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

LAYERS = ("cli", "credence", "compat", "complexes", "cohomology", "numerics", "witness", "oracle")

NAME, START, END, PARENT, OP, COUNTERS = range(6)


def _components(X: Any) -> int:
    parent = list(range(len(X.vertices)))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in X.simplices(1):
        parent[find(j)] = find(i)
    return len({find(v) for v in range(len(parent))})


def _matrix_counters(m: Any) -> dict[str, int]:
    return {"cells": m.rows * m.cols, "nonzeros": sum(1 for row in m.entries for x in row if x != 0)}


def _complex_counters(X: Any) -> dict[str, int]:
    edges = len(X.simplices(1))
    return {
        "d1": edges,
        "d2": len(X.simplices(2)),
        "non_tree": edges - len(X.vertices) + _components(X),
    }


def _validate_counters(raw: Any) -> dict[str, int]:
    agents = raw.get("agents") if isinstance(raw, dict) else None
    return {"entries": sum(len(a.get("credence") or ()) for a in agents or () if isinstance(a, dict))}


# Span name -> counters from (args, result).
HOOKS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "numerics.rank": lambda args, _: {"cells": args[0].rows * args[0].cols},
    "complexes.coboundary_matrix": lambda _, result: _matrix_counters(result),
    "complexes.build_overlap_complex": lambda _, result: _complex_counters(result),
    "compat.decide_urprior": lambda _, result: {"cycle_len": len(getattr(result.certificate, "cycle", ()))},
    "cohomology.noncoboundary_cocycle": lambda _, result: {"found": int(result is not None)},
    "credence.validate": lambda args, _: _validate_counters(args[0]),
}


class Tracer:
    """Installs span-recording wrappers into urprior's module namespaces and removes them."""

    def __init__(self, lib: SimpleNamespace) -> None:
        self.spans: list[list[Any]] = []
        self.current = -1
        self.op = -1
        self._pending: list[tuple[list[Any], tuple, Any]] = []
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            module = getattr(lib, layer)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        self._patches = [
            (namespace, attr, *wrappers[id(value)])
            for namespace in [getattr(lib, layer) for layer in LAYERS] + [lib.package]
            for attr, value in vars(namespace).items()
            if id(value) in wrappers
        ]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, pending, hook = self.spans, self._pending, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self.current
            span = [name, 0.0, 0.0, parent, self.op, None]
            self.current = len(spans)
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self.current = parent
            if hook is not None:
                pending.append((span, args, result))
            return result

        return traced

    def install(self, op: int) -> None:
        self.op = op
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)
        for span, args, result in self._pending:
            span[COUNTERS] = HOOKS[span[NAME]](args, result)
        self._pending.clear()


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _has_ancestor(spans: list[list[Any]], i: int, name: str) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list[Any]], op_seconds: list[float]) -> dict[str, float]:
    """Per-op means of span times and counters, plus the self-time coverage of the ops."""
    n = len(op_seconds)
    selfs = self_times(spans)
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    totals: dict[str, int] = defaultdict(int)
    per_op_max: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    cycles: list[int] = []
    tried = found = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] += 1
        own[name] += selfs[i]
        own[name.split(".")[0]] += selfs[i]
        if not _has_ancestor(spans, i, name):
            inclusive[name] += span[END] - span[START]
        counters = span[COUNTERS] or {}
        for key, value in counters.items():
            totals[f"{name}.{key}"] += value
        if name == "complexes.build_overlap_complex":
            for key in ("d1", "d2", "non_tree"):
                ops = per_op_max[key]
                ops[span[OP]] = max(ops[span[OP]], counters.get(key, 0))
        elif name == "compat.decide_urprior" and counters.get("cycle_len"):
            cycles.append(counters["cycle_len"])
        elif name == "numerics.in_span" and _has_ancestor(spans, i, "cohomology.noncoboundary_cocycle"):
            tried += 1
        found += counters.get("found", 0)

    def ms(table: dict[str, float], name: str) -> float:
        return 1000 * table[name] / n

    cells = totals["complexes.coboundary_matrix.cells"]
    metrics = {
        "numerics.rank.ms": ms(inclusive, "numerics.rank"),
        "numerics.rank.calls": calls["numerics.rank"] / n,
        "numerics.rank.cells": totals["numerics.rank.cells"] / n,
        "numerics.nullspace_basis.ms": ms(inclusive, "numerics.nullspace_basis"),
        "numerics.in_span.ms": ms(inclusive, "numerics.in_span"),
        "numerics.in_span.calls": calls["numerics.in_span"] / n,
        "cohomology.cohomology_dim.ms": ms(inclusive, "cohomology.cohomology_dim"),
        "cohomology.noncoboundary_cocycle.ms": ms(inclusive, "cohomology.noncoboundary_cocycle"),
        "cohomology.kernel_vectors_tried": tried / found if found else 0.0,
        "complexes.build_overlap_complex.ms": ms(inclusive, "complexes.build_overlap_complex"),
        "complexes.build_overlap_complex.calls": calls["complexes.build_overlap_complex"] / n,
        "complexes.simplices_d1": sum(per_op_max["d1"].values()) / n,
        "complexes.simplices_d2": sum(per_op_max["d2"].values()) / n,
        "complexes.coboundary_matrix.ms": ms(inclusive, "complexes.coboundary_matrix"),
        "complexes.coboundary_matrix.cells": cells / n,
        "complexes.coboundary_matrix.nonzero_frac": (
            totals["complexes.coboundary_matrix.nonzeros"] / cells if cells else 0.0
        ),
        "complexes.connected_components.ms": ms(inclusive, "complexes.connected_components"),
        "compat.pairwise_compatibility.ms": ms(inclusive, "compat.pairwise_compatibility"),
        "compat.pairwise_compatibility.calls": calls["compat.pairwise_compatibility"] / n,
        "compat.ratio_cochain.ms": ms(inclusive, "compat.ratio_cochain"),
        "compat.solve_scaling.ms": ms(inclusive, "compat.solve_scaling"),
        "compat.glue_urprior.ms": ms(inclusive, "compat.glue_urprior"),
        "compat.verify_urprior.ms": ms(inclusive, "compat.verify_urprior"),
        "compat.decide_urprior.self_ms": ms(own, "compat.decide_urprior"),
        "compat.non_tree_edges": sum(per_op_max["non_tree"].values()) / n,
        "compat.certificate_cycle_len": sum(cycles) / len(cycles) if cycles else 0.0,
        "credence.validate.ms": ms(inclusive, "credence.validate"),
        "credence.entries_parsed": totals["credence.validate.entries"] / n,
        "cli.main.self_ms": ms(own, "cli.main"),
        "witness.generate_counterexample.self_ms": ms(own, "witness.generate_counterexample"),
        "oracle.feasibility_oracle.ms": ms(inclusive, "oracle.feasibility_oracle"),
        "trace.self_time_coverage": sum(selfs) / sum(op_seconds),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = ms(own, layer)
    return metrics
