"""Static checks on the library source: stdlib-only imports, and no dead ones."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "urprior").glob("*.py"))


def _imports(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(top-level module, bound name, line) for every import in the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                out.append((alias.name.split(".")[0], bound, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            module = "urprior" if node.level else node.module or ""
            if module == "__future__":
                continue
            for alias in node.names:
                out.append((module.split(".")[0], alias.asname or alias.name, node.lineno))
    return out


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "numerics.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_urprior(path):
    tree = ast.parse(path.read_text())
    foreign = [
        f"line {line}: {module}"
        for module, _, line in _imports(tree)
        if module != "urprior" and module not in sys.stdlib_module_names
    ]
    assert not foreign


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    unused = [f"line {line}: {name}" for _, name, line in _imports(tree) if name not in used]
    assert not unused


def test_only_cohomology_reduces_coboundary_maps():
    # every reduction of a coboundary or boundary map, and every kernel
    # vector read off one, goes through cohomology, so no caller can
    # bypass its degree-0 and degree-1 forms
    entry_points = ("matrix_rank", "_reduce", "_left_kernel_vector")
    callers = {
        path.name
        for path in SOURCES
        if path.name != "numerics.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in entry_points
    }
    assert callers == {"cohomology.py"}


def test_only_cohomology_writes_coboundary_signs():
    # the sparse coboundary columns, and with them the face signs, are
    # defined in the one module that reduces them
    definers = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "coboundary_columns"
    }
    assert definers == {"cohomology.py"}


def _urprior_modules(tree: ast.Module) -> set[str]:
    """Every urprior module the source imports, by its dotted name.

    ``from urprior import oracle`` counts as ``urprior.oracle``.
    """
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "urprior" + (f".{node.module}" if node.module else "") if node.level else node.module
            if module == "urprior":
                modules |= {f"urprior.{alias.name}" for alias in node.names}
            else:
                modules.add(module)
    return {m for m in modules if m.split(".")[0] == "urprior"}


def test_the_oracle_shares_only_the_data_model():
    # the oracle cross-checks the main pipeline, so it may read agents and
    # their masses as reduced pairs, but neither the pipeline's modules nor
    # the integer counts that the pipeline builds on the data model, nor
    # the pmf, whose Fractions it has no need for
    path = next(p for p in SOURCES if p.name == "oracle.py")
    tree = ast.parse(path.read_text())
    assert _urprior_modules(tree) == {"urprior.credence"}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not {"pmf", "counts"} & (read | named)
    assert "masses" in read


def test_the_pipeline_does_not_import_the_oracle():
    # decide_urprior's star walk and the oracle both link each outcome's
    # holders to the first; neither may borrow the other's code, or the
    # oracle would no longer check the pipeline independently. Names are
    # imported from their own modules, not from the package, so that this
    # follows every import compat makes, directly or through another module.
    imports = {f"urprior.{p.stem}": _urprior_modules(ast.parse(p.read_text())) for p in SOURCES}
    reached, todo = set(), ["urprior.compat"]
    while todo:
        for module in imports[todo.pop()] - reached:
            assert module in imports and module != "urprior.__init__", module
            reached.add(module)
            todo.append(module)
    assert reached and "urprior.oracle" not in reached


def test_only_violation_and_urpriorresult_are_dataclasses():
    """Every other record type is built on ``credence._Record``, which compiles nothing per class.

    A frozen dataclass compiles six methods when its class is created,
    at every import of the library. ``Violation`` and ``UrPriorResult``
    stay dataclasses because ``bench/tests`` calls ``dataclasses.replace``
    on them.
    """
    uses = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if getattr(node, "id", getattr(node, "attr", None)) in ("dataclass", "make_dataclass")
    ]
    decorated = {
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list)
    }
    assert decorated == {"Violation", "UrPriorResult"}
    assert len(uses) == len(decorated), uses
