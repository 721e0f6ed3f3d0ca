"""Command-line interface and the JSON file formats.

Subcommands:
  check           decide whether a system admits a common prior
  cohomology      simplex counts, coboundary ranks, and H^k
  counterexample  build an irreconcilable system from a holed complex
  oracle          independent linear-feasibility cross-check

Exit codes: 0 when a common prior exists (or the command simply
succeeded), 1 when it does not exist (or no counterexample is possible),
2 for invalid input (a duplicated key in a JSON object included), 3 for
an internal error, reported on one stderr line. Once ``main`` is entered
a crash never exits 1; a ``MemoryError`` while Python imports this
module, before ``main`` runs, still can.
All probabilities in reports are exact fractions in lowest terms;
reports are deterministic byte for byte for a given input. A ``--json``
report is the text of ``json.dumps(payload, indent=2)``, from a writer on
the C string encoder: with ``indent`` set the stdlib encodes in Python.

``main`` may be called many times in one process: it builds its
argument parser on the first call and reuses it, and each call parses
its own arguments afresh, so nothing carries over from an earlier call.
A first argument naming a subcommand goes straight to that subcommand's
parser, as argparse would pass it on, with the same help and error text.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable, Mapping, Sequence
from itertools import count, takewhile
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from pathlib import Path
from typing import Any

from urprior.__main__ import crashed
from urprior.cohomology import coboundary_columns, coboundary_rank, cohomology_dim
from urprior.compat import (
    Asymmetry,
    Certificate,
    CycleCertificate,
    Violation,
    _decision,
    pairwise_compatibility,
)
from urprior.complexes import SimplicialComplex, build_overlap_complex, from_facets
from urprior.credence import AgentSystem, ValidationError, validate
from urprior.numerics import Column, _format_pair, format_rational, matrix_rank
from urprior.oracle import feasibility_oracle
from urprior.witness import AmbiguousLabelError, NoHoleError, generate_counterexample

# matrix_rank and pairwise_compatibility are re-exported, not called: every
# rank is read through urprior.cohomology, check decides through
# urprior.compat, and the benchmark tracer (bench/tracing.py) wraps both
# names in urprior.cli among its patch sites.
__all__ = [
    "main",
    "load_complex",
    "load_system",
    "system_to_dict",
    "matrix_rank",
    "pairwise_compatibility",
]


class CliError(Exception):
    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """object_pairs_hook that refuses a key given twice in one JSON object."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError([f"duplicate key {key!r} in one JSON object"])
            seen.add(key)
    return out


def _load_json(path: str) -> Any:
    """Parse a UTF-8 JSON file. Raises ValidationError on a duplicated key, at any depth."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise CliError(f"invalid JSON in {path}: nested too deeply") from exc


def load_system(path: str) -> AgentSystem:
    """Read and validate a system file. Raises ValidationError on rule breaks."""
    return validate(_load_json(path))


def load_complex(path: str) -> SimplicialComplex:
    """Read a complex file ({"vertices": [...], "facets": [[...], ...]})."""
    return _complex_from_raw(_load_json(path), path)


def _complex_from_raw(raw: Any, path: str) -> SimplicialComplex:
    """Build the complex of a parsed complex file; ``path`` names the file in error messages."""
    if not isinstance(raw, Mapping):
        raise CliError(f"{path}: complex file must be a JSON object")
    vertices = raw.get("vertices")
    facets = raw.get("facets")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise CliError(f"{path}: 'vertices' must be a list of labels")
    if not isinstance(facets, list) or not all(
        isinstance(f, list) and all(isinstance(v, str) for v in f) for f in facets
    ):
        raise CliError(f"{path}: 'facets' must be a list of lists of labels")
    try:
        return from_facets(vertices, facets)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def system_to_dict(system: AgentSystem) -> dict[str, Any]:
    """Serialize a system to the JSON file shape, fractions as strings.

    Each agent's credences are listed in outcome-space order, sorted by
    outcome position, so the cost follows the agent's own awareness set.
    """
    position = {x: k for k, x in enumerate(system.space.outcomes)}.__getitem__
    return {
        "outcomes": list(system.space.outcomes),
        "agents": [
            {
                "name": agent.name,
                "credence": {
                    x: _format_pair(*agent.masses[x]) for x in sorted(agent.masses, key=position)
                },
            }
            for agent in system.agents
        ],
    }


def _certificate_to_json(certificate: Certificate) -> dict[str, Any]:
    if isinstance(certificate, Violation):
        return {
            "kind": "pairwise_violation",
            "pair": list(certificate.pair),
            "outcome": certificate.outcome,
            "conditional_left": format_rational(certificate.conditional_left),
            "conditional_right": format_rational(certificate.conditional_right),
        }
    if isinstance(certificate, Asymmetry):
        return {
            "kind": "null_overlap_asymmetry",
            "pair": list(certificate.pair),
            "overlap_mass_left": format_rational(certificate.overlap_mass_left),
            "overlap_mass_right": format_rational(certificate.overlap_mass_right),
        }
    if isinstance(certificate, CycleCertificate):
        return {
            "kind": "cycle_holonomy",
            "cycle": list(certificate.cycle),
            "holonomy": format_rational(certificate.holonomy),
            "breaking_edge": list(certificate.breaking_edge),
        }
    raise TypeError(f"unknown certificate type {type(certificate).__name__}")


def _describe_certificate(cert: Mapping[str, Any]) -> str:
    kind = cert["kind"]
    if kind == "pairwise_violation":
        a, b = cert["pair"]
        return (
            f"agents {a} and {b} disagree on {cert['outcome']!r} given their shared outcomes: "
            f"{cert['conditional_left']} vs {cert['conditional_right']}"
        )
    if kind == "null_overlap_asymmetry":
        a, b = cert["pair"]
        return (
            f"agents {a} and {b} share outcomes, but only one side gives the overlap "
            f"positive mass ({cert['overlap_mass_left']} vs {cert['overlap_mass_right']})"
        )
    if kind == "cycle_holonomy":
        walk = " -> ".join(list(cert["cycle"]) + [cert["cycle"][0]])
        u, v = cert["breaking_edge"]
        return f"cycle {walk} has ratio product {cert['holonomy']} != 1 (edge {u}-{v} closes it)"
    return str(dict(cert))


def _measure_to_json(measure: Mapping[str, Any], system: AgentSystem) -> dict[str, str]:
    return {x: format_rational(measure[x]) for x in system.space.outcomes if x in measure}


def build_check_report(system: AgentSystem) -> tuple[dict[str, Any], int]:
    """Assemble the full check report and its exit code; no level of the complex above 2 is read.

    The decision and the overlap complex are ``compat._decision``'s: a
    yes is read off star links, and the pairwise section of a no off the
    complex's edges. Unless an edge is
    sign-split, the complex is the one the groups of agents that weight
    an outcome generate. When, for every agent i, one group's members
    above i hold every agent above i that shares a group with i, that
    complex collapses onto the agents with no such neighbour (see
    ``urprior.complexes``): the counts are sums of binomials, the
    components are those agents and H1 = 0, with no simplex listed, no
    spanning forest and no reduction. Otherwise its edges and triangles
    are listed when the report reads them. The ur-prior is printed from
    the verified integer weights, one gcd per outcome. The components are
    n - rank delta_0.
    """
    compatibility, X, found = _decision(system)
    exists = isinstance(found, tuple)
    report: dict[str, Any] = {
        "valid": True,
        "agents": len(system.agents),
        "outcomes": len(system.space.outcomes),
        "pairwise": {
            "compatible": compatibility.compatible,
            "violations": [_certificate_to_json(v) for v in compatibility.violations],
        },
        "asymmetries": [_certificate_to_json(a) for a in compatibility.asymmetries],
        "complex": {"counts": X.counts(2)},
        "components": len(X.vertices) - coboundary_rank(X, 0),
        "h1": cohomology_dim(X, 1),
        "verdict": "exists" if exists else "none",
        "ur_prior": _weights_to_json(*found, system) if exists else None,
        "certificate": None if exists else _certificate_to_json(found),
    }
    return report, 0 if exists else 1


def _weights_to_json(weights: Mapping[str, int], total: int, system: AgentSystem) -> dict[str, str]:
    """``_measure_to_json`` of the measure W_x / T: one gcd per mass, and no Fraction."""
    out = {}
    for x in system.space.outcomes:
        w = weights.get(x)
        if w is not None:
            k = gcd(w, total)
            out[x] = _format_pair(w // k, total // k)
    return out


def render_check_text(report: Mapping[str, Any]) -> str:
    lines = [f"agents: {report['agents']}, outcomes: {report['outcomes']}"]
    pairwise = report["pairwise"]
    if pairwise["compatible"]:
        lines.append("pairwise: compatible")
    else:
        lines.append("pairwise: incompatible")
        for v in pairwise["violations"]:
            lines.append("  " + _describe_certificate(v))
    if report["asymmetries"]:
        lines.append("asymmetries:")
        for a in report["asymmetries"]:
            lines.append("  " + _describe_certificate(a))
    else:
        lines.append("asymmetries: none")
    counts = report["complex"]["counts"]
    lines.append("complex: " + " ".join(f"X{k}={c}" for k, c in enumerate(counts)))
    lines.append(f"components: {report['components']}")
    lines.append(f"H1 = {report['h1']}")
    if report["verdict"] == "exists":
        lines.append("verdict: ur-prior exists")
        lines.append("ur-prior:")
        for outcome, value in report["ur_prior"].items():
            lines.append(f"  {outcome} = {value}")
        if report["components"] > 1:
            lines.append(
                "note: the overlap skeleton is disconnected, so the relative mass "
                "between components is one valid choice among many"
            )
    else:
        lines.append("verdict: no ur-prior")
        lines.append("certificate: " + _describe_certificate(report["certificate"]))
    return "\n".join(lines)


def _dumps(value: Any, pad: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2)`` on report values; any other type raises TypeError."""
    if isinstance(value, str):
        return _quote(value)
    inner = pad + "  "
    # str leaves, the most common, are quoted in place
    if isinstance(value, dict):  # _quote raises TypeError on a non-str key
        parts = [
            _quote(k) + ": " + (_quote(v) if isinstance(v, str) else _dumps(v, inner))
            for k, v in value.items()
        ]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        parts = [_quote(v) if isinstance(v, str) else _dumps(v, inner) for v in value]
        brackets = "[]"
    elif value is None:
        return "null"
    elif isinstance(value, bool):
        return "true" if value else "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not parts:
        return brackets
    return brackets[0] + inner + ("," + inner).join(parts) + pad + brackets[1]


def _emit(payload: Mapping[str, Any], render: Callable[[], str], as_json: bool) -> None:
    """Print the payload as JSON, or the text report; ``render`` runs only for the latter."""
    print(_dumps(payload) if as_json else render())


def _invalid_system(exc: ValidationError, as_json: bool) -> int:
    if as_json:
        print(_dumps({"valid": False, "errors": exc.violations}))
    else:
        print("invalid system file:")
        for line in exc.violations:
            print(f"  {line}")
    return 2


def cmd_check(args: argparse.Namespace) -> int:
    try:
        system = load_system(args.file)
    except ValidationError as exc:
        return _invalid_system(exc, args.json)
    report, code = build_check_report(system)
    _emit(report, lambda: render_check_text(report), args.json)
    return code


def _simplex_tag(X: SimplicialComplex, s: Sequence[int]) -> str:
    return ",".join(X.vertices[i] for i in s)


def _render_labeled_matrix(
    title: str, columns: Sequence[Column], row_labels: list[str], col_labels: list[str]
) -> str:
    """A sparse matrix as a right-aligned table; a cell absent from its column reads 0."""
    header = [""] + col_labels
    body = [
        [label] + [str(column.get(i, 0)) for column in columns] for i, label in enumerate(row_labels)
    ]
    table = [header] + body
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    lines = [title]
    for row in table:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def cmd_cohomology(args: argparse.Namespace) -> int:
    if args.dim < 1:
        raise CliError("--dim must be at least 1")
    raw = _load_json(args.file)
    system_file = isinstance(raw, Mapping) and "agents" in raw
    complex_file = isinstance(raw, Mapping) and "facets" in raw
    if system_file and complex_file:
        raise CliError(f"{args.file}: both a system file (agents) and a complex file (facets)")
    if system_file:
        try:
            system = validate(raw)
        except ValidationError as exc:
            raise CliError("invalid system file: " + "; ".join(exc.violations)) from exc
        X = build_overlap_complex(system)
    elif complex_file:
        X = _complex_from_raw(raw, args.file)
    else:
        raise CliError(f"{args.file}: neither a system file (agents) nor a complex file (facets)")

    k = args.dim
    # a system's counts stop at depth k + 1, all that delta_k reads; a complex file's run to its top
    counts = list(takewhile(bool, map(X.count, range(k + 2) if system_file else count())))
    rank_below = coboundary_rank(X, k - 1)
    rank_at = coboundary_rank(X, k)
    cocycles = X.count(k) - rank_at
    coboundaries = rank_below
    h = cocycles - coboundaries

    payload = {
        "counts": counts,
        "dim": k,
        "ranks": {f"delta_{k - 1}": rank_below, f"delta_{k}": rank_at},
        "cocycles": cocycles,
        "coboundaries": coboundaries,
        "h": h,
    }

    def render() -> str:
        lines = [
            "simplices: " + " ".join(f"X{d}={c}" for d, c in enumerate(counts)),
            f"rank delta_{k - 1} = {rank_below}",
            f"rank delta_{k} = {rank_at}",
            f"cocycles {cocycles}, coboundaries {coboundaries}, H{k} = {h}",
        ]
        if args.dump_matrices:
            for d in (k - 1, k):
                lines.append("")
                lines.append(
                    _render_labeled_matrix(
                        f"delta_{d} (rows: {d + 1}-simplices, cols: {d}-simplices)",
                        coboundary_columns(X, d),
                        [_simplex_tag(X, s) for s in X.simplices(d + 1)],
                        [_simplex_tag(X, s) for s in X.simplices(d)],
                    )
                )
        return "\n".join(lines)

    _emit(payload, render, args.json)
    return 0


def cmd_counterexample(args: argparse.Namespace) -> int:
    X = load_complex(args.file)
    try:
        system = generate_counterexample(X)
    except NoHoleError as exc:
        print(f"no counterexample: {exc}", file=sys.stderr)
        return 1
    except AmbiguousLabelError as exc:
        raise CliError(f"{args.file}: {exc}") from exc
    text = _dumps(system_to_dict(system))
    if args.output:
        try:
            Path(args.output).write_text(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc}") from exc
        print(
            f"wrote a {len(system.agents)}-agent, {len(system.space.outcomes)}-outcome "
            f"system to {args.output}"
        )
    else:
        print(text)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        system = load_system(args.file)
    except ValidationError as exc:
        return _invalid_system(exc, args.json)
    measure = feasibility_oracle(system)
    verdict = "exists" if measure is not None else "none"
    payload = {
        "verdict": verdict,
        "ur_prior": _measure_to_json(measure, system) if measure is not None else None,
    }

    def render() -> str:
        if measure is None:
            return "verdict: no ur-prior"
        lines = ["verdict: ur-prior exists", "ur-prior:"]
        lines.extend(f"  {x} = {v}" for x, v in payload["ur_prior"].items())
        return "\n".join(lines)

    _emit(payload, render, args.json)
    return 0 if measure is not None else 1


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI parser and its subcommand parsers by name, built once and shared by later calls.

    Each parse returns a fresh namespace, so no option carries over
    between calls; the handlers read library functions through module
    globals when they run, not when the parser is built.
    """
    parser = argparse.ArgumentParser(
        prog="urprior",
        description="Decide whether overlapping credence functions admit a common prior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide a system file and report the result")
    p_check.add_argument("file", help="system JSON file")
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.set_defaults(handler=cmd_check)

    p_coh = sub.add_parser("cohomology", help="cohomology of a system's overlap complex or a complex file")
    p_coh.add_argument("file", help="system or complex JSON file")
    p_coh.add_argument(
        "--dim",
        type=int,
        default=1,
        help="cohomology degree k (default 1); a system's overlap complex is listed through depth k+1",
    )
    p_coh.add_argument("--json", action="store_true", help="machine-readable report")
    p_coh.add_argument(
        "--dump-matrices", action="store_true", help="print the labeled coboundary matrices"
    )
    p_coh.set_defaults(handler=cmd_cohomology)

    p_counter = sub.add_parser(
        "counterexample",
        help="from a complex with H1 != 0, build a pairwise-compatible system with no common prior",
    )
    p_counter.add_argument("file", help="complex JSON file")
    p_counter.add_argument("--output", help="write the system file here instead of stdout")
    p_counter.set_defaults(handler=cmd_counterexample)

    p_oracle = sub.add_parser("oracle", help="independent feasibility check of a system file")
    p_oracle.add_argument("file", help="system JSON file")
    p_oracle.add_argument("--json", action="store_true", help="machine-readable report")
    p_oracle.set_defaults(handler=cmd_oracle)

    return parser, sub.choices


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; exit 3 for any exception, even one raised while reporting another."""
    try:
        return _run(argv)
    except Exception as exc:  # exit code 1 means "no ur-prior", never "crashed"
        failure = exc
    return crashed(failure)  # out of the handler, which holds the traceback


def _run(argv: Sequence[str] | None) -> int:
    """Parse the arguments and run the command; invalid input and files exit with their codes."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no subcommand name first: help, usage and errors as argparse gives them
        args = parser.parse_args(argv)
    else:  # what the top parser would do: hand the rest to the subcommand, refuse leftovers
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.handler(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
