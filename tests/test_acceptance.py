"""Acceptance gate: one test per shipped guarantee, all comparisons exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from urprior import cli
from urprior.cohomology import coboundary_columns, coboundary_rank, cohomology_dim
from urprior.compat import (
    decide_urprior,
    pairwise_compatibility,
    ratio_cochain,
    verify_urprior,
)
from urprior.complexes import build_overlap_complex
from urprior.oracle import feasibility_oracle
from urprior.witness import NoHoleError, generate_counterexample

from .generators import conditioned_system, random_complex, random_system

EX1_TABLE = {
    "gold": Fraction(1, 27),
    "platinum": Fraction(2, 27),
    "aluminum": Fraction(4, 27),
    "bismuth": Fraction(3, 27),
    "silver": Fraction(4, 27),
    "iron": Fraction(6, 27),
    "copper": Fraction(7, 27),
}


def _check(criterion: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    suffix = f" ({detail})" if detail and not condition else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert condition, f"{criterion}{suffix}"


def _run_json(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def _parse_table(raw: dict) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in raw.items()}


def test_01_golden_filled_triangle(data_dir, capsys):
    code, report = _run_json(capsys, "check", str(data_dir / "ex1.json"), "--json")
    ok = (
        code == 0
        and report["pairwise"]["compatible"] is True
        and report["complex"]["counts"] == [3, 3, 1]
        and report["h1"] == 0
        and report["verdict"] == "exists"
        and _parse_table(report["ur_prior"]) == EX1_TABLE
    )
    _check("golden filled triangle", ok, f"exit {code}, report {report}")


def test_02_golden_unfilled_triangle(data_dir, capsys):
    code, report = _run_json(capsys, "check", str(data_dir / "ex2.json"), "--json")
    cert = report["certificate"]
    ok = (
        code == 1
        and report["pairwise"]["compatible"] is True
        and report["complex"]["counts"] == [3, 3, 0]
        and report["h1"] == 1
        and report["verdict"] == "none"
        and cert is not None
        and cert["kind"] == "cycle_holonomy"
        and Fraction(cert["holonomy"]) == Fraction(27, 8)
    )
    _check("golden unfilled triangle", ok, f"exit {code}, certificate {cert}")


def test_03_golden_single_violation(ex3):
    report = pairwise_compatibility(ex3)
    ok = (
        not report.compatible
        and len(report.violations) == 1
        and report.violations[0].conditional_left == Fraction(2, 5)
        and report.violations[0].conditional_right == Fraction(9, 13)
    )
    _check("golden single violation", ok, f"violations {report.violations}")


def test_04_golden_hollow_tetrahedron(data_dir, capsys):
    code, report = _run_json(capsys, "check", str(data_dir / "ex4.json"), "--json")
    _h2_code, h2_report = _run_json(
        capsys, "cohomology", str(data_dir / "ex4.json"), "--dim", "2", "--json"
    )
    ok = (
        code == 0
        and report["h1"] == 0
        and report["verdict"] == "exists"
        and _parse_table(report["ur_prior"]) == EX1_TABLE
        and h2_report["h"] == 1
    )
    _check("golden hollow tetrahedron", ok, f"h1 {report['h1']}, h2 {h2_report['h']}")


def test_05_cohomology_fixtures(tri_filled, tri_unfilled, plugged):
    def dims(X):
        # cocycles, coboundaries and H1, as the cohomology command reports them
        return (len(X.simplices(1)) - coboundary_rank(X, 1), coboundary_rank(X, 0), cohomology_dim(X, 1))

    found = {"filled": dims(tri_filled), "unfilled": dims(tri_unfilled), "plugged": dims(plugged)}
    ok = found == {"filled": (2, 2, 0), "unfilled": (3, 2, 1), "plugged": (3, 3, 0)}
    _check("cohomology fixtures", ok, str(found))


def test_06_round_trip_converse(tri_unfilled, c4, c5, wedge):
    ok = True
    detail = ""
    for X in (tri_unfilled, c4, c5, wedge):
        system = generate_counterexample(X)
        rebuilt = build_overlap_complex(system)
        compat = pairwise_compatibility(system).compatible
        decided = decide_urprior(system).verdict
        oracle = feasibility_oracle(system)
        if not (rebuilt == X and compat and decided == "none" and oracle is None):
            ok = False
            detail = f"{X.vertices}: rebuilt == X {rebuilt == X}, compatible {compat}, verdict {decided}"
            break
    _check("round-trip converse", ok, detail)


def test_07_oracle_equivalence():
    rng = random.Random(70)
    total = 0
    for _ in range(120):
        system = random_system(rng)
        total += 1
        result = decide_urprior(system)
        oracle = feasibility_oracle(system)
        agree = (oracle == result.measure) if result.verdict == "exists" else (oracle is None)
        if not agree or (result.verdict == "exists" and not verify_urprior(system, result.measure).ok):
            _check("oracle equivalence", False, f"disagreement on {system}")
    for _ in range(80):
        system = conditioned_system(rng)
        total += 1
        result = decide_urprior(system)
        oracle = feasibility_oracle(system)
        agree = (oracle == result.measure) if result.verdict == "exists" else (oracle is None)
        if not agree or (result.verdict == "exists" and not verify_urprior(system, result.measure).ok):
            _check("oracle equivalence", False, f"disagreement on {system}")
    _check("oracle equivalence", total >= 200, f"only {total} systems")


def test_08_cocycle_property():
    rng = random.Random(80)
    triangles = 0
    for _ in range(120):
        system = random_system(rng) if rng.random() < 0.5 else conditioned_system(rng)
        if not pairwise_compatibility(system).compatible:
            continue
        X = build_overlap_complex(system)
        r = ratio_cochain(system).ratios
        for (i, j, k) in X.simplices(2):
            triangles += 1
            if r[(i, j)] * r[(j, k)] != r[(i, k)]:
                _check("cocycle property", False, f"triangle {(i, j, k)} of {system}")
    _check("cocycle property", triangles > 0, "no triangles encountered")


def test_09_common_event_guarantee():
    rng = random.Random(90)
    for _ in range(60):
        system = conditioned_system(rng, common_outcome=True)
        result = decide_urprior(system)
        if result.verdict != "exists":
            _check("common-event guarantee", False, f"verdict {result.verdict} on {system}")
    _check("common-event guarantee", True)


def test_10_gap_regression(data_dir, capsys):
    code, report = _run_json(capsys, "check", str(data_dir / "gap.json"), "--json")
    oracle_code = cli.main(["oracle", str(data_dir / "gap.json")])
    capsys.readouterr()
    cert = report["certificate"]
    ok = (
        code == 1
        and cert is not None
        and cert["kind"] == "null_overlap_asymmetry"
        and oracle_code == 1
    )
    _check("gap regression", ok, f"check exit {code}, oracle exit {oracle_code}, cert {cert}")


def test_11_coboundary_composition():
    rng = random.Random(110)
    for _ in range(100):
        X = random_complex(rng)
        for k in (0, 1):
            upper = coboundary_columns(X, k + 1)
            for column in coboundary_columns(X, k):
                image: dict[int, int] = {}
                for row, a in column.items():
                    for t, b in upper[row].items():
                        image[t] = image.get(t, 0) + a * b
                if any(image.values()):
                    _check("coboundary composition", False, f"nonzero delta-delta at k={k} on {X}")
    _check("coboundary composition", True)
