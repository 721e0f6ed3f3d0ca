"""The integer cross-multiplied checks against the Fraction-only reference."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from urprior.compat import (
    GluingError,
    RatioCochain,
    glue_urprior,
    pairwise_compatibility,
    ratio_cochain,
    solve_scaling,
    verify_urprior,
)
from urprior.complexes import build_overlap_complex
from urprior.credence import CredenceFunction
from urprior.oracle import feasibility_oracle
from urprior.witness import generate_counterexample

from . import fraction_reference as reference
from .generators import EDGE_CASES, annulus, random_complex, seeded_systems

SYSTEMS = seeded_systems()
# Systems with a hole in the overlap complex, so that the scaling fails on a cycle.
HOLED = [generate_counterexample(annulus(random.Random(m), m)) for m in (3, 4, 5)]


def _outcome(call, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return call(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _solved(systems):
    """(system, skeleton, ratios) for every system that passes the pairwise test."""
    for system in systems:
        report = pairwise_compatibility(system)
        if report.compatible and not report.asymmetries:
            X = build_overlap_complex(system, max_dim=1)
            yield system, X, ratio_cochain(system, X)


def test_counts_are_the_pmf_over_the_lcm_of_its_denominators():
    for system in SYSTEMS + HOLED:
        for agent in system.agents:
            d, counts = agent.counts
            assert d == lcm(*(v.denominator for v in agent.pmf.values()))
            assert counts == {x: v * d for x, v in agent.pmf.items()}
            assert all(type(n) is int for n in counts.values())


def test_mass_equals_the_reference():
    rng = random.Random(7)
    for system in SYSTEMS + HOLED:
        for agent in system.agents:
            events = [(), agent.support, ("not an outcome",)]
            outcomes = system.space.outcomes
            events += [rng.sample(outcomes, k) for k in range(len(outcomes))]
            for event in events:
                ours = agent.mass(event)
                assert ours == reference.mass(agent, event)
                assert type(ours) is Fraction


def test_pairwise_reports_equal_the_reference():
    for system in SYSTEMS + HOLED:
        assert pairwise_compatibility(system) == reference.pairwise_compatibility(system)


def test_scalings_and_certificates_equal_the_reference():
    kinds = {"scaling": 0, "cycle": 0}
    for _, X, ratios in _solved(SYSTEMS + HOLED):
        ours = solve_scaling(X, ratios)
        assert ours == reference.solve_scaling(X, ratios)
        kinds["scaling" if ours[0] is not None else "cycle"] += 1
    assert kinds["scaling"] > 100 and kinds["cycle"] == len(HOLED)


def test_scalings_equal_the_reference_on_arbitrary_ratio_cochains():
    rng = random.Random(11)
    kinds = {"scaling": 0, "cycle": 0}
    for k in range(300):
        X = random_complex(rng, max_vertices=8)
        scale = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in X.vertices]
        if k % 3 == 0:  # a coboundary: solvable
            ratios = {(i, j): scale[j] / scale[i] for i, j in X.simplices(1)}
        elif k % 3 == 1:  # integer ratios
            ratios = {e: rng.randint(1, 3) for e in X.simplices(1)}
        else:
            ratios = {e: Fraction(rng.randint(1, 4), rng.randint(1, 4)) for e in X.simplices(1)}
        cochain = RatioCochain(X, ratios)
        ours = solve_scaling(X, cochain)
        assert ours == reference.solve_scaling(X, cochain)
        kinds["scaling" if ours[0] is not None else "cycle"] += 1
    assert kinds["scaling"] > 100 and kinds["cycle"] > 50


def test_glued_measures_equal_the_reference():
    for system, X, ratios in _solved(SYSTEMS):
        scaling, _ = solve_scaling(X, ratios)
        if scaling is None:
            continue
        ours = glue_urprior(system, scaling)
        theirs = reference.glue_urprior(system, scaling)
        assert ours == theirs and list(ours) == list(theirs)


def test_glue_with_integer_and_invalid_factors_equals_the_reference():
    errors = {GluingError: 0, ValueError: 0}
    for k, system in enumerate(SYSTEMS + HOLED):
        names = system.names
        scalings = [
            {name: 1 + (k + a) % 3 for a, name in enumerate(names)},  # int factors
            {name: 1 for name in names},
            {name: Fraction(a + 1, 2) for a, name in enumerate(names)},
            {name: 0 if a == len(names) - 1 else 1 for a, name in enumerate(names)},
            dict(zip(names[1:], [1] * len(names))),  # the first agent is missing
        ]
        for scaling in scalings:
            ours = _outcome(glue_urprior, system, scaling)
            assert ours == _outcome(reference.glue_urprior, system, scaling)
            if isinstance(ours, tuple):
                errors[ours[0]] += 1
    # inconsistent scalings raise GluingError; zero or missing factors, ValueError
    assert errors[GluingError] > 500 and errors[ValueError] > 300


def _perturbed(system, measure, rng):
    """Measures that each break one rule or more of ``verify_urprior``."""
    positive = [x for x in measure if measure[x] > 0]
    x = rng.choice(positive)
    out = [
        {},
        {y: 2 * v for y, v in measure.items()},  # total 2
        {**measure, x: -measure[x]},  # one negative entry
        {**measure, "stray": Fraction(1, 7)},  # mass outside every awareness set
        {**measure, x: 0, "stray": measure[x]},  # stray mass, total still 1
    ]
    for agent in system.agents:
        mine = [y for y in agent.pmf if measure[y] > 0]
        if len(mine) >= 2:  # one wrong conditional, total still 1
            a, b = mine[:2]
            shift = measure[a] / 2
            out.append({**measure, a: measure[a] - shift, b: measure[b] + shift})
            break
    agent = rng.choice(system.agents)  # a zero-mass sector
    out.append({y: (0 if y in agent.pmf else v) for y, v in measure.items()})
    return out


def test_verify_equals_the_reference_on_glued_and_perturbed_measures():
    rng = random.Random(5)
    rejected = 0
    for system, X, ratios in _solved(SYSTEMS):
        scaling, _ = solve_scaling(X, ratios)
        if scaling is None:
            continue
        measure = glue_urprior(system, scaling)
        as_ints = {y: (int(v) if v.denominator == 1 else v) for y, v in measure.items()}
        for good in (measure, as_ints):
            ours = verify_urprior(system, good)
            assert ours.ok and ours == reference.verify_urprior(system, good)
        for bad in _perturbed(system, measure, rng):
            ours = verify_urprior(system, bad)
            assert not ours.ok and ours == reference.verify_urprior(system, bad)
            rejected += 1
    assert rejected > 500


def test_verify_diagnostics_name_each_broken_rule():
    system = EDGE_CASES["disjoint agents"]  # 1 on {a, b}, 2 on {c}, 3 on {d}
    measure = {"a": Fraction(-1, 4), "b": Fraction(3, 4), "x": 1}
    report = verify_urprior(system, measure)
    assert report == reference.verify_urprior(system, measure)
    assert report.diagnostics == (
        "negative mass on 'a'",
        "total mass is 3/2, not 1",
        "positive mass outside every awareness set: ['x']",
        "agent 1: conditional of 'a' is -1/2, expected 1/2",
        "agent 2: awareness set carries zero mass",
        "agent 3: awareness set carries zero mass",
    )
    empty = verify_urprior(system, {})
    assert empty == reference.verify_urprior(system, {}) and not empty.ok


def test_oracle_equals_the_reference():
    found = 0
    for system in SYSTEMS + HOLED:
        measure = feasibility_oracle(system)
        theirs = reference.feasibility_oracle(system)
        assert measure == theirs
        if measure is not None:
            assert list(measure) == list(theirs)
            found += 1
    assert found > 100


@pytest.mark.parametrize("value", [0.5, True, "1/2", None])
def test_credences_must_be_int_or_fraction(value):
    message = r"agent a: outcome 'x': mass .* is not an int or a Fraction"
    with pytest.raises(ValueError, match=message):
        CredenceFunction("a", {"x": value, "y": Fraction(1, 2)})
