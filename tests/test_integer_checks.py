"""The integer cross-multiplied checks against the Fraction-only reference."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from urprior.compat import (
    CycleCertificate,
    GluingError,
    RatioCochain,
    UrPriorResult,
    decide_urprior,
    glue_urprior,
    pairwise_compatibility,
    ratio_cochain,
    solve_scaling,
    verify_urprior,
)
from urprior.complexes import build_overlap_complex, from_facets
from urprior.credence import AgentSystem, CredenceFunction, OutcomeSpace
from urprior.oracle import feasibility_oracle
from urprior.witness import generate_counterexample

from . import fraction_reference as reference
from .generators import (
    EDGE_CASES,
    annulus,
    disjoint_union,
    geometric_chain,
    holonomy_from_pmfs,
    random_complex,
    seeded_systems,
    window_chain,
)
from .overlap_reference import connected_components

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
    """(system, ratios) for every system that passes the pairwise test."""
    for system in systems:
        report = pairwise_compatibility(system)
        if report.compatible and not report.asymmetries:
            yield system, ratio_cochain(system)


def test_counts_are_the_pmf_over_the_lcm_of_its_denominators():
    for system in SYSTEMS + HOLED:
        for agent in system.agents:
            d, counts = agent.counts
            assert d == lcm(*(v.denominator for v in agent.pmf.values()))
            assert counts == {x: v * d for x, v in agent.pmf.items()}
            assert all(type(n) is int for n in counts.values())


def test_pairwise_reports_equal_the_reference():
    for system in SYSTEMS + HOLED:
        assert pairwise_compatibility(system) == reference.pairwise_compatibility(system)


def test_scalings_and_certificates_equal_the_reference():
    kinds = {"scaling": 0, "cycle": 0}
    for _, ratios in _solved(SYSTEMS + HOLED):
        ours = solve_scaling(ratios)
        assert ours == reference.solve_scaling(ratios.complex, ratios)
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
        ours = solve_scaling(cochain)
        assert ours == reference.solve_scaling(X, cochain)
        kinds["scaling" if ours[0] is not None else "cycle"] += 1
    assert kinds["scaling"] > 100 and kinds["cycle"] > 50


# Chains whose masses reach hundreds of bits, so that the units g_i = factor_i / d_i
# carry many distinct large denominators and their lcm is far from any one of them.
BIG = [geometric_chain(60, 1000), geometric_chain(40, 3**40)] + [
    window_chain(random.Random(seed), agents, window=window, growth=growth)[0]
    for seed, agents, window, growth in ((1, 30, 4, 10**6), (2, 24, 3, 2**61 - 1), (3, 12, 5, 7**40))
]


def test_glued_measures_equal_the_reference():
    widest = 0
    for system, ratios in _solved(SYSTEMS + BIG):
        scaling, _ = solve_scaling(ratios)
        if scaling is None:
            continue
        # a common factor of every scale changes the units, not the measure
        rescaled = {name: v * Fraction(5**90, 3**70) for name, v in scaling.items()}
        for factors in (scaling, rescaled):
            ours = glue_urprior(system, factors)
            theirs = reference.glue_urprior(system, factors)
            assert ours == theirs and list(ours) == list(theirs)
            assert all(type(v) is Fraction for v in ours.values())
        widest = max(widest, *(v.denominator.bit_length() for v in ours.values()))
    assert widest > 500


def test_an_earlier_gluing_error_wins_over_a_later_bad_factor():
    # agents 1 and 2 share {a, b}; agent 3 holds c alone
    half = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    agents = (CredenceFunction("1", half), CredenceFunction("2", half), CredenceFunction("3", {"c": 1}))
    system = AgentSystem(OutcomeSpace(("a", "b", "c")), agents)
    for bad in (0, -1, 0.5, True, "1", None):
        scaling = {"1": 1, "2": 2, "3": bad}
        assert _outcome(glue_urprior, system, scaling) == (
            GluingError,
            "agents 1 and 2 assign different rescaled masses to 'a'",
        )
        assert _outcome(reference.glue_urprior, system, scaling) == _outcome(
            glue_urprior, system, scaling
        )
        # a bad factor at agent 2 comes before the disagreement it would cause
        scaling = {"1": 1, "2": bad, "3": 1}
        assert _outcome(glue_urprior, system, scaling) == (
            ValueError,
            "scaling must assign a positive factor to agent 2",
        )


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
    for system, ratios in _solved(SYSTEMS):
        scaling, _ = solve_scaling(ratios)
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


def _conditioned(weights, windows):
    """Agent k conditioned from the weights on the outcomes windows[k] (indices into the weights)."""
    outcomes = tuple(f"o{x}" for x in range(len(weights)))
    agents = []
    for k, window in enumerate(windows):
        sector = sum(weights[x] for x in window)
        agents.append(CredenceFunction(f"a{k}", {outcomes[x]: Fraction(weights[x], sector) for x in window}))
    return AgentSystem(OutcomeSpace(outcomes), tuple(agents))


def _swapped(system, rng):
    """The system with the smallest and largest pmf values of one agent swapped."""
    agents = list(system.agents)
    k = rng.randrange(len(agents))
    pmf = dict(agents[k].pmf)
    x, y = min(pmf, key=pmf.get), max(pmf, key=pmf.get)
    pmf[x], pmf[y] = pmf[y], pmf[x]
    agents[k] = CredenceFunction(agents[k].name, pmf)
    return AgentSystem(system.space, tuple(agents))


def _oracle_kinds():
    rng = random.Random(13)
    chains = [
        window_chain(rng, agents, window=2 + agents % 4, growth=1000)[0]
        for agents in (1, 2, 3, 5, 8, 13, 32, 64, 128)
    ]
    # two chains joined by an outcome both weight 0, or not joined at all
    two_classes = []
    for joined in (True, False) * 3:
        w = [rng.randint(1, 6) * 1000**x for x in range(12)] + [0]
        left = [(0, 1, 2), (2, 3, 4), (4, 5) + (12,) * joined]
        two_classes.append(_conditioned(w, left + [(12,) * joined + (6, 7), (7, 8, 9), (9, 10, 11)]))
    # every third outcome weighted 0 by everyone aware of it
    zeroed = []
    for agents in (2, 4, 9, 30):
        w = [0 if x % 3 == 1 else rng.randint(1, 6) * 1000**x for x in range(agents + 3)]
        zeroed.append(_conditioned(w, [range(i, i + 4) for i in range(agents)]))
    return {
        "seeded": SYSTEMS,
        "holed": HOLED,
        "growth-1000 chain": chains,
        "swapped chain": [_swapped(s, rng) for s in chains[1:] for _ in range(3)],
        "geometric chain": [geometric_chain(k, 1000) for k in (1, 2, 10, 100, 300)],
        "two linkage classes": two_classes,
        "zero-weighted outcome": zeroed,
    }


def test_oracle_equals_the_reference():
    # (measures, Nones) at least, per kind, so that no kind drops out unseen;
    # a swap on a window-2 chain (single-outcome links) stays feasible
    floors = {
        "seeded": (150, 50),
        "holed": (0, 3),
        "growth-1000 chain": (9, 0),
        "swapped chain": (10, 10),
        "geometric chain": (5, 0),
        "two linkage classes": (6, 0),
        "zero-weighted outcome": (4, 0),
    }
    kinds = _oracle_kinds()
    assert kinds.keys() == floors.keys()
    for kind, systems in kinds.items():
        found = empty = 0
        for system in systems:
            measure = feasibility_oracle(system)
            theirs = reference.feasibility_oracle(system)
            assert measure == theirs, kind
            if measure is None:
                empty += 1
            else:
                assert list(measure) == list(theirs), kind
                found += 1
        least_found, least_empty = floors[kind]
        assert found >= least_found and empty >= least_empty, (kind, found, empty)


@pytest.mark.parametrize("value", [0.5, True, "1/2", None])
def test_credences_must_be_int_or_fraction(value):
    message = r"agent a: outcome 'x': mass .* is not an int or a Fraction"
    with pytest.raises(ValueError, match=message):
        CredenceFunction("a", {"x": value, "y": Fraction(1, 2)})


@pytest.mark.parametrize("value", [0.1, True, "1/3"])
def test_cochains_must_be_int_or_fraction(value):
    X = from_facets(("1", "2"), [("1", "2")])
    message = r"ratio cochain: edge \(0, 1\): ratio .* is not an int or a Fraction"
    with pytest.raises(ValueError, match=message):
        RatioCochain(X, {(0, 1): value})
    # int and Fraction stay accepted, and are kept as Fractions
    assert RatioCochain(X, {(0, 1): 3}).ratios == {(0, 1): Fraction(3)}
    assert RatioCochain(X, {(0, 1): Fraction(1, 3)}).ratios == {(0, 1): Fraction(1, 3)}


# Counterexamples on the annuli m = 3..8, and feasible systems whose overlap
# complex has two or more components, one of them a growth-1000 window chain.
ANNULI = HOLED + [generate_counterexample(annulus(random.Random(m), m)) for m in (6, 7, 8)]
TWO_COMPONENT = [
    disjoint_union(
        window_chain(random.Random(seed), 12, growth=1000)[0],
        window_chain(random.Random(seed + 10), 9)[0],
    )
    for seed in (1, 2)
] + [disjoint_union(geometric_chain(6, 7), EDGE_CASES["single agent"], geometric_chain(3, 2))]


def _staged_decision(system: AgentSystem) -> UrPriorResult:
    """decide_urprior through the public stages: ratio cochain, scaling, glue, verify."""
    report = pairwise_compatibility(system)
    if report.violations or report.asymmetries:
        return UrPriorResult("none", None, (report.violations + report.asymmetries)[0])
    scaling, cycle = solve_scaling(ratio_cochain(system))
    if cycle is not None:
        return UrPriorResult("none", None, cycle)
    measure = glue_urprior(system, scaling)
    assert verify_urprior(system, measure).ok
    return UrPriorResult("exists", measure, None)


def test_decide_equals_the_fraction_stages():
    kinds = {"exists": 0, "cycle": 0, "multi-component exists": 0}
    for system in SYSTEMS + BIG + ANNULI + TWO_COMPONENT:
        ours, staged = decide_urprior(system), _staged_decision(system)
        assert ours == staged
        if ours.verdict == "exists":
            assert list(ours.measure) == list(staged.measure)
            kinds["exists"] += 1
            if len(connected_components(build_overlap_complex(system))) > 1:
                kinds["multi-component exists"] += 1
        elif isinstance(ours.certificate, CycleCertificate):
            assert holonomy_from_pmfs(system, ours.certificate.cycle) == ours.certificate.holonomy
            kinds["cycle"] += 1
    # 14 seeded systems have a feasible overlap complex of several components
    assert kinds["exists"] > 150 and kinds["cycle"] == len(ANNULI)
    assert kinds["multi-component exists"] == 14 + len(TWO_COMPONENT)
