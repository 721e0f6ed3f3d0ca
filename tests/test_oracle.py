from __future__ import annotations

import random
from fractions import Fraction

from urprior import oracle
from urprior.complexes import from_facets
from urprior.compat import decide_urprior, verify_urprior
from urprior.credence import validate
from urprior.oracle import feasibility_oracle
from urprior.witness import generate_counterexample

from .generators import annulus, conditioned_system, random_system


class TestFixtures:
    def test_ex1_measure_matches_decide(self, ex1):
        assert feasibility_oracle(ex1) == decide_urprior(ex1).measure

    def test_ex2_infeasible(self, ex2):
        assert feasibility_oracle(ex2) is None

    def test_ex3_infeasible(self, ex3):
        assert feasibility_oracle(ex3) is None

    def test_ex4_feasible(self, ex4):
        measure = feasibility_oracle(ex4)
        assert measure is not None
        assert measure["gold"] == Fraction(1, 27)

    def test_gap_infeasible(self, gap):
        assert feasibility_oracle(gap) is None

    def test_single_agent_is_its_own_prior(self):
        system = validate(
            {
                "outcomes": ["a", "b"],
                "agents": [{"name": "1", "credence": {"a": "1/4", "b": "3/4"}}],
            }
        )
        assert feasibility_oracle(system) == {"a": Fraction(1, 4), "b": Fraction(3, 4)}

    def test_awareness_without_mass_is_respected(self):
        # agent 2 assigns b zero mass while agent 1 does not: no single
        # measure can conditionalize to both
        system = validate(
            {
                "outcomes": ["a", "b", "c"],
                "agents": [
                    {"name": "1", "credence": {"a": "1/2", "b": "1/2"}},
                    {"name": "2", "credence": {"a": "0", "b": "0", "c": "1"}},
                ],
            }
        )
        assert feasibility_oracle(system) is None


class TestAgreementWithDecide:
    def test_random_systems(self):
        rng = random.Random(51)
        for _ in range(80):
            system = random_system(rng)
            direct = decide_urprior(system)
            oracle = feasibility_oracle(system)
            if direct.verdict == "exists":
                assert oracle == direct.measure
            else:
                assert oracle is None

    def test_conditioned_systems_always_feasible(self):
        rng = random.Random(52)
        for _ in range(40):
            system = conditioned_system(rng)
            measure = feasibility_oracle(system)
            assert measure is not None
            assert verify_urprior(system, measure).ok
            assert sum(measure.values()) == Fraction(1)


def _cycle(rng: random.Random, m: int):
    """The m-cycle C_m, vertex order shuffled by the seed: H^1 = 1, no triangle."""
    vertices = [f"v{i}" for i in range(m)]
    rng.shuffle(vertices)
    return from_facets(vertices, [[f"v{i}", f"v{(i + 1) % m}"] for i in range(m)])


class TestLinkCheck:
    """The link check, not the final re-check, refuses a system whose only obstruction is a link."""

    def test_counterexamples_are_refused_before_the_outcome_masses(self, monkeypatch):
        # Counterexamples agree on every overlap: nothing but a link the walk
        # did not cross can fail. Only after the link check are the outcome
        # masses put over an lcm, so a check that let a bad link through
        # would reach it.
        systems = [
            generate_counterexample(build(random.Random(100 * m + k), m))
            for build in (annulus, _cycle)
            for m in range(3, 9)
            for k in range(4)
        ]

        def unreachable(*args):
            raise AssertionError("the outcome masses were reached")

        monkeypatch.setattr(oracle, "lcm", unreachable)
        assert len(systems) == 48
        assert all(feasibility_oracle(system) is None for system in systems)
