"""Seeded property tests on systems of 20 to 80 agents.

The decision, the independent oracle and ``verify_urprior`` must agree on
every system, and renaming outcomes or agents, or reordering the agents,
must keep the verdict and the measure.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from urprior.compat import decide_urprior, verify_urprior
from urprior.complexes import build_overlap_complex
from urprior.credence import AgentSystem, CredenceFunction, OutcomeSpace
from urprior.oracle import feasibility_oracle

from .generators import conditioned_system, random_system, window_chain
from .overlap_reference import connected_components


def _planted(rng: random.Random) -> AgentSystem:
    """A window chain with one agent's first two masses moved apart: a pairwise violation."""
    system, _ = window_chain(rng, rng.randint(20, 80))
    k = rng.randrange(len(system.agents))
    agents = list(system.agents)
    a, b = list(agents[k].pmf)[:2]
    shift = agents[k].pmf[b] / 2
    agents[k] = CredenceFunction(
        agents[k].name, {**agents[k].pmf, a: agents[k].pmf[a] + shift, b: agents[k].pmf[b] - shift}
    )
    return AgentSystem(system.space, tuple(agents))


def _large_systems() -> list[tuple[str, AgentSystem]]:
    rng = random.Random(4096)
    out = []
    for k in range(5):
        sizes = {"min_agents": 20, "max_agents": 80}
        conditioned = conditioned_system(rng, **sizes, max_outcomes=24, common_outcome=k % 2 == 0)
        out.append(("conditioned", conditioned))
        out.append(("random", random_system(rng, **sizes, max_outcomes=10)))
        out.append(("window", window_chain(rng, rng.randint(20, 80))[0]))
        out.append(("planted", _planted(rng)))
    return out


LARGE = _large_systems()
IDS = [f"{kind}{k // 4}-{len(system.agents)}agents" for k, (kind, system) in enumerate(LARGE)]


@pytest.mark.parametrize("kind, system", LARGE, ids=IDS)
def test_decide_oracle_and_verify_agree(kind, system):
    assert 20 <= len(system.agents) <= 80
    result = decide_urprior(system)
    oracle = feasibility_oracle(system)
    if kind in ("conditioned", "window"):
        assert result.verdict == "exists"
    if kind == "planted":
        assert result.verdict == "none" and hasattr(result.certificate, "conditional_left")
    if result.verdict == "exists":
        assert oracle == result.measure
        assert verify_urprior(system, result.measure).ok
        assert sum(result.measure.values()) == 1
        assert all(type(v) is Fraction for v in result.measure.values())
    else:
        assert oracle is None


def _relabel_outcomes(
    system: AgentSystem, rng: random.Random
) -> tuple[AgentSystem, dict[str, str]]:
    labels = [f"q{k}" for k in range(len(system.space.outcomes))]
    rng.shuffle(labels)
    new = dict(zip(system.space.outcomes, labels))
    agents = tuple(
        CredenceFunction(a.name, {new[x]: v for x, v in a.pmf.items()}) for a in system.agents
    )
    return AgentSystem(OutcomeSpace(tuple(sorted(labels))), agents), new


def _rename_agents(system: AgentSystem, rng: random.Random) -> AgentSystem:
    names = [f"agent-{k}" for k in range(len(system.agents))]
    rng.shuffle(names)
    agents = tuple(CredenceFunction(name, a.pmf) for name, a in zip(names, system.agents))
    return AgentSystem(system.space, agents)


def _permute_agents(system: AgentSystem, rng: random.Random) -> AgentSystem:
    agents = list(system.agents)
    rng.shuffle(agents)
    return AgentSystem(system.space, tuple(agents))


def _connected(system: AgentSystem) -> bool:
    return len(connected_components(build_overlap_complex(system))) == 1


@pytest.mark.parametrize("kind, system", LARGE, ids=IDS)
def test_relabelling_and_reordering_keep_the_verdict_and_the_measure(kind, system):
    rng = random.Random(len(system.agents))
    result = decide_urprior(system)
    measure = result.measure or {}

    relabelled, new = _relabel_outcomes(system, rng)
    other = decide_urprior(relabelled)
    assert other.verdict == result.verdict
    assert (other.measure or {}) == {new[x]: v for x, v in measure.items()}

    other = decide_urprior(_rename_agents(system, rng))
    assert other.verdict == result.verdict and other.measure == result.measure

    permuted = _permute_agents(system, rng)
    other = decide_urprior(permuted)
    assert other.verdict == result.verdict
    if result.verdict == "exists":
        assert verify_urprior(permuted, other.measure).ok
        # The common prior is unique exactly when the overlap graph is
        # connected; otherwise each component's share follows its root.
        if _connected(system):
            assert other.measure == result.measure


def test_the_sample_reaches_both_verdicts_and_a_unique_prior():
    verdicts = [decide_urprior(system).verdict for _, system in LARGE]
    assert verdicts.count("exists") >= 10 and verdicts.count("none") >= 5
    assert sum(_connected(system) for _, system in LARGE) >= 10

