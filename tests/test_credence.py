from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from urprior import cli
from urprior.credence import (
    AgentSystem,
    CredenceFunction,
    OutcomeSpace,
    ValidationError,
    validate,
)
from urprior.numerics import common_denominator
from urprior.witness import NoHoleError, generate_counterexample

from .generators import random_complex, seeded_systems
from .overlap_reference import overlap_mass


def _raw(outcomes, agents):
    return {"outcomes": list(outcomes), "agents": agents}


class TestValidate:
    def test_accepts_well_formed_input(self):
        system = validate(
            _raw(
                ["a", "b", "c"],
                [
                    {"name": "1", "credence": {"a": "1/2", "b": "1/2"}},
                    {"name": "2", "credence": {"b": "0.25", "c": "3/4"}},
                ],
            )
        )
        assert system.names == ("1", "2")
        assert system.agents[1].pmf["b"] == Fraction(1, 4)

    def test_broken_sum_reports_agent_and_total(self):
        with pytest.raises(ValidationError) as exc:
            validate(
                _raw(
                    ["a", "b"],
                    [{"name": "1", "credence": {"a": "1/2", "b": "5/8"}}],
                )
            )
        assert any("sum" in v and "1" in v and "9/8" in v for v in exc.value.violations)

    def test_collects_multiple_violations(self):
        with pytest.raises(ValidationError) as exc:
            validate(
                _raw(
                    ["a", "b"],
                    [
                        {"name": "1", "credence": {"a": "2"}},
                        {"name": "1", "credence": {"a": "1"}},
                        {"name": "2", "credence": {"zzz": "1"}},
                    ],
                )
            )
        assert exc.value.violations == [
            "pmf sum != 1 for agent 1 (sum 2)",
            "duplicate agent name '1'",
            "agent 2: outcome 'zzz' is not in the outcome space",
        ]

    def test_negative_mass(self):
        with pytest.raises(ValidationError) as exc:
            validate(
                _raw(
                    ["a", "b"],
                    [{"name": "1", "credence": {"a": "3/2", "b": "-1/2"}}],
                )
            )
        assert any("negative" in v for v in exc.value.violations)

    @pytest.mark.parametrize(
        "agents, expected",
        [
            (
                [{"name": "1", "credence": {"a": "1/2", "b": "5/8"}}],
                ["pmf sum != 1 for agent 1 (sum 9/8)"],
            ),
            (
                [{"name": "1", "credence": {"a": "3/2", "b": "-1/2"}}],
                ["agent 1: outcome 'b' has negative mass -1/2"],
            ),
            (
                [{"name": "1", "credence": {"a": "1", "zzz": "0"}}],
                ["agent 1: outcome 'zzz' is not in the outcome space"],
            ),
            (
                [{"name": "1", "credence": {"a": "1"}}, {"name": "1", "credence": {"b": "1"}}],
                ["duplicate agent name '1'"],
            ),
            (
                [3, {"name": "1", "credence": {"a": "1"}}],
                ["agent #0: entry must be an object"],
            ),
            (
                [{"credence": {"a": "1"}}, {"name": ""}],
                ["agent #0: missing or invalid name", "agent #1: missing or invalid name"],
            ),
            (
                [{"name": "1", "credence": ["a"]}],
                ["agent 1: 'credence' must be a nonempty mapping"],
            ),
        ],
        ids=["sum", "negative", "unknown outcome", "duplicate name", "entry", "name", "credence"],
    )
    def test_error_lines(self, agents, expected):
        with pytest.raises(ValidationError) as exc:
            validate(_raw(["a", "b"], agents))
        assert exc.value.violations == expected
        assert str(exc.value) == "; ".join(expected)

    def test_non_string_outcome_label(self):
        with pytest.raises(ValidationError) as exc:
            validate(_raw([1, "a"], [{"name": "1", "credence": {"a": "1"}}]))
        assert exc.value.violations == ["outcome label 1 is not a string"]

    def test_sum_error_line_in_the_cli_report(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        raw = _raw(["a", "b"], [{"name": "1", "credence": {"a": "1/2", "b": "5/8"}}])
        path.write_text(json.dumps(raw))
        assert cli.main(["check", str(path)]) == 2
        out = capsys.readouterr().out
        assert out == "invalid system file:\n  pmf sum != 1 for agent 1 (sum 9/8)\n"

    def test_negative_zero_literal_is_mass_zero(self):
        system = validate(
            _raw(["a", "b", "c"], [{"name": "1", "credence": {"a": "-0", "b": "1", "c": "-0/7"}}])
        )
        (agent,) = system.agents
        assert agent.pmf == {"a": 0, "b": 1, "c": 0}
        assert agent.support == frozenset({"a", "b", "c"})

    def test_rejects_float_masses(self):
        with pytest.raises(ValidationError):
            validate(_raw(["a"], [{"name": "1", "credence": {"a": 1.0}}]))

    def test_rejects_duplicate_outcomes(self):
        with pytest.raises(ValidationError):
            validate(_raw(["a", "a"], [{"name": "1", "credence": {"a": "1"}}]))

    def test_rejects_missing_sections(self):
        with pytest.raises(ValidationError):
            validate({"outcomes": ["a"]})
        with pytest.raises(ValidationError):
            validate({"agents": []})
        with pytest.raises(ValidationError):
            validate([1, 2, 3])

    def test_rejects_empty_agent_list(self):
        with pytest.raises(ValidationError):
            validate(_raw(["a"], []))


class TestModel:
    def test_pmf_is_defensively_copied(self):
        pmf = {"a": Fraction(1)}
        agent = CredenceFunction("1", pmf)
        pmf["a"] = Fraction(0)
        assert agent.pmf["a"] == Fraction(1)

    def test_support_is_awareness_set(self):
        # a zero-mass key stays in the support: the agent is aware of the
        # outcome and rules it out, which is not the same as ignorance
        agent = CredenceFunction("1", {"a": Fraction(1), "b": Fraction(0)})
        assert agent.support == frozenset({"a", "b"})

    def test_positive_outcomes(self):
        agent = CredenceFunction("1", {"a": Fraction(1), "b": Fraction(0), "c": 0})
        assert agent.positive == frozenset({"a"})
        assert agent.positive is agent.positive
        for system in seeded_systems():
            for agent in system.agents:
                assert agent.positive == frozenset(x for x, v in agent.pmf.items() if v > 0)

    def test_plain_int_masses(self):
        # zero is awareness without weight, not a negative mass
        agent = CredenceFunction("1", {"a": 1, "b": 0})
        assert agent.support == frozenset({"a", "b"})
        assert agent.counts == (1, {"a": 1, "b": 0})
        with pytest.raises(ValueError, match="negative mass"):
            CredenceFunction("1", {"a": 2, "b": -1})

    def test_pmf_must_sum_to_one(self):
        with pytest.raises(ValueError, match=r"^pmf sum != 1 for agent 1 \(sum 1/2\)$"):
            CredenceFunction("1", {"a": Fraction(1, 2)})

    def test_rejects_an_empty_pmf(self):
        with pytest.raises(ValueError, match="^agent 1: awareness set is empty$"):
            CredenceFunction("1", {})

    def test_system_rejects_no_agents_and_repeated_names(self):
        space = OutcomeSpace(("a",))
        with pytest.raises(ValueError, match="^a system needs at least one agent$"):
            AgentSystem(space, ())
        agent = CredenceFunction("1", {"a": 1})
        with pytest.raises(ValueError, match="^agent names must be unique$"):
            AgentSystem(space, (agent, CredenceFunction("1", {"a": Fraction(1)})))

    def test_space_rejects_duplicates(self):
        with pytest.raises(ValueError):
            OutcomeSpace(("a", "a"))

    def test_system_rejects_stray_outcomes(self):
        space = OutcomeSpace(("a",))
        agent = CredenceFunction("1", {"b": Fraction(1)})
        with pytest.raises(ValueError):
            AgentSystem(space, (agent,))

    def test_union_support(self, ex1):
        assert ex1.union_support() == frozenset(ex1.space.outcomes)


class TestOverlapMass:
    def test_pair_overlap(self, ex1):
        assert overlap_mass(ex1, "1", ("1", "2")) == Fraction(5, 8)
        assert overlap_mass(ex1, "2", ("1", "2")) == Fraction(1, 2)

    def test_triple_overlap_can_vanish(self, ex2):
        assert overlap_mass(ex2, "1", ("1", "2", "3")) == Fraction(0)

    def test_agent_must_belong_to_group(self, ex1):
        with pytest.raises(ValueError):
            overlap_mass(ex1, "1", ("2", "3"))

    def test_unknown_member_rejected(self, ex1):
        with pytest.raises(ValueError):
            overlap_mass(ex1, "1", ("1", "9"))


class TestRoundTrip:
    def test_serialize_then_validate(self, ex1):
        raw = cli.system_to_dict(ex1)
        again = validate(raw)
        assert again == ex1

    def test_serialized_credences_follow_outcome_order(self, ex1):
        raw = cli.system_to_dict(ex1)
        order = {label: i for i, label in enumerate(raw["outcomes"])}
        for entry in raw["agents"]:
            keys = list(entry["credence"])
            assert keys == sorted(keys, key=order.__getitem__)


def _assert_checked_once(system: AgentSystem) -> None:
    """The system equals its rebuild through the checking constructors, counts included.

    ``validate`` and ``generate_counterexample`` build agents and systems
    through the unchecked ``_canonical`` forms and hand each agent its
    masses and counts; the public constructors check every rule and
    derive both from the pmf. Either way the masses, counts, support and
    positive outcomes are set when the agent is built, and a
    ``_canonical`` agent's pmf is built from its masses on first read.
    """
    for agent in system.agents:
        assert "pmf" not in vars(agent)
    for agent in system.agents:
        assert agent.counts == common_denominator(agent.masses)
        assert list(agent.counts[1]) == list(agent.masses)
    rebuilt = AgentSystem(
        OutcomeSpace(system.space.outcomes),
        tuple(CredenceFunction(agent.name, agent.pmf) for agent in system.agents),
    )
    assert rebuilt == system
    for ours, theirs in zip(system.agents, rebuilt.agents):
        for agent in (ours, theirs):  # set when built, not computed on read
            assert vars(agent).keys() >= {"pmf", "masses", "counts", "support", "positive"}
            pairs = [(x, (v.numerator, v.denominator)) for x, v in agent.pmf.items()]
            assert list(agent.masses.items()) == pairs
        assert ours.counts == theirs.counts
        assert type(ours.support) is frozenset and ours.support == theirs.support
        assert type(ours.positive) is frozenset and ours.positive == theirs.positive
    assert rebuilt.overlaps == system.overlaps


class TestCheckedOnce:
    def test_validated_seeded_systems(self):
        for system in seeded_systems():
            again = validate(cli.system_to_dict(system))
            _assert_checked_once(again)
            assert again == system

    def test_validated_literals_of_every_form(self):
        # unreduced, signed, spaced, grouped, decimal and integer literals
        # all become coprime pairs with a positive denominator
        credence = {"a": "2/8", "b": " +0.125 ", "c": "1_0/8_0", "d": "0/6", "e": "1E-1"}
        credence |= {"f": "3/12", "g": "12/80"}
        system = validate(_raw("abcdefgh", [
            {"name": "u", "credence": credence},
            {"name": "v", "credence": {"g": "00/3", "h": "1", "a": 0}},
            {"name": "w", "credence": {"a": "6/10", "h": "4/10"}},
        ]))
        assert system.agents[0].masses["a"] == (1, 4)
        assert system.agents[0].masses["d"] == (0, 1)
        _assert_checked_once(system)

    def test_counterexamples_of_the_data_complexes(self, c4, c5, wedge, tri_unfilled):
        for X in (c4, c5, wedge, tri_unfilled):
            _assert_checked_once(generate_counterexample(X))

    def test_counterexamples_of_random_holed_complexes(self):
        rng = random.Random(63)
        tried = 0
        while tried < 40:
            try:
                system = generate_counterexample(random_complex(rng, 12))
            except NoHoleError:
                continue
            tried += 1
            _assert_checked_once(system)
