"""The record types against ``@dataclass(frozen=True)`` twins of themselves.

Each twin is the record's own class body, its derived attributes marked
``field(init=False, repr=False, compare=False)``, under the dataclass
decorator: what the record would be as a frozen dataclass. Record and
twin must construct, print, compare, hash, refuse assignment and reject
invalid fields alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from urprior.compat import (
    Asymmetry,
    CompatibilityReport,
    CycleCertificate,
    RatioCochain,
    VerificationReport,
)
from urprior.complexes import SimplicialComplex, SpanningForest, spanning_forest
from urprior.credence import AgentSystem, CredenceFunction, OutcomeSpace, _Record


def _twin(cls: type) -> type:
    """``cls`` as a frozen dataclass: its own namespace, without the record base."""
    namespace = {k: v for k, v in vars(cls).items() if k != "_fields"}
    for name in cls.__annotations__:
        if name not in cls._fields:
            namespace[name] = field(init=False, repr=False, compare=False)
    return dataclass(frozen=True)(type(cls.__name__, (), namespace))


SPACE = OutcomeSpace(("a", "b", "c"))
AGENTS = (
    CredenceFunction("1", {"a": Fraction(1, 2), "b": Fraction(1, 2)}),
    CredenceFunction("2", {"b": Fraction(1, 3), "c": Fraction(2, 3)}),
)
EDGE = SimplicialComplex(("1", "2"), (((0,), (1,)), ((0, 1),)))

# one valid set of fields per record type
FIELDS = {
    OutcomeSpace: (["a", "b"],),
    CredenceFunction: ("1", {"a": Fraction(1, 4), "b": 0, "c": Fraction(3, 4)}),
    AgentSystem: (SPACE, list(AGENTS)),
    SimplicialComplex: (["x", "y", "z"], [[(0,), (1,), (2,)], [(0, 1), (1, 2)]]),
    SpanningForest: ((0, 1, 2), {1: 0, 2: 1}, ()),
    Asymmetry: (("1", "2"), Fraction(1, 2), Fraction(0)),
    CycleCertificate: (("1", "2", "3"), Fraction(2), ("1", "3")),
    CompatibilityReport: (True, (), ()),
    RatioCochain: (EDGE, {(0, 1): 2}),
    VerificationReport: (False, ("agent 1: sector mass is 0",)),
}

# invalid fields, each rejected by __post_init__
INVALID = {
    OutcomeSpace: [(("a", "a"),)],
    CredenceFunction: [
        ("1", {}),
        ("1", {"a": 0.5, "b": Fraction(1, 2)}),
        ("1", {"a": True}),
        ("1", {"a": Fraction(-1, 2), "b": Fraction(3, 2)}),
        ("1", {"a": Fraction(1, 2)}),
    ],
    AgentSystem: [
        (SPACE, ()),
        (SPACE, (AGENTS[0], AGENTS[0])),
        (OutcomeSpace(("a", "b")), AGENTS),
    ],
    SimplicialComplex: [
        (("x", "x"), (((0,), (1,)),)),
        (("x",), (((0, 0),),)),
        (("x",), (((1,),),)),
        (("x", "y"), (((1,), (0,)),)),
        (("x", "y"), (((0,), (1,)), ((1, 0),))),
        (("x", "y"), (((0,),),)),
        (("x",), (((0,),), ())),
        (("x",), ()),
        (("x", "y", "z"), (((0,), (1,), (2,)), ((0, 1),), ((0, 1, 2),))),
    ],
    RatioCochain: [
        (EDGE, {(0, 1): 0.5}),
        (EDGE, {(0, 1): False}),
        (EDGE, {}),
        (EDGE, {(0, 1): 0}),
    ],
}


def _outcome(make):
    """What ``make()`` gives: ("value", result), else the type and text of what it raised."""
    try:
        return ("value", make())
    except Exception as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
class TestAgainstTheDataclass:
    def test_fields_and_base(self, cls):
        twin = _twin(cls)
        assert _Record in cls.__mro__
        assert [f for f, spec in twin.__dataclass_fields__.items() if spec.init] == list(cls._fields)

    def test_construction_and_repr(self, cls):
        twin = _twin(cls)
        args = FIELDS[cls]
        by_name = dict(zip(cls._fields, args))
        record, reference = cls(*args), twin(*args)
        assert repr(record) == repr(reference)
        assert repr(cls(**by_name)) == repr(twin(**by_name)) == repr(record)
        if len(args) > 1:
            split = dict(list(by_name.items())[1:])
            assert repr(cls(args[0], **split)) == repr(record)
        assert vars(record) == vars(reference)

    def test_wrong_arguments_raise_type_error(self, cls):
        twin = _twin(cls)
        args = FIELDS[cls]
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*args[:-1])
            with pytest.raises(TypeError):
                make(*args, args[-1])
            with pytest.raises(TypeError):
                make(*args, unknown=1)
            with pytest.raises(TypeError):
                make(*args, **{cls._fields[0]: args[0]})

    def test_equality_within_one_type(self, cls):
        twin = _twin(cls)
        args = FIELDS[cls]
        record, reference = cls(*args), twin(*args)
        assert record == cls(*args) and not record != cls(*args)
        assert reference == twin(*args)
        assert record != reference and reference != record
        assert not record == reference and not reference == record
        assert record != args

    def test_hash(self, cls):
        twin = _twin(cls)
        args = FIELDS[cls]
        assert _outcome(lambda: hash(cls(*args))) == _outcome(lambda: hash(twin(*args)))

    def test_assignment_and_deletion_refused(self, cls):
        twin = _twin(cls)
        args = FIELDS[cls]
        record, reference = cls(*args), twin(*args)
        before = dict(vars(record))
        for name in (*cls.__annotations__, "other"):
            refused = []
            for instance in (record, reference):
                for action in (lambda: setattr(instance, name, 1), lambda: delattr(instance, name)):
                    with pytest.raises(AttributeError) as info:
                        action()
                    refused.append(str(info.value))
            assert refused[:2] == refused[2:], name
        assert vars(record) == before

    def test_validation_errors(self, cls):
        twin = _twin(cls)
        for args in INVALID.get(cls, []):
            got = _outcome(lambda: cls(*args))
            assert got[0] is ValueError, (args, got)
            assert got == _outcome(lambda: twin(*args)), args


def test_every_validating_record_has_invalid_cases():
    validating = {cls for cls in FIELDS if "__post_init__" in vars(cls)}
    assert validating == set(INVALID)


def test_records_of_two_types_are_never_equal():
    # the same field values in two record types, as the dataclasses compare them
    values = (("1", "2"), Fraction(1, 2), Fraction(0))
    assert Asymmetry(*values) != CompatibilityReport(*values)
    assert _twin(Asymmetry)(*values) != _twin(CompatibilityReport)(*values)


def test_canonical_construction():
    # _canonical builds without __init__ and without checks, as on the dataclass
    masses = {"a": (1, 2), "b": (1, 2)}
    counts = (2, {"a": 1, "b": 1})
    pairs = [
        (CredenceFunction, ("1", masses, counts)),
        (AgentSystem, (SPACE, AGENTS)),
        (SimplicialComplex, (("x", "y"), (((0,), (1,)), ((0, 1),)))),
    ]
    for cls, args in pairs:
        record, reference = cls._canonical(*args), _twin(cls)._canonical(*args)
        assert type(record) is cls
        assert repr(record) == repr(reference)
        assert record == cls._canonical(*args)
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(reference))


def test_derived_forms_stay_out_of_init_repr_and_equality():
    agent = CredenceFunction("1", {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": 0})
    assert CredenceFunction._fields == ("name", "pmf")
    assert repr(agent) == "CredenceFunction(name='1', pmf={'a': Fraction(1, 2), 'b': Fraction(1, 2), 'c': 0})"
    assert agent.counts == (2, {"a": 1, "b": 1, "c": 0})
    assert agent.positive == {"a", "b"} and agent.support == {"a", "b", "c"}
    canonical = CredenceFunction._canonical("1", agent.masses, agent.counts)
    assert "pmf" not in vars(canonical)
    assert canonical == agent
    assert "pmf" in vars(canonical)
    with pytest.raises(TypeError):
        CredenceFunction("1", {"a": 1}, masses={"a": (1, 1)})


def test_cached_properties_are_cached():
    system = AgentSystem(SPACE, AGENTS)
    overlaps = system.overlaps
    assert overlaps == {(0, 1): (("b",), 1, 1)}
    assert system.overlaps is overlaps and vars(system)["overlaps"] is overlaps
    forest = spanning_forest(EDGE)
    assert forest == SpanningForest((0, 1), {1: 0}, ())
    assert spanning_forest(EDGE) is forest and vars(EDGE)["_forest"] is forest
