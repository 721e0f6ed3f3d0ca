"""Outcome spaces, per-agent credence functions, and validated systems."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property

from urprior.numerics import _format_pair, _rational_pair, common_denominator, format_rational

__all__ = [
    "AgentSystem",
    "CredenceFunction",
    "OutcomeSpace",
    "ValidationError",
    "validate",
]


class ValidationError(ValueError):
    """A raw system description broke one or more structural rules."""

    def __init__(self, violations: Iterable[str]) -> None:
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class _Record:
    """Base of the frozen record types: what ``@dataclass(frozen=True)`` gives, compiled once.

    A subclass's fields are its own annotations, in order, less the
    ``derived`` ones its ``__post_init__`` sets, which stay out of init,
    repr, equality and hash. ``__init__`` takes the fields positionally
    or by keyword, then calls ``__post_init__``; equality holds within
    one type only; every assignment and deletion raises AttributeError.
    A dataclass would compile six such methods for each class at import.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, derived: tuple[str, ...] = ()) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__annotations__ if name not in derived)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in fields[len(args) :] if name in kwargs)
        if len(args) != len(fields) or kwargs:
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)}")
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class OutcomeSpace(_Record):
    """Finite set of outcome labels with a fixed presentation order."""

    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be unique")


class CredenceFunction(_Record, derived=("masses", "counts", "support", "positive")):
    """One agent's probability mass function on its awareness set.

    The key set of ``pmf`` is the awareness set. An outcome carried with
    mass zero is awareness without weight, which is different from the
    outcome being absent. Masses must be ``int`` or ``Fraction`` values;
    a float, bool or string is rejected.

    Four forms are set when the agent is built. ``masses`` is each mass
    as its coprime integer pair ``(p, q)``, ``q > 0``, in pmf key order,
    so the sign of a mass is the sign of its ``p``. ``counts`` is the pmf
    in integer form, ``(d, {x: n_x})`` with ``pmf[x] == n_x / d`` and
    ``d`` the lcm of the pmf's denominators; the exact checks downstream
    compare these per-agent integers by cross-multiplication, so
    deciding an equality never reduces a fraction. ``support`` is the
    awareness set, every pmf key. ``positive`` is the set of outcomes of
    positive mass, from which the overlap complex is built.

    An agent built by ``_canonical`` has no ``pmf`` until it is first
    read; it is then built from ``masses`` and kept.
    """

    name: str
    pmf: Mapping[str, Fraction]
    masses: dict[str, tuple[int, int]]
    counts: tuple[int, dict[str, int]]
    support: frozenset[str]
    positive: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pmf", dict(self.pmf))
        if not self.pmf:
            raise ValueError(f"agent {self.name}: awareness set is empty")
        for x, v in self.pmf.items():
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise ValueError(
                    f"agent {self.name}: outcome {x!r}: mass {v!r} is not an int or a Fraction"
                )
        masses = {x: (v.numerator, v.denominator) for x, v in self.pmf.items()}
        if any(p < 0 for p, _ in masses.values()):
            raise ValueError(f"agent {self.name}: negative mass")
        counts = common_denominator(masses)
        error = _sum_error(self.name, counts)
        if error is not None:
            raise ValueError(error)
        self._set_forms(masses, counts)

    @classmethod
    def _canonical(
        cls, name: str, masses: dict[str, tuple[int, int]], counts: tuple[int, dict[str, int]]
    ) -> CredenceFunction:
        """An agent from masses the caller guarantees valid, built without checks.

        The caller guarantees every rule ``__post_init__`` checks: a
        nonempty dict of coprime integer pairs ``(p, q)`` with ``p >= 0``
        and ``q > 0``, summing to 1. It also guarantees that ``counts``
        is exactly ``common_denominator(masses)``.
        """
        agent = object.__new__(cls)
        object.__setattr__(agent, "name", name)
        agent._set_forms(masses, counts)
        return agent

    def __getattr__(self, name: str) -> dict[str, Fraction]:
        # Runs only while an attribute is missing: the pmf of a _canonical agent, until first read.
        if name != "pmf":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        pmf = {x: Fraction(p, q) for x, (p, q) in self.masses.items()}
        object.__setattr__(self, "pmf", pmf)
        return pmf

    def _set_forms(
        self, masses: dict[str, tuple[int, int]], counts: tuple[int, dict[str, int]]
    ) -> None:
        """Set ``masses`` and ``counts``, and ``support`` and ``positive`` read off them."""
        support = frozenset(masses)
        n = counts[1]
        positive = frozenset([x for x, c in n.items() if c]) if 0 in n.values() else support
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "positive", positive)


def _sum_error(name: str, counts: tuple[int, dict[str, int]]) -> str | None:
    """The error line for an agent whose counts do not sum to their denominator, else None."""
    d, n = counts
    total = sum(n.values())
    if total == d:
        return None
    return f"pmf sum != 1 for agent {name} (sum {format_rational(Fraction(total, d))})"


# The outcomes two agents i < j share, sorted by label, then M_i and M_j:
# each agent's integer counts summed over them, so that agent k gives the
# overlap mass M_k / d_k over its own denominator d_k (``counts``).
Overlap = tuple[tuple[str, ...], int, int]


class AgentSystem(_Record):
    """Validated collection of agents over a shared outcome space.

    The order of ``agents`` induces the total order used for simplex
    orientations downstream, so it is part of the system's identity.
    """

    space: OutcomeSpace
    agents: tuple[CredenceFunction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        if not self.agents:
            raise ValueError("a system needs at least one agent")
        names = [a.name for a in self.agents]
        if len(set(names)) != len(names):
            raise ValueError("agent names must be unique")
        known = set(self.space.outcomes)
        for agent in self.agents:
            stray = agent.support - known
            if stray:
                raise ValueError(f"agent {agent.name}: unknown outcomes {sorted(stray)}")

    @classmethod
    def _canonical(cls, space: OutcomeSpace, agents: tuple[CredenceFunction, ...]) -> AgentSystem:
        """A system from agents the caller guarantees valid, built without checks.

        The caller guarantees every rule ``__post_init__`` checks:
        ``agents`` is a nonempty tuple with unique names, and every
        agent's awareness set lies in ``space``.
        """
        system = object.__new__(cls)
        object.__setattr__(system, "space", space)
        object.__setattr__(system, "agents", agents)
        return system

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.agents)

    @cached_property
    def overlaps(self) -> dict[tuple[int, int], Overlap]:
        """Every pair of agents (i, j), i < j, that shares an outcome, in canonical order.

        Built in one pass over an outcome -> (agent, count) index, outcomes
        taken in label order: each pair's shared outcomes arrive sorted and
        its two integer sums M_i, M_j of ``Overlap`` run alongside, so the
        cost follows the number of (pair, shared outcome) incidences, not
        the number of pairs, and no fraction is reduced. The pairwise scan,
        the overlap complex and the ratio cochain all read this one table,
        the sign of a mass being the sign of its M.
        """
        aware: dict[str, list[tuple[int, int]]] = {}
        for i, agent in enumerate(self.agents):
            for x, c in agent.counts[1].items():
                aware.setdefault(x, []).append((i, c))
        running: dict[tuple[int, int], list] = {}
        for x in sorted(aware):
            holders = aware[x]
            for a, (i, c_i) in enumerate(holders):
                for j, c_j in holders[a + 1 :]:
                    entry = running.get((i, j))
                    if entry is None:
                        running[(i, j)] = [[x], c_i, c_j]
                    else:
                        entry[0].append(x)
                        entry[1] += c_i
                        entry[2] += c_j
        return {pair: (tuple(xs), m_i, m_j) for pair, (xs, m_i, m_j) in sorted(running.items())}

    def union_support(self) -> frozenset[str]:
        out: set[str] = set()
        for a in self.agents:
            out |= a.support
        return frozenset(out)


def validate(raw: object) -> AgentSystem:
    """Check a raw (JSON-shaped) description and build the system.

    All structural violations are collected into a single
    ValidationError so the caller sees every problem at once, each line
    naming the agent, the outcome involved, and the rule broken.

    Every rule of the ``CredenceFunction`` and ``AgentSystem``
    constructors is checked here, on the raw input, so the system is
    built through their ``_canonical`` forms and checked only once:
    each agent's masses are a nonempty dict of non-negative coprime
    pairs summing to 1 (its counts, the lcm of their ``q``s, come from
    the sum check), agent names are unique, and every outcome an agent
    names is in the outcome space. No mass becomes a ``Fraction``.
    """
    if not isinstance(raw, Mapping):
        raise ValidationError(["system description must be a JSON object"])
    violations: list[str] = []

    outcomes_raw = raw.get("outcomes")
    outcomes: list[str] = []
    if not isinstance(outcomes_raw, (list, tuple)):
        violations.append("'outcomes' must be a list of labels")
    else:
        seen: set[str] = set()
        for x in outcomes_raw:
            if not isinstance(x, str):
                violations.append(f"outcome label {x!r} is not a string")
            elif x in seen:
                violations.append(f"duplicate outcome label {x!r}")
            else:
                seen.add(x)
                outcomes.append(x)

    agents_raw = raw.get("agents")
    if not isinstance(agents_raw, (list, tuple)) or not agents_raw:
        violations.append("'agents' must be a nonempty list")
        agents_raw = []

    agents: list[CredenceFunction] = []
    seen_names: set[str] = set()
    known = set(outcomes)
    for position, entry in enumerate(agents_raw):
        if not isinstance(entry, Mapping):
            violations.append(f"agent #{position}: entry must be an object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            violations.append(f"agent #{position}: missing or invalid name")
            continue
        if name in seen_names:
            violations.append(f"duplicate agent name {name!r}")
            continue
        seen_names.add(name)
        table = entry.get("credence")
        if not isinstance(table, Mapping) or not table:
            violations.append(f"agent {name}: 'credence' must be a nonempty mapping")
            continue
        masses: dict[str, tuple[int, int]] = {}
        ok = True
        for outcome, value in table.items():
            if outcome not in known:
                violations.append(f"agent {name}: outcome {outcome!r} is not in the outcome space")
                ok = False
                continue
            try:
                p, q = _rational_pair(value)
            except (TypeError, ValueError) as exc:
                violations.append(f"agent {name}: outcome {outcome!r}: {exc}")
                ok = False
                continue
            if p < 0:
                violations.append(
                    f"agent {name}: outcome {outcome!r} has negative mass {_format_pair(p, q)}"
                )
                ok = False
                continue
            masses[outcome] = (p, q)
        if ok:
            counts = common_denominator(masses)
            error = _sum_error(name, counts)
            if error is None:
                agents.append(CredenceFunction._canonical(name, masses, counts))
            else:
                violations.append(error)

    if violations:
        raise ValidationError(violations)
    return AgentSystem._canonical(OutcomeSpace(tuple(outcomes)), tuple(agents))

