"""Output checks that do not trust the code under test.

Everything here recomputes from the raw pmfs with plain ``Fraction``
arithmetic and never imports urprior. A check returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import Any, Iterable, Mapping

Pmfs = dict[str, dict[str, Fraction]]

_RATIONAL = re.compile(r"-?\d+(/\d+)?")


class CheckFailed(AssertionError):
    """An op's output disagreed with what the benchmark knows or recomputes."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def pmfs_of(raw: Mapping[str, Any]) -> Pmfs:
    """Agent name -> pmf, parsed from a JSON-shaped system."""
    return {a["name"]: {x: Fraction(v) for x, v in a["credence"].items()} for a in raw["agents"]}


def measure_of(table: Mapping[str, str]) -> dict[str, Fraction]:
    return {x: Fraction(v) for x, v in table.items()}


def mass(pmf: Mapping[str, Fraction], event: Iterable[str]) -> Fraction:
    return sum((pmf[x] for x in event if x in pmf), start=Fraction(0))


def conditioning_error(pmfs: Pmfs, measure: Mapping[str, Fraction]) -> str | None:
    """Why conditioning ``measure`` on each awareness set fails to recover its agent, or None.

    The same criterion as the library's verifier: nonnegative, total 1,
    no mass outside the union, and for every agent a positive sector
    mass s with measure(x) == pmf(x) * s on each aware outcome.
    """
    if any(v < 0 for v in measure.values()):
        return "negative mass"
    if sum(measure.values(), start=Fraction(0)) != 1:
        return "total mass is not 1"
    union = set().union(*(set(p) for p in pmfs.values()))
    if any(v != 0 and x not in union for x, v in measure.items()):
        return "mass outside every awareness set"
    for name, pmf in pmfs.items():
        sector = mass(measure, pmf)
        if sector <= 0:
            return f"agent {name}: awareness set carries zero mass"
        for x, p in pmf.items():
            if measure.get(x, Fraction(0)) != p * sector:
                return f"agent {name}: conditional of {x!r} is off"
    return None


def holonomy(pmfs: Pmfs, cycle: list[str]) -> Fraction:
    """Product of overlap-mass ratios around a cycle of agents."""
    product = Fraction(1)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        shared = set(pmfs[u]) & set(pmfs[v])
        product *= mass(pmfs[u], shared) / mass(pmfs[v], shared)
    return product


def overlap_simplices(pmfs: Pmfs, max_dim: int) -> set[frozenset[str]]:
    """Agent groups (up to max_dim+1 members) whose joint overlap every member weights.

    Grown level by level: a group is tried only when all of its
    one-smaller subgroups qualified.
    """
    names = sorted(pmfs)
    level = {frozenset([n]) for n in names}
    out = set(level)
    for size in range(2, max_dim + 2):
        nxt = set()
        for group in level:
            for n in names:
                if n in group:
                    continue
                cand = group | {n}
                if cand in nxt or any(cand - {m} not in level for m in cand):
                    continue
                shared = set.intersection(*(set(pmfs[m]) for m in cand))
                if shared and all(mass(pmfs[m], shared) > 0 for m in cand):
                    nxt.add(cand)
        if not nxt:
            break
        out |= nxt
        level = nxt
    return out


def facet_simplices(vertices: list[str], facets: list[list[str]]) -> set[frozenset[str]]:
    """Every nonempty face of every facet, plus the vertices."""
    out = {frozenset([v]) for v in vertices}
    for facet in facets:
        for size in range(1, len(facet) + 1):
            out.update(frozenset(c) for c in combinations(facet, size))
    return out


def certificate_error(pmfs: Pmfs, cert: Mapping[str, Any]) -> str | None:
    """Why a reported no-prior certificate does not hold on the pmfs, or None."""
    kind = cert.get("kind")
    if kind == "pairwise_violation":
        a, b = cert["pair"]
        x = cert["outcome"]
        shared = set(pmfs[a]) & set(pmfs[b])
        ma, mb = mass(pmfs[a], shared), mass(pmfs[b], shared)
        if x not in shared or ma <= 0 or mb <= 0:
            return "violation on a pair without a two-sided positive overlap"
        left, right = pmfs[a][x] / ma, pmfs[b][x] / mb
        if (Fraction(cert["conditional_left"]), Fraction(cert["conditional_right"])) != (left, right):
            return "reported conditionals differ from the recomputed ones"
        return "conditionals agree, so there is no violation" if left == right else None
    if kind == "null_overlap_asymmetry":
        a, b = cert["pair"]
        shared = set(pmfs[a]) & set(pmfs[b])
        ma, mb = mass(pmfs[a], shared), mass(pmfs[b], shared)
        if (Fraction(cert["overlap_mass_left"]), Fraction(cert["overlap_mass_right"])) != (ma, mb):
            return "reported overlap masses differ from the recomputed ones"
        return None if shared and (ma > 0) != (mb > 0) else "overlap is not one-sided"
    if kind == "cycle_holonomy":
        cycle = list(cert["cycle"])
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            shared = set(pmfs[u]) & set(pmfs[v])
            if not (mass(pmfs[u], shared) > 0 and mass(pmfs[v], shared) > 0):
                return f"cycle step {u}-{v} is not an edge of the overlap complex"
        h = holonomy(pmfs, cycle)
        if Fraction(cert["holonomy"]) != h:
            return "reported holonomy differs from the recomputed one"
        return "holonomy is 1, so the cycle is no obstruction" if h == 1 else None
    return f"unknown certificate kind {kind!r}"


def max_bits(value: Any) -> int:
    """Largest numerator or denominator bit length among the rationals in a JSON value.

    Strings that read as integers or "p/q" count as rationals, as do
    Fraction objects.
    """
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value):
            return max(int(part).bit_length() for part in value.lstrip("-").split("/"))
        return 0
    if isinstance(value, Mapping):
        return max((max_bits(v) for v in value.values()), default=0)
    if isinstance(value, (list, tuple)):
        return max((max_bits(v) for v in value), default=0)
    return 0
