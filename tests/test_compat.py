from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from urprior import cli, compat
from urprior.compat import (
    Asymmetry,
    Certificate,
    CycleCertificate,
    RatioCochain,
    Violation,
    decide_urprior,
    glue_urprior,
    pairwise_compatibility,
    ratio_cochain,
    solve_scaling,
    verify_urprior,
    _decide,
    _result,
    _star_units,
)
from urprior.complexes import build_overlap_complex, from_facets
from urprior.credence import AgentSystem, CredenceFunction, OutcomeSpace, validate
from urprior.oracle import feasibility_oracle
from urprior.witness import generate_counterexample

from .generators import (
    annulus,
    conditioned_system,
    differential_systems,
    holonomy_from_pmfs,
    hub_system,
    random_system,
    seeded_systems,
)


class TestPairwise:
    def test_compatible_family(self, ex1):
        report = pairwise_compatibility(ex1)
        assert report.compatible
        assert report.violations == ()
        assert report.asymmetries == ()

    def test_single_violation_with_exact_conditionals(self, ex3):
        report = pairwise_compatibility(ex3)
        assert not report.compatible
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v == Violation(
            pair=("3", "4"),
            outcome="bismuth",
            conditional_left=Fraction(2, 5),
            conditional_right=Fraction(9, 13),
        )

    def test_cycle_family_is_pairwise_clean(self, ex2):
        # every pair agrees on its overlap; the obstruction lives one
        # level up, in the loop around the missing triangle
        report = pairwise_compatibility(ex2)
        assert report.compatible

    def test_null_overlap_asymmetry(self, gap):
        report = pairwise_compatibility(gap)
        assert report.compatible
        assert len(report.asymmetries) == 1
        a = report.asymmetries[0]
        assert a.pair == ("1", "2")
        assert (a.overlap_mass_left, a.overlap_mass_right) == (Fraction(0), Fraction(1, 2))

    def test_disjoint_agents_have_nothing_to_disagree_on(self):
        system = validate(
            {
                "outcomes": ["a", "b"],
                "agents": [
                    {"name": "1", "credence": {"a": "1"}},
                    {"name": "2", "credence": {"b": "1"}},
                ],
            }
        )
        report = pairwise_compatibility(system)
        assert report.compatible
        assert report.asymmetries == ()

    @pytest.mark.parametrize("zero_side", [0, 1])
    def test_zero_mass_awareness_on_one_side(self, zero_side):
        # one agent is aware of "a" but gives it mass 0, the other puts all
        # its mass there: an asymmetry, no edge, and no ur-prior
        pmfs = [{"a": 0, "b": 1}, {"a": 1}]
        if zero_side:
            pmfs.reverse()
        agents = tuple(CredenceFunction(str(k + 1), pmf) for k, pmf in enumerate(pmfs))
        system = AgentSystem(OutcomeSpace(("a", "b")), agents)
        report = pairwise_compatibility(system)
        masses = (Fraction(0), Fraction(1)) if zero_side == 0 else (Fraction(1), Fraction(0))
        assert report.compatible
        assert report.asymmetries == (Asymmetry(("1", "2"), *masses),)
        assert build_overlap_complex(system).counts() == [2]
        result = decide_urprior(system)
        assert result.verdict == "none"
        assert result.certificate == report.asymmetries[0]
        assert feasibility_oracle(system) is None


class TestRatioCochain:
    def test_ex1_ratios(self, ex1):
        r = ratio_cochain(ex1)
        assert r.ratios[(0, 1)] == Fraction(5, 4)
        assert r.ratios[(0, 2)] == Fraction(5, 8)
        assert r.ratios[(1, 2)] == Fraction(1, 2)

    def test_ex2_ratios(self, ex2):
        r = ratio_cochain(ex2)
        assert r.ratios[(0, 1)] == Fraction(3, 2)
        assert r.ratios[(1, 2)] == Fraction(3, 2)
        assert r.ratios[(0, 2)] == Fraction(2, 3)

    def test_multiplicative_cocycle_on_triangles(self):
        rng = random.Random(41)
        found_triangle = False
        for _ in range(60):
            system = conditioned_system(rng)
            X = build_overlap_complex(system, max_dim=2)
            r = ratio_cochain(system)
            for (i, j, k) in X.simplices(2):
                found_triangle = True
                assert r.ratios[(i, j)] * r.ratios[(j, k)] == r.ratios[(i, k)]
        assert found_triangle

    def test_built_cochains_pass_the_public_checks(self):
        # the cochain ratio_cochain builds passes the public constructor's checks again
        for system in seeded_systems():
            r = ratio_cochain(system)
            assert RatioCochain(r.complex, r.ratios) == r
            assert all(type(v) is Fraction for v in r.ratios.values())

    def test_edges_are_the_two_sided_overlaps(self):
        # the cochain's complex is the depth-1 overlap complex: an edge for
        # each pair that both weight their overlap positively, and no other
        for system in seeded_systems():
            r = ratio_cochain(system)
            two_sided = {e for e, (_, left, right) in system.overlaps.items() if left > 0 and right > 0}
            assert set(r.complex.simplices(1)) == set(r.ratios) == two_sided
            assert r.complex == build_overlap_complex(system, max_dim=1)

    @pytest.mark.parametrize("ratio", [0, -1, Fraction(-1, 2)])
    def test_rejects_nonpositive_ratios(self, ratio):
        X = from_facets(("1", "2"), [("1", "2")])
        assert RatioCochain(X, {(0, 1): 2}).ratios == {(0, 1): Fraction(2)}
        with pytest.raises(ValueError, match="strictly positive"):
            RatioCochain(X, {(0, 1): ratio})


class TestSolveScaling:
    def test_ex1_scaling(self, ex1):
        scaling, cert = solve_scaling(ratio_cochain(ex1))
        assert cert is None
        assert scaling == {"1": Fraction(1), "2": Fraction(5, 4), "3": Fraction(5, 8)}

    def test_ex2_cycle_certificate(self, ex2):
        scaling, cert = solve_scaling(ratio_cochain(ex2))
        assert scaling is None
        assert cert == CycleCertificate(
            cycle=("1", "2", "3"),
            holonomy=Fraction(27, 8),
            breaking_edge=("2", "3"),
        )

    def test_certificate_holonomy_recomputes_from_pmfs(self, ex2):
        _, cert = solve_scaling(ratio_cochain(ex2))
        assert holonomy_from_pmfs(ex2, cert.cycle) == cert.holonomy
        assert cert.holonomy != 1

    def test_gauge_freedom(self, ex1):
        # scaling factors are only fixed per component up to a global
        # constant; any positive rescale still glues to the same prior
        scaling, _ = solve_scaling(ratio_cochain(ex1))
        direct = glue_urprior(ex1, scaling)
        rescaled = {name: Fraction(7, 3) * lam for name, lam in scaling.items()}
        assert glue_urprior(ex1, rescaled) == direct

    def test_disconnected_forest(self):
        system = validate(
            {
                "outcomes": ["a", "b", "c", "d"],
                "agents": [
                    {"name": "1", "credence": {"a": "1/2", "b": "1/2"}},
                    {"name": "2", "credence": {"c": "1/2", "d": "1/2"}},
                ],
            }
        )
        scaling, cert = solve_scaling(ratio_cochain(system))
        assert cert is None
        assert scaling == {"1": Fraction(1), "2": Fraction(1)}


class TestGlueAndVerify:
    EX1_PRIOR = {
        "gold": Fraction(1, 27),
        "platinum": Fraction(2, 27),
        "aluminum": Fraction(4, 27),
        "bismuth": Fraction(3, 27),
        "silver": Fraction(4, 27),
        "iron": Fraction(6, 27),
        "copper": Fraction(7, 27),
    }

    def test_ex1_golden_table(self, ex1):
        scaling, _ = solve_scaling(ratio_cochain(ex1))
        measure = glue_urprior(ex1, scaling)
        assert measure == self.EX1_PRIOR

    def test_keys_follow_outcome_space_order(self, ex1):
        scaling, _ = solve_scaling(ratio_cochain(ex1))
        measure = glue_urprior(ex1, scaling)
        order = {label: i for i, label in enumerate(ex1.space.outcomes)}
        keys = list(measure)
        assert keys == sorted(keys, key=order.__getitem__)

    def test_verify_accepts_golden(self, ex1):
        report = verify_urprior(ex1, self.EX1_PRIOR)
        assert report.ok
        assert len(report.diagnostics) == len(ex1.agents)

    def test_verify_rejects_wrong_mass(self, ex1):
        broken = dict(self.EX1_PRIOR)
        broken["gold"], broken["copper"] = broken["copper"], broken["gold"]
        report = verify_urprior(ex1, broken)
        assert not report.ok

    def test_verify_rejects_unnormalized(self, ex1):
        broken = {k: v * 2 for k, v in self.EX1_PRIOR.items()}
        assert not verify_urprior(ex1, broken).ok

    def test_verify_rejects_stray_support(self, ex1):
        assert not verify_urprior(ex1, {"nonsense": Fraction(1)}).ok

    @pytest.mark.parametrize(
        "measure", [{"a": 0.5, "b": 0.5}, {"a": "1/2", "b": "1/2"}, {"a": True, "b": False}]
    )
    def test_verify_rejects_inexact_values(self, measure):
        # a float or string would otherwise be converted, and a bool read as 0 or 1
        halves = validate(
            {"outcomes": ["a", "b"], "agents": [{"name": "1", "credence": {"a": "1/2", "b": "1/2"}}]}
        )
        with pytest.raises(ValueError, match="outcome 'a': mass .* is not an int or a Fraction"):
            verify_urprior(halves, measure)

    def test_glue_requires_positive_factors(self, ex1):
        for factor in (Fraction(0), True, 0.5, "1"):
            with pytest.raises(ValueError, match="scaling must assign a positive factor to agent"):
                glue_urprior(ex1, {name: factor for name in ex1.names})


class TestDecide:
    def test_ex1_exists(self, ex1):
        result = decide_urprior(ex1)
        assert result.verdict == "exists"
        assert result.certificate is None
        assert verify_urprior(ex1, result.measure).ok

    def test_ex2_cycle(self, ex2):
        result = decide_urprior(ex2)
        assert result.verdict == "none"
        assert result.measure is None
        assert isinstance(result.certificate, CycleCertificate)

    def test_ex3_violation(self, ex3):
        result = decide_urprior(ex3)
        assert result.verdict == "none"
        assert isinstance(result.certificate, Violation)

    def test_ex4_exists_with_extended_table(self, ex4):
        result = decide_urprior(ex4)
        assert result.verdict == "exists"
        assert result.measure["gold"] == Fraction(1, 27)
        assert result.measure["copper"] == Fraction(7, 27)

    def test_gap_asymmetry_blocks(self, gap):
        result = decide_urprior(gap)
        assert result.verdict == "none"
        assert result.certificate == pairwise_compatibility(gap).asymmetries[0]

    def test_every_certificate_is_a_certificate(self, ex1, ex2, ex3, gap):
        kinds = [type(decide_urprior(system).certificate) for system in (ex2, ex3, gap)]
        assert kinds == [CycleCertificate, Violation, Asymmetry]
        for system in (ex2, ex3, gap):
            assert isinstance(decide_urprior(system).certificate, Certificate)
        assert not isinstance(decide_urprior(ex1).measure, Certificate)

    def test_single_agent(self):
        system = validate(
            {
                "outcomes": ["a", "b"],
                "agents": [{"name": "solo", "credence": {"a": "1/3", "b": "2/3"}}],
            }
        )
        result = decide_urprior(system)
        assert result.verdict == "exists"
        assert result.measure == {"a": Fraction(1, 3), "b": Fraction(2, 3)}

    def test_two_components_each_get_sector_mass_one_before_normalizing(self, tmp_path, capsys):
        # every component's root starts at scale 1, so each of the two
        # agents' awareness sets gets half of the glued measure
        raw = {
            "outcomes": ["a", "b", "c", "d"],
            "agents": [
                {"name": "1", "credence": {"a": "1/2", "b": "1/2"}},
                {"name": "2", "credence": {"c": "1/3", "d": "2/3"}},
            ],
        }
        result = decide_urprior(validate(raw))
        expected = {"a": Fraction(1, 4), "b": Fraction(1, 4), "c": Fraction(1, 6), "d": Fraction(1, 3)}
        assert result.verdict == "exists" and result.measure == expected
        path = tmp_path / "two.json"
        path.write_text(json.dumps(raw))
        printed = []
        for command in ("check", "oracle"):
            assert cli.main([command, str(path), "--json"]) == 0
            printed.append(json.loads(capsys.readouterr().out)["ur_prior"])
        assert printed[0] == printed[1] == {"a": "1/4", "b": "1/4", "c": "1/6", "d": "1/3"}

    def test_verdicts_on_random_systems(self):
        rng = random.Random(42)
        exists = none = 0
        for _ in range(60):
            system = random_system(rng)
            result = decide_urprior(system)
            if result.verdict == "exists":
                exists += 1
                assert verify_urprior(system, result.measure).ok
            else:
                none += 1
                assert result.certificate is not None
        assert exists > 0 and none > 0


def _pairwise_decide(system: AgentSystem):
    """decide_urprior as it reads without the star path: the pairwise report and the complex."""
    report = pairwise_compatibility(system)
    return _result(system, _decide(system, report, build_overlap_complex(system, max_dim=1)))


class TestStarPath:
    def test_equals_the_pairwise_decision(self, data_dir, monkeypatch):
        systems = differential_systems(data_dir, hubs=(5, 60, 300))
        expected = [_pairwise_decide(system) for system in systems]
        starred = [
            all(agent.positive == agent.support for agent in system.agents)
            and result.verdict == "exists"
            for system, result in zip(systems, expected)
        ]

        def forbidden(system):
            raise AssertionError("the star path fell back to the pairwise scan")

        for system, result, star in zip(systems, expected, starred):
            if not star:
                assert repr(decide_urprior(system)) == repr(result)
        # every feasible system without a zero mass is decided on star links alone
        monkeypatch.setattr(compat, "pairwise_compatibility", forbidden)
        monkeypatch.setattr(compat, "build_overlap_complex", forbidden)
        for system, result, star in zip(systems, expected, starred):
            if star:
                assert repr(decide_urprior(system)) == repr(result)
        assert sum(starred) > 1000

    def test_the_yes_path_builds_no_overlap_table(self):
        system = hub_system(random.Random(5), 50)[0]
        assert decide_urprior(system).verdict == "exists"
        assert "overlaps" not in vars(system)

    def test_a_zero_mass_takes_the_pairwise_path(self):
        system = validate(
            {
                "outcomes": ["a", "b", "c"],
                "agents": [
                    {"name": "1", "credence": {"a": "1/2", "b": "1/2", "c": "0"}},
                    {"name": "2", "credence": {"b": "1/3", "c": "2/3"}},
                ],
            }
        )
        assert _star_units(system) is None
        assert decide_urprior(system) == _pairwise_decide(system)

    def test_a_failing_star_link_falls_back_to_the_cycle_certificate(self, c4, c5):
        # a counterexample weights every outcome it names, so a failing
        # link, not a zero mass, declines the star walk
        for X in (c4, c5, annulus(random.Random(6), 6)):
            system = generate_counterexample(X)
            assert all(agent.positive == agent.support for agent in system.agents)
            assert _star_units(system) is None
            result = decide_urprior(system)
            assert result.verdict == "none"
            assert isinstance(result.certificate, CycleCertificate)
            assert result == _pairwise_decide(system)
