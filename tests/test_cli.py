from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from urprior import cli, compat, complexes
from urprior.cohomology import cohomology_dim
from urprior.witness import generate_counterexample

from . import overlap_reference
from .generators import (
    annulus,
    differential_systems,
    geometric_chain,
    hub_system,
    random_complex,
    seeded_systems,
    window_chain,
)
from .test_cohomology import counts_only_through_the_next_degree
from .test_compat import _pairwise_decide

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestCheck:
    def test_feasible_system_exits_zero(self, data_dir, capsys):
        code, report, _ = run_json(capsys, "check", str(data_dir / "ex1.json"), "--json")
        assert code == 0
        assert report["valid"] is True
        assert report["verdict"] == "exists"
        assert report["pairwise"]["compatible"] is True
        assert report["complex"]["counts"] == [3, 3, 1]
        assert report["h1"] == 0
        assert report["components"] == 1
        assert report["certificate"] is None
        prior = {k: Fraction(v) for k, v in report["ur_prior"].items()}
        assert prior["gold"] == Fraction(1, 27)
        assert prior["copper"] == Fraction(7, 27)
        assert sum(prior.values()) == 1

    def test_cycle_obstruction_exits_one(self, data_dir, capsys):
        code, report, _ = run_json(capsys, "check", str(data_dir / "ex2.json"), "--json")
        assert code == 1
        assert report["verdict"] == "none"
        assert report["ur_prior"] is None
        cert = report["certificate"]
        assert cert["kind"] == "cycle_holonomy"
        assert cert["cycle"] == ["1", "2", "3"]
        assert Fraction(cert["holonomy"]) == Fraction(27, 8)
        assert cert["breaking_edge"] == ["2", "3"]

    def test_violation_certificate(self, data_dir, capsys):
        code, report, _ = run_json(capsys, "check", str(data_dir / "ex3.json"), "--json")
        assert code == 1
        assert report["pairwise"]["compatible"] is False
        violations = report["pairwise"]["violations"]
        assert len(violations) == 1
        v = violations[0]
        assert v["pair"] == ["3", "4"]
        assert v["outcome"] == "bismuth"
        assert Fraction(v["conditional_left"]) == Fraction(2, 5)
        assert Fraction(v["conditional_right"]) == Fraction(9, 13)
        assert report["certificate"]["kind"] == "pairwise_violation"

    def test_asymmetry_certificate(self, data_dir, capsys):
        code, report, _ = run_json(capsys, "check", str(data_dir / "gap.json"), "--json")
        assert code == 1
        cert = report["certificate"]
        assert cert["kind"] == "null_overlap_asymmetry"
        assert cert["pair"] == ["1", "2"]

    def test_text_output_mentions_verdict(self, data_dir, capsys):
        code, out, _ = run(capsys, "check", str(data_dir / "ex1.json"))
        assert code == 0
        assert "verdict: ur-prior exists" in out
        assert "H1 = 0" in out
        code, out, _ = run(capsys, "check", str(data_dir / "ex2.json"))
        assert code == 1
        assert "verdict: no ur-prior" in out
        assert "27/8" in out

    def test_disconnected_skeleton_note(self, tmp_path, capsys):
        path = tmp_path / "disjoint.json"
        agents = [{"name": "1", "credence": {"a": "1"}}, {"name": "2", "credence": {"b": "1"}}]
        path.write_text(json.dumps({"outcomes": ["a", "b"], "agents": agents}))
        code, out, err = run(capsys, "check", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[-5:] == [
            "verdict: ur-prior exists",
            "ur-prior:",
            "  a = 1/2",
            "  b = 1/2",
            "note: the overlap skeleton is disconnected, so the relative mass "
            "between components is one valid choice among many",
        ]
        assert "components: 2" in out.splitlines()

    def test_output_is_deterministic(self, data_dir, capsys):
        _, first, _ = run(capsys, "check", str(data_dir / "ex1.json"), "--json")
        _, second, _ = run(capsys, "check", str(data_dir / "ex1.json"), "--json")
        assert first == second

    def test_invalid_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"outcomes": ["a"], "agents": [{"name": "1", "credence": {"a": "1/2"}}]}')
        code, report, _ = run_json(capsys, "check", str(bad), "--json")
        assert code == 2
        assert report["valid"] is False
        assert any("sum" in e for e in report["errors"])

    def test_unparseable_json_exits_two(self, tmp_path, capsys):
        # broken syntax, bytes that are not UTF-8, and nesting past the
        # recursion limit: each is a one-line input error, never exit 3
        unreadable = {
            "broken.json": b"{nope",
            "utf16.json": b"\xff\xfe{}",
            "deep.json": b"[" * 100_000 + b"]" * 100_000,
        }
        for name, content in unreadable.items():
            bad = tmp_path / name
            bad.write_bytes(content)
            for command in ("check", "cohomology", "counterexample", "oracle"):
                code, out, err = run(capsys, command, str(bad))
                assert code == 2, (name, command, err)
                assert out == ""
                assert err.count("\n") == 1 and str(bad) in err
                assert not err.startswith("internal error"), (name, command, err)

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
        assert code == 2
        assert err


class TestCohomology:
    def test_complex_file_h1(self, data_dir, capsys):
        code, out, _ = run(capsys, "cohomology", str(data_dir / "tri_unfilled.json"), "--dim", "1")
        assert code == 0
        assert "H1 = 1" in out
        assert "cocycles 3" in out
        assert "coboundaries 2" in out

    def test_system_file_h2(self, data_dir, capsys):
        code, out, _ = run(capsys, "cohomology", str(data_dir / "ex4.json"), "--dim", "2")
        assert code == 0
        assert "H2 = 1" in out
        assert "X0=4" in out and "X1=6" in out and "X2=4" in out

    def test_json_payload(self, data_dir, capsys):
        code, report, _ = run_json(
            capsys, "cohomology", str(data_dir / "tri_unfilled.json"), "--dim", "1", "--json"
        )
        assert code == 0
        assert report["h"] == 1
        assert report["dim"] == 1
        assert report["cocycles"] == 3
        assert report["coboundaries"] == 2

    def test_dump_matrices(self, data_dir, capsys):
        code, out, _ = run(
            capsys, "cohomology", str(data_dir / "tri_filled.json"), "--dim", "1", "--dump-matrices"
        )
        assert code == 0
        assert "delta_0" in out and "delta_1" in out
        assert "1,2,3" in out
        assert "2-simplices" in out

    def test_golden_outputs(self, data_dir, capsys):
        # text, --json and --dump-matrices at dims 1 and 2 on every data file,
        # recorded before the dense coboundary matrices left the library
        golden = json.loads((GOLDEN / "cohomology.json").read_text())
        assert sorted(golden) == [p.name for p in sorted(data_dir.glob("*.json"))]
        for name, variants in golden.items():
            for flags, expected in variants.items():
                code, out, err = run(capsys, "cohomology", str(data_dir / name), *flags.split())
                assert {"exit": code, "stdout": out, "stderr": err} == expected, (name, flags)

    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    def test_system_file_is_listed_through_the_next_degree(self, data_dir, tmp_path, capsys, depth):
        # delta_k is read off the (k+1)-simplices, so --dim k lists a
        # system's overlap complex through depth k + 1, and no shallower;
        # the data files stop at depth 2, a 7-agent hub is the full simplex
        systems = [p for p in sorted(data_dir.glob("*.json")) if '"agents"' in p.read_text()]
        assert len(systems) == 5
        hub = tmp_path / "hub-7.json"
        hub.write_text(json.dumps(cli.system_to_dict(hub_system(random.Random(7), 7)[0])))
        for path in systems + [hub]:
            system = cli.load_system(str(path))
            expected = overlap_reference.build_overlap_complex(system, max_dim=depth).counts()
            code, report, _ = run_json(capsys, "cohomology", str(path), "--dim", str(depth - 1), "--json")
            assert code == 0
            assert report["counts"] == expected, (path.name, depth)

    @pytest.mark.parametrize("name", ["c4.json", "ex1.json"])
    def test_file_is_read_once(self, data_dir, capsys, monkeypatch, name):
        # cohomology parses the file once to tell a complex file from a
        # system file, then builds from that one parsed object
        calls = []
        load = cli._load_json

        def counting(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(cli, "_load_json", counting)
        path = str(data_dir / name)
        code, _, _ = run(capsys, "cohomology", path)
        assert code == 0
        assert calls == [path]

    @pytest.mark.parametrize("name", ["c4.json", "ex1.json"])
    def test_a_degree_far_past_the_dimension_is_answered_at_once(self, data_dir, capsys, monkeypatch, name):
        # c4 is listed, ex1 counted: neither takes a count past dim + 1, so
        # --dim 10^9 costs what --dim 1 does, where a list of 10^9 counts
        # would not fit in memory
        counts_only_through_the_next_degree(monkeypatch)
        path = str(data_dir / name)
        k = 10**9
        code, report, err = run_json(capsys, "cohomology", path, "--dim", str(k), "--json")
        assert (code, err) == (0, "")
        assert report == {
            "counts": run_json(capsys, "cohomology", path, "--json")[1]["counts"],
            "dim": k,
            "ranks": {f"delta_{k - 1}": 0, f"delta_{k}": 0},
            "cocycles": 0,
            "coboundaries": 0,
            "h": 0,
        }

    def test_invalid_system_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"outcomes": ["a"], "agents": [{"name": "1", "credence": {"a": "1/2"}}]}')
        code, out, err = run(capsys, "cohomology", str(path))
        assert (code, out) == (2, "")
        assert err == "invalid system file: pmf sum != 1 for agent 1 (sum 1/2)\n"

    def test_file_of_both_kinds_or_neither_exits_two(self, tmp_path, capsys):
        # agents and facets together are ambiguous: rejected, not read as either
        system = {"outcomes": ["a"], "agents": [{"name": "1", "credence": {"a": "1"}}]}
        cases = [
            ({**system, "vertices": ["1"], "facets": [["1"]]}, "both a system file (agents) and a complex file (facets)"),
            ({"outcomes": ["a"]}, "neither a system file (agents) nor a complex file (facets)"),
        ]
        for raw, line in cases:
            path = tmp_path / "file.json"
            path.write_text(json.dumps(raw))
            for json_flag in ([], ["--json"]):
                code, out, err = run(capsys, "cohomology", str(path), *json_flag)
                assert (code, out) == (2, "")
                assert err == f"{path}: {line}\n"

    def test_degree_zero_rejected(self, data_dir, capsys):
        code, _, err = run(capsys, "cohomology", str(data_dir / "tri_filled.json"), "--dim", "0")
        assert code == 2
        assert err


class TestCounterexample:
    def test_stdout_payload_round_trips(self, data_dir, capsys):
        from urprior.credence import validate

        code, payload, _ = run_json(capsys, "counterexample", str(data_dir / "tri_unfilled.json"))
        assert code == 0
        system = validate(payload)
        assert system.names == ("1", "2", "3")

    def test_written_file_feeds_check(self, data_dir, tmp_path, capsys):
        out_path = tmp_path / "witness.json"
        code, out, _ = run(
            capsys, "counterexample", str(data_dir / "c4.json"), "--output", str(out_path)
        )
        assert code == 0
        assert str(out_path) in out
        code, report, _ = run_json(capsys, "check", str(out_path), "--json")
        assert code == 1
        assert report["pairwise"]["compatible"] is True
        assert report["h1"] >= 1
        assert report["certificate"]["kind"] == "cycle_holonomy"

    def test_non_object_complex_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text('[["a", "b"]]')
        code, out, err = run(capsys, "counterexample", str(path))
        assert (code, out) == (2, "")
        assert err == f"{path}: complex file must be a JSON object\n"

    def test_unwritable_output_exits_two(self, data_dir, tmp_path, capsys):
        target = tmp_path / "missing" / "system.json"
        source = str(data_dir / "c4.json")
        code, out, err = run(capsys, "counterexample", source, "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot write {target}: ") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_hole_free_complex_exits_one(self, data_dir, capsys):
        code, _, err = run(capsys, "counterexample", str(data_dir / "tri_filled.json"))
        assert code == 1
        assert "no counterexample" in err
        assert "cohomology" in err

    def test_colliding_comma_labels_exit_two(self, tmp_path, capsys):
        # vertex "a,b" and edge {a,b} would both be named "{a,b}"
        path = tmp_path / "comma.json"
        path.write_text(
            '{"vertices": ["a", "b", "c", "d", "a,b"], '
            '"facets": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"], ["a,b"]]}'
        )
        code, out, err = run(capsys, "counterexample", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            f"{path}: outcome label '{{a,b}}' would name two simplices: "
            "a vertex label contains a comma\n"
        )
        code, report, _ = run_json(capsys, "cohomology", str(path), "--json")
        assert code == 0 and report["h"] == 1

    def test_comma_labels_that_do_not_collide_round_trip(self, tmp_path, capsys):
        path = tmp_path / "comma.json"
        path.write_text(
            '{"vertices": ["a,b", "c", "d"], "facets": [["a,b", "c"], ["c", "d"], ["d", "a,b"]]}'
        )
        out_path = tmp_path / "system.json"
        code, _, _ = run(capsys, "counterexample", str(path), "--output", str(out_path))
        assert code == 0
        code, report, _ = run_json(capsys, "check", str(out_path), "--json")
        assert code == 1
        assert report["certificate"]["kind"] == "cycle_holonomy"

    def test_deterministic(self, data_dir, capsys):
        _, first, _ = run(capsys, "counterexample", str(data_dir / "c5.json"))
        _, second, _ = run(capsys, "counterexample", str(data_dir / "c5.json"))
        assert first == second

    def test_golden_outputs(self, data_dir, capsys):
        # the chosen cocycle is the canonical one of noncoboundary_cocycle,
        # twisting the non-tree edges of the spanning forest; it, and so
        # every emitted system, must not change
        golden = json.loads((GOLDEN / "counterexample.json").read_text())
        files = sorted(data_dir.glob("*.json"))
        assert sorted(golden) == [p.name for p in files if "facets" in json.loads(p.read_text())]
        for name, expected in golden.items():
            code, out, err = run(capsys, "counterexample", str(data_dir / name))
            assert {"exit": code, "stdout": out, "stderr": err} == expected, name


def _system_to_dict_reference(system):
    """The file shape, each agent's credences found by scanning the outcome space in order."""
    return {
        "outcomes": list(system.space.outcomes),
        "agents": [
            {
                "name": agent.name,
                "credence": {
                    x: str(Fraction(agent.pmf[x])) for x in system.space.outcomes if x in agent.pmf
                },
            }
            for agent in system.agents
        ],
    }


class TestSystemToDict:
    # json.dumps keeps key order, so equal dumps mean equal keys in equal order
    def test_seeded_systems(self):
        for system in seeded_systems():
            expected = _system_to_dict_reference(system)
            assert json.dumps(cli.system_to_dict(system)) == json.dumps(expected)

    def test_counterexample_systems(self, c4, c5, wedge, tri_unfilled):
        rng = random.Random(64)
        complexes = [c4, c5, wedge, tri_unfilled, annulus(rng, 5)]
        drawn = [random_complex(rng, 12) for _ in range(40)]
        complexes += [X for X in drawn if cohomology_dim(X, 1)]
        for X in complexes:
            system = generate_counterexample(X)
            expected = _system_to_dict_reference(system)
            assert json.dumps(cli.system_to_dict(system)) == json.dumps(expected)


class TestOracle:
    def test_feasible(self, data_dir, capsys):
        code, report, _ = run_json(capsys, "oracle", str(data_dir / "ex1.json"), "--json")
        assert code == 0
        assert report["verdict"] == "exists"
        assert Fraction(report["ur_prior"]["iron"]) == Fraction(6, 27)

    def test_infeasible(self, data_dir, capsys):
        code, report, _ = run_json(capsys, "oracle", str(data_dir / "ex2.json"), "--json")
        assert code == 1
        assert report["verdict"] == "none"
        assert report["ur_prior"] is None

    def test_agrees_with_check_exit_codes(self, data_dir, capsys):
        for name in ("ex1", "ex2", "ex3", "ex4", "gap"):
            path = str(data_dir / f"{name}.json")
            check_code, _, _ = run(capsys, "check", path)
            oracle_code, _, _ = run(capsys, "oracle", path)
            assert check_code == oracle_code


class TestParser:
    def test_no_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


# Non-ASCII (one astral), control characters, quotes and backslashes.
_TEXT = ["", "a", "é", "漢字", "\U0001f600", "\x00", "\x1f", "\x7f", "\n\t\r\b\f", '"', "\\", "/"]


def _text(rng, most):
    return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(most + 1)))


def _random_payload(rng, depth=0):
    """A JSON-able value of the types reports hold, nested up to four deep."""
    kind = rng.randrange(10 if depth < 4 else 5)
    if kind == 0:
        return _text(rng, 3)
    if kind == 1:
        return rng.choice([0, 1, -1, 7]) if rng.random() < 0.5 else rng.randrange(-(10**300), 10**300)
    if kind == 2:
        return rng.choice([True, False, None])
    if kind in (3, 4):
        return rng.choice(["1/2", "0", "gold"])
    children = [_random_payload(rng, depth + 1) for _ in range(rng.choice([0, 0, 1, 2, 5]))]
    if kind in (5, 6, 7):
        return {_text(rng, 2) + str(k): v for k, v in enumerate(children)}
    return tuple(children) if kind == 8 else children


class TestJsonWriter:
    """Reports are the text of ``json.dumps(payload, indent=2)``, whatever writes them."""

    def test_seeded_payloads(self):
        rng = random.Random(15)
        payloads = [_random_payload(rng) for _ in range(600)]
        payloads += [{}, [], (), {"a": {}}, [[]], {"a": [{}, []]}, [(), {"b": ()}], 10**299, -(10**299)]
        assert {type(p) for p in payloads} >= {dict, list, tuple, str, int, bool, type(None)}
        for payload in payloads:
            assert cli._dumps(payload) == json.dumps(payload, indent=2), payload

    def test_every_printed_report(self, data_dir, capsys, monkeypatch):
        # every --json report and counterexample system printed for tests/data
        written = []
        dumps = cli._dumps

        def recording(value, *rest):
            if not rest:
                written.append(value)
            return dumps(value, *rest)

        monkeypatch.setattr(cli, "_dumps", recording)
        for path in sorted(data_dir.glob("*.json")):
            for command, *flags in (["check", "--json"], ["oracle", "--json"], ["cohomology", "--json"]):
                run(capsys, command, str(path), *flags)
            run(capsys, "counterexample", str(path))
        # check and oracle on 5 system files and (invalid) on 6 complex files,
        # cohomology on all 11, and the 4 counterexamples that exist
        assert len(written) == 10 + 12 + 11 + 4
        for payload in written:
            assert dumps(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize("payload", [0.5, {1, 2}, {1: "a"}, {"a": [{None: 1}]}, Fraction(1, 2), b"a"])
    def test_other_types_are_refused(self, payload):
        with pytest.raises(TypeError):
            cli._dumps(payload)


class TestDispatch:
    """A subcommand name goes straight to its own parser, with the outcome of the full parse."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--help"],
            ["frobnicate"],
            ["-h", "check"],
            ["check"],
            ["check", "-h"],
            ["check", "F", "--json", "--extra"],
            ["check", "F", "extra"],
            ["--max-dim", "x"],
            ["check", "F", "--js"],
            ["check", "--json", "F"],
            ["--", "check", "F"],
            ["check", "--", "F"],
            ["check", "F", "--max-dim", "x"],
            ["oracle", "F", "--", "x"],
            ["cohomology", "F", "--dim", "0"],
            ["cohomology", "F", "--dim", "x"],
            ["cohomology", "F", "--dim"],
            ["counterexample", "C", "--output"],
        ],
    )
    def test_same_outcome_as_the_full_parse(self, data_dir, capsys, monkeypatch, argv):
        files = {"F": str(data_dir / "ex1.json"), "C": str(data_dir / "c4.json")}
        argv = [files.get(a, a) for a in argv]
        direct = run_anyhow(capsys, *argv)
        parser, commands = cli._build_parser()
        assert commands  # with no subcommand parsers to hand, main parses everything in full
        monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
        assert run_anyhow(capsys, *argv) == direct

    @pytest.mark.parametrize("command", ["check", "cohomology"])
    @pytest.mark.parametrize("at", [1, 2, 3])
    @pytest.mark.parametrize("option", [["--max-dim", "3"], ["--max-dim=3"]])
    def test_no_option_sets_the_depth(self, data_dir, capsys, monkeypatch, command, at, option):
        # check lists a system's overlap complex to depth 2 and cohomology
        # --dim k to depth k + 1: --max-dim is an unknown option anywhere
        argv = [command, str(data_dir / "ex1.json"), "--json"]
        argv[at:at] = option
        parser, commands = cli._build_parser()
        for route in (commands, {}):  # straight to the subcommand, then the full parse
            monkeypatch.setattr(cli, "_build_parser", lambda: (parser, route))
            code, out, err = run_anyhow(capsys, *argv)
            assert code == 2 and out == ""
            last = err.splitlines()[-1]
            assert err.startswith("usage: urprior ")
            assert last.startswith("urprior: error: unrecognized arguments: ") and "--max-dim" in last


def run_anyhow(capsys, *argv):
    """Like ``run``, but an argparse exit is returned as its code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_alone(capsys, *argv):
    """One call on a freshly built parser, as in a process of its own."""
    cli._build_parser.cache_clear()
    return run_anyhow(capsys, *argv)


class TestRepeatedCalls:
    """``main`` reuses one parser; no call may see what an earlier one parsed."""

    def sequence(self, capsys, *calls):
        alone = [run_alone(capsys, *argv) for argv in calls]
        cli._build_parser.cache_clear()
        in_turn = [run_anyhow(capsys, *argv) for argv in calls]
        assert in_turn == alone
        return in_turn

    def test_check_flags_do_not_carry_over(self, data_dir, capsys):
        path = str(data_dir / "ex1.json")
        results = self.sequence(
            capsys,
            ["check", path],
            ["check", path, "--json"],
            ["check", path, "--max-dim", "3"],
            ["check", path],
        )
        assert results[0] == results[3]
        assert results[0][1].startswith("agents: 3")
        assert results[2][0] == 2 and "unrecognized arguments: --max-dim 3" in results[2][2]
        assert json.loads(results[1][1])["verdict"] == "exists"

    def test_cohomology_dim_default_comes_back(self, data_dir, capsys):
        path = str(data_dir / "ex4.json")
        results = self.sequence(capsys, ["cohomology", path, "--dim", "2"], ["cohomology", path])
        assert "H2 = 1" in results[0][1]
        assert "H1 = 0" in results[1][1]

    def test_parser_error_then_valid_call(self, data_dir, capsys):
        results = self.sequence(capsys, ["frobnicate"], ["oracle", str(data_dir / "ex1.json")])
        assert results[0][0] == 2 and "invalid choice" in results[0][2]
        assert results[1][0] == 0 and results[1][2] == ""

    def test_help_twice(self, capsys):
        first, second = self.sequence(capsys, ["--help"], ["--help"])
        assert first == second
        assert first[0] == 0 and "check" in first[1]


class TestEntryPoint:
    """``python -m urprior.cli`` reads sys.argv through ``main(None)``."""

    @pytest.mark.parametrize(
        "argv, expected_code", [(["check", "ex1.json", "--json"], 0), (["oracle", "gap.json"], 1)]
    )
    def test_process_matches_in_process(self, data_dir, capsys, argv, expected_code):
        command, name, *flags = argv
        env = dict(os.environ)
        paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        process = subprocess.run(
            [sys.executable, "-m", "urprior.cli", command, f"tests/data/{name}", *flags],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        code, out, err = run(capsys, command, str(data_dir / name), *flags)
        assert code == expected_code
        assert (process.returncode, process.stdout, process.stderr) == (code, out, err)


def _reference_report(system):
    """The check report and exit code from the staged pipeline and the all-pairs complex."""
    pairwise = compat.pairwise_compatibility(system)
    result = _pairwise_decide(system)
    X = overlap_reference.build_overlap_complex(system, max_dim=2)
    exists = result.verdict == "exists"
    report = {
        "valid": True,
        "agents": len(system.agents),
        "outcomes": len(system.space.outcomes),
        "pairwise": {
            "compatible": pairwise.compatible,
            "violations": [cli._certificate_to_json(v) for v in pairwise.violations],
        },
        "asymmetries": [cli._certificate_to_json(a) for a in pairwise.asymmetries],
        "complex": {"counts": X.counts(2)},
        "components": len(overlap_reference.connected_components(X)),
        "h1": cohomology_dim(X, 1),
        "verdict": result.verdict,
        "ur_prior": cli._measure_to_json(result.measure, system) if exists else None,
        "certificate": None if exists else cli._certificate_to_json(result.certificate),
    }
    return report, 0 if exists else 1


class TestCheckStarPath:
    """``check`` reads a yes off the star links, with the bytes of the staged pipeline."""

    def test_equals_the_report_without_star_links(self, data_dir):
        systems = differential_systems(data_dir, hubs=(5, 60))
        starred = [cli.build_check_report(system) for system in systems]
        star = 0
        for system, (report, code) in zip(systems, starred):
            if code == 0:
                assert "overlaps" not in vars(system)
                star += 1
            expected, expected_code = _reference_report(system)
            assert code == expected_code
            assert cli._dumps(report) == cli._dumps(expected)
            assert cli.render_check_text(report) == cli.render_check_text(expected)
        assert star > 2000

    def test_a_yes_the_star_links_decline_exits_three(self, data_dir, capsys, monkeypatch):
        # the pairwise path finds certificates only: a feasible system it is
        # handed is an internal error, never a yes
        monkeypatch.setattr(compat, "_star_units", lambda system: None)
        for name in ("ex1.json", "ex4.json"):
            code, out, err = run(capsys, "check", str(data_dir / name))
            assert (code, out) == (3, "")
            assert err.startswith("internal error: GluingError: ") and err.count("\n") == 1

    def test_a_yes_builds_no_overlap_table(self, tmp_path, capsys, monkeypatch):
        def forbidden(system):
            raise AssertionError("check fell back to the pairwise scan")

        monkeypatch.setattr(compat, "pairwise_compatibility", forbidden)
        rng = random.Random(27)
        systems = (hub_system(rng, 40)[0], window_chain(rng, 16, growth=1000)[0])
        for system in systems + (hub_system(rng, 40, held_at_zero=True)[0],):
            report, code = cli.build_check_report(system)
            assert code == 0 and report["h1"] == 0 and report["components"] == 1
            assert "overlaps" not in vars(system)
            path = tmp_path / "system.json"
            path.write_text(json.dumps(cli.system_to_dict(system)))
            assert run(capsys, "check", str(path), "--json") == (0, cli._dumps(report) + "\n", "")

    def test_a_collapsing_yes_lists_nothing(self, data_dir, tmp_path, capsys, monkeypatch):
        # every agent's neighbours above it share one group with it, so the
        # overlap complex is counted: no simplex listed, no forest built
        rng = random.Random(29)
        systems = (hub_system(rng, 40)[0], hub_system(rng, 40, held_at_zero=True)[0],
                   window_chain(rng, 16, growth=1000)[0])
        paths = [data_dir / "ex1.json"]
        for k, system in enumerate(systems):
            paths.append(tmp_path / f"system-{k}.json")
            paths[-1].write_text(json.dumps(cli.system_to_dict(system)))
        runs = [("check", path, "--json") for path in paths] + [("check", paths[0])]
        runs += [("cohomology", path, "--dim", "2") for path in paths]
        runs += [("cohomology", data_dir / "tri_filled.json", "--json")]
        expected = [run(capsys, command, str(path), *flags) for command, path, *flags in runs]

        def forbidden(*args, **kwargs):
            raise AssertionError("a collapsing complex was listed")

        monkeypatch.setattr(complexes.SimplicialComplex, "_grow", forbidden)
        monkeypatch.setattr(complexes, "_build_forest", forbidden)
        for (command, path, *flags), before in zip(runs, expected):
            assert run(capsys, command, str(path), *flags) == before
            assert before[0] == 0 and before[2] == ""

    def test_a_no_takes_the_pairwise_path(self, data_dir, c4):
        # an outcome held at 0 and weighted (gap), and a failing star link (a counterexample)
        for system in (cli.load_system(str(data_dir / "gap.json")), generate_counterexample(c4)):
            report, code = cli.build_check_report(system)
            assert code == 1 and report["certificate"] is not None
            assert "overlaps" in vars(system)


class TestInputRobustness:
    def test_duplicate_key_is_rejected(self, tmp_path, capsys):
        # last-wins would read this as the valid pmf {a: 1/2, b: 1/2}
        path = tmp_path / "dup.json"
        path.write_text(
            '{"outcomes": ["a", "b"], "agents": '
            '[{"name": "1", "credence": {"a": "1/2", "b": "1/2", "a": "1/2"}}]}'
        )
        code, report, _ = run_json(capsys, "check", str(path), "--json")
        assert code == 2
        assert report["valid"] is False
        assert report["errors"] == ["duplicate key 'a' in one JSON object"]
        code, out, _ = run(capsys, "oracle", str(path))
        assert code == 2
        assert "duplicate key 'a'" in out
        code, _, err = run(capsys, "cohomology", str(path))
        assert code == 2
        assert "duplicate key 'a'" in err

    def test_duplicate_key_in_a_complex_file(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text('{"vertices": ["1", "2"], "facets": [["1", "2"]], "vertices": ["1"]}')
        code, _, err = run(capsys, "counterexample", str(path))
        assert code == 2
        assert "duplicate key 'vertices'" in err

    @pytest.mark.parametrize(
        "content",
        [
            '{"vertices": ["a", "b"], "facets": [[["a"]]]}',
            '{"vertices": ["a", "b"], "facets": [["a", 1]]}',
            '{"vertices": ["a", "b"], "facets": [[null]]}',
            '{"vertices": ["a", "b"], "facets": ["ab"]}',
            '{"vertices": ["a", 2], "facets": [["a"]]}',
            '{"vertices": ["a", "b"], "facets": [["a", "c"]]}',
        ],
        ids=["list-label", "int-label", "null-label", "string-facet", "int-vertex", "unknown-label"],
    )
    def test_invalid_complex_file_exits_two(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        for command in ("counterexample", "cohomology"):
            code, out, err = run(capsys, command, str(path))
            assert code == 2, (command, err)
            assert out == ""
            assert err.count("\n") == 1 and err.startswith(str(path))

    def test_facets_are_checked_when_the_vertex_list_is_empty(self, tmp_path, capsys):
        # the same exit and message as with a vertex present
        for vertices in ([], ["z"]):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({"vertices": vertices, "facets": [["a", "b"], []]}))
            for command in ("counterexample", "cohomology"):
                code, out, err = run(capsys, command, str(path))
                assert (code, out) == (2, ""), (command, vertices)
                assert err == f"{path}: facet mentions unknown vertex 'a'\n"

    def test_numbers_beyond_the_int_to_str_digit_limit(self, tmp_path, capsys):
        # the ur-prior is proportional to (10**100)**k on outcome k, so its
        # common denominator has 5001 digits
        path = tmp_path / "geometric.json"
        path.write_text(json.dumps(cli.system_to_dict(geometric_chain(50, 10**100))))
        denominator = "1" + ("0" * 99 + "1") * 50
        for command in ("check", "oracle"):
            code, report, _ = run_json(capsys, command, str(path), "--json")
            assert code == 0
            assert report["ur_prior"]["o0"] == "1/" + denominator

    def test_printed_ur_prior_beyond_the_digit_limit_reads_back(self, tmp_path, capsys):
        system = geometric_chain(50, 10**100)
        path = tmp_path / "geometric.json"
        path.write_text(json.dumps(cli.system_to_dict(system)))
        code, report, _ = run_json(capsys, "check", str(path), "--json")
        assert code == 0
        printed = report["ur_prior"]
        assert max(len(v) for v in printed.values()) > 5000
        # the printed measure, taken as one agent's credence, reads back exactly
        echo = tmp_path / "echo.json"
        agent = {"name": "all", "credence": printed}
        echo.write_text(json.dumps({"outcomes": list(printed), "agents": [agent]}))
        assert cli.load_system(str(echo)).agents[0].pmf == compat.decide_urprior(system).measure
        code, again, _ = run_json(capsys, "check", str(echo), "--json")
        assert code == 0
        assert again["ur_prior"] == printed

    def test_long_invalid_literal_gives_a_short_message(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        literal = "1/" + "1" * 4997 + "x"
        agent = {"name": "1", "credence": {"a": literal}}
        path.write_text(json.dumps({"outcomes": ["a"], "agents": [agent]}))
        code, report, _ = run_json(capsys, "check", str(path), "--json")
        assert code == 2
        (error,) = report["errors"]
        assert len(error) < 120
        assert error.startswith("agent 1: outcome 'a': not a rational literal: '1/111")

    def test_huge_exponent_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        agent = {"name": "1", "credence": {"a": "1e-10000000", "b": "1"}}
        path.write_text(json.dumps({"outcomes": ["a", "b"], "agents": [agent]}))
        code, report, _ = run_json(capsys, "check", str(path), "--json")
        assert code == 2
        assert report["errors"] == [
            "agent 1: outcome 'a': decimal exponent beyond 10000 in absolute value: '1e-10000000'"
        ]
        code, out, _ = run(capsys, "oracle", str(path))
        assert code == 2
        assert out.startswith("invalid system file:\n")

    def test_internal_error_exits_three(self, data_dir, capsys, monkeypatch):
        # glued weights that fail re-verification raise GluingError
        failed = compat.VerificationReport(False, ("agent 1: broken on purpose",))
        monkeypatch.setattr(compat, "_verify", lambda system, weights, total: failed)
        code, out, err = run(capsys, "check", str(data_dir / "ex1.json"), "--json")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: GluingError: ")
        assert err.count("\n") == 1

    def test_unexpected_exception_exits_three(self, data_dir, capsys, monkeypatch):
        def broken(system):
            raise KeyError("lost\noutcome")

        monkeypatch.setattr(cli, "feasibility_oracle", broken)
        code, out, err = run(capsys, "oracle", str(data_dir / "ex1.json"))
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: KeyError: ")
        assert err.count("\n") == 1

    def test_out_of_memory_while_reporting_still_exits_three(self, data_dir, monkeypatch):
        # the handler runs out of memory, and so does the line reporting it
        error = MemoryError()

        def broken(system):
            raise error

        class FullStream:
            def write(self, text):
                raise MemoryError

            def flush(self):
                pass

        monkeypatch.setattr(cli, "feasibility_oracle", broken)
        monkeypatch.setattr(sys, "stderr", FullStream())
        assert cli.main(["oracle", str(data_dir / "ex1.json")]) == 3
        assert error.__traceback__ is None  # the failed call's frames were let go

    @pytest.mark.parametrize("stage", ["parser", "error line"])
    def test_any_exception_after_entry_exits_three(self, tmp_path, capsys, monkeypatch, stage):
        def no_memory(*args, **kwargs):
            raise MemoryError

        if stage == "parser":
            monkeypatch.setattr(cli, "_build_parser", no_memory)
        else:  # a missing file exits 2, unless its message cannot be written
            monkeypatch.setattr(sys, "stderr", type("FullStream", (), {"write": no_memory})())
        assert cli.main(["check", str(tmp_path / "missing.json")]) == 3
        assert capsys.readouterr().out == ""
