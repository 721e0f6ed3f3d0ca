"""Inputs far beyond the small fixtures, checked exactly. No timing is asserted."""

from __future__ import annotations

import json
import random
from fractions import Fraction

from urprior import cli
from urprior.cohomology import cohomology_dim
from urprior.compat import decide_urprior, verify_urprior

from .generators import (
    annulus,
    complex_to_dict,
    holonomy_from_pmfs,
    hub_system,
    split_hub_system,
    window_chain,
)


def test_check_on_a_200_agent_window_chain(tmp_path, capsys):
    system, hidden = window_chain(random.Random(200), 200)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cli.system_to_dict(system)))
    code = cli.main(["check", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "exists"
    assert report["complex"]["counts"] == [200, 3 * 200 - 6, 3 * 200 - 8]
    assert report["h1"] == 0
    measure = {x: Fraction(v) for x, v in report["ur_prior"].items()}
    assert measure == hidden
    assert verify_urprior(system, measure).ok


def test_decide_and_check_on_a_3000_agent_window_chain(tmp_path, capsys):
    # 4.5M agent pairs, of which 9k share an outcome: the pairwise scan and
    # the overlap complex only visit the sharing ones
    n = 3000
    system, hidden = window_chain(random.Random(n), n)
    result = decide_urprior(system)
    assert result.verdict == "exists"
    assert result.measure == hidden
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cli.system_to_dict(system)))
    code = cli.main(["check", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "exists"
    assert report["complex"]["counts"] == [n, 3 * n - 6, 3 * n - 8]
    assert report["h1"] == 0
    assert {x: Fraction(v) for x, v in report["ur_prior"].items()} == hidden


def test_check_and_cohomology_on_a_60_agent_hub(tmp_path, capsys):
    # every pair and every triple of agents overlaps: 1,711 non-tree edges,
    # each delta_1 column 58 entries wide, and 34,220 triangles
    n = 60
    system, hidden = hub_system(random.Random(n), n)
    path = tmp_path / "hub.json"
    path.write_text(json.dumps(cli.system_to_dict(system)))
    code = cli.main(["check", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "exists"
    assert report["complex"]["counts"] == [60, 1770, 34220]
    assert report["components"] == 1
    assert report["h1"] == 0
    assert {x: Fraction(v) for x, v in report["ur_prior"].items()} == hidden
    code = cli.main(["cohomology", str(path), "--dim", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload == {
        "counts": [60, 1770, 34220],
        "dim": 1,
        "ranks": {"delta_0": 59, "delta_1": 1711},
        "cocycles": 59,
        "coboundaries": 59,
        "h": 0,
    }


def test_check_on_a_60_agent_split_hub(tmp_path, capsys):
    # the hub's holders are all 61 agents, so every triple of them is a
    # candidate, but only the 34,220 without the last agent are triangles;
    # its 60 sign-split edges close 59 independent cycles
    path = tmp_path / "split-hub.json"
    path.write_text(json.dumps(cli.system_to_dict(split_hub_system(60))))
    code = cli.main(["check", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["pairwise"]["compatible"] is False
    assert report["complex"]["counts"] == [61, 1830, 34220]
    assert report["h1"] == 59


def test_counterexample_round_trip_on_a_1280_edge_annulus(tmp_path, capsys):
    X = annulus(random.Random(1280), 320)
    assert X.counts() == [640, 1280, 640]
    assert cohomology_dim(X, 1) == 1
    complex_path = tmp_path / "annulus.json"
    complex_path.write_text(json.dumps(complex_to_dict(X)))
    system_path = tmp_path / "system.json"
    assert cli.main(["counterexample", str(complex_path), "--output", str(system_path)]) == 0
    capsys.readouterr()
    code = cli.main(["check", str(system_path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["pairwise"]["compatible"] is True
    assert report["complex"]["counts"] == [640, 1280, 640]
    assert report["h1"] == 1
    cert = report["certificate"]
    assert cert["kind"] == "cycle_holonomy"
    holonomy = holonomy_from_pmfs(cli.load_system(str(system_path)), tuple(cert["cycle"]))
    assert holonomy != 1
    assert holonomy == Fraction(cert["holonomy"])
