"""What the library keeps alive: nothing of an earlier import, nothing of an earlier call."""

from __future__ import annotations

import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from urprior import cli
from urprior.compat import decide_urprior

from .generators import hub_system, no_hub_system

ROOT = Path(__file__).parent.parent

# Run in a process of its own: dropping urprior from sys.modules here would
# leave the rest of the suite holding classes of a discarded copy.
REIMPORT = """
import gc, io, json, sys, weakref
from contextlib import redirect_stdout


def first_copy():
    import urprior
    from urprior import cli, compat, complexes, credence

    with redirect_stdout(io.StringIO()):  # a call fills the copy's caches
        assert cli.main(["check", "--json", sys.argv[1]]) == 0
    kept = {
        "compat.CycleCertificate": compat.CycleCertificate,
        "credence.AgentSystem": credence.AgentSystem,
        "complexes.SimplicialComplex": complexes.SimplicialComplex,
        "cli.CliError": cli.CliError,
        "compat.decide_urprior": compat.decide_urprior,
    }
    return {name: weakref.ref(value) for name, value in kept.items()}


refs = first_copy()
for name in [m for m in sys.modules if m == "urprior" or m.startswith("urprior.")]:
    del sys.modules[name]
import urprior.cli
gc.collect()
print(json.dumps(sorted(name for name, ref in refs.items() if ref() is not None)))
"""


def test_a_reimport_leaves_no_earlier_copy_alive(data_dir):
    # A typing.Union alias is memoised in typing's process-wide cache, and
    # its classes' methods hold their module's globals, so one such alias
    # kept every earlier copy of the package alive.
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    process = subprocess.run(
        [sys.executable, "-c", REIMPORT, str(data_dir / "ex1.json")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert process.returncode == 0, process.stderr
    assert json.loads(process.stdout) == []


def test_calls_keep_nothing(data_dir):
    files = [str(path) for path in sorted(data_dir.glob("*.json"))]
    commands = (["check", "--json"], ["oracle"], ["cohomology", "--json"], ["counterexample"])

    def one_round():
        for path in files:
            for command in commands:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    cli.main([*command, path])

    # Warm up: the parser and the stdlib's caches fill on first use, and the
    # collector stops tracking what earlier tests left that holds no
    # container, which would read as objects freed.
    for _ in range(2):
        one_round()
        gc.collect()
    before = len(gc.get_objects())
    for _ in range(30):
        one_round()
    gc.collect()
    assert abs(len(gc.get_objects()) - before) <= 5


def test_decide_on_a_2000_agent_hub_builds_no_pairwise_table():
    # 1,999,000 agent pairs share the hub outcome, but the yes path links
    # each agent to the hub's first holder only, so its memory follows the
    # 4,000 (agent, outcome) entries, not the pairs; an outcome every agent
    # holds at 0 gets no link at all
    for held_at_zero in (False, True):
        system, hidden = hub_system(random.Random(2000), 2000, held_at_zero)
        tracemalloc.start()
        try:
            result = decide_urprior(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.verdict == "exists" and result.measure == hidden
        assert peak < 16 * 2**20, f"peak {peak} bytes"


def test_check_on_a_2000_agent_hub_lists_no_triangle():
    # the overlap complex is the full simplex, 1,331,334,000 triangles, but
    # it collapses (every agent's neighbours above it share the hub with it),
    # so the report counts them: its memory follows the agents, not the
    # simplices; the same with an outcome every agent holds at 0
    for held_at_zero in (False, True):
        system, _ = hub_system(random.Random(2000), 2000, held_at_zero)
        tracemalloc.start()
        try:
            report, code = cli.build_check_report(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and report["complex"]["counts"] == [2000, 1999000, 1331334000]
        assert (report["components"], report["h1"]) == (1, 0)
        assert peak < 4 * 2**20, f"peak {peak} bytes"


def test_a_no_beside_a_1000_agent_hub_keeps_no_pairwise_table():
    # two agents that disagree on a second shared outcome make the hub a
    # no: 501,501 agent pairs share the hub, and the certificate is read
    # off the listed edges of the overlap complex, one tuple each (35 MiB
    # peak measured), never off a table of every overlapping pair (220 MiB)
    system = no_hub_system(random.Random(1000), 1000)
    for decide in (decide_urprior, cli.build_check_report):
        tracemalloc.start()
        try:
            decide(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"{decide.__name__}: peak {peak} bytes"
    result = decide_urprior(system)
    assert result.verdict == "none" and result.certificate.pair == ("x0", "x1")
    report, code = cli.build_check_report(system)
    assert code == 1 and report["complex"]["counts"] == [1002, 501501, 167167000]


def test_cohomology_dim_2_on_a_hub_reduces_nothing(tmp_path):
    # rank delta_2 of a 36-agent hub took 19 s and 892 MB when it was reduced;
    # the hub collapses, so the ranks are read off its counts; a 300-agent
    # hub has 330,791,175 tetrahedra
    for n, expected in ((36, [36, 630, 7140, 58905]), (300, [300, 44850, 4455100, 330791175])):
        path = tmp_path / f"hub-{n}.json"
        path.write_text(json.dumps(cli.system_to_dict(hub_system(random.Random(n), n)[0])))
        out = io.StringIO()
        tracemalloc.start()
        try:
            with redirect_stdout(out):
                code = cli.main(["cohomology", str(path), "--dim", "2", "--json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        report = json.loads(out.getvalue())
        assert code == 0 and report["counts"] == expected and report["h"] == 0
        assert report["ranks"] == {"delta_1": expected[1] - n + 1, "delta_2": expected[2] - expected[1] + n - 1}
        assert peak < 4 * 2**20, f"peak {peak} bytes"
