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

from .generators import hub_system

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
