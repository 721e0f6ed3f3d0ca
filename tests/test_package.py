"""The package namespace and the process entry point ``python -m urprior``."""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import urprior

ROOT = Path(__file__).parent.parent


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )


def test_every_exported_name_is_its_home_modules_object():
    assert sorted(urprior.__all__) == sorted(urprior._HOMES)
    for name, home in urprior._HOMES.items():
        assert getattr(urprior, name) is getattr(import_module(f"urprior.{home}"), name)
    assert set(urprior.__all__) <= set(dir(urprior))
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        urprior.nothing


def test_importing_the_package_loads_no_library_module():
    script = (
        "import sys, urprior\n"
        "print(sorted(m for m in sys.modules if m.startswith('urprior')))\n"
        "from urprior import decide_urprior\n"
        "print(decide_urprior.__module__)\n"
    )
    process = _python("-c", script)
    assert process.returncode == 0, process.stderr
    assert process.stdout == "['urprior']\nurprior.compat\n"


@pytest.mark.parametrize(
    "argv, expected_code",
    [(["check", "tests/data/ex1.json", "--json"], 0), (["oracle", "tests/data/gap.json"], 1)],
)
def test_python_m_urprior_is_the_cli(argv, expected_code):
    process = _python("-m", "urprior", *argv)
    assert process.returncode == expected_code
    assert (process.returncode, process.stdout, process.stderr) == tuple(
        getattr(_python("-m", "urprior.cli", *argv), k) for k in ("returncode", "stdout", "stderr")
    )


def test_a_failed_import_of_the_cli_exits_three():
    # the import runs out of memory before urprior.cli.main can catch anything
    script = (
        "import runpy, sys\n"
        "class OutOfMemory:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'urprior.cli':\n"
        "            raise MemoryError('no room\\nat all')\n"
        "sys.meta_path.insert(0, OutOfMemory())\n"
        "sys.argv = ['urprior', 'check', 'tests/data/ex1.json']\n"
        "runpy.run_module('urprior', run_name='__main__', alter_sys=True)\n"
    )
    process = _python("-c", script)
    assert (process.returncode, process.stdout) == (3, "")
    assert process.stderr == "internal error: MemoryError: no room at all\n"
