"""Tests of the benchmark itself: generators, output checks, self-time arithmetic, metric names.

Run with ``python3 -m pytest -q bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from bench import checks, generators, run, tracing
from bench.checks import CheckFailed
from bench.workloads import WORKLOADS

from urprior.complexes import from_facets
from urprior.credence import validate

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _same_twice(make):
    return make(random.Random(7)) == make(random.Random(7)) != make(random.Random(8))


@pytest.mark.parametrize("make", [
    lambda rng: generators.chain_system(rng, 16),
    lambda rng: generators.chain_system(rng, 128, growth=1000, plant=True),
    lambda rng: generators.random_system(rng, 6, 8),
    lambda rng: generators.random_system(rng, 1, 2),
    lambda rng: generators.conditioned_system(rng, 6, 8),
    lambda rng: generators.conditioned_system(rng, 2, 3),
])
def test_system_generators_are_deterministic_and_valid(make):
    assert _same_twice(make)
    rng = random.Random(3)
    for _ in range(20):
        made = make(rng)
        system = validate(made.raw)
        assert len(system.agents) == len(made.raw["agents"])


def test_chain_hidden_measure_conditions_back():
    chain = generators.chain_system(random.Random(1), 16)
    assert checks.conditioning_error(checks.pmfs_of(chain.raw), chain.expected) is None
    big = generators.chain_system(random.Random(1), 128, growth=1000)
    assert checks.max_bits(big.expected) > 1200


def test_annulus_generator_is_deterministic_and_an_annulus():
    assert _same_twice(lambda rng: generators.annulus_complex(rng, 6))
    cx = generators.annulus_complex(random.Random(5), 6)
    X = from_facets(cx["vertices"], cx["facets"])
    assert X.counts() == [12, 24, 12]


def test_planted_violation_breaks_conditioning():
    chain = generators.chain_system(random.Random(2), 128, growth=1000, plant=True)
    assert chain.expected is None and 2 <= chain.planted < 127
    with pytest.raises(ValueError):
        generators.chain_system(random.Random(2), 16, plant=True)


@pytest.fixture(scope="module")
def lib():
    return run.import_urprior()


def _workload(lib, name, tmp_path):
    workload = WORKLOADS[name](lib, tmp_path, seed=11)
    item = workload.items[0]
    record = workload.run(item)
    workload.check(item, record)
    return workload, item, record


def _edit_json(call, edit):
    code, out = call
    payload = json.loads(out)
    edit(payload)
    return code, json.dumps(payload)


def _bump_first(table):
    first = next(iter(table))
    table[first] = str(Fraction(table[first]) + Fraction(1, 1000))


def test_chain_check_rejects_a_measure_off_on_one_outcome(lib, tmp_path):
    workload, item, record = _workload(lib, "chain-check", tmp_path)
    wrong = [_edit_json(record[0], lambda r: _bump_first(r["ur_prior"]))]
    with pytest.raises(CheckFailed):
        workload.check(item, wrong)


def test_annulus_rejects_holonomy_of_one_and_swapped_exit_codes(lib, tmp_path):
    workload, item, record = _workload(lib, "annulus-roundtrip", tmp_path)
    one = [record[0], _edit_json(record[1], lambda r: r["certificate"].update(holonomy="1")), record[2]]
    with pytest.raises(CheckFailed, match="holonomy"):
        workload.check(item, one)
    swapped = [(1, record[0][1]), (0, record[1][1]), record[2]]
    with pytest.raises(CheckFailed, match="exit codes"):
        workload.check(item, swapped)


def test_chain_decide_rejects_a_measure_off_on_one_outcome(lib, tmp_path):
    workload, item, (result, oracle) = _workload(lib, "chain-decide", tmp_path)
    assert item[0].expected is not None
    off = dict(oracle)
    _bump_first(off)
    off = {x: Fraction(v) for x, v in off.items()}
    with pytest.raises(CheckFailed, match="oracle"):
        workload.check(item, (result, off))


def test_chain_decide_checks_the_planted_violation(lib, tmp_path):
    workload = WORKLOADS["chain-decide"](lib, tmp_path, seed=11)
    item = workload.items[3]
    assert item[0].planted is not None
    result, oracle = workload.run(item)
    workload.check(item, (result, oracle))
    cert = result.certificate
    swapped = replace(result, certificate=replace(cert, conditional_left=cert.conditional_right))
    with pytest.raises(CheckFailed, match="certificate"):
        workload.check(item, (swapped, oracle))


def test_small_mix_rejects_swapped_exit_codes(lib, tmp_path):
    workload, item, record = _workload(lib, "small-mix", tmp_path)
    (code, out), (oracle_code, oracle_out) = record
    with pytest.raises(CheckFailed):
        workload.check(item, [(1 - code, out), (oracle_code, oracle_out)])


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op, None]


def test_self_times_on_a_nested_trace():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("compat.decide_urprior", 1.0, 6.0, 0),
        _span("compat.pairwise_compatibility", 2.0, 3.0, 1),
        _span("complexes.build_overlap_complex", 3.5, 5.0, 1),
        _span("cohomology.cohomology_dim", 7.0, 9.0, 0),
        _span("numerics.rank", 7.0, 8.5, 4),
    ]
    assert tracing.self_times(spans) == [3.0, 2.5, 1.0, 1.5, 0.5, 1.5]
    metrics = tracing.layer_metrics(spans, [10.0])
    assert metrics["trace.self_time_coverage"] == 1.0
    assert metrics["cli.main.self_ms"] == 3000.0
    assert metrics["compat.self_ms"] == 3500.0
    assert metrics["compat.decide_urprior.self_ms"] == 2500.0
    assert metrics["numerics.rank.ms"] == 1500.0


def test_self_time_clips_overlapping_children():
    spans = [_span("a.x", 0.0, 4.0, -1), _span("a.y", 1.0, 3.0, 0), _span("a.z", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == 1.0


def test_inclusive_time_counts_only_the_outermost_of_nested_same_name_spans():
    spans = [_span("numerics.rank", 0.0, 4.0, -1), _span("numerics.rank", 1.0, 2.0, 0)]
    assert tracing.layer_metrics(spans, [4.0])["numerics.rank.ms"] == 4000.0


def test_tracer_wraps_every_namespace_and_restores_it(lib):
    tracer = tracing.Tracer(lib)
    names = {f"{namespace.__name__}.{attr}" for namespace, attr, *_ in tracer._patches}
    for qualified in ("urprior.cli.pairwise_compatibility", "urprior.compat.pairwise_compatibility",
                      "urprior.cohomology.matrix_rank", "urprior.cli.matrix_rank", "urprior.cli.main"):
        assert qualified in names
    original = lib.cli.main
    tracer.install(0)
    assert lib.cli.main is not original
    tracer.uninstall()
    assert lib.cli.main is original


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_one_traced_and_one_timed_op_per_workload(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 2)
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "SPANS", tmp_path / "spans")
    traced = run.traced_run(name, 5, 0.0, tmp_path / "traced")
    assert traced["failures"] == []
    assert set(traced["values"]) | {"host.ref_loop_ms"} == {m["name"] for m in SPEC["per_layer"]}
    assert traced["values"]["trace.self_time_coverage"] > 0.9
    timed = run.timed_run(name, 5, 0.0, tmp_path / "timed")
    assert timed["failures"] == [] and timed["attempted"] == 2
    assert set(timed["values"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    root = Path(__file__).resolve().parents[2]
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
