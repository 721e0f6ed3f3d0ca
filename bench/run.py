"""Run one urprior benchmark workload, or all four, and print its metrics.

    python3 bench/run.py --workload chain-check --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20              # every workload, one process each

Each workload runs as a closed loop: one client in one process and one
thread, each op started only after the previous one returned and was
checked. CLI ops call ``urprior.cli.main(argv)`` in-process, so file
reads, JSON parsing, validation and rendering are timed and interpreter
start-up is not. Every op's output is checked; a wrong output, a wrong
exit code or an exception counts as a failed op.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see bench/README.md). Metric names and units come from
BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_out"

SETUPS = 15  # set-ups per timed run; setup_s is their median
MIN_OPS = 100  # so that at least 10 samples lie beyond op_p90_ms
MAX_LOOP_S = 120.0  # hard stop for the loop, whatever MIN_OPS says


def host_ref_loop_ms() -> float:
    """Median time of a fixed pure-Python Fraction loop: a host-speed diagnostic only."""
    times = []
    for _ in range(5):
        start = perf_counter()
        for k in range(1, 4001):
            Fraction(k, k + 1) * Fraction(k + 2, k + 3) + Fraction(1, k)
        times.append(perf_counter() - start)
    return 1000 * statistics.median(times)


def import_urprior() -> SimpleNamespace:
    """Import urprior afresh from the checkout's source tree; return its layer modules."""
    from bench.tracing import LAYERS

    for name in [m for m in sys.modules if m == "urprior" or m.startswith("urprior.")]:
        del sys.modules[name]
    package = importlib.import_module("urprior")
    if Path(package.__file__).resolve().parent != SRC / "urprior":
        raise RuntimeError(f"imported urprior from {package.__file__}, not from {SRC}")
    return SimpleNamespace(package=package, **{l: importlib.import_module(f"urprior.{l}") for l in LAYERS})


def set_up(name: str, seed: int, workdir: Path, warm: int = 0) -> tuple[Any, float]:
    """Import, generate and write the inputs, and warm up with one op on input ``warm``.

    Returns (workload, seconds). Set-ups of one run warm up on different
    inputs, so that their median does not hang on one input's cost.
    """
    from bench.workloads import WORKLOADS

    start = perf_counter()
    lib = import_urprior()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](lib, workdir, seed)
    try:
        workload.run(workload.items[warm % len(workload.items)])
    except (Exception, SystemExit):
        pass  # the same op runs again, and is counted, in the loop
    return workload, perf_counter() - start


def run_op(workload: Any, item: Any) -> tuple[float, Any, str | None]:
    """Time one op, then check it untimed; return (seconds, record, failure reason or None)."""
    start = perf_counter()
    try:
        record = workload.run(item)
    except (Exception, SystemExit) as exc:
        return perf_counter() - start, None, f"op raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    try:
        workload.check(item, record)
    except Exception as exc:
        return elapsed, record, f"{type(exc).__name__}: {exc}"
    return elapsed, record, None


def timed_run(name: str, seed: int, seconds: float, workdir: Path) -> dict[str, Any]:
    """The closed loop; the set-ups are spread evenly over it, so their median sees the whole run."""
    workload, first = set_up(name, seed, workdir)
    setups = [first]
    latencies: list[float] = []
    failures: list[str] = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(setups) < SETUPS and elapsed >= len(setups) * seconds / SETUPS:
            setups.append(set_up(name, seed, workdir, warm=len(setups))[1])
        if (elapsed >= seconds and len(latencies) >= MIN_OPS) or elapsed >= MAX_LOOP_S:
            break
        took, _, failure = run_op(workload, workload.items[len(latencies) % len(workload.items)])
        latencies.append(took)
        if failure:
            failures.append(failure)
    values = {
        "setup_s": statistics.median(setups),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {
        "ops_per_s": (len(latencies) - len(failures)) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
    }
    return {"values": values, "wall": wall, "attempted": len(latencies), "failures": failures}


def traced_run(name: str, seed: int, seconds: float, workdir: Path) -> dict[str, Any]:
    """Alternate an untraced and a traced run of each op on the same input, and compare outputs."""
    from bench.tracing import Tracer, layer_metrics

    workload, _ = set_up(name, seed, workdir)
    tracer = Tracer(workload.lib)
    plain: list[float] = []
    traced: list[float] = []
    bits: list[int] = []
    out_bytes: list[int] = []
    failures: list[str] = []
    start = perf_counter()
    while perf_counter() - start < seconds or not traced:
        op = len(traced)
        item = workload.items[op % len(workload.items)]
        took, record, failure = run_op(workload, item)
        plain.append(took)
        reference = workload.digest(item, record) if failure is None else None
        tracer.install(op)
        try:
            took, record, failure_traced = run_op(workload, item)
        finally:
            tracer.uninstall()
        traced.append(took)
        for reason in (failure, failure_traced):
            if reason:
                failures.append(reason)
        if failure_traced is None:
            if reference is not None and workload.digest(item, record) != reference:
                failures.append("traced output differs from the untraced output")
            bits.append(workload.output_bits(item, record))
            out_bytes.append(workload.output_bytes(record))
    values = layer_metrics(tracer.spans, traced)
    values.update({
        "numerics.max_bits": max(bits, default=0),
        "cli.output_bytes": statistics.fmean(out_bytes) if out_bytes else 0.0,
        "input.pair_overlap_frac": workload.pair_overlap_frac(),
        "trace.overhead_frac": sum(traced) / sum(plain) - 1,
    })
    SPANS.mkdir(exist_ok=True)
    with open(SPANS / f"spans-{name}-s{seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span[:5]) + "\n")
    return {"values": values, "attempted": len(plain) + len(traced), "failures": failures}


def run_workload(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    metrics = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    before = host_ref_loop_ms()
    try:
        run = (traced_run if args.trace else timed_run)(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    after = host_ref_loop_ms()
    values = run["values"]
    if args.trace:
        values["host.ref_loop_ms"] = (before + after) / 2
    if set(values) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(metrics))} disagree with BENCHMARK.json")
    attempted, failed = run["attempted"], len(run["failures"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted} (every output checked, {failed} failed)")
    for reason in sorted(set(run["failures"]))[:5]:
        print(f"  failure: {reason}")
    for key, unit in metrics.items():
        print(f"  {key:44s} {values[key]:14.6g} {unit}")
    if not args.trace:
        print(f"  ({attempted} op samples) not gated, they swing with the host (see bench/README.md):")
        for key, unit in (("ops_per_s", "ops/s"), ("op_p50_ms", "ms")):
            print(f"  {key:44s} {run['wall'][key]:14.6g} {unit}")
        print(f"  {'error_rate':44s} {failed / attempted:14.6g} fraction ({failed}/{attempted} ops)")
    # Beside the result, not in it: the last line holds exactly the four keys a driver reads.
    print(json.dumps({"host.ref_loop_ms": {"before": before, "after": after}}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's own."""
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            results[workload] = None
            continue
        results[workload] = {**json.loads(lines[-2]), **json.loads(lines[-1])}
    print(json.dumps({"seed": args.seed, "trace": args.trace, "workloads": results}))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Run the urprior benchmark.")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="one workload; omit to run every workload in turn")
    parser.add_argument("--seed", type=int, default=1, help="seed for the generated inputs")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the traced run and per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "urprior" / "__init__.py").is_file():
        print(f"error: no urprior source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:1] = [str(SRC), str(ROOT)]
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
