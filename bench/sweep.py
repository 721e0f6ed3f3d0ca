"""One-shot scaling sweep, outside the gated workloads.

    python3 bench/sweep.py --seed 1 --out bench/baseline-sweep.json

For each workload family the size doubles, up to about 10^4 agents,
until a case fails or runs past the per-call cap (CAP_S). Sizes that
ROADMAP quotes as seed baselines run with a longer cap (BASELINE_CAP_S)
so that their numbers are always recorded. Each case runs in a child process of its
own (fresh interpreter, address space capped at MEMORY_LIMIT bytes);
only the call itself is timed. A CLI call that raises is left uncaught,
so the recorded exit code and message are the ones a user would see.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MAX_AGENTS = 10_000
CAP_S = 120.0
BASELINE_CAP_S = 600.0
MEMORY_LIMIT = 3 * 2**30

# family -> (first size, what a size counts, {size: seconds quoted in ROADMAP, or None for a known crash})
FAMILIES = {
    "check-chain": (25, "agents", {100: 21.0, 200: 131.0}),
    "counterexample-annulus": (20, "edges", {160: 17.5, 320: 258.0}),
    "decide-chain": (100, "agents", {}),
    "oracle-chain": (100, "agents", {1600: None}),
}


def _agents(family: str, size: int) -> int:
    return size // 2 if family == "counterexample-annulus" else size


def run_case(family: str, size: int, seed: int, workdir: Path) -> None:
    """Child side: build the input, time the one call, check it, print one JSON line."""
    from bench import checks, generators

    from urprior import cli, compat, credence, oracle

    rng = random.Random(f"sweep/{family}/{size}/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{family}-{size}.json"
    if family == "counterexample-annulus":
        cx = generators.annulus_complex(rng, size // 4)
        path.write_text(json.dumps(cx))
        argv = ["counterexample", str(path)]
    else:
        chain = generators.chain_system(rng, size, growth=1 if family == "check-chain" else 1000)
        path.write_text(json.dumps(chain.raw))
        argv = ["check", str(path), "--json"] if family == "check-chain" else ["oracle", str(path), "--json"]

    start = perf_counter()
    if family == "decide-chain":
        system = credence.validate(chain.raw)
        result, measure = compat.decide_urprior(system), oracle.feasibility_oracle(system)
        seconds, code, out = perf_counter() - start, 0, ""
    else:
        buf = io.StringIO()
        try:
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except BaseException:
            print(json.dumps({"seconds": perf_counter() - start, "raised": True}), flush=True)
            raise
        seconds, out = perf_counter() - start, buf.getvalue()

    sys.set_int_max_str_digits(0)  # the checks below parse entries longer than the default limit
    if family == "decide-chain":
        ok = result.measure == chain.expected and measure == chain.expected
    elif family == "counterexample-annulus":
        pmfs = checks.pmfs_of(json.loads(out))
        ok = code == 0 and checks.overlap_simplices(pmfs, 2) == checks.facet_simplices(cx["vertices"], cx["facets"])
    else:
        report = json.loads(out)
        ok = code == 0 and checks.measure_of(report["ur_prior"]) == chain.expected
        if family == "check-chain":
            ok = ok and report["h1"] == 0
    print(json.dumps({"seconds": seconds, "raised": False, "exit_code": code, "correct": ok}))


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def sweep(seed: int) -> list[dict]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    workdir = WORK / f"sweep-p{os.getpid()}"
    rows = []
    for family, (size, unit, baselines) in FAMILIES.items():
        while _agents(family, size) <= MAX_AGENTS:
            limit = BASELINE_CAP_S if size in baselines else CAP_S
            row = {"family": family, "size": size, "unit": unit, "agents": _agents(family, size),
                   "cap_s": limit, "roadmap_s": baselines.get(size)}
            argv = [sys.executable, __file__, "--case", family, "--size", str(size), "--seed", str(seed),
                    "--workdir", str(workdir)]
            try:
                proc = subprocess.run(argv, capture_output=True, text=True, timeout=limit, env=env,
                                      cwd=ROOT, preexec_fn=_limit_memory)
            except subprocess.TimeoutExpired:
                row.update(status="capped", seconds=None, exit_code=None, message=f"killed after {limit:g} s")
            else:
                lines = proc.stdout.splitlines()
                child = json.loads(lines[-1]) if lines else {}
                failed = proc.returncode != 0 or child.get("raised") or not child.get("correct")
                stderr = proc.stderr.strip().splitlines()
                row.update(
                    status="failed" if failed else "ok",
                    seconds=child.get("seconds"),
                    exit_code=proc.returncode if child.get("raised") or proc.returncode else child.get("exit_code"),
                    message=stderr[-1] if stderr else ("output check failed" if failed else ""),
                )
            rows.append(row)
            secs = "-" if row["seconds"] is None else f"{row['seconds']:.3f}"
            quoted = "" if row["roadmap_s"] is None else f"  (ROADMAP {row['roadmap_s']} s)"
            print(f"{family:24s} {unit} {size:6d}  {row['status']:7s} {secs:>9s} s  "
                  f"exit {row['exit_code']}{quoted}  {row['message'][:90]}", flush=True)
            if row["status"] != "ok" or row["seconds"] > CAP_S:
                break
            size *= 2
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description="One-shot scaling sweep of urprior.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write the rows as JSON here")
    parser.add_argument("--case", choices=FAMILIES, help=argparse.SUPPRESS)
    parser.add_argument("--size", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "urprior" / "__init__.py").is_file():
        print(f"error: no urprior source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:1] = [str(SRC), str(ROOT)]
    if args.case:
        run_case(args.case, args.size, args.seed, Path(args.workdir))
        return 0
    try:
        rows = sweep(args.seed)
    finally:
        shutil.rmtree(WORK / f"sweep-p{os.getpid()}", ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if args.out:
        Path(args.out).write_text(json.dumps({"seed": args.seed, "cap_s": CAP_S, "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
