"""The four benchmark workloads: inputs, one op, and the op's output check.

A workload is built from a seed inside a scratch directory. ``run`` is
the timed op; it reaches urprior only through attributes of the module
objects it was given, looked up at call time, so the tracer can wrap
them. ``check`` raises CheckFailed on a wrong output and ``digest``
gives the bytes that the traced run must reproduce exactly.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Sequence

from bench import checks, generators
from bench.checks import require

CliCall = tuple[int, str]


def run_cli(main: Callable[[Sequence[str]], int], argv: list[str]) -> CliCall:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _pair_overlap_frac(supports: list[set[str]]) -> float:
    pairs = [(a, b) for i, a in enumerate(supports) for b in supports[i + 1 :]]
    return sum(1 for a, b in pairs if a & b) / len(pairs) if pairs else 0.0


def _write(path: Path, payload: Any) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path)


class Workload:
    """Base class; subclasses fill ``items`` (one per distinct input) in __init__."""

    name = ""
    items: list[Any]

    def __init__(self, lib: SimpleNamespace, workdir: Path, seed: int) -> None:
        self.lib = lib
        self.rng = random.Random(f"{self.name}/{seed}")

    def run(self, item: Any) -> Any:
        raise NotImplementedError

    def check(self, item: Any, record: Any) -> None:
        raise NotImplementedError

    def digest(self, item: Any, record: Any) -> bytes:
        return repr(record).encode()

    def output_bytes(self, record: Any) -> int:
        return sum(len(out.encode()) for _, out in record)

    def output_bits(self, item: Any, record: Any) -> int:
        return max(checks.max_bits(json.loads(out)) for _, out in record)

    def pair_overlap_frac(self) -> float:
        """Mean share of agent pairs that share an outcome; items end with their pmfs."""
        return sum(_pair_overlap_frac([set(p) for p in item[-1].values()]) for item in self.items) / len(
            self.items
        )


class ChainCheck(Workload):
    """CLI ``check --json`` on 16-agent window-4 chains (X = [16, 42, 40], H^1 = 0)."""

    name = "chain-check"
    AGENTS, INPUTS = 16, 4

    def __init__(self, lib: SimpleNamespace, workdir: Path, seed: int) -> None:
        super().__init__(lib, workdir, seed)
        self.items = []
        for k in range(self.INPUTS):
            chain = generators.chain_system(self.rng, self.AGENTS)
            path = _write(workdir / f"chain-{k}.json", chain.raw)
            self.items.append((path, chain, checks.pmfs_of(chain.raw)))

    def run(self, item: Any) -> list[CliCall]:
        return [run_cli(self.lib.cli.main, ["check", item[0], "--json"])]

    def check(self, item: Any, record: list[CliCall]) -> None:
        _, chain, _ = item
        (code, out), = record
        report = json.loads(out)
        n = self.AGENTS
        require(code == 0, f"exit code {code}, expected 0")
        require(report["verdict"] == "exists", "verdict is not 'exists'")
        require(checks.measure_of(report["ur_prior"]) == chain.expected,
                "ur-prior differs from the hidden measure")
        require(report["h1"] == 0 and report["components"] == 1, "expected h1 0 and one component")
        require(report["complex"]["counts"] == [n, 3 * n - 6, 3 * n - 8], "wrong simplex counts")
        require(report["pairwise"] == {"compatible": True, "violations": []}, "pairwise not clean")
        require(report["asymmetries"] == [] and report["certificate"] is None, "unexpected certificate")


class AnnulusRoundtrip(Workload):
    """``counterexample`` on an m=6 annulus, then ``check`` on its system, then ``cohomology``."""

    name = "annulus-roundtrip"
    M, INPUTS = 6, 16  # the cost of an op follows its vertex order; 16 orders average that out

    def __init__(self, lib: SimpleNamespace, workdir: Path, seed: int) -> None:
        super().__init__(lib, workdir, seed)
        self.items = []
        for k in range(self.INPUTS):
            cx = generators.annulus_complex(self.rng, self.M)
            path = _write(workdir / f"annulus-{k}.json", cx)
            self.items.append((path, str(workdir / f"annulus-{k}-system.json"), cx))

    def run(self, item: Any) -> list[CliCall]:
        cx_path, sys_path, _ = item
        main = self.lib.cli.main
        return [
            run_cli(main, ["counterexample", cx_path, "--output", sys_path]),
            run_cli(main, ["check", sys_path, "--json"]),
            run_cli(main, ["cohomology", cx_path, "--dim", "1", "--json"]),
        ]

    def digest(self, item: Any, record: list[CliCall]) -> bytes:
        return repr(record).encode() + Path(item[1]).read_bytes()

    def output_bits(self, item: Any, record: list[CliCall]) -> int:
        emitted = json.loads(Path(item[1]).read_text())
        return max(checks.max_bits(emitted), *(checks.max_bits(json.loads(o)) for _, o in record[1:]))

    def check(self, item: Any, record: list[CliCall]) -> None:
        _, sys_path, cx = item
        codes = tuple(code for code, _ in record)
        require(codes == (0, 1, 0), f"exit codes {codes}, expected (0, 1, 0)")
        pmfs = checks.pmfs_of(json.loads(Path(sys_path).read_text()))
        require(checks.overlap_simplices(pmfs, 3) == checks.facet_simplices(cx["vertices"], cx["facets"]),
                "the emitted system's overlap complex is not the input complex")
        report = json.loads(record[1][1])
        require(report["verdict"] == "none" and report["pairwise"]["compatible"],
                "emitted system should be pairwise compatible with no ur-prior")
        require(report["h1"] == 1, "check reports h1 != 1")
        cert = report["certificate"]
        require(cert is not None and cert["kind"] == "cycle_holonomy", "certificate is not a cycle holonomy")
        reason = checks.certificate_error(pmfs, cert)
        require(reason is None, f"certificate: {reason}")
        cohomology = json.loads(record[2][1])
        m = self.M
        require(cohomology["h"] == 1 and cohomology["counts"] == [2 * m, 4 * m, 2 * m], "cohomology is off")

    def pair_overlap_frac(self) -> float:
        # Agents of the emitted system share an outcome exactly when their vertices span an edge.
        m = self.M
        return 4 * m / (m * (2 * m - 1))


class ChainDecide(Workload):
    """Library validate -> decide_urprior -> feasibility_oracle on 128-agent ratio-1000 chains."""

    name = "chain-decide"
    AGENTS, INPUTS, GROWTH = 128, 4, 1000

    def __init__(self, lib: SimpleNamespace, workdir: Path, seed: int) -> None:
        super().__init__(lib, workdir, seed)
        self.items = []
        for k in range(self.INPUTS):
            chain = generators.chain_system(self.rng, self.AGENTS, growth=self.GROWTH, plant=k % 4 == 3)
            self.items.append((chain, checks.pmfs_of(chain.raw)))

    def run(self, item: Any) -> tuple[Any, Any]:
        system = self.lib.credence.validate(item[0].raw)
        return self.lib.compat.decide_urprior(system), self.lib.oracle.feasibility_oracle(system)

    def check(self, item: Any, record: tuple[Any, Any]) -> None:
        chain, pmfs = item
        result, oracle = record
        if chain.expected is not None:
            require(result.verdict == "exists", "verdict is not 'exists'")
            require(result.measure == chain.expected, "measure differs from the hidden one")
            require(oracle == chain.expected, "oracle measure differs from the hidden one")
            return
        require(result.verdict == "none" and oracle is None, "planted violation not reported by both")
        cert = result.certificate
        require(hasattr(cert, "conditional_left"), "certificate is not a pairwise violation")
        require(chain.raw["agents"][chain.planted]["name"] in cert.pair, "violation misses the planted agent")
        reason = checks.certificate_error(pmfs, {
            "kind": "pairwise_violation",
            "pair": list(cert.pair),
            "outcome": cert.outcome,
            "conditional_left": cert.conditional_left,
            "conditional_right": cert.conditional_right,
        })
        require(reason is None, f"certificate: {reason}")

    def digest(self, item: Any, record: tuple[Any, Any]) -> bytes:
        result, oracle = record
        measure = None if result.measure is None else sorted((x, str(v)) for x, v in result.measure.items())
        oracle = None if oracle is None else sorted((x, str(v)) for x, v in oracle.items())
        return repr((result.verdict, measure, result.certificate, oracle)).encode()

    def output_bytes(self, record: Any) -> int:
        return 0

    def output_bits(self, item: Any, record: tuple[Any, Any]) -> int:
        result, oracle = record
        return max(checks.max_bits(result.measure or {}), checks.max_bits(oracle or {}))


class SmallMix(Workload):
    """CLI ``check --json`` then ``oracle --json`` on systems of at most 6 agents and 8 outcomes."""

    name = "small-mix"
    INPUTS = 64  # every set-up writes one file per input, and file writes are its least steady part

    def __init__(self, lib: SimpleNamespace, workdir: Path, seed: int) -> None:
        super().__init__(lib, workdir, seed)
        self.items = []
        for k in range(self.INPUTS):
            # Sizes cycle through the allowed range, so every seed gets the same size mix.
            if k % 2:
                small = generators.conditioned_system(self.rng, 2 + k // 2 % 5, 3 + k // 10 % 6)
            else:
                small = generators.random_system(self.rng, 1 + k // 2 % 6, 2 + k // 12 % 7)
            path = _write(workdir / f"small-{k}.json", small.raw)
            self.items.append((path, small, checks.pmfs_of(small.raw)))

    def run(self, item: Any) -> list[CliCall]:
        main = self.lib.cli.main
        return [run_cli(main, ["check", item[0], "--json"]), run_cli(main, ["oracle", item[0], "--json"])]

    def check(self, item: Any, record: list[CliCall]) -> None:
        _, small, pmfs = item
        (code, out), (oracle_code, oracle_out) = record
        require(code in (0, 1) and code == oracle_code, f"check exit {code} vs oracle exit {oracle_code}")
        if small.feasible:
            require(code == 0, "a conditioned system was refused")
        report, oracle = json.loads(out), json.loads(oracle_out)
        if code == 0:
            for measure in (report["ur_prior"], oracle["ur_prior"]):
                reason = checks.conditioning_error(pmfs, checks.measure_of(measure))
                require(reason is None, f"ur-prior does not condition back: {reason}")
        else:
            require(report["verdict"] == "none" and oracle["verdict"] == "none", "verdicts disagree with exit code")
            reason = checks.certificate_error(pmfs, report["certificate"])
            require(reason is None, f"certificate: {reason}")


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ChainCheck, AnnulusRoundtrip, ChainDecide, SmallMix)
}
