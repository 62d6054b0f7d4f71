"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the checks that decide whether a pass's output is correct.

Every workload drives the program through its public API only. A pass is
one closed-loop unit of work: the next pass starts when the previous one
has ended. Each workload reports the wall time of every sample it takes
and the number of work items one pass completes.

    matrix      the 20 golden cells, as ``cive-sim matrix --out DIR`` runs them
    federation  one seeded federation of 2,000 concurrent calls, in memory
    parse       ``cive-sim parse`` over a seeded trace of 1,000 calls
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

# -- seeded call population --------------------------------------------------

# (carrier id, enforces caller ID); only the last carrier enforces.
CARRIERS = (("cn-a", False), ("cn-b", False), ("cn-s", True))
JITTER_MS = 20
ARRIVAL_SPREAD_MS = 5_000
# Preset state of each call's target; idle appears twice so it is the
# most common state.
TARGET_STATES = ("idle", "idle", "connected", "held", "dialing")


@dataclass(frozen=True)
class Subscriber:
    number: str
    carrier: int
    call_waiting: bool
    voicemail_forward: bool


@dataclass(frozen=True)
class Call:
    originator: str
    claimed: str
    target: str
    target_state: str
    peer: str
    at_ms: int

    @property
    def spoofed(self) -> bool:
        return self.claimed != self.originator


@dataclass(frozen=True)
class Population:
    """Subscribers and originations of one seeded federation.

    Each call has its own originator, target and third party (the peer),
    so no two calls share a phone: the peer is the party the target is
    preset to be busy with, and the number a spoofed call claims.
    """

    seed: int
    subscribers: tuple[Subscriber, ...]
    calls: tuple[Call, ...]

    @property
    def expected_violations(self) -> int:
        carrier = {s.number: s.carrier for s in self.subscribers}
        return sum(
            1 for c in self.calls if c.spoofed and CARRIERS[carrier[c.originator]][1]
        )


def make_population(seed: int, n_calls: int) -> Population:
    """Three subscribers per call, half the originations spoofed, arrivals
    spread over ``ARRIVAL_SPREAD_MS`` of simulated time. The seed also
    drives the federation's link jitter."""
    rng = random.Random(seed)
    numbers = [f"+1555{n:07d}" for n in rng.sample(range(10_000_000), 3 * n_calls)]
    subscribers = tuple(
        Subscriber(n, rng.randrange(len(CARRIERS)), rng.random() < 0.5, rng.random() < 0.5)
        for n in numbers
    )
    calls = []
    for i in range(n_calls):
        originator, target, peer = numbers[3 * i : 3 * i + 3]
        state = rng.choice(TARGET_STATES)
        spoofed = rng.random() < 0.5
        calls.append(
            Call(
                originator=originator,
                claimed=peer if spoofed else originator,
                target=target,
                target_state=state,
                peer=peer,
                at_ms=rng.randrange(ARRIVAL_SPREAD_MS),
            )
        )
    return Population(seed, subscribers, tuple(calls))


def build_federation(prog: SimpleNamespace, pop: Population):
    """Register the population and schedule every origination.

    Returns the federation and the call ids ``originate_call`` handed out.
    """
    netsim, call_fsm, PhoneNumber = prog.netsim, prog.call_fsm, prog.sip_core.PhoneNumber
    net = netsim.Federation(seed=pop.seed)
    for carrier_id, enforce in CARRIERS:
        net.add_carrier(
            carrier_id, netsim.GatewayPolicy(enforce_caller_id=enforce, jitter_ms=JITTER_MS)
        )
    for s in pop.subscribers:
        net.register_subscriber(
            CARRIERS[s.carrier][0],
            s.number,
            call_fsm.CalleeProfile(
                number=PhoneNumber(s.number),
                call_waiting=s.call_waiting,
                voicemail_forward=s.voicemail_forward,
            ),
        )
    preset = {"connected": call_fsm.Connected, "held": call_fsm.Held, "dialing": call_fsm.Dialing}
    for c in pop.calls:
        if c.target_state in preset:
            net.lines[c.target].preset_state(preset[c.target_state](PhoneNumber(c.peer)))
    call_ids = [
        net.originate_call(c.claimed, net.lines[c.originator], c.target, at_ms=c.at_ms)
        for c in pop.calls
    ]
    return net, call_ids


# -- workloads -----------------------------------------------------------------


@dataclass
class PassResult:
    seconds: float  # wall time of the whole pass
    samples: list[float]  # wall time of each sample the pass took
    output: object  # what the workload's check reads
    unit_s: float = 0.0  # calibration unit time around the pass, set by run.py


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class MatrixWorkload:
    """``scenario.run_matrix`` with an output directory; one sample per cell.

    Every pass writes into the same directory, as a user who re-runs
    ``cive-sim matrix --out DIR`` does, so files are overwritten rather
    than created and unlinked: on a shared disk, creating and unlinking
    40 files varied fivefold in cost from second to second, while
    overwriting them held within a third. Before each pass, outside the
    timer, every file's mtime is set to 0, and the check fails any file
    the pass did not write again.
    """

    traced_sizes = ("full",)
    cal_units = 10  # calibration units per block: about half a pass

    def __init__(self, root: Path, run_dir: Path):
        self.golden = (root / "tests" / "golden" / "matrix.csv").read_text(encoding="utf-8")
        self.out_dir = run_dir / "matrix"
        self.reference: dict[str, str] | None = None
        self._cell_times: list[float] = []

    def setup(self, prog: SimpleNamespace, seed: int, traced: bool) -> None:
        # The cells are fixed: the seed does not change this workload.
        self.prog = prog
        self.items = len(prog.scenario.matrix_scenarios())
        # run_matrix looks run_scenario up in its module at each call, so
        # a wrapper there times every cell exactly as run_matrix runs it.
        run_scenario = prog.scenario.run_scenario
        times = self._cell_times

        def timed_run_scenario(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_scenario(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - start)

        prog.scenario.run_scenario = timed_run_scenario

    def rows_read(self, size: str = "full") -> int:
        return 0

    def _written(self) -> list[Path]:
        if not self.out_dir.is_dir():
            return []
        return sorted(p for p in self.out_dir.rglob("*") if p.is_file())

    def run_pass(self, size: str = "full") -> PassResult:
        for path in self._written():
            os.utime(path, ns=(0, 0))
        self._cell_times.clear()
        start = time.perf_counter()
        result = self.prog.scenario.run_matrix(self.out_dir)
        seconds = time.perf_counter() - start
        return PassResult(seconds, list(self._cell_times), result)

    def check(self, result, size: str = "full") -> list[str]:
        errors = []
        stale = [p.name for p in self._written() if p.stat().st_mtime_ns == 0]
        if stale:
            errors.append(f"{len(stale)} files under --out not written again: {stale[:3]}")
        if result.to_csv() != self.golden:
            errors.append("matrix rows differ from tests/golden/matrix.csv")
        if result.spoofed_judged_legit != 0:
            errors.append(f"{result.spoofed_judged_legit} spoofed cells judged Legit")
        csv_path = self.out_dir / "matrix.csv"
        if not csv_path.is_file() or csv_path.read_text(encoding="utf-8") != self.golden:
            errors.append("matrix.csv written under --out differs from the golden file")
        files = {
            p.name: _digest(p.read_bytes()) for p in sorted((self.out_dir / "cells").iterdir())
        }
        if len(files) != 2 * self.items:
            errors.append(f"expected {2 * self.items} cell files, found {len(files)}")
        if self.reference is None:
            self.reference = files
        elif files != self.reference:
            changed = sorted(k for k in files.keys() | self.reference.keys()
                             if files.get(k) != self.reference.get(k))
            errors.append(f"cell files differ from the first pass: {changed[:3]}")
        return errors


class FederationWorkload:
    """Build one seeded federation and drain it in memory; one sample per pass."""

    traced_sizes = ("full",)
    cal_units = 200  # calibration units per block: about half a pass

    def __init__(self, n_calls: int = 2_000):
        self.n_calls = n_calls
        self.reference: str | None = None

    def setup(self, prog: SimpleNamespace, seed: int, traced: bool) -> None:
        self.prog = prog
        self.pop = make_population(seed, self.n_calls)
        self.items = self.n_calls

    def rows_read(self, size: str = "full") -> int:
        return 0

    def run_pass(self, size: str = "full") -> PassResult:
        start = time.perf_counter()
        net, _ = build_federation(self.prog, self.pop)
        net.run_until_quiescent()
        seconds = time.perf_counter() - start
        return PassResult(seconds, [seconds], net)

    def check(self, net, size: str = "full") -> list[str]:
        errors = []
        hops = Counter()
        for row in net.trace:
            hops[(row["from_hop"], row["to_hop"], row["sip"])] += (
                1 if row["dir"] == "egress" else -1
            )
        unpaired = sum(1 for n in hops.values() if n)
        if unpaired:
            errors.append(f"{unpaired} messages without exactly one ingress per egress row")
        expected = self.pop.expected_violations
        if len(net.policy_violations) != expected:
            errors.append(
                f"{len(net.policy_violations)} policy violations, expected {expected}"
            )
        digest = _digest(json.dumps(net.trace).encode())
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            errors.append("trace digest differs from the first pass with the same seed")
        return errors


class ParseWorkload:
    """``cive-sim parse`` over a trace generated from the seed; one sample per pass.

    The traced run also parses a half-size trace from the same seed, so the
    growth of leg reconstruction with trace size can be measured.
    """

    traced_sizes = ("full", "half")
    cal_units = 500  # calibration units per block: about half a pass

    def __init__(self, run_dir: Path, n_calls: int = 1_000):
        self.run_dir = run_dir
        self.sizes = {"full": n_calls, "half": n_calls // 2}
        self.reference: dict[str, str] = {}

    def setup(self, prog: SimpleNamespace, seed: int, traced: bool) -> None:
        self.prog = prog
        self.inputs = {}
        for size in self.traced_sizes if traced else ("full",):
            net, call_ids = build_federation(prog, make_population(seed, self.sizes[size]))
            net.run_until_quiescent()
            path = self.run_dir / f"parse-{size}.trace.jsonl"
            net.write_trace(path)
            self.inputs[size] = SimpleNamespace(
                path=path, rows=len(net.trace), call_ids=set(call_ids)
            )
        self.items = self.inputs["full"].rows

    def rows_read(self, size: str = "full") -> int:
        return self.inputs[size].rows

    def run_pass(self, size: str = "full") -> PassResult:
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out):
            code = self.prog.cli.main(["parse", str(self.inputs[size].path)])
        seconds = time.perf_counter() - start
        return PassResult(seconds, [seconds], (code, out.getvalue()))

    def check(self, output, size: str = "full") -> list[str]:
        code, text = output
        errors = []
        if code != 0:
            errors.append(f"cive-sim parse exited {code}")
        legs = [json.loads(line) for line in text.splitlines()]
        expected = self.inputs[size].call_ids
        if len(legs) != len(expected) or {leg["call_id"] for leg in legs} != expected:
            errors.append(f"{len(legs)} legs for {len(expected)} originations")
        digest = _digest(text.encode())
        if size not in self.reference:
            self.reference[size] = digest
        elif digest != self.reference[size]:
            errors.append("parse output differs from the first pass")
        return errors


def make_workload(name: str, root: Path, run_dir: Path):
    if name == "matrix":
        return MatrixWorkload(root, run_dir)
    if name == "federation":
        return FederationWorkload()
    if name == "parse":
        return ParseWorkload(run_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("matrix", "federation", "parse")
