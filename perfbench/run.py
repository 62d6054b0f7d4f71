#!/usr/bin/env python3
"""cive-sim benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload matrix|federation|parse \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it benchmarks the ``src/cive_sim`` next to this
directory, single process and single thread. Set-up imports the program
afresh and makes the workload's inputs from ``--seed``; it is repeated
``SETUP_REPS`` times and its median is ``setup_s``. One untimed warm-up
pass then sets the reference outputs, and timed passes follow back to
back for ``--seconds`` seconds (a closed loop), each after a full garbage
collection. Every pass's output is checked; a pass that raises or fails a
check counts in ``failed`` and its timing is dropped.

A block of calibration units (``calibration.py``) runs before the first
set-up and pass and after each one. Each set-up and pass time is divided
by the mean unit time of the blocks on either side, which turns it into
reference seconds and takes out the drift of the machine's speed. The
gated metrics ``setup_s`` and ``work_per_s`` are in reference seconds;
the report also prints them in wall seconds (``wall_setup_s``,
``wall_work_per_s``), with the unit time (``cal_unit_ms``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the first third of the time
runs untraced and the rest traced, and the object holds the per-layer
metrics (see README.md). The result, with the machine, the Python version
and the program's revision, is also written to
``.perfbench_work/results/``; the spans of the last traced pass go to
``.perfbench_work/spans/``. Exit code: 0 when every output was correct,
1 when some was not, 2 when the program or its golden files are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path[:0] = [str(HERE), str(SRC)]

import tracer as tracing  # noqa: E402
from calibration import REF_UNIT_S, seconds_per_unit  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

SETUP_REPS = 7
MIN_PASSES = 3
PROGRAM_MODULES = ("sip_core", "call_fsm", "netsim", "cive", "scenario", "cli")
# Every --trace 0 run reports these. BENCHMARK.json gates the first three:
# they exist in every workload and, in reference seconds, stay steady from
# run to run. The rest are printed, not gated: the wall-clock figures and
# latency percentiles drift with the machine (see README.md), and with one
# sample per pass, p50 is the inverse of wall_work_per_s.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "wall_setup_s": "s",
    "wall_work_per_s": "1/s",
    "cal_unit_ms": "ms",
    "sample_ms_p50": "ms",
    "sample_ms_p99": "ms",
}
GATED = ("setup_s", "peak_rss_mb", "work_per_s")


class BenchError(Exception):
    """The checkout lacks what the benchmark needs."""


# -- the program under test ---------------------------------------------------


def load_program() -> SimpleNamespace:
    """Import ``cive_sim`` from the checkout afresh, as a new process would.

    Earlier imports of the package and of PyYAML are dropped first, so each
    set-up pays the whole import.
    """
    for name in list(sys.modules):
        if name.partition(".")[0] in ("cive_sim", "yaml"):
            del sys.modules[name]
    prog = SimpleNamespace(
        **{m: importlib.import_module(f"cive_sim.{m}") for m in PROGRAM_MODULES}
    )
    loaded = Path(prog.cli.__file__).resolve().parent
    if loaded != SRC / "cive_sim":
        raise BenchError(f"imported cive_sim from {loaded}, not from {SRC}")
    return prog


def source_identity() -> dict:
    """The commit, when the checkout is a git work tree, and a digest of the
    program's sources, which identifies the code either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "cive_sim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
            if commit is None and (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def machine_identity() -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


# -- measuring -----------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def checked_pass(workload, tally: Tally, size: str = "full"):
    """Run and check one pass; returns its PassResult, or None if it failed."""
    tally.attempted += 1
    try:
        result = workload.run_pass(size)
        errors = workload.check(result.output, size)
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        errors = [f"{type(exc).__name__}: {exc}"]
    else:
        result.output = None  # checked; free it before the next pass
    if errors:
        tally.failed += 1
        tally.errors.extend(errors[: 10 - len(tally.errors)])
        return None
    return result


def timed_passes(workload, tally: Tally, seconds: float, size: str = "full") -> list:
    """Closed loop: passes back to back until ``seconds`` have passed, each
    between two calibration blocks; sets each result's ``unit_s``."""
    results = []
    deadline = time.perf_counter() + seconds
    attempts = 0
    before = seconds_per_unit(workload.cal_units)
    while attempts < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        attempts += 1
        result = checked_pass(workload, tally, size)
        after = seconds_per_unit(workload.cal_units)
        if result is not None:
            result.unit_s = (before + after) / 2
            results.append(result)
        before = after
    return results


def set_up(workload, seed: int, traced: bool) -> tuple[list, SimpleNamespace]:
    """Import the program and make the inputs ``SETUP_REPS`` times, each
    between two calibration blocks; returns (wall seconds, unit seconds)
    of every set-up and the program as imported by the last one."""
    times = []
    before = seconds_per_unit(workload.cal_units)
    for _ in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        prog = load_program()
        workload.setup(prog, seed, traced)
        seconds = time.perf_counter() - start
        after = seconds_per_unit(workload.cal_units)
        times.append((seconds, (before + after) / 2))
        before = after
    return times, prog


def reference_seconds(timings) -> float:
    """Median over (wall seconds, unit seconds) pairs of the time in
    reference seconds."""
    return REF_UNIT_S * statistics.median(s / u for s, u in timings)


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def end_to_end(workload, tally: Tally, seconds: float, setups: list) -> tuple[dict, dict]:
    checked_pass(workload, tally)  # warm-up; sets the reference outputs
    results = timed_passes(workload, tally, seconds)
    samples = [s for r in results for s in r.samples]
    if not results:
        metrics = dict.fromkeys(END_TO_END_UNITS, 0.0)
    else:
        metrics = {
            "work_per_s": workload.items
            / reference_seconds((r.seconds, r.unit_s) for r in results),
            "wall_work_per_s": workload.items / statistics.median(r.seconds for r in results),
            "cal_unit_ms": 1000 * statistics.median(r.unit_s for r in results),
            "sample_ms_p50": 1000 * statistics.median(samples),
            "sample_ms_p99": 1000 * p99(samples),
        }
    metrics["setup_s"] = reference_seconds(setups)
    metrics["wall_setup_s"] = statistics.median(s for s, _ in setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = {"passes": len(results), "samples": len(samples),
              "items_per_pass": workload.items}
    return {name: metrics[name] for name in END_TO_END_UNITS}, counts


def per_layer(workload, prog, tally: Tally, seconds: float, run_id: str) -> tuple[dict, dict, list]:
    """Untraced passes for a third of the time, then traced passes.

    Per-layer figures are medians over traced passes of the full input.
    The parse workload alternates full- and half-size traces so that
    ``cive.legs.growth`` compares the two from the same seed.
    """
    checked_pass(workload, tally)
    untraced = timed_passes(workload, tally, seconds / 3)
    sizes = workload.traced_sizes
    traced = {size: [] for size in sizes}
    spans: dict[str, tuple[str, list]] = {}
    tracer = tracing.Tracer(run_id)
    tracer.install(prog)
    try:
        deadline = time.perf_counter() + seconds * 2 / 3
        rounds = 0
        while rounds < MIN_PASSES or time.perf_counter() < deadline:
            rounds += 1
            for size in sizes:
                tracer.reset()
                gc.collect()
                result = checked_pass(workload, tally, size)
                if result is None:
                    continue
                spans[size] = (f"{size}-{len(traced[size])}", tracer.spans)
                traced[size].append(
                    (result.seconds, tracer.pass_metrics(workload.rows_read(size)))
                )
    finally:
        tracer.uninstall()
        tracer.reset()
    full = traced["full"]
    metrics = dict.fromkeys(tracing.PER_LAYER_UNITS, 0.0)
    metrics.update(tracing.median_metrics([m for _, m in full]))
    if "half" in traced and traced["half"] and full:
        half_legs = statistics.median(m["cive.legs.self_s"] for _, m in traced["half"])
        metrics["cive.legs.growth"] = metrics["cive.legs.self_s"] / half_legs
    if full and untraced:
        metrics["tracing.overhead"] = (
            statistics.median(s for s, _ in full)
            / statistics.median(r.seconds for r in untraced)
        )
    counts = {"untraced_passes": len(untraced),
              **{f"traced_passes_{size}": len(v) for size, v in traced.items()}}
    span_rows = [row for size in sizes if size in spans
                 for row in tracer.span_rows(*spans[size])]
    return {name: metrics[name] for name in tracing.PER_LAYER_UNITS}, counts, span_rows


# -- reporting -------------------------------------------------------------------

_HUMAN_NAMES = {
    "matrix": {"work_per_s": "cells_per_s", "wall_work_per_s": "wall_cells_per_s",
               "sample_ms_p50": "cell_ms_p50", "sample_ms_p99": "cell_ms_p99"},
    "federation": {"work_per_s": "calls_per_s", "wall_work_per_s": "wall_calls_per_s",
                   "sample_ms_p50": "pass_ms_p50", "sample_ms_p99": "pass_ms_p99"},
    "parse": {"work_per_s": "parse_rows_per_s", "wall_work_per_s": "wall_parse_rows_per_s",
              "sample_ms_p50": "pass_ms_p50", "sample_ms_p99": "pass_ms_p99"},
}


def print_report(record: dict) -> None:
    names = _HUMAN_NAMES[record["workload"]]
    units = tracing.PER_LAYER_UNITS if record["trace"] else END_TO_END_UNITS
    print(f"# cive-sim benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} seconds={record['seconds']}")
    print(f"# machine: {json.dumps(record['machine'])}")
    print(f"# program: {json.dumps(record['program'])}")
    print(f"# counts: {json.dumps(record['counts'])}")
    for name, value in record["metrics"].items():
        shown = names.get(name, name)
        alias = f" ({name})" if shown != name else ""
        print(f"{shown:<32} {value:>14.6g} {units[name]}{alias}")
    print(f"{'error_rate':<32} {record['error_rate']:>14.6g} failed/attempted "
          f"({record['failed']}/{record['attempted']})")
    for error in record["errors"]:
        print(f"# error: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "cive_sim" / "__init__.py").is_file():
            raise BenchError(f"no program at {SRC / 'cive_sim'}")
        WORK.mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=WORK))
        try:
            workload = make_workload(args.workload, ROOT, run_dir)
            setups, prog = set_up(workload, args.seed, bool(args.trace))
            tally = Tally()
            run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
            if args.trace:
                metrics, counts, spans = per_layer(workload, prog, tally, args.seconds, run_id)
                tracing.write_spans(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl",
                                    spans)
            else:
                metrics, counts = end_to_end(workload, tally, args.seconds, setups)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except (BenchError, FileNotFoundError, ModuleNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_identity(),
        "program": source_identity(),
        "counts": counts,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.error_rate,
        "errors": tally.errors,
    }
    print_report(record)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if args.trace or name in GATED},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
