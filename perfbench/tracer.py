"""Spans and counts around the program's public functions, for the traced run.

The tracer wraps functions from outside the program: each wrapper is set
on the name where the caller looks it up at call time. ``netsim`` binds
``serialize_message`` at import and ``scenario`` binds ``verify_incoming``
the same way, so those names are patched in the importing module; methods
are patched on the ``Federation`` class. ``uninstall`` puts every original
back.

A span is ``(span_id, parent_id, name, start_s, end_s)`` on the
``time.perf_counter`` clock. A span's self time is its duration minus the
time its direct child spans cover; it is summed per span name as the
spans close, so per-layer totals need no second pass over the spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

CALL_FSM_TRANSITIONS = ("on_incoming_invite", "on_cancel", "on_bye", "on_response", "on_auto_answer")
CIVE_FEATURES = ("extract_features", "infer_state", "decide")

# Per-layer metrics: name -> unit. Every traced run reports all of them;
# a layer the workload does not reach reads 0.
PER_LAYER_UNITS = {
    "sip_core.serialize.calls": "count",
    "sip_core.serialize.self_s": "s",
    "sip_core.serialize.per_send": "ratio",
    "sip_core.parse.calls": "count",
    "sip_core.parse.self_s": "s",
    "sip_core.parse.per_row": "ratio",
    "call_fsm.transitions": "count",
    "call_fsm.self_s": "s",
    "netsim.send.calls": "count",
    "netsim.send.self_s": "s",
    "netsim.run.self_s": "s",
    "netsim.trace_rows": "count",
    "netsim.timers.set": "count",
    "netsim.timers.cancelled_share": "ratio",
    "netsim.write_trace.self_s": "s",
    "cive.verify.calls": "count",
    "cive.verify.self_s": "s",
    "cive.features.self_s": "s",
    "cive.legs.self_s": "s",
    "cive.legs.growth": "ratio",
    "scenario.build.self_s": "s",
    "scenario.run.self_s": "s",
    "cli.parse.self_s": "s",
    "tracing.overhead": "ratio",
}


class Tracer:
    """Records spans and counts for one pass at a time; ``reset`` starts a pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.federations: list = []
        self._stack: list[list] = []  # open spans: [span_id, child seconds]
        self._next_id = 0

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append(
                    (frame[0], parent[0] if parent else None, name, start, end)
                )
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]

        return traced

    def _counter(self, name: str, fn):
        # Read ``calls`` through the tracer: reset() replaces it.
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _track_federations(self, init):
        tracer = self

        @functools.wraps(init)
        def tracked_init(net, *args, **kwargs):
            init(net, *args, **kwargs)
            tracer.federations.append(net)

        return tracked_init

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- install / uninstall -------------------------------------------------

    def install(self, prog: SimpleNamespace) -> None:
        """Wrap every traced name of the program's modules."""
        span, patch = self._span, self._patch
        federation = prog.netsim.Federation
        patch(prog.netsim, "serialize_message",
              span("sip_core.serialize", prog.netsim.serialize_message))
        patch(prog.sip_core, "parse_message", span("sip_core.parse", prog.sip_core.parse_message))
        for fn in CALL_FSM_TRANSITIONS:
            patch(prog.call_fsm, fn, span("call_fsm.transition", getattr(prog.call_fsm, fn)))
        for method, name in (("send", "netsim.send"), ("run", "netsim.run"),
                             ("write_trace", "netsim.write_trace")):
            patch(federation, method, span(name, getattr(federation, method)))
        patch(federation, "set_timer", self._counter("netsim.timers.set", federation.set_timer))
        patch(federation, "cancel_timer",
              self._counter("netsim.timers.cancelled", federation.cancel_timer))
        patch(federation, "__init__", self._track_federations(federation.__init__))
        patch(prog.scenario, "verify_incoming",
              span("cive.verify_incoming", prog.scenario.verify_incoming))
        patch(prog.cive, "launch_verification", span("cive.verify", prog.cive.launch_verification))
        for fn in CIVE_FEATURES:
            patch(prog.cive, fn, span("cive.features", getattr(prog.cive, fn)))
        patch(prog.cive, "legs_from_trace_rows", span("cive.legs", prog.cive.legs_from_trace_rows))
        patch(prog.scenario, "build_federation", span("scenario.build", prog.scenario.build_federation))
        patch(prog.scenario, "run_scenario", span("scenario.run", prog.scenario.run_scenario))
        patch(prog.cli, "main", span("cli.main", prog.cli.main))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-pass results ------------------------------------------------------

    def pass_metrics(self, rows_read: int) -> dict[str, float]:
        """Per-layer figures of the pass just traced.

        ``rows_read`` is the number of trace rows the pass handed to
        ``cive-sim parse`` (0 when it parsed nothing).
        """
        calls, own = self.calls, self.self_s
        sends = calls["netsim.send"]
        timers = calls["netsim.timers.set"]
        return {
            "sip_core.serialize.calls": calls["sip_core.serialize"],
            "sip_core.serialize.self_s": own["sip_core.serialize"],
            "sip_core.serialize.per_send": calls["sip_core.serialize"] / sends if sends else 0.0,
            "sip_core.parse.calls": calls["sip_core.parse"],
            "sip_core.parse.self_s": own["sip_core.parse"],
            "sip_core.parse.per_row": calls["sip_core.parse"] / rows_read if rows_read else 0.0,
            "call_fsm.transitions": calls["call_fsm.transition"],
            "call_fsm.self_s": own["call_fsm.transition"],
            "netsim.send.calls": sends,
            "netsim.send.self_s": own["netsim.send"],
            "netsim.run.self_s": own["netsim.run"],
            "netsim.trace_rows": sum(len(net.trace) for net in self.federations),
            "netsim.timers.set": timers,
            "netsim.timers.cancelled_share": (
                calls["netsim.timers.cancelled"] / timers if timers else 0.0
            ),
            "netsim.write_trace.self_s": own["netsim.write_trace"],
            "cive.verify.calls": calls["cive.verify"],
            "cive.verify.self_s": own["cive.verify"],
            "cive.features.self_s": own["cive.features"],
            "cive.legs.self_s": own["cive.legs"],
            "scenario.build.self_s": own["scenario.build"],
            "scenario.run.self_s": own["scenario.run"],
            "cli.parse.self_s": own["cli.main"],
        }

    def span_rows(self, pass_id: str, spans: list) -> list[dict]:
        """JSON rows for the spans one pass recorded."""
        return [
            {"run": self.run_id, "pass": pass_id, "id": sid, "parent": parent,
             "name": name, "start_s": start, "end_s": end}
            for sid, parent, name, start, end in spans
        ]


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes."""
    if not passes:
        return {}
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def write_spans(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
