"""Scenario definitions, the batch runner, and verdict-vs-truth reporting.

A scenario file (``.scn``, YAML) declares carriers, parties with their
initial states and features, one call origination (possibly spoofed), and
the ground truth label. Schema:

    name: c2                 # letters, digits, . _ -; starts with a letter or digit
    description: optional free text
    seed: 0                  # optional, default 0
    cive: true               # run verification when the target rings
    ground_truth: spoofed    # spoofed | genuine
    carriers:
      - id: cn-a
        enforce_caller_id: false
        link_delay_ms: 50    # optional
        jitter_ms: 0         # optional
    parties:
      - number: "+15550100"
        carrier: cn-a
        call_waiting: false      # optional
        voicemail_forward: false # optional
        state: idle              # idle | dialing | connected | held
        peer: "+15550102"        # required for non-idle states
    origination:
      originator: "+15559900"
      claimed: "+15550100"
      target: "+15550101"
      at_ms: 0               # optional

Ground truth must be consistent with the origination: a claimed From that
differs from the originator's own number is spoofed, same number is
genuine. Every referenced number must be registered by some party.

Outputs per run: ``<name>.trace.jsonl`` (the federation event log) and
``<name>.report.json`` (verdict, match, display). The matrix command runs
the full deterministic grid of callee states x features x origination and
writes ``matrix.csv`` with fixed columns
``scenario,a_state,cw,vm,origination,inferred,verdict,truth,match``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import yaml

from . import cive
from .call_fsm import CalleeProfile, CallPhase, Connected, Dialing, Held
from .cive import (
    Decision,
    IncomingCallContext,
    Verdict,
    verify_incoming,
)
from .netsim import Federation, GatewayPolicy, PhoneLine, write_file
from .sip_core import PhoneNumber


class ScenarioError(Exception):
    pass


class ScenarioParseError(ScenarioError):
    pass


class ScenarioValidationError(ScenarioError):
    pass


class GroundTruth(str, Enum):
    GENUINE = "genuine"
    SPOOFED = "spoofed"


# The party states besides idle, each with the call_fsm state it presets.
_PRESET_STATES = {"dialing": Dialing, "connected": Connected, "held": Held}
_PARTY_STATES = ("idle", *_PRESET_STATES)
# A scenario name names its --out files, so it must be a plain, visible file
# name: no path separator, no NUL, no leading dot.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


@dataclass(frozen=True)
class CarrierSpec:
    id: str
    enforce_caller_id: bool = False
    link_delay_ms: int = GatewayPolicy.link_delay_ms
    jitter_ms: int = GatewayPolicy.jitter_ms

    def policy(self) -> GatewayPolicy:
        """This carrier's gateway policy; ValueError names a negative timing value."""
        return GatewayPolicy(self.enforce_caller_id, self.link_delay_ms, self.jitter_ms)


@dataclass(frozen=True)
class PartySpec:
    number: PhoneNumber
    carrier: str
    call_waiting: bool = False
    voicemail_forward: bool = False
    state: str = "idle"
    peer: PhoneNumber | None = None


@dataclass(frozen=True)
class OriginationSpec:
    originator: PhoneNumber
    claimed: PhoneNumber
    target: PhoneNumber
    at_ms: int = 0


@dataclass(frozen=True)
class Scenario:
    name: str
    carriers: tuple[CarrierSpec, ...]
    parties: tuple[PartySpec, ...]
    origination: OriginationSpec
    cive_enabled: bool = True
    seed: int = 0
    ground_truth: GroundTruth = GroundTruth.GENUINE
    description: str = ""

    def validate(self) -> None:
        if _NAME_RE.fullmatch(self.name) is None:
            raise ScenarioValidationError(
                f"name {self.name!r} must be a plain file name: letters, digits, '.', '_'"
                " and '-', starting with a letter or digit"
            )
        numbers = [p.number for p in self.parties]
        if len(set(numbers)) != len(numbers):
            raise ScenarioValidationError("duplicate party numbers")
        carrier_ids = {c.id for c in self.carriers}
        if len(carrier_ids) != len(self.carriers):
            raise ScenarioValidationError("duplicate carrier ids")
        for c in self.carriers:
            try:
                c.policy()
            except ValueError as exc:
                raise ScenarioValidationError(f"carrier {c.id}: {exc}") from None
        registered = set(numbers)
        for p in self.parties:
            if p.carrier not in carrier_ids:
                raise ScenarioValidationError(f"party {p.number}: unknown carrier {p.carrier}")
            if p.state not in _PARTY_STATES:
                raise ScenarioValidationError(f"party {p.number}: bad state {p.state!r}")
            if p.state != "idle":
                if p.peer is None:
                    raise ScenarioValidationError(f"party {p.number}: state {p.state} needs a peer")
                if p.peer not in registered:
                    raise ScenarioValidationError(f"party {p.number}: peer {p.peer} not registered")
        o = self.origination
        for role, num in (("originator", o.originator), ("claimed", o.claimed), ("target", o.target)):
            if num not in registered:
                raise ScenarioValidationError(f"origination {role} {num} not registered")
        if o.at_ms < 0:
            raise ScenarioValidationError("origination at_ms must be >= 0")
        spoofed = o.claimed != o.originator
        if spoofed and self.ground_truth is not GroundTruth.SPOOFED:
            raise ScenarioValidationError(
                "claimed differs from originator but ground_truth is not spoofed"
            )
        if not spoofed and self.ground_truth is not GroundTruth.GENUINE:
            raise ScenarioValidationError(
                "claimed equals originator but ground_truth is not genuine"
            )


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioParseError(f"{where}: missing key {key!r}")
    return mapping[key]


def _flag(mapping: dict, key: str, default: bool, where: str) -> bool:
    """A YAML boolean; a quoted "false" must not load as True."""
    value = mapping.get(key, default)
    if not isinstance(value, bool):
        raise ScenarioParseError(f"{where}: {key} must be true or false, got {value!r}")
    return value


def _text(mapping: dict, key: str, where: str) -> str:
    """A required YAML string; an empty value must not load as "None"."""
    value = _require(mapping, key, where)
    if not isinstance(value, str):
        raise ScenarioParseError(f"{where}: {key} must be a string, got {value!r}")
    return value


def _integer(mapping: dict, key: str, default: int, where: str) -> int:
    """A YAML integer; a float or a boolean must not be truncated to one."""
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def _number(value, where: str) -> PhoneNumber:
    try:
        return PhoneNumber(str(value))
    except ValueError as exc:
        raise ScenarioValidationError(f"{where}: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate one ``.scn`` file."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ScenarioParseError(f"{path}: not UTF-8 text") from None
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # an integer too long for int(), deep nesting
        raise ScenarioParseError(f"{path}: unreadable value: {exc}") from None
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{path}: expected a mapping at top level")

    try:
        carriers = tuple(
            CarrierSpec(
                id=_text(c, "id", "carrier"),
                enforce_caller_id=_flag(c, "enforce_caller_id", False, "carrier"),
                link_delay_ms=_integer(c, "link_delay_ms", CarrierSpec.link_delay_ms, "carrier"),
                jitter_ms=_integer(c, "jitter_ms", CarrierSpec.jitter_ms, "carrier"),
            )
            for c in _require(raw, "carriers", path.name)
        )
        parties = tuple(
            PartySpec(
                number=_number(_require(p, "number", "party"), "party number"),
                carrier=_text(p, "carrier", "party"),
                call_waiting=_flag(p, "call_waiting", False, "party"),
                voicemail_forward=_flag(p, "voicemail_forward", False, "party"),
                state=str(p.get("state", "idle")),
                peer=_number(p["peer"], "party peer") if p.get("peer") is not None else None,
            )
            for p in _require(raw, "parties", path.name)
        )
        o = _require(raw, "origination", path.name)
        origination = OriginationSpec(
            originator=_number(_require(o, "originator", "origination"), "originator"),
            claimed=_number(_require(o, "claimed", "origination"), "claimed"),
            target=_number(_require(o, "target", "origination"), "target"),
            at_ms=_integer(o, "at_ms", 0, "origination"),
        )
        truth_raw = str(_require(raw, "ground_truth", path.name))
        try:
            truth = GroundTruth(truth_raw)
        except ValueError as exc:
            raise ScenarioValidationError(f"bad ground_truth: {truth_raw!r}") from exc
        scenario = Scenario(
            name=_text(raw, "name", path.name),
            carriers=carriers,
            parties=parties,
            origination=origination,
            cive_enabled=_flag(raw, "cive", True, path.name),
            seed=_integer(raw, "seed", 0, path.name),
            ground_truth=truth,
            description=str(raw.get("description", "")),
        )
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        raise ScenarioParseError(f"{path}: malformed scenario: {exc}") from exc
    scenario.validate()
    return scenario


@dataclass(frozen=True)
class RunReport:
    """Outcome of one scenario run, scored against its ground truth.

    ``match`` is True when (Legit <=> genuine); an Inconclusive verdict is
    a non-match with the ``inconclusive`` flag set. Runs without
    verification carry match=None.
    """

    scenario: str
    ground_truth: GroundTruth
    cive_enabled: bool
    seed: int
    b_display: PhoneNumber | None
    verdict: Verdict | None
    match: bool | None
    inconclusive: bool
    policy_violations: int
    sim_ms: int
    trace_file: str | None

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "ground_truth": self.ground_truth.value,
            "cive_enabled": self.cive_enabled,
            "seed": self.seed,
            "b_display": str(self.b_display) if self.b_display else None,
            "verdict": self.verdict.to_json_dict(self.trace_file) if self.verdict else None,
            "match": self.match,
            "inconclusive": self.inconclusive,
            "policy_violations": self.policy_violations,
            "sim_ms": self.sim_ms,
            "trace_file": self.trace_file,
        }


def build_federation(s: Scenario) -> Federation:
    """Materialize a scenario's carriers, parties and initial states."""
    net = Federation(seed=s.seed)
    for c in s.carriers:
        net.add_carrier(c.id, c.policy())
    for p in s.parties:
        line = net.register_subscriber(
            p.carrier,
            p.number,
            CalleeProfile(
                number=p.number,
                call_waiting=p.call_waiting,
                voicemail_forward=p.voicemail_forward,
            ),
        )
        if p.state in _PRESET_STATES:
            line.preset_state(_PRESET_STATES[p.state](p.peer))
    return net


def run_scenario(
    s: Scenario,
    out_dir: str | Path | None = None,
    *,
    seed: int | None = None,
    cive_enabled: bool | None = None,
) -> RunReport:
    """Run one scenario to quiescence and score the verdict.

    With verification enabled, the target line's first ring launches the
    callback, which then runs in the same event loop as the call it checks;
    the loop runs once, under the simulation budget, and the verdict is read
    at quiescence. Equal (scenario, seed) pairs produce byte-identical
    trace and report files. ``seed`` and ``cive_enabled``, when given,
    override the scenario's own values.
    """
    s.validate()
    s = replace(
        s,
        seed=s.seed if seed is None else seed,
        cive_enabled=s.cive_enabled if cive_enabled is None else cive_enabled,
    )
    net = build_federation(s)
    target_line: PhoneLine = net.lines[s.origination.target]

    def on_ring(invite, t_ms):
        target_line.ring_hook = None  # only the first ring is verified
        ctx = IncomingCallContext(
            claimed_id=invite.from_number,
            callee=target_line.number,
            in_call_id=invite.call_id,
            phase=CallPhase.RINGING,
            t_start=t_ms,
        )
        cive.launch_verification(net, ctx)

    if s.cive_enabled:
        target_line.ring_hook = on_ring
    net.originate_call(
        s.origination.claimed,
        net.lines[s.origination.originator],
        s.origination.target,
        at_ms=s.origination.at_ms,
    )
    net.run_until_quiescent()
    agent = target_line.verifier
    verdict = verify_incoming(agent)[0] if agent is not None else None

    match: bool | None = None
    inconclusive = False
    if verdict is not None:
        inconclusive = verdict.decision is Decision.INCONCLUSIVE
        match = not inconclusive and (
            (verdict.decision is Decision.LEGIT)
            == (s.ground_truth is GroundTruth.GENUINE)
        )

    trace_file = f"{s.name}.trace.jsonl" if out_dir is not None else None
    report = RunReport(
        scenario=s.name,
        ground_truth=s.ground_truth,
        cive_enabled=s.cive_enabled,
        seed=s.seed,
        b_display=target_line.display,
        verdict=verdict,
        match=match,
        inconclusive=inconclusive,
        policy_violations=len(net.policy_violations),
        sim_ms=net.now,
        trace_file=trace_file,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        net.write_trace(out / trace_file)
        write_file(out / f"{s.name}.report.json",
                   json.dumps(report.to_json_dict(), indent=2) + "\n")
    return report


# -- the deterministic scenario grid -----------------------------------------

_MATRIX_A = PhoneNumber("+15550100")  # the claimed / genuine caller
_MATRIX_B = PhoneNumber("+15550101")  # the verifying callee
_MATRIX_C = PhoneNumber("+15550102")  # a third party A can be busy with
_MATRIX_E = PhoneNumber("+15559900")  # the attacker, on a lax carrier

MATRIX_A_STATES = ("idle", "dialing_b", "dialing_other", "connected", "held")

CSV_COLUMNS = (
    "scenario",
    "a_state",
    "cw",
    "vm",
    "origination",
    "inferred",
    "verdict",
    "truth",
    "match",
)


def _matrix_cell(a_state: str, cw: bool, vm: bool, origination: str) -> Scenario:
    party_state = {
        "idle": ("idle", None),
        "dialing_b": ("idle", None),  # the origination itself dials B
        "dialing_other": ("dialing", _MATRIX_C),
        "connected": ("connected", _MATRIX_C),
        "held": ("held", _MATRIX_C),
    }[a_state]
    genuine = origination == "genuine"
    name = f"matrix-{a_state}-cw{int(cw)}-vm{int(vm)}-{origination}"
    return Scenario(
        name=name,
        carriers=(CarrierSpec("cn-a"), CarrierSpec("cn-x")),
        parties=(
            PartySpec(_MATRIX_A, "cn-a", cw, vm, party_state[0], party_state[1]),
            PartySpec(_MATRIX_B, "cn-a"),
            PartySpec(_MATRIX_C, "cn-a"),
            PartySpec(_MATRIX_E, "cn-x"),
        ),
        origination=OriginationSpec(
            originator=_MATRIX_A if genuine else _MATRIX_E,
            claimed=_MATRIX_A,
            target=_MATRIX_B,
        ),
        cive_enabled=True,
        seed=0,
        ground_truth=GroundTruth.GENUINE if genuine else GroundTruth.SPOOFED,
    )


def matrix_scenarios() -> list[Scenario]:
    """The full deterministic grid.

    Genuine origination is only compatible with A dialing B (the
    origination is that dial); a spoofed origination while A is itself
    dialing B is skipped, since it would stack two simultaneous incoming
    calls at B. Spoofing a number that is mid-call elsewhere is included
    via the dialing_other state.
    """
    cells = []
    for a_state in MATRIX_A_STATES:
        for origination in ("genuine", "spoofed"):
            if (origination == "genuine") != (a_state == "dialing_b"):
                continue
            for cw in (False, True):
                for vm in (False, True):
                    cells.append(_matrix_cell(a_state, cw, vm, origination))
    return cells


def _csv_values(report: RunReport) -> tuple[str, ...]:
    """A cell's values in ``CSV_COLUMNS`` order; its coordinates are read
    off the cell name."""
    assert report.verdict is not None
    _, a_state, cw, vm, origination = report.scenario.split("-")
    return (
        report.scenario,
        a_state,
        str(cw == "cw1").lower(),
        str(vm == "vm1").lower(),
        origination,
        report.verdict.inferred.value,
        report.verdict.decision.value,
        report.ground_truth.value,
        str(bool(report.match)).lower(),
    )


@dataclass(frozen=True)
class MatrixResult:
    reports: tuple[RunReport, ...]  # one per cell, sorted by scenario name

    @property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        """The CSV values of each cell, in ``CSV_COLUMNS`` order."""
        return tuple(_csv_values(r) for r in self.reports)

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.reports)

    @property
    def spoofed_judged_legit(self) -> int:
        return sum(
            1
            for r in self.reports
            if r.ground_truth is GroundTruth.SPOOFED and r.verdict.decision is Decision.LEGIT
        )

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(",".join(values) for values in self.rows)
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        widths = [len(c) for c in CSV_COLUMNS]
        rows = self.rows
        for values in rows:
            widths = [max(w, len(v)) for w, v in zip(widths, values)]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        out = [fmt.format(*CSV_COLUMNS)]
        out.extend(fmt.format(*values) for values in rows)
        matched = sum(1 for r in self.reports if r.match)
        out.append(f"match rate: {matched}/{len(self.reports)}")
        return "\n".join(out)


def run_matrix(out_dir: str | Path | None = None) -> MatrixResult:
    """Run every matrix cell and report verdict vs truth per cell.

    Rows are sorted by scenario name. With ``out_dir`` set, per-cell trace
    and report files land under ``out_dir/cells`` and the CSV summary at
    ``out_dir/matrix.csv``.
    """
    cells_dir = None
    if out_dir is not None:
        cells_dir = Path(out_dir) / "cells"
        cells_dir.mkdir(parents=True, exist_ok=True)
    result = MatrixResult(
        tuple(run_scenario(s, cells_dir) for s in sorted(matrix_scenarios(), key=lambda s: s.name))
    )
    if out_dir is not None:
        write_file(Path(out_dir) / "matrix.csv", result.to_csv())
    return result


def exit_code_for(reports: list[RunReport]) -> int:
    """CLI exit code: 0 all match, 2 inconclusive only, 1 any mismatch."""
    mismatch = any(r.match is False and not r.inconclusive for r in reports)
    if mismatch:
        return 1
    if any(r.inconclusive for r in reports):
        return 2
    return 0
