"""Scenario definitions, the batch runner, and verdict-vs-truth reporting.

A scenario file (``.scn``, YAML) declares carriers, parties with their
initial states and features, one call origination (possibly spoofed), and
the ground truth label. Schema:

    name: c2                 # letters, digits, . _ -; starts with a letter or digit
    description: free text   # optional, not read
    seed: 0                  # optional, >= 0, default 0
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
        state: idle              # idle | connected | held
        peer: "+15550102"        # required for non-idle states
    origination:
      originator: "+15559900"
      claimed: "+15550100"
      target: "+15550101"
      at_ms: 0               # optional

A scenario's ground truth is read off its origination: a claimed From
that differs from the originator's own number is spoofed, the same number
is genuine. The file's ``ground_truth`` label is required all the same,
and the loader rejects a label that disagrees. Every referenced number must
be registered by some party.

The loader reads this schema straight into the simulator's own records:
``Scenario.carriers`` maps each carrier id to its ``GatewayPolicy``, and
each party is a ``PartySpec`` of its carrier, its ``CalleeProfile`` and the
``EndpointState`` it starts in (``IDLE``, or ``Connected`` or ``Held``
with the party's ``peer``). A file cannot preset a party ``dialing``; only
the matrix's ``dialing_other`` cells start a line ``Dialing``, built in code.

Outputs per run: ``<name>.trace.jsonl`` (the federation event log) and
``<name>.report.json`` (verdict, match, display), whose text is
``RunReport.to_json()``, as ``cive-sim run`` prints it: one template that
writes what ``json.dumps(report.to_json_dict(), indent=2)`` would. A
``RunReport`` holds the ``Scenario`` it ran and the run's own outcome; its
``match`` and ``inconclusive`` are computed from the verdict and the
scenario's ground truth. The matrix command runs the full deterministic grid of callee
states x features x origination and writes ``matrix.csv`` with fixed
columns ``scenario,a_state,cw,vm,origination,inferred,verdict,truth,match``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import cive
from .call_fsm import IDLE, CalleeProfile, Connected, Dialing, EndpointState, Held, Idle
from .cive import Decision, Verdict, verify_incoming
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


# A scenario name names its --out files, so it must be a plain, visible file
# name: no path separator, no NUL, no leading dot.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


@dataclass(frozen=True)
class PartySpec:
    """One subscriber: its carrier, its profile and the state it starts in."""

    carrier: str
    profile: CalleeProfile
    state: EndpointState = IDLE


@dataclass(frozen=True)
class OriginationSpec:
    """The scenario's one call: who places it, the From it claims, and to whom."""

    originator: PhoneNumber
    claimed: PhoneNumber
    target: PhoneNumber
    at_ms: int = 0


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario: carriers, parties, one origination and the run flags."""

    name: str
    carriers: dict[str, GatewayPolicy]
    parties: tuple[PartySpec, ...]
    origination: OriginationSpec
    cive_enabled: bool = True
    seed: int = 0

    @property
    def ground_truth(self) -> GroundTruth:
        """Spoofed when the claimed From is not the originator's own number."""
        o = self.origination
        return GroundTruth.SPOOFED if o.claimed != o.originator else GroundTruth.GENUINE

    def validate(self) -> None:
        if _NAME_RE.fullmatch(self.name) is None:
            raise ScenarioValidationError(
                f"name {self.name!r} must be a plain file name: letters, digits, '.', '_'"
                " and '-', starting with a letter or digit"
            )
        if self.seed < 0:  # Random(-n) would silently seed like Random(n)
            raise ScenarioValidationError("seed must be >= 0")
        numbers = [p.profile.number for p in self.parties]
        if len(set(numbers)) != len(numbers):
            raise ScenarioValidationError("duplicate party numbers")
        registered = set(numbers)
        for p in self.parties:
            number = p.profile.number
            if p.carrier not in self.carriers:
                raise ScenarioValidationError(f"party {number}: unknown carrier {p.carrier}")
            if isinstance(p.state, Idle):
                continue
            peer = p.state.peer  # type: ignore[attr-defined]
            if peer not in registered:
                raise ScenarioValidationError(f"party {number}: peer {peer} not registered")
            if peer == number:
                raise ScenarioValidationError(f"party {number}: peer {peer} is its own number")
        o = self.origination
        for role, num in (("originator", o.originator), ("claimed", o.claimed), ("target", o.target)):
            if num not in registered:
                raise ScenarioValidationError(f"origination {role} {num} not registered")
        if o.target == o.originator:
            raise ScenarioValidationError(f"origination target {o.target} is its own originator")
        if o.at_ms < 0:
            raise ScenarioValidationError("origination at_ms must be >= 0")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioParseError(f"{where}: missing key {key!r}")
    return mapping[key]


def _shown(value) -> str:
    """A value of the wrong type, for an error line: a scalar with its type, or
    anything else by its type alone. A YAML alias list is built by reference,
    so its text can grow ninefold per level of a small file."""
    if value is None:
        return "an empty value"
    if isinstance(value, (bool, int, float, str)):
        return f"{type(value).__name__} {value!r}"
    return f"a {type(value).__name__}"


def _flag(mapping: dict, key: str, default: bool, where: str) -> bool:
    """A YAML boolean; a quoted "false" must not load as True."""
    value = mapping.get(key, default)
    if not isinstance(value, bool):
        raise ScenarioParseError(f"{where}: {key} must be true or false, got {_shown(value)}")
    return value


def _text(mapping: dict, key: str, where: str, default: str | None = None) -> str:
    """A YAML string, required when there is no default; an empty value must
    not load as "None"."""
    value = _require(mapping, key, where) if default is None else mapping.get(key, default)
    if not isinstance(value, str):
        raise ScenarioParseError(f"{where}: {key} must be a string, got {_shown(value)}")
    return value


def _integer(mapping: dict, key: str, default: int, where: str) -> int:
    """A YAML integer; a float or a boolean must not be truncated to one."""
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(f"{where}: {key} must be an integer, got {_shown(value)}")
    return value


def _number(value, where: str) -> PhoneNumber:
    """A quoted number; unquoted, ``+15550100`` is a YAML int."""
    if not isinstance(value, str):
        raise ScenarioParseError(f"{where} must be a quoted string, got {_shown(value)}")
    try:
        return PhoneNumber(value)
    except ValueError as exc:
        raise ScenarioValidationError(f"{where}: {exc}") from exc


# A party's ``state`` besides idle -> the call_fsm state it starts in. A file
# cannot preset ``dialing``: a line is mid-dial only because it sent an
# INVITE, and a preset dial sends none, so a spoof claiming that line would
# meet a dial with no call behind it and be judged Legit.
_PRESET_STATES = {"connected": Connected, "held": Held}


def _party(p: dict) -> PartySpec:
    """One ``parties`` entry, its ``state`` and ``peer`` read into a call_fsm state."""
    number = _number(_require(p, "number", "party"), "party number")
    carrier = _text(p, "carrier", "party")
    profile = CalleeProfile(
        number, _flag(p, "call_waiting", False, "party"), _flag(p, "voicemail_forward", False, "party")
    )
    state = _text(p, "state", f"party {number}", "idle")
    peer = _number(p["peer"], "party peer") if p.get("peer") is not None else None
    if state == "idle":
        return PartySpec(carrier, profile)
    if state not in _PRESET_STATES:
        raise ScenarioValidationError(f"party {number}: bad state {state!r}")
    if peer is None:
        raise ScenarioValidationError(f"party {number}: state {state} needs a peer")
    return PartySpec(carrier, profile, _PRESET_STATES[state](peer))


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate one ``.scn`` file; its ``ground_truth`` label must
    agree with the ground truth its origination gives."""
    import yaml  # here, not at the top: no other command reads YAML

    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ScenarioParseError(f"{path}: not UTF-8 text") from None
    except yaml.MarkedYAMLError as exc:  # the problem and where it is, on one line
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioParseError(f"{path}: YAML: {exc.problem or exc.context}{where}") from None
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{path}: YAML: {' '.join(str(exc).split())}") from None
    except (ValueError, RecursionError) as exc:  # an integer too long for int(), deep nesting
        raise ScenarioParseError(f"{path}: unreadable value: {exc}") from None
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{path}: expected a mapping at top level")

    try:
        carriers: dict[str, GatewayPolicy] = {}
        for c in _require(raw, "carriers", path.name):
            carrier_id = _text(c, "id", "carrier")
            if carrier_id in carriers:
                raise ScenarioValidationError("duplicate carrier ids")
            try:
                carriers[carrier_id] = GatewayPolicy(
                    _flag(c, "enforce_caller_id", False, "carrier"),
                    _integer(c, "link_delay_ms", GatewayPolicy.link_delay_ms, "carrier"),
                    _integer(c, "jitter_ms", GatewayPolicy.jitter_ms, "carrier"),
                )
            except ValueError as exc:  # a negative delay or jitter
                raise ScenarioValidationError(f"carrier {carrier_id}: {exc}") from None
        parties = tuple(_party(p) for p in _require(raw, "parties", path.name))
        o = _require(raw, "origination", path.name)
        origination = OriginationSpec(
            originator=_number(_require(o, "originator", "origination"), "originator"),
            claimed=_number(_require(o, "claimed", "origination"), "claimed"),
            target=_number(_require(o, "target", "origination"), "target"),
            at_ms=_integer(o, "at_ms", 0, "origination"),
        )
        truth_raw = _text(raw, "ground_truth", path.name)
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
        )
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        raise ScenarioParseError(f"{path}: malformed scenario: {exc}") from exc
    scenario.validate()
    if truth is not scenario.ground_truth:
        raise ScenarioValidationError(
            "claimed differs from originator but ground_truth is not spoofed"
            if truth is GroundTruth.GENUINE
            else "claimed equals originator but ground_truth is not genuine"
        )
    return scenario


@dataclass(frozen=True)
class RunReport:
    """One scenario run: the ``Scenario`` it ran and what the run produced.

    The verdict is scored against the scenario's ground truth, which is
    derived from its origination. ``match`` is True when (Legit <=>
    genuine); an Inconclusive verdict is a non-match with ``inconclusive``
    set. A run without a verdict has match None.
    """

    scenario: Scenario
    verdict: Verdict | None
    b_display: PhoneNumber | None
    policy_violations: int
    sim_ms: int
    trace_file: str | None

    @property
    def inconclusive(self) -> bool:
        return self.verdict is not None and self.verdict.decision is Decision.INCONCLUSIVE

    @property
    def match(self) -> bool | None:
        if self.verdict is None:
            return None
        legit = self.verdict.decision is Decision.LEGIT
        genuine = self.scenario.ground_truth is GroundTruth.GENUINE
        return not self.inconclusive and legit == genuine

    def to_json_dict(self) -> dict:
        s = self.scenario
        return {
            "scenario": s.name,
            "ground_truth": s.ground_truth.value,
            "cive_enabled": s.cive_enabled,
            "seed": s.seed,
            "b_display": str(self.b_display) if self.b_display else None,
            "verdict": self.verdict.to_json_dict(self.trace_file) if self.verdict else None,
            "match": self.match,
            "inconclusive": self.inconclusive,
            "policy_violations": self.policy_violations,
            "sim_ms": self.sim_ms,
            "trace_file": self.trace_file,
        }

    def to_json(self) -> str:
        """The report file's text, which ``cive-sim run`` also prints: exactly
        ``json.dumps(self.to_json_dict(), indent=2)`` and a newline, written
        from one template. Strings go through ``encode_basestring_ascii``,
        and enum members are read through ``_value_``, which skips the
        ``value`` descriptor."""
        q = encode_basestring_ascii
        s, v, b = self.scenario, self.verdict, self.b_display
        trace = "null" if self.trace_file is None else q(self.trace_file)
        match = self.match
        if v is None:
            verdict = "null"
        else:
            f = v.features
            pem, alert = f.pem_180, f.alert_180
            final, teardown = f.final_to_invite, f.teardown
            verdict = (
                f'{{\n    "decision": {q(v.decision._value_)},\n'
                f'    "inferred": {q(v.inferred._value_)},\n'
                f'    "expected": {q(v.expected)},\n'
                f'    "reason": {q(v.reason)},\n'
                f'    "features": {{\n'
                f'      "pem_180": {"null" if pem is None else q(pem._value_)},\n'
                f'      "alert_180": {"null" if alert is None else q(alert._value_)},\n'
                f'      "saw_181": {"true" if f.saw_181 else "false"},\n'
                f'      "saw_486": {"true" if f.saw_486 else "false"},\n'
                f'      "final_to_invite": {"null" if final is None else final.code},\n'
                f'      "teardown": {"null" if teardown is None else q(teardown._value_)},\n'
                f'      "timed_out": {"true" if f.timed_out else "false"}\n'
                f'    }},\n'
                f'    "trace_ref": {trace}\n'
                f'  }}'
            )
        return (
            f'{{\n  "scenario": {q(s.name)},\n'
            f'  "ground_truth": {q(s.ground_truth._value_)},\n'
            f'  "cive_enabled": {"true" if s.cive_enabled else "false"},\n'
            f'  "seed": {s.seed},\n'
            f'  "b_display": {"null" if not b else q(b)},\n'
            f'  "verdict": {verdict},\n'
            f'  "match": {"null" if match is None else "true" if match else "false"},\n'
            f'  "inconclusive": {"true" if self.inconclusive else "false"},\n'
            f'  "policy_violations": {self.policy_violations},\n'
            f'  "sim_ms": {self.sim_ms},\n'
            f'  "trace_file": {trace}\n'
            f'}}\n'
        )


def build_federation(s: Scenario) -> Federation:
    """Materialize a scenario's carriers, parties and initial states."""
    net = Federation(seed=s.seed)
    for carrier_id, policy in s.carriers.items():
        net.add_carrier(carrier_id, policy)
    for p in s.parties:
        net.register_subscriber(p.carrier, p.profile.number, p.profile).preset_state(p.state)
    return net


def run_scenario(s: Scenario, out_dir: str | Path | None = None) -> RunReport:
    """Run one scenario, with its own seed and ``cive_enabled``, to
    quiescence and report its verdict.

    With verification enabled, the target line's first ring launches the
    callback, which then runs in the same event loop as the call it checks;
    the loop runs once, under the simulation budget, and the verdict is read
    at quiescence. Equal (scenario, seed) pairs produce byte-identical
    trace and report files.

    With ``out_dir`` set, writes ``<name>.trace.jsonl`` and
    ``<name>.report.json`` there. The report file is ``report.to_json()``,
    the one encoding of a report, which ``cive-sim run`` prints too.
    """
    s.validate()
    net = build_federation(s)
    target_line: PhoneLine = net.lines[s.origination.target]

    def on_ring(invite):
        target_line.ring_hook = None  # only the first ring is verified
        cive.launch_verification(net, invite)

    if s.cive_enabled:
        target_line.ring_hook = on_ring
    net.originate_call(
        s.origination.claimed,
        net.lines[s.origination.originator],
        s.origination.target,
        at_ms=s.origination.at_ms,
    )
    net.run()
    agent = target_line.verifier
    verdict = verify_incoming(agent) if agent is not None else None
    trace_file = f"{s.name}.trace.jsonl" if out_dir is not None else None
    report = RunReport(
        s, verdict, target_line.display, len(net.policy_violations), net.now, trace_file
    )
    if out_dir is not None:
        out = os.fspath(out_dir)
        trace_path = os.path.join(out, trace_file)
        # The directory is made only when it is missing: run_matrix has
        # already made it for each of its cells.
        try:
            net.write_trace(trace_path)
        except FileNotFoundError:
            os.makedirs(out, exist_ok=True)
            net.write_trace(trace_path)
        write_file(os.path.join(out, s.name + ".report.json"), report.to_json())
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


# The records every cell shares; all frozen. A's preset state by a_state:
# dialing_b starts idle, as the origination itself dials B.
_MATRIX_A_PRESETS = {
    "idle": IDLE,
    "dialing_b": IDLE,
    "dialing_other": Dialing(_MATRIX_C),
    "connected": Connected(_MATRIX_C),
    "held": Held(_MATRIX_C),
}
_MATRIX_CARRIERS = (("cn-a", GatewayPolicy()), ("cn-x", GatewayPolicy()))
_MATRIX_OTHERS = (
    PartySpec("cn-a", CalleeProfile(_MATRIX_B)),
    PartySpec("cn-a", CalleeProfile(_MATRIX_C)),
    PartySpec("cn-x", CalleeProfile(_MATRIX_E)),
)


def _matrix_cell(a_state: str, cw: bool, vm: bool, origination: str) -> Scenario:
    return Scenario(
        name=f"matrix-{a_state}-cw{int(cw)}-vm{int(vm)}-{origination}",
        carriers=dict(_MATRIX_CARRIERS),  # Scenario.carriers is mutable: one per cell
        parties=(
            PartySpec("cn-a", CalleeProfile(_MATRIX_A, cw, vm), _MATRIX_A_PRESETS[a_state]),
            *_MATRIX_OTHERS,
        ),
        origination=OriginationSpec(
            originator=_MATRIX_A if origination == "genuine" else _MATRIX_E,
            claimed=_MATRIX_A,
            target=_MATRIX_B,
        ),
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
    name = report.scenario.name
    _, a_state, cw, vm, origination = name.split("-")
    return (
        name,
        a_state,
        str(cw == "cw1").lower(),
        str(vm == "vm1").lower(),
        origination,
        report.verdict.inferred.value,
        report.verdict.decision.value,
        report.scenario.ground_truth.value,
        str(bool(report.match)).lower(),
    )


@dataclass(frozen=True)
class MatrixResult:
    """The reports of one matrix run, and the CSV and tallies read off them."""

    reports: tuple[RunReport, ...]  # one per cell, sorted by scenario name

    @property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        """The CSV values of each cell, in ``CSV_COLUMNS`` order."""
        return tuple(_csv_values(r) for r in self.reports)

    @property
    def spoofed_judged_legit(self) -> int:
        return sum(
            1
            for r in self.reports
            if r.scenario.ground_truth is GroundTruth.SPOOFED
            and r.verdict.decision is Decision.LEGIT
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
        cells_dir = os.path.join(out_dir, "cells")
        os.makedirs(cells_dir, exist_ok=True)
    result = MatrixResult(
        tuple(run_scenario(s, cells_dir) for s in sorted(matrix_scenarios(), key=lambda s: s.name))
    )
    if out_dir is not None:
        write_file(os.path.join(out_dir, "matrix.csv"), result.to_csv())
    return result


def exit_code_for(reports: list[RunReport]) -> int:
    """CLI exit code: 0 all match, 2 inconclusive only, 1 any mismatch."""
    mismatch = any(r.match is False and not r.inconclusive for r in reports)
    if mismatch:
        return 1
    if any(r.inconclusive for r in reports):
        return 2
    return 0
