"""Callback verification of a claimed caller ID (CIVE).

While a suspicious incoming call (the inCall) is still ringing at callee B,
B places an auxiliary call (the auCall) back to the number the inCall
claims to come from, and watches the auCall's setup signaling. The far
end's true call state leaks through that signaling:

  - a 180 with P-Early-Media sendonly means the far end is itself mid-dial,
    exactly what a genuine caller to B must be doing right now;
  - a 180 with sendrecv and no alert means an idle phone;
  - a call-waiting Alert-Info URN means a phone already on a call;
  - 486 means busy without call waiting; 181 means forwarding to voicemail.

If the inferred state is anything a genuine caller cannot be in while B's
phone rings, the claimed ID is judged spoofed. Inference failures are
never judged legitimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .call_fsm import COLLISION_ANSWER_MS, CallPhase, LegPhase, LegRole, LineLeg
from .netsim import Direction, Federation
from .sip_core import (
    AlertUrn,
    ParseError,
    PemValue,
    PhoneNumber,
    SipMessage,
    SipMethod,
    StatusCode,
)


class CiveError(Exception):
    pass


class EmptyTrace(CiveError):
    pass


class LineBusy(CiveError):
    """The callee already has a verification call in flight."""


class UnsupportedPhase(CiveError):
    """Verification launches only while the incoming call is ringing."""


class MalformedTraceRow(CiveError):
    """A saved trace row that cannot be rebuilt into its call leg.

    ``index`` is the row's position in the list handed to
    legs_from_trace_rows; ``reason`` says what is wrong with it.
    """

    def __init__(self, index: int, reason: str):
        super().__init__(f"row {index}: {reason}")
        self.index = index
        self.reason = reason


# How long to keep collecting after the first 180 that carries early media,
# so a fast far-end answer can still land inside the capture. Must exceed one
# link round trip.
CAPTURE_GRACE_MS = 200
AU_CALL_TIMEOUT_MS = 10_000

# A genuinely dialing caller auto-answers the callback; that answer has to land
# inside the capture grace, or the mid-dial case reads as idle at teardown.
if COLLISION_ANSWER_MS >= CAPTURE_GRACE_MS:
    raise CiveError(
        f"collision auto-answer ({COLLISION_ANSWER_MS} ms) must be shorter than "
        f"the capture grace ({CAPTURE_GRACE_MS} ms)"
    )


@dataclass(frozen=True)
class IncomingCallContext:
    """What B knows about the suspicious incoming call when it rings."""

    claimed_id: PhoneNumber
    callee: PhoneNumber
    in_call_id: str
    phase: CallPhase
    t_start: int


@dataclass(frozen=True)
class TraceEntry:
    t_ms: int
    direction: Direction  # EGRESS: sent by the observer; INGRESS: received by it
    message: SipMessage


@dataclass
class SignalingTrace:
    """The auCall leg as observed at B: every message sent or received, in order."""

    entries: list[TraceEntry] = field(default_factory=list)
    timed_out: bool = False

    def append(self, t_ms: int, direction: Direction, message: SipMessage) -> None:
        if self.entries and t_ms < self.entries[-1].t_ms:
            raise ValueError("trace timestamps must be non-decreasing")
        if not self.entries and not (
            direction is Direction.EGRESS and message.method is SipMethod.INVITE
        ):
            raise ValueError("a trace starts with the sent INVITE")
        self.entries.append(TraceEntry(t_ms, direction, message))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class FeatureVector:
    """Side-channel features of one auCall trace.

    ``pem_180``/``alert_180`` come from the first received 180;
    ``final_to_invite`` is the final response on the INVITE transaction;
    ``teardown`` is the request B sent to end the leg (BYE when the far
    end answered, CANCEL otherwise).
    """

    pem_180: PemValue | None = None
    alert_180: AlertUrn | None = None
    saw_181: bool = False
    saw_486: bool = False
    final_to_invite: StatusCode | None = None
    teardown: SipMethod | None = None
    timed_out: bool = False

    def __post_init__(self) -> None:
        if self.teardown is not None and self.teardown not in (
            SipMethod.BYE,
            SipMethod.CANCEL,
        ):
            raise ValueError("teardown must be BYE or CANCEL when present")

    def to_json_dict(self) -> dict:
        return {
            "pem_180": self.pem_180.value if self.pem_180 else None,
            "alert_180": self.alert_180.value if self.alert_180 else None,
            "saw_181": self.saw_181,
            "saw_486": self.saw_486,
            "final_to_invite": self.final_to_invite.code if self.final_to_invite else None,
            "teardown": self.teardown.value if self.teardown else None,
            "timed_out": self.timed_out,
        }


class InferredState(str, Enum):
    DIALING = "Dialing"
    IDLE = "Idle"
    CONNECTED = "Connected"
    BUSY_NO_WAITING = "BusyNoWaiting"
    FORWARDED_TO_VOICEMAIL = "ForwardedToVoicemail"
    UNREACHABLE = "Unreachable"
    UNKNOWN = "Unknown"


class Decision(str, Enum):
    LEGIT = "Legit"
    SPOOFED = "Spoofed"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    inferred: InferredState
    expected: str
    reason: str
    features: FeatureVector

    def __post_init__(self) -> None:
        if self.decision is Decision.SPOOFED and self.inferred in (
            InferredState.DIALING,
            InferredState.UNKNOWN,
            InferredState.UNREACHABLE,
        ):
            raise ValueError(f"Spoofed verdict incompatible with inferred {self.inferred}")
        if self.decision is Decision.LEGIT and self.inferred is not InferredState.DIALING:
            raise ValueError("Legit verdict requires an inferred Dialing state")

    def to_json_dict(self, trace_ref: str | None = None) -> dict:
        return {
            "decision": self.decision.value,
            "inferred": self.inferred.value,
            "expected": self.expected,
            "reason": self.reason,
            "features": self.features.to_json_dict(),
            "trace_ref": trace_ref,
        }


def extract_features(trace: SignalingTrace) -> FeatureVector:
    """Pure feature extraction from one auCall trace."""
    if not trace.entries:
        raise EmptyTrace("cannot extract features from an empty trace")
    invite = trace.entries[0].message
    pem_180: PemValue | None = None
    alert_180: AlertUrn | None = None
    saw_180 = False
    saw_181 = False
    saw_486 = False
    final: StatusCode | None = None
    sent: set[SipMethod] = set()  # the methods of the requests B sent
    for entry in trace.entries:
        msg = entry.message
        if entry.direction is Direction.INGRESS and msg.is_response:
            assert msg.status is not None
            code = msg.status.code
            if code == 180 and not saw_180:
                saw_180 = True
                pem_180 = msg.pem
                alert_180 = msg.alert
            saw_181 = saw_181 or code == 181
            saw_486 = saw_486 or code == 486
            if final is None and msg.is_final and msg.cseq == invite.cseq:
                final = msg.status
        elif entry.direction is Direction.EGRESS and msg.is_request:
            sent.add(msg.method)
    # BYE is what actually ends an answered leg, so it wins over a CANCEL
    # that crossed the answer in flight.
    teardown = next((m for m in (SipMethod.BYE, SipMethod.CANCEL) if m in sent), None)
    return FeatureVector(
        pem_180=pem_180,
        alert_180=alert_180,
        saw_181=saw_181,
        saw_486=saw_486,
        final_to_invite=final,
        teardown=teardown,
        timed_out=trace.timed_out,
    )


# The inference rules, first match wins: (matches, inferred state, decision,
# reason). Final-response rules (486, 181) come before the 180-based rules
# because those legs may carry no 180 at all; "no 180" is read off the vector
# as both 180 fields absent. While the inCall rings a genuine caller is
# dialing the callee, so only Dialing is Legit; a state a ringing caller
# cannot occupy is Spoofed; Unreachable and Unknown are never Legit.
_RULES: tuple[tuple[Callable[[FeatureVector], bool], InferredState, Decision, str], ...] = (
    (lambda f: f.saw_486, InferredState.BUSY_NO_WAITING, Decision.SPOOFED,
     "rule 1: 486 Busy Here, callee busy without call waiting"),
    (lambda f: f.saw_181, InferredState.FORWARDED_TO_VOICEMAIL, Decision.SPOOFED,
     "rule 2: 181, leg forwarded to voicemail"),
    (lambda f: f.pem_180 is PemValue.SENDONLY, InferredState.DIALING, Decision.LEGIT,
     "rule 3: 180 early media sendonly, far end is mid-dial"),
    (lambda f: f.pem_180 is PemValue.SENDRECV and f.alert_180 is AlertUrn.CALL_WAITING,
     InferredState.CONNECTED, Decision.SPOOFED,
     "rule 4: 180 sendrecv with call-waiting alert, far end on a call"),
    (lambda f: f.pem_180 is PemValue.SENDRECV and f.alert_180 is None,
     InferredState.IDLE, Decision.SPOOFED,
     "rule 5: 180 sendrecv without alert, far end idle"),
    (lambda f: f.timed_out
     or (f.final_to_invite is not None and f.final_to_invite.code == 480)
     or (f.pem_180 is None and f.alert_180 is None),
     InferredState.UNREACHABLE, Decision.INCONCLUSIVE,
     "rule 6: no usable ringing signal (timeout, 480, or no 180)"),
    (lambda f: True, InferredState.UNKNOWN, Decision.INCONCLUSIVE,
     "rule 7: signaling pattern matched no rule"),
)

# Each state is inferred by exactly one rule, so it alone gives the verdict.
_VERDICT = {state: (decision, reason) for _, state, decision, reason in _RULES}


def classify(features: FeatureVector) -> tuple[InferredState, Decision, str]:
    """Total and pure: the inferred far-end state, its decision and the
    reason, from the first rule in ``_RULES`` that matches."""
    return next(
        (state, decision, reason)
        for matches, state, decision, reason in _RULES
        if matches(features)
    )


def infer_state(features: FeatureVector) -> InferredState:
    """The far end's call state inferred from the feature vector."""
    return classify(features)[0]


def decide(
    ctx: IncomingCallContext,
    inferred: InferredState,
    features: FeatureVector,
) -> Verdict:
    """The verdict for an inferred far-end state while the inCall rings,
    when a genuine caller must be dialing the callee."""
    if ctx.phase is not CallPhase.RINGING:
        raise UnsupportedPhase("verdicts are only defined for the ringing phase")
    decision, reason = _VERDICT[inferred]
    return Verdict(
        decision=decision,
        inferred=inferred,
        expected=f"dialing toward {ctx.callee}",
        reason=reason,
        features=features,
    )


class _VerifierAgent:
    """Event-driven auCall handler speaking for the callee's line.

    A hop of its own with the line's label, carrier and number: the auCall
    is sent and policed as the callee's, and its replies reach the agent.

    Records every message of its dialog, as the saved trace holds it. Acts
    on responses until a 180 with early media has aged past the capture
    grace, a final response arrives, or the timeout fires; then tears the
    leg down: ACK+BYE when the far end answered, CANCEL while the INVITE is
    still pending, just ACK after a non-2xx final.
    """

    def __init__(self, net: Federation, ctx: IncomingCallContext):
        self.net = net
        self.ctx = ctx
        line = net.lines[ctx.callee]
        self.hop, self.carrier, self.number = line.hop, line.carrier, line.number
        self.trace = SignalingTrace()
        call_id = net.new_call_id()
        invite = SipMessage.request(SipMethod.INVITE, ctx.callee, ctx.claimed_id, call_id)
        self.leg = LineLeg(call_id, ctx.claimed_id, LegRole.CALLER, LegPhase.EARLY, invite)
        self.final: StatusCode | None = None
        self.sent_cancel = False
        self.done = False
        self.grace_timer: object | None = None  # pending timers, for cancel_timer
        self.timeout_timer: object | None = None

    def start(self) -> None:
        self.timeout_timer = self.net.set_timer(AU_CALL_TIMEOUT_MS, self._time_out)
        self._send(self.leg.invite)

    # -- wire helpers --------------------------------------------------------

    def _send(self, msg: SipMessage) -> None:
        self.trace.append(self.net.now, Direction.EGRESS, msg)
        self.net.send(self, msg)

    def _finish(self) -> None:
        self.done = True
        if self.grace_timer is not None:
            self.net.cancel_timer(self.grace_timer)
            self.grace_timer = None
        if self.timeout_timer is not None:
            self.net.cancel_timer(self.timeout_timer)
            self.timeout_timer = None

    # -- event handlers --------------------------------------------------------

    def handle_message(self, msg: SipMessage) -> None:
        # Recorded even once done: late replies are in the saved trace too.
        self.trace.append(self.net.now, Direction.INGRESS, msg)
        if self.done or not msg.is_response:
            return
        tx_method = msg.cseq[1]
        if tx_method is SipMethod.BYE:
            self._finish()  # the answer to our own BYE, the only one we send
            return
        if tx_method is not SipMethod.INVITE:
            return  # response to CANCEL (200 or 481); recorded, nothing to do
        assert msg.status is not None
        code = msg.status.code
        if code < 200:
            if code == 183:
                self._send(self.leg.request(SipMethod.PRACK))
            elif code == 180 and msg.pem is not None and self.grace_timer is None:
                self.grace_timer = self.net.set_timer(CAPTURE_GRACE_MS, self._grace_over)
            return
        self.final = msg.status
        if self.grace_timer is not None:
            self.net.cancel_timer(self.grace_timer)
            self.grace_timer = None
        if code == 200:
            self._send(self.leg.request(SipMethod.ACK))
            self._send(self.leg.request(SipMethod.BYE))
            # done once the BYE is answered
        else:
            self._send(self.leg.request(SipMethod.ACK))
            self._finish()

    # -- timer handlers (_finish cancels both timers, so neither fires once done)

    def _grace_over(self) -> None:
        self.grace_timer = None
        self._cancel_invite()

    def _time_out(self) -> None:
        self.timeout_timer = None
        self.trace.timed_out = True
        self._cancel_invite()

    def _cancel_invite(self) -> None:
        if self.final is None and not self.sent_cancel:
            self.sent_cancel = True
            self._send(self.leg.request(SipMethod.CANCEL))


def launch_verification(net: Federation, ctx: IncomingCallContext) -> _VerifierAgent:
    """Place the auCall: start a verifier agent on the callee's line.

    The agent sends its INVITE now and runs as an ordinary hop of the
    federation's event loop; it stays on the line as ``PhoneLine.verifier``.
    Hand it to verify_incoming once the loop has run. Raises
    UnsupportedPhase for an answered-phase context, CiveError for an
    unregistered callee, and LineBusy when a verification is already
    running on this callee's line.
    """
    if ctx.phase is not CallPhase.RINGING:
        raise UnsupportedPhase("verification launches only while the inCall rings")
    line = net.lines.get(ctx.callee)
    if line is None:
        raise CiveError(f"callee {ctx.callee} is not registered")
    if line.verifier is not None and not line.verifier.done:
        raise LineBusy(f"{ctx.callee} already has a verification in flight")
    agent = line.verifier = _VerifierAgent(net, ctx)
    agent.start()
    return agent


def verify_incoming(agent: _VerifierAgent) -> tuple[Verdict, SignalingTrace]:
    """Feature extraction, inference and verdict for a launched verification.

    Call it after the federation has run.
    """
    trace = agent.trace
    features = extract_features(trace)
    inferred = infer_state(features)
    return decide(agent.ctx, inferred, features), trace


def legs_from_trace_rows(rows: list[dict]) -> list[tuple[str, str, SignalingTrace]]:
    """Rebuild per-leg signaling traces from a saved federation trace.

    For every call id whose first egress row is an INVITE leaving an
    endpoint hop, reconstructs the leg as seen by that endpoint: its egress
    rows become sent entries, ingress rows addressed to it become received
    entries, in row order. Returns (call_id, observer_hop, trace) triples in
    the file order of each call id's first egress row.

    One pass groups the rows by Call-ID, parsing each distinct wire text
    once, so the cost is linear in the row count; ``rows`` is left as it
    was. Raises MalformedTraceRow for a row whose message falls outside the
    SIP profile or that breaks its leg's ordering.
    """
    from .sip_core import parse_message

    parsed: dict[str, SipMessage] = {}
    by_call: dict[str, list[tuple[int, dict, SipMessage]]] = {}
    first_egress: dict[str, tuple[dict, SipMessage]] = {}
    for index, row in enumerate(rows):
        text = row["sip"]
        msg = parsed.get(text)
        if msg is None:
            try:
                msg = parsed[text] = parse_message(text)
            except ParseError as exc:
                raise MalformedTraceRow(index, f"{type(exc).__name__}: {exc}") from exc
        cid = msg.call_id
        by_call.setdefault(cid, []).append((index, row, msg))
        if cid not in first_egress and row["dir"] == "egress":
            first_egress[cid] = (row, msg)
    legs: list[tuple[str, str, SignalingTrace]] = []
    for cid, (first, first_msg) in first_egress.items():
        if not (first_msg.is_request and first_msg.method is SipMethod.INVITE):
            continue
        observer = first["from_hop"]
        if not observer.startswith("ep:"):
            continue
        trace = SignalingTrace()
        for index, row, msg in by_call[cid]:
            if row["dir"] == "egress" and row["from_hop"] == observer:
                direction = Direction.EGRESS
            elif row["dir"] == "ingress" and row["to_hop"] == observer:
                direction = Direction.INGRESS
            else:
                continue
            try:
                trace.append(row["t_ms"], direction, msg)
            except ValueError as exc:
                raise MalformedTraceRow(index, f"call {cid}: {exc}") from exc
        legs.append((cid, observer, trace))
    return legs
