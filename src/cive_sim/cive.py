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

The verifier reads what it needs off the ringing INVITE itself: its To is
the callee B, its From the claimed number. ``infer_state`` is the one scan
of the rule table ``_RULES``.

A call leg is a plain list of ``TraceEntry``, in order, starting with the
sent INVITE. The live verifier keeps its leg in ``entries``;
``legs_from_trace_rows`` rebuilds legs from a saved trace's rows, streamed
as ``(line, t_ms, from_hop, to_hop, dir, sip)`` tuples, in one pass. Every
feature is read off the leg alone, so both give the same features.

A ``Verdict`` reads its decision and reason off ``_RULES``, checked once,
at import. ``extract_features`` builds its ``FeatureVector`` unchecked, as
its teardown is only ever BYE, CANCEL or None.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from .call_fsm import CALLER, COLLISION_ANSWER_MS, EARLY, LineLeg
from .netsim import EGRESS, INGRESS, Federation, PhoneLine
from .sip_core import (
    ACK,
    BYE,
    CALL_WAITING,
    CANCEL,
    INVITE,
    PRACK,
    SENDONLY,
    SENDRECV,
    AlertUrn,
    ParseError,
    PemValue,
    PhoneNumber,
    SipMessage,
    SipMethod,
    StatusCode,
    _new,
)


class CiveError(Exception):
    pass


class EmptyTrace(CiveError):
    pass


class LineBusy(CiveError):
    """The callee already has a verification call in flight."""


class MalformedTraceRow(CiveError):
    """A saved trace row, named by its ``line``, that cannot be rebuilt into its call leg."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
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


class TraceEntry(NamedTuple):
    t_ms: int
    direction: str  # a row's dir; EGRESS: sent by the observer, INGRESS: received by it
    message: SipMessage


# Builds a TraceEntry from a tuple of its fields: its own __new__ is one more
# Python call.
_tuple_new = tuple.__new__


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
        if self.teardown is not None and self.teardown not in (BYE, CANCEL):
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
    """The decision on one verification, with the state and features behind
    it: ``decision`` and ``reason`` are those of the rule inferring the state."""

    inferred: InferredState
    expected: str
    features: FeatureVector

    @property
    def decision(self) -> Decision:
        return _VERDICT[self.inferred][0]

    @property
    def reason(self) -> str:
        return _VERDICT[self.inferred][1]

    def to_json_dict(self, trace_ref: str | None = None) -> dict:
        return {
            "decision": self.decision.value,
            "inferred": self.inferred.value,
            "expected": self.expected,
            "reason": self.reason,
            "features": self.features.to_json_dict(),
            "trace_ref": trace_ref,
        }


def extract_features(leg: list[TraceEntry]) -> FeatureVector:
    """Pure feature extraction from one auCall leg, its entries in order
    and starting with the sent INVITE."""
    if not leg:
        raise EmptyTrace("cannot extract features from an empty trace")
    start_ms, _, invite = leg[0]
    # The verifier sets its timeout with the INVITE, so at a tie it fires before
    # the grace timer or any delivery: a CANCEL sent exactly AU_CALL_TIMEOUT_MS
    # after the INVITE is the timeout's. A phone's own CANCEL comes at 20 s.
    timeout_at = start_ms + AU_CALL_TIMEOUT_MS
    timed_out = False
    pem_180: PemValue | None = None
    alert_180: AlertUrn | None = None
    saw_180 = False
    saw_181 = False
    saw_486 = False
    final: StatusCode | None = None
    sent_bye = sent_cancel = False  # requests B sent that can end the leg
    for t_ms, direction, msg in leg:
        status = msg.status
        if direction == INGRESS and status is not None:
            code = status.code
            if code == 180 and not saw_180:
                saw_180 = True
                pem_180 = msg.pem
                alert_180 = msg.alert
            saw_181 = saw_181 or code == 181
            saw_486 = saw_486 or code == 486
            if (final is None and code >= 200 and msg.method is INVITE
                    and msg.seq == invite.seq):
                final = status
        elif direction == EGRESS and status is None:
            method = msg.method
            if method is BYE:
                sent_bye = True
            elif method is CANCEL:
                sent_cancel = True
                timed_out = timed_out or t_ms == timeout_at
    # BYE is what actually ends an answered leg, so it wins over a CANCEL
    # that crossed the answer in flight.
    teardown = BYE if sent_bye else CANCEL if sent_cancel else None
    # Built unchecked: teardown is BYE, CANCEL or None, as __post_init__ requires.
    features = _new(FeatureVector)
    d = features.__dict__
    d["pem_180"] = pem_180
    d["alert_180"] = alert_180
    d["saw_181"] = saw_181
    d["saw_486"] = saw_486
    d["final_to_invite"] = final
    d["teardown"] = teardown
    d["timed_out"] = timed_out
    return features


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
    (lambda f: f.pem_180 is SENDONLY, InferredState.DIALING, Decision.LEGIT,
     "rule 3: 180 early media sendonly, far end is mid-dial"),
    (lambda f: f.pem_180 is SENDRECV and f.alert_180 is CALL_WAITING,
     InferredState.CONNECTED, Decision.SPOOFED,
     "rule 4: 180 sendrecv with call-waiting alert, far end on a call"),
    (lambda f: f.pem_180 is SENDRECV and f.alert_180 is None,
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


def _check_rules(rules: tuple) -> None:
    """Raise CiveError unless each state comes from exactly one rule, only
    Dialing is Legit, and Dialing, Unknown and Unreachable are never Spoofed."""
    if sorted(state for _, state, _, _ in rules) != sorted(InferredState):
        raise CiveError("each inferred state must come from exactly one rule")
    for _, state, decision, _ in rules:
        if decision is Decision.LEGIT and state is not InferredState.DIALING:
            raise CiveError(f"only Dialing may be Legit, not {state.value}")
        if decision is Decision.SPOOFED and state in (
            InferredState.DIALING, InferredState.UNKNOWN, InferredState.UNREACHABLE,
        ):
            raise CiveError(f"{state.value} may never be Spoofed")


_check_rules(_RULES)

# Each state is inferred by exactly one rule, so it alone gives the decision and reason.
_VERDICT = {state: (decision, reason) for _, state, decision, reason in _RULES}


def infer_state(features: FeatureVector) -> InferredState:
    """Total and pure: the far end's call state, from the first rule in
    ``_RULES`` that matches the feature vector."""
    for matches, state, _, _ in _RULES:
        if matches(features):
            return state


def decide(callee: PhoneNumber, inferred: InferredState, features: FeatureVector) -> Verdict:
    """The verdict for an inferred far-end state while the inCall rings at
    ``callee``, when a genuine caller must be dialing the callee."""
    return Verdict(inferred, f"dialing toward {callee}", features)


class _VerifierAgent:
    """Event-driven auCall handler speaking for the callee's line.

    A hop of its own with the line's label, carrier and number: the auCall
    is sent and policed as the callee's, and its replies reach the agent.

    Records every message of its dialog in ``entries``, as the saved trace
    holds it. Acts on responses until a 180 with early media has aged past
    the capture grace, a final response arrives, or the timeout fires; then
    tears the leg down: ACK+BYE when the far end answered, CANCEL while the
    INVITE is still pending, just ACK after a non-2xx final.
    """

    def __init__(self, net: Federation, line: PhoneLine, claimed: PhoneNumber):
        self.net = net
        self.hop, self.carrier, self.number = line.hop, line.carrier, line.number
        self.entries: list[TraceEntry] = []
        invite = SipMessage.request(INVITE, line.number, claimed, net.new_call_id())
        self.leg = LineLeg(CALLER, EARLY, invite)
        self.final: StatusCode | None = None
        self.sent_cancel = False
        self.done = False
        self.grace_timer: int | None = None  # pending timers, for cancel_timer
        self.timeout_timer: int | None = None

    def start(self) -> None:
        self.timeout_timer = self.net.set_timer(AU_CALL_TIMEOUT_MS, self._time_out)
        self._send(self.leg.invite)

    # -- wire helpers --------------------------------------------------------

    def _send(self, msg: SipMessage) -> None:
        self.entries.append(_tuple_new(TraceEntry, (self.net.now, EGRESS, msg)))
        self.net.send(self, msg)

    def _finish(self) -> None:
        self.done = True
        if self.timeout_timer is not None:
            self.net.cancel_timer(self.timeout_timer)
            self.timeout_timer = None

    # -- event handlers --------------------------------------------------------

    def handle_message(self, msg: SipMessage) -> None:
        # Recorded even once done: late replies are in the saved trace too.
        self.entries.append(_tuple_new(TraceEntry, (self.net.now, INGRESS, msg)))
        status = msg.status
        if self.done or status is None:
            return
        tx_method = msg.method
        if tx_method is BYE:
            self._finish()  # the answer to our own BYE, the only one we send
            return
        if tx_method is not INVITE or self.final is not None:
            return  # to our CANCEL, or after the final: recorded, nothing to do
        code = status.code
        if code < 200:
            if code == 183:
                self._send(self.leg.request(PRACK))
            elif code == 180 and msg.pem is not None and self.grace_timer is None:
                self.grace_timer = self.net.set_timer(CAPTURE_GRACE_MS, self._grace_over)
            return
        self.final = status
        if self.grace_timer is not None:
            self.net.cancel_timer(self.grace_timer)
            self.grace_timer = None
        if code == 200:
            self._send(self.leg.request(ACK))
            self._send(self.leg.request(BYE))
            # done once the BYE is answered
        else:
            self._send(self.leg.request(ACK))
            self._finish()

    # -- timer handlers (the final cancels the grace timer and _finish the timeout)

    def _grace_over(self) -> None:
        self.grace_timer = None
        self._cancel_invite()

    def _time_out(self) -> None:
        self.timeout_timer = None
        self._cancel_invite()

    def _cancel_invite(self) -> None:
        if self.final is None and not self.sent_cancel:
            self.sent_cancel = True
            self._send(self.leg.request(CANCEL))


def launch_verification(net: Federation, in_call: SipMessage) -> _VerifierAgent:
    """Place the auCall for the ringing INVITE ``in_call``.

    The callee is the INVITE's To and the claimed caller its From. A
    verifier agent starts on the callee's line: it sends its INVITE to the
    claimed number now and runs as an ordinary hop of the federation's
    event loop; it stays on the line as ``PhoneLine.verifier``. Hand it to
    verify_incoming once the loop has run. Raises CiveError for an
    unregistered callee, and LineBusy when a verification is already
    running on this callee's line.
    """
    callee = in_call.to_number
    line = net.lines.get(callee)
    if line is None:
        raise CiveError(f"callee {callee} is not registered")
    if line.verifier is not None and not line.verifier.done:
        raise LineBusy(f"{callee} already has a verification in flight")
    agent = line.verifier = _VerifierAgent(net, line, in_call.from_number)
    agent.start()
    return agent


def verify_incoming(agent: _VerifierAgent) -> Verdict:
    """Feature extraction, inference and verdict for a launched verification.

    Call it after the federation has run; it judges the leg ``agent.entries``."""
    features = extract_features(agent.entries)
    return decide(agent.number, infer_state(features), features)


# The state of a call whose leg is not built: no hop is None, so it has no rows.
_NO_LEG = (None, None)


def legs_from_trace_rows(
    rows: Iterable[tuple[int, int, str, str, str, str]],
) -> list[tuple[str, str, list[TraceEntry]]]:
    """Rebuild per-leg signaling from a saved federation trace.

    ``rows`` is any iterable of ``(line, t_ms, from_hop, to_hop, dir, sip)``
    tuples, in file order; ``cive-sim parse`` hands over the file's rows as
    they are read, and ``line`` names a row in a MalformedTraceRow. For
    every call id whose first egress row is an INVITE leaving an endpoint
    hop, reconstructs the leg as seen by that endpoint: its egress rows
    become sent entries, ingress rows addressed to it become received
    entries, in row order. Returns (call_id, observer_hop, entries) triples
    in the file order of each call id's first egress row.

    One pass reads the rows. A wire text is parsed where it is first read
    and its message kept until the next row carrying the same text, its
    twin, takes it and drops it from the cache; so the cache holds only the
    messages in flight, and a third copy is parsed again. A call's observer
    is known from its first egress row; the ingress rows read before it
    wait in a small list, and only the observer's rows become entries.
    Raises MalformedTraceRow for a row whose ``dir`` is neither EGRESS nor
    INGRESS, whose message falls outside the SIP profile, or that breaks
    its leg's ordering: a leg starts with its sent INVITE and its
    timestamps never decrease. Only such outside input can break that
    order; the live verifier's leg keeps it by construction. A bad ``dir``
    or message is raised at the first such row, before any later row is
    read; an ordering error is raised after every row was read, for the
    first broken leg in the order of the returned triples, at its first
    offending row.
    """
    from .sip_core import parse_message

    entry = _tuple_new
    parsed: dict[str, tuple[SipMessage, str]] = {}  # wire text -> (message, its Call-ID)
    # Call-ID -> (observer hop, leg) once its first egress row is read;
    # _NO_LEG for a call with no leg to build, or one whose leg is broken.
    observed: dict[str, tuple] = {}
    # Call-ID -> (line, to_hop) of its ingress rows read before its first egress row.
    waiting: dict[str, list[tuple[int, str]]] = {}
    broken: dict[str, MalformedTraceRow] = {}
    legs: list[tuple[str, str, list[TraceEntry]]] = []
    for line, t_ms, from_hop, to_hop, direction, text in rows:
        # A leg holds the rows whose hop field names its observer: the hop
        # that sent (egress) or received (ingress) the row's message.
        if direction == EGRESS:
            hop = from_hop
        elif direction == INGRESS:
            hop = to_hop
        else:
            raise MalformedTraceRow(line, f"dir {direction!r} is not one of {[EGRESS, INGRESS]}")
        cached = parsed.pop(text, None)
        if cached is None:
            try:
                msg = parse_message(text)
            except ParseError as exc:
                raise MalformedTraceRow(line, f"{type(exc).__name__}: {exc}") from exc
            cached = parsed[text] = (msg, msg.call_id)
        msg, cid = cached
        known = observed.get(cid)
        if known is not None:
            observer, leg = known
            if hop != observer:
                continue
            if t_ms < leg[-1].t_ms:
                observed[cid] = _NO_LEG
                broken[cid] = MalformedTraceRow(
                    line, f"call {cid}: trace timestamps must be non-decreasing")
                continue
            leg.append(entry(TraceEntry, (t_ms, direction, msg)))
        elif direction == INGRESS:
            waiting.setdefault(cid, []).append((line, to_hop))
        else:
            early = waiting.pop(cid, ())
            if not (msg.status is None and msg.method is INVITE
                    and from_hop.startswith("ep:")):
                observed[cid] = _NO_LEG
                continue
            leg = [entry(TraceEntry, (t_ms, direction, msg))]
            legs.append((cid, from_hop, leg))
            observed[cid] = (from_hop, leg)
            for early_line, early_hop in early:
                if early_hop == from_hop:
                    observed[cid] = _NO_LEG
                    broken[cid] = MalformedTraceRow(
                        early_line, f"call {cid}: a trace starts with the sent INVITE")
                    break
    if broken:
        raise next(broken[cid] for cid, _, _ in legs if cid in broken)
    return legs
