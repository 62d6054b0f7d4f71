"""Deterministic discrete-event simulation of interconnected carrier networks.

A Federation hosts one or more carriers, each with registered subscriber
lines and a gateway policy. Messages move between hops (subscriber lines,
per-carrier network cores, voicemail services) over links with fixed delay
plus optional seeded jitter; events fire in (time, insertion order), so a
given (scenario, seed) always produces byte-identical traces. Every queued
event is a callback with its arguments: a timer calls the handler it was
set with, and a delivery logs its ingress row and hands the message to the
destination hop's ``handle_message(msg)``.

A hop is an object that routes itself: a subscriber line, a carrier's core
or voicemail service, or a verifier speaking for a line. It carries its
trace label ``hop``, its ``carrier`` and its authenticated ``number``
(``None`` for the carrier's own services), so the router needs no table.

Spoofing lives in ``originate_call``: the INVITE's From is whatever the
originator claims. A carrier whose policy enforces caller ID rejects a
mismatched claim at its own edge with a synthetic 480 back to the
originator; a permissive carrier forwards it untouched, which is the
attack. Responses and in-dialog requests are routed by dialog over the
path the real INVITE took, never by the (possibly forged) From header.

Trace log: one JSON object per line, fields in fixed order
``{t_ms, carrier, from_hop, to_hop, dir, sip}``. Every message produces an
egress row when it leaves its source hop and an ingress row when it
reaches its destination hop.
"""

from __future__ import annotations

import heapq
import os
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

from . import call_fsm
from .call_fsm import (
    AutoAnswer,
    CalleeProfile,
    Connected,
    Dialing,
    EndpointState,
    Held,
    Idle,
    LegPhase,
    LegRole,
    LineLeg,
    SendRequest,
    SendResponse,
)
from .sip_core import (
    PhoneNumber,
    SipMessage,
    SipMethod,
    serialize_message,
)

INVITE_PATIENCE_MS = 20_000
MAX_SIM_MS = 60_000


class NetsimError(Exception):
    pass


class DuplicateNumber(NetsimError):
    """The number is already registered somewhere in the federation."""


class UnknownSubscriber(NetsimError):
    pass


class SimBudgetExceeded(NetsimError):
    """Events remained queued past the simulation budget (likely a livelock)."""


@dataclass(frozen=True)
class GatewayPolicy:
    """Per-carrier interconnect behavior.

    With ``enforce_caller_id`` set, no INVITE whose From differs from the
    originator's authenticated number leaves this carrier; it is rejected
    at the edge with a synthetic 480. Link delay applies once per carrier a
    message traverses; jitter adds a deterministic seeded 0..jitter_ms draw
    per link.
    """

    enforce_caller_id: bool = False
    link_delay_ms: int = 50
    jitter_ms: int = 0

    def __post_init__(self) -> None:
        # A negative delay would run the clock backwards; a negative jitter
        # has no draw range.
        for key in ("link_delay_ms", "jitter_ms"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")


@dataclass
class CarrierNetwork:
    id: str
    policy: GatewayPolicy = field(default_factory=GatewayPolicy)
    # The carrier's own hops; Federation.add_carrier builds them.
    core: _CarrierService = field(init=False, repr=False)
    voicemail: _CarrierService = field(init=False, repr=False)


class Direction(str, Enum):
    """Which way a message crosses a hop: EGRESS leaves it, INGRESS reaches it.

    The values are the ``dir`` strings of trace rows.
    """

    INGRESS = "ingress"
    EGRESS = "egress"


@dataclass(slots=True)
class _Event:
    """A queued call of ``callback(*args)``: a timer or a message delivery.

    The heap holds ``(at, seq, event)``, so ties on ``at`` break FIFO by
    ``seq``. A mutable slotted record: one is built per message, so it
    stays cheap, and cancelling a timer only sets ``cancelled``.
    """

    callback: Callable[..., None]
    args: tuple
    cancelled: bool = False


@dataclass
class _Dialog:
    uac: object  # the originating hop: a line or a verifier
    uas: object  # the answering hop: a line, a net core, or voicemail


# The leg phase backing each state preset_state accepts besides Idle.
_PRESET_PHASE = {Dialing: LegPhase.EARLY, Connected: LegPhase.ANSWERED, Held: LegPhase.HELD}


class PhoneLine:
    """A subscriber's phone: FSM driver plus leg and timer bookkeeping.

    Single-owner: exactly one event loop drives a line.
    """

    def __init__(self, net: "Federation", carrier: CarrierNetwork, profile: CalleeProfile):
        self.net = net
        self.carrier = carrier
        self.profile = profile
        self.number: PhoneNumber = profile.number
        self.hop = f"ep:{profile.number}"
        self.state: EndpointState = Idle()
        self.legs: dict[str, LineLeg] = {}
        self.display: PhoneNumber | None = None
        # Called with (invite, t_ms) once the phone has sent its 180 for an
        # incoming call; the scenario runner launches verification from it.
        self.ring_hook: Callable[[SipMessage, int], None] | None = None
        # The latest verifier launched on this line (cive.launch_verification).
        self.verifier = None

    # -- preset support (scenario initial conditions) ----------------------

    def preset_state(self, state: EndpointState) -> None:
        """Install a summary initial state with a synthetic backing leg.

        Preset legs exist only as local bookkeeping; no signaling is
        replayed for them.
        """
        if isinstance(state, Idle):
            return
        phase = _PRESET_PHASE.get(type(state))
        if phase is None:
            raise ValueError(f"cannot preset state {state!r}")
        peer = state.target if isinstance(state, Dialing) else state.peer  # type: ignore[attr-defined]
        call_id = f"preset-{self.number}-{len(self.legs)}"
        invite = SipMessage.request(SipMethod.INVITE, self.number, peer, call_id)
        self.legs[call_id] = LineLeg(call_id, peer, LegRole.CALLER, phase, invite)
        self.state = state

    # -- event handlers -----------------------------------------------------

    def handle_message(self, msg: SipMessage) -> None:
        if msg.is_response:
            self._handle_response(msg)
        elif msg.method is SipMethod.INVITE:
            self._handle_invite(msg)
        elif msg.method is SipMethod.CANCEL:
            self._handle_cancel(msg)
        elif msg.method is SipMethod.BYE:
            self._handle_bye(msg)
        # ACK and PRACK are absorbed; this profile does not answer them.

    def _handle_invite(self, invite: SipMessage) -> None:
        state, actions = call_fsm.on_incoming_invite(self.state, self.profile, invite)
        self.state = state
        alerting = answered = False  # answered: a final response, local or by voicemail
        auto = None
        for a in actions:
            if isinstance(a, SendResponse):
                code = a.status.code
                alerting = alerting or code == 180
                answered = answered or code >= 200 or a.answered_by_network
            elif isinstance(a, AutoAnswer):
                auto = auto or a
        if not answered:
            # Leg stays open at this endpoint: ringing, waiting, or a
            # pending collision answer.
            leg = LineLeg(
                invite.call_id, invite.from_number, LegRole.CALLEE, LegPhase.EARLY, invite
            )
            self.legs[invite.call_id] = leg
            if auto is not None:
                leg.auto_answer_timer = self.net.set_timer(
                    auto.after_ms, self._auto_answer, invite.call_id
                )
        self._execute(actions, leg=self.legs.get(invite.call_id))
        if alerting:
            self.display = invite.from_number
            if self.ring_hook is not None:
                self.ring_hook(invite, self.net.now)

    def _handle_cancel(self, cancel: SipMessage) -> None:
        leg = self.legs.get(cancel.call_id)
        pending = (
            leg.invite
            if leg is not None and leg.role is LegRole.CALLEE and leg.phase is LegPhase.EARLY
            else None
        )
        state, actions = call_fsm.on_cancel(self.state, cancel, pending)
        self.state = state
        if pending is not None and leg is not None:
            if leg.auto_answer_timer is not None:
                self.net.cancel_timer(leg.auto_answer_timer)
            del self.legs[cancel.call_id]
        self._execute(actions, leg=leg)

    def _handle_bye(self, bye: SipMessage) -> None:
        leg = self.legs.get(bye.call_id)
        state, actions = call_fsm.on_bye(self.state, bye, tuple(self.legs.values()))
        matched = any(
            isinstance(a, SendResponse) and a.status.code == 200 for a in actions
        )
        self.state = state
        if matched and bye.call_id in self.legs:
            del self.legs[bye.call_id]
        self._execute(actions, leg=leg)

    def _handle_response(self, msg: SipMessage) -> None:
        leg = self.legs.get(msg.call_id)
        if leg is None or leg.role is not LegRole.CALLER:
            return  # late or out-of-dialog response; nothing to do
        if msg.cseq[1] is not SipMethod.INVITE:
            return  # 200 to our CANCEL, 481, etc.
        if msg.is_final:
            if leg.patience_timer is not None:
                self.net.cancel_timer(leg.patience_timer)
                leg.patience_timer = None
            assert msg.status is not None
            if msg.status.code == 200:
                leg.phase = LegPhase.ANSWERED
            else:
                del self.legs[leg.call_id]
        # After a non-2xx final, the legs left are the ones the state falls back to.
        self.state, actions = call_fsm.on_response(self.state, msg, self.legs.values())
        self._execute(actions, leg=leg)

    def _auto_answer(self, call_id: str) -> None:
        leg = self.legs.get(call_id)
        if leg is None or leg.phase is not LegPhase.EARLY:
            return
        state, actions = call_fsm.on_auto_answer(self.state, leg.invite)
        self.state = state
        leg.phase = LegPhase.ANSWERED
        leg.auto_answer_timer = None
        self._execute(actions, leg=leg)

    def _give_up(self, call_id: str) -> None:
        """The caller's patience ran out: CANCEL the unanswered INVITE."""
        leg = self.legs.get(call_id)
        if leg is None or leg.phase is not LegPhase.EARLY:
            return
        leg.patience_timer = None
        self.net.send(self, leg.request(SipMethod.CANCEL))

    def _start_call(self, call_id: str, from_claimed: PhoneNumber, to: PhoneNumber) -> None:
        invite = SipMessage.request(SipMethod.INVITE, from_claimed, to, call_id)
        leg = LineLeg(call_id, to, LegRole.CALLER, LegPhase.EARLY, invite)
        self.legs[call_id] = leg
        if isinstance(self.state, Idle):
            self.state = Dialing(to)
        leg.patience_timer = self.net.set_timer(INVITE_PATIENCE_MS, self._give_up, call_id)
        self.net.send(self, invite)

    # -- action execution ----------------------------------------------------

    def _execute(self, actions: list, leg: LineLeg | None) -> None:
        for action in actions:
            if isinstance(action, SendResponse):
                resp = SipMessage.reply(
                    action.regarding, action.status, pem=action.pem, alert=action.alert
                )
                if action.answered_by_network:
                    self.net.voicemail_answer(self.carrier, resp)
                else:
                    self.net.send(self, resp)
            elif isinstance(action, SendRequest):
                if leg is None:
                    raise NetsimError("request action without a leg")
                self.net.send(self, leg.request(action.method))


class _CarrierService:
    """A hop the carrier runs itself, labelled ``<kind>:<carrier id>``.

    It answers each ``method`` request that reaches it with ``code`` and
    absorbs everything else (ACKs). It has no number, so the caller-ID
    policy never applies to it.
    """

    number = None

    def __init__(self, net: "Federation", carrier: CarrierNetwork, kind: str,
                 method: SipMethod, code: int):
        self.net = net
        self.carrier = carrier
        self.hop = f"{kind}:{carrier.id}"
        self.method = method
        self.code = code

    def handle_message(self, msg: SipMessage) -> None:
        if msg.is_request and msg.method is self.method:
            self.net.send(self, SipMessage.reply(msg, self.code))


class Federation:
    """The simulation: carriers, subscribers, router, clock and event queue.

    Single-threaded and fully deterministic for a given (setup, seed).
    Independent Federations share nothing and may run concurrently.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.now = 0
        self.carriers: dict[str, CarrierNetwork] = {}
        self.lines: dict[PhoneNumber, PhoneLine] = {}
        self.trace: list[dict] = []
        self.policy_violations: list[dict] = []
        self._dialogs: dict[str, _Dialog] = {}
        self._heap: list[tuple[int, int, _Event]] = []
        self._seq = 0
        self._call_counter = 0

    # -- setup ----------------------------------------------------------------

    def add_carrier(self, carrier_id: str, policy: GatewayPolicy | None = None) -> CarrierNetwork:
        if carrier_id in self.carriers:
            raise NetsimError(f"carrier {carrier_id} already exists")
        carrier = CarrierNetwork(carrier_id, policy or GatewayPolicy())
        # The core answers undeliverable or policy-rejected INVITEs; voicemail
        # owns the legs it answered for busy subscribers and answers their BYE.
        carrier.core = _CarrierService(self, carrier, "net", SipMethod.INVITE, 480)
        carrier.voicemail = _CarrierService(self, carrier, "vm", SipMethod.BYE, 200)
        self.carriers[carrier_id] = carrier
        return carrier

    def register_subscriber(
        self, carrier_id: str, number: str, profile: CalleeProfile | None = None
    ) -> PhoneLine:
        """Register a number on a carrier; the number is its authenticated id.

        Numbers are unique across the whole federation (no portability).
        """
        if carrier_id not in self.carriers:
            raise NetsimError(f"no such carrier: {carrier_id}")
        num = PhoneNumber(number)
        if num in self.lines:
            raise DuplicateNumber(f"{num} is already registered")
        if profile is None:
            profile = CalleeProfile(number=num)
        elif profile.number != num:
            raise NetsimError("profile number must match the registered number")
        line = self.lines[num] = PhoneLine(self, self.carriers[carrier_id], profile)
        return line

    def new_call_id(self) -> str:
        self._call_counter += 1
        return f"c{self._call_counter:04d}@sim"

    # -- origination ------------------------------------------------------------

    def originate_call(
        self,
        from_claimed: str,
        originator: PhoneLine,
        to: str,
        at_ms: int | None = None,
    ) -> str:
        """Place a call from ``originator`` with an arbitrary claimed From.

        When the claim differs from the originator's authenticated number
        this is the spoofing launch; whether it gets through is the
        originating carrier's policy decision, made when the INVITE hits
        the edge. An unroutable destination is answered 480 by the core.
        """
        if self.lines.get(originator.number) is not originator:
            raise UnknownSubscriber(f"{originator.number} is not registered here")
        claimed, target = PhoneNumber(from_claimed), PhoneNumber(to)
        call_id = self.new_call_id()
        at = self.now if at_ms is None else at_ms
        if at < self.now:
            raise NetsimError("cannot originate in the past")
        self.set_timer(at - self.now, originator._start_call, call_id, claimed, target)
        return call_id

    # -- routing and transport ----------------------------------------------

    def _dest_for(self, sender, msg: SipMessage):
        """The other side of ``msg``'s dialog; only an INVITE opens a new one."""
        dialog = self._dialogs.get(msg.call_id)
        if dialog is not None:
            return dialog.uac if sender is dialog.uas else dialog.uas
        if msg.is_response or msg.method is not SipMethod.INVITE:
            what = "response" if msg.is_response else msg.method.value
            raise NetsimError(f"{what} for unknown dialog {msg.call_id}: only an INVITE opens one")
        carrier, auth = sender.carrier, sender.number
        if carrier.policy.enforce_caller_id and auth is not None and msg.from_number != auth:
            self.policy_violations.append(
                {
                    "t_ms": self.now,
                    "carrier": carrier.id,
                    "originator": str(auth),
                    "claimed": str(msg.from_number),
                    "target": str(msg.to_number),
                    "call_id": msg.call_id,
                }
            )
            dest = carrier.core
        else:
            dest = self.lines.get(msg.to_number) or carrier.core
        self._dialogs[msg.call_id] = _Dialog(uac=sender, uas=dest)
        return dest

    def send(self, sender, msg: SipMessage) -> None:
        """Emit a message from a hop: route, log egress, schedule delivery.

        Link delay applies once per carrier the message crosses, each with
        its own seeded jitter draw; crossing the interconnect costs the
        destination carrier's link as well: one gateway hop.
        """
        dest = self._dest_for(sender, msg)
        src, dst = sender.carrier, dest.carrier
        policy = src.policy
        delay = policy.link_delay_ms
        if policy.jitter_ms:
            delay += self.rng.randrange(policy.jitter_ms + 1)
        if dst is not src:
            policy = dst.policy
            delay += policy.link_delay_ms
            if policy.jitter_ms:
                delay += self.rng.randrange(policy.jitter_ms + 1)
        sip = serialize_message(msg)
        now = self.now
        from_hop = sender.hop
        self.trace.append({"t_ms": now, "carrier": src.id, "from_hop": from_hop,
                           "to_hop": dest.hop, "dir": "egress", "sip": sip})
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (now + delay, seq,
                                    _Event(self._deliver, (dest, msg, from_hop, sip))))

    def _deliver(self, dest, msg: SipMessage, from_hop: str, sip: str) -> None:
        """Log the ingress row of a message reaching its hop and hand it over."""
        self.trace.append({"t_ms": self.now, "carrier": dest.carrier.id, "from_hop": from_hop,
                           "to_hop": dest.hop, "dir": "ingress", "sip": sip})
        dest.handle_message(msg)

    def voicemail_answer(self, carrier: CarrierNetwork, response: SipMessage) -> None:
        """Answer a forwarded leg from the carrier's voicemail service.

        The voicemail service takes over the answering side of the dialog,
        so the later ACK/BYE land there instead of at the subscriber.
        """
        self._dialogs[response.call_id].uas = carrier.voicemail
        self.send(carrier.voicemail, response)

    def set_timer(self, delay_ms: int, callback: Callable[..., None], *args) -> _Event:
        """Call ``callback(*args)`` ``delay_ms`` from now; returns the timer."""
        self._seq = seq = self._seq + 1
        event = _Event(callback, args)
        heapq.heappush(self._heap, (self.now + delay_ms, seq, event))
        return event

    def cancel_timer(self, timer: _Event) -> None:
        timer.cancelled = True

    # -- event loop ------------------------------------------------------------

    def run(self) -> int:
        """Process events in deterministic order until the queue drains.

        Raises SimBudgetExceeded if live events remain scheduled past
        ``MAX_SIM_MS``, read at call time; returns the final simulated clock.
        """
        budget = MAX_SIM_MS
        heap = self._heap
        while heap:
            at, _, event = heap[0]
            if event.cancelled:
                # A cancelled timer neither advances the clock nor counts
                # against the budget.
                heapq.heappop(heap)
                continue
            if at > budget:
                raise SimBudgetExceeded(
                    f"events still queued at t={at} ms, past the {budget} sim-ms budget"
                )
            heapq.heappop(heap)
            self.now = at
            event.callback(*event.args)
        return self.now

    def run_until_quiescent(self) -> int:
        """Drain the event queue; returns the final simulated clock."""
        return self.run()

    # -- trace output ------------------------------------------------------------

    def trace_jsonl(self) -> str:
        """The trace as JSON lines, byte for byte what ``json.dumps(row)`` gives.

        Lines are built from the fixed field order; each distinct string is
        escaped once, since an egress row and its ingress row share the same
        wire text. ``TRACE_LINE_RE`` is the inverse of this layout.
        """
        q = _Quoted()
        return "".join(
            f'{{"t_ms": {r["t_ms"]}, "carrier": {q[r["carrier"]]}, "from_hop": {q[r["from_hop"]]}, '
            f'"to_hop": {q[r["to_hop"]]}, "dir": {q[r["dir"]]}, "sip": {q[r["sip"]]}}}\n'
            for r in self.trace
        )

    def write_trace(self, path: str | Path) -> None:
        write_file(path, self.trace_jsonl())


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, as ``Path.write_text`` would.

    An existing file is overwritten in place and then cut to the new
    length, rather than truncated to zero first: on a disk that discards
    freed blocks, releasing and reallocating them costs far more than the
    write. On POSIX the bytes and, for a new file, the mode (``0o666``
    less the umask) are those ``open(path, "w")`` gives.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, written)
    finally:
        os.close(fd)


class _Quoted(dict):
    """Memo of JSON string literals, as ``json.dumps`` writes them."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = encode_basestring_ascii(text)
        return quoted


# The exact inverse of one trace_jsonl line, for readers that take such a
# line in one match: the fixed key order and spacing, a plain decimal t_ms,
# four strings with nothing to unescape, and the sip field captured as its
# raw JSON string literal.
_PLAIN_STR = r'"([^"\\\x00-\x1f]*)"'
TRACE_LINE_RE = re.compile(
    r'\{"t_ms": (0|[1-9][0-9]*), "carrier": ' + _PLAIN_STR
    + r', "from_hop": ' + _PLAIN_STR + r', "to_hop": ' + _PLAIN_STR
    + r', "dir": ' + _PLAIN_STR + r', "sip": ("[^"\\]*(?:\\.[^"\\]*)*")\}\n?'
)
