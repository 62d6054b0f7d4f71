"""Deterministic discrete-event simulation of interconnected carrier networks.

A Federation hosts one or more carriers, each with registered subscriber
lines and a gateway policy. Messages move between hops (subscriber lines,
per-carrier network cores, voicemail services) over links with fixed delay
plus optional seeded jitter; events fire in (time, insertion order), so a
given (scenario, seed) always produces byte-identical traces. The event
queue is one heap of ``(at, seq, callback, args)`` entries. ``seq`` is one
insertion counter shared by messages and timers, and only grows, so no two
entries tie and events run in exactly (time, ``seq``) order.
A timer calls the handler it was set with, and a delivery logs its
ingress row and hands the message to the destination hop's
``handle_message(msg)``. A timer is cancelled by its ``seq``, the handle
``set_timer`` returns.

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
reaches its destination hop. The trace file's format lives here, both
ways: ``Federation.trace_jsonl`` and ``write_trace`` write it,
``TRACE_HEAD_RE`` matches the fixed head of each line, and ``read_trace``
reads a file back as rows, raising ``TraceFileError`` for one it cannot
read.
"""

from __future__ import annotations

import heapq
import json
import os
import random
import re
from dataclasses import dataclass, field
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator

from . import call_fsm
from .call_fsm import (
    ANSWERED,
    CALLEE,
    CALLER,
    COLLISION,
    COLLISION_ANSWER_MS,
    EARLY,
    HELD,
    VOICEMAIL,
    Answer,
    CalleeProfile,
    Connected,
    Dialing,
    EndpointState,
    Held,
    Idle,
    LineLeg,
)
from .sip_core import (
    BYE,
    CANCEL,
    INVITE,
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


class TraceFileError(NetsimError):
    """A trace file that cannot be read back as a federation trace."""


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
        # has no draw range. A float would put a non-integer t_ms in the
        # trace, which parse rejects; a bool is refused as the scenario
        # loader refuses it.
        for key in ("link_delay_ms", "jitter_ms"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{key} must be >= 0")


@dataclass
class CarrierNetwork:
    """One carrier: its id, its gateway policy and the hops it runs itself."""

    id: str
    policy: GatewayPolicy = field(default_factory=GatewayPolicy)
    # The carrier's own hops; Federation.add_carrier builds them.
    core: _CarrierService = field(init=False, repr=False)
    voicemail: _CarrierService = field(init=False, repr=False)


# Which way a message crosses a hop, as a trace row's ``dir`` names it:
# EGRESS leaves the hop, INGRESS reaches it.
INGRESS, EGRESS = "ingress", "egress"


class _Dialog:
    __slots__ = ("uac", "uas")

    def __init__(self, uac: object, uas: object):
        self.uac = uac  # the originating hop: a line or a verifier
        self.uas = uas  # the answering hop: a line, a net core, or voicemail


# The leg phase backing each state preset_state accepts besides Idle.
_PRESET_PHASE = {Dialing: EARLY, Connected: ANSWERED, Held: HELD}


class PhoneLine:
    """A subscriber's phone: FSM driver plus leg and timer bookkeeping.

    The legs are the line's only record of its calls; ``state`` folds them.
    Single-owner: exactly one event loop drives a line.
    """

    def __init__(self, net: "Federation", carrier: CarrierNetwork, profile: CalleeProfile):
        self.net = net
        self.carrier = carrier
        self.profile = profile
        self.number: PhoneNumber = profile.number
        self.hop = "ep:" + profile.number
        self.legs: dict[str, LineLeg] = {}
        self.display: PhoneNumber | None = None
        # Called with the invite once the phone has sent its 180 for an
        # incoming call; the scenario runner launches verification from it.
        self.ring_hook: Callable[[SipMessage], None] | None = None
        # The latest verifier launched on this line (cive.launch_verification).
        self.verifier = None

    @property
    def state(self) -> EndpointState:
        """The foreground call state, folded from the legs."""
        return call_fsm.summarize_legs(self.legs.values())

    # -- preset support (scenario initial conditions) ----------------------

    def preset_state(self, state: EndpointState) -> None:
        """Install an initial state as one synthetic backing leg.

        Preset legs exist only as local bookkeeping; no signaling is
        replayed for them. A line cannot be on a call with its own number,
        so a peer equal to it raises ValueError.
        """
        if isinstance(state, Idle):
            return
        phase = _PRESET_PHASE.get(type(state))
        if phase is None:
            raise ValueError(f"cannot preset state {state!r}")
        peer = state.peer  # type: ignore[attr-defined]
        if peer == self.number:
            raise ValueError(f"{self.number} cannot be on a call with itself")
        call_id = "preset-" + self.number + "-" + str(len(self.legs))
        invite = SipMessage.request(INVITE, self.number, peer, call_id)
        self.legs[call_id] = LineLeg(CALLER, phase, invite)

    # -- event handlers -----------------------------------------------------

    def handle_message(self, msg: SipMessage) -> None:
        method = msg.method
        if msg.status is not None:
            self._handle_response(msg)
        elif method is INVITE:
            self._handle_invite(msg)
        elif method is CANCEL:
            self._handle_cancel(msg)
        elif method is BYE:
            self._handle_bye(msg)
        # ACK and PRACK are absorbed; this profile does not answer them.

    def _handle_invite(self, invite: SipMessage) -> None:
        responses = call_fsm.on_incoming_invite(self.state, self.profile, invite)
        answer = responses.pop() if isinstance(responses[-1], Answer) else None
        last = responses[-1]
        code = last.status.code
        if answer is not VOICEMAIL and code < 200:
            # Leg stays open at this endpoint: ringing, waiting, or a
            # pending collision answer.
            leg = self.legs[invite.call_id] = LineLeg(CALLEE, EARLY, invite)
            if answer is COLLISION:
                leg.auto_answer_timer = self.net.set_timer(
                    COLLISION_ANSWER_MS, self._auto_answer, invite.call_id
                )
        for msg in responses:
            self.net.send(self, msg)
        if answer is VOICEMAIL:
            self.net.voicemail_answer(self.carrier, SipMessage.reply(invite, 200))
        elif code == 180:
            self.display = invite.from_number
            if self.ring_hook is not None:
                self.ring_hook(invite)

    def _handle_cancel(self, cancel: SipMessage) -> None:
        leg = self.legs.get(cancel.call_id)
        early = leg is not None and leg.role is CALLEE and leg.phase is EARLY
        responses = call_fsm.on_cancel(cancel, leg.invite if early else None)
        if early:
            if leg.auto_answer_timer is not None:
                self.net.cancel_timer(leg.auto_answer_timer)
            del self.legs[cancel.call_id]
        for msg in responses:
            self.net.send(self, msg)

    def _handle_bye(self, bye: SipMessage) -> None:
        leg = self.legs.get(bye.call_id)
        responses = call_fsm.on_bye(bye, leg)
        if leg is not None and leg.phase is not EARLY:
            del self.legs[bye.call_id]
        for msg in responses:
            self.net.send(self, msg)

    def _handle_response(self, msg: SipMessage) -> None:
        leg = self.legs.get(msg.call_id)
        if leg is None or leg.role is not CALLER:
            return  # late or out-of-dialog response; nothing to do
        if msg.method is not INVITE:
            return  # 200 to our CANCEL, 481, etc.
        code = msg.status.code
        if code >= 200:
            if leg.patience_timer is not None:
                self.net.cancel_timer(leg.patience_timer)
                leg.patience_timer = None
            if code == 200:
                leg.phase = ANSWERED
            else:
                del self.legs[msg.call_id]
        method = call_fsm.on_response(msg, leg)
        if method is not None:
            self.net.send(self, leg.request(method))

    # -- timer handlers (whatever ends an early leg cancels its timers first) --

    def _auto_answer(self, call_id: str) -> None:
        leg = self.legs[call_id]
        responses = call_fsm.on_auto_answer(leg.invite)
        leg.phase = ANSWERED
        leg.auto_answer_timer = None
        for msg in responses:
            self.net.send(self, msg)

    def _give_up(self, call_id: str) -> None:
        """The caller's patience ran out: CANCEL the unanswered INVITE."""
        leg = self.legs[call_id]
        leg.patience_timer = None
        self.net.send(self, leg.request(CANCEL))

    def _start_call(self, call_id: str, from_claimed: PhoneNumber, to: PhoneNumber) -> None:
        for leg in self.legs.values():  # a phone holds its answered call before it dials
            if leg.phase is ANSWERED:
                leg.phase = HELD
        invite = SipMessage.request(INVITE, from_claimed, to, call_id)
        leg = self.legs[call_id] = LineLeg(CALLER, EARLY, invite)
        leg.patience_timer = self.net.set_timer(INVITE_PATIENCE_MS, self._give_up, call_id)
        self.net.send(self, invite)


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
        if msg.status is None and msg.method is self.method:
            self.net.send(self, SipMessage.reply(msg, self.code))


class Federation:
    """The simulation: carriers, subscribers, router, clock and event queue.

    Single-threaded and fully deterministic for a given (setup, seed).
    Independent Federations share nothing and may run concurrently. Every
    jitter draw comes from one stream, ``random.Random(seed)``, seeded when
    the first carrier with ``jitter_ms > 0`` is added; a federation without
    one never seeds it.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._getrandbits: Callable[[int], int] | None = None  # the jitter stream
        self.now = 0
        self.carriers: dict[str, CarrierNetwork] = {}
        self.lines: dict[PhoneNumber, PhoneLine] = {}
        self.trace: list[dict] = []
        self.policy_violations: list[dict] = []
        self._dialogs: dict[str, _Dialog] = {}
        self._heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._cancelled: set[int] = set()  # seqs of cancelled timers still queued
        self._call_counter = 0

    # -- setup ----------------------------------------------------------------

    def add_carrier(self, carrier_id: str, policy: GatewayPolicy | None = None) -> CarrierNetwork:
        if carrier_id in self.carriers:
            raise NetsimError(f"carrier {carrier_id} already exists")
        carrier = CarrierNetwork(carrier_id, policy or GatewayPolicy())
        # Seeding Random's 624-word state costs more than building the rest
        # of a small federation, so only a jittered carrier pays for it.
        if carrier.policy.jitter_ms and self._getrandbits is None:
            self._getrandbits = random.Random(self.seed).getrandbits
        # The core answers undeliverable or policy-rejected INVITEs; voicemail
        # owns the legs it answered for busy subscribers and answers their BYE.
        carrier.core = _CarrierService(self, carrier, "net", INVITE, 480)
        carrier.voicemail = _CarrierService(self, carrier, "vm", BYE, 200)
        self.carriers[carrier_id] = carrier
        return carrier

    def register_subscriber(
        self, carrier_id: str, number: str, profile: CalleeProfile | None = None
    ) -> PhoneLine:
        """Register a number on a carrier; the number is its authenticated id.

        Numbers are unique across the whole federation (no portability). A
        profile's number must equal ``number``; it is then the line's
        number, and a ``PhoneNumber`` is not validated again.
        """
        if carrier_id not in self.carriers:
            raise NetsimError(f"no such carrier: {carrier_id}")
        if profile is None:
            profile = CalleeProfile(number=PhoneNumber(number))
        elif profile.number != number:
            raise NetsimError("profile number must match the registered number")
        num = PhoneNumber(profile.number)
        if num in self.lines:
            raise DuplicateNumber(f"{num} is already registered")
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
        A line cannot call its own number: its caller and callee legs
        would share one Call-ID. A registered number is taken from its line;
        any other is validated.
        """
        lines = self.lines
        if lines.get(originator.number) is not originator:
            raise UnknownSubscriber(f"{originator.number} is not registered here")
        line = lines.get(from_claimed)
        claimed = PhoneNumber(from_claimed) if line is None else line.number
        line = lines.get(to)
        target = PhoneNumber(to) if line is None else line.number
        if target == originator.number:
            raise NetsimError(f"{target} cannot call itself")
        at = self.now if at_ms is None else at_ms
        if at < self.now:
            raise NetsimError("cannot originate in the past")
        call_id = self.new_call_id()
        self.set_timer(at - self.now, originator._start_call, call_id, claimed, target)
        return call_id

    # -- routing and transport ----------------------------------------------

    def _dest_for(self, sender, msg: SipMessage):
        """The answering hop of the dialog ``msg`` opens, which has none yet;
        only an INVITE opens one."""
        if msg.status is not None or msg.method is not INVITE:
            what = "response" if msg.status is not None else msg.method.value
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
        dialog = self._dialogs.get(msg.call_id)
        if dialog is None:
            dest = self._dest_for(sender, msg)
        else:
            dest = dialog.uac if sender is dialog.uas else dialog.uas
        src, dst = sender.carrier, dest.carrier
        delay = 0
        for policy in (src.policy,) if dst is src else (src.policy, dst.policy):
            delay += policy.link_delay_ms
            n = policy.jitter_ms + 1
            if n > 1:
                # What Random.randrange(n) draws, without its Python frames.
                k = n.bit_length()
                r = self._getrandbits(k)
                while r >= n:
                    r = self._getrandbits(k)
                delay += r
        sip = serialize_message(msg)
        now = self.now
        from_hop = sender.hop
        self.trace.append({"t_ms": now, "carrier": src.id, "from_hop": from_hop,
                           "to_hop": dest.hop, "dir": EGRESS, "sip": sip})
        self._seq = seq = self._seq + 1
        # Queued here, not by set_timer: a delivery has no handle to cancel.
        heapq.heappush(self._heap, (now + delay, seq, self._deliver, (dest, msg, from_hop, sip)))

    def _deliver(self, dest, msg: SipMessage, from_hop: str, sip: str) -> None:
        """Log the ingress row of a message reaching its hop and hand it over."""
        self.trace.append({"t_ms": self.now, "carrier": dest.carrier.id, "from_hop": from_hop,
                           "to_hop": dest.hop, "dir": INGRESS, "sip": sip})
        dest.handle_message(msg)

    def voicemail_answer(self, carrier: CarrierNetwork, response: SipMessage) -> None:
        """Answer a forwarded leg from the carrier's voicemail service.

        The voicemail service takes over the answering side of the dialog,
        so the later ACK/BYE land there instead of at the subscriber.
        """
        self._dialogs[response.call_id].uas = carrier.voicemail
        self.send(carrier.voicemail, response)

    def set_timer(self, delay_ms: int, callback: Callable[..., None], *args) -> int:
        """Call ``callback(*args)`` ``delay_ms`` from now; returns the timer's
        handle for ``cancel_timer``. The clock never runs backwards, so a
        negative delay raises NetsimError."""
        if delay_ms < 0:
            raise NetsimError(f"timer delay must be >= 0, got {delay_ms}")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self.now + delay_ms, seq, callback, args))
        return seq

    def cancel_timer(self, timer: int) -> None:
        """Drop a queued timer; the handle of one that has fired changes nothing."""
        self._cancelled.add(timer)

    # -- event loop ------------------------------------------------------------

    def run(self) -> int:
        """Process events in deterministic order until the queue drains.

        Raises SimBudgetExceeded if live events remain scheduled past
        ``MAX_SIM_MS``, read at call time; returns the final simulated clock.
        """
        budget = MAX_SIM_MS
        heap, cancelled, pop = self._heap, self._cancelled, heapq.heappop
        # An event is popped before it runs, so a handler that raises leaves
        # every later event queued.
        while heap:
            event = pop(heap)
            at, seq, callback, args = event
            if seq in cancelled:
                # A cancelled timer neither advances the clock nor counts
                # against the budget.
                cancelled.discard(seq)
                continue
            if at > budget:
                heapq.heappush(heap, event)  # left queued, as found
                raise SimBudgetExceeded(
                    f"events still queued at t={at} ms, past the {budget} sim-ms budget"
                )
            self.now = at
            callback(*args)
        return self.now

    def run_until_quiescent(self) -> int:
        """``run`` under its old name, kept only for ``perfbench/workloads.py``."""
        return self.run()

    # -- trace output ------------------------------------------------------------

    def trace_jsonl(self) -> str:
        """The trace as JSON lines, byte for byte what ``json.dumps(row)`` gives.

        Lines are built from the fixed field order, each string escaped as
        ``json.dumps`` escapes it. ``TRACE_HEAD_RE`` matches the head of
        each line, up to its sip literal.
        """
        q = encode_basestring_ascii
        return "".join(
            f'{{"t_ms": {r["t_ms"]}, "carrier": {q(r["carrier"])}, "from_hop": {q(r["from_hop"])}, '
            f'"to_hop": {q(r["to_hop"])}, "dir": {q(r["dir"])}, "sip": {q(r["sip"])}}}\n'
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


# The fixed head of one trace_jsonl line, up to the opening quote of its
# sip literal: the fixed key order and spacing, a plain decimal t_ms, and four
# strings with nothing to unescape. A reader that matches it still has to
# check the rest of the line: one JSON string literal, "}" and an optional
# newline. Matching only the head keeps the long sip literal out of the scan.
_PLAIN_STR = r'"([^"\\\x00-\x1f]*)"'
TRACE_HEAD_RE = re.compile(
    r'\{"t_ms": (0|[1-9][0-9]*), "carrier": ' + _PLAIN_STR
    + r', "from_hop": ' + _PLAIN_STR + r', "to_hop": ' + _PLAIN_STR
    + r', "dir": ' + _PLAIN_STR + r', "sip": (?=")'
)


# Fields legs_from_trace_rows reads from every row, in its tuple order after
# the row's line number, with their JSON types.
_ROW_FIELDS = {"t_ms": int, "from_hop": str, "to_hop": str, "dir": str, "sip": str}


def _row_problem(row: object) -> str | None:
    if type(row) is not dict:
        return "a trace row must be a JSON object"
    for name, kind in _ROW_FIELDS.items():
        if name not in row:
            return f"row has no {name!r} field"
        if type(row[name]) is not kind:
            return f"field {name!r} must be a JSON {'integer' if kind is int else 'string'}"
    return None


def _decode_literal(literal: str) -> str:
    """The text of a JSON string literal; ValueError unless it decodes whole."""
    text, end = scanstring(literal, 1)
    if end != len(literal):
        raise ValueError("string literal not consumed")
    return text


def _general_row(line: str, path: str, lineno: int) -> tuple:
    """One row read by ``json.loads``, as its line number and then its
    fields in ``_ROW_FIELDS`` order; raises TraceFileError naming the line."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFileError(f"{path}:{lineno}: malformed JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an integer too long for int(), deep nesting
        raise TraceFileError(f"{path}:{lineno}: unreadable JSON: {exc}") from None
    problem = _row_problem(row)
    if problem is not None:
        raise TraceFileError(f"{path}:{lineno}: {problem}")
    return lineno, row["t_ms"], row["from_hop"], row["to_hop"], row["dir"], row["sip"]


def read_trace(path: str) -> Iterator[tuple[int, int, str, str, str, str]]:
    """Yield the rows of a trace file, one line at a time, each as the tuple
    ``(line, t_ms, from_hop, to_hop, dir, sip)``: its line number in the
    file, then its fields in ``_ROW_FIELDS`` order. Blank lines are skipped.

    A line as ``Federation.trace_jsonl`` writes it is read in one pass:
    ``TRACE_HEAD_RE`` matches its fixed head, and the rest of the line must
    be one sip literal, ``}`` and an optional newline. The tail is
    checked before the literal is looked up in the cache, on a hit too. A
    literal is decoded where it is first read and kept until its twin row
    reads it, which drops it from the cache: a row and its twin share one
    string, and the cache holds only the messages in flight. A third copy
    is decoded again. Any other line, or one whose literal or integer does
    not decode, goes to ``json.loads``; both give the same row, or the same
    error on the same line.
    """
    texts: dict[str, str] = {}  # sip literal -> its decoded text, until its twin row
    head = TRACE_HEAD_RE.match
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                m = head(line)
                literal = None
                if m is not None:  # the rest must be the sip literal, "}" and an optional newline
                    if line.endswith("}\n"):
                        literal = line[m.end() : -2]
                    elif line.endswith("}"):
                        literal = line[m.end() : -1]
                if literal is None:
                    if not line.strip():
                        continue
                    yield _general_row(line, path, lineno)
                    continue
                t_ms, _, from_hop, to_hop, direction = m.groups()
                try:
                    sip = texts.pop(literal, None)
                    if sip is None:
                        sip = texts[literal] = _decode_literal(literal)
                    t_ms = int(t_ms)
                except ValueError:  # a literal JSON rejects, an integer too long for int()
                    yield _general_row(line, path, lineno)
                else:
                    yield lineno, t_ms, from_hop, to_hop, direction, sip
    except OSError as exc:
        raise TraceFileError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise TraceFileError(f"{path}: not UTF-8 text") from None
