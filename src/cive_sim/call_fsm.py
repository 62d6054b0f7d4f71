"""Per-endpoint call state machine.

A phone is summarized by one EndpointState at a time. The transition
functions here are pure: they take the current summary state plus the
triggering message and return ``(new_state, actions)``. A driver (the
network simulator) owns leg bookkeeping, timers and the wire. Every
action has a wire effect (a response, a request, or the delayed
collision answer); local effects such as ringback are not modelled.

Callee behavior for an incoming INVITE, by state and service features:

  state                      call_waiting  voicemail   response sequence
  -------------------------  ------------  ---------   ------------------------------
  Idle                       any           any         100, 183 sendrecv, 180 sendrecv
  Connected/Held             yes           any         100, 183 sendrecv, 180 sendrecv + call-waiting alert
  Connected/Held             no            no          100, 486
  Connected/Held             no            yes         100, 181, 200 (voicemail answers)
  Dialing the inviter back   any           any         100, 183 sendonly, 180 sendonly, auto-answer
  Dialing someone else       any           any         100, 486 (a mid-dial phone cannot park a call)

The sendonly early-media grant is emitted if and only if the callee is
already dialing the party that is now calling it back; that call-back
collision is the one signature that distinguishes a genuinely dialing
far end from an idle one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .sip_core import (
    CANONICAL_REASON,
    AlertUrn,
    PemValue,
    PhoneNumber,
    SipMessage,
    SipMethod,
    StatusCode,
)

# How long a phone that is mid-dial waits before auto-answering the call-back
# collision. Must stay below the verifier's capture grace (200 ms): the answer
# has to reach the verifier inside the grace window, otherwise the callback is
# cancelled first and the mid-dial case becomes indistinguishable from idle at
# teardown time. Importing cive fails if this does not hold.
COLLISION_ANSWER_MS = 100


class FsmError(Exception):
    pass


class InviteToWrongNumber(FsmError):
    """The INVITE's To does not match the profile's number."""


class EndpointState:
    """Base of the closed state set; instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Idle(EndpointState):
    pass


@dataclass(frozen=True)
class Dialing(EndpointState):
    target: PhoneNumber


@dataclass(frozen=True)
class Ringing(EndpointState):
    peer: PhoneNumber


@dataclass(frozen=True)
class Connected(EndpointState):
    peer: PhoneNumber


@dataclass(frozen=True)
class Held(EndpointState):
    peer: PhoneNumber


@dataclass(frozen=True)
class CalleeProfile:
    """A subscriber's number plus the service features that shape signaling."""

    number: PhoneNumber
    call_waiting: bool = False
    voicemail_forward: bool = False


class LegRole(str, Enum):
    CALLER = "caller"
    CALLEE = "callee"


class LegPhase(str, Enum):
    EARLY = "early"  # INVITE sent/received, no final answer yet
    ANSWERED = "answered"
    HELD = "held"


@dataclass
class LineLeg:
    """One call leg as an endpoint tracks it, with the INVITE that opened it.

    The transition functions read only call_id, peer, role and phase; the
    rest is the endpoint's own bookkeeping.
    """

    call_id: str
    peer: PhoneNumber
    role: LegRole
    phase: LegPhase
    invite: SipMessage
    next_cseq: int = 2
    auto_answer_timer: object | None = None  # pending netsim timers, for cancel_timer
    patience_timer: object | None = None

    def request(self, method: SipMethod) -> SipMessage:
        """The next in-dialog request on this leg.

        ACK and CANCEL reuse the INVITE's CSeq number (RFC 3261 sections
        17.1.1.3 and 9.1); any other request takes the next one: 2, 3, ...
        """
        if method is SipMethod.ACK or method is SipMethod.CANCEL:
            seq = self.invite.cseq[0]
        else:
            seq = self.next_cseq
            self.next_cseq += 1
        return SipMessage(
            method=method,
            from_number=self.invite.from_number,
            to_number=self.invite.to_number,
            call_id=self.call_id,
            cseq=(seq, method),
        )


class FsmAction:
    """Base of the closed action set emitted by transitions."""

    __slots__ = ()


@dataclass(frozen=True)
class SendResponse(FsmAction):
    status: StatusCode
    regarding: SipMessage
    pem: PemValue | None = None
    alert: AlertUrn | None = None
    # True when the response is produced by a network service (voicemail)
    # on the subscriber's behalf; the endpoint state does not change.
    answered_by_network: bool = False


@dataclass(frozen=True)
class SendRequest(FsmAction):
    method: SipMethod


@dataclass(frozen=True)
class AutoAnswer(FsmAction):
    after_ms: int


def summarize_legs(legs: Iterable) -> EndpointState:
    """Fold a set of legs into the single foreground EndpointState.

    Precedence: an answered call is foreground, then an outgoing dial in
    progress, then an incoming ringing call, then a held call. Within a
    class the most recently added leg wins.
    """
    legs = list(legs)
    answered = [l for l in legs if l.phase is LegPhase.ANSWERED]
    if answered:
        return Connected(answered[-1].peer)
    dialing = [l for l in legs if l.role is LegRole.CALLER and l.phase is LegPhase.EARLY]
    if dialing:
        return Dialing(dialing[-1].peer)
    ringing = [l for l in legs if l.role is LegRole.CALLEE and l.phase is LegPhase.EARLY]
    if ringing:
        return Ringing(ringing[-1].peer)
    held = [l for l in legs if l.phase is LegPhase.HELD]
    if held:
        return Held(held[-1].peer)
    return Idle()


# One shared (immutable) StatusCode per code, so responses do not rebuild it.
_STATUS = {code: StatusCode(code) for code in CANONICAL_REASON}


def _respond(invite: SipMessage, code: int, pem=None, alert=None, by_network=False) -> SendResponse:
    return SendResponse(
        status=_STATUS[code],
        regarding=invite,
        pem=pem,
        alert=alert,
        answered_by_network=by_network,
    )


def on_incoming_invite(
    state: EndpointState,
    profile: CalleeProfile,
    invite: SipMessage,
) -> tuple[EndpointState, list[FsmAction]]:
    """Answer an incoming INVITE per the behavior table in the module doc.

    Deterministic: identical (state, profile, invite) always yields the
    identical result. Raises InviteToWrongNumber when the INVITE is not
    addressed to this profile.
    """
    if invite.method is not SipMethod.INVITE or not invite.is_request:
        raise ValueError("on_incoming_invite requires an INVITE request")
    if invite.to_number != profile.number:
        raise InviteToWrongNumber(
            f"INVITE for {invite.to_number} delivered to {profile.number}"
        )

    trying = _respond(invite, 100)

    if isinstance(state, Idle):
        return Ringing(invite.from_number), [
            trying,
            _respond(invite, 183, pem=PemValue.SENDRECV),
            _respond(invite, 180, pem=PemValue.SENDRECV),
        ]

    if isinstance(state, Dialing) and state.target == invite.from_number:
        # Call-back collision: we are dialing exactly the party now calling
        # us. Grant one-way early media and pick up shortly.
        return state, [
            trying,
            _respond(invite, 183, pem=PemValue.SENDONLY),
            _respond(invite, 180, pem=PemValue.SENDONLY),
            AutoAnswer(after_ms=COLLISION_ANSWER_MS),
        ]

    on_a_call = isinstance(state, (Connected, Held))
    if on_a_call and profile.call_waiting:
        return state, [
            trying,
            _respond(invite, 183, pem=PemValue.SENDRECV),
            _respond(invite, 180, pem=PemValue.SENDRECV, alert=AlertUrn.CALL_WAITING),
        ]
    if on_a_call and profile.voicemail_forward:
        return state, [
            trying,
            _respond(invite, 181),
            _respond(invite, 200, by_network=True),
        ]
    # Busy without features; also covers a phone mid-dial toward someone
    # else and the (unspecified) second INVITE while already ringing.
    return state, [trying, _respond(invite, 486)]


def on_auto_answer(
    state: EndpointState, invite: SipMessage
) -> tuple[EndpointState, list[FsmAction]]:
    """Complete a collision auto-answer: send 200 and connect to the inviter."""
    return Connected(invite.from_number), [_respond(invite, 200)]


def on_cancel(
    state: EndpointState,
    cancel: SipMessage,
    pending_invite: SipMessage | None,
) -> tuple[EndpointState, list[FsmAction]]:
    """Handle a CANCEL against one of our unanswered INVITE transactions.

    ``pending_invite`` is the matching un-answered INVITE, or None when
    there is no such transaction (never received, or already answered), in
    which case the CANCEL gets 481. A successful cancel answers 200 on the
    CANCEL transaction and 487 on the INVITE.
    """
    if cancel.method is not SipMethod.CANCEL or not cancel.is_request:
        raise ValueError("on_cancel requires a CANCEL request")
    if pending_invite is None or pending_invite.call_id != cancel.call_id:
        return state, [_respond(cancel, 481)]
    actions = [_respond(cancel, 200), _respond(pending_invite, 487)]
    new_state: EndpointState = state
    if isinstance(state, Ringing) and state.peer == pending_invite.from_number:
        new_state = Idle()
    return new_state, actions


def on_bye(
    state: EndpointState,
    bye: SipMessage,
    legs: Iterable,
) -> tuple[EndpointState, list[FsmAction]]:
    """Tear down an established leg; the new state follows the other legs."""
    if bye.method is not SipMethod.BYE or not bye.is_request:
        raise ValueError("on_bye requires a BYE request")
    legs = list(legs)
    matched = [
        l
        for l in legs
        if l.call_id == bye.call_id and l.phase in (LegPhase.ANSWERED, LegPhase.HELD)
    ]
    if not matched:
        return state, [_respond(bye, 481)]
    remaining = [l for l in legs if l.call_id != bye.call_id]
    return summarize_legs(remaining), [_respond(bye, 200)]


def on_response(
    state: EndpointState,
    response: SipMessage,
    remaining_legs: Iterable = (),
) -> tuple[EndpointState, list[FsmAction]]:
    """Caller-side handling of a response to an INVITE we originated.

    183 is acknowledged with PRACK (the reliable-provisional dance the
    traces show), a 200 is acknowledged and connects, and a non-2xx final
    is acknowledged and drops back to whatever the remaining legs imply.
    Other provisionals (100, 180) and responses to non-INVITE transactions
    (CANCEL, BYE, PRACK) need no caller action.
    """
    if not response.is_response:
        raise ValueError("on_response requires a response")
    if response.cseq[1] is not SipMethod.INVITE:
        return state, []
    assert response.status is not None
    code = response.status.code
    if code < 200:
        return state, [SendRequest(SipMethod.PRACK)] if code == 183 else []
    if code == 200:
        return Connected(response.to_number), [SendRequest(SipMethod.ACK)]
    return summarize_legs(remaining_legs), [SendRequest(SipMethod.ACK)]


class CallPhase(str, Enum):
    """Where an incoming call stands from the callee's point of view."""

    RINGING = "ringing"
    ANSWERED = "answered"
