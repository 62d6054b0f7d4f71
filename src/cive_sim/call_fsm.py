"""Per-endpoint call state machine.

A phone's call state is one EndpointState, folded from the legs it holds
by ``summarize_legs``; the legs are the only record of it. Every state but
Idle names its far end ``peer``; ``Dialing.peer`` is the number dialed.
``Dialing``, ``Ringing``, ``Connected`` and ``Held`` share one frozen,
slotted record, ``_PeerState(peer)``, and add no field of their own, so the
package builds one dataclass for the four at import.
The transition functions here are pure: they take the triggering message
plus what they need to read (the folded state, the profile, the matching
leg or INVITE) and return the SIP messages the line sends: the responses,
each built by ``SipMessage.reply``, or for a caller the method of the
request to send on the leg. ``on_incoming_invite`` may end its list with
one deferred ``Answer``: the line's own collision answer after
``COLLISION_ANSWER_MS``, or the carrier voicemail's 200. The network
simulator owns the legs, timers and the wire; local effects such as
ringback are not modelled.

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
    ACK,
    BYE,
    CALL_WAITING,
    CANCEL,
    INVITE,
    PRACK,
    SENDONLY,
    SENDRECV,
    PhoneNumber,
    SipMessage,
    SipMethod,
    _message,
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
    """No call: the line holds no leg."""


@dataclass(frozen=True)
class _PeerState(EndpointState):
    """A state with a far end ``peer``; its subclasses are the states.

    The generated methods compare classes exactly, so two states of
    different classes with the same peer are unequal, and ``repr`` and
    ``dataclasses.replace`` give the subclass.
    """

    __slots__ = ("peer",)
    peer: PhoneNumber

    def __reduce__(self):
        # copy and pickle rebuild through __init__: a frozen slot cannot be set.
        return type(self), (self.peer,)


class Dialing(_PeerState):
    """An outgoing call not yet answered; ``peer`` is the number dialed."""

    __slots__ = ()


class Ringing(_PeerState):
    """An incoming call not yet answered; ``peer`` is its claimed caller."""

    __slots__ = ()


class Connected(_PeerState):
    """An answered call in the foreground."""

    __slots__ = ()


class Held(_PeerState):
    """An answered call put on hold."""

    __slots__ = ()


IDLE = Idle()


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


# Bound once, as sip_core binds SipMethod's members.
CALLER, CALLEE = LegRole.CALLER, LegRole.CALLEE
EARLY, ANSWERED, HELD = LegPhase.EARLY, LegPhase.ANSWERED, LegPhase.HELD


@dataclass(slots=True)
class LineLeg:
    """One call leg as an endpoint tracks it, with the INVITE that opened it.

    The leg's Call-ID is its INVITE's, and its peer is read off the INVITE
    too. The transition functions read only peer, role and phase; the rest
    is the endpoint's own bookkeeping.
    """

    role: LegRole
    phase: LegPhase
    invite: SipMessage
    next_cseq: int = 2
    auto_answer_timer: int | None = None  # pending netsim timers, for cancel_timer
    patience_timer: int | None = None

    @property
    def peer(self) -> PhoneNumber:
        """The far end: the INVITE's To for a caller, and its From (the
        claimed, possibly forged, number) for a callee."""
        invite = self.invite
        return invite.to_number if self.role is CALLER else invite.from_number

    def request(self, method: SipMethod) -> SipMessage:
        """The next in-dialog request on this leg.

        ACK and CANCEL reuse the INVITE's CSeq number (RFC 3261 sections
        17.1.1.3 and 9.1); any other request takes the next one: 2, 3, ...
        """
        if method is ACK or method is CANCEL:
            seq = self.invite.seq
        else:
            seq = self.next_cseq
            self.next_cseq += 1
        invite = self.invite
        return _message(method, invite.from_number, invite.to_number, invite.call_id,
                        seq, None, None, None, (), "")


class Answer(Enum):
    """The deferred answer that may end ``on_incoming_invite``'s list."""

    COLLISION = "collision"  # the line's own 200, COLLISION_ANSWER_MS later
    VOICEMAIL = "voicemail"  # a 200 the carrier's voicemail sends now


COLLISION, VOICEMAIL = Answer.COLLISION, Answer.VOICEMAIL


def summarize_legs(legs: Iterable) -> EndpointState:
    """Fold a set of legs into the single foreground EndpointState.

    Precedence: an answered call is foreground, then an outgoing dial in
    progress, then an incoming ringing call, then a held call. Within a
    class the most recently added leg wins. One pass keeps the latest leg
    of each class.
    """
    answered = dialing = ringing = held = None
    for leg in legs:
        phase = leg.phase
        if phase is ANSWERED:
            answered = leg
        elif phase is EARLY:
            if leg.role is CALLER:
                dialing = leg
            else:
                ringing = leg
        else:
            held = leg
    if answered is not None:
        return Connected(answered.peer)
    if dialing is not None:
        return Dialing(dialing.peer)
    if ringing is not None:
        return Ringing(ringing.peer)
    if held is not None:
        return Held(held.peer)
    return IDLE


def on_incoming_invite(
    state: EndpointState,
    profile: CalleeProfile,
    invite: SipMessage,
) -> list[SipMessage | Answer]:
    """Answer an incoming INVITE per the behavior table in the module doc.

    ``state`` is the callee line's folded state before the INVITE arrives.
    Returns the responses the line sends now, in order, then at most one
    ``Answer`` marker. Deterministic: identical (state, profile, invite)
    always yields equal lists. Raises InviteToWrongNumber when the INVITE
    is not addressed to this profile.
    """
    if invite.method is not INVITE or invite.status is not None:
        raise ValueError("on_incoming_invite requires an INVITE request")
    if invite.to_number != profile.number:
        raise InviteToWrongNumber(
            f"INVITE for {invite.to_number} delivered to {profile.number}"
        )

    reply = SipMessage.reply
    trying = reply(invite, 100)

    if isinstance(state, Idle):
        return [
            trying,
            reply(invite, 183, pem=SENDRECV),
            reply(invite, 180, pem=SENDRECV),
        ]

    if isinstance(state, Dialing) and state.peer == invite.from_number:
        # Call-back collision: we are dialing exactly the party now calling
        # us. Grant one-way early media and pick up shortly.
        return [
            trying,
            reply(invite, 183, pem=SENDONLY),
            reply(invite, 180, pem=SENDONLY),
            COLLISION,
        ]

    on_a_call = isinstance(state, (Connected, Held))
    if on_a_call and profile.call_waiting:
        return [
            trying,
            reply(invite, 183, pem=SENDRECV),
            reply(invite, 180, pem=SENDRECV, alert=CALL_WAITING),
        ]
    if on_a_call and profile.voicemail_forward:
        return [trying, reply(invite, 181), VOICEMAIL]
    # Busy without features; also covers a phone mid-dial toward someone
    # else and a further INVITE while a call is still ringing.
    return [trying, reply(invite, 486)]


def on_auto_answer(invite: SipMessage) -> list[SipMessage]:
    """Complete a collision auto-answer: send 200 to the inviter."""
    return [SipMessage.reply(invite, 200)]


def on_cancel(cancel: SipMessage, pending_invite: SipMessage | None) -> list[SipMessage]:
    """Handle a CANCEL against one of our unanswered INVITE transactions.

    ``pending_invite`` is the matching un-answered INVITE, or None when
    there is no such transaction (never received, or already answered), in
    which case the CANCEL gets 481. A successful cancel answers 200 on the
    CANCEL transaction and 487 on the INVITE.
    """
    if cancel.method is not CANCEL or cancel.status is not None:
        raise ValueError("on_cancel requires a CANCEL request")
    if pending_invite is None or pending_invite.call_id != cancel.call_id:
        return [SipMessage.reply(cancel, 481)]
    return [SipMessage.reply(cancel, 200), SipMessage.reply(pending_invite, 487)]


def on_bye(bye: SipMessage, leg: LineLeg | None) -> list[SipMessage]:
    """Tear down an established leg: 200 when ``leg``, the leg with the
    BYE's Call-ID, is answered or held, and 481 otherwise."""
    if bye.method is not BYE or bye.status is not None:
        raise ValueError("on_bye requires a BYE request")
    if leg is None or leg.phase is EARLY:
        return [SipMessage.reply(bye, 481)]
    return [SipMessage.reply(bye, 200)]


def on_response(response: SipMessage, leg: LineLeg) -> SipMethod | None:
    """Caller-side handling of a response to the INVITE that opened ``leg``.

    Returns the request to send on the leg: PRACK for a 183 while the leg
    is still early (the reliable-provisional dance the traces show) and ACK
    for any final response. A 183 that jitter delivers after the final
    answer, other provisionals (100, 180) and responses to non-INVITE
    transactions (CANCEL, BYE, PRACK) need none: None.
    """
    status = response.status
    if status is None:
        raise ValueError("on_response requires a response")
    if response.method is not INVITE:
        return None
    code = status.code
    if code < 200:
        return PRACK if code == 183 and leg.phase is EARLY else None
    return ACK
