import copy
import dataclasses
import itertools
import pickle
import re

import pytest

from conftest import Entry

from cive_sim.call_fsm import (
    COLLISION_ANSWER_MS,
    Answer,
    CalleeProfile,
    Connected,
    Dialing,
    Held,
    Idle,
    InviteToWrongNumber,
    LegPhase,
    LegRole,
    LineLeg,
    Ringing,
    on_auto_answer,
    on_bye,
    on_cancel,
    on_incoming_invite,
    on_response,
    summarize_legs,
)
from cive_sim.cive import Decision, decide, extract_features, infer_state
from cive_sim.netsim import EGRESS, INGRESS, Federation, GatewayPolicy
from cive_sim.sip_core import AlertUrn, PemValue, PhoneNumber, SipMessage, SipMethod, parse_message

A = PhoneNumber("+15550100")
B = PhoneNumber("+15550101")
C = PhoneNumber("+15550102")

PROFILE_PLAIN = CalleeProfile(A)
PROFILE_CW = CalleeProfile(A, call_waiting=True)
PROFILE_VM = CalleeProfile(A, voicemail_forward=True)
PROFILE_CW_VM = CalleeProfile(A, call_waiting=True, voicemail_forward=True)

INVITE = SipMessage.request(SipMethod.INVITE, B, A, "leg-1")


def reply(code, *, to=INVITE, pem=None, alert=None):
    return SipMessage.reply(to, code, pem=pem, alert=alert)


RINGING = [reply(100), reply(183, pem=PemValue.SENDRECV), reply(180, pem=PemValue.SENDRECV)]
CALL_WAITING = [
    reply(100),
    reply(183, pem=PemValue.SENDRECV),
    reply(180, pem=PemValue.SENDRECV, alert=AlertUrn.CALL_WAITING),
]
BUSY = [reply(100), reply(486)]
VOICEMAIL = [reply(100), reply(181), Answer.VOICEMAIL]
COLLISION = [
    reply(100),
    reply(183, pem=PemValue.SENDONLY),
    reply(180, pem=PemValue.SENDONLY),
    Answer.COLLISION,
]


def responses(sent):
    """The messages of a transition's list, without its Answer marker."""
    return [m for m in sent if isinstance(m, SipMessage)]


def line_at_a(*presets, profile=PROFILE_PLAIN):
    """A's line alone, with its initial states preset, and the list of what
    it sends; nothing goes on the wire."""
    net = Federation()
    net.add_carrier("cn-a")
    line = net.register_subscriber("cn-a", A, profile)
    sent = []
    net.send = lambda hop, msg: sent.append(msg)
    for state in presets:
        line.preset_state(state)
    return line, sent


def sent_codes(sent):
    return [m.status.code for m in sent if m.status is not None]


def test_idle_rings_with_sendrecv_no_alert():
    assert on_incoming_invite(Idle(), PROFILE_PLAIN, INVITE) == RINGING


def test_connected_with_call_waiting_alerts():
    assert on_incoming_invite(Connected(C), PROFILE_CW, INVITE) == CALL_WAITING


def test_busy_without_features_is_486():
    assert on_incoming_invite(Connected(C), PROFILE_PLAIN, INVITE) == BUSY


def test_busy_with_voicemail_forwards_181_then_200():
    # The line sends 100 and 181; the 200 is the voicemail's, sent now.
    assert on_incoming_invite(Connected(C), PROFILE_VM, INVITE) == VOICEMAIL


def test_call_waiting_takes_precedence_over_voicemail():
    assert on_incoming_invite(Connected(C), PROFILE_CW_VM, INVITE) == CALL_WAITING


def test_collision_dialing_the_inviter():
    assert on_incoming_invite(Dialing(B), PROFILE_PLAIN, INVITE) == COLLISION
    assert COLLISION_ANSWER_MS > 0


def test_dialing_someone_else_is_busy_even_with_features():
    for profile in (PROFILE_PLAIN, PROFILE_CW, PROFILE_VM, PROFILE_CW_VM):
        assert on_incoming_invite(Dialing(C), profile, INVITE) == BUSY


def test_held_behaves_like_connected():
    for profile, expect in (
        (PROFILE_CW, CALL_WAITING),
        (PROFILE_VM, VOICEMAIL),
        (PROFILE_PLAIN, BUSY),
    ):
        assert on_incoming_invite(Held(C), profile, INVITE) == expect


def test_already_ringing_declines_second_invite():
    second = SipMessage.request(SipMethod.INVITE, C, A, "leg-2")
    assert on_incoming_invite(Ringing(B), PROFILE_CW, second) == [
        reply(100, to=second),
        reply(486, to=second),
    ]


def test_invite_to_wrong_number():
    wrong = SipMessage.request(SipMethod.INVITE, B, C, "leg-1")
    with pytest.raises(InviteToWrongNumber):
        on_incoming_invite(Idle(), PROFILE_PLAIN, wrong)


ALL_STATES = [Idle(), Dialing(B), Dialing(C), Ringing(C), Connected(C), Held(C)]
ALL_PROFILES = [PROFILE_PLAIN, PROFILE_CW, PROFILE_VM, PROFILE_CW_VM]


def test_sendonly_iff_dialing_the_inviter():
    # Exhaustive over the state x profile grid: the one-way early media
    # marking appears exactly on the call-back collision.
    for state in ALL_STATES:
        for profile in ALL_PROFILES:
            sent = responses(on_incoming_invite(state, profile, INVITE))
            sendonly = any(m.pem is PemValue.SENDONLY for m in sent)
            assert sendonly == (isinstance(state, Dialing) and state.peer == B)


def test_call_waiting_alert_iff_on_a_call_with_feature():
    for state in ALL_STATES:
        for profile in ALL_PROFILES:
            sent = responses(on_incoming_invite(state, profile, INVITE))
            alerted = any(m.alert is AlertUrn.CALL_WAITING for m in sent)
            assert alerted == (
                isinstance(state, (Connected, Held)) and profile.call_waiting
            )


def _callback_leg(state, profile):
    """B's callback INVITE to A and A's answers, the leg B's verifier
    folds; a deferred answer is the 200 it becomes."""
    leg = [Entry(0, EGRESS, INVITE)]
    for sent in on_incoming_invite(state, profile, INVITE):
        if sent is Answer.COLLISION:
            (sent,) = on_auto_answer(INVITE)
        elif sent is Answer.VOICEMAIL:
            sent = reply(200)
        leg.append(Entry(100, INGRESS, sent))
    return leg


def test_only_a_far_end_dialing_the_verifier_is_legit():
    # The phone model against the rule table, with no event loop: every
    # far-end state, Ringing too (no scenario can preset it), x call waiting
    # x voicemail. Only a phone dialing B is Legit; every other state gives
    # a signature the rules judge Spoofed.
    for state in ALL_STATES:
        for profile in ALL_PROFILES:
            features = extract_features(_callback_leg(state, profile))
            verdict = decide(B, infer_state(features), features)
            expected = Decision.LEGIT if state == Dialing(B) else Decision.SPOOFED
            assert verdict.decision is expected, (state, profile, verdict)


INVITE_TX_PATTERN = re.compile(r"^100(,183)?(,180)*(,(200|486|487)|,181,200)$")


def test_invite_transaction_legality_all_branches():
    for state in ALL_STATES:
        for profile in ALL_PROFILES:
            sent = on_incoming_invite(state, profile, INVITE)
            # Complete the open-ended branches: let a collision auto-answer
            # fire, add the voicemail's 200, or cancel a ringing leg.
            if sent[-1] is Answer.COLLISION:
                sent = sent[:-1] + on_auto_answer(INVITE)
            elif sent[-1] is Answer.VOICEMAIL:
                sent = sent[:-1] + [reply(200)]
            elif sent[-1].status.code < 200:
                sent += on_cancel(CANCEL, INVITE)
            seq = [m.status.code for m in sent if m.method is SipMethod.INVITE]
            assert INVITE_TX_PATTERN.match(",".join(map(str, seq))), seq


def test_determinism_identical_inputs():
    for state in ALL_STATES:
        for profile in ALL_PROFILES:
            first = on_incoming_invite(state, profile, INVITE)
            second = on_incoming_invite(state, profile, INVITE)
            assert first == second


def test_auto_answer_connects():
    assert on_auto_answer(INVITE) == [reply(200)]
    line, sent = line_at_a(Dialing(B))
    line.handle_message(INVITE)
    assert line.state == Dialing(B)
    line._auto_answer(INVITE.call_id)
    assert line.state == Connected(B)
    assert sent_codes(sent) == [100, 183, 180, 200]


CANCEL = SipMessage(
    method=SipMethod.CANCEL, from_number=B, to_number=A,
    call_id="leg-1", seq=1,
)


def test_cancel_ringing_leg():
    assert on_cancel(CANCEL, INVITE) == [reply(200, to=CANCEL), reply(487)]
    line, sent = line_at_a()
    line.handle_message(INVITE)
    assert line.state == Ringing(B)
    line.handle_message(CANCEL)
    assert line.state == Idle() and line.legs == {}
    assert sent_codes(sent) == [100, 183, 180, 200, 487]


def test_cancel_inside_the_collision_answer_stops_it():
    # A is dialing B when B's INVITE arrives, so A would answer it
    # COLLISION_ANSWER_MS later; B's CANCEL lands first, and no 200 to the
    # INVITE follows. The cancelled timer never moves the clock.
    line, sent = line_at_a(Dialing(B))
    line.handle_message(INVITE)
    line.handle_message(CANCEL)
    line.net.run()
    assert sent == [*COLLISION[:-1], reply(200, to=CANCEL), reply(487)]
    assert line.state == Dialing(B) and line.net.now == 0


def test_cancel_waiting_leg_keeps_connected():
    assert on_cancel(CANCEL, INVITE) == [reply(200, to=CANCEL), reply(487)]
    line, sent = line_at_a(Connected(C), profile=PROFILE_CW)
    line.handle_message(INVITE)
    line.handle_message(CANCEL)
    assert line.state == Connected(C)
    assert sent_codes(sent) == [100, 183, 180, 200, 487]


def test_cancel_after_answer_is_481():
    assert on_cancel(CANCEL, None) == [reply(481, to=CANCEL)]


def test_stray_cancel_on_idle_endpoint():
    cancel = SipMessage(
        method=SipMethod.CANCEL, from_number=B, to_number=A,
        call_id="nope", seq=1,
    )
    assert on_cancel(cancel, None) == [reply(481, to=cancel)]


def _bye(call_id):
    return SipMessage(
        method=SipMethod.BYE, from_number=B, to_number=A,
        call_id=call_id, seq=2,
    )


def _leg(call_id, peer, role, phase):
    """A leg at endpoint A, with the INVITE that opened it."""
    caller, callee = (A, peer) if role is LegRole.CALLER else (peer, A)
    invite = SipMessage.request(SipMethod.INVITE, caller, callee, call_id)
    return LineLeg(role, phase, invite)


def test_bye_connected_leg_goes_idle():
    leg = _leg("leg-1", B, LegRole.CALLEE, LegPhase.ANSWERED)
    assert on_bye(_bye("leg-1"), leg) == [reply(200, to=_bye("leg-1"))]
    line, sent = line_at_a()
    line.legs[leg.invite.call_id] = leg
    line.handle_message(_bye("leg-1"))
    assert line.state == Idle() and line.legs == {}
    assert sent_codes(sent) == [200]


def test_bye_without_dialog_is_481():
    assert on_bye(_bye("other"), None) == [reply(481, to=_bye("other"))]


def test_bye_early_leg_is_481():
    leg = _leg("leg-1", B, LegRole.CALLEE, LegPhase.EARLY)
    assert on_bye(_bye("leg-1"), leg) == [reply(481, to=_bye("leg-1"))]
    line, sent = line_at_a()
    line.legs[leg.invite.call_id] = leg
    line.handle_message(_bye("leg-1"))
    assert line.state == Ringing(B) and line.legs == {"leg-1": leg}
    assert sent_codes(sent) == [481]


TWO_LEG_CASES = []
_SECOND_LEGS = {
    "answered": (_leg("keep", C, LegRole.CALLER, LegPhase.ANSWERED), Connected(C)),
    "held": (_leg("keep", C, LegRole.CALLER, LegPhase.HELD), Held(C)),
    "caller-early": (_leg("keep", C, LegRole.CALLER, LegPhase.EARLY), Dialing(C)),
    "callee-early": (_leg("keep", C, LegRole.CALLEE, LegPhase.EARLY), Ringing(C)),
    "none": (None, Idle()),
}
for _name, (_keep, _expected) in _SECOND_LEGS.items():
    for _gone_phase in (LegPhase.ANSWERED, LegPhase.HELD):
        TWO_LEG_CASES.append((_name, _gone_phase, _keep, _expected))


@pytest.mark.parametrize("name,gone_phase,keep,expected", TWO_LEG_CASES)
def test_bye_two_leg_enumeration(name, gone_phase, keep, expected):
    # Oracle: the table above was enumerated by hand from the foreground
    # precedence (answered > dialing > ringing > held > idle).
    gone = _leg("gone", B, LegRole.CALLEE, gone_phase)
    assert on_bye(_bye("gone"), gone) == [reply(200, to=_bye("gone"))]
    line, sent = line_at_a()
    for leg in (gone,) if keep is None else (gone, keep):
        line.legs[leg.invite.call_id] = leg
    line.handle_message(_bye("gone"))
    assert sent_codes(sent) == [200]
    assert line.state == expected


def test_summarize_precedence():
    answered = _leg("a", B, LegRole.CALLER, LegPhase.ANSWERED)
    dialing = _leg("d", C, LegRole.CALLER, LegPhase.EARLY)
    ringing = _leg("r", A, LegRole.CALLEE, LegPhase.EARLY)
    held = _leg("h", C, LegRole.CALLER, LegPhase.HELD)
    assert summarize_legs([held, ringing, dialing, answered]) == Connected(B)
    assert summarize_legs([held, ringing, dialing]) == Dialing(C)
    assert summarize_legs([held, ringing]) == Ringing(A)
    assert summarize_legs([held]) == Held(C)
    assert summarize_legs([]) == Idle()


def dialing_line(*presets):
    """A's line, dialing C on a new leg after its presets, with that INVITE."""
    line, _ = line_at_a(*presets)
    line._start_call("out-1", A, C)
    return line, line.legs["out-1"].invite


def caller_leg(phase=LegPhase.EARLY):
    """The caller's leg of ``INVITE``, in ``phase``."""
    return LineLeg(LegRole.CALLER, phase, INVITE)


def test_caller_side_prack_on_183():
    assert on_response(reply(183, pem=PemValue.SENDRECV), caller_leg()) is SipMethod.PRACK
    # A 183 that arrives after the 200 finds the leg answered: no PRACK.
    answered = caller_leg(LegPhase.ANSWERED)
    assert on_response(reply(183, pem=PemValue.SENDONLY), answered) is None
    assert on_response(reply(200), answered) is SipMethod.ACK


def test_a_183_delivered_after_the_collision_answer_gets_no_prack():
    # B is dialing A when A calls it, so B answers the call-back collision
    # 100 ms after its 183; 500 ms of jitter can deliver that 183 after
    # the 200. A sends PRACK only while its leg is early.
    late_183s = 0
    for seed in range(10):
        net = Federation(seed=seed)
        net.add_carrier("cn-a", GatewayPolicy(jitter_ms=500))
        a = net.register_subscriber("cn-a", A)
        net.register_subscriber("cn-a", B).preset_state(Dialing(A))
        net.originate_call(A, a, B)
        net.run()
        answered = False
        for row in net.trace:
            msg = parse_message(row["sip"])
            if row["dir"] == "ingress" and row["to_hop"] == f"ep:{A}" and msg.status is not None:
                if msg.method is SipMethod.INVITE and msg.status.code == 200:
                    answered = True
                elif answered and msg.status.code == 183:
                    late_183s += 1
            elif row["dir"] == "egress" and row["from_hop"] == f"ep:{A}":
                assert not (answered and msg.method is SipMethod.PRACK), f"seed {seed}"
    assert late_183s > 0  # the race happened


def test_caller_side_ringback_on_180():
    # A 180 needs no caller action: ringback is local, with no wire effect.
    assert on_response(reply(180, pem=PemValue.SENDRECV), caller_leg()) is None


def test_caller_side_200_connects_and_acks():
    assert on_response(reply(200), caller_leg()) is SipMethod.ACK
    line, invite = dialing_line()
    assert line.state == Dialing(C)
    line.handle_message(reply(200, to=invite))
    assert line.state == Connected(C)


def test_caller_side_486_acks_and_reverts():
    assert on_response(reply(486), caller_leg()) is SipMethod.ACK
    line, invite = dialing_line()
    line.handle_message(reply(486, to=invite))
    assert line.state == Idle()
    line, invite = dialing_line(Held(B))
    assert line.state == Dialing(C)
    line.handle_message(reply(487, to=invite))
    assert line.state == Held(B)


@pytest.mark.parametrize("transition, wrong, message", [
    (lambda msg: on_incoming_invite(Idle(), PROFILE_PLAIN, msg), CANCEL,
     "on_incoming_invite requires an INVITE request"),
    (lambda msg: on_incoming_invite(Idle(), PROFILE_PLAIN, msg), reply(180),
     "on_incoming_invite requires an INVITE request"),
    (lambda msg: on_cancel(msg, INVITE), INVITE, "on_cancel requires a CANCEL request"),
    (lambda msg: on_cancel(msg, INVITE), reply(200, to=CANCEL),
     "on_cancel requires a CANCEL request"),
    (lambda msg: on_bye(msg, None), CANCEL, "on_bye requires a BYE request"),
    (lambda msg: on_bye(msg, None), reply(200, to=_bye("leg-1")), "on_bye requires a BYE request"),
    (lambda msg: on_response(msg, caller_leg()), INVITE, "on_response requires a response"),
], ids=["invite-cancel", "invite-180", "cancel-invite", "cancel-200", "bye-cancel", "bye-200",
        "response-invite"])
def test_transitions_reject_the_wrong_message(transition, wrong, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        transition(wrong)


def test_caller_side_ignores_non_invite_transactions():
    cancel = SipMessage(
        method=SipMethod.CANCEL, from_number=B, to_number=A,
        call_id="leg-1", seq=1,
    )
    assert on_response(SipMessage.reply(cancel, 200), caller_leg()) is None


# -- the four peer states share one record ------------------------------------

PEER_STATES = (Dialing, Ringing, Connected, Held)


@pytest.mark.parametrize("first,second", itertools.combinations(PEER_STATES, 2),
                         ids=lambda cls: cls.__name__)
def test_peer_states_of_different_classes_are_unequal(first, second):
    assert first(A) != second(A) and second(A) != first(A)
    assert len({first(A), second(A)}) == 2


@pytest.mark.parametrize("cls", PEER_STATES, ids=lambda cls: cls.__name__)
def test_peer_state_is_its_own_frozen_record(cls):
    state = cls(A)
    assert state == cls(A) and hash(state) == hash(cls(A))
    assert state != cls(B)
    assert repr(state) == f"{cls.__name__}(peer={A!r})"
    other = dataclasses.replace(state, peer=B)
    assert type(other) is cls and other.peer == B
    assert [f.name for f in dataclasses.fields(state)] == ["peer"]
    assert cls.__match_args__ == ("peer",)
    assert cls.__doc__ and "\n" not in cls.__doc__
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.peer = B
    with pytest.raises(AttributeError):
        state.other = B
    assert state.peer == A
    for copied in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert type(copied) is cls and copied == state
