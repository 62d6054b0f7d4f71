import re

import pytest

from cive_sim.call_fsm import (
    AutoAnswer,
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
    SendRequest,
    SendResponse,
    on_auto_answer,
    on_bye,
    on_cancel,
    on_incoming_invite,
    on_response,
    summarize_legs,
)
from cive_sim.netsim import Federation
from cive_sim.sip_core import AlertUrn, PemValue, PhoneNumber, SipMessage, SipMethod

A = PhoneNumber("+15550100")
B = PhoneNumber("+15550101")
C = PhoneNumber("+15550102")

PROFILE_PLAIN = CalleeProfile(A)
PROFILE_CW = CalleeProfile(A, call_waiting=True)
PROFILE_VM = CalleeProfile(A, voicemail_forward=True)
PROFILE_CW_VM = CalleeProfile(A, call_waiting=True, voicemail_forward=True)

INVITE = SipMessage.request(SipMethod.INVITE, B, A, "leg-1")


def codes(actions):
    return [a.status.code for a in actions if isinstance(a, SendResponse)]


def response_action(actions, code):
    return next(a for a in actions if isinstance(a, SendResponse) and a.status.code == code)


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
    return [m.status.code for m in sent if m.is_response]


def test_idle_rings_with_sendrecv_no_alert():
    actions = on_incoming_invite(Idle(), PROFILE_PLAIN, INVITE)
    assert codes(actions) == [100, 183, 180]
    r180 = response_action(actions, 180)
    assert r180.pem is PemValue.SENDRECV and r180.alert is None
    assert response_action(actions, 183).pem is PemValue.SENDRECV


def test_connected_with_call_waiting_alerts():
    actions = on_incoming_invite(Connected(C), PROFILE_CW, INVITE)
    assert codes(actions) == [100, 183, 180]
    r180 = response_action(actions, 180)
    assert r180.pem is PemValue.SENDRECV and r180.alert is AlertUrn.CALL_WAITING


def test_busy_without_features_is_486():
    actions = on_incoming_invite(Connected(C), PROFILE_PLAIN, INVITE)
    assert codes(actions) == [100, 486]


def test_busy_with_voicemail_forwards_181_then_200():
    actions = on_incoming_invite(Connected(C), PROFILE_VM, INVITE)
    assert codes(actions) == [100, 181, 200]
    assert response_action(actions, 200).answered_by_network
    assert not response_action(actions, 181).answered_by_network


def test_call_waiting_takes_precedence_over_voicemail():
    actions = on_incoming_invite(Connected(C), PROFILE_CW_VM, INVITE)
    assert codes(actions) == [100, 183, 180]


def test_collision_dialing_the_inviter():
    actions = on_incoming_invite(Dialing(B), PROFILE_PLAIN, INVITE)
    assert codes(actions) == [100, 183, 180]
    assert response_action(actions, 183).pem is PemValue.SENDONLY
    assert response_action(actions, 180).pem is PemValue.SENDONLY
    auto = [a for a in actions if isinstance(a, AutoAnswer)]
    assert len(auto) == 1 and auto[0].after_ms > 0


def test_dialing_someone_else_is_busy_even_with_features():
    for profile in (PROFILE_PLAIN, PROFILE_CW, PROFILE_VM, PROFILE_CW_VM):
        actions = on_incoming_invite(Dialing(C), profile, INVITE)
        assert codes(actions) == [100, 486]


def test_held_behaves_like_connected():
    for profile, expect in (
        (PROFILE_CW, [100, 183, 180]),
        (PROFILE_VM, [100, 181, 200]),
        (PROFILE_PLAIN, [100, 486]),
    ):
        actions = on_incoming_invite(Held(C), profile, INVITE)
        assert codes(actions) == expect


def test_already_ringing_declines_second_invite():
    second = SipMessage.request(SipMethod.INVITE, C, A, "leg-2")
    actions = on_incoming_invite(Ringing(B), PROFILE_CW, second)
    assert codes(actions) == [100, 486]


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
            actions = on_incoming_invite(state, profile, INVITE)
            sendonly = any(
                isinstance(a, SendResponse) and a.pem is PemValue.SENDONLY
                for a in actions
            )
            assert sendonly == (isinstance(state, Dialing) and state.target == B)


def test_call_waiting_alert_iff_on_a_call_with_feature():
    for state in ALL_STATES:
        for profile in ALL_PROFILES:
            actions = on_incoming_invite(state, profile, INVITE)
            alerted = any(
                isinstance(a, SendResponse) and a.alert is AlertUrn.CALL_WAITING
                for a in actions
            )
            assert alerted == (
                isinstance(state, (Connected, Held)) and profile.call_waiting
            )


INVITE_TX_PATTERN = re.compile(r"^100(,183)?(,180)*(,(200|486|487)|,181,200)$")


def test_invite_transaction_legality_all_branches():
    for state in ALL_STATES:
        for profile in ALL_PROFILES:
            actions = on_incoming_invite(state, profile, INVITE)
            seq = codes(actions)
            # Complete the open-ended branches: cancel a ringing leg, or let
            # a collision auto-answer fire.
            if any(isinstance(a, AutoAnswer) for a in actions):
                more = on_auto_answer(INVITE)
                seq += [a.status.code for a in more if a.regarding.call_id == INVITE.call_id]
            elif seq[-1] < 200:
                cancel = SipMessage(
                    method=SipMethod.CANCEL, from_number=B, to_number=A,
                    call_id="leg-1", cseq=(1, SipMethod.CANCEL),
                )
                more = on_cancel(cancel, INVITE)
                seq += [
                    a.status.code
                    for a in more
                    if isinstance(a, SendResponse) and a.regarding.method is SipMethod.INVITE
                ]
            assert INVITE_TX_PATTERN.match(",".join(map(str, seq))), seq


def test_determinism_identical_inputs():
    for state in ALL_STATES:
        for profile in ALL_PROFILES:
            first = on_incoming_invite(state, profile, INVITE)
            second = on_incoming_invite(state, profile, INVITE)
            assert first == second


def test_auto_answer_connects():
    assert codes(on_auto_answer(INVITE)) == [200]
    line, sent = line_at_a(Dialing(B))
    line.handle_message(INVITE)
    assert line.state == Dialing(B)
    line._auto_answer(INVITE.call_id)
    assert line.state == Connected(B)
    assert sent_codes(sent) == [100, 183, 180, 200]


CANCEL = SipMessage(
    method=SipMethod.CANCEL, from_number=B, to_number=A,
    call_id="leg-1", cseq=(1, SipMethod.CANCEL),
)


def test_cancel_ringing_leg():
    actions = on_cancel(CANCEL, INVITE)
    assert codes(actions) == [200, 487]
    assert response_action(actions, 200).regarding is CANCEL
    assert response_action(actions, 487).regarding is INVITE
    line, sent = line_at_a()
    line.handle_message(INVITE)
    assert line.state == Ringing(B)
    line.handle_message(CANCEL)
    assert line.state == Idle() and line.legs == {}
    assert sent_codes(sent) == [100, 183, 180, 200, 487]


def test_cancel_waiting_leg_keeps_connected():
    assert codes(on_cancel(CANCEL, INVITE)) == [200, 487]
    line, sent = line_at_a(Connected(C), profile=PROFILE_CW)
    line.handle_message(INVITE)
    line.handle_message(CANCEL)
    assert line.state == Connected(C)
    assert sent_codes(sent) == [100, 183, 180, 200, 487]


def test_cancel_after_answer_is_481():
    assert codes(on_cancel(CANCEL, None)) == [481]


def test_stray_cancel_on_idle_endpoint():
    cancel = SipMessage(
        method=SipMethod.CANCEL, from_number=B, to_number=A,
        call_id="nope", cseq=(1, SipMethod.CANCEL),
    )
    assert codes(on_cancel(cancel, None)) == [481]


def _bye(call_id):
    return SipMessage(
        method=SipMethod.BYE, from_number=B, to_number=A,
        call_id=call_id, cseq=(2, SipMethod.BYE),
    )


def _leg(call_id, peer, role, phase):
    """A leg at endpoint A, with the INVITE that opened it."""
    caller, callee = (A, peer) if role is LegRole.CALLER else (peer, A)
    invite = SipMessage.request(SipMethod.INVITE, caller, callee, call_id)
    return LineLeg(call_id, peer, role, phase, invite)


def test_bye_connected_leg_goes_idle():
    leg = _leg("leg-1", B, LegRole.CALLEE, LegPhase.ANSWERED)
    assert codes(on_bye(_bye("leg-1"), leg)) == [200]
    line, sent = line_at_a()
    line.legs[leg.call_id] = leg
    line.handle_message(_bye("leg-1"))
    assert line.state == Idle() and line.legs == {}
    assert sent_codes(sent) == [200]


def test_bye_without_dialog_is_481():
    assert codes(on_bye(_bye("other"), None)) == [481]


def test_bye_early_leg_is_481():
    leg = _leg("leg-1", B, LegRole.CALLEE, LegPhase.EARLY)
    assert codes(on_bye(_bye("leg-1"), leg)) == [481]
    line, sent = line_at_a()
    line.legs[leg.call_id] = leg
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
    assert codes(on_bye(_bye("gone"), gone)) == [200]
    line, sent = line_at_a()
    for leg in (gone,) if keep is None else (gone, keep):
        line.legs[leg.call_id] = leg
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


def _resp(code, *, to=INVITE, pem=None, alert=None):
    return SipMessage.reply(to, code, pem=pem, alert=alert)


def dialing_line(*presets):
    """A's line, dialing C on a new leg after its presets, with that INVITE."""
    line, _ = line_at_a(*presets)
    line._start_call("out-1", A, C)
    return line, line.legs["out-1"].invite


def test_caller_side_prack_on_183():
    assert on_response(_resp(183, pem=PemValue.SENDRECV)) == [SendRequest(SipMethod.PRACK)]


def test_caller_side_ringback_on_180():
    # A 180 needs no caller action: ringback is local, with no wire effect.
    assert on_response(_resp(180, pem=PemValue.SENDRECV)) == []


def test_caller_side_200_connects_and_acks():
    assert on_response(_resp(200)) == [SendRequest(SipMethod.ACK)]
    line, invite = dialing_line()
    assert line.state == Dialing(C)
    line.handle_message(_resp(200, to=invite))
    assert line.state == Connected(C)


def test_caller_side_486_acks_and_reverts():
    assert on_response(_resp(486)) == [SendRequest(SipMethod.ACK)]
    line, invite = dialing_line()
    line.handle_message(_resp(486, to=invite))
    assert line.state == Idle()
    line, invite = dialing_line(Held(B))
    assert line.state == Dialing(C)
    line.handle_message(_resp(487, to=invite))
    assert line.state == Held(B)


def test_caller_side_ignores_non_invite_transactions():
    cancel = SipMessage(
        method=SipMethod.CANCEL, from_number=B, to_number=A,
        call_id="leg-1", cseq=(1, SipMethod.CANCEL),
    )
    assert on_response(SipMessage.reply(cancel, 200)) == []
