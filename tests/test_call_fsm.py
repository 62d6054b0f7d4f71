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


def test_idle_rings_with_sendrecv_no_alert():
    state, actions = on_incoming_invite(Idle(), PROFILE_PLAIN, INVITE)
    assert state == Ringing(B)
    assert codes(actions) == [100, 183, 180]
    r180 = response_action(actions, 180)
    assert r180.pem is PemValue.SENDRECV and r180.alert is None
    assert response_action(actions, 183).pem is PemValue.SENDRECV


def test_connected_with_call_waiting_alerts():
    state, actions = on_incoming_invite(Connected(C), PROFILE_CW, INVITE)
    assert state == Connected(C)
    assert codes(actions) == [100, 183, 180]
    r180 = response_action(actions, 180)
    assert r180.pem is PemValue.SENDRECV and r180.alert is AlertUrn.CALL_WAITING


def test_busy_without_features_is_486():
    state, actions = on_incoming_invite(Connected(C), PROFILE_PLAIN, INVITE)
    assert state == Connected(C)
    assert codes(actions) == [100, 486]


def test_busy_with_voicemail_forwards_181_then_200():
    state, actions = on_incoming_invite(Connected(C), PROFILE_VM, INVITE)
    assert state == Connected(C)
    assert codes(actions) == [100, 181, 200]
    assert response_action(actions, 200).answered_by_network
    assert not response_action(actions, 181).answered_by_network


def test_call_waiting_takes_precedence_over_voicemail():
    _, actions = on_incoming_invite(Connected(C), PROFILE_CW_VM, INVITE)
    assert codes(actions) == [100, 183, 180]


def test_collision_dialing_the_inviter():
    state, actions = on_incoming_invite(Dialing(B), PROFILE_PLAIN, INVITE)
    assert state == Dialing(B)
    assert codes(actions) == [100, 183, 180]
    assert response_action(actions, 183).pem is PemValue.SENDONLY
    assert response_action(actions, 180).pem is PemValue.SENDONLY
    auto = [a for a in actions if isinstance(a, AutoAnswer)]
    assert len(auto) == 1 and auto[0].after_ms > 0


def test_dialing_someone_else_is_busy_even_with_features():
    for profile in (PROFILE_PLAIN, PROFILE_CW, PROFILE_VM, PROFILE_CW_VM):
        state, actions = on_incoming_invite(Dialing(C), profile, INVITE)
        assert state == Dialing(C)
        assert codes(actions) == [100, 486]


def test_held_behaves_like_connected():
    for profile, expect in (
        (PROFILE_CW, [100, 183, 180]),
        (PROFILE_VM, [100, 181, 200]),
        (PROFILE_PLAIN, [100, 486]),
    ):
        state, actions = on_incoming_invite(Held(C), profile, INVITE)
        assert state == Held(C)
        assert codes(actions) == expect


def test_already_ringing_declines_second_invite():
    second = SipMessage.request(SipMethod.INVITE, C, A, "leg-2")
    state, actions = on_incoming_invite(Ringing(B), PROFILE_CW, second)
    assert state == Ringing(B)
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
            _, actions = on_incoming_invite(state, profile, INVITE)
            sendonly = any(
                isinstance(a, SendResponse) and a.pem is PemValue.SENDONLY
                for a in actions
            )
            assert sendonly == (isinstance(state, Dialing) and state.target == B)


def test_call_waiting_alert_iff_on_a_call_with_feature():
    for state in ALL_STATES:
        for profile in ALL_PROFILES:
            _, actions = on_incoming_invite(state, profile, INVITE)
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
            new_state, actions = on_incoming_invite(state, profile, INVITE)
            seq = codes(actions)
            # Complete the open-ended branches: cancel a ringing leg, or let
            # a collision auto-answer fire.
            if any(isinstance(a, AutoAnswer) for a in actions):
                _, more = on_auto_answer(new_state, INVITE)
                seq += [a.status.code for a in more if a.regarding.call_id == INVITE.call_id]
            elif seq[-1] < 200:
                cancel = SipMessage(
                    method=SipMethod.CANCEL, from_number=B, to_number=A,
                    call_id="leg-1", cseq=(1, SipMethod.CANCEL),
                )
                _, more = on_cancel(new_state, cancel, INVITE)
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
    state, actions = on_auto_answer(Dialing(B), INVITE)
    assert state == Connected(B)
    assert codes(actions) == [200]


def test_cancel_ringing_leg():
    cancel = SipMessage(
        method=SipMethod.CANCEL, from_number=B, to_number=A,
        call_id="leg-1", cseq=(1, SipMethod.CANCEL),
    )
    state, actions = on_cancel(Ringing(B), cancel, INVITE)
    assert state == Idle()
    assert codes(actions) == [200, 487]
    assert response_action(actions, 200).regarding is cancel
    assert response_action(actions, 487).regarding is INVITE


def test_cancel_waiting_leg_keeps_connected():
    cancel = SipMessage(
        method=SipMethod.CANCEL, from_number=B, to_number=A,
        call_id="leg-1", cseq=(1, SipMethod.CANCEL),
    )
    state, actions = on_cancel(Connected(C), cancel, INVITE)
    assert state == Connected(C)
    assert codes(actions) == [200, 487]


def test_cancel_after_answer_is_481():
    cancel = SipMessage(
        method=SipMethod.CANCEL, from_number=B, to_number=A,
        call_id="leg-1", cseq=(1, SipMethod.CANCEL),
    )
    state, actions = on_cancel(Connected(B), cancel, None)
    assert state == Connected(B)
    assert codes(actions) == [481]


def test_stray_cancel_on_idle_endpoint():
    cancel = SipMessage(
        method=SipMethod.CANCEL, from_number=B, to_number=A,
        call_id="nope", cseq=(1, SipMethod.CANCEL),
    )
    state, actions = on_cancel(Idle(), cancel, None)
    assert state == Idle()
    assert codes(actions) == [481]


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
    legs = (_leg("leg-1", B, LegRole.CALLEE, LegPhase.ANSWERED),)
    state, actions = on_bye(Connected(B), _bye("leg-1"), legs)
    assert state == Idle()
    assert codes(actions) == [200]


def test_bye_without_dialog_is_481():
    state, actions = on_bye(Connected(B), _bye("other"), (_leg("leg-1", B, LegRole.CALLEE, LegPhase.ANSWERED),))
    assert state == Connected(B)
    assert codes(actions) == [481]


def test_bye_early_leg_is_481():
    legs = (_leg("leg-1", B, LegRole.CALLEE, LegPhase.EARLY),)
    state, actions = on_bye(Ringing(B), _bye("leg-1"), legs)
    assert codes(actions) == [481]


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
    legs = (gone,) if keep is None else (gone, keep)
    start = Connected(B) if gone_phase is LegPhase.ANSWERED else Held(B)
    state, actions = on_bye(start, _bye("gone"), legs)
    assert codes(actions) == [200]
    assert state == expected


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


def test_caller_side_prack_on_183():
    state, actions = on_response(Dialing(A), _resp(183, pem=PemValue.SENDRECV))
    assert state == Dialing(A)
    assert actions == [SendRequest(SipMethod.PRACK)]


def test_caller_side_ringback_on_180():
    # A 180 needs no caller action: ringback is local, with no wire effect.
    state, actions = on_response(Dialing(A), _resp(180, pem=PemValue.SENDRECV))
    assert state == Dialing(A)
    assert actions == []


def test_caller_side_200_connects_and_acks():
    state, actions = on_response(Dialing(A), _resp(200))
    assert state == Connected(A)
    assert actions == [SendRequest(SipMethod.ACK)]


def test_caller_side_486_acks_and_reverts():
    state, actions = on_response(Dialing(A), _resp(486), remaining_legs=())
    assert state == Idle()
    assert actions == [SendRequest(SipMethod.ACK)]
    held = _leg("h", C, LegRole.CALLER, LegPhase.HELD)
    state, _ = on_response(Dialing(A), _resp(487), remaining_legs=(held,))
    assert state == Held(C)


def test_caller_side_ignores_non_invite_transactions():
    cancel = SipMessage(
        method=SipMethod.CANCEL, from_number=B, to_number=A,
        call_id="leg-1", cseq=(1, SipMethod.CANCEL),
    )
    state, actions = on_response(Dialing(A), SipMessage.reply(cancel, 200))
    assert state == Dialing(A) and actions == []
