"""The private builders of the hot frozen records give what the public
constructor gives: equal objects with equal hashes, still frozen."""

import dataclasses
import itertools

import pytest

from cive_sim.call_fsm import IDLE, Connected, Dialing, Held, Idle, LegPhase, LegRole, LineLeg
from cive_sim.netsim import Federation
from cive_sim.sip_core import (
    CANONICAL_REASON,
    STATUS,
    AlertUrn,
    PemValue,
    PhoneNumber,
    SipMessage,
    SipMethod,
    StatusCode,
    UnknownStatusCode,
    _parse_canonical,
    parse_message,
    serialize_message,
)

A = PhoneNumber("+15550100")
B = PhoneNumber("+15550101")
SIDE_CHANNELS = list(itertools.product([None, *PemValue], [None, *AlertUrn]))
METHODS = list(SipMethod)
CODES = sorted(CANONICAL_REASON)


def assert_same_frozen(built, expected):
    assert type(built) is type(expected)
    assert built == expected and hash(built) == hash(expected)
    assert repr(built) == repr(expected)
    field = dataclasses.fields(built)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, field, getattr(built, field))


def constructed(method, seq=3, status=None, pem=None, alert=None):
    return SipMessage(
        method=method, from_number=A, to_number=B, call_id="c1@sim", seq=seq,
        status=status, pem=pem, alert=alert,
    )


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_request_equals_constructor(method):
    assert_same_frozen(SipMessage.request(method, A, B, "c1@sim"), constructed(method, seq=1))
    for pem, alert in SIDE_CHANNELS:
        expected = constructed(method, pem=pem, alert=alert)
        assert_same_frozen(_parse_canonical(serialize_message(expected)), expected)


@pytest.mark.parametrize("code", CODES)
@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_reply_equals_constructor(method, code):
    request = constructed(method)
    for pem, alert in SIDE_CHANNELS:
        built = SipMessage.reply(request, code, pem=pem, alert=alert)
        assert built.status is STATUS[code]
        expected = constructed(method, status=StatusCode(code), pem=pem, alert=alert)
        assert_same_frozen(built, expected)
        parsed = _parse_canonical(serialize_message(built))
        assert parsed.status is STATUS[code]
        assert_same_frozen(parsed, expected)


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_leg_request_equals_constructor(method):
    leg = LineLeg(LegRole.CALLER, LegPhase.EARLY, constructed(SipMethod.INVITE), next_cseq=3)
    assert_same_frozen(leg.request(method), constructed(method))


def test_shared_instances_equal_constructors():
    assert IDLE == Idle() and hash(IDLE) == hash(Idle())


@pytest.mark.parametrize("state", [Dialing, Connected, Held], ids=lambda cls: cls.__name__)
def test_preset_invite_equals_request(state):
    net = Federation()
    net.add_carrier("cn-a")
    line = net.register_subscriber("cn-a", A)
    line.preset_state(state(str(B)))  # a plain-string peer is checked and becomes a PhoneNumber
    line.preset_state(state(PhoneNumber("+15550102")))
    for call_id, peer in ((f"preset-{A}-0", B), (f"preset-{A}-1", "+15550102")):
        invite = line.legs[call_id].invite
        assert_same_frozen(invite, SipMessage.request(SipMethod.INVITE, A, peer, call_id))
        assert type(invite.from_number) is PhoneNumber and type(invite.to_number) is PhoneNumber
    assert line.hop == f"ep:{A}" and type(line.hop) is str
    with pytest.raises(ValueError, match="E.164"):
        line.preset_state(state("15550102"))
    assert len(line.legs) == 2


@pytest.mark.parametrize("call_id", ["", "a b"])
def test_request_still_checks_call_id(call_id):
    with pytest.raises(ValueError):
        SipMessage.request(SipMethod.INVITE, A, B, call_id)


def test_status_table_is_shared_and_closed():
    request = SipMessage.request(SipMethod.INVITE, A, B, "c1@sim")
    with pytest.raises(UnknownStatusCode):
        SipMessage.reply(request, 999)
    # A non-canonical wire phrase gets its own instance and round-trips.
    odd = constructed(SipMethod.INVITE, status=StatusCode(487, "Request Term"))
    parsed = parse_message(serialize_message(odd))
    assert parsed.status == StatusCode(487, "Request Term")
    assert parsed.status is not STATUS[487] and parsed == odd
