import dataclasses
import json
import random
import re

import pytest

from conftest import REPO, random_valid_message

from cive_sim.sip_core import (
    AlertUrn,
    BadHeaderSyntax,
    CANONICAL_REASON,
    MalformedStartLine,
    MissingMandatoryHeader,
    ParseError,
    PemValue,
    PhoneNumber,
    SipMessage,
    SipMethod,
    StatusCode,
    UnknownMethod,
    UnknownStatusCode,
    _parse_canonical,
    _parse_general,
    parse_message,
    serialize_message,
)

MINIMAL_HEADERS = "From: sip:+15550001\nTo: sip:+15550002\nCall-ID: x1\nCSeq: 1 INVITE\n\n"


def test_phone_number_validation():
    assert PhoneNumber("+15550100") == "+15550100"
    for bad in ("15550100", "+123456", "+1234567890123456", "+15 50100", "", "+", "+15550100\n"):
        with pytest.raises(ValueError):
            PhoneNumber(bad)


def test_parse_180_with_pem():
    text = "SIP/2.0 180 Ringing\n" + MINIMAL_HEADERS.replace(
        "CSeq: 1 INVITE\n", "CSeq: 1 INVITE\nP-Early-Media: sendonly\n"
    )
    msg = parse_message(text)
    assert msg.status is not None
    assert msg.status == StatusCode(180)
    assert msg.pem is PemValue.SENDONLY
    assert msg.alert is None


def test_parse_180_with_call_waiting_alert():
    text = (
        "SIP/2.0 180 Ringing\n"
        "From: sip:+15550001\nTo: sip:+15550002\nCall-ID: x1\nCSeq: 1 INVITE\n"
        "Alert-Info: <urn:alert:service:call-waiting>\n\n"
    )
    msg = parse_message(text)
    assert msg.alert is AlertUrn.CALL_WAITING


def test_unknown_method_rejected():
    with pytest.raises(UnknownMethod):
        parse_message("FOO sip:+15551234 SIP/2.0\n" + MINIMAL_HEADERS)


def test_unknown_status_code_rejected():
    for code in (404, 500, 199, 600):
        with pytest.raises(UnknownStatusCode):
            parse_message(f"SIP/2.0 {code} Whatever\n" + MINIMAL_HEADERS)


def test_malformed_start_lines():
    for line in ("INVITE sip:+15550002", "SIP/1.0 200 OK", "INVITE sip:bob SIP/2.0", ""):
        with pytest.raises(MalformedStartLine):
            parse_message(line + "\n" + MINIMAL_HEADERS)


def test_missing_mandatory_headers():
    with pytest.raises(MissingMandatoryHeader) as err:
        parse_message("INVITE sip:+15550002 SIP/2.0\nFrom: sip:+15550001\n\n")
    assert "To" in str(err.value) and "Call-ID" in str(err.value)


@pytest.mark.parametrize(
    "header",
    [
        "P-Early-Media: bothways",
        "Alert-Info: <urn:alert:service:disco>",
        "Alert-Info: urn:alert:service:normal",
        "CSeq: 0 INVITE",
        "CSeq: one INVITE",
        "CSeq: 1 FOO",
        "Call-ID: two words",
        "From: sip:bob@example.org",
    ],
)
def test_bad_header_values(header):
    name = header.split(":")[0].lower()
    base = "INVITE sip:+15550002 SIP/2.0\nFrom: sip:+15550001\nTo: sip:+15550002\nCall-ID: x1\nCSeq: 1 INVITE\n"
    # replace the colliding mandatory line so the bad one is the only copy
    lines = [l for l in base.splitlines() if not l.lower().startswith(name + ":")]
    text = "\n".join(lines + [header]) + "\n\n"
    with pytest.raises(BadHeaderSyntax):
        parse_message(text)


def test_duplicate_mandatory_header_rejected():
    text = (
        "INVITE sip:+15550002 SIP/2.0\nFrom: sip:+15550001\nFrom: sip:+15550003\n"
        "To: sip:+15550002\nCall-ID: x1\nCSeq: 1 INVITE\n\n"
    )
    with pytest.raises(BadHeaderSyntax):
        parse_message(text)


def test_folded_header_rejected():
    text = (
        "INVITE sip:+15550002 SIP/2.0\nFrom: sip:+15550001\n continued\n"
        "To: sip:+15550002\nCall-ID: x1\nCSeq: 1 INVITE\n\n"
    )
    with pytest.raises(BadHeaderSyntax):
        parse_message(text)


def test_cseq_must_match_request_method():
    text = "BYE sip:+15550002 SIP/2.0\n" + MINIMAL_HEADERS  # CSeq says INVITE
    with pytest.raises(BadHeaderSyntax):
        parse_message(text)


def test_response_method_comes_from_cseq():
    msg = parse_message("SIP/2.0 200 OK\n" + MINIMAL_HEADERS.replace("1 INVITE", "1 CANCEL"))
    assert msg.method is SipMethod.CANCEL
    assert msg.seq == 1


def test_serialize_minimal_invite_start_line():
    m = SipMessage.request(SipMethod.INVITE, "+15550001", "+15550002", "a1")
    assert serialize_message(m).splitlines()[0] == "INVITE sip:+15550002 SIP/2.0"


def test_serialize_487_start_line():
    invite = SipMessage.request(SipMethod.INVITE, "+15550001", "+15550002", "a1")
    resp = SipMessage.reply(invite, 487)
    assert serialize_message(resp).splitlines()[0] == "SIP/2.0 487 Request Terminated"


def test_crlf_accepted_lf_emitted():
    text = "INVITE sip:+15550002 SIP/2.0\r\n" + MINIMAL_HEADERS.replace("\n", "\r\n")
    msg = parse_message(text)
    assert "\r" not in serialize_message(msg)
    assert msg.from_number == "+15550001"


def test_carrier_decorated_address_forms():
    text = (
        "SIP/2.0 180 Ringing\n"
        "From: <sip:+15550001@msg.example.net;user=phone>;tag=h7g4\n"
        "To: <sip:+15550002@msg.example.net>\n"
        "Call-ID: x1\nCSeq: 1 INVITE\n\n"
    )
    msg = parse_message(text)
    assert msg.from_number == "+15550001"
    assert msg.to_number == "+15550002"


def test_body_is_opaque_and_preserved():
    body = "line one\n\nline after blank\nk=v\n"
    m = SipMessage(SipMethod.INVITE, PhoneNumber("+15550001"), PhoneNumber("+15550002"),
                   "a1", 1, body=body)
    again = parse_message(serialize_message(m))
    assert again.body == body
    assert again == m


def test_extra_headers_survive_in_order():
    extras = (("X-One", "1"), ("Zulu", "z;q=2"), ("X-One", "again"))
    m = SipMessage(SipMethod.INVITE, PhoneNumber("+15550001"), PhoneNumber("+15550002"),
                   "a1", 1, extra_headers=extras)
    assert parse_message(serialize_message(m)).extra_headers == extras


def test_corpus_round_trip_and_fixpoint(corpus_files):
    for path in corpus_files:
        text = path.read_text(encoding="utf-8")
        msg = parse_message(text)
        canonical = serialize_message(msg)
        assert canonical == text, f"{path.name} is not canonical"
        assert parse_message(canonical) == msg
        assert serialize_message(parse_message(canonical)) == canonical


def test_generated_round_trip_1000():
    rng = random.Random(20260811)
    for _ in range(1000):
        msg = random_valid_message(rng)
        text = serialize_message(msg)
        assert parse_message(text) == msg
        assert serialize_message(parse_message(text)) == text


def test_status_reason_defaults_canonical():
    assert StatusCode(486).reason == "Busy Here"
    assert StatusCode(181).reason == "Call Is Being Forwarded"
    assert StatusCode(487, "Request Term").reason == "Request Term"


def test_message_invariants():
    with pytest.raises(ValueError):
        SipMessage.request(SipMethod.INVITE, "+15550001", "+15550002", "")
    with pytest.raises(ValueError):
        SipMessage.request(SipMethod.INVITE, "+15550001", "+15550002", "a b")
    with pytest.raises(ValueError):
        SipMessage(SipMethod.INVITE, PhoneNumber("+15550001"), PhoneNumber("+15550002"), "a", 0)
    req = SipMessage.request(SipMethod.INVITE, "+15550001", "+15550002", "a")
    with pytest.raises(ValueError):
        SipMessage.reply(SipMessage.reply(req, 200), 200)  # reply to a response


def _outcome(parse, text):
    """The parsed message, or the ParseError subclass raised; anything else escapes."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc)


# Characters a mutation may put in: ASCII controls and whitespace, and the
# non-ASCII digits and whitespace that int() and str.strip() accept.
_ODD_CHARS = "\r\n\t \x00\x0b\x0c\x1c\x85\xa0\u2028\u0661\uff18\u0130:<>;@+"


def _mutate(rng, text):
    for _ in range(rng.choice((1, 1, 2, 3))):
        kind = rng.randrange(5)
        pos = rng.randrange(len(text) + 1)
        if kind == 0 and text:  # flip one bit of one character
            pos = min(pos, len(text) - 1)
            text = text[:pos] + chr(ord(text[pos]) ^ (1 << rng.randrange(7))) + text[pos + 1:]
        elif kind == 1:
            text = text[:pos] + rng.choice(_ODD_CHARS) + text[pos:]
        elif kind == 2:
            text = text[:pos] + rng.choice(("\r", " ", "\t")) + text[pos:]
        elif kind == 3:
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            if rng.random() < 0.5:
                del lines[i]
            else:
                lines.insert(i, lines[i])
            text = "\n".join(lines)
        else:
            numbers = [m.span() for m in re.finditer(r"[0-9]+", text)]
            if numbers:
                start, end = rng.choice(numbers)
                digits = "".join(rng.choice("0123456789") for _ in range(rng.choice((6, 16))))
                text = text[:start] + digits + text[end:]
    return text


def test_parse_matches_general_parser_on_corpus_generated_and_mutated_texts(corpus_files):
    rng = random.Random(20261018)
    corpus = [path.read_text(encoding="utf-8") for path in corpus_files]
    golden = REPO / "tests" / "golden"
    traced = sorted(
        {
            json.loads(line)["sip"]
            for name in ("c1", "c2", "c3")
            for line in (golden / f"{name}.trace.jsonl").read_text(encoding="utf-8").splitlines()
        }
    )
    generated = []
    for _ in range(1000):
        msg = random_valid_message(rng)
        for m in (msg, dataclasses.replace(msg, extra_headers=())):
            text = serialize_message(m)
            # the fast path is the exact inverse of serialization without extra headers
            assert (_parse_canonical(text) == m) == (not m.extra_headers)
            generated.append(text)
    bases = corpus + traced + generated
    mutants = [_mutate(rng, rng.choice(bases)) for _ in range(20_000)]
    fast = rejected = 0
    for text in bases + mutants:
        outcome = _outcome(parse_message, text)
        assert outcome == _outcome(_parse_general, text), repr(text)
        fast += _parse_canonical(text) is not None
        rejected += isinstance(outcome, type)
    # both paths and the error paths are exercised, not only the fallback
    assert fast > 2_000 and rejected > 10_000, (fast, rejected)


def test_cseq_too_long_for_int_is_bad_header_syntax_on_both_paths():
    headers = MINIMAL_HEADERS.replace("CSeq: 1 ", "CSeq: 1" + "0" * 5000 + " ")
    text = "INVITE sip:+15550002 SIP/2.0\n" + headers
    assert _parse_canonical(text) is None
    for parse in (parse_message, _parse_general):
        with pytest.raises(BadHeaderSyntax, match="CSeq sequence has 5001 digits"):
            parse(text)
    # ten digits still take the fast path
    text = text.replace("1" + "0" * 5000, "9" * 10)
    assert _parse_canonical(text) == _parse_general(text) is not None


def test_trailing_space_in_reason_is_stripped_on_both_paths():
    text = "SIP/2.0 180 Ringing \n" + MINIMAL_HEADERS
    assert _parse_canonical(text) is None
    msg = parse_message(text)
    assert msg == _parse_general(text)
    assert msg.status == StatusCode(180, "Ringing")


def test_crlf_in_body_is_folded_on_both_paths():
    text = "INVITE sip:+15550002 SIP/2.0\n" + MINIMAL_HEADERS + "v=0\r\ns=call\r\n"
    assert _parse_canonical(text) is None
    msg = parse_message(text)
    assert msg == _parse_general(text)
    assert msg.body == "v=0\ns=call\n"
