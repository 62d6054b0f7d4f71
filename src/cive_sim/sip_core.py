"""SIP wire-format subset for call-setup signaling.

Models just enough of RFC 3261 to carry call setup between simulated
endpoints: five request methods, a closed set of eleven response codes, and
the two headers that leak callee state to the caller side, P-Early-Media
(RFC 5009) and Alert-Info URNs (RFC 7462).

The profile is deliberately narrow. Routing headers (Via, Record-Route,
Route) are never interpreted; the simulator routes by dialog, so they are
carried as opaque extra headers when present. Bodies (e.g. SDP) are opaque
text. Line endings: CRLF and LF are both accepted on parse, LF is emitted
canonically so golden files stay byte-stable.

Parsing has two paths with identical results. Canonical LF text, as
``serialize_message`` writes it for a message without extra headers, is
parsed in one regex match. Everything else, such as CRLF input, another
header order or decorated addresses from a capture, goes to the general
line-by-line parser, which is also the reference the tests compare with.

One message is built per simulated send, so its cost bounds every run.
``SipMessage`` stays a frozen dataclass (equality, hashing, ``repr`` and
``FrozenInstanceError`` are the generated ones), but ``request``,
``reply``, ``call_fsm.LineLeg.request`` and the canonical parser build it
through one private builder, ``_message``. It fills the instance's
``__dict__`` instead of running the generated ``__init__`` (one
``object.__setattr__`` per field) and ``__post_init__``, so it may be
given only what those checks already hold: ``request`` checks the
numbers and the Call-ID and always uses CSeq 1; ``reply`` and
``LineLeg.request`` copy them from a request that was checked when it was
built; the canonical parser's regex has checked them in the text. A code
of the closed set with its canonical phrase is the shared instance in
``STATUS``; ``reply`` takes only such codes. A message with another CSeq,
an odd reason phrase, extra headers or a body is built with the
``SipMessage(...)`` constructor, which checks it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class SipCoreError(Exception):
    """Base for everything raised by this module."""


class ParseError(SipCoreError):
    """Base for parse failures."""


class MalformedStartLine(ParseError):
    pass


class UnknownMethod(ParseError):
    pass


class UnknownStatusCode(ParseError):
    pass


class BadHeaderSyntax(ParseError):
    pass


class MissingMandatoryHeader(ParseError):
    pass


_NUMBER_RE = re.compile(r"\+[0-9]{7,15}")
_WHITESPACE_RE = re.compile(r"\s")


class PhoneNumber(str):
    """E.164-style subscriber identity: '+' followed by 7 to 15 digits.

    Equality is exact string equality; no normalization is applied beyond
    construction-time validation. A PhoneNumber is returned as it is. It has
    no ``__dict__``, so a number is no larger than a plain ``str``.
    """

    __slots__ = ()

    def __new__(cls, value: str) -> "PhoneNumber":
        if type(value) is cls:
            return value
        if not _NUMBER_RE.fullmatch(value):
            raise ValueError(f"not an E.164-style number: {value!r}")
        return super().__new__(cls, value)


class SipMethod(str, Enum):
    INVITE = "INVITE"
    PRACK = "PRACK"
    ACK = "ACK"
    CANCEL = "CANCEL"
    BYE = "BYE"


# The members the per-message path reads, bound once as module globals. On
# Python 3.10 and 3.11 the enum metaclass defines ``__getattr__``, so each
# ``SipMethod.INVITE`` read in a function body costs more than
# ten global reads. The other enums the path reads are bound the same way.
INVITE, PRACK, ACK, CANCEL, BYE = (
    SipMethod.INVITE, SipMethod.PRACK, SipMethod.ACK, SipMethod.CANCEL, SipMethod.BYE
)


class PemValue(str, Enum):
    """P-Early-Media direction values (RFC 5009)."""

    SENDRECV = "sendrecv"
    SENDONLY = "sendonly"
    RECVONLY = "recvonly"
    INACTIVE = "inactive"


SENDRECV, SENDONLY = PemValue.SENDRECV, PemValue.SENDONLY


class AlertUrn(str, Enum):
    """Alert-Info service URN values (RFC 7462).

    An absent Alert-Info header is distinct from ``NORMAL``.
    """

    NORMAL = "normal"
    CALL_WAITING = "call-waiting"
    FORWARD = "forward"
    RECALL_CALLBACK = "recall:callback"
    RECALL_HOLD = "recall:hold"
    RECALL_TRANSFER = "recall:transfer"


CALL_WAITING = AlertUrn.CALL_WAITING


# The only response codes this profile knows. Everything else is rejected at
# parse/construction time so downstream state inference stays total.
CANONICAL_REASON: dict[int, str] = {
    100: "Trying",
    180: "Ringing",
    181: "Call Is Being Forwarded",
    182: "Queued",
    183: "Session Progress",
    200: "OK",
    301: "Moved Permanently",
    480: "Temporarily Unavailable",
    481: "Call/Transaction Does Not Exist",
    486: "Busy Here",
    487: "Request Terminated",
}


@dataclass(frozen=True)
class StatusCode:
    """A response code from the closed set, plus its reason phrase.

    The reason defaults to the canonical RFC 3261 phrase but an odd phrase
    from the wire (e.g. a truncated capture) is preserved as parsed.
    """

    code: int
    reason: str = ""

    def __post_init__(self) -> None:
        if self.code not in CANONICAL_REASON:
            raise UnknownStatusCode(f"status code outside the closed set: {self.code}")
        if not self.reason:
            object.__setattr__(self, "reason", CANONICAL_REASON[self.code])


# One shared StatusCode per code of the closed set, with its canonical phrase.
STATUS: dict[int, StatusCode] = {code: StatusCode(code) for code in CANONICAL_REASON}


@dataclass(frozen=True)
class SipMessage:
    """A parsed request or response; a request's ``status`` is None.

    ``method`` is the request method; for responses it is the transaction
    method echoed in CSeq. ``seq`` is the CSeq sequence number; the CSeq
    header is ``seq`` then ``method``. ``pem``/``alert`` hold the recognized
    side-channel headers; anything unrecognized lands in ``extra_headers``
    in original order and survives round-trips untouched.
    """

    method: SipMethod
    from_number: PhoneNumber
    to_number: PhoneNumber
    call_id: str
    seq: int
    status: StatusCode | None = None
    pem: PemValue | None = None
    alert: AlertUrn | None = None
    extra_headers: tuple[tuple[str, str], ...] = ()
    body: str = ""

    def __post_init__(self) -> None:
        _check_call_id(self.call_id)
        if self.seq < 1:
            raise ValueError(f"CSeq sequence must be >= 1: {self.seq}")

    @classmethod
    def request(
        cls, method: SipMethod, from_number: str, to_number: str, call_id: str
    ) -> "SipMessage":
        """Build a request with CSeq 1 and no optional header or body."""
        from_number, to_number = PhoneNumber(from_number), PhoneNumber(to_number)
        _check_call_id(call_id)
        return _message(method, from_number, to_number, call_id, 1, None, None, None, (), "")

    @classmethod
    def reply(
        cls,
        to: "SipMessage",
        code: int,
        *,
        pem: PemValue | None = None,
        alert: AlertUrn | None = None,
    ) -> "SipMessage":
        """Build a response to a request, echoing its identity headers.

        From, To, Call-ID and CSeq are copied verbatim from the request,
        per RFC 3261 section 8.2.6.2. The status is the shared ``STATUS``
        instance of ``code``; a code outside the closed set raises
        ``UnknownStatusCode``.
        """
        if to.status is not None:
            raise ValueError("can only reply to a request")
        status = STATUS.get(code)
        if status is None:
            raise UnknownStatusCode(f"status code outside the closed set: {code}")
        return _message(to.method, to.from_number, to.to_number, to.call_id, to.seq,
                        status, pem, alert, (), "")


def _check_call_id(call_id: str) -> None:
    if not call_id or _WHITESPACE_RE.search(call_id):
        raise ValueError(f"Call-ID must be a nonempty token: {call_id!r}")


_new = object.__new__


def _message(method, from_number, to_number, call_id, seq, status, pem, alert,
             extra_headers, body) -> SipMessage:
    """A ``SipMessage`` built without its ``__init__`` and ``__post_init__``.

    The caller guarantees what ``__post_init__`` would check: a Call-ID
    token, ``seq >= 1``, and ``PhoneNumber`` numbers.
    """
    msg = _new(SipMessage)
    d = msg.__dict__
    d["method"] = method
    d["from_number"] = from_number
    d["to_number"] = to_number
    d["call_id"] = call_id
    d["seq"] = seq
    d["status"] = status
    d["pem"] = pem
    d["alert"] = alert
    d["extra_headers"] = extra_headers
    d["body"] = body
    return msg


# Accepted address shapes: "+15551234", "sip:+15551234", "<sip:+1@host;p=1>;tag=x".
# Display names and non-numeric users are out of profile.
_ADDRESS_RE = re.compile(
    r"^<?(?:sip:)?(\+[0-9]+)(?:@[^;>\s]+)?(?:;[^>]*)?>?(?:;.*)?$"
)
_CSEQ_RE = re.compile(r"^([0-9]+)\s+(\S+)$")
_ALERT_RE = re.compile(r"^<urn:alert:service:([a-z:\-]+)>$")

_RECOGNIZED = {"from", "to", "call-id", "cseq", "p-early-media", "alert-info"}

_ALERT_BY_VALUE = {a.value: a for a in AlertUrn}
_PEM_BY_VALUE = {p.value: p for p in PemValue}
_METHOD_BY_VALUE = {m.value: m for m in SipMethod}


def _parse_number(value: str, where: str) -> PhoneNumber:
    m = _ADDRESS_RE.match(value.strip())
    if not m:
        raise BadHeaderSyntax(f"{where}: cannot extract a number from {value!r}")
    try:
        return PhoneNumber(m.group(1))
    except ValueError as exc:
        raise BadHeaderSyntax(f"{where}: {exc}") from exc


def _parse_start_line(line: str) -> tuple[SipMethod | None, StatusCode | None]:
    """Returns (method, None) for requests, (None, status) for responses."""
    parts = line.split(" ", 2)
    if line.startswith("SIP/"):
        if parts[0] != "SIP/2.0" or len(parts) < 2:
            raise MalformedStartLine(f"bad status line: {line!r}")
        try:
            code = int(parts[1])
        except ValueError as exc:
            raise MalformedStartLine(f"non-integer status code in {line!r}") from exc
        reason = parts[2] if len(parts) == 3 else ""
        return None, StatusCode(code, reason)
    if len(parts) != 3 or parts[2] != "SIP/2.0":
        raise MalformedStartLine(f"bad request line: {line!r}")
    method = _METHOD_BY_VALUE.get(parts[0])
    if method is None:
        raise UnknownMethod(f"method outside the closed set: {parts[0]!r}")
    if not _ADDRESS_RE.match(parts[1]):
        raise MalformedStartLine(f"bad request URI: {parts[1]!r}")
    return method, None


def parse_message(text: str) -> SipMessage:
    """Parse one complete SIP message.

    Expects a start line, ``Name: value`` header lines, a blank line, then
    an optional opaque body. Raises a ParseError subclass when the message
    falls outside the profile: MalformedStartLine, UnknownMethod,
    UnknownStatusCode, BadHeaderSyntax, or MissingMandatoryHeader.

    Text in the canonical form that ``serialize_message`` emits is parsed
    in one regex match; anything else goes to the general parser. Both give
    the same message for the same text.
    """
    msg = _parse_canonical(text)
    return msg if msg is not None else _parse_general(text)


def _parse_general(text: str) -> SipMessage:
    """The line-by-line parser: CRLF, any header order, decorated addresses."""
    normalized = text.replace("\r\n", "\n")
    head, sep, body = normalized.partition("\n\n")
    lines = head.split("\n")
    if not lines or not lines[0].strip():
        raise MalformedStartLine("empty message")

    method, status = _parse_start_line(lines[0].strip())

    from_number: PhoneNumber | None = None
    to_number: PhoneNumber | None = None
    call_id: str | None = None
    seq: int | None = None
    cseq_method: SipMethod | None = None
    pem: PemValue | None = None
    alert: AlertUrn | None = None
    extras: list[tuple[str, str]] = []
    seen: set[str] = set()

    for raw in lines[1:]:
        if not raw.strip():
            continue
        if raw[0] in (" ", "\t"):
            # Header folding is outside the profile; reject rather than guess.
            raise BadHeaderSyntax(f"folded header line not supported: {raw!r}")
        name, colon, value = raw.partition(":")
        if not colon or not name.strip():
            raise BadHeaderSyntax(f"not a header line: {raw!r}")
        name = name.strip()
        value = value.strip()
        lname = name.lower()
        if lname in _RECOGNIZED:
            if lname in seen:
                raise BadHeaderSyntax(f"duplicate {name} header")
            seen.add(lname)
        if lname == "from":
            from_number = _parse_number(value, "From")
        elif lname == "to":
            to_number = _parse_number(value, "To")
        elif lname == "call-id":
            if not value or _WHITESPACE_RE.search(value):
                raise BadHeaderSyntax(f"Call-ID must be a token: {value!r}")
            call_id = value
        elif lname == "cseq":
            m = _CSEQ_RE.match(value)
            if not m:
                raise BadHeaderSyntax(f"bad CSeq: {value!r}")
            try:
                seq = int(m.group(1))
            except ValueError:  # more digits than int() converts
                raise BadHeaderSyntax(f"CSeq sequence has {len(m.group(1))} digits") from None
            cseq_method = _METHOD_BY_VALUE.get(m.group(2))
            if cseq_method is None:
                raise BadHeaderSyntax(f"CSeq method outside the closed set: {value!r}")
            if seq < 1:
                raise BadHeaderSyntax(f"CSeq sequence must be >= 1: {value!r}")
        elif lname == "p-early-media":
            pem = _PEM_BY_VALUE.get(value)
            if pem is None:
                raise BadHeaderSyntax(f"bad P-Early-Media value: {value!r}")
        elif lname == "alert-info":
            m = _ALERT_RE.match(value)
            alert = _ALERT_BY_VALUE.get(m.group(1)) if m else None
            if alert is None:
                raise BadHeaderSyntax(f"bad Alert-Info value: {value!r}")
        else:
            extras.append((name, value))

    missing = [
        h
        for h, v in (
            ("From", from_number),
            ("To", to_number),
            ("Call-ID", call_id),
            ("CSeq", seq),
        )
        if v is None
    ]
    if missing:
        raise MissingMandatoryHeader(f"missing: {', '.join(missing)}")
    assert from_number and to_number and call_id and seq and cseq_method

    # For a request the CSeq method must repeat the request method
    # (CANCEL and ACK reuse the INVITE sequence number, not its method).
    if status is None and cseq_method is not method:
        raise BadHeaderSyntax(
            f"CSeq method {cseq_method.value} does not match request method {method.value}"
        )

    return SipMessage(
        method=cseq_method,
        from_number=from_number,
        to_number=to_number,
        call_id=call_id,
        seq=seq,
        status=status,
        pem=pem,
        alert=alert,
        extra_headers=tuple(extras),
        body=body if sep else "",
    )


def _alternation(values) -> str:
    return "|".join(re.escape(v) for v in values)


# The exact inverse of serialize_message for messages without extra headers:
# LF only, no \r anywhere (the general parser folds CRLF in the body too),
# mandatory headers in fixed order with exact spelling, a reason phrase with
# no outer whitespace, a CSeq of at most ten digits (a longer one is left to
# the general parser, which reports one too long for int()). The body is
# everything after the blank line.
_CANONICAL_RE = re.compile(
    r"(?:(" + _alternation(_METHOD_BY_VALUE) + r") sip:\+[0-9]+ SIP/2\.0"
    r"|SIP/2\.0 ([0-9]{3}) ([!-~](?:[ -~]*[!-~])?))\n"
    r"From: sip:(\+[0-9]{7,15})\n"
    r"To: sip:(\+[0-9]{7,15})\n"
    r"Call-ID: (\S+)\n"
    r"CSeq: ([1-9][0-9]{0,9}) (" + _alternation(_METHOD_BY_VALUE) + r")\n"
    r"(?:P-Early-Media: (" + _alternation(_PEM_BY_VALUE) + r")\n)?"
    r"(?:Alert-Info: <urn:alert:service:(" + _alternation(_ALERT_BY_VALUE) + r")>\n)?"
    r"\n([^\r]*)"
)


def _parse_canonical(text: str) -> SipMessage | None:
    """Parse canonical text in one match, or return None to defer.

    Accept-only: it never raises. A status code outside the closed set or a
    request whose CSeq method differs from its own method returns None, so
    the general parser raises the error. The match has already checked what
    ``PhoneNumber`` and ``SipMessage.__post_init__`` check (both numbers,
    a Call-ID with no whitespace, a CSeq of at least 1), so the message is
    built without checking it again.
    """
    m = _CANONICAL_RE.fullmatch(text)
    if m is None:
        return None
    (method, code, reason, from_number, to_number, call_id, seq, cseq_method,
     pem, alert, body) = m.groups()
    msg_method = _METHOD_BY_VALUE[cseq_method]
    if method is None:
        status = STATUS.get(int(code))
        if status is None:
            return None
        if reason != status.reason:
            status = StatusCode(status.code, reason)
    elif method != cseq_method:
        return None
    else:
        status = None
    return _message(
        msg_method,
        str.__new__(PhoneNumber, from_number),
        str.__new__(PhoneNumber, to_number),
        call_id,
        int(seq),
        status,
        _PEM_BY_VALUE[pem] if pem else None,
        _ALERT_BY_VALUE[alert] if alert else None,
        (),
        body,
    )


def serialize_message(msg: SipMessage) -> str:
    """Emit the canonical text form of a message.

    Fixed header order: From, To, Call-ID, CSeq, then P-Early-Media and
    Alert-Info when present, then extra headers in stored order, a blank
    line, then the body verbatim. ``parse_message(serialize_message(m))``
    returns a message equal to ``m``. Enum members are read through
    ``_value_``, which skips the ``value`` descriptor. Each number is joined
    to its ``sip:`` by ``+``, which gives a plain ``str``: an f-string would
    format a ``PhoneNumber``, a ``str`` subclass, through ``format()``.
    """
    method = msg.method._value_
    status = msg.status
    to_uri = "sip:" + msg.to_number
    if status is None:
        start = f"{method} {to_uri} SIP/2.0"
    else:
        start = f"SIP/2.0 {status.code} {status.reason}"
    pem, alert = msg.pem, msg.alert
    pem_line = "" if pem is None else f"P-Early-Media: {pem._value_}\n"
    alert_line = "" if alert is None else f"Alert-Info: <urn:alert:service:{alert._value_}>\n"
    extra = "".join([f"{n}: {v}\n" for n, v in msg.extra_headers]) if msg.extra_headers else ""
    from_uri = "sip:" + msg.from_number
    return (
        f"{start}\nFrom: {from_uri}\nTo: {to_uri}\n"
        f"Call-ID: {msg.call_id}\nCSeq: {msg.seq} {method}\n"
        f"{pem_line}{alert_line}{extra}\n{msg.body}"
    )
