import collections
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIOS, loaded_federation

import cive_sim.netsim
from cive_sim import call_fsm
from cive_sim.call_fsm import (
    CalleeProfile, Connected, Dialing, Held, Idle, LegPhase, LegRole, LineLeg, Ringing,
)
from cive_sim.netsim import (
    DuplicateNumber,
    Federation,
    GatewayPolicy,
    NetsimError,
    SimBudgetExceeded,
    UnknownSubscriber,
)
from cive_sim.sip_core import PhoneNumber, SipMessage, SipMethod, parse_message

A, B, E = "+15550100", "+15550101", "+15559900"


def two_carrier_fed(seed=0, strict_x=False, jitter=0):
    net = Federation(seed=seed)
    net.add_carrier("cn-a", GatewayPolicy(jitter_ms=jitter))
    net.add_carrier("cn-x", GatewayPolicy(enforce_caller_id=strict_x, jitter_ms=jitter))
    net.register_subscriber("cn-a", A)
    net.register_subscriber("cn-a", B)
    net.register_subscriber("cn-x", E)
    return net


def rows_with(net, **filters):
    out = []
    for row in net.trace:
        if all(row[k] == v for k, v in filters.items()):
            out.append(row)
    return out


def sip_rows(rows):
    return [(row, parse_message(row["sip"])) for row in rows]


def test_register_and_duplicate():
    net = two_carrier_fed()
    assert net.lines[PhoneNumber(A)].carrier.id == "cn-a"
    with pytest.raises(DuplicateNumber):
        net.register_subscriber("cn-x", A)  # cross-carrier collision too


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda net: net.add_carrier("cn-a"), "carrier cn-a already exists"),
        (lambda net: net.register_subscriber("cn-z", "+15551111"), "no such carrier: cn-z"),
        (
            lambda net: net.originate_call(A, net.lines[PhoneNumber(A)], B, at_ms=net.now - 1),
            "cannot originate in the past",
        ),
    ],
    ids=["duplicate-carrier", "unknown-carrier", "at-ms-in-the-past"],
)
def test_refused_setup_call_changes_nothing(refused, message):
    net = two_carrier_fed()
    net.originate_call(A, net.lines[PhoneNumber(A)], B)
    net.run()
    before = (dict(net.carriers), dict(net.lines), list(net.trace), net.now)
    with pytest.raises(NetsimError, match=f"^{message}$"):
        refused(net)
    net.run()  # a queued event would run here
    assert (net.carriers, net.lines, net.trace, net.now) == before
    assert net.originate_call(A, net.lines[PhoneNumber(A)], B) == "c0002@sim"


def test_originator_must_be_registered():
    net = two_carrier_fed()
    other = Federation()
    other.add_carrier("cn-z")
    foreign = other.register_subscriber("cn-z", "+15551111")
    with pytest.raises(UnknownSubscriber):
        net.originate_call(A, foreign, B)


def test_same_carrier_delivery_schedule():
    net = two_carrier_fed()
    net.originate_call(A, net.lines[PhoneNumber(A)], B)
    net.run()
    egress = rows_with(net, dir="egress", from_hop=f"ep:{A}")[0]
    ingress = rows_with(net, dir="ingress", to_hop=f"ep:{B}")[0]
    assert egress["t_ms"] == 0 and ingress["t_ms"] == 50


def test_cross_carrier_schedule_hand_computed():
    # One gateway crossing adds the destination carrier's 50 ms link on top
    # of the origin's 50 ms: E(cn-x) -> B(cn-a) delivers at 100.
    net = two_carrier_fed()
    net.originate_call(E, net.lines[PhoneNumber(E)], B)
    net.run()
    expected = [
        (0, "egress", f"ep:{E}"),      # INVITE leaves E
        (100, "ingress", f"ep:{B}"),   # INVITE arrives at B
        (100, "egress", f"ep:{B}"),    # 100 Trying
        (100, "egress", f"ep:{B}"),    # 183
        (100, "egress", f"ep:{B}"),    # 180
        (200, "ingress", f"ep:{E}"),   # 100 at E
        (200, "ingress", f"ep:{E}"),   # 183 at E
        (200, "egress", f"ep:{E}"),    # PRACK
        (200, "ingress", f"ep:{E}"),   # 180 at E
        (300, "ingress", f"ep:{B}"),   # PRACK at B
        (20000, "egress", f"ep:{E}"),  # patience CANCEL
        (20100, "ingress", f"ep:{B}"),
        (20100, "egress", f"ep:{B}"),  # 200 for CANCEL
        (20100, "egress", f"ep:{B}"),  # 487 for INVITE
        (20200, "ingress", f"ep:{E}"),
        (20200, "ingress", f"ep:{E}"),
        (20200, "egress", f"ep:{E}"),  # ACK
        (20300, "ingress", f"ep:{B}"),
    ]
    got = [
        (row["t_ms"], row["dir"], row["from_hop"] if row["dir"] == "egress" else row["to_hop"])
        for row in net.trace
    ]
    assert got == expected
    assert net.now == 20300
    assert net.now < 60_000


def test_spoofed_origination_lax_policy_reaches_target_display():
    net = two_carrier_fed(strict_x=False)
    net.originate_call(A, net.lines[PhoneNumber(E)], B)  # E claims A's number
    net.run()
    assert net.lines[PhoneNumber(B)].display == A
    delivered = rows_with(net, dir="ingress", to_hop=f"ep:{B}")
    invite = parse_message(delivered[0]["sip"])
    assert invite.method is SipMethod.INVITE and invite.from_number == A
    assert net.policy_violations == []


def test_spoofed_origination_strict_policy_blocked():
    net = two_carrier_fed(strict_x=True)
    net.originate_call(A, net.lines[PhoneNumber(E)], B)
    net.run()
    # Nothing reaches B; the edge answers 480 toward the originator.
    assert rows_with(net, dir="ingress", to_hop=f"ep:{B}") == []
    assert net.lines[PhoneNumber(B)].display is None
    assert len(net.policy_violations) == 1
    assert net.policy_violations[0]["claimed"] == A
    assert net.policy_violations[0]["originator"] == E
    rejected = [
        parse_message(r["sip"]) for r in rows_with(net, dir="ingress", to_hop=f"ep:{E}")
    ]
    assert any(m.status is not None and m.status.code == 480 for m in rejected)


def test_honest_origination_identical_under_both_policies():
    traces = []
    for strict in (False, True):
        net = two_carrier_fed(strict_x=strict)
        net.originate_call(E, net.lines[PhoneNumber(E)], B)
        net.run()
        traces.append(net.trace_jsonl())
        assert net.policy_violations == []
    assert traces[0] == traces[1]


def test_unroutable_destination_gets_480():
    net = two_carrier_fed()
    net.originate_call(A, net.lines[PhoneNumber(A)], "+19995550000")
    net.run()
    back = [parse_message(r["sip"]) for r in rows_with(net, dir="ingress", to_hop=f"ep:{A}")]
    assert any(m.status is not None and m.status.code == 480 for m in back)
    assert isinstance(net.lines[PhoneNumber(A)].state, Idle)


def test_empty_queue_returns_immediately():
    net = two_carrier_fed()
    assert net.run() == 0
    assert net.now == 0


def test_run_until_quiescent_returns_what_run_returns():
    def drained(method):
        net = two_carrier_fed(seed=3, jitter=20)
        net.originate_call(A, net.lines[PhoneNumber(E)], B)
        return getattr(net, method)(), net.trace_jsonl()

    assert drained("run_until_quiescent") == drained("run")


def test_originate_call_to_the_originators_own_number_is_refused():
    # Its caller and callee legs would share one Call-ID on the one line.
    net = two_carrier_fed()
    with pytest.raises(NetsimError, match="cannot call itself"):
        net.originate_call(A, net.lines[PhoneNumber(A)], A)
    with pytest.raises(NetsimError, match="cannot call itself"):
        net.originate_call(B, net.lines[PhoneNumber(A)], A, at_ms=500)
    assert net.run() == 0 and net.trace == []
    # A spoof claiming the callee's own number is an attack, not a self-call.
    net.originate_call(B, net.lines[PhoneNumber(E)], B)
    net.run()
    assert net.lines[PhoneNumber(B)].display == B


def test_sim_budget_exceeded(monkeypatch):
    monkeypatch.setattr(cive_sim.netsim, "MAX_SIM_MS", 150)
    net = two_carrier_fed()
    net.originate_call(A, net.lines[PhoneNumber(A)], B)
    with pytest.raises(SimBudgetExceeded, match="past the 150 sim-ms budget"):
        net.run()


def test_equal_seeds_byte_identical_traces():
    def run(seed):
        net = two_carrier_fed(seed=seed, jitter=20)
        net.originate_call(A, net.lines[PhoneNumber(E)], B)
        net.run()
        return net.trace_jsonl()

    assert run(7) == run(7)
    assert run(7) != run(8)  # jitter draws actually depend on the seed


def test_loaded_federation_trace_bytes_are_pinned():
    # The goldens are single-call; this pins many concurrent calls over
    # three carriers: ep, net and vm hops, 480s from the enforcing edge,
    # call waiting, voicemail and seeded jitter.
    rows, _ = loaded_federation(seed=17, n_calls=200)
    text = "".join(json.dumps(row) + "\n" for row in rows)
    assert len(rows) == 2320
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d629e1f550a8d109146fa20eb3b9c6ae67260c01357e00c2269da5da6fa98476"
    )


# The names the benchmark's tracer wraps: netsim.serialize_message as a
# module global of send, and each transition as call_fsm.<name>.
CALL_FSM_TRANSITIONS = ("on_incoming_invite", "on_cancel", "on_bye", "on_response", "on_auto_answer")


def test_traced_names_see_every_message(monkeypatch):
    # A fast path that serializes or transitions without these names would
    # hide its work from the traced benchmark run.
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        cive_sim.netsim, "serialize_message", counted("serialize", cive_sim.netsim.serialize_message)
    )
    for name in CALL_FSM_TRANSITIONS:
        monkeypatch.setattr(call_fsm, name, counted("transition", getattr(call_fsm, name)))
    monkeypatch.setattr(Federation, "send", counted("send", Federation.send))
    rows, _ = loaded_federation(seed=17, n_calls=200)
    egress = sum(row["dir"] == "egress" for row in rows)
    assert calls["serialize"] == calls["send"] == egress == len(rows) // 2
    assert calls["transition"] > 0


@pytest.mark.parametrize("key,value", [("link_delay_ms", -100), ("jitter_ms", -3)])
def test_gateway_policy_rejects_negative_timing(key, value):
    # A negative delay ran the clock backwards; a negative jitter crashed
    # the first send.
    with pytest.raises(ValueError, match=f"^{key} must be >= 0$"):
        GatewayPolicy(**{key: value})
    assert getattr(GatewayPolicy(**{key: 0}), key) == 0


@pytest.mark.parametrize("key", ["link_delay_ms", "jitter_ms"])
@pytest.mark.parametrize("value", [2.5, 50.0, True, "50"])
def test_gateway_policy_rejects_non_integer_timing(key, value):
    # A float delay wrote a trace with a non-integer t_ms that parse
    # rejected; a float jitter raised inside send, mid-run.
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got "):
        GatewayPolicy(**{key: value})


def test_jitter_draws_follow_the_seeded_randint_sequence():
    # Each link a message crosses draws randint(0, jitter_ms) from
    # Random(seed), source carrier first, in the order messages are sent.
    # The bounds include 1, 3, 7 and 1023, where jitter_ms + 1 is a power
    # of two, and 8 and 1024, one more, where the draw rejects most often.
    base = {"cn-a": 50, "cn-x": 30}
    for seed, (ja, jx) in enumerate([(20, 7), (1, 3), (8, 1023), (1024, 7), (3, 8), (1, 1024)]):
        net = Federation(seed=seed)
        net.add_carrier("cn-a", GatewayPolicy(jitter_ms=ja))
        net.add_carrier("cn-x", GatewayPolicy(link_delay_ms=30, jitter_ms=jx))
        net.register_subscriber("cn-a", B)
        net.register_subscriber("cn-x", E)
        net.originate_call(E, net.lines[PhoneNumber(E)], B)
        net.run()
        arrivals = {(r["from_hop"], r["to_hop"], r["sip"]): r["t_ms"]
                    for r in rows_with(net, dir="ingress")}
        assert len(arrivals) == len(net.trace) // 2 > 4
        rng = random.Random(seed)
        jitter = {"cn-a": ja, "cn-x": jx}
        for row in rows_with(net, dir="egress"):
            other = "cn-x" if row["carrier"] == "cn-a" else "cn-a"
            expected = base[row["carrier"]] + rng.randint(0, jitter[row["carrier"]])
            expected += base[other] + rng.randint(0, jitter[other])
            key = (row["from_hop"], row["to_hop"], row["sip"])
            assert arrivals[key] - row["t_ms"] == expected, (ja, jx, row)


def test_federation_without_jitter_never_seeds_a_stream(monkeypatch):
    # Seeding Random costs more than building a small federation, so only a
    # jittered carrier makes the stream; the traces do not change.
    from cive_sim.scenario import load_scenario, run_scenario

    def traces():
        net = two_carrier_fed(seed=5)
        net.originate_call(A, net.lines[PhoneNumber(E)], B)
        net.run()
        reports = [run_scenario(load_scenario(SCENARIOS / f"{n}.scn")) for n in ("c1", "c2", "c3")]
        return net.trace_jsonl(), [r.to_json() for r in reports]

    before = traces()

    def refused(*args):
        raise AssertionError("a federation without jitter seeded a stream")

    monkeypatch.setattr(cive_sim.netsim.random, "Random", refused)
    assert traces() == before
    with pytest.raises(AssertionError, match="seeded a stream"):
        two_carrier_fed(jitter=1)


def test_jitter_stream_is_seeded_once_by_the_first_jittered_carrier(monkeypatch):
    # cn-a draws nothing and is added first; cn-x and cn-y share the one
    # stream, Random(seed), drawn source carrier first in send order.
    seeds = []
    real = random.Random

    def counted(seed):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(cive_sim.netsim.random, "Random", counted)
    base = {"cn-a": 50, "cn-x": 30, "cn-y": 40}
    jitter = {"cn-a": 0, "cn-x": 7, "cn-y": 1024}
    net = Federation(seed=11)
    net.add_carrier("cn-a", GatewayPolicy(jitter_ms=0))
    assert seeds == []
    net.add_carrier("cn-x", GatewayPolicy(link_delay_ms=30, jitter_ms=7))
    net.add_carrier("cn-y", GatewayPolicy(link_delay_ms=40, jitter_ms=1024))
    assert seeds == [11]
    Y = "+15550199"
    net.register_subscriber("cn-a", B)
    net.register_subscriber("cn-x", E)
    net.register_subscriber("cn-y", Y)
    net.originate_call(E, net.lines[PhoneNumber(E)], B)
    net.originate_call(Y, net.lines[PhoneNumber(Y)], E, at_ms=10)
    net.originate_call(B, net.lines[PhoneNumber(B)], Y, at_ms=20)
    net.run()
    arrivals = {(r["from_hop"], r["to_hop"], r["sip"]): (r["t_ms"], r["carrier"])
                for r in rows_with(net, dir="ingress")}
    assert len(arrivals) == len(net.trace) // 2 > 12
    rng = real(11)
    drawn = 0
    for row in rows_with(net, dir="egress"):
        t_ms, dst = arrivals[(row["from_hop"], row["to_hop"], row["sip"])]
        expected = 0
        for carrier in (row["carrier"],) if dst == row["carrier"] else (row["carrier"], dst):
            expected += base[carrier] + (rng.randint(0, jitter[carrier]) if jitter[carrier] else 0)
            drawn += jitter[carrier] > 0
        assert t_ms - row["t_ms"] == expected, row
    assert drawn > 12


def test_register_subscriber_still_checks_numbers_it_cannot_reuse():
    net = two_carrier_fed()
    with pytest.raises(ValueError, match="not an E.164-style number"):
        net.register_subscriber("cn-a", "5550123")
    with pytest.raises(NetsimError, match="profile number must match"):
        net.register_subscriber("cn-a", "+15550123", CalleeProfile(PhoneNumber("+15550124")))
    assert sorted(net.lines) == sorted([A, B, E])
    # A matching profile's number becomes the line's number and its key.
    profile = CalleeProfile(PhoneNumber("+15550123"))
    line = net.register_subscriber("cn-a", "+15550123", profile)
    assert line.number is profile.number and net.lines[PhoneNumber("+15550123")] is line


def test_originate_call_validates_numbers_that_are_not_registered():
    net = two_carrier_fed()
    a = net.lines[PhoneNumber(A)]
    for claimed, to in [("bogus", B), (A, "+1")]:
        with pytest.raises(ValueError, match="not an E.164-style number"):
            net.originate_call(claimed, a, to, at_ms=10)
    assert net._heap == [] and net._call_counter == 0
    assert net.run() == 0 and net.trace == []
    # A valid number nobody holds is routed to the core, which answers 480;
    # an unregistered claim is sent as it is.
    net.originate_call("+19990000001", net.lines[PhoneNumber(E)], "+19995550000")
    net.run()
    (row, invite), (_, ack) = sip_rows(rows_with(net, dir="ingress", from_hop=f"ep:{E}"))
    assert row["to_hop"] == "net:cn-x" and ack.method is SipMethod.ACK
    assert (invite.from_number, invite.to_number) == ("+19990000001", "+19995550000")
    back = [m.status.code for _, m in sip_rows(rows_with(net, dir="ingress", to_hop=f"ep:{E}"))]
    assert back == [480]


def test_voicemail_answers_for_busy_subscriber():
    net = Federation()
    net.add_carrier("cn-a")
    a = net.register_subscriber(
        "cn-a", A, CalleeProfile(PhoneNumber(A), voicemail_forward=True)
    )
    b = net.register_subscriber("cn-a", B)
    net.register_subscriber("cn-a", "+15550102")
    a.preset_state(Connected(PhoneNumber("+15550102")))
    net.originate_call(B, b, A)
    net.run()
    got = [
        (parse_message(r["sip"]).status.code)
        for r in rows_with(net, dir="ingress", to_hop=f"ep:{B}")
        if parse_message(r["sip"]).status is not None
    ]
    assert got == [100, 181, 200]
    assert a.state == Connected(PhoneNumber("+15550102"))  # never disturbed
    assert b.state == Connected(PhoneNumber(A))
    vm_rows = rows_with(net, dir="egress", from_hop="vm:cn-a")
    assert len(vm_rows) == 1  # the voicemail's 200
    acked = rows_with(net, dir="ingress", to_hop="vm:cn-a")
    assert [parse_message(r["sip"]).method for r in acked] == [SipMethod.ACK]


def test_leg_request_numbers_cseq_per_rfc3261():
    invite = SipMessage(SipMethod.INVITE, PhoneNumber(A), PhoneNumber(B), "leg-1", 7)
    leg = LineLeg(LegRole.CALLER, LegPhase.EARLY, invite)
    methods = [SipMethod.PRACK, SipMethod.ACK, SipMethod.BYE, SipMethod.CANCEL, SipMethod.PRACK]
    sent = [leg.request(m) for m in methods]
    # ACK and CANCEL reuse the INVITE's number; the others count up from 2
    assert [(m.seq, m.method) for m in sent] == [(2, SipMethod.PRACK), (7, SipMethod.ACK),
                                                 (3, SipMethod.BYE), (7, SipMethod.CANCEL),
                                                 (4, SipMethod.PRACK)]
    for m in sent:
        assert (m.from_number, m.to_number, m.call_id) == (A, B, "leg-1")
        assert m.status is None and not m.extra_headers and m.body == ""


def test_preset_state_installs_one_backing_leg_per_state():
    net = two_carrier_fed()
    a = net.lines[PhoneNumber(A)]
    a.preset_state(Idle())
    assert a.legs == {} and a.state == Idle()
    c = PhoneNumber("+15550102")
    call_id = f"preset-{A}-0"
    for state, phase in (
        (Dialing(c), LegPhase.EARLY), (Connected(c), LegPhase.ANSWERED), (Held(c), LegPhase.HELD)
    ):
        net = two_carrier_fed()
        a = net.lines[PhoneNumber(A)]
        a.preset_state(state)
        assert list(a.legs) == [call_id]
        leg = a.legs[call_id]
        assert (leg.peer, leg.role, leg.phase) == (c, LegRole.CALLER, phase)
        assert leg.invite == SipMessage.request(SipMethod.INVITE, A, c, call_id)
        assert a.state == state
        with pytest.raises(ValueError):
            a.preset_state(Ringing(c))
        assert net.trace == []  # presets replay no signaling


def test_preset_state_refuses_a_call_with_the_lines_own_number():
    net = two_carrier_fed()
    a = net.lines[PhoneNumber(A)]
    for state in (Dialing(a.number), Connected(a.number), Held(a.number)):
        with pytest.raises(ValueError, match="cannot be on a call with itself"):
            a.preset_state(state)
    assert a.legs == {} and a.state == Idle()


def test_held_line_with_a_ringing_call_is_busy_to_a_further_invite():
    # A line holding a call, whose call-waiting call from B still rings,
    # reads as ringing: E's INVITE gets 486, not a second alert.
    net = two_carrier_fed()
    a_num, c_num = PhoneNumber("+15550103"), PhoneNumber("+15550102")
    a = net.register_subscriber("cn-a", a_num, CalleeProfile(a_num, call_waiting=True))
    net.register_subscriber("cn-a", c_num)
    a.preset_state(Held(c_num))
    net.originate_call(B, net.lines[PhoneNumber(B)], a_num, at_ms=0)
    net.originate_call(E, net.lines[PhoneNumber(E)], a_num, at_ms=1000)
    net.run()
    to_b, to_e = (
        [m.status.code for _, m in sip_rows(rows_with(net, dir="ingress", to_hop=f"ep:{n}"))
         if m.status is not None and m.method is SipMethod.INVITE]
        for n in (B, E)
    )
    assert to_b == [100, 183, 180, 487]
    assert to_e == [100, 486]


# -- conservation / causality / policy soundness over random scenarios ------


def assert_conserved(rows):
    """Every INVITE, CANCEL and BYE put on the wire got a final answer back
    at its sender. ACK never has a response; PRACK is unacknowledged in
    this profile."""
    parsed = sip_rows(rows)
    finals_needed = []
    for row, msg in parsed:
        if row["dir"] != "egress" or msg.status is not None:
            continue
        if msg.method in (SipMethod.ACK, SipMethod.PRACK):
            continue
        finals_needed.append((row["from_hop"], msg.call_id, (msg.seq, msg.method)))
    assert finals_needed, "nothing happened on the wire"
    for sender, call_id, cseq in finals_needed:
        answered = any(
            row["dir"] == "ingress"
            and row["to_hop"] == sender
            and msg.status is not None
            and msg.call_id == call_id
            and (msg.seq, msg.method) == cseq
            and msg.status.code >= 200
            for row, msg in parsed
        )
        assert answered, f"no final response for {cseq} on {call_id} back to {sender}"


def assert_causal(rows):
    """Each delivery matches an earlier egress of the same message and is
    delayed by at least one link."""
    pending = {}
    for row in rows:
        key = (row["sip"], row["from_hop"], row["to_hop"])
        if row["dir"] == "egress":
            pending.setdefault(key, []).append(row)
        else:
            assert pending.get(key), f"ingress without egress: {key}"
            sent = pending[key].pop(0)
            assert row["t_ms"] - sent["t_ms"] >= 50
    for leftovers in pending.values():
        assert not leftovers, "egress without a matching delivery"


def assert_policy_sound(rows, strict_carriers):
    by_call = {}
    for row, msg in sip_rows(rows):
        if msg.status is None and msg.method is SipMethod.INVITE:
            by_call.setdefault(msg.call_id, []).append((row, msg))
    for call_rows in by_call.values():
        first_row, _first_msg = call_rows[0]
        assert first_row["dir"] == "egress"
        if first_row["carrier"] not in strict_carriers:
            continue
        originator = first_row["from_hop"].removeprefix("ep:")
        for row, msg in call_rows:
            if row["dir"] == "ingress" and row["to_hop"].startswith("ep:"):
                assert msg.from_number == originator, (
                    f"spoofed INVITE delivered under strict policy: {row}"
                )


def test_policy_soundness_and_conservation_randomized():
    rng = random.Random(42)
    numbers = [f"+1555010{i}" for i in range(8)]
    for trial in range(25):
        net = Federation(seed=trial)
        strict = set()
        carrier_ids = [f"cn{i}" for i in range(rng.randint(2, 3))]
        for cid in carrier_ids:
            enforce = rng.random() < 0.5
            if enforce:
                strict.add(cid)
            net.add_carrier(
                cid,
                GatewayPolicy(enforce_caller_id=enforce, jitter_ms=rng.choice([0, 0, 15])),
            )
        parties = rng.sample(numbers, rng.randint(3, 6))
        for num in parties:
            profile = CalleeProfile(
                PhoneNumber(num),
                call_waiting=rng.random() < 0.4,
                voicemail_forward=rng.random() < 0.4,
            )
            line = net.register_subscriber(rng.choice(carrier_ids), num, profile)
            peer = PhoneNumber(rng.choice([p for p in parties if p != num]))
            state = rng.choice(["idle", "idle", "dialing", "connected", "held"])
            if state == "dialing":
                line.preset_state(Dialing(peer))
            elif state == "connected":
                line.preset_state(Connected(peer))
            elif state == "held":
                line.preset_state(Held(peer))
        for _ in range(rng.randint(1, 3)):
            originator = net.lines[PhoneNumber(rng.choice(parties))]
            claimed = rng.choice([originator.number, PhoneNumber(rng.choice(parties))])
            target = PhoneNumber(rng.choice([p for p in parties if p != originator.number]))
            net.originate_call(claimed, originator, target, at_ms=rng.choice([0, 10, 500]))
        net.run()
        assert_conserved(net.trace)
        assert_causal(net.trace)
        assert_policy_sound(net.trace, strict)


def test_corpus_scenarios_hold_network_invariants(tmp_path):
    # The bundled scenarios, verification included, satisfy conservation,
    # causality, and policy soundness end to end.
    from conftest import SCENARIOS
    from cive_sim.scenario import load_scenario, run_scenario

    for name in ("c1", "c2", "c3", "c4", "c5"):
        s = load_scenario(SCENARIOS / f"{name}.scn")
        run_scenario(s, tmp_path / name)
        rows = [
            json.loads(line)
            for line in (tmp_path / name / f"{name}.trace.jsonl").read_text().splitlines()
        ]
        assert_conserved(rows)
        assert_causal(rows)
        strict = {cid for cid, c in s.carriers.items() if c.enforce_caller_id}
        assert_policy_sound(rows, strict_carriers=strict)


def test_trace_jsonl_field_order():
    net = two_carrier_fed()
    net.originate_call(A, net.lines[PhoneNumber(A)], B)
    net.run()
    first = net.trace_jsonl().splitlines()[0]
    assert list(json.loads(first)) == ["t_ms", "carrier", "from_hop", "to_hop", "dir", "sip"]


@pytest.mark.parametrize("size", ["c2", "200-calls"])
def test_each_sent_message_is_serialized_once(monkeypatch, tmp_path, size):
    from cive_sim.scenario import load_scenario, run_scenario

    calls = {"serialize": 0, "send": 0}
    serialize, send = cive_sim.netsim.serialize_message, Federation.send

    def counting_serialize(msg):
        calls["serialize"] += 1
        return serialize(msg)

    def counting_send(self, sender, msg):
        calls["send"] += 1
        return send(self, sender, msg)

    monkeypatch.setattr(cive_sim.netsim, "serialize_message", counting_serialize)
    monkeypatch.setattr(Federation, "send", counting_send)
    if size == "c2":
        run_scenario(load_scenario(SCENARIOS / "c2.scn"), tmp_path)
        rows = [json.loads(line) for line in (tmp_path / "c2.trace.jsonl").read_text().splitlines()]
    else:
        rows, _ = loaded_federation(seed=17, n_calls=200)
    egress = [row for row in rows if row["dir"] == "egress"]
    assert calls["send"] == len(egress) > 0
    assert calls["serialize"] == calls["send"]
    # every ingress row carries the text of an egress row over the same hops
    unmatched = {}
    for row in egress:
        key = (row["from_hop"], row["to_hop"], row["sip"])
        unmatched[key] = unmatched.get(key, 0) + 1
    for row in rows:
        if row["dir"] == "ingress":
            key = (row["from_hop"], row["to_hop"], row["sip"])
            assert unmatched.get(key, 0) > 0, row
            unmatched[key] -= 1


class _TimerProbe:
    """Schedules its own method, and records the calls."""

    def __init__(self, net):
        self.net = net
        self.fired = []

    def fire(self, tag):
        self.fired.append((tag, self.net.now))


def test_cancelled_timers_never_advance_the_clock_or_trip_the_budget(monkeypatch):
    monkeypatch.setattr(cive_sim.netsim, "MAX_SIM_MS", 150)
    net = Federation()
    probe = _TimerProbe(net)
    net.cancel_timer(net.set_timer(1000, probe.fire, "late"))
    assert net.run() == 0
    assert net._heap == []

    # A cancelled timer ahead of a live one is skipped without moving the
    # clock; one after the last live one is dropped without raising, though
    # it lies past the budget.
    early = net.set_timer(5, probe.fire, "early")
    net.set_timer(20, probe.fire, "live")
    net.cancel_timer(early)
    net.cancel_timer(net.set_timer(1000, probe.fire, "late"))
    assert net.run() == 20
    assert probe.fired == [("live", 20)]
    assert net._heap == []


# The event queue is one heap of (at, seq, callback, args) entries. Each test
# below pins one case of its order, clock and budget; the property test after
# them checks generated programs against a list sorted by (at, seq).


def test_same_ms_timers_and_deliveries_fire_in_insertion_order():
    # A timer, a cross-carrier delivery and another timer, all due at 100 ms.
    # Each timer logs the trace length: 1 row (the INVITE's egress) before the
    # delivery, 5 after it (its ingress row and E's 100, 183 and 180).
    net = two_carrier_fed()
    order = []

    def log(tag):
        order.append((tag, net.now, len(net.trace)))

    net.set_timer(100, log, "before")
    net.send(net.lines[PhoneNumber(A)], SipMessage.request(SipMethod.INVITE, A, E, "q-1"))
    net.set_timer(100, log, "after")
    assert net.run() == 200
    assert order == [("before", 100, 1), ("after", 100, 5)]
    assert net.trace[1]["t_ms"] == 100 and net.trace[1]["dir"] == "ingress"


def test_zero_delay_timer_set_while_its_time_runs_fires_before_the_next_time():
    net = Federation()
    order = []

    def log(tag):
        order.append((tag, net.now))

    def first():
        log("first")
        net.set_timer(0, log, "zero")

    net.set_timer(10, first)
    net.set_timer(10, log, "second")
    net.set_timer(11, log, "next")
    assert net.run() == 11
    assert order == [("first", 10), ("second", 10), ("zero", 10), ("next", 11)]
    # A timer set for the time the last run ended at fires on the next run.
    net.set_timer(0, log, "again")
    assert net.run() == 11 and order[-1] == ("again", 11)
    assert net._heap == []


def test_cancelled_timer_in_a_list_moves_no_clock_and_spends_no_budget(monkeypatch):
    monkeypatch.setattr(cive_sim.netsim, "MAX_SIM_MS", 150)
    net = Federation()
    probe = _TimerProbe(net)
    net.set_timer(20, probe.fire, "live")
    net.cancel_timer(net.set_timer(30, probe.fire, "cancelled-alone"))
    cancelled_first = net.set_timer(40, probe.fire, "cancelled-first")
    net.set_timer(40, probe.fire, "after-cancelled")
    net.cancel_timer(cancelled_first)
    for tag in ("past-1", "past-2"):  # one time past the budget, every timer there cancelled
        net.cancel_timer(net.set_timer(200, probe.fire, tag))
    assert net.run() == 40
    assert probe.fired == [("live", 20), ("after-cancelled", 40)]
    assert net._heap == []


def test_budget_overrun_in_a_list_raises_and_leaves_it_queued(monkeypatch):
    monkeypatch.setattr(cive_sim.netsim, "MAX_SIM_MS", 150)
    net = Federation()
    probe = _TimerProbe(net)
    net.set_timer(100, probe.fire, "in-budget")
    net.cancel_timer(net.set_timer(200, probe.fire, "cancelled"))
    net.set_timer(200, probe.fire, "over-1")
    net.set_timer(200, probe.fire, "over-2")
    with pytest.raises(SimBudgetExceeded, match="t=200 ms, past the 150 sim-ms budget"):
        net.run()
    assert net.now == 100 and probe.fired == [("in-budget", 100)]
    # A larger budget runs the queue as it was found.
    monkeypatch.setattr(cive_sim.netsim, "MAX_SIM_MS", 1000)
    assert net.run() == 200
    assert probe.fired == [("in-budget", 100), ("over-1", 200), ("over-2", 200)]
    assert net._heap == []


def test_a_handler_that_raises_leaves_the_rest_queued():
    net = Federation()
    probe = _TimerProbe(net)

    def fail():
        raise RuntimeError("handler failed")

    net.set_timer(10, fail)
    net.set_timer(10, probe.fire, "same-time")
    net.set_timer(20, fail)  # alone at its time
    net.set_timer(30, probe.fire, "later")
    with pytest.raises(RuntimeError, match="handler failed"):
        net.run()
    assert net.now == 10 and probe.fired == []
    with pytest.raises(RuntimeError, match="handler failed"):
        net.run()
    assert net.now == 20 and probe.fired == [("same-time", 10)]
    assert net.run() == 30
    assert probe.fired == [("same-time", 10), ("later", 30)]
    assert net._heap == []


def test_negative_timer_delay_is_refused():
    net = Federation()
    probe = _TimerProbe(net)
    with pytest.raises(NetsimError, match="timer delay must be >= 0, got -1"):
        net.set_timer(-1, probe.fire, "past")
    assert net._heap == [] and net.run() == 0 and probe.fired == []


class _SortedList:
    """The reference queue: a plain list of (at, seq, callback, args),
    sorted by (at, seq) before each pop, with the budget read at run time."""

    def __init__(self):
        self.now = self.seq = 0
        self.events = []
        self.cancelled = set()

    def set_timer(self, delay_ms, callback, *args):
        self.seq += 1
        self.events.append((self.now + delay_ms, self.seq, callback, args))
        return self.seq

    def cancel_timer(self, timer):
        self.cancelled.add(timer)

    def run(self):
        budget = cive_sim.netsim.MAX_SIM_MS
        while self.events:
            self.events.sort(key=lambda event: event[:2])
            at, seq, callback, args = self.events[0]
            if seq in self.cancelled:
                del self.events[0]
                continue
            if at > budget:
                raise SimBudgetExceeded(f"t={at}")
            del self.events[0]
            self.now = at
            callback(*args)
        return self.now


def _play(queue, mp, program, budget):
    """Run one generated timer program on ``queue``: each timer's handler
    logs itself and may set a zero-delay timer, cancel another timer's
    handle or raise. After the first run ends, more handles are cancelled;
    after a budget overrun the budget is lifted. Runs until the queue
    drains, then once more for a zero-delay timer. Returns the log: each
    firing, and each run's result or exception, with the clock."""
    delays, actions, raiser, cancels_before, cancels_after = program
    mp.undo()
    if budget is not None:
        mp.setattr(cive_sim.netsim, "MAX_SIM_MS", budget)
    log, handles = [], []

    def fire(i):
        log.append(("fired", i, queue.now))
        spawns, target = actions[i]
        if spawns:
            queue.set_timer(0, child, i)
        if target is not None:
            queue.cancel_timer(handles[target])
        if i == raiser:
            raise RuntimeError(f"handler {i} failed")

    def child(i):
        log.append(("child", i, queue.now))

    handles.extend(queue.set_timer(delay, fire, i) for i, delay in enumerate(delays))
    for i in cancels_before:
        queue.cancel_timer(handles[i])
    for attempt in range(3):  # at most one raise and one overrun
        try:
            log.append(("ran", queue.run(), queue.now))
            break
        except RuntimeError:
            log.append(("raised", queue.now))
        except SimBudgetExceeded:
            log.append(("overran", queue.now))
            mp.setattr(cive_sim.netsim, "MAX_SIM_MS", 10**6)
        if attempt == 0:
            for i in cancels_after:
                queue.cancel_timer(handles[i])
    queue.set_timer(0, child, -1)
    log.append(("ran", queue.run(), queue.now))
    return log


def _timer_programs(n):
    index = st.integers(0, n - 1)
    return st.tuples(
        st.lists(st.sampled_from([0, 10, 150, 300]) | st.integers(0, 300),
                 min_size=n, max_size=n),  # each timer's delay, ties likely
        st.lists(st.tuples(st.booleans(), st.none() | index), min_size=n, max_size=n),
        st.none() | index,  # the one handler that raises
        st.lists(index, max_size=4),  # handles cancelled before the first run, repeats too
        st.lists(index, max_size=4),  # and after it: live, fired or cancelled
    )


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(program=st.integers(1, 10).flatmap(_timer_programs), budget=st.none() | st.integers(0, 300))
def test_queue_runs_generated_programs_as_a_list_sorted_by_time_and_seq(program, budget):
    with pytest.MonkeyPatch.context() as mp:
        net = Federation()
        assert _play(net, mp, program, budget) == _play(_SortedList(), mp, program, budget)
    assert net._heap == []


@pytest.mark.parametrize("kind", ["response", "bye-to-line", "bye-to-unregistered"])
def test_send_without_a_dialog_is_refused_before_any_row(kind):
    # Only an INVITE opens a dialog; anything else with an unknown Call-ID
    # is a program fault, raised at send before a row is logged.
    net = two_carrier_fed()
    line_a = net.lines[PhoneNumber(A)]
    if kind == "response":
        msg = SipMessage.reply(SipMessage.request(SipMethod.INVITE, B, A, "x-1"), 200)
    else:
        to = B if kind == "bye-to-line" else "+19990001111"
        msg = SipMessage(SipMethod.BYE, PhoneNumber(A), PhoneNumber(to), "x-1", 2)
    with pytest.raises(NetsimError, match="unknown dialog x-1"):
        net.send(line_a, msg)
    assert net.trace == []
    assert net.run() == 0


def test_trace_jsonl_matches_json_dumps_on_awkward_strings():
    texts = [
        "", "plain", 'say "hi"', "back\\slash\\", "ctl \x00\x01\x1f\x7f\t\r\n\b\f",
        "café ☎ \U0001f4de", "  ", "lone \ud800 surrogate", "/</script>",
    ]
    net = Federation()
    for i, text in enumerate(texts):
        for j, other in enumerate(texts):
            net.trace.append({"t_ms": i * 1000 + j, "carrier": text, "from_hop": other,
                              "to_hop": text + other, "dir": other, "sip": text})
    assert net.trace_jsonl() == "".join(json.dumps(row) + "\n" for row in net.trace)


_carrier = st.tuples(st.booleans(), st.integers(0, 200), st.integers(0, 40))


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(
    carriers=st.lists(_carrier, min_size=1, max_size=3),
    homes=st.lists(st.integers(0, 2), min_size=3, max_size=8),
    calls=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 3000)),
        min_size=1, max_size=5,
    ),
    seed=st.integers(0, 2**16),
)
def test_random_federations_pair_rows_repeat_and_police_spoofs(carriers, homes, calls, seed):
    numbers = [f"+1555020{i}" for i in range(len(homes))]
    home = {n: f"cn{h % len(carriers)}" for n, h in zip(numbers, homes)}
    originations = []
    for o, c, t, at in calls:
        originator, claimed = numbers[o % len(numbers)], numbers[c % len(numbers)]
        others = [n for n in numbers if n != originator]
        originations.append((originator, claimed, others[t % len(others)], at))

    def run():
        net = Federation(seed=seed)
        for i, (enforce, delay, jitter) in enumerate(carriers):
            net.add_carrier(f"cn{i}", GatewayPolicy(enforce, delay, jitter))
        for n in numbers:
            net.register_subscriber(home[n], n)
        for originator, claimed, target, at in originations:
            net.originate_call(claimed, net.lines[PhoneNumber(originator)], target, at_ms=at)
        net.run()
        return net

    net = run()
    unpaired = {}
    for row in net.trace:
        key = (row["from_hop"], row["to_hop"], row["sip"])
        unpaired[key] = unpaired.get(key, 0) + (1 if row["dir"] == "egress" else -1)
    assert not any(unpaired.values())
    assert net.trace_jsonl() == run().trace_jsonl()
    enforcing = {f"cn{i}" for i, (enforce, _, _) in enumerate(carriers) if enforce}
    spoofs = [
        (o, c) for o, c, _, _ in originations if c != o and home[o] in enforcing
    ]
    assert sorted((v["originator"], v["claimed"]) for v in net.policy_violations) == sorted(spoofs)

    # Every INVITE ends in a final response or a CANCEL, and the patience
    # and auto-answer timers leave no unanswered leg behind.
    invited, closed = set(), set()
    for row in net.trace:
        msg = parse_message(row["sip"])
        if msg.method is SipMethod.INVITE and msg.status is None:
            invited.add(msg.call_id)
        elif (msg.method is SipMethod.INVITE and msg.status is not None and msg.status.code >= 200
              or msg.method is SipMethod.CANCEL):
            closed.add(msg.call_id)
    assert len(invited) == len(originations) and invited <= closed
    assert not [
        call_id for line in net.lines.values() for call_id, leg in line.legs.items()
        if leg.phase is LegPhase.EARLY
    ]
