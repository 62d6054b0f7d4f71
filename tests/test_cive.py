import copy
import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loaded_federation

import cive_sim.scenario
import cive_sim.sip_core
from cive_sim import call_fsm, cive
from cive_sim.call_fsm import CalleeProfile, CallPhase, Connected, Dialing
from cive_sim.cive import (
    Decision,
    EmptyTrace,
    FeatureVector,
    IncomingCallContext,
    InferredState,
    LineBusy,
    MalformedTraceRow,
    SignalingTrace,
    UnsupportedPhase,
    Verdict,
    decide,
    extract_features,
    infer_state,
    launch_verification,
    legs_from_trace_rows,
    verify_incoming,
)
from cive_sim.netsim import Direction, Federation, GatewayPolicy
from cive_sim.scenario import (
    _MATRIX_E,
    MATRIX_A_STATES,
    _matrix_cell,
    build_federation,
    matrix_scenarios,
    run_scenario,
)
from cive_sim.sip_core import (
    AlertUrn,
    PemValue,
    PhoneNumber,
    SipMessage,
    SipMethod,
    StatusCode,
    parse_message,
)

A = PhoneNumber("+15550100")
B = PhoneNumber("+15550101")

INVITE = SipMessage.request(SipMethod.INVITE, B, A, "au-1")


def ctx(phase=CallPhase.RINGING):
    return IncomingCallContext(
        claimed_id=A, callee=B, in_call_id="in-1", phase=phase, t_start=50
    )


def trace_of(*steps, timed_out=False):
    trace = SignalingTrace(timed_out=timed_out)
    t = 0
    for direction, msg in steps:
        trace.append(t, direction, msg)
        t += 50
    return trace


def sent(msg):
    return (Direction.EGRESS, msg)


def recv(msg):
    return (Direction.INGRESS, msg)


def reply(code, *, pem=None, alert=None, to=INVITE):
    return SipMessage.reply(to, code, pem=pem, alert=alert)


def req(method, seq):
    return SipMessage(
        method=method, from_number=B, to_number=A, call_id="au-1", cseq=(seq, method)
    )


def test_extract_features_connected_shape():
    cancel = req(SipMethod.CANCEL, 1)
    trace = trace_of(
        sent(INVITE),
        recv(reply(100)),
        recv(reply(183, pem=PemValue.SENDRECV)),
        sent(req(SipMethod.PRACK, 2)),
        recv(reply(180, pem=PemValue.SENDRECV, alert=AlertUrn.CALL_WAITING)),
        sent(cancel),
        recv(reply(200, to=cancel)),
        recv(reply(487)),
        sent(req(SipMethod.ACK, 1)),
    )
    f = extract_features(trace)
    assert f.pem_180 is PemValue.SENDRECV
    assert f.alert_180 is AlertUrn.CALL_WAITING
    assert f.final_to_invite == StatusCode(487)
    assert f.teardown is SipMethod.CANCEL
    assert not f.saw_181 and not f.saw_486 and not f.timed_out


def test_extract_features_collision_shape():
    trace = trace_of(
        sent(INVITE),
        recv(reply(100)),
        recv(reply(183, pem=PemValue.SENDONLY)),
        sent(req(SipMethod.PRACK, 2)),
        recv(reply(180, pem=PemValue.SENDONLY)),
        recv(reply(200)),
        sent(req(SipMethod.ACK, 1)),
        sent(req(SipMethod.BYE, 3)),
        recv(reply(200, to=req(SipMethod.BYE, 3))),
    )
    f = extract_features(trace)
    assert f.pem_180 is PemValue.SENDONLY
    assert f.final_to_invite == StatusCode(200)
    assert f.teardown is SipMethod.BYE


def test_extract_features_uses_first_180_and_invite_final_only():
    cancel = req(SipMethod.CANCEL, 1)
    trace = trace_of(
        sent(INVITE),
        recv(reply(180, pem=PemValue.SENDONLY)),
        recv(reply(180, pem=PemValue.SENDRECV)),  # later 180 ignored
        sent(cancel),
        recv(reply(200, to=cancel)),  # 200 on the CANCEL tx is not the final
        recv(reply(487)),
        sent(req(SipMethod.ACK, 1)),
    )
    f = extract_features(trace)
    assert f.pem_180 is PemValue.SENDONLY
    assert f.final_to_invite == StatusCode(487)


def test_extract_features_degenerate_and_empty():
    f = extract_features(trace_of(sent(INVITE), timed_out=True))
    assert f == FeatureVector(timed_out=True)
    with pytest.raises(EmptyTrace):
        extract_features(SignalingTrace())


def test_trace_invariants():
    trace = SignalingTrace()
    with pytest.raises(ValueError):
        trace.append(0, Direction.INGRESS, reply(100))
    trace.append(10, Direction.EGRESS, INVITE)
    with pytest.raises(ValueError):
        trace.append(5, Direction.INGRESS, reply(100))


INFERENCE_TABLE = [
    (FeatureVector(pem_180=PemValue.SENDONLY), InferredState.DIALING),
    (
        FeatureVector(pem_180=PemValue.SENDRECV, alert_180=AlertUrn.CALL_WAITING),
        InferredState.CONNECTED,
    ),
    (FeatureVector(pem_180=PemValue.SENDRECV), InferredState.IDLE),
    (FeatureVector(saw_486=True), InferredState.BUSY_NO_WAITING),
    (FeatureVector(saw_181=True), InferredState.FORWARDED_TO_VOICEMAIL),
    (FeatureVector(timed_out=True), InferredState.UNREACHABLE),
    (FeatureVector(), InferredState.UNREACHABLE),  # nothing seen at all
    (
        FeatureVector(final_to_invite=StatusCode(480)),
        InferredState.UNREACHABLE,
    ),
    # 486 wins over everything, even a sendonly 180 seen earlier.
    (FeatureVector(pem_180=PemValue.SENDONLY, saw_486=True), InferredState.BUSY_NO_WAITING),
    (FeatureVector(pem_180=PemValue.SENDRECV, saw_181=True), InferredState.FORWARDED_TO_VOICEMAIL),
    # A 180 without early media but with an alert matches no rule.
    (FeatureVector(alert_180=AlertUrn.CALL_WAITING), InferredState.UNKNOWN),
    (
        FeatureVector(pem_180=PemValue.RECVONLY, final_to_invite=StatusCode(487)),
        InferredState.UNKNOWN,
    ),
]


@pytest.mark.parametrize("features,expected", INFERENCE_TABLE)
def test_inference_table(features, expected):
    assert infer_state(features) is expected


def test_inference_pure():
    f = FeatureVector(pem_180=PemValue.SENDRECV)
    assert infer_state(f) is infer_state(f)
    assert extract_features(trace_of(sent(INVITE))) == extract_features(trace_of(sent(INVITE)))


DECISION_TABLE = [
    (InferredState.DIALING, Decision.LEGIT),
    (InferredState.IDLE, Decision.SPOOFED),
    (InferredState.CONNECTED, Decision.SPOOFED),
    (InferredState.BUSY_NO_WAITING, Decision.SPOOFED),
    (InferredState.FORWARDED_TO_VOICEMAIL, Decision.SPOOFED),
    (InferredState.UNREACHABLE, Decision.INCONCLUSIVE),
    (InferredState.UNKNOWN, Decision.INCONCLUSIVE),
]


@pytest.mark.parametrize("inferred,expected", DECISION_TABLE)
def test_decision_table(inferred, expected):
    features = FeatureVector()
    verdict = decide(ctx(), inferred, features)
    assert verdict.decision is expected
    assert verdict.inferred is inferred
    assert verdict.expected == f"dialing toward {B}"
    assert verdict.reason.startswith("rule ")


def test_each_state_comes_from_one_rule_and_decide_names_it():
    # decide reads the reason off the state alone, whatever the features.
    states = [state for _, state, _, _ in cive._RULES]
    assert len(set(states)) == len(states) == len(InferredState)
    for number, state in enumerate(states, 1):
        reason = decide(ctx(), state, FeatureVector()).reason
        assert reason.startswith(f"rule {number}: "), (state, reason)


def test_decide_rejects_answered_phase():
    with pytest.raises(UnsupportedPhase):
        decide(ctx(CallPhase.ANSWERED), InferredState.DIALING, FeatureVector())


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict(Decision.LEGIT, InferredState.IDLE, "x", "r", FeatureVector())
    with pytest.raises(ValueError):
        Verdict(Decision.SPOOFED, InferredState.DIALING, "x", "r", FeatureVector())
    with pytest.raises(ValueError):
        Verdict(Decision.SPOOFED, InferredState.UNKNOWN, "x", "r", FeatureVector())


def _verify(net, context):
    """Launch a verification, run the federation to quiescence, read the verdict."""
    agent = launch_verification(net, context)
    net.run_until_quiescent()
    return verify_incoming(agent)


def _federation(**profile_kwargs):
    net = Federation()
    net.add_carrier("cn-a")
    net.register_subscriber("cn-a", A, CalleeProfile(A, **profile_kwargs))
    net.register_subscriber("cn-a", B)
    return net


def test_launch_rejects_answered_phase():
    net = _federation()
    with pytest.raises(UnsupportedPhase):
        launch_verification(net, ctx(CallPhase.ANSWERED))


def test_launch_line_busy_while_in_flight():
    net = _federation()

    class Stuck:
        done = False

    stuck = Stuck()
    net.lines[B].verifier = stuck
    with pytest.raises(LineBusy):
        launch_verification(net, ctx())
    # Once it is done, a new verifier replaces it on the line and is routed
    # as B's endpoint.
    stuck.done = True
    verdict, trace = _verify(net, ctx())
    assert net.lines[B].verifier is not stuck
    assert verdict.decision is Decision.SPOOFED and verdict.inferred is InferredState.IDLE
    assert not trace.timed_out


def test_launch_sends_the_invite_and_leaves_the_loop_to_the_caller():
    net = _federation()
    agent = launch_verification(net, ctx())
    assert net.now == 0 and not agent.done
    assert [(r["dir"], r["from_hop"]) for r in net.trace] == [("egress", f"ep:{B}")]
    # A launch no longer blocks, so a second one before the loop runs finds
    # the first still in flight.
    with pytest.raises(LineBusy):
        launch_verification(net, ctx())
    net.run_until_quiescent()
    verdict, trace = verify_incoming(agent)
    assert agent.done and trace is agent.trace
    assert verdict.decision is Decision.SPOOFED and verdict.inferred is InferredState.IDLE


def test_two_verifications_in_turn_on_one_callee_line():
    # B's line runs two verifiers in turn, on a carrier other than A's; the
    # second agent must be routed like the first.
    net = Federation()
    net.add_carrier("cn-a")
    net.add_carrier("cn-b", GatewayPolicy(link_delay_ms=30))
    line_a = net.register_subscriber("cn-a", A)
    net.register_subscriber("cn-b", B)
    first, first_trace = _verify(net, ctx())
    first_agent = net.lines[B].verifier
    rows_before = len(net.trace)
    line_a.preset_state(Dialing(B))
    again = IncomingCallContext(
        claimed_id=A, callee=B, in_call_id="in-2", phase=CallPhase.RINGING, t_start=net.now
    )
    second, second_trace = _verify(net, again)
    assert net.lines[B].verifier is not first_agent
    assert first.decision is Decision.SPOOFED and first.inferred is InferredState.IDLE
    assert second.decision is Decision.LEGIT
    assert not first_trace.timed_out and not second_trace.timed_out
    sent_by_b = [
        row for row in net.trace[rows_before:]
        if row["dir"] == "egress" and row["from_hop"] == f"ep:{B}"
    ]
    assert sent_by_b and all(row["carrier"] == "cn-b" for row in sent_by_b)
    # one 30 ms + 50 ms interconnect crossing each way
    assert second_trace.entries[1].t_ms - second_trace.entries[0].t_ms == 160


def test_verify_idle_target_infers_idle():
    net = _federation()
    verdict, trace = _verify(net, ctx())
    assert verdict.decision is Decision.SPOOFED
    assert verdict.inferred is InferredState.IDLE
    assert trace.entries[0].message.method is SipMethod.INVITE
    assert not trace.timed_out


def test_verify_unroutable_claimed_is_inconclusive():
    net = Federation()
    net.add_carrier("cn-a")
    net.register_subscriber("cn-a", B)
    unknown = PhoneNumber("+19990001111")
    context = IncomingCallContext(
        claimed_id=unknown, callee=B, in_call_id="in-1",
        phase=CallPhase.RINGING, t_start=0,
    )
    verdict, trace = _verify(net, context)
    kinds = [
        e.message.method.value if e.message.is_request else e.message.status.code
        for e in trace
    ]
    assert kinds == ["INVITE", 480, "ACK"]
    assert not trace.timed_out
    assert verdict.inferred is InferredState.UNREACHABLE
    assert verdict.decision is Decision.INCONCLUSIVE


def test_verify_times_out_when_the_queue_drains_before_the_leg_ends():
    net = _federation()
    net.lines[A].handle_message = lambda msg: None  # A answers nothing
    verdict, trace = _verify(net, ctx())
    assert verdict.decision is Decision.INCONCLUSIVE
    assert verdict.inferred is InferredState.UNREACHABLE
    assert trace.timed_out and verdict.features.timed_out
    assert [(e.t_ms, e.direction, e.message.method) for e in trace] == [
        (0, Direction.EGRESS, SipMethod.INVITE),
        (10_000, Direction.EGRESS, SipMethod.CANCEL),
    ]
    assert net.now == 10_050


def test_verify_before_the_loop_runs_is_never_legit():
    # A's phone is dialing B, so a run would judge this callback Legit;
    # before the run only the INVITE is on the leg.
    net = _federation()
    net.lines[A].preset_state(Dialing(B))
    agent = launch_verification(net, ctx())
    verdict, trace = verify_incoming(agent)
    assert verdict.decision is Decision.INCONCLUSIVE
    assert verdict.inferred is InferredState.UNREACHABLE
    assert len(trace) == 1 and not trace.timed_out


def test_verify_connected_no_features_is_busy():
    net = _federation()
    net.register_subscriber("cn-a", "+15550102")
    net.lines[A].preset_state(Connected(PhoneNumber("+15550102")))
    verdict, trace = _verify(net, ctx())
    assert verdict.inferred is InferredState.BUSY_NO_WAITING
    assert verdict.decision is Decision.SPOOFED
    f = verdict.features
    assert f.saw_486 and f.final_to_invite == StatusCode(486)
    assert f.teardown is None  # a 486 final needs only the ACK


def test_verify_voicemail_forward_detected():
    net = _federation(voicemail_forward=True)
    net.register_subscriber("cn-a", "+15550102")
    net.lines[A].preset_state(Connected(PhoneNumber("+15550102")))
    verdict, trace = _verify(net, ctx())
    assert verdict.inferred is InferredState.FORWARDED_TO_VOICEMAIL
    assert verdict.features.saw_181
    assert verdict.features.teardown is SipMethod.BYE
    # the voicemail leg is answered and released cleanly
    kinds = [
        e.message.method.value if e.message.is_request else e.message.status.code
        for e in trace
    ]
    assert kinds == ["INVITE", 100, 181, 200, "ACK", "BYE", 200]


def test_launch_traces_are_transaction_legal():
    # Received response codes on the INVITE transaction follow
    # 100, optional 183, any 180s, then exactly one final
    # (200 | 486 | 487 | 181-then-200), across every callee condition.
    import re

    pattern = re.compile(r"^100(,183)?(,180)*(,(200|486|487)|,181,200)$")
    variants = []
    for kwargs, preset in (
        ({}, None),
        ({}, Dialing(B)),  # the call-back collision, answered with 200
        ({"call_waiting": True}, Connected(PhoneNumber("+15550102"))),
        ({"voicemail_forward": True}, Connected(PhoneNumber("+15550102"))),
        ({}, Connected(PhoneNumber("+15550102"))),
    ):
        net = _federation(**kwargs)
        net.register_subscriber("cn-a", "+15550102")
        if preset is not None:
            net.lines[A].preset_state(preset)
        variants.append(_verify(net, ctx())[1])
    for trace in variants:
        codes = [
            e.message.status.code
            for e in trace
            if e.direction is Direction.INGRESS
            and e.message.is_response
            and e.message.cseq[1] is SipMethod.INVITE
        ]
        assert pattern.match(",".join(map(str, codes))), codes


def test_collision_answer_lands_inside_capture_grace():
    assert call_fsm.COLLISION_ANSWER_MS < cive.CAPTURE_GRACE_MS


def _race(cw, d_ms):
    """A calls B at 1000 ms; the attacker calls B claiming A at 1000 + d_ms.

    B's first ring launches the verifier, as in ``run_scenario``. Returns
    whether the spoofed INVITE rang B first, and the verdict.
    """
    net = build_federation(_matrix_cell("idle", cw, False, "spoofed"))
    line_b = net.lines[B]
    rung = {}

    def on_ring(invite, t_ms):
        line_b.ring_hook = None
        rung["call_id"] = invite.call_id
        rung["agent"] = launch_verification(net, IncomingCallContext(
            claimed_id=invite.from_number, callee=B, in_call_id=invite.call_id,
            phase=CallPhase.RINGING, t_start=t_ms,
        ))

    line_b.ring_hook = on_ring
    net.originate_call(A, net.lines[A], B, at_ms=1000)
    spoof = net.originate_call(A, net.lines[_MATRIX_E], B, at_ms=1000 + d_ms)
    net.run_until_quiescent()
    verdict, _ = verify_incoming(rung["agent"])
    return rung["call_id"] == spoof, verdict


_RACE_WINDOW = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="known defect, ROADMAP item 1: a spoof ringing B while A is dialing B is judged Legit",
)


@pytest.mark.parametrize("cw", [False, True], ids=["cw0", "cw1"])
@pytest.mark.parametrize("d_ms, spoof_rings_first", [
    (-200, True),  # A is not dialing yet when B's callback reaches it
    pytest.param(-150, True, marks=_RACE_WINDOW),
    pytest.param(-100, True, marks=_RACE_WINDOW),
    pytest.param(-50, True, marks=_RACE_WINDOW),
    (-40, False),  # the genuine call rings B first and is the one verified
    (0, False),
])
def test_spoof_that_rings_b_first_is_never_legit(cw, d_ms, spoof_rings_first):
    spoof_rang_first, verdict = _race(cw, d_ms)
    assert spoof_rang_first is spoof_rings_first
    if spoof_rang_first:
        assert verdict.decision is not Decision.LEGIT, verdict
    else:
        assert verdict.decision is Decision.LEGIT, verdict


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(
    a_state=st.sampled_from([s for s in MATRIX_A_STATES if s != "dialing_b"]),
    cw=st.booleans(),
    vm=st.booleans(),
    links=st.tuples(st.integers(0, 300), st.integers(0, 2000),
                    st.integers(0, 300), st.integers(0, 2000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_spoofed_single_origination_is_never_legit(a_state, cw, vm, links, seed):
    cell = _matrix_cell(a_state, cw, vm, "spoofed")
    carriers = tuple(
        dataclasses.replace(c, link_delay_ms=delay, jitter_ms=jitter)
        for c, delay, jitter in zip(cell.carriers, links[::2], links[1::2])
    )
    report = run_scenario(dataclasses.replace(cell, carriers=carriers, seed=seed))
    assert report.verdict is not None
    assert report.verdict.decision is not Decision.LEGIT, (report.verdict, carriers)


def test_legs_from_trace_rows_round_trip(tmp_path, monkeypatch):
    net = _federation()
    verdict, trace = _verify(net, ctx())
    rows = [json.loads(line) for line in net.trace_jsonl().splitlines()]
    legs = legs_from_trace_rows(rows)
    au = [t for cid, obs, t in legs if obs == f"ep:{B}"]
    assert len(au) == 1
    rebuilt = extract_features(au[0])
    assert rebuilt == verdict.features

    # Every matrix cell, also under jitter, where replies can reach B after
    # its verifier is done: the leg B observed, rebuilt from the written
    # trace, is the live trace entry by entry, with the verdict's features.
    cells = matrix_scenarios()
    for cell in matrix_scenarios():
        for jitter, seed in itertools.product((500, 2000), range(3)):
            carriers = tuple(dataclasses.replace(c, jitter_ms=jitter) for c in cell.carriers)
            cells.append(dataclasses.replace(cell, carriers=carriers, seed=seed))
    live = []

    def capturing(agent):
        verdict, trace = verify_incoming(agent)
        live.append((verdict, trace))
        return verdict, trace

    monkeypatch.setattr(cive_sim.scenario, "verify_incoming", capturing)
    for cell in cells:
        live.clear()
        run_scenario(cell, tmp_path)
        [(verdict, trace)] = live
        text = (tmp_path / f"{cell.name}.trace.jsonl").read_text(encoding="utf-8")
        legs = legs_from_trace_rows([json.loads(line) for line in text.splitlines()])
        [rebuilt] = [t for _, obs, t in legs if obs == f"ep:{B}"]
        assert rebuilt.entries == trace.entries, cell.name
        assert extract_features(rebuilt) == verdict.features, cell.name


def _reference_legs(rows):
    """Rebuild legs the straightforward way: parse every row, then rescan
    all rows for each leg."""
    messages = [parse_message(row["sip"]) for row in rows]
    first_egress = {}
    for row, msg in zip(rows, messages):
        if row["dir"] == "egress":
            first_egress.setdefault(msg.call_id, (row, msg))
    legs = []
    for cid, (first, first_msg) in first_egress.items():
        observer = first["from_hop"]
        if first_msg.method is not SipMethod.INVITE or first_msg.is_response:
            continue
        if not observer.startswith("ep:"):
            continue
        trace = SignalingTrace()
        for row, msg in zip(rows, messages):
            if msg.call_id != cid:
                continue
            if row["dir"] == "egress" and row["from_hop"] == observer:
                trace.append(row["t_ms"], Direction.EGRESS, msg)
            elif row["dir"] == "ingress" and row["to_hop"] == observer:
                trace.append(row["t_ms"], Direction.INGRESS, msg)
        legs.append((cid, observer, trace))
    return legs


def test_legs_match_per_leg_reference_under_load():
    rows, call_ids = loaded_federation(seed=41, n_calls=200)
    legs = legs_from_trace_rows(rows)
    reference = _reference_legs(rows)
    assert [(cid, obs) for cid, obs, _ in legs] == [(cid, obs) for cid, obs, _ in reference]
    for (cid, _, trace), (_, _, expected) in zip(legs, reference):
        assert [(e.t_ms, e.direction) for e in trace] == [
            (e.t_ms, e.direction) for e in expected
        ], cid
        assert [e.message for e in trace] == [e.message for e in expected], cid
    # one leg per origination, observed at the originating endpoint
    assert sorted(cid for cid, _, _ in legs) == sorted(call_ids)
    assert all(obs.startswith("ep:") for _, obs, _ in legs)


def test_legs_from_trace_rows_leaves_rows_untouched():
    rows, _ = loaded_federation(seed=5, n_calls=20)
    before = copy.deepcopy(rows)
    legs_from_trace_rows(rows)
    assert rows == before


def test_legs_from_trace_rows_parses_each_wire_text_once(monkeypatch):
    rows, call_ids = loaded_federation(seed=9, n_calls=30)
    seen = []
    real = cive_sim.sip_core.parse_message

    def counting(text):
        seen.append(text)
        return real(text)

    monkeypatch.setattr(cive_sim.sip_core, "parse_message", counting)
    legs = legs_from_trace_rows(rows)
    assert len(legs) == len(call_ids)
    assert sorted(seen) == sorted({row["sip"] for row in rows})
    assert 2 * len(seen) == len(rows)  # each text sits on its egress and ingress rows


def test_legs_skip_calls_without_a_sent_invite():
    rows, _ = loaded_federation(seed=3, n_calls=3)
    cids = [parse_message(row["sip"]).call_id for row in rows]
    first, second, third = dict.fromkeys(cids)
    # ``first`` keeps only its ingress rows; ``second`` starts mid-dialog
    kept = [
        row
        for row, cid in zip(rows, cids)
        if not (cid == first and row["dir"] == "egress")
        and not (cid == second and parse_message(row["sip"]).method is SipMethod.INVITE)
    ]
    assert [cid for cid, _, _ in legs_from_trace_rows(kept)] == [third]


def test_legs_name_the_offending_row():
    rows, _ = loaded_federation(seed=3, n_calls=2)
    bad = copy.deepcopy(rows)
    bad[4]["sip"] = "HELLO there\n\n"
    with pytest.raises(MalformedTraceRow) as info:
        legs_from_trace_rows(bad)
    assert info.value.index == 4 and "MalformedStartLine" in info.value.reason
    # the originator's first received response moved before its INVITE left
    invite_t = rows[0]["t_ms"]
    late = next(
        i for i, row in enumerate(rows)
        if row["dir"] == "ingress" and row["to_hop"] == rows[0]["from_hop"]
    )
    swapped = [rows[late], *rows[:late], *rows[late + 1 :]]
    swapped[0] = dict(swapped[0], t_ms=invite_t)
    with pytest.raises(MalformedTraceRow) as info:
        legs_from_trace_rows(swapped)
    assert info.value.index == 0 and "starts with the sent INVITE" in info.value.reason
