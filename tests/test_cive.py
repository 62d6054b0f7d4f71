import copy
import dataclasses
import functools
import gc
import itertools
import json
import random
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SCENARIOS,
    Entry,
    agent_leg,
    folded,
    loaded_federation,
    reference_legs,
    row_tuples,
)

import cive_sim.scenario
import cive_sim.sip_core
from cive_sim import call_fsm, cive
from cive_sim.call_fsm import IDLE, CalleeProfile, Connected, Dialing, Held
from cive_sim.cive import (
    CiveError,
    Decision,
    EmptyTrace,
    FeatureVector,
    InferredState,
    LineBusy,
    MalformedTraceRow,
    Verdict,
    decide,
    extract_features,
    infer_state,
    launch_verification,
    legs_from_trace_rows,
    verify_incoming,
)
from cive_sim.netsim import EGRESS, INGRESS, Federation, GatewayPolicy, read_trace
from cive_sim.scenario import (
    _MATRIX_A,
    _MATRIX_B,
    _MATRIX_C,
    _MATRIX_E,
    MATRIX_A_STATES,
    GroundTruth,
    OriginationSpec,
    PartySpec,
    Scenario,
    _matrix_cell,
    build_federation,
    exit_code_for,
    load_scenario,
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


def ringing(claimed=A):
    """An INVITE ringing at B that claims to come from ``claimed``."""
    return SipMessage.request(SipMethod.INVITE, claimed, B, "in-1")


def trace_of(*steps):
    return [Entry(50 * i, direction, msg) for i, (direction, msg) in enumerate(steps)]


def sent(msg):
    return (EGRESS, msg)


def recv(msg):
    return (INGRESS, msg)


def reply(code, *, pem=None, alert=None, to=INVITE):
    return SipMessage.reply(to, code, pem=pem, alert=alert)


def req(method, seq):
    return SipMessage(
        method=method, from_number=B, to_number=A, call_id="au-1", seq=seq
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


def test_extract_features_prefers_bye_to_a_crossed_cancel():
    # The far end's 200 crossed B's CANCEL in flight, so B sent both; the
    # BYE is what ended the answered leg.
    cancel, bye = req(SipMethod.CANCEL, 1), req(SipMethod.BYE, 2)
    trace = trace_of(
        sent(INVITE),
        recv(reply(180, pem=PemValue.SENDONLY)),
        sent(cancel),
        recv(reply(200)),
        sent(req(SipMethod.ACK, 1)),
        sent(bye),
        recv(reply(481, to=cancel)),
        recv(reply(200, to=bye)),
    )
    assert extract_features(trace).teardown is SipMethod.BYE


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


def test_extract_features_reads_only_the_responses_the_observer_receives():
    # Responses B itself sends in the leg (a 180 sendonly, a 486, a 200 on
    # the INVITE's CSeq) say nothing of the far end's state.
    cancel = req(SipMethod.CANCEL, 1)
    trace = trace_of(
        sent(INVITE),
        sent(reply(180, pem=PemValue.SENDONLY)),
        recv(reply(180, pem=PemValue.SENDRECV)),
        sent(reply(486)),
        sent(reply(200)),
        sent(cancel),
    )
    f = extract_features(trace)
    assert f == FeatureVector(pem_180=PemValue.SENDRECV, teardown=SipMethod.CANCEL)
    assert infer_state(f) is InferredState.IDLE


def test_extract_features_degenerate_and_empty():
    assert extract_features(trace_of(sent(INVITE))) == FeatureVector()
    # A CANCEL exactly AU_CALL_TIMEOUT_MS after the INVITE is the verifier's
    # timeout; one a millisecond off either way is not.
    cancel = req(SipMethod.CANCEL, 1)
    for delta, timed_out in ((0, True), (-1, False), (1, False)):
        leg = [Entry(7, EGRESS, INVITE),
               Entry(7 + cive.AU_CALL_TIMEOUT_MS + delta, EGRESS, cancel)]
        assert extract_features(leg) == FeatureVector(
            teardown=SipMethod.CANCEL, timed_out=timed_out), delta
    # A received CANCEL at that instant is not one B sent.
    leg[1] = Entry(7 + cive.AU_CALL_TIMEOUT_MS, INGRESS, cancel)
    assert not extract_features(leg).timed_out
    with pytest.raises(EmptyTrace):
        extract_features([])


@pytest.mark.parametrize(
    "late, final",
    [(reply(180, pem=PemValue.SENDONLY), 487), (reply(486), 486), (reply(181), 487)],
    ids=["180-sendonly", "486", "181"],
)
def test_signal_after_the_timeout_cancel_is_not_read(late, final):
    # A signal that reaches B after its verifier gave up tells where the far
    # end was later, not while B rang: the leg falls to rule 6. The INVITE's
    # final is still recorded, as the verifier still ACKs it.
    timeout = cive.AU_CALL_TIMEOUT_MS
    cancel = req(SipMethod.CANCEL, 1)
    for arrives in (timeout + 50, timeout - 1):
        leg = sorted([
            Entry(0, EGRESS, INVITE),
            Entry(timeout, EGRESS, cancel),
            Entry(arrives, INGRESS, late),
            Entry(timeout + 100, INGRESS, reply(200, to=cancel)),
        ], key=lambda e: e.t_ms)
        if final == 487:
            leg.append(Entry(timeout + 100, INGRESS, reply(487)))
        leg.append(Entry(timeout + 100, EGRESS, req(SipMethod.ACK, 1)))
        f = extract_features(leg)
        assert f.timed_out and f.final_to_invite == StatusCode(final)
        if arrives > timeout:
            assert f == FeatureVector(final_to_invite=StatusCode(final),
                                      teardown=SipMethod.CANCEL, timed_out=True)
            verdict = decide(B, infer_state(f), f)
            assert verdict.inferred is InferredState.UNREACHABLE
            assert verdict.decision is Decision.INCONCLUSIVE
        else:  # read while the verifier still waited
            assert infer_state(f) is not InferredState.UNREACHABLE


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
    leg = trace_of(sent(INVITE))
    assert extract_features(leg) == extract_features(leg)


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
    verdict = decide(B, inferred, features)
    assert verdict.decision is expected
    assert verdict.inferred is inferred
    assert verdict.expected == f"dialing toward {B}"
    assert verdict.reason.startswith("rule ")


def test_each_state_comes_from_one_rule_and_decide_names_it():
    # decide reads the reason off the state alone, whatever the features.
    states = [state for _, state, _, _ in cive._RULES]
    assert len(set(states)) == len(states) == len(InferredState)
    for number, state in enumerate(states, 1):
        reason = decide(B, state, FeatureVector()).reason
        assert reason.startswith(f"rule {number}: "), (state, reason)


def test_verdict_invariants():
    # A verdict stores no decision or reason of its own, so none can be
    # paired with a state its rule does not give.
    assert [f.name for f in dataclasses.fields(Verdict)] == ["inferred", "expected", "features"]
    with pytest.raises(TypeError):
        Verdict(Decision.LEGIT, InferredState.IDLE, "x", "r", FeatureVector())
    for _, state, decision, reason in cive._RULES:
        verdict = Verdict(state, "x", FeatureVector())
        assert (verdict.decision, verdict.reason) == (decision, reason)
        with pytest.raises(dataclasses.FrozenInstanceError):
            verdict.inferred = InferredState.DIALING
        with pytest.raises(AttributeError):
            verdict.decision = Decision.LEGIT


def _rules_with(state, decision):
    """``_RULES`` with ``state``'s rule giving ``decision`` instead."""
    return tuple(
        (matches, s, decision if s is state else d, reason)
        for matches, s, d, reason in cive._RULES
    )


@pytest.mark.parametrize("inferred, decision", [
    (InferredState.DIALING, Decision.SPOOFED),
    (InferredState.UNKNOWN, Decision.SPOOFED),
    (InferredState.UNREACHABLE, Decision.SPOOFED),
    (InferredState.IDLE, Decision.LEGIT),
    (InferredState.CONNECTED, Decision.LEGIT),
])
def test_verdict_table_check_refuses_a_pairing_a_verdict_refuses(inferred, decision):
    # Every verdict reads its decision off _RULES, so the table is checked
    # at import, rule by rule.
    cive._check_rules(cive._RULES)
    with pytest.raises(CiveError, match=f"{inferred.value} may never be Spoofed"
                       if decision is Decision.SPOOFED else "only Dialing may be Legit"):
        cive._check_rules(_rules_with(inferred, decision))


def test_rule_check_refuses_a_state_from_no_rule_or_two():
    rules = cive._RULES
    duplicated = (*rules[:3], rules[2], *rules[3:])
    replaced = tuple(
        (m, InferredState.IDLE if s is InferredState.CONNECTED else s, d, r)
        for m, s, d, r in rules
    )
    # Dialing may be Inconclusive, as a demoted Dialing would be
    cive._check_rules(_rules_with(InferredState.DIALING, Decision.INCONCLUSIVE))
    for table in (duplicated, replaced, rules[:-1]):
        with pytest.raises(CiveError, match="^each inferred state must come from exactly one rule$"):
            cive._check_rules(table)


def test_decide_gives_each_rules_decision_and_reason():
    features = FeatureVector(pem_180=PemValue.SENDRECV, saw_486=True, teardown=SipMethod.CANCEL)
    expected = dict(DECISION_TABLE)
    for number, (_, state, decision, reason) in enumerate(cive._RULES, 1):
        verdict = decide(B, state, features)
        assert type(verdict) is Verdict
        assert verdict.decision is decision is expected[state], state
        assert verdict.reason == reason and reason.startswith(f"rule {number}: ")
        assert vars(verdict) == {"inferred": state, "expected": f"dialing toward {B}",
                                 "features": features}
        built = Verdict(state, f"dialing toward {B}", features)
        assert verdict == built and hash(verdict) == hash(built)


def test_live_features_equal_those_parsed_from_the_written_trace(monkeypatch, tmp_path):
    # c1-c3, c5 and every matrix cell (c4's spoof is stopped at its carrier's
    # edge, so nothing is verified): the verdict's features are those that
    # parse derives for the verifier's leg from the trace file the run wrote.
    agents = []

    def capturing(agent):
        agents.append(agent)
        return verify_incoming(agent)

    monkeypatch.setattr(cive_sim.scenario, "verify_incoming", capturing)
    cells = [load_scenario(SCENARIOS / f"c{n}.scn") for n in (1, 2, 3, 5)] + matrix_scenarios()
    for cell in cells:
        agents.clear()
        report = run_scenario(cell, tmp_path)
        [agent] = agents
        legs = legs_from_trace_rows(read_trace(str(tmp_path / report.trace_file)))
        parsed = {cid: features for cid, _, _, features in legs}
        assert parsed[agent.leg.invite.call_id] == report.verdict.features, cell.name


def test_feature_vector_teardown_is_bye_or_cancel():
    for method in (SipMethod.BYE, SipMethod.CANCEL, None):
        assert FeatureVector(teardown=method).teardown is method
    with pytest.raises(ValueError, match="^teardown must be BYE or CANCEL when present$"):
        FeatureVector(teardown=SipMethod.ACK)


def _verify(net, in_call):
    """Launch a verification, run the federation to quiescence, and return
    the verdict with the agent whose leg it judged."""
    agent = launch_verification(net, in_call)
    net.run()
    return verify_incoming(agent), agent


def _federation(**profile_kwargs):
    net = Federation()
    net.add_carrier("cn-a")
    net.register_subscriber("cn-a", A, CalleeProfile(A, **profile_kwargs))
    net.register_subscriber("cn-a", B)
    return net


def test_launch_line_busy_while_in_flight():
    net = _federation()

    class Stuck:
        done = False

    stuck = Stuck()
    net.lines[B].verifier = stuck
    with pytest.raises(LineBusy):
        launch_verification(net, ringing())
    # Once it is done, a new verifier replaces it on the line and is routed
    # as B's endpoint.
    stuck.done = True
    verdict, _ = _verify(net, ringing())
    assert net.lines[B].verifier is not stuck
    assert verdict.decision is Decision.SPOOFED and verdict.inferred is InferredState.IDLE
    assert not verdict.features.timed_out


def test_launch_for_an_unregistered_callee_raises_and_leaves_no_trace():
    net = _federation()
    unknown = PhoneNumber("+19990001111")
    with pytest.raises(CiveError, match="is not registered") as raised:
        launch_verification(net, SipMessage.request(SipMethod.INVITE, A, unknown, "in-1"))
    assert type(raised.value) is CiveError
    assert net.trace == []
    assert all(line.verifier is None for line in net.lines.values())


def test_launch_sends_the_invite_and_leaves_the_loop_to_the_caller():
    net = _federation()
    agent = launch_verification(net, ringing())
    assert net.now == 0 and not agent.done
    assert [(r["dir"], r["from_hop"]) for r in net.trace] == [("egress", f"ep:{B}")]
    # A launch no longer blocks, so a second one before the loop runs finds
    # the first still in flight.
    with pytest.raises(LineBusy):
        launch_verification(net, ringing())
    net.run()
    verdict = verify_incoming(agent)
    assert agent.done
    assert verdict.decision is Decision.SPOOFED and verdict.inferred is InferredState.IDLE


def test_two_verifications_in_turn_on_one_callee_line():
    # B's line runs two verifiers in turn, on a carrier other than A's; the
    # second agent must be routed like the first.
    net = Federation()
    net.add_carrier("cn-a")
    net.add_carrier("cn-b", GatewayPolicy(link_delay_ms=30))
    line_a = net.register_subscriber("cn-a", A)
    net.register_subscriber("cn-b", B)
    first, first_agent = _verify(net, ringing())
    rows_before = len(net.trace)
    line_a.preset_state(Dialing(B))
    second, second_agent = _verify(net, ringing())
    assert net.lines[B].verifier is not first_agent
    assert first.decision is Decision.SPOOFED and first.inferred is InferredState.IDLE
    assert second.decision is Decision.LEGIT
    assert not first.features.timed_out and not second.features.timed_out
    sent_by_b = [
        row for row in net.trace[rows_before:]
        if row["dir"] == "egress" and row["from_hop"] == f"ep:{B}"
    ]
    assert sent_by_b and all(row["carrier"] == "cn-b" for row in sent_by_b)
    # one 30 ms + 50 ms interconnect crossing each way
    leg = agent_leg(second_agent)
    assert leg[1].t_ms - leg[0].t_ms == 160


def test_verify_idle_target_infers_idle():
    net = _federation()
    verdict, agent = _verify(net, ringing())
    assert verdict.decision is Decision.SPOOFED
    assert verdict.inferred is InferredState.IDLE
    assert agent_leg(agent)[0].message.method is SipMethod.INVITE
    assert not verdict.features.timed_out


def test_verify_unroutable_claimed_is_inconclusive():
    net = Federation()
    net.add_carrier("cn-a")
    net.register_subscriber("cn-a", B)
    unknown = PhoneNumber("+19990001111")
    verdict, agent = _verify(net, ringing(unknown))
    kinds = [
        e.message.method.value if e.message.status is None else e.message.status.code
        for e in agent_leg(agent)
    ]
    assert kinds == ["INVITE", 480, "ACK"]
    assert not verdict.features.timed_out
    assert verdict.inferred is InferredState.UNREACHABLE
    assert verdict.decision is Decision.INCONCLUSIVE


def test_verify_times_out_when_the_queue_drains_before_the_leg_ends():
    net = _federation()
    net.lines[A].handle_message = lambda msg: None  # A answers nothing
    verdict, agent = _verify(net, ringing())
    assert verdict.decision is Decision.INCONCLUSIVE
    assert verdict.inferred is InferredState.UNREACHABLE
    assert verdict.features.timed_out
    assert [(e.t_ms, e.direction, e.message.method) for e in agent_leg(agent)] == [
        (0, EGRESS, SipMethod.INVITE),
        (10_000, EGRESS, SipMethod.CANCEL),
    ]
    assert net.now == 10_050


def test_c5_callback_timed_out_is_inconclusive(tmp_path):
    # B's callback CANCELs at its 10 s timeout (16,482 ms), before A's 180
    # sendrecv arrives (18,482 ms). That 180 is not read, so rule 6 judges
    # the call, in the run and in the leg rebuilt from its trace.
    report = run_scenario(load_scenario(SCENARIOS / "c5.scn"), tmp_path)
    verdict = report.verdict
    assert verdict.decision is Decision.INCONCLUSIVE
    assert verdict.inferred is InferredState.UNREACHABLE
    assert verdict.reason.startswith("rule 6:")
    assert verdict.features == FeatureVector(
        final_to_invite=StatusCode(487), teardown=SipMethod.CANCEL, timed_out=True)
    assert exit_code_for([report]) == 2
    text = (tmp_path / "c5.trace.jsonl").read_text(encoding="utf-8")
    legs = legs_from_trace_rows(row_tuples(json.loads(line) for line in text.splitlines()))
    assert [(obs, f) for _, obs, _, f in legs if obs == f"ep:{B}"] == [
        (f"ep:{B}", verdict.features)]


def test_timeout_after_the_grace_cancel_sends_no_second_cancel(tmp_path):
    # With 3,000 ms links on A's carrier, B's verifier cancels when the
    # capture grace ends (9,250 ms); its 10 s timeout fires (13,050 ms)
    # before that CANCEL is answered, and must not send another. The leg's
    # one CANCEL is the grace's, so it does not read as timed out.
    s = load_scenario(SCENARIOS / "c2.scn")
    carriers = {
        cid: dataclasses.replace(c, link_delay_ms=3000) if cid == "cn-a" else c
        for cid, c in s.carriers.items()
    }
    report = run_scenario(dataclasses.replace(s, carriers=carriers), tmp_path)
    text = (tmp_path / "c2.trace.jsonl").read_text(encoding="utf-8")
    rows = [json.loads(line) for line in text.splitlines()]
    cancels = [
        row for row in rows
        if row["dir"] == "egress" and row["from_hop"] == f"ep:{B}"
        and row["sip"].startswith("CANCEL ")
    ]
    assert len(cancels) == 1
    assert not report.verdict.features.timed_out and report.sim_ms == 29150
    assert report.verdict.inferred is InferredState.IDLE


def test_live_verifier_keeps_no_received_message(monkeypatch):
    # The verifier steps its fold with each message it receives and keeps
    # none: once c2 has run, with the federation and the agent still held,
    # no message handed to the agent is alive.
    s = load_scenario(SCENARIOS / "c2.scn")
    net = build_federation(s)
    target = net.lines[s.origination.target]
    received = []
    handle_message = cive._VerifierAgent.handle_message

    def watched(agent, msg):
        received.append(weakref.ref(msg))
        handle_message(agent, msg)

    def on_ring(invite):
        target.ring_hook = None
        launch_verification(net, invite)

    monkeypatch.setattr(cive._VerifierAgent, "handle_message", watched)
    target.ring_hook = on_ring
    net.originate_call(s.origination.claimed, net.lines[s.origination.originator],
                       s.origination.target, at_ms=s.origination.at_ms)
    net.run()
    agent = target.verifier
    gc.collect()
    assert agent.done and len(received) == 5
    assert [ref() for ref in received if ref() is not None] == []
    assert verify_incoming(agent).inferred is InferredState.IDLE


def test_verify_before_the_loop_runs_is_never_legit():
    # A's phone is dialing B, so a run would judge this callback Legit;
    # before the run only the INVITE is on the leg.
    net = _federation()
    net.lines[A].preset_state(Dialing(B))
    agent = launch_verification(net, ringing())
    verdict = verify_incoming(agent)
    assert verdict.decision is Decision.INCONCLUSIVE
    assert verdict.inferred is InferredState.UNREACHABLE
    assert len(agent_leg(agent)) == agent.fold.messages == 1
    assert not verdict.features.timed_out


def test_verify_connected_no_features_is_busy():
    net = _federation()
    net.register_subscriber("cn-a", "+15550102")
    net.lines[A].preset_state(Connected(PhoneNumber("+15550102")))
    verdict, _ = _verify(net, ringing())
    assert verdict.inferred is InferredState.BUSY_NO_WAITING
    assert verdict.decision is Decision.SPOOFED
    f = verdict.features
    assert f.saw_486 and f.final_to_invite == StatusCode(486)
    assert f.teardown is None  # a 486 final needs only the ACK


def test_verify_voicemail_forward_detected():
    net = _federation(voicemail_forward=True)
    net.register_subscriber("cn-a", "+15550102")
    net.lines[A].preset_state(Connected(PhoneNumber("+15550102")))
    verdict, agent = _verify(net, ringing())
    assert verdict.inferred is InferredState.FORWARDED_TO_VOICEMAIL
    assert verdict.features.saw_181
    assert verdict.features.teardown is SipMethod.BYE
    # the voicemail leg is answered and released cleanly
    kinds = [
        e.message.method.value if e.message.status is None else e.message.status.code
        for e in agent_leg(agent)
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
        variants.append(agent_leg(_verify(net, ringing())[1]))
    for leg in variants:
        codes = [
            e.message.status.code
            for e in leg
            if e.direction == INGRESS
            and e.message.status is not None
            and e.message.method is SipMethod.INVITE
        ]
        assert pattern.match(",".join(map(str, codes))), codes


def test_capture_grace_runs_from_the_first_180_with_early_media():
    # With jitter the 183 and the 180 reach B at different instants; the
    # grace CANCEL must be timed from the 180, whichever arrives first.
    for seed in range(4):
        net = Federation(seed=seed)
        net.add_carrier("cn-a", GatewayPolicy(jitter_ms=100))
        net.register_subscriber("cn-a", A)
        net.register_subscriber("cn-a", B)
        _, agent = _verify(net, ringing())
        leg = agent_leg(agent)
        received = {
            e.message.status.code: e.t_ms
            for e in reversed(leg)
            if e.direction == INGRESS and e.message.status is not None
        }
        (cancel,) = [e.t_ms for e in leg if e.message.method is SipMethod.CANCEL
                     and e.direction == EGRESS]
        assert received[183] != received[180], seed
        assert cancel == received[180] + cive.CAPTURE_GRACE_MS, seed


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

    def on_ring(invite):
        line_b.ring_hook = None
        rung["call_id"] = invite.call_id
        rung["agent"] = launch_verification(net, invite)

    line_b.ring_hook = on_ring
    net.originate_call(A, net.lines[A], B, at_ms=1000)
    spoof = net.originate_call(A, net.lines[_MATRIX_E], B, at_ms=1000 + d_ms)
    net.run()
    verdict = verify_incoming(rung["agent"])
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
    carriers = {
        cid: dataclasses.replace(c, link_delay_ms=delay, jitter_ms=jitter)
        for (cid, c), delay, jitter in zip(cell.carriers.items(), links[::2], links[1::2])
    }
    report = run_scenario(dataclasses.replace(cell, carriers=carriers, seed=seed))
    assert report.verdict is not None
    assert report.verdict.decision is not Decision.LEGIT, (report.verdict, carriers)


_SEARCH_PARTIES = (_MATRIX_A, _MATRIX_B, _MATRIX_C, _MATRIX_E)
_SEARCH_PRESETS = {"idle": lambda peer: IDLE, "connected": Connected, "held": Held}


def _search_scenario(parties, carriers, originator, at_ms, seed):
    """A scenario file's worth of moves: each of A, B, C and E with a preset
    (its peer one of the other three), call waiting, voicemail and one of
    three carriers; A's number claimed on a call to B from A, C or E."""
    specs = tuple(
        PartySpec(f"cn-{carrier}", CalleeProfile(number, cw, vm),
                  _SEARCH_PRESETS[state]([n for n in _SEARCH_PARTIES if n != number][peer]))
        for number, (state, peer, cw, vm, carrier) in zip(_SEARCH_PARTIES, parties)
    )
    return Scenario(
        name="search",
        carriers={f"cn-{i}": GatewayPolicy(*policy) for i, policy in enumerate(carriers)},
        parties=specs,
        origination=OriginationSpec(originator, _MATRIX_A, _MATRIX_B, at_ms),
        seed=seed,
    )


_party_moves = st.tuples(st.sampled_from(sorted(_SEARCH_PRESETS)), st.integers(0, 2),
                         st.booleans(), st.booleans(), st.integers(0, 2))
_carrier_moves = st.tuples(st.booleans(), st.integers(0, 3000), st.integers(0, 2000))


def _assert_fold_is_the_traced_leg(agent, where=None):
    """The verifier's fold, as its message count, the t_ms of its last
    message and its features, equals what the leg builder and the reference
    fold give for its leg in the federation's rows."""
    rows = agent.net.trace
    cid = agent.leg.invite.call_id
    reference = reference_legs(rows)
    last_t_ms = {c: leg[-1].t_ms for c, _, leg in reference}[cid]
    fold = agent.fold
    live = (fold.messages, fold.t_ms, fold.features())
    for legs in (legs_from_trace_rows(row_tuples(rows)), folded(reference)):
        assert {c: (n, last_t_ms, f) for c, _, n, f in legs}[cid] == live, where


# Delays stop at 3,000 ms: with up to 9,000 ms, about one run in eight
# outlasts the 60,000 sim-ms budget and raises SimBudgetExceeded.
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(
    parties=st.tuples(*[_party_moves] * 4),
    carriers=st.tuples(*[_carrier_moves] * 3),
    originator=st.sampled_from((_MATRIX_A, _MATRIX_C, _MATRIX_E)),
    at_ms=st.integers(0, 5000),
    seed=st.integers(0, 2**32 - 1),
)
def test_scenario_moves_never_flip_a_verdict(parties, carriers, originator, at_ms, seed):
    s = _search_scenario(parties, carriers, originator, at_ms, seed)
    agents = []

    def capturing(agent):
        agents.append(agent)
        return verify_incoming(agent)

    with mock.patch.object(cive_sim.scenario, "verify_incoming", capturing):
        report = run_scenario(s)
    if report.verdict is None:  # B never rang: an enforcing edge, or B busy
        return
    if s.ground_truth is GroundTruth.SPOOFED:
        assert report.verdict.decision is not Decision.LEGIT, report.verdict
    else:
        assert report.verdict.decision is not Decision.SPOOFED, report.verdict
    # The live fold is the fold of the leg the federation's rows hold.
    [agent] = agents
    _assert_fold_is_the_traced_leg(agent)
    assert agent.fold.features() == report.verdict.features


def test_invite_responses_after_the_final_are_recorded_not_acted_on(monkeypatch):
    # With 200 ms of jitter at seed 3, A's 200 to the callback overtakes its
    # 183 and 180: the verifier records both, but sends no PRACK.
    cell = _matrix_cell("dialing_b", False, False, "genuine")
    carriers = {cid: dataclasses.replace(c, jitter_ms=200) for cid, c in cell.carriers.items()}
    agents = []

    def capturing(agent):
        agents.append(agent)
        return verify_incoming(agent)

    monkeypatch.setattr(cive_sim.scenario, "verify_incoming", capturing)
    report = run_scenario(dataclasses.replace(cell, carriers=carriers, seed=3))
    [agent] = agents
    leg = agent_leg(agent)
    final = next(
        i for i, e in enumerate(leg)
        if e.direction == INGRESS and e.message.method is SipMethod.INVITE
        and e.message.status is not None and e.message.status.code >= 200
    )
    after = [
        (e.direction, e.message.method, e.message.status and e.message.status.code)
        for e in leg[final + 1:]
    ]
    assert (INGRESS, SipMethod.INVITE, 183) in after
    assert (EGRESS, SipMethod.PRACK, None) not in after
    assert report.verdict.decision is Decision.LEGIT


def test_legs_from_trace_rows_round_trip(monkeypatch):
    net = _federation()
    verdict, _ = _verify(net, ringing())
    rows = [json.loads(line) for line in net.trace_jsonl().splitlines()]
    legs = legs_from_trace_rows(row_tuples(rows))
    assert [features for _, obs, _, features in legs if obs == f"ep:{B}"] == [verdict.features]

    # c1-c3 and every matrix cell, also under jitter and on slow links,
    # where replies can reach B after its verifier is done: the live fold
    # holds the message count, last t_ms and features, timed_out included,
    # of the leg the federation's rows hold.
    cells = [load_scenario(SCENARIOS / f"c{n}.scn") for n in (1, 2, 3)] + matrix_scenarios()
    links = ((None, 0), (None, 500), (None, 2000), (3000, 0), (3000, 2000), (5000, 2500))
    agents = []

    def capturing(agent):
        agents.append(agent)
        return verify_incoming(agent)

    monkeypatch.setattr(cive_sim.scenario, "verify_incoming", capturing)
    timed_out = 0
    for cell, (delay, jitter) in itertools.product(cells, links):
        carriers = {
            cid: dataclasses.replace(c, link_delay_ms=delay or c.link_delay_ms, jitter_ms=jitter)
            for cid, c in cell.carriers.items()
        }
        for seed in range(3) if jitter else (cell.seed,):
            agents.clear()
            run_scenario(dataclasses.replace(cell, carriers=carriers, seed=seed))
            [agent] = agents
            _assert_fold_is_the_traced_leg(agent, (cell.name, delay, jitter, seed))
            timed_out += agent.fold.timed_out
    assert timed_out > 0  # the slow links do reach the auCall timeout


def test_legs_match_per_leg_reference_under_load():
    rows, call_ids = loaded_federation(seed=41, n_calls=200)
    legs = legs_from_trace_rows(row_tuples(rows))
    assert legs == folded(reference_legs(rows))
    # one leg per origination, observed at the originating endpoint
    assert sorted(cid for cid, _, _, _ in legs) == sorted(call_ids)
    assert all(obs.startswith("ep:") for _, obs, _, _ in legs)


def test_legs_from_trace_rows_leaves_rows_untouched():
    rows = row_tuples(loaded_federation(seed=5, n_calls=20)[0])
    before = list(rows)
    legs = legs_from_trace_rows(rows)
    assert rows == before
    # any iterable of rows will do: read once from an iterator, the legs are the same
    assert legs_from_trace_rows(iter(rows)) == legs


def test_legs_from_trace_rows_parses_each_wire_text_once(monkeypatch):
    rows, call_ids = loaded_federation(seed=9, n_calls=30)
    seen = []
    real = cive_sim.sip_core.parse_message

    def counting(text):
        seen.append(text)
        return real(text)

    monkeypatch.setattr(cive_sim.sip_core, "parse_message", counting)
    legs = legs_from_trace_rows(row_tuples(rows))
    assert len(legs) == len(call_ids)
    assert sorted(seen) == sorted({row["sip"] for row in rows})
    assert 2 * len(seen) == len(rows)  # each text sits on its egress and ingress rows


def test_legs_from_trace_rows_parses_a_third_copy_of_a_text_again(monkeypatch):
    # A parsed text leaves the cache when its twin row takes it, so a third
    # row with the same text is parsed again. Here the third copy repeats
    # the first INVITE's ingress row at its callee, which that call's leg
    # does not observe, so the legs are those of the rows without it.
    rows = row_tuples(loaded_federation(seed=9, n_calls=3)[0])
    text = rows[0][5]
    twin = next(row for row in rows[1:] if row[5] == text)
    assert twin[4] == INGRESS and twin[3] != rows[0][2]
    expected = legs_from_trace_rows(rows)
    seen = []
    real = cive_sim.sip_core.parse_message

    def counting(text):
        seen.append(text)
        return real(text)

    monkeypatch.setattr(cive_sim.sip_core, "parse_message", counting)
    assert legs_from_trace_rows([*rows, (len(rows) + 1, *twin[1:])]) == expected
    assert seen.count(text) == 2
    assert len(seen) == len({row[5] for row in rows}) + 1


def test_legs_from_trace_rows_keeps_no_message_past_its_twin_row(monkeypatch):
    # Each leg is folded as its rows are read. Whenever the builder asks for
    # the next row, the messages alive are those whose text was read an odd
    # number of times, each waiting in the cache for its twin row, and at
    # most the message of the row just read; once it returns, none is.
    rows = row_tuples(loaded_federation(seed=9, n_calls=60)[0])
    alive = weakref.WeakValueDictionary()  # parse number -> message
    texts = []  # parse number -> its text
    real = cive_sim.sip_core.parse_message

    def tracked(text):
        msg = alive[len(texts)] = real(text)
        texts.append(text)
        return msg

    def watched(rows):
        odd = set()  # texts read an odd number of times
        for row in rows:
            yield row
            odd ^= {row[5]}
            held = {texts[i] for i in list(alive.keys())}
            assert odd <= held <= odd | {row[5]}, row[0]

    monkeypatch.setattr(cive_sim.sip_core, "parse_message", tracked)
    legs = legs_from_trace_rows(watched(rows))
    assert len(legs) == 60
    assert len(texts) == len(rows) // 2 and not list(alive.keys())


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
    assert [cid for cid, _, _, _ in legs_from_trace_rows(row_tuples(kept))] == [third]


def test_legs_name_the_offending_row():
    rows, _ = loaded_federation(seed=3, n_calls=2)
    bad = copy.deepcopy(rows)
    bad[4]["sip"] = "HELLO there\n\n"
    with pytest.raises(MalformedTraceRow) as info:
        legs_from_trace_rows(row_tuples(bad))
    assert info.value.line == 5 and "MalformedStartLine" in info.value.reason
    # a direction that is neither EGRESS nor INGRESS, rather than a skipped row
    upper = copy.deepcopy(rows)
    upper[5]["dir"] = "EGRESS"
    with pytest.raises(MalformedTraceRow) as info:
        legs_from_trace_rows(row_tuples(upper))
    assert info.value.line == 6 and "dir 'EGRESS' is not one of" in info.value.reason
    # the originator's first received response moved before its INVITE left
    invite_t = rows[0]["t_ms"]
    late = next(
        i for i, row in enumerate(rows)
        if row["dir"] == "ingress" and row["to_hop"] == rows[0]["from_hop"]
    )
    swapped = [rows[late], *rows[:late], *rows[late + 1 :]]
    swapped[0] = dict(swapped[0], t_ms=invite_t)
    with pytest.raises(MalformedTraceRow) as info:
        legs_from_trace_rows(row_tuples(swapped))
    assert info.value.line == 1 and "starts with the sent INVITE" in info.value.reason
    # the same response left in place but stamped before its INVITE left
    early = copy.deepcopy(rows)
    early[late]["t_ms"] = invite_t - 1
    with pytest.raises(MalformedTraceRow) as info:
        legs_from_trace_rows(row_tuples(early))
    cid = parse_message(rows[0]["sip"]).call_id
    assert info.value.line == late + 1
    assert info.value.reason == f"call {cid}: trace timestamps must be non-decreasing"


def _two_phase_legs(rows):
    """The leg builder as it was before it read the rows in one pass: group
    every row by Call-ID, then rescan each call's rows for its leg,
    raising an ordering error as soon as it is found, then reading each
    leg's features off its entries. The reference for
    ``test_one_pass_legs_equal_the_two_phase_builder``."""
    directions = (EGRESS, INGRESS)
    parsed = {}
    by_call = {}
    first_egress = {}
    for line, row in enumerate(rows, 1):
        direction = row["dir"]
        if direction not in directions:
            raise MalformedTraceRow(line, f"dir {direction!r} is not one of {sorted(directions)}")
        text = row["sip"]
        msg = parsed.get(text)
        if msg is None:
            try:
                msg = parsed[text] = parse_message(text)
            except cive_sim.sip_core.ParseError as exc:
                raise MalformedTraceRow(line, f"{type(exc).__name__}: {exc}") from exc
        cid = msg.call_id
        by_call.setdefault(cid, []).append((line, row, direction, msg))
        if cid not in first_egress and direction == EGRESS:
            first_egress[cid] = (row, msg)
    legs = []
    for cid, (first, first_msg) in first_egress.items():
        if not (first_msg.status is None and first_msg.method is SipMethod.INVITE):
            continue
        observer = first["from_hop"]
        if not observer.startswith("ep:"):
            continue
        leg = []
        for line, row, direction, msg in by_call[cid]:
            if row["from_hop" if direction == EGRESS else "to_hop"] != observer:
                continue
            t_ms = row["t_ms"]
            if leg and t_ms < leg[-1].t_ms:
                raise MalformedTraceRow(
                    line, f"call {cid}: trace timestamps must be non-decreasing")
            if not leg and not (direction == EGRESS and msg.method is SipMethod.INVITE):
                raise MalformedTraceRow(line, f"call {cid}: a trace starts with the sent INVITE")
            leg.append(Entry(t_ms, direction, msg))
        legs.append((cid, observer, leg))
    return folded(legs)


def _legs_outcome(build, rows):
    try:
        return build(rows)
    except MalformedTraceRow as exc:
        return exc.line, exc.reason


@functools.cache
def _parsed(text):
    return parse_message(text)


def _mutate_rows(rng, rows):
    """The rows changed in one way: reordered, restamped, or with a call's
    first egress row replaced by a row that cannot start its leg."""
    rows = list(rows)
    cids = [_parsed(row["sip"]).call_id for row in rows]
    calls = list(dict.fromkeys(cids))
    kind = rng.randrange(5)
    if kind == 0:  # shuffled: a short run of rows, or all of them
        start = rng.randrange(len(rows))
        stop = start + rng.randint(2, 6)
        if rng.random() < 0.2:
            start, stop = 0, len(rows)
        window = rows[start:stop]
        rng.shuffle(window)
        rows[start:stop] = window
    elif kind == 1:  # t_ms lowered in two calls
        for cid in rng.sample(calls, 2):
            i = rng.choice([i for i, c in enumerate(cids) if c == cid])
            rows[i] = dict(rows[i], t_ms=rows[i]["t_ms"] - rng.randint(1, 300))
    elif kind == 2:  # ingress rows moved before their call's first egress
        cid = rng.choice(calls)
        first = next(i for i, c in enumerate(cids) if c == cid and rows[i]["dir"] == "egress")
        ingress = [i for i, c in enumerate(cids) if c == cid and rows[i]["dir"] == "ingress"]
        moved = [rows[i] for i in rng.sample(ingress, rng.randint(1, min(3, len(ingress))))]
        rows = [row for row in rows if all(row is not m for m in moved)]
        at = rng.randint(0, first)
        rows[at:at] = moved
    elif kind == 3:  # a call's first egress is not a request INVITE
        cid = rng.choice(calls)
        egress = [i for i, c in enumerate(cids) if c == cid and rows[i]["dir"] == "egress"]
        other = [i for i in egress if _parsed(rows[i]["sip"]).method is not SipMethod.INVITE]
        later = rows.pop(rng.choice(other))
        rows.insert(rng.randint(0, egress[0]), later)
    else:  # a call's first egress leaves a network hop
        cid = rng.choice(calls)
        first = next(i for i, c in enumerate(cids) if c == cid and rows[i]["dir"] == "egress")
        rows[first] = dict(rows[first], from_hop="net:cn-x")
    return rows


def _break_a_row_after_a_late_one(rng, rows):
    """A row stamped too early, then a later row with a bad ``dir`` or message."""
    rows = list(rows)
    i = rng.randrange(1, len(rows) - 1)
    rows[i] = dict(rows[i], t_ms=rows[i]["t_ms"] - rng.randint(1, 300))
    j = rng.randrange(i + 1, len(rows))
    if rng.random() < 0.5:
        rows[j] = dict(rows[j], dir=rng.choice(("EGRESS", "in", "")))
    else:
        rows[j] = dict(rows[j], sip=rng.choice(("HELLO there\n\n", "", "INVITE\n\n")))
    return rows


def test_one_pass_legs_equal_the_two_phase_builder():
    rng = random.Random(20261019)
    seeded = [loaded_federation(seed, 12)[0] for seed in (1, 2, 3)]
    outcomes = []
    for i in range(600):
        rows = seeded[i % len(seeded)]
        for _ in range(rng.choice((1, 1, 2, 3))):
            rows = _mutate_rows(rng, rows)
        if rng.random() < 0.2:
            rows = _break_a_row_after_a_late_one(rng, rows)
        expected = _legs_outcome(_two_phase_legs, rows)
        assert _legs_outcome(lambda rows: legs_from_trace_rows(row_tuples(rows)), rows) == expected, i
        outcomes.append(expected if isinstance(expected, tuple) else len(expected))
    # every error, and traces read whole with fewer legs than calls, are exercised
    reasons = [outcome[1] for outcome in outcomes if isinstance(outcome, tuple)]
    assert sum(r.endswith("timestamps must be non-decreasing") for r in reasons) > 70
    assert sum(r.endswith("a trace starts with the sent INVITE") for r in reasons) > 70
    assert sum(r.startswith("dir ") for r in reasons) > 40
    assert sum(r.startswith("MalformedStartLine") for r in reasons) > 40
    assert sum(outcome in (9, 10, 11) for outcome in outcomes) > 120
