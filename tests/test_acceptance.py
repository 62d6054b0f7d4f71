"""Acceptance gate: every release criterion, one test each.

Each test prints one PASS/FAIL line on the real stdout so the gate is
readable even under pytest's capture. The scenario corpus (c1, c2, c3) and
the full matrix run once per session; criteria assert exact values, no
tolerances.
"""

import dataclasses
import json
import random
import sys
import time
from contextlib import contextmanager
from unittest import mock

import pytest

from conftest import SCENARIOS, random_valid_message, reference_legs, row_tuples

import cive_sim.scenario

from cive_sim.cive import (
    Decision,
    FeatureVector,
    InferredState,
    decide,
    extract_features,
    infer_state,
    legs_from_trace_rows,
    verify_incoming,
)
from cive_sim.scenario import (
    Scenario,
    load_scenario,
    run_matrix,
    run_scenario,
)
from cive_sim.sip_core import (
    AlertUrn,
    CANONICAL_REASON,
    PemValue,
    PhoneNumber,
    SipMethod,
    StatusCode,
    UnknownStatusCode,
    parse_message,
    serialize_message,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}", file=sys.__stdout__)
        raise
    print(f"[PASS] criterion {number}: {title}", file=sys.__stdout__)


@pytest.fixture(scope="session")
def corpus_runs(tmp_path_factory):
    """Run c1/c2/c3 once; keep reports, auCall legs, and the wall time.

    The auCall leg is the verifying callee's leg read back from the saved
    trace, which must be the live verifier's leg entry by entry; the leg
    builder must fold it into the same message count and features."""
    out = tmp_path_factory.mktemp("acceptance")
    runs = {}
    agents = []

    def capturing(agent):
        agents.append(agent)
        return verify_incoming(agent)

    t0 = time.perf_counter()
    with mock.patch.object(cive_sim.scenario, "verify_incoming", capturing):
        for name in ("c1", "c2", "c3"):
            scenario = load_scenario(SCENARIOS / f"{name}.scn")
            report = run_scenario(scenario, out / name)
            rows = [
                json.loads(line)
                for line in (out / name / f"{name}.trace.jsonl").read_text().splitlines()
            ]
            observer = "ep:+15550101"  # the verifying callee
            aucall = [leg for _cid, obs, leg in reference_legs(rows) if obs == observer]
            rebuilt = [
                (messages, features)
                for _cid, obs, messages, features in legs_from_trace_rows(row_tuples(rows))
                if obs == observer
            ]
            assert len(aucall) == 1
            assert aucall[0] == agents.pop().entries
            assert rebuilt == [(len(aucall[0]), extract_features(aucall[0]))]
            runs[name] = {"report": report, "aucall": aucall[0], "out": out / name}
    wall = time.perf_counter() - t0
    return {"runs": runs, "wall_s": wall, "out": out}


def _kinds(trace):
    return [
        e.message.method.value if e.message.status is None else e.message.status.code
        for e in trace
    ]


def test_criterion_1_ringing_features(corpus_runs):
    with criterion(1, "c1/c2/c3 reproduce the exact 180 side-channel features"):
        expected = {
            "c1": (PemValue.SENDONLY, None),
            "c2": (PemValue.SENDRECV, None),
            "c3": (PemValue.SENDRECV, AlertUrn.CALL_WAITING),
        }
        for name, (pem, alert) in expected.items():
            features = extract_features(corpus_runs["runs"][name]["aucall"])
            assert features.pem_180 is pem, (name, features)
            assert features.alert_180 is alert, (name, features)
        assert corpus_runs["wall_s"] < 1.0, corpus_runs["wall_s"]


def test_criterion_2_c2_signaling_sequence(corpus_runs):
    with criterion(2, "c2 callback sequence is INVITE,100,183,PRACK,180,CANCEL,200,487,ACK"):
        kinds = _kinds(corpus_runs["runs"]["c2"]["aucall"])
        assert kinds == ["INVITE", 100, 183, "PRACK", 180, "CANCEL", 200, 487, "ACK"]


def test_criterion_3_teardown_signatures(corpus_runs):
    with criterion(3, "c1 tears down with 200-to-INVITE then BYE; c2/c3 with CANCEL then 487"):
        c1 = corpus_runs["runs"]["c1"]["aucall"]
        f1 = extract_features(c1)
        assert f1.final_to_invite == StatusCode(200)
        assert f1.teardown is SipMethod.BYE
        kinds = _kinds(c1)
        assert "CANCEL" not in kinds
        sent_requests = [
            e.message.method for e in c1 if e.message.status is None
        ]
        assert sent_requests[-1] is SipMethod.BYE
        assert kinds.index(200) < kinds.index("BYE")

        for name in ("c2", "c3"):
            trace = corpus_runs["runs"][name]["aucall"]
            f = extract_features(trace)
            assert f.final_to_invite == StatusCode(487), (name, f)
            assert f.teardown is SipMethod.CANCEL, (name, f)
            kinds = _kinds(trace)
            assert "BYE" not in kinds
            assert kinds.index("CANCEL") < kinds.index(487)


def test_criterion_4_verdicts_and_matrix(corpus_runs, tmp_path):
    with criterion(4, "verdicts: c1 Legit, c2/c3 Spoofed; matrix 20/20 with no spoofed Legit"):
        decisions = {
            name: run["report"].verdict.decision
            for name, run in corpus_runs["runs"].items()
        }
        assert decisions == {
            "c1": Decision.LEGIT,
            "c2": Decision.SPOOFED,
            "c3": Decision.SPOOFED,
        }
        assert all(run["report"].match for run in corpus_runs["runs"].values())
        t0 = time.perf_counter()
        result = run_matrix(tmp_path)
        wall = time.perf_counter() - t0
        assert all(r.match for r in result.reports)
        assert result.spoofed_judged_legit == 0
        assert len(result.rows) == 20
        assert wall < 10.0, wall


def test_criterion_5_attack_demo(tmp_path):
    with criterion(5, "lax gateway shows the forged ID at the callee; strict gateway blocks it"):
        s = load_scenario(SCENARIOS / "c2.scn")
        lax = run_scenario(dataclasses.replace(s, cive_enabled=False), tmp_path / "lax")
        assert lax.b_display == PhoneNumber("+15550100")
        assert lax.policy_violations == 0
        rows = [
            json.loads(line)
            for line in (tmp_path / "lax" / "c2.trace.jsonl").read_text().splitlines()
        ]
        delivered = [
            r for r in rows if r["dir"] == "ingress" and r["to_hop"] == "ep:+15550101"
        ]
        assert parse_message(delivered[0]["sip"]).from_number == "+15550100"

        strict = Scenario(
            name=s.name,
            carriers={
                cid: dataclasses.replace(c, enforce_caller_id=(cid == "cn-x"))
                for cid, c in s.carriers.items()
            },
            parties=s.parties,
            origination=s.origination,
            cive_enabled=False,
            seed=s.seed,
        )
        blocked = run_scenario(strict, tmp_path / "strict")
        assert blocked.b_display is None
        assert blocked.policy_violations == 1
        rows = [
            json.loads(line)
            for line in (tmp_path / "strict" / "c2.trace.jsonl").read_text().splitlines()
        ]
        assert not any(
            r["dir"] == "ingress" and r["to_hop"] == "ep:+15550101" for r in rows
        )


def test_criterion_6_parser_properties(corpus_files):
    with criterion(6, "round-trip on corpus and 1000 generated messages; the 11 codes are the closed set"):
        for path in corpus_files:
            text = path.read_text(encoding="utf-8")
            msg = parse_message(text)
            assert serialize_message(msg) == text
            assert parse_message(serialize_message(msg)) == msg
        rng = random.Random(1089)
        for _ in range(1000):
            msg = random_valid_message(rng)
            wire = serialize_message(msg)
            assert parse_message(wire) == msg
            assert serialize_message(parse_message(wire)) == wire
        assert len(CANONICAL_REASON) == 11
        for code in CANONICAL_REASON:
            assert StatusCode(code).code == code
            assert parse_message(
                f"SIP/2.0 {code} X\nFrom: sip:+15550001\nTo: sip:+15550002\n"
                "Call-ID: t\nCSeq: 1 INVITE\n\n"
            ).status.code == code
        for bad in (404, 500, 183 + 1000):
            with pytest.raises(UnknownStatusCode):
                StatusCode(bad)


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "equal seeds give byte-identical trace and report files"):
        for name in ("c1", "c2", "c3"):
            s = load_scenario(SCENARIOS / f"{name}.scn")
            run_scenario(s, tmp_path / "run1")
            run_scenario(s, tmp_path / "run2")
            for suffix in ("trace.jsonl", "report.json"):
                a = (tmp_path / "run1" / f"{name}.{suffix}").read_bytes()
                b = (tmp_path / "run2" / f"{name}.{suffix}").read_bytes()
                assert a == b, (name, suffix)


def _random_feature_vector(rng: random.Random) -> FeatureVector:
    final = rng.choice([None, *CANONICAL_REASON])
    return FeatureVector(
        pem_180=rng.choice([None, *PemValue]),
        alert_180=rng.choice([None, *AlertUrn]),
        saw_181=rng.random() < 0.3,
        saw_486=rng.random() < 0.3,
        final_to_invite=None if final is None else StatusCode(final),
        teardown=rng.choice([None, SipMethod.BYE, SipMethod.CANCEL]),
        timed_out=rng.random() < 0.2,
    )


def test_criterion_8_fail_safe_sweep():
    with criterion(8, "10000 random feature vectors: Legit only on sendonly; Unknown/Unreachable stay Inconclusive"):
        rng = random.Random(77)
        callee = PhoneNumber("+15550101")
        for _ in range(10_000):
            features = _random_feature_vector(rng)
            inferred = infer_state(features)
            verdict = decide(callee, inferred, features)
            if verdict.decision is Decision.LEGIT:
                assert features.pem_180 is PemValue.SENDONLY
            if inferred in (InferredState.UNKNOWN, InferredState.UNREACHABLE):
                assert verdict.decision is Decision.INCONCLUSIVE
