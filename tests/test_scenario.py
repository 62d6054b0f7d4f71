import dataclasses
import hashlib
import io
import itertools
import json
import os
import random
import re
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO, SCENARIOS, folded, loaded_federation, reference_legs, row_tuples

import cive_sim.scenario
from cive_sim.cive import Decision, InferredState
from cive_sim.scenario import (
    GroundTruth,
    RunReport,
    OriginationSpec,
    PartySpec,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    exit_code_for,
    load_scenario,
    matrix_scenarios,
    run_matrix,
    run_scenario,
)
from cive_sim import cive, cli, netsim
from cive_sim.call_fsm import Connected, Dialing, Held
from cive_sim.netsim import TRACE_HEAD_RE, Federation
from cive_sim.sip_core import STATUS, AlertUrn, PemValue, PhoneNumber, SipMethod


def test_load_c1():
    s = load_scenario(SCENARIOS / "c1.scn")
    assert s.name == "c1"
    assert s.ground_truth is GroundTruth.GENUINE
    assert s.origination.originator == s.origination.claimed == "+15550100"
    assert s.origination.target == "+15550101"
    assert s.cive_enabled and s.seed == 0


def test_load_c3():
    s = load_scenario(SCENARIOS / "c3.scn")
    assert s.ground_truth is GroundTruth.SPOOFED
    assert s.origination.originator == "+15559900"
    assert s.origination.claimed == "+15550100"
    a = next(p for p in s.parties if p.profile.number == "+15550100")
    assert a.state == Connected(PhoneNumber("+15550102")) and a.profile.call_waiting


def _write(tmp_path, text):
    path = tmp_path / "bad.scn"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_rejects_claimed_truth_contradiction(tmp_path):
    text = (SCENARIOS / "c2.scn").read_text().replace("ground_truth: spoofed", "ground_truth: genuine")
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(_write(tmp_path, text))
    assert str(err.value) == "claimed differs from originator but ground_truth is not spoofed"


def test_load_rejects_genuine_labelled_spoofed(tmp_path):
    text = (SCENARIOS / "c1.scn").read_text().replace("ground_truth: genuine", "ground_truth: spoofed")
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(_write(tmp_path, text))
    assert str(err.value) == "claimed equals originator but ground_truth is not genuine"


def test_load_rejects_unregistered_numbers(tmp_path):
    text = (SCENARIOS / "c2.scn").read_text().replace('claimed: "+15550100"', 'claimed: "+15550199"')
    with pytest.raises(ScenarioValidationError):
        load_scenario(_write(tmp_path, text))


def test_load_rejects_bad_yaml(tmp_path):
    with pytest.raises(ScenarioParseError):
        load_scenario(_write(tmp_path, "name: [unclosed"))
    with pytest.raises(ScenarioParseError):
        load_scenario(_write(tmp_path, "- just\n- a list\n"))


def test_run_c1_legit(tmp_path):
    report = run_scenario(load_scenario(SCENARIOS / "c1.scn"), tmp_path)
    assert report.verdict.decision is Decision.LEGIT
    assert report.verdict.inferred is InferredState.DIALING
    assert report.match is True and not report.inconclusive
    assert (tmp_path / "c1.trace.jsonl").exists()
    assert (tmp_path / "c1.report.json").exists()


@pytest.mark.parametrize("cw", [False, True], ids=["cw0", "cw1"])
@pytest.mark.parametrize("vm", [False, True], ids=["vm0", "vm1"])
def test_genuine_call_from_a_held_line_is_legit(tmp_path, cw, vm):
    # A holds a call with E and dials B: its line reads as dialing B, so
    # B's callback meets the collision whatever A's service features.
    s = load_scenario(SCENARIOS / "c1.scn")
    parties = tuple(
        PartySpec(
            p.carrier,
            dataclasses.replace(p.profile, call_waiting=cw, voicemail_forward=vm),
            Held(PhoneNumber("+15559900")),
        )
        if p.profile.number == s.origination.originator else p
        for p in s.parties
    )
    report = run_scenario(dataclasses.replace(s, parties=parties), tmp_path)
    assert report.verdict.decision is Decision.LEGIT
    assert report.verdict.inferred is InferredState.DIALING
    assert report.match is True


@pytest.mark.parametrize("cw", ["false", "true"], ids=["cw0", "cw1"])
def test_genuine_call_from_a_connected_line_is_legit(tmp_path, capsys, monkeypatch, cw):
    # A is on a call with E when it dials B; it holds that call first, as a
    # phone does, so B's callback meets the collision and not a busy line.
    monkeypatch.delenv("CIVE_SIM_SEED", raising=False)
    text = (SCENARIOS / "c1.scn").read_text(encoding="utf-8").replace(
        "state: idle", f'state: connected\n    peer: "+15559900"\n    call_waiting: {cw}', 1)
    path = tmp_path / "c1.scn"
    path.write_text(text, encoding="utf-8")
    report = run_scenario(load_scenario(path), tmp_path / "run")
    assert report.verdict.decision is Decision.LEGIT
    assert report.verdict.inferred is InferredState.DIALING
    assert cli.main(["run", str(path), "--out", str(tmp_path / "cli")]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert (printed["verdict"]["decision"], printed["match"]) == ("Legit", True)
    for name in ("c1.trace.jsonl", "c1.report.json"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


def test_final_response_stops_the_callers_patience_timer():
    # B is on a call with E and has no features, so A's INVITE gets 486 at
    # 150 ms; A's 20 s patience timer must not keep the run going.
    s = load_scenario(SCENARIOS / "c1.scn")
    parties = tuple(
        dataclasses.replace(p, state=Connected(PhoneNumber("+15559900")))
        if p.profile.number == s.origination.target else p
        for p in s.parties
    )
    report = run_scenario(dataclasses.replace(s, parties=parties, cive_enabled=False))
    assert report.verdict is None and report.sim_ms == 150


def test_run_c2_spoofed_idle(tmp_path):
    report = run_scenario(load_scenario(SCENARIOS / "c2.scn"), tmp_path)
    assert report.verdict.decision is Decision.SPOOFED
    assert report.verdict.inferred is InferredState.IDLE
    assert report.match is True
    assert report.b_display == "+15550100"  # the forged identity B saw
    # hand-computed: attacker patience CANCEL at 20000 plus the cross-carrier
    # teardown round trips; comfortably inside the 60 s budget
    assert report.sim_ms == 20300
    assert report.sim_ms < 60_000


def test_run_c3_spoofed_connected(tmp_path):
    report = run_scenario(load_scenario(SCENARIOS / "c3.scn"), tmp_path)
    assert report.verdict.decision is Decision.SPOOFED
    assert report.verdict.inferred is InferredState.CONNECTED
    assert report.match is True


def test_run_c2_without_cive_attack_succeeds(tmp_path):
    s = load_scenario(SCENARIOS / "c2.scn")
    report = run_scenario(dataclasses.replace(s, cive_enabled=False), tmp_path)
    assert report.verdict is None and report.match is None
    assert report.b_display == "+15550100"
    assert report.policy_violations == 0


def test_run_c2_strict_policy_blocks(tmp_path):
    s = load_scenario(SCENARIOS / "c2.scn")
    carriers = {
        cid: dataclasses.replace(c, enforce_caller_id=(cid == "cn-x"))
        for cid, c in s.carriers.items()
    }
    strict = Scenario(
        name=s.name, carriers=carriers, parties=s.parties,
        origination=s.origination, cive_enabled=True, seed=s.seed,
    )
    report = run_scenario(strict, tmp_path)
    assert report.b_display is None
    assert report.policy_violations == 1
    # the target never rang, so there was nothing to verify
    assert report.verdict is None and report.match is None


def test_reports_are_byte_identical_across_runs(tmp_path):
    s = load_scenario(SCENARIOS / "c3.scn")
    out1, out2 = tmp_path / "one", tmp_path / "two"
    run_scenario(s, out1)
    run_scenario(s, out2)
    for name in ("c3.trace.jsonl", "c3.report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_run_flags_equal_a_replaced_scenario(tmp_path, capsys, monkeypatch):
    # --seed and --no-cive act only as a scenario carrying those values
    # would; jitter makes the seed show in the trace.
    monkeypatch.delenv("CIVE_SIM_SEED", raising=False)
    text = (SCENARIOS / "c2.scn").read_text(encoding="utf-8")
    path = tmp_path / "c2.scn"
    path.write_text(re.sub(r"(?m)^(  - id: cn-\w+)$", r"\1\n    jitter_ms: 40", text), encoding="utf-8")
    s = load_scenario(path)
    assert [c.jitter_ms for c in s.carriers.values()] == [40, 40]
    cli_out, replaced, seed0 = tmp_path / "cli", tmp_path / "replaced", tmp_path / "seed0"
    assert cli.main(["run", str(path), "--seed", "7", "--no-cive", "--out", str(cli_out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert (printed["seed"], printed["cive_enabled"], printed["verdict"]) == (7, False, None)
    run_scenario(dataclasses.replace(s, seed=7, cive_enabled=False), replaced)
    run_scenario(dataclasses.replace(s, cive_enabled=False), seed0)
    for name in ("c2.trace.jsonl", "c2.report.json"):
        assert (cli_out / name).read_bytes() == (replaced / name).read_bytes()
    assert (cli_out / "c2.trace.jsonl").read_bytes() != (seed0 / "c2.trace.jsonl").read_bytes()


def test_report_json_shape(tmp_path):
    run_scenario(load_scenario(SCENARIOS / "c2.scn"), tmp_path)
    data = json.loads((tmp_path / "c2.report.json").read_text())
    assert list(data) == [
        "scenario", "ground_truth", "cive_enabled", "seed", "b_display",
        "verdict", "match", "inconclusive", "policy_violations", "sim_ms",
        "trace_file",
    ]
    assert list(data["verdict"]) == [
        "decision", "inferred", "expected", "reason", "features", "trace_ref",
    ]
    assert data["verdict"]["trace_ref"] == "c2.trace.jsonl"
    assert data["trace_file"] == "c2.trace.jsonl"


def _jittered(s, jitter_ms, seed):
    carriers = {cid: dataclasses.replace(c, jitter_ms=jitter_ms) for cid, c in s.carriers.items()}
    return dataclasses.replace(s, carriers=carriers, seed=seed)


def _dumped(report):
    """What ``RunReport.to_json`` must write: its dict form through json.dumps."""
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def test_report_encoder_equals_json_dumps_on_every_report(tmp_path):
    # c1-c5 with and without --out (trace_file and trace_ref null in one),
    # without verification and with jittered links, and every matrix cell.
    named = [load_scenario(SCENARIOS / f"{n}.scn") for n in ("c1", "c2", "c3", "c4", "c5")]
    reports = [run_scenario(s) for s in named]
    reports += [run_scenario(s, tmp_path) for s in named]
    reports += [run_scenario(dataclasses.replace(s, cive_enabled=False)) for s in named]
    reports += [run_scenario(_jittered(s, jitter, seed))
                for s in named[:3] for jitter in (40, 500) for seed in range(3)]
    reports += run_matrix().reports
    assert len(reports) == 5 * 3 + 3 * 6 + 20
    assert sum(r.trace_file is None for r in reports) == len(reports) - 5
    assert sum(r.verdict is None for r in reports) == 5 + 2  # c4 refused, with and without --out
    assert sum(r.b_display is None for r in reports) == 3  # c4 only
    # c5's callback times out, so its verdict is Inconclusive, with and without --out
    assert {r.match for r in reports} == {True, False, None}
    assert [r.scenario.name for r in reports if r.match is False] == ["c5", "c5"]
    assert all(r.inconclusive for r in reports if r.match is False)
    for r in reports:
        assert r.to_json() == _dumped(r)
    assert reports[5].to_json() == (REPO / "tests" / "golden" / "c1.report.json").read_text()


def _hand_built_report(name, expected, *, inferred=InferredState.IDLE, b_display=None,
                       trace_file=None, features=None, seed=0, cive_enabled=True, genuine=False,
                       counts=(0, 0)):
    # Built in code, a Scenario skips validate, so its name may hold anything.
    a, e = PhoneNumber("+15550100"), PhoneNumber("+15559900")
    s = Scenario(name, {}, (), OriginationSpec(a if genuine else e, a, PhoneNumber("+15550101")),
                 cive_enabled, seed)
    v = None
    if inferred is not None:
        v = cive.Verdict(inferred, expected, features or cive.FeatureVector())
    return RunReport(s, v, b_display, counts[0], counts[1], trace_file)


def test_report_encoder_escapes_strings_as_json_dumps():
    odd = ['quote "', "back\\slash", "control \x00\n\t\x1f\x7f", "\u00e9\u2028\U0001f4de",
           "lone \ud800 \udfff", ""]
    b = PhoneNumber("+15550100")
    reports = [
        _hand_built_report(name, expected, inferred=inferred, trace_file=trace, b_display=b)
        for name, expected, trace, inferred in zip(odd, odd[1:] + odd[:1], odd[3:] + odd[:3],
                                                   InferredState)
    ]
    reports.append(_hand_built_report('"\\\x01\u00e9', "", inferred=None))
    for r in reports:
        assert r.to_json() == _dumped(r)
    assert '"scenario": "quote \\"",' in reports[0].to_json()


_REPORT_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800",
                         "\udfff", "\U0001f4de"]),
        st.characters(exclude_categories=()),  # lone surrogates included
    )
)
_REPORT_INTS = st.one_of(st.integers(0, 10**6), st.integers(-(10**100), 10**100))
_FEATURES = st.builds(
    cive.FeatureVector,
    st.sampled_from([None, *PemValue]),
    st.sampled_from([None, *AlertUrn]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, *STATUS.values()]),
    st.sampled_from([None, SipMethod.BYE, SipMethod.CANCEL]),
    st.booleans(),
)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    _REPORT_TEXT, _REPORT_TEXT,
    st.sampled_from([None, *InferredState]),
    st.sampled_from([None, PhoneNumber("+15550100")]),
    st.one_of(st.none(), _REPORT_TEXT),
    _FEATURES, _REPORT_INTS, st.booleans(), st.booleans(), st.tuples(_REPORT_INTS, _REPORT_INTS),
)
def test_report_encoder_equals_json_dumps(name, expected, inferred, b_display, trace_file,
                                          features, seed, cive_enabled, genuine, counts):
    r = _hand_built_report(name, expected, inferred=inferred, b_display=b_display,
                           trace_file=trace_file, features=features, seed=seed,
                           cive_enabled=cive_enabled, genuine=genuine, counts=counts)
    assert r.to_json() == _dumped(r)


@pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4", "c5"])
@pytest.mark.parametrize("flags", [[], ["--no-cive", "--seed", "7"]], ids=["plain", "no-cive-seed-7"])
def test_cli_run_prints_the_report_file(tmp_path, capsys, monkeypatch, name, flags):
    monkeypatch.delenv("CIVE_SIM_SEED", raising=False)
    code = 2 if name == "c5" and not flags else 0  # c5's verdict is Inconclusive
    assert cli.main(["run", str(SCENARIOS / f"{name}.scn"), *flags, "--out", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (tmp_path / f"{name}.report.json").read_bytes()


@pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4", "c5"])
def test_run_reproduces_golden_trace_and_report(tmp_path, name):
    run_scenario(load_scenario(SCENARIOS / f"{name}.scn"), tmp_path)
    for suffix in ("trace.jsonl", "report.json"):
        golden = REPO / "tests" / "golden" / f"{name}.{suffix}"
        assert (tmp_path / f"{name}.{suffix}").read_bytes() == golden.read_bytes(), suffix


@pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4", "c5"])
def test_parse_reproduces_golden_output(capsys, name):
    golden = REPO / "tests" / "golden"
    assert cli.main(["parse", str(golden / f"{name}.trace.jsonl")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (golden / f"{name}.parse.jsonl").read_bytes()


def _parse_dumps(call_id, observer, leg):
    """The reference ``cive-sim parse`` line of a leg: ``json.dumps`` of its dict."""
    features = cive.extract_features(leg)
    leg_dict = {
        "call_id": call_id,
        "observer": observer,
        "messages": len(leg),
        "features": features.to_json_dict(),
        "inferred": cive.infer_state(features).value,
    }
    return json.dumps(leg_dict) + "\n"


def _golden_rows(name):
    text = (REPO / "tests" / "golden" / f"{name}.trace.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


def test_parse_lines_equal_json_dumps_for_every_state_and_feature():
    # Seeded jittered federations, the five bundled traces, and c5 cut off
    # before either call's final, so no leg has one.
    traces = [loaded_federation(seed, 40)[0] for seed in range(3)]
    traces += [_golden_rows(name) for name in ("c1", "c2", "c3", "c4", "c5")]
    traces.append([row for row in _golden_rows("c5") if row["t_ms"] <= 18_482])
    seen = set()
    for rows in traces:
        reference = reference_legs(rows)
        legs = cive.legs_from_trace_rows(row_tuples(rows))
        assert legs == folded(reference)
        for (call_id, observer, messages, features), leg in zip(legs, reference):
            inferred = cive.infer_state(features)
            line = cli._leg_line(call_id, observer, messages, features, inferred)
            assert line == _parse_dumps(*leg)
            final = features.final_to_invite
            seen.add((inferred, features.timed_out, features.teardown, final and final.code))
    assert {state for state, _, _, _ in seen} == set(InferredState) - {InferredState.UNKNOWN}
    assert {timed_out for _, timed_out, _, _ in seen} == {True, False}
    assert {teardown for _, _, teardown, _ in seen} == {SipMethod.BYE, SipMethod.CANCEL, None}
    assert {final for _, _, _, final in seen} >= {None, 200, 480, 486, 487}


@pytest.mark.parametrize("odd", ['"', "\\", "\u00e9\U0001f4de"], ids=["quote", "backslash", "non-ascii"])
@pytest.mark.parametrize("ensure_ascii", [True, False], ids=["ascii", "utf-8"])
def test_parse_escapes_call_id_and_observer_as_json_dumps(tmp_path, capsys, odd, ensure_ascii):
    # B's callback in c5 gets an odd Call-ID and B an odd hop label. Rows
    # holding an escaped hop are read by json.loads; a raw non-ASCII hop by
    # the row-head fast path.
    rows = _golden_rows("c5")
    for row in rows:
        row["sip"] = row["sip"].replace("Call-ID: c0002@sim\n", f"Call-ID: c0002{odd}@sim\n")
        for field in ("from_hop", "to_hop"):
            if row[field] == "ep:+15550101":
                row[field] = f"ep:+15550101{odd}"
    path = tmp_path / "odd.trace.jsonl"
    text = "".join(json.dumps(row, ensure_ascii=ensure_ascii) + "\n" for row in rows)
    path.write_text(text, encoding="utf-8")
    assert cli.main(["parse", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == "".join(_parse_dumps(*leg) for leg in reference_legs(rows))
    assert out.count(json.dumps(f"c0002{odd}@sim")) == 1
    assert out.count(json.dumps(f"ep:+15550101{odd}")) == 1


def test_matrix_covers_grid_and_matches_golden(tmp_path):
    scenarios = matrix_scenarios()
    assert len(scenarios) == 20
    result = run_matrix(tmp_path)
    assert len(result.rows) == 20
    assert all(r.match for r in result.reports)
    assert result.spoofed_judged_legit == 0
    golden = (REPO / "tests" / "golden" / "matrix.csv").read_text(encoding="utf-8")
    assert (tmp_path / "matrix.csv").read_text(encoding="utf-8") == golden
    assert result.to_csv() == golden


def test_matrix_scenarios_are_new_on_every_call():
    first, second = matrix_scenarios(), matrix_scenarios()
    assert first == second and first is not second
    assert not any(a is b for a, b in zip(first, second))
    # Scenario.carriers is a mutable dict, so no two cells may share one.
    assert len({id(s.carriers) for s in first + second}) == 40


def test_matrix_cell_files_are_pinned(tmp_path):
    # Every trace and report of the 20 cells, byte for byte: together they
    # reach every row of the callee's response table.
    run_matrix(tmp_path)
    cells = b"".join(p.read_bytes() for p in sorted((tmp_path / "cells").iterdir()))
    assert hashlib.sha256(cells).hexdigest() == (
        "128aa6c53ce0a46fd88cc053ed980a4f7ec7931a3d97155bd6e1faee031b9715"
    )


def test_exit_code_logic():
    # A report is scored from its verdict and its scenario's ground truth,
    # which c1 (genuine) and c2 (spoofed) take from their originations.
    genuine = load_scenario(SCENARIOS / "c1.scn")
    spoofed = load_scenario(SCENARIOS / "c2.scn")

    def report(s, inferred):
        verdict = (
            None if inferred is None
            else cive.decide(s.origination.target, inferred, cive.FeatureVector())
        )
        return RunReport(s, verdict, None, 0, 0, None)

    legit = report(genuine, InferredState.DIALING)
    caught = report(spoofed, InferredState.IDLE)
    unverified = report(genuine, None)
    unsure = report(spoofed, InferredState.UNKNOWN)
    fooled = report(spoofed, InferredState.DIALING)
    wronged = report(genuine, InferredState.IDLE)
    assert (legit.match, caught.match, unverified.match) == (True, True, None)
    # Inconclusive is a non-match, on a spoofed call too.
    assert (unsure.match, unsure.inconclusive) == (False, True)
    assert (fooled.match, wronged.match) == (False, False)
    assert not any(r.inconclusive for r in (legit, caught, unverified, fooled, wronged))
    assert exit_code_for([legit, caught]) == 0
    assert exit_code_for([unverified]) == 0  # no verification ran
    assert exit_code_for([unsure]) == 2
    assert exit_code_for([fooled]) == 1
    assert exit_code_for([wronged, unsure]) == 1


def test_one_event_loop_per_scenario(monkeypatch):
    # The callback runs in the loop of the call it checks: one loop entry
    # per scenario, verification included.
    entries = []
    real_run = Federation.run

    def counting_run(net, *args, **kwargs):
        entries.append(net.now)
        return real_run(net, *args, **kwargs)

    monkeypatch.setattr(Federation, "run", counting_run)
    scenarios = [*matrix_scenarios(), *(load_scenario(SCENARIOS / f"{n}.scn") for n in ("c1", "c2", "c3"))]
    for s in scenarios:
        entries.clear()
        report = run_scenario(s)
        assert report.verdict is not None, s.name
        assert entries == [0], s.name


def test_cli_run_exit_zero(tmp_path, capsys):
    code = cli.main(["run", str(SCENARIOS / "c2.scn"), "--out", str(tmp_path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"]["decision"] == "Spoofed"
    assert out["match"] is True


def test_cli_run_no_cive(tmp_path, capsys):
    code = cli.main(["run", str(SCENARIOS / "c2.scn"), "--out", str(tmp_path), "--no-cive"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is None
    assert out["b_display"] == "+15550100"


def test_cli_seed_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CIVE_SIM_SEED", "99")
    cli.main(["run", str(SCENARIOS / "c1.scn"), "--out", str(tmp_path)])
    assert json.loads(capsys.readouterr().out)["seed"] == 99
    monkeypatch.setenv("CIVE_SIM_SEED", "not-a-number")
    assert cli.main(["run", str(SCENARIOS / "c1.scn")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: CIVE_SIM_SEED must be an integer, got 'not-a-number'\n"


def test_cli_seed_flag_beats_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CIVE_SIM_SEED", "99")
    cli.main(["run", str(SCENARIOS / "c1.scn"), "--seed", "3", "--out", str(tmp_path)])
    assert json.loads(capsys.readouterr().out)["seed"] == 3


@pytest.mark.parametrize("source", ["scenario", "flag", "env"])
def test_cli_negative_seed_is_bad_input(tmp_path, capsys, monkeypatch, source):
    # random.Random(-1) seeds like Random(1), so -1 would silently rerun seed 1.
    monkeypatch.delenv("CIVE_SIM_SEED", raising=False)
    path, args = SCENARIOS / "c1.scn", []
    if source == "scenario":
        path = _c1_with(tmp_path, "seed: 0\n", "seed: -1\n")
    elif source == "flag":
        args = ["--seed", "-1"]
    else:
        monkeypatch.setenv("CIVE_SIM_SEED", "-1")
    assert cli.main(["run", str(path), *args, "--out", str(tmp_path / "out")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: seed must be >= 0\n"


def test_cli_matrix(tmp_path, capsys):
    code = cli.main(["matrix", "--out", str(tmp_path)])
    assert code == 0
    assert "match rate: 20/20" in capsys.readouterr().out
    assert (tmp_path / "matrix.csv").exists()
    assert (tmp_path / "cells" / "matrix-idle-cw0-vm0-spoofed.trace.jsonl").exists()


def test_cli_matrix_exit_code_is_one_for_any_outright_mismatch(monkeypatch, capsys):
    # A genuine cell judged Spoofed is a mismatch, whatever else is
    # inconclusive: exit 1, as for `run`.
    names = ("matrix-dialing_b-cw0-vm0-genuine", "matrix-idle-cw0-vm0-spoofed")
    cells = [s for s in matrix_scenarios() if s.name in names]
    # in cell-name order, for each of the two runs below
    scripted = itertools.cycle([InferredState.IDLE, InferredState.UNREACHABLE])

    def scripted_verify(agent):
        verdict = cive.verify_incoming(agent)
        return cive.decide(agent.number, next(scripted), verdict.features)

    monkeypatch.setattr(cive_sim.scenario, "matrix_scenarios", lambda: cells)
    monkeypatch.setattr(cive_sim.scenario, "verify_incoming", scripted_verify)
    # the rows, the match rate and the exit code all read the same reports
    result = run_matrix()
    assert [(values[6], values[8]) for values in result.rows] == [
        ("Spoofed", "false"),
        ("Inconclusive", "false"),
    ]
    assert exit_code_for(list(result.reports)) == 1
    assert result.to_csv().count(",false\n") == 2
    assert cli.main(["matrix"]) == 1
    assert "match rate: 0/2" in capsys.readouterr().out


def test_spoofed_judged_legit_counts_only_spoofed_cells(monkeypatch):
    # Both cells judged Legit: the genuine one matches, the spoofed one is
    # the outcome CIVE must never give, and the only one counted.
    names = ("matrix-dialing_b-cw0-vm0-genuine", "matrix-idle-cw0-vm0-spoofed")
    cells = [s for s in matrix_scenarios() if s.name in names]

    def legit(agent):
        features = cive.verify_incoming(agent).features
        return cive.decide(agent.number, InferredState.DIALING, features)

    monkeypatch.setattr(cive_sim.scenario, "matrix_scenarios", lambda: cells)
    monkeypatch.setattr(cive_sim.scenario, "verify_incoming", legit)
    result = run_matrix()
    assert [r.verdict.decision for r in result.reports] == [Decision.LEGIT] * 2
    assert result.spoofed_judged_legit == 1
    assert exit_code_for(list(result.reports)) == 1


def test_cli_parse_recovers_aucall(tmp_path, capsys):
    cli.main(["run", str(SCENARIOS / "c3.scn"), "--out", str(tmp_path)])
    capsys.readouterr()
    code = cli.main(["parse", str(tmp_path / "c3.trace.jsonl")])
    assert code == 0
    legs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    aucall = [l for l in legs if l["observer"] == "ep:+15550101"]
    assert len(aucall) == 1
    assert aucall[0]["inferred"] == "Connected"
    assert aucall[0]["features"]["alert_180"] == "call-waiting"


def _c1_with(tmp_path, old, new):
    text = (SCENARIOS / "c1.scn").read_text(encoding="utf-8")
    assert old in text
    return _write(tmp_path, text.replace(old, new, 1))


_CARRIER_LINE = "    enforce_caller_id: false\n"


@pytest.mark.parametrize(
    "old,new",
    [
        ("seed: 0", "seed: abc"),
        ("at_ms: 0", "at_ms: 1.5x"),
        (_CARRIER_LINE, _CARRIER_LINE + "    link_delay_ms: fifty\n"),
        (_CARRIER_LINE, _CARRIER_LINE + "    jitter_ms: 5ms\n"),
        ("seed: 0", "seed: 2.9"),
        ("at_ms: 0", "at_ms: 1.5"),
        ("seed: 0", "seed: true"),
        ("seed: 0", "seed: 1" + "0" * 5000),
        ("seed: 0", "seed: " + "[" * 600 + "0" + "]" * 600),
    ],
    ids=[
        "seed", "at_ms", "link_delay_ms", "jitter_ms", "seed-float", "at_ms-float", "seed-bool",
        "seed-5001-digits", "seed-nested-too-deep",
    ],
)
def test_cli_non_integer_value_is_bad_input(tmp_path, capsys, old, new):
    path = _c1_with(tmp_path, old, new)
    with pytest.raises(ScenarioParseError):
        load_scenario(path)
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_self_call_is_bad_input(tmp_path, capsys):
    # A line calling its own number would put both of its legs under one
    # Call-ID, and the callback would find the line busy with itself; a
    # party preset on a call with its own number is the same impossible state.
    for old, new, message in (
        ('target: "+15550101"', 'target: "+15550100"', "is its own originator"),
        ("state: idle\n", 'state: connected\n    peer: "+15550100"\n',
         r"party \+15550100: peer \+15550100 is its own number"),
    ):
        path = _c1_with(tmp_path, old, new)
        with pytest.raises(ScenarioValidationError, match=message):
            load_scenario(path)
        assert cli.main(["run", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "old,new,message",
    [
        ('"+15559900"   # E', '"+15550102"   # E', "duplicate party numbers"),
        ("  - id: cn-x\n", "  - id: cn-a\n", "duplicate carrier ids"),
        ("    carrier: cn-x\n", "    carrier: cn-z\n", "party +15559900: unknown carrier cn-z"),
        ("state: connected\n", "state: ringing\n", "party +15550100: bad state 'ringing'"),
        ('    peer: "+15550102"\n', "", "party +15550100: state connected needs a peer"),
        ('peer: "+15550102"', 'peer: "+15550177"', "party +15550100: peer +15550177 not registered"),
        ("at_ms: 0", "at_ms: -5", "origination at_ms must be >= 0"),
        ("ground_truth: spoofed", "ground_truth: maybe", "bad ground_truth: 'maybe'"),
        ("ground_truth: spoofed", "ground_truth: genuine",
         "claimed differs from originator but ground_truth is not spoofed"),
        ("carriers:\n", "carriers: 5\nunused:\n", "malformed scenario: 'int' object is not iterable"),
        ("    state: idle\n", "    state: idle\n    peer: B\n",
         "party peer: not an E.164-style number: 'B'"),
    ],
    ids=["duplicate-number", "duplicate-carrier", "unknown-carrier", "bad-state", "no-peer",
         "unregistered-peer", "negative-at_ms", "bad-ground-truth", "label-contradicts-origination",
         "carriers-not-a-list", "idle-peer-not-a-number"],
)
def test_cli_bad_c3_is_bad_input(tmp_path, capsys, old, new, message):
    text = (SCENARIOS / "c3.scn").read_text(encoding="utf-8")
    assert old in text
    path = _write(tmp_path, text.replace(old, new, 1))
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    prefix = f"{path}: " if message.startswith("malformed") else ""
    assert out == "" and err == f"error: {prefix}{message}\n"


def test_cli_dialing_preset_is_bad_input(tmp_path, capsys):
    # c2 with A preset dialing B: A's line is mid-dial with no INVITE behind
    # it, so E's spoof claiming A would meet that dial and be judged Legit.
    # A file cannot preset a dial; the matrix's Dialing(C) cells still run.
    text = (SCENARIOS / "c2.scn").read_text(encoding="utf-8")
    old = "    state: idle\n"
    assert old in text
    path = _write(tmp_path, text.replace(old, '    state: dialing\n    peer: "+15550101"\n', 1))
    with pytest.raises(ScenarioValidationError, match="party \\+15550100: bad state 'dialing'"):
        load_scenario(path)
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: party +15550100: bad state 'dialing'\n"
    cells = {s.name: s for s in matrix_scenarios()}
    cell = cells["matrix-dialing_other-cw0-vm0-spoofed"]
    assert isinstance(cell.parties[0].state, Dialing)
    report = run_scenario(cell)
    assert report.verdict.decision is Decision.SPOOFED and report.match


def test_cli_number_with_trailing_newline_is_bad_input(tmp_path, capsys):
    text = (SCENARIOS / "c1.scn").read_text(encoding="utf-8")
    path = _write(tmp_path, text.replace('"+15550100"', '"+15550100\\n"'))
    with pytest.raises(ScenarioValidationError, match="not an E.164-style number"):
        load_scenario(path)
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "name",
    ["a\\0b", "../escaped", "", "sub/c1", ".hidden", "-dash", "c1\\n", "caf\\u00e9"],
    ids=["nul", "parent-dir", "empty", "slash", "leading-dot", "leading-dash", "newline",
         "non-ascii"],
)
def test_cli_scenario_name_that_is_not_a_plain_file_name_is_bad_input(tmp_path, capsys, name):
    path = _c1_with(tmp_path, "name: c1\n", f'name: "{name}"\n')
    with pytest.raises(ScenarioValidationError, match="must be a plain file name"):
        load_scenario(path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert cli.main(["run", str(path), "--out", str(out_dir)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.scn", "out"]


@pytest.mark.parametrize(
    "old,new",
    [
        ("name: c1\n", "name:\n"),
        ("name: c1\n", "name: true\n"),
        ("  - id: cn-a\n", "  - id:\n"),
        ("    carrier: cn-a\n", "    carrier:\n"),
    ],
    ids=["empty-name", "boolean-name", "empty-carrier-id", "empty-party-carrier"],
)
def test_cli_text_field_that_is_not_a_string_is_bad_input(tmp_path, capsys, old, new):
    path = _c1_with(tmp_path, old, new)
    with pytest.raises(ScenarioParseError, match="must be a string"):
        load_scenario(path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert cli.main(["run", str(path), "--out", str(out_dir)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.scn", "out"]


_PARTY_LINE = "    state: idle\n"


@pytest.mark.parametrize(
    "old,new",
    [
        (_CARRIER_LINE, '    enforce_caller_id: "false"\n'),
        (_PARTY_LINE, _PARTY_LINE + '    call_waiting: "false"\n'),
        (_PARTY_LINE, _PARTY_LINE + '    voicemail_forward: "no"\n'),
        ("cive: true", 'cive: "true"'),
    ],
    ids=["enforce_caller_id", "call_waiting", "voicemail_forward", "cive"],
)
def test_cli_quoted_flag_is_bad_input(tmp_path, capsys, old, new):
    path = _c1_with(tmp_path, old, new)
    with pytest.raises(ScenarioParseError, match="must be true or false"):
        load_scenario(path)
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_yaml_syntax_error_is_one_line(tmp_path, capsys):
    # PyYAML's own message spans several lines: context, problem and marks.
    path = _write(tmp_path, "name: [unclosed\ncarriers: x\n")
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: YAML: expected ',' or ']', but got ':' at line 2, column 9\n"
    # A character YAML refuses to read has no mark: its message is joined onto one line.
    path = _write(tmp_path, "name: c\x07\n")
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: YAML: unacceptable character #x0007: ")
    assert err.count("\n") == 1, err


# Six levels of nine-fold YAML aliases, defined ahead of c1's keys: each level
# is built by reference, so the file stays small while the text of ``*x5``
# runs to millions of characters.
_ALIASES = (
    'aliases:\n  - &x0 ["+15550100", "+15550100", "+15550100", "+15550100", "+15550100"]\n'
    + "".join(f"  - &x{i} [{', '.join([f'*x{i - 1}'] * 9)}]\n" for i in range(1, 6))
)


def _c1_after_aliases(tmp_path, old, new):
    text = (SCENARIOS / "c1.scn").read_text(encoding="utf-8")
    assert old in text
    return _write(tmp_path, _ALIASES + text.replace(old, new, 1))


@pytest.mark.parametrize(
    "old,new",
    [
        ("    state: idle\n", "    state: *x5\n"),
        ("ground_truth: genuine", "ground_truth: *x5"),
        ('  - number: "+15550100"', "  - number: *x5"),
        ("    state: idle\n", "    state: connected\n    peer: *x5\n"),
        ("cive: true", "cive: *x5"),
        ("seed: 0", "seed: *x5"),
        ("name: c1", "name: *x5"),
    ],
    ids=["state", "ground_truth", "number", "peer", "flag", "integer", "name"],
)
def test_cli_alias_list_value_is_one_short_line(tmp_path, capsys, old, new):
    path = _c1_after_aliases(tmp_path, old, new)
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err[:300]
    assert len(err.encode()) < 300 and "a list" in err, err[:300]


def test_description_is_not_read(tmp_path):
    path = _c1_after_aliases(tmp_path, "description: A calls B", "description: *x5\nunused: A calls B")
    assert load_scenario(path) == load_scenario(SCENARIOS / "c1.scn")


def test_cli_unquoted_number_is_named_a_yaml_int(tmp_path, capsys):
    path = _c1_with(tmp_path, 'number: "+15550100"', "number: +15550100")
    with pytest.raises(ScenarioParseError, match="must be a quoted string, got int 15550100$"):
        load_scenario(path)
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: party number must be a quoted string, got int 15550100\n"


@pytest.mark.parametrize("key,value", [("link_delay_ms", -500), ("jitter_ms", -5)])
def test_negative_link_timing_is_rejected(tmp_path, capsys, key, value):
    path = _c1_with(tmp_path, _CARRIER_LINE, _CARRIER_LINE + f"    {key}: {value}\n")
    with pytest.raises(ScenarioValidationError, match=f"carrier cn-a: {key} must be >= 0"):
        load_scenario(path)
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: carrier cn-a: {key} must be >= 0\n"
    # zero is a valid delay
    load_scenario(_c1_with(tmp_path, _CARRIER_LINE, _CARRIER_LINE + f"    {key}: 0\n"))


@pytest.mark.parametrize(
    "old,new",
    [("at_ms: 0", "at_ms: 90000"), (_CARRIER_LINE, _CARRIER_LINE + "    link_delay_ms: 70000\n")],
    ids=["at_ms", "link_delay_ms"],
)
def test_cli_scenario_past_the_sim_budget_is_bad_input(tmp_path, capsys, old, new):
    path = _c1_with(tmp_path, old, new)
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out_dir)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert "past the 60000 sim-ms budget" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, head", [
    (["run", str(SCENARIOS / "c1.scn"), "--seed", "abc"],
     "error: cive-sim run: argument --seed: invalid int value: 'abc'"),
    (["bogus"], "error: cive-sim: argument command: invalid choice: 'bogus'"),
    (["parse"], "error: cive-sim parse: the following arguments are required: trace"),
    ([], "error: cive-sim: the following arguments are required: command"),
    (["matrix", "--out"], "error: cive-sim matrix: argument --out: expected one argument"),
], ids=["seed-not-an-integer", "unknown-command", "parse-without-trace", "no-command",
        "out-without-dir"])
def test_cli_bad_command_line_is_bad_input(capsys, argv, head):
    # argparse would print its usage and exit 2, the inconclusive code
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(head) and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["parse", "-h"]])
def test_cli_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: cive-sim") and err == ""


_LONG = 3000


@pytest.mark.parametrize("old, new, head", [
    ("name: c1\n", 'name: "' + "\u00e9" * _LONG + '"\n', "error: name '\u00e9\u00e9"),
    ('number: "+15550101"', f'number: "+1{"5" * _LONG}"', "error: party number: "),
    ("    carrier: cn-x\n", f"    carrier: x{'x' * _LONG}\n", "error: party +15559900: "),
    ("state: idle\n", f"state: {'a' * _LONG}\n", "error: party +15550100: bad state 'aaa"),
], ids=["name", "party-number", "carrier-id", "state"])
def test_cli_long_scenario_value_gives_a_short_error_line(tmp_path, capsys, old, new, head):
    path = _c1_with(tmp_path, old, new)
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(head) and err.count("\n") == 1, err[:400]
    assert len(err.encode("utf-8")) < cli.ERROR_LINE_BYTES and err.endswith("...\n")


def test_cli_long_seed_env_gives_a_short_error_line(capsys, monkeypatch):
    monkeypatch.setenv("CIVE_SIM_SEED", "1" * 5000)  # past int()'s digit limit
    assert cli.main(["run", str(SCENARIOS / "c1.scn")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: CIVE_SIM_SEED must be an integer, got '111")
    assert err.count("\n") == 1 and len(err.encode("utf-8")) < cli.ERROR_LINE_BYTES


@pytest.mark.parametrize("field, value, reason", [
    ("sip", "X" * 4000 + "\n\n", ": MalformedStartLine: "),
    ("dir", "x" * 4000, ": dir 'xxx"),
], ids=["sip", "dir"])
def test_cli_parse_long_field_gives_a_short_error_line(tmp_path, capsys, field, value, reason):
    rows = _c3_trace_rows(tmp_path)
    rows[0][field] = value
    err = _parse_fails(tmp_path, capsys, [json.dumps(row) for row in rows])
    assert err.startswith(f"error: {tmp_path / 'bad.trace.jsonl'}:1{reason}"), err[:400]
    assert len(err.encode("utf-8")) < cli.ERROR_LINE_BYTES


def test_clipped_keeps_a_short_line_and_cuts_a_long_one_at_a_character():
    bound = cli.ERROR_LINE_BYTES
    fits = "e" * (bound - 2)  # with its newline, one byte under the bound
    assert cli._clipped(fits) == fits
    assert cli._clipped(fits + "e") == "e" * (bound - 5) + "..."
    # a two-byte character that would straddle the cut is left out whole
    assert cli._clipped("e" * (bound - 6) + "\u00e9" * 10) == "e" * (bound - 6) + "..."
    # a lone surrogate counts as the escape stderr writes for it
    assert cli._clipped("e" * (bound - 8) + "\udc80") == "e" * (bound - 8) + "\udc80"
    assert cli._clipped("e" * (bound - 8) + "\udc80e") == "e" * (bound - 8) + "\\ud..."
    for line in (fits + "e", "\u00e9" * bound, "\U0001f4de" * bound, "\udc80" * bound):
        assert len((cli._clipped(line) + "\n").encode("utf-8", "backslashreplace")) < bound


def test_cli_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.scn"
    missing.write_text("name: broken\n")
    code = cli.main(["run", str(missing)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"name: caf\xe9\n"], ids=["missing", "not-utf8"])
def test_cli_unreadable_scenario_is_bad_input(tmp_path, capsys, content):
    path = tmp_path / "c.scn"
    if content is not None:
        path.write_bytes(content)
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err


@pytest.mark.parametrize("command", ["run", "parse"])
def test_cli_names_a_missing_file_with_a_newline_on_one_line(tmp_path, capsys, command):
    missing = tmp_path / "a\nb"
    assert cli.main([command, str(missing)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith(f"error: cannot read {tmp_path}/a\\nb: "), err


@pytest.mark.parametrize("command, name, text, tail", [
    ("run", "top\r\nlevel.scn", "- a list\n", ": expected a mapping at top level\n"),
    ("parse", "row\x1b[2K\u2028.trace.jsonl", '{"t_ms": 0}\n', ":1: row has no 'from_hop' field\n"),
], ids=["run", "parse"])
def test_cli_escapes_control_characters_in_a_named_file(tmp_path, capsys, command, name, text, tail):
    # carriage return, newline, escape and the Unicode line separator
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert cli.main([command, str(path)]) == 3
    out, err = capsys.readouterr()
    escaped = name.encode("unicode_escape").decode("ascii")
    assert out == "" and err == f"error: {tmp_path}/{escaped}{tail}", err


def test_error_line_escapes_each_control_character_once():
    controls = "".join(map(chr, (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)))
    escaped = controls.translate(cli._ESCAPES)
    assert escaped == repr(controls)[1:-1]
    assert escaped.isprintable() and escaped.isascii()
    assert "tab\there \u00e9".translate(cli._ESCAPES) == "tab\\there \u00e9"


@pytest.mark.parametrize("command", ["run", "matrix"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_cli_out_that_is_not_a_directory_is_bad_input(tmp_path, capsys, command, below):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    out_dir = taken / "sub" if below else taken
    args = [command, *([str(SCENARIOS / "c1.scn")] if command == "run" else []), "--out", str(out_dir)]
    assert cli.main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot write output: ") and err.count("\n") == 1, err
    assert taken.read_text() == "keep me\n"


def test_cli_run_onto_a_directory_named_like_an_output_file_is_bad_input(tmp_path, capsys):
    (tmp_path / "c1.trace.jsonl").mkdir()
    assert cli.main(["run", str(SCENARIOS / "c1.scn"), "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot write output: ") and err.count("\n") == 1, err


def _output_files(out_dir):
    return {p.relative_to(out_dir): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("stale", ["longer", "shorter", "missing"])
@pytest.mark.parametrize("run", [
    run_matrix,
    lambda out_dir: run_scenario(load_scenario(SCENARIOS / "c1.scn"), out_dir),
], ids=["matrix", "c1"])
def test_rerun_over_stale_out_files_gives_a_fresh_runs_bytes(tmp_path, run, stale):
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    run(fresh)
    expected = _output_files(fresh)
    kept_mode = 0o640  # an existing file keeps its mode, as with open("w")
    for rel, data in expected.items():
        (rerun / rel).parent.mkdir(parents=True, exist_ok=True)
        if stale == "missing":
            continue
        bad = b"x" * (len(data) + 4096) if stale == "longer" else b"y" * (len(data) // 3)
        (rerun / rel).write_bytes(bad)
        (rerun / rel).chmod(kept_mode)
    run(rerun)
    assert _output_files(rerun) == expected
    umask = os.umask(0)
    os.umask(umask)
    mode = 0o666 & ~umask if stale == "missing" else kept_mode
    assert {stat.S_IMODE((rerun / rel).stat().st_mode) for rel in expected} == {mode}


def _c3_trace_rows(tmp_path):
    run_scenario(load_scenario(SCENARIOS / "c3.scn"), out_dir=tmp_path)
    text = (tmp_path / "c3.trace.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


def _parse_fails(tmp_path, capsys, lines):
    """Run ``cive-sim parse`` on the given lines; return its one error line."""
    path = tmp_path / "bad.trace.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code = cli.main(["parse", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_cli_parse_missing_file(tmp_path, capsys):
    missing = tmp_path / "absent.trace.jsonl"
    assert cli.main(["parse", str(missing)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing}: ") and err.count("\n") == 1


def test_cli_parse_non_utf8_file(tmp_path, capsys):
    golden = (REPO / "tests" / "golden" / "c2.trace.jsonl").read_bytes()
    path = tmp_path / "bad.trace.jsonl"
    path.write_bytes(golden.replace(b"Trying", b"Tr\xe9ying", 1))
    assert cli.main(["parse", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {path}: not UTF-8 text\n"


def test_cli_parse_skips_a_call_whose_invite_leaves_a_network_hop(tmp_path, capsys):
    # c2's first row is the spoofed INVITE leaving E's phone; sent from a
    # network hop instead, its call has no endpoint to observe it.
    golden = REPO / "tests" / "golden"
    lines = (golden / "c2.trace.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    rows[0]["from_hop"] = "net:cn-x"
    path = tmp_path / "c2.trace.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert cli.main(["parse", str(path)]) == 0
    out, err = capsys.readouterr()
    expected = (golden / "c2.parse.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    assert err == "" and [out] == [line for line in expected if '"c0002@sim"' in line]


def test_cli_parse_malformed_json(tmp_path, capsys):
    lines = [json.dumps(row) for row in _c3_trace_rows(tmp_path)]
    lines[2] = lines[2][:-1]
    err = _parse_fails(tmp_path, capsys, lines)
    assert "bad.trace.jsonl:3: malformed JSON" in err


def test_cli_parse_row_without_sip(tmp_path, capsys):
    rows = _c3_trace_rows(tmp_path)
    del rows[4]["sip"]
    err = _parse_fails(tmp_path, capsys, [json.dumps(row) for row in rows])
    assert "bad.trace.jsonl:5: row has no 'sip' field" in err


def test_cli_parse_mistyped_field(tmp_path, capsys):
    rows = _c3_trace_rows(tmp_path)
    rows[1]["t_ms"] = str(rows[1]["t_ms"])
    err = _parse_fails(tmp_path, capsys, [json.dumps(row) for row in rows])
    assert "bad.trace.jsonl:2: field 't_ms' must be a JSON integer" in err


def test_cli_parse_message_outside_profile(tmp_path, capsys):
    rows = _c3_trace_rows(tmp_path)
    rows[6]["sip"] = "HELLO sip:+15550100\nCall-ID: x\n\n"
    err = _parse_fails(tmp_path, capsys, [json.dumps(row) for row in rows])
    assert "bad.trace.jsonl:7: MalformedStartLine: " in err


def test_cli_parse_unknown_direction(tmp_path, capsys):
    golden = (REPO / "tests" / "golden" / "c2.trace.jsonl").read_text(encoding="utf-8")
    lines = golden.replace('"dir": "egress"', '"dir": "EGRESS"').splitlines()
    err = _parse_fails(tmp_path, capsys, lines)
    assert "bad.trace.jsonl:1: dir 'EGRESS' is not one of ['egress', 'ingress']" in err


def _sideways_c3_lines():
    """c3's trace with the ``dir`` of its second row made ``sideways``."""
    lines = (REPO / "tests" / "golden" / "c3.trace.jsonl").read_text(encoding="utf-8").splitlines()
    lines[1] = re.sub(r'"dir": "[a-z]+"', '"dir": "sideways"', lines[1], count=1)
    assert '"dir": "sideways"' in lines[1]
    return lines


def test_cli_parse_reports_a_later_reader_error_before_a_leg_error(tmp_path, capsys):
    # Line 2's bad dir stops the leg builder, but the rest of the file is
    # still read: the cut JSON object on line 10 is reported, as when the
    # whole file was read before any leg was built.
    lines = _sideways_c3_lines()
    lines[9] = lines[9][:-1]
    try:
        json.loads(lines[9])
    except json.JSONDecodeError as exc:
        reason = exc.msg
    err = _parse_fails(tmp_path, capsys, lines)
    assert err == f"error: {tmp_path / 'bad.trace.jsonl'}:10: malformed JSON: {reason}\n"


def test_cli_parse_names_a_bad_dir_when_no_reader_error_follows(tmp_path, capsys):
    err = _parse_fails(tmp_path, capsys, _sideways_c3_lines())
    assert err == (f"error: {tmp_path / 'bad.trace.jsonl'}:2: "
                   "dir 'sideways' is not one of ['egress', 'ingress']\n")


@pytest.mark.parametrize("compact", [False, True], ids=["fast-path", "json-loads"])
def test_cli_parse_names_a_bad_dir_after_blank_lines_by_its_file_line(tmp_path, capsys, compact):
    # A row carries its own line number, so blank lines before it count,
    # whether its line is read on the fast path or by json.loads.
    lines = _sideways_c3_lines()
    if compact:
        lines[1] = json.dumps(json.loads(lines[1]), separators=(",", ":"))
    lines = ["", lines[0], " \t", "", *lines[1:]]
    err = _parse_fails(tmp_path, capsys, lines)
    assert err == (f"error: {tmp_path / 'bad.trace.jsonl'}:5: "
                   "dir 'sideways' is not one of ['egress', 'ingress']\n")


def test_cli_parse_leg_out_of_order(tmp_path, capsys):
    rows = _c3_trace_rows(tmp_path)
    observer = rows[0]["from_hop"]
    late = next(
        i for i, row in enumerate(rows) if row["dir"] == "ingress" and row["to_hop"] == observer
    )
    rows[late]["t_ms"] = rows[0]["t_ms"] - 1
    # a leading blank line: the message counts file lines, not rows
    err = _parse_fails(tmp_path, capsys, ["", *(json.dumps(row) for row in rows)])
    assert f"bad.trace.jsonl:{late + 2}: " in err
    assert "timestamps must be non-decreasing" in err


@pytest.mark.parametrize(
    "value", ["1" + "0" * 5000, "[" * 20_000 + "0" + "]" * 20_000], ids=["5001-digits", "deep"]
)
def test_cli_parse_oversized_value_is_bad_input(tmp_path, capsys, value):
    lines = [json.dumps(row) for row in _c3_trace_rows(tmp_path)]
    lines[3] = lines[3].replace(f'"t_ms": {json.loads(lines[3])["t_ms"]}', f'"t_ms": {value}', 1)
    err = _parse_fails(tmp_path, capsys, lines)
    assert "bad.trace.jsonl:4: unreadable JSON: " in err


def _reference_read(lines, path):
    """The reader without a fast path: ``json.loads`` and ``_row_problem`` on each line.

    Returns the rows as JSON, each a list in ``_ROW_FIELDS`` order, so
    field order and JSON types count, with their line numbers, or the one
    error line ``read_trace`` is expected to raise.
    """
    rows, line_numbers = [], []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"{path}:{lineno}: malformed JSON: {exc.msg}"
        except ValueError as exc:
            return f"{path}:{lineno}: unreadable JSON: {exc}"
        problem = netsim._row_problem(row)
        if problem is not None:
            return f"{path}:{lineno}: {problem}"
        rows.append([row[name] for name in netsim._ROW_FIELDS])
        line_numbers.append(lineno)
    return json.dumps(rows), line_numbers


def _read_outcome(path):
    """Every row ``read_trace`` yields, as JSON without its leading line
    number, with the line numbers, or the error line it raises."""
    try:
        rows = list(netsim.read_trace(path))
    except netsim.TraceFileError as exc:
        return str(exc)
    assert all(type(row) is tuple for row in rows)
    return json.dumps([row[1:] for row in rows]), [row[0] for row in rows]


def _mutate_row_line(rng, line):
    """One way to write the row on ``line`` differently, or to break it."""
    row = json.loads(line)
    kind = rng.randrange(12)
    if kind == 0:  # reordered keys
        items = list(row.items())
        rng.shuffle(items)
        return json.dumps(dict(items))
    if kind == 1:  # compact separators
        return json.dumps(row, separators=(",", ":"))
    if kind == 2:  # an extra space anywhere
        pos = rng.randrange(len(line) + 1)
        return line[:pos] + " " + line[pos:]
    if kind == 3:  # "/" written as an escape in the sip literal, or in a hop
        if rng.random() < 0.5:
            return line.replace("/", "\\/")
        return line.replace('"ep:', '"ep\\/', 1)
    if kind == 4:  # non-ASCII text, raw or escaped
        name = rng.choice(("carrier", "from_hop", "sip"))
        row[name] = row[name] + rng.choice(("\u00e9", "\u2028", "\U0001f4de", "\x85"))
        return json.dumps(row, ensure_ascii=rng.random() < 0.5)
    if kind == 5:  # an odd t_ms
        t_ms = rng.choice(("-1", "-0", "007", "0", "7.0", "1e3", "1" + "0" * 5000, '"7"'))
        return line.replace(f'"t_ms": {row["t_ms"]}', f'"t_ms": {t_ms}', 1)
    if kind == 6:  # truncated
        return line[: rng.randrange(len(line))]
    if kind == 7:  # an escape, or a raw control character, that JSON does not allow
        pos = line.index('"sip": "') + 8 + rng.randrange(20)
        return line[:pos] + rng.choice(("\\x", "\\u12", "\t", "\x00", "\\")) + line[pos:]
    if kind == 8:  # a missing, extra or repeated field
        name = rng.choice(list(row))
        if rng.random() < 0.5:
            del row[name]
            return json.dumps(row)
        return line[:-1] + f', "{rng.choice((name, "note"))}": {json.dumps(row[name])}}}'
    if kind == 9:  # a field of the wrong JSON type
        name = rng.choice(list(row))
        row[name] = rng.choice((None, True, 1, "1", [], {}))
        return json.dumps(row)
    if kind == 10:  # surrounding whitespace, or not an object
        return rng.choice((" " + line, line + " ", "\t" + line, f"[{line}]", "null"))
    pos = rng.randrange(len(line))  # one character flipped
    return line[:pos] + chr(ord(line[pos]) ^ (1 << rng.randrange(7))) + line[pos + 1 :]


def test_read_trace_matches_json_loads_on_golden_seeded_and_mutated_rows(tmp_path, monkeypatch):
    rng = random.Random(20261018)
    golden = REPO / "tests" / "golden"
    traces = [
        (golden / f"{name}.trace.jsonl").read_text(encoding="utf-8").splitlines()
        for name in ("c1", "c2", "c3")
    ]
    rows, _ = loaded_federation(7, 40)
    traces.append([json.dumps(row) for row in rows])
    assert all(
        TRACE_HEAD_RE.match(line) and line.endswith("}") for trace in traces for line in trace
    )
    fallback = []  # for each line json.loads read: whether the row head matched it
    general_row = netsim._general_row

    def counted_general_row(line, path, lineno):
        fallback.append(TRACE_HEAD_RE.match(line) is not None)
        return general_row(line, path, lineno)

    monkeypatch.setattr(netsim, "_general_row", counted_general_row)
    files = ["\n".join(lines) + "\n" for lines in traces]
    lines = [line for trace in traces for line in trace]
    for _ in range(10_000):
        picked = rng.sample(lines, rng.choice((1, 2, 3)))
        i = rng.randrange(len(picked))
        picked[i] = _mutate_row_line(rng, picked[i])
        if rng.random() < 0.2:
            picked.insert(rng.randrange(len(picked) + 1), rng.choice(("", " ", "\t")))
        files.append("\n".join(picked) + rng.choice(("\n", "")))
    path = tmp_path / "t.trace.jsonl"

    def check(text):
        path.write_text(text, encoding="utf-8")
        outcome = _read_outcome(path)
        assert outcome == _reference_read(io.StringIO(text, newline=None), path), text[:300]
        return outcome

    # a file stops at its first bad row, so each failing text gets a file of
    # its own while the texts read whole share a file, a few hundred at a time
    readable = []
    errors = 0
    for text in files:
        if isinstance(_reference_read(io.StringIO(text, newline=None), path), str):
            check(text)
            errors += 1
        else:
            readable.append(text.removesuffix("\n"))
    before = len(fallback)
    read = 0
    for start in range(0, len(readable), 300):
        read += len(check("\n".join(readable[start : start + 300]) + rng.choice(("\n", "")))[1])
    # the fast path, the fallback that reads a row and the one that rejects it
    # are all exercised, and so is a head match whose tail, literal or integer
    # does not decode
    slow = len(fallback) - before
    declined = sum(fallback)
    assert read - slow > 8_000 and slow > 3_000 and errors > 3_000 and declined > 300, (
        read - slow, slow, errors, declined,
    )


@pytest.mark.parametrize(
    "lineno, edit, error",
    [
        (3, lambda line: line[:-1] + "]", ":3: malformed JSON: "),
        (3, lambda line: line[:-1], ":3: malformed JSON: "),
        (3, lambda line: line[:-1] + ' , "note": 1}', None),
        (3, lambda line: line[:-1] + " }", None),
        (2, lambda line: line[:-1] + "]", ":2: malformed JSON: "),
        (2, lambda line: line[:-1], ":2: malformed JSON: "),
    ],
    ids=[
        "not-brace-after-literal",
        "no-closing-brace",
        "literal-then-a-field",
        "literal-then-a-space",
        "cached-literal-not-brace-after",
        "cached-literal-no-closing-brace",
    ],
)
def test_read_trace_checks_what_follows_the_row_head(tmp_path, lineno, edit, error):
    # c3's lines 1 and 2 carry the same sip literal, so line 2's is cached
    # when it is read; line 3's is new to the file
    lines = (REPO / "tests" / "golden" / "c3.trace.jsonl").read_text(encoding="utf-8").splitlines()
    literals = [line.split('"sip": ', 1)[1] for line in lines[:3]]
    assert literals[0] == literals[1] != literals[2]
    lines[lineno - 1] = edit(lines[lineno - 1])
    assert TRACE_HEAD_RE.match(lines[lineno - 1])
    text = "\n".join(lines) + "\n"
    path = tmp_path / "t.trace.jsonl"
    path.write_text(text, encoding="utf-8")
    outcome = _read_outcome(path)
    assert outcome == _reference_read(io.StringIO(text, newline=None), path)
    if error is None:
        assert outcome[1] == list(range(1, len(lines) + 1))
    else:
        assert outcome.startswith(f"{path}{error}")


def test_decode_literal_takes_one_whole_literal():
    assert netsim._decode_literal('"a\\nb"') == "a\nb"
    for literal in ('"ab" ', '"ab"x', '"a"b"', '"ab'):
        with pytest.raises(ValueError):
            netsim._decode_literal(literal)


def test_twin_rows_share_one_sip_string():
    rows = list(netsim.read_trace(str(REPO / "tests" / "golden" / "c3.trace.jsonl")))
    by_text = {}
    for row in rows:
        assert by_text.setdefault(row[5], row[5]) is row[5]
    assert len(by_text) < len(rows)


def test_read_trace_decodes_a_third_copy_of_a_literal_again(tmp_path, monkeypatch):
    # A literal leaves the cache when its twin row reads it, so a third row
    # with the same literal decodes it again: the cache holds only the
    # messages in flight, and the rows are what json.loads reads.
    lines = (REPO / "tests" / "golden" / "c3.trace.jsonl").read_text(encoding="utf-8").splitlines()
    literal = lines[0].split('"sip": ', 1)[1][:-1]
    assert lines[1].endswith(f'"sip": {literal}}}')
    lines.append(lines[1])
    text = "\n".join(lines) + "\n"
    path = tmp_path / "t.trace.jsonl"
    path.write_text(text, encoding="utf-8")
    decoded = []
    decode = netsim._decode_literal

    def counting(literal):
        decoded.append(literal)
        return decode(literal)

    monkeypatch.setattr(netsim, "_decode_literal", counting)
    rows = list(netsim.read_trace(str(path)))
    assert decoded.count(literal) == 2
    assert len(decoded) == len(set(decoded)) + 1
    assert rows[0][5] is rows[1][5] and rows[-1][5] == rows[0][5]
    assert _read_outcome(path) == _reference_read(io.StringIO(text, newline=None), path)


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "cive_sim.cli", "run", str(SCENARIOS / "c1.scn")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["decision"] == "Legit"


_YAML_GUARD = """\
import sys
import cive_sim
assert "yaml" not in sys.modules, "import cive_sim"
from cive_sim import cli
assert "yaml" not in sys.modules, "import cive_sim.cli"
assert cli.main(["matrix"]) == 0
assert "yaml" not in sys.modules, "matrix"
assert cli.main(["parse", sys.argv[1]]) == 0
assert "yaml" not in sys.modules, "parse"
from cive_sim.scenario import load_scenario
load_scenario(sys.argv[2])
assert "yaml" in sys.modules, "load_scenario"
"""


def test_only_load_scenario_imports_yaml():
    # A fresh interpreter: matrix and parse never read YAML, so PyYAML is
    # imported by the first scenario file read, not with the package.
    proc = subprocess.run(
        [sys.executable, "-c", _YAML_GUARD,
         str(REPO / "tests" / "golden" / "c2.trace.jsonl"), str(SCENARIOS / "c1.scn")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
