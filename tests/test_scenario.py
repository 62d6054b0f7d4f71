import dataclasses
import io
import itertools
import json
import os
import random
import stat
import subprocess
import sys

import pytest

from conftest import REPO, SCENARIOS, loaded_federation

import cive_sim.scenario
from cive_sim.cive import Decision, InferredState
from cive_sim.scenario import (
    GroundTruth,
    RunReport,
    CarrierSpec,
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
from cive_sim import cive, cli
from cive_sim.netsim import TRACE_LINE_RE, Federation
from cive_sim.sip_core import PhoneNumber


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
    a = next(p for p in s.parties if p.number == "+15550100")
    assert a.state == "connected" and a.call_waiting and a.peer == "+15550102"


def _write(tmp_path, text):
    path = tmp_path / "bad.scn"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_rejects_claimed_truth_contradiction(tmp_path):
    text = (SCENARIOS / "c2.scn").read_text().replace("ground_truth: spoofed", "ground_truth: genuine")
    with pytest.raises(ScenarioValidationError):
        load_scenario(_write(tmp_path, text))


def test_load_rejects_genuine_labelled_spoofed(tmp_path):
    text = (SCENARIOS / "c1.scn").read_text().replace("ground_truth: genuine", "ground_truth: spoofed")
    with pytest.raises(ScenarioValidationError):
        load_scenario(_write(tmp_path, text))


def test_load_rejects_unregistered_numbers(tmp_path):
    text = (SCENARIOS / "c2.scn").read_text().replace('claimed: "+15550100"', 'claimed: "+15550199"')
    with pytest.raises(ScenarioValidationError):
        load_scenario(_write(tmp_path, text))


def test_load_rejects_bad_yaml(tmp_path):
    with pytest.raises(ScenarioParseError):
        load_scenario(_write(tmp_path, "name: [unclosed"))
    with pytest.raises(ScenarioParseError):
        load_scenario(_write(tmp_path, "- just\n- a list\n"))


def test_load_rejects_missing_peer(tmp_path):
    text = (SCENARIOS / "c3.scn").read_text().replace('    peer: "+15550102"\n', "", 1)
    with pytest.raises(ScenarioValidationError):
        load_scenario(_write(tmp_path, text))


def test_run_c1_legit(tmp_path):
    report = run_scenario(load_scenario(SCENARIOS / "c1.scn"), tmp_path)
    assert report.verdict.decision is Decision.LEGIT
    assert report.verdict.inferred is InferredState.DIALING
    assert report.match is True and not report.inconclusive
    assert (tmp_path / "c1.trace.jsonl").exists()
    assert (tmp_path / "c1.report.json").exists()


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
    report = run_scenario(s, tmp_path, cive_enabled=False)
    assert report.verdict is None and report.match is None
    assert report.b_display == "+15550100"
    assert report.policy_violations == 0


def test_run_c2_strict_policy_blocks(tmp_path):
    s = load_scenario(SCENARIOS / "c2.scn")
    carriers = tuple(
        CarrierSpec(c.id, enforce_caller_id=(c.id == "cn-x"), link_delay_ms=c.link_delay_ms)
        for c in s.carriers
    )
    strict = Scenario(
        name=s.name, carriers=carriers, parties=s.parties,
        origination=s.origination, cive_enabled=True, seed=s.seed,
        ground_truth=s.ground_truth,
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


def test_run_overrides_equal_a_replaced_scenario(tmp_path):
    # The seed and cive_enabled keywords act only as a scenario carrying
    # those values would; jitter makes the seed show in the trace.
    s = load_scenario(SCENARIOS / "c2.scn")
    s = dataclasses.replace(
        s, carriers=tuple(dataclasses.replace(c, jitter_ms=40) for c in s.carriers)
    )
    out1, out2, seed0 = tmp_path / "one", tmp_path / "two", tmp_path / "seed0"
    report = run_scenario(s, out1, seed=7, cive_enabled=False)
    run_scenario(dataclasses.replace(s, seed=7, cive_enabled=False), out2)
    run_scenario(s, seed0, cive_enabled=False)
    assert (report.seed, report.cive_enabled, report.verdict) == (7, False, None)
    for name in ("c2.trace.jsonl", "c2.report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "c2.trace.jsonl").read_bytes() != (seed0 / "c2.trace.jsonl").read_bytes()


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


@pytest.mark.parametrize("name", ["c1", "c2", "c3"])
def test_run_reproduces_golden_trace_and_report(tmp_path, name):
    run_scenario(load_scenario(SCENARIOS / f"{name}.scn"), tmp_path)
    for suffix in ("trace.jsonl", "report.json"):
        golden = REPO / "tests" / "golden" / f"{name}.{suffix}"
        assert (tmp_path / f"{name}.{suffix}").read_bytes() == golden.read_bytes(), suffix


@pytest.mark.parametrize("name", ["c1", "c2", "c3"])
def test_parse_reproduces_golden_output(capsys, name):
    golden = REPO / "tests" / "golden"
    assert cli.main(["parse", str(golden / f"{name}.trace.jsonl")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (golden / f"{name}.parse.jsonl").read_bytes()


def test_matrix_covers_grid_and_matches_golden(tmp_path):
    scenarios = matrix_scenarios()
    assert len(scenarios) == 20
    result = run_matrix(tmp_path)
    assert len(result.rows) == 20
    assert result.all_match
    assert result.spoofed_judged_legit == 0
    golden = (REPO / "tests" / "golden" / "matrix.csv").read_text(encoding="utf-8")
    assert (tmp_path / "matrix.csv").read_text(encoding="utf-8") == golden
    assert result.to_csv() == golden


def test_exit_code_logic():
    def report(match, inconclusive=False):
        return RunReport(
            scenario="x", ground_truth=GroundTruth.GENUINE, cive_enabled=True,
            seed=0, b_display=None, verdict=None, match=match,
            inconclusive=inconclusive, policy_violations=0, sim_ms=0,
            trace_file=None,
        )

    assert exit_code_for([report(True)]) == 0
    assert exit_code_for([report(None)]) == 0  # no verification ran
    assert exit_code_for([report(False, inconclusive=True)]) == 2
    assert exit_code_for([report(False)]) == 1
    assert exit_code_for([report(False), report(False, inconclusive=True)]) == 1


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
        verdict, trace = cive.verify_incoming(agent)
        return cive.decide(agent.ctx, next(scripted), verdict.features), trace

    monkeypatch.setattr(cive_sim.scenario, "matrix_scenarios", lambda: cells)
    monkeypatch.setattr(cive_sim.scenario, "verify_incoming", scripted_verify)
    # the rows, all_match and the exit code all read the same reports
    result = run_matrix()
    assert [(values[6], values[8]) for values in result.rows] == [
        ("Spoofed", "false"),
        ("Inconclusive", "false"),
    ]
    assert not result.all_match and exit_code_for(list(result.reports)) == 1
    assert result.to_csv().count(",false\n") == 2
    assert cli.main(["matrix"]) == 1
    assert "match rate: 0/2" in capsys.readouterr().out


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
    "value", ["1" + "0" * 5000, "[" * 5000 + "0" + "]" * 5000], ids=["5001-digits", "deep"]
)
def test_cli_parse_oversized_value_is_bad_input(tmp_path, capsys, value):
    lines = [json.dumps(row) for row in _c3_trace_rows(tmp_path)]
    lines[3] = lines[3].replace(f'"t_ms": {json.loads(lines[3])["t_ms"]}', f'"t_ms": {value}', 1)
    err = _parse_fails(tmp_path, capsys, lines)
    assert "bad.trace.jsonl:4: unreadable JSON: " in err


def _reference_read(lines, path):
    """The reader without a fast path: ``json.loads`` and ``_row_problem`` on each line.

    Returns the rows as JSON, so key order counts, with their line numbers,
    or the one error line ``_read_trace`` is expected to raise.
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
        problem = cli._row_problem(row)
        if problem is not None:
            return f"{path}:{lineno}: {problem}"
        rows.append(row)
        line_numbers.append(lineno)
    return json.dumps(rows), line_numbers


def _read_outcome(path):
    try:
        rows, line_numbers = cli._read_trace(path)
    except cli.TraceFileError as exc:
        return str(exc)
    return json.dumps(rows), line_numbers


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
    assert all(TRACE_LINE_RE.fullmatch(line) for trace in traces for line in trace)
    fallback = []  # for each line json.loads read: whether the fast regex matched it
    general_row = cli._general_row

    def counted_general_row(line, path, lineno):
        fallback.append(TRACE_LINE_RE.fullmatch(line) is not None)
        return general_row(line, path, lineno)

    monkeypatch.setattr(cli, "_general_row", counted_general_row)
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
    # are all exercised, and so is a match whose literal or integer does not decode
    slow = len(fallback) - before
    declined = sum(fallback)
    assert read - slow > 8_000 and slow > 3_000 and errors > 3_000 and declined > 300, (
        read - slow, slow, errors, declined,
    )


def test_twin_rows_share_one_sip_string():
    rows, _ = cli._read_trace(str(REPO / "tests" / "golden" / "c3.trace.jsonl"))
    by_text = {}
    for row in rows:
        assert by_text.setdefault(row["sip"], row["sip"]) is row["sip"]
    assert len(by_text) < len(rows)


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "cive_sim.cli", "run", str(SCENARIOS / "c1.scn")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["decision"] == "Legit"
