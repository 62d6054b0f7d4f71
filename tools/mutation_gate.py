"""Mutation gate for the verdict path.

Each mutant in ``MUTANTS`` replaces one exact source snippet of
``src/cive_sim``. For each one the script copies ``src/`` to a temporary
directory, applies the mutant to the copy (never to the checkout), and runs
the tier-1 suite against it as ``pytest -q -x -p no:cacheprovider`` with
``PYTHONPATH`` set to the copy. A mutant is killed when the suite fails.
The unmutated copy runs first and must pass.

    python tools/mutation_gate.py

Prints one line per mutant, then ``killed K of N``. Exits 1 when a mutant
that is not in ``EQUIVALENT`` survives, or when one that is gets killed,
and 2 when a snippet is not found exactly once or the gate cannot run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/cive_sim
    old: str
    new: str


MUTANTS = (
    Mutant("cancel-sent-twice", "cive.py",
           "if self.fold.final is None and not self.fold.sent_cancel:",
           "if self.fold.final is None:"),
    Mutant("teardown-prefers-cancel", "cive.py",
           "teardown = BYE if self.sent_bye else CANCEL if self.sent_cancel else None",
           "teardown = CANCEL if self.sent_cancel else BYE if self.sent_bye else None"),
    Mutant("patience-outlives-final", "netsim.py",
           "self.net.cancel_timer(leg.patience_timer)\n                leg.patience_timer = None",
           "leg.patience_timer = None"),
    Mutant("grace-armed-on-183", "cive.py",
           "elif code == 180 and msg.pem is not None",
           "if code == 183 and msg.pem is not None"),
    Mutant("busy-rule-scanned-last", "cive.py",
           "for matches, state, _, _ in _RULES:",
           "for matches, state, _, _ in _RULES[1:] + _RULES[:1]:"),
    Mutant("line-busy-inverted", "cive.py",
           "if line.verifier is not None and not line.verifier.done:",
           "if line.verifier is not None and line.verifier.done:"),
    Mutant("decide-gets-claimed-number", "cive.py",
           "decide(agent.number, ",
           "decide(agent.leg.invite.to_number, "),
    Mutant("sip-field-unescaped", "netsim.py",
           "literal = literals[sip] = q(sip)",
           "literal = literals[sip] = f'\"{sip}\"'"),
    # write_trace streams the trace in chunks of rows and holds a sip
    # literal only until its twin row writes it.
    Mutant("trace-literal-kept", "netsim.py",
           "literal = literals.pop(sip, None)",
           "literal = literals.get(sip, None)"),
    Mutant("trace-chunk-repeats-a-row", "netsim.py",
           "rows[start : start + _CHUNK_ROWS]",
           "rows[start : start + _CHUNK_ROWS + 1]"),
    Mutant("first-180-overwritten", "cive.py",
           "if code == 180 and not self.saw_180:",
           "if code == 180:"),
    Mutant("any-dialing-phone-collides", "call_fsm.py",
           "isinstance(state, Dialing) and state.peer == invite.from_number",
           "isinstance(state, Dialing)"),
    Mutant("policy-checks-to-header", "netsim.py",
           "auth is not None and msg.from_number != auth",
           "auth is not None and msg.to_number != auth"),
    Mutant("cancelled-timers-fire", "netsim.py",
           "if seq in cancelled:",
           "if False:"),
    Mutant("jitter-draw-rejects-once", "netsim.py",
           "while r >= n:",
           "if r >= n:"),
    Mutant("profile-number-mismatch-accepted", "netsim.py",
           "elif profile.number != number:",
           "elif False:"),
    Mutant("preset-self-peer-allowed", "netsim.py",
           "if peer == self.number:",
           "if False:"),
    Mutant("scenario-self-peer-allowed", "scenario.py",
           "if peer == number:",
           "if False:"),
    Mutant("scenario-duplicate-carrier-accepted", "scenario.py",
           "if carrier_id in carriers:",
           "if False:"),
    Mutant("scenario-unknown-carrier-accepted", "scenario.py",
           "if p.carrier not in self.carriers:",
           "if False:"),
    # The verifier steps its fold with every message it receives, late
    # replies too, and reads whether it had answered before the step.
    Mutant("late-replies-unrecorded", "cive.py",
           "fold.step(self.net.now, INGRESS, msg)\n"
           "        status = msg.status\n"
           "        if self.done or status is None:",
           "if self.done:\n            return\n"
           "        fold.step(self.net.now, INGRESS, msg)\n"
           "        status = msg.status\n"
           "        if status is None:"),
    Mutant("verifier-answered-read-after-step", "cive.py",
           "answered = fold.final is not None\n"
           "        # Stepped even once done: late replies are in the saved trace too.\n"
           "        fold.step(self.net.now, INGRESS, msg)\n",
           "# Stepped even once done: late replies are in the saved trace too.\n"
           "        fold.step(self.net.now, INGRESS, msg)\n"
           "        answered = fold.final is not None\n"),
    Mutant("leg-order-unchecked", "cive.py",
           "if t_ms < fold.t_ms:",
           "if False:"),
    Mutant("leg-start-unchecked", "cive.py",
           "if early_hop == from_hop:",
           "if False:"),
    Mutant("trace-tail-unchecked", "netsim.py",
           'if line.endswith("}\\n"):\n'
           "                        literal = line[m.end() : -2]\n"
           '                    elif line.endswith("}"):',
           'if line.endswith("\\n"):\n'
           "                        literal = line[m.end() : -2]\n"
           "                    elif True:"),
    # A leg's direction is its row's dir: only received responses are read,
    # and a row belongs to the hop its dir's field names.
    Mutant("sent-responses-read", "cive.py",
           "if direction == INGRESS and status is not None:",
           "if status is not None:"),
    Mutant("dir-fields-swapped", "cive.py",
           "hop = from_hop\n        elif direction == INGRESS:\n            hop = to_hop",
           "hop = to_hop\n        elif direction == INGRESS:\n            hop = from_hop"),
    Mutant("live-timeout-dropped", "cive.py",
           "self.timed_out or t_ms == self.timeout_at",
           "self.timed_out or t_ms >= self.timeout_at"),
    Mutant("late-response-acted-on", "cive.py",
           "if tx_method is not INVITE or answered:",
           "if tx_method is not INVITE:"),
    Mutant("ground-truth-inverted", "scenario.py",
           "if o.claimed != o.originator else",
           "if o.claimed == o.originator else"),
    Mutant("inconclusive-matches", "scenario.py",
           "return not self.inconclusive and legit == genuine",
           "return legit == genuine"),
    Mutant("late-183-pracked", "call_fsm.py",
           "code == 183 and leg.phase is EARLY",
           "code == 183"),
    Mutant("connected-caller-not-held", "netsim.py",
           "leg.phase = HELD",
           "pass"),
    Mutant("auto-answer-outlives-cancel", "netsim.py",
           "self.net.cancel_timer(leg.auto_answer_timer)",
           "pass"),
    # The report template writes what json.dumps(indent=2) would.
    Mutant("report-string-unescaped", "scenario.py",
           '"expected": {q(v.expected)}',
           '"expected": "{v.expected}"'),
    Mutant("report-bool-as-int", "scenario.py",
           '"cive_enabled": {"true" if s.cive_enabled else "false"}',
           '"cive_enabled": {int(s.cive_enabled)}'),
    Mutant("report-null-verdict-quoted", "scenario.py",
           'verdict = "null"',
           'verdict = \'"null"\''),
    # The event queue: one heap ordered by (time, seq), budget checked on live events.
    Mutant("heap-ties-lifo", "netsim.py",
           "(self.now + delay_ms, seq, callback, args)",
           "(self.now + delay_ms, -seq, callback, args)"),
    # Same-instant deliveries run in send order; cancelled timers are untouched.
    Mutant("delivery-ties-lifo", "netsim.py",
           "(now + delay, seq, self._deliver, (dest, msg, from_hop, sip))",
           "(now + delay, -seq, self._deliver, (dest, msg, from_hop, sip))"),
    Mutant("overrun-counts-cancelled", "netsim.py",
           "            if seq in cancelled:\n",
           "            if at > budget:\n"
           "                heapq.heappush(heap, event)\n"
           "                raise SimBudgetExceeded(f\"past the {budget} sim-ms budget\")\n"
           "            if seq in cancelled:\n"),
    Mutant("overrun-not-requeued", "netsim.py",
           "heapq.heappush(heap, event)  # left queued, as found",
           "pass"),
    # Import cost: only the loader imports PyYAML, and the four peer states
    # are distinct classes over one record.
    Mutant("yaml-imported-with-package", "scenario.py",
           "from pathlib import Path\n\nfrom . import cive\n",
           "from pathlib import Path\n\nimport yaml\n\nfrom . import cive\n"),
    Mutant("held-is-connected", "call_fsm.py",
           'class Held(_PeerState):\n    """An answered call put on hold."""\n\n    __slots__ = ()\n',
           "Held = Connected\n"),
    # cive-sim parse writes each line itself, as json.dumps would, and a
    # number carries no instance dict.
    Mutant("parse-line-saw-486-inverted", "cli.py",
           '"saw_486": {"true" if features.saw_486 else "false"}',
           '"saw_486": {"false" if features.saw_486 else "true"}'),
    Mutant("parse-line-observer-unescaped", "cli.py",
           '"observer": {q(observer)}',
           '"observer": "{observer}"'),
    # cive-sim parse streams the file into the leg builder; after a leg
    # error the rest is still read, so a later reader error wins.
    Mutant("parse-reader-not-drained", "cli.py",
           "for _ in rows:  # a reader error further on wins\n            pass",
           "pass"),
    Mutant("phone-number-dict-kept", "sip_core.py",
           "    __slots__ = ()\n\n    def __new__(cls, value: str)",
           "    def __new__(cls, value: str)"),
    # The jitter stream is Random(seed), made by the first jittered carrier.
    Mutant("jitter-stream-fixed-seed", "netsim.py",
           "random.Random(self.seed)",
           "random.Random(0)"),
    # A verdict reads its decision off _RULES, which is checked at import:
    # one rule per state, only Dialing Legit, no unreadable state Spoofed.
    Mutant("verdict-table-unchecked", "cive.py",
           "if decision is Decision.SPOOFED and state in (",
           "if False and state in ("),
    Mutant("rule-per-state-unchecked", "cive.py",
           "if sorted(state for _, state, _, _ in rules) != sorted(InferredState):",
           "if False:"),
    # A parsed row carries its file line, which a parse error names.
    Mutant("parse-line-off-by-one", "netsim.py",
           "yield lineno, t_ms, from_hop, to_hop, direction, sip",
           "yield lineno - 1, t_ms, from_hop, to_hop, direction, sip"),
    # A bad command line is bad input: exit 3 and one short error line.
    Mutant("argparse-exits-2", "cli.py",
           "parser = _Parser(",
           "parser = argparse.ArgumentParser("),
    Mutant("error-line-unclipped", "cli.py",
           "print(_clipped(line), file=sys.stderr)",
           "print(line, file=sys.stderr)"),
    Mutant("error-line-unescaped", "cli.py",
           'line = f"error: {message}".translate(_ESCAPES)',
           'line = f"error: {message}"'),
    # A trace file netsim cannot read is bad input too.
    Mutant("trace-error-uncaught", "cli.py",
           "netsim.SimBudgetExceeded, netsim.TraceFileError,\n",
           "netsim.SimBudgetExceeded,\n"),
    # parse folds each leg as it reads it: only the observer's rows are
    # stepped, and the INVITE the fold is built from is one of its messages.
    Mutant("other-hop-rows-folded", "cive.py",
           "if hop != observer:\n                continue",
           "if hop != observer:\n                pass"),
    Mutant("leg-messages-off-by-one", "cive.py",
           "self.messages = 1\n",
           "self.messages = 0\n"),
    # Once the verifier's timeout CANCEL is sent, no later signal is read.
    Mutant("timed-out-signal-read", "cive.py",
           "if self.timed_out:\n                return",
           "if False:\n                return"),
)

# Mutants no test can kill because they change no observable behaviour,
# each with the reason: name -> reason.
EQUIVALENT: dict[str, str] = {}

# Run in the child: refuse to test anything but the copy (exit 99, which
# pytest never uses), then run tier-1.
_CHILD = """\
import sys
from pathlib import Path
import cive_sim
copy = Path(sys.argv[1]).resolve()
if copy not in Path(cive_sim.__file__).resolve().parents:
    print(f"cive_sim was imported from {cive_sim.__file__}, not from {copy}")
    sys.exit(99)
import pytest
sys.exit(pytest.main(["-q", "-x", "-p", "no:cacheprovider", sys.argv[2]]))
"""


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _apply(src: str, mutant: Mutant) -> str:
    count = src.count(mutant.old)
    if count != 1:
        _fail(f"mutant {mutant.name}: snippet found {count} times in {mutant.module}, "
              "expected exactly once")
    return src.replace(mutant.old, mutant.new)


def _run_suite(mutant: Mutant | None) -> str:
    """``killed``, ``survived`` or ``timeout`` for one mutant (None: no mutant)."""
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(REPO / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = copy / "cive_sim" / mutant.module
            path.write_text(_apply(path.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, str(copy), str(REPO / "tests")],
                cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "timeout"
    if proc.returncode == 0:
        return "survived"
    if proc.returncode in (1, 2):  # tests failed, or the mutant broke collection
        return "killed"
    sys.stdout.write(proc.stdout[-2000:])
    _fail(f"the suite exited {proc.returncode}, so the gate cannot judge "
          f"{mutant.name if mutant else 'the unmutated copy'}")


def main() -> int:
    for mutant in MUTANTS:  # every snippet must match before anything runs
        _apply((REPO / "src" / "cive_sim" / mutant.module).read_text(encoding="utf-8"), mutant)
    if _run_suite(None) != "survived":
        _fail("tier-1 fails without any mutant")
    killed = 0
    wrong = []
    for mutant in MUTANTS:
        outcome = _run_suite(mutant)
        reason = EQUIVALENT.get(mutant.name)
        if outcome == "survived":
            if reason is None:
                wrong.append(f"{mutant.name} survived")
            print(f"survived  {mutant.name}" + (f" (equivalent: {reason})" if reason else ""))
        else:
            killed += 1
            if reason is not None:
                wrong.append(f"{mutant.name} is listed as equivalent but was killed")
            print(f"{outcome:<9} {mutant.name}")
    print(f"killed {killed} of {len(MUTANTS)}")
    for line in wrong:
        print(f"error: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
