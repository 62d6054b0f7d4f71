"""Command line front end: argument parsing, dispatch, the ``parse`` output
line and the error line. The trace file is read by ``netsim.read_trace``.

    cive-sim run <scenario.scn> [--seed N] [--out DIR] [--no-cive]
    cive-sim matrix [--out DIR]
    cive-sim parse <trace.jsonl>

Exit codes: 0 when every executed scenario matches its ground truth,
2 when some verdicts were inconclusive, 1 on any outright mismatch,
3 on bad input (a bad command line, an unreadable or invalid scenario, a
scenario whose events run past the simulation budget, a malformed trace
file, a scenario or trace holding an integer too long for int() or a value
nested too deep, a non-integer CIVE_SIM_SEED, an --out that cannot be
written), reported as one ``error: ...`` line on stderr of under
``ERROR_LINE_BYTES`` bytes of UTF-8, its newline included, with every
control character in it escaped.
``run`` sets the scenario's seed from --seed, or from CIVE_SIM_SEED when
--seed is absent, and turns verification off with --no-cive.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii

from . import cive, netsim, scenario


class BadInput(Exception):
    """Input the command cannot use; reported as one error line, exit 3."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as BadInput."""

    def error(self, message: str):
        raise BadInput(f"{self.prog}: {message}")


def _default_seed() -> int | None:
    raw = os.environ.get("CIVE_SIM_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise BadInput(f"CIVE_SIM_SEED must be an integer, got {raw!r}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    s = scenario.load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else _default_seed()
    if seed is not None:
        s = replace(s, seed=seed)
    if args.no_cive:
        s = replace(s, cive_enabled=False)
    report = scenario.run_scenario(s, out_dir=args.out)
    sys.stdout.write(report.to_json())
    return scenario.exit_code_for([report])


def _cmd_matrix(args: argparse.Namespace) -> int:
    result = scenario.run_matrix(out_dir=args.out)
    print(result.to_table())
    return scenario.exit_code_for(list(result.reports))


def _leg_line(call_id: str, observer: str, messages: int,
              features: cive.FeatureVector, inferred: cive.InferredState) -> str:
    """One line of ``parse`` output, newline included: exactly what
    ``json.dumps`` writes for the dict of ``call_id``, ``observer``,
    ``messages``, ``features.to_json_dict()`` and ``inferred.value``, keys
    in that order. Enum members are read through ``_value_``, which skips
    the ``value`` descriptor."""
    q = encode_basestring_ascii
    pem, alert = features.pem_180, features.alert_180
    final, teardown = features.final_to_invite, features.teardown
    return (
        f'{{"call_id": {q(call_id)}, "observer": {q(observer)}, "messages": {messages}, '
        f'"features": {{"pem_180": {"null" if pem is None else q(pem._value_)}, '
        f'"alert_180": {"null" if alert is None else q(alert._value_)}, '
        f'"saw_181": {"true" if features.saw_181 else "false"}, '
        f'"saw_486": {"true" if features.saw_486 else "false"}, '
        f'"final_to_invite": {"null" if final is None else final.code}, '
        f'"teardown": {"null" if teardown is None else q(teardown._value_)}, '
        f'"timed_out": {"true" if features.timed_out else "false"}}}, '
        f'"inferred": {q(inferred._value_)}}}\n'
    )


def _cmd_parse(args: argparse.Namespace) -> int:
    """Rebuild the legs of a saved trace and write one line per leg.

    The rows stream from ``netsim.read_trace`` straight into
    ``cive.legs_from_trace_rows``, so the file is read inside the leg
    builder, which folds each leg into its message count and features as
    it reads. A leg error, named by its row's line, stops the builder
    early; the rest of the file is still read, so a reader error on a
    later line is the one reported, as when the whole file was read first.
    Output is written only once every leg is built, so bad input leaves
    stdout empty: what is held until then is one line per leg.
    """
    rows = netsim.read_trace(args.trace)
    try:
        legs = cive.legs_from_trace_rows(rows)
    except cive.MalformedTraceRow as exc:
        for _ in rows:  # a reader error further on wins
            pass
        raise netsim.TraceFileError(f"{args.trace}:{exc.line}: {exc.reason}") from None
    sys.stdout.write("".join([
        _leg_line(call_id, observer, messages, features, cive.infer_state(features))
        for call_id, observer, messages, features in legs
    ]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cive-sim",
        description="Simulate caller-ID spoofing and callback verification over SIP signaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario file")
    run.add_argument("scenario", help="path to a .scn scenario file")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default=None, help="directory for trace and report files")
    run.add_argument(
        "--no-cive", action="store_true", help="disable verification (attack demo)"
    )
    run.set_defaults(func=_cmd_run)

    matrix = sub.add_parser("matrix", help="run the full state/feature/origination grid")
    matrix.add_argument("--out", default=None, help="directory for matrix.csv and cell outputs")
    matrix.set_defaults(func=_cmd_matrix)

    parse = sub.add_parser("parse", help="re-run feature extraction on a saved trace")
    parse.add_argument("trace", help="path to a .trace.jsonl file")
    parse.set_defaults(func=_cmd_parse)
    return parser


ERROR_LINE_BYTES = 300  # an error line and its newline are shorter, in UTF-8

# Each control character, and the Unicode line and paragraph separators, as
# the escape ``repr`` writes for it: a file name holding a newline is still
# named on one line.
_ESCAPES = {c: repr(chr(c))[1:-1] for c in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}


def _clipped(line: str) -> str:
    """``line``, or if it does not fit, its head cut at a character and
    ``...``. A lone surrogate counts as the escape stderr writes for it."""
    data = line.encode("utf-8", "backslashreplace")
    if len(data) < ERROR_LINE_BYTES - 1:
        return line
    # 5 bytes: "...", the newline, and one to stay under the bound
    return data[: ERROR_LINE_BYTES - 5].decode("utf-8", "ignore") + "..."


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (scenario.ScenarioError, netsim.SimBudgetExceeded, netsim.TraceFileError,
            BadInput) as exc:
        message = str(exc)
    except OSError as exc:  # reads raise the errors above; this is writing --out
        message = f"cannot write output: {exc}"
    line = f"error: {message}".translate(_ESCAPES)
    print(_clipped(line), file=sys.stderr)
    return 3


if __name__ == "__main__":
    raise SystemExit(main())
