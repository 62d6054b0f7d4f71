"""Line-coverage gate: every line of a function body in ``src/cive_sim`` runs
under tier-1, or is listed in ``ALLOWED`` with its reason.

The script runs the tier-1 suite in this process with a ``sys.settrace``
line collector, so it needs no package beyond pytest. The collector is
armed before anything imports ``cive_sim`` (``tests/conftest.py`` does),
so code that runs at import time is seen, and again before each test:
armed only once, it missed about 85 lines that tier-1 runs (Python 3.11).
The executable lines are those of every function body (lambdas and
comprehensions too), read from each code object's ``co_lines()``; module
and class bodies run at import and are not counted. Each module's source
is read once, before tier-1 runs, and that snapshot is what is compiled
and printed, so line numbers are those of the code that ran.

    python tools/coverage_gate.py

Prints each unrun line as ``<module>:<line>: <text>``, then
``run R of N lines``. Exits 1 when an unrun line is not in ``ALLOWED``, or
when an entry of ``ALLOWED`` matches no unrun line, and 2 when tier-1 fails
under the collector, a module's file changed while it ran, or the gate
cannot run.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path
from types import CodeType

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "cive_sim"

# Unrun lines that are accepted, each with the reason: "<module>: <line text,
# stripped>" -> reason. Keyed by text, not number, so an entry follows its
# line when code above it moves.
ALLOWED: dict[str, str] = {}

_hits: set[tuple[str, int]] = set()
_prefix = str(PACKAGE) + os.sep


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_prefix):
        return None
    _hits.add((filename, frame.f_lineno))  # the call event stands on the def line
    return _local


def _body_lines(code: CodeType) -> set[int]:
    """The lines of every function body nested in ``code``."""
    lines: set[int] = set()
    if code.co_flags & inspect.CO_NEWLOCALS:
        lines.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _body_lines(const)
    return lines


class _Rearm:
    """pytest plugin: arm the collector again before each test's setup."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(_global)


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def main() -> int:
    src = str(REPO / "src")
    sys.path.insert(0, src)
    # as tier-1 is run, so a test's subprocess imports the same package
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    sys.settrace(_global)
    code = pytest.main(["-q", "-p", "no:cacheprovider", str(REPO / "tests")], plugins=[_Rearm()])
    sys.settrace(None)
    changed = [path.name for path, source in sources.items()
               if not path.is_file() or path.read_text(encoding="utf-8") != source]
    if changed:
        _fail(f"{', '.join(changed)} changed while tier-1 ran, so its lines cannot be judged")
    import cive_sim

    if Path(cive_sim.__file__).resolve().parent != PACKAGE:
        _fail(f"cive_sim was imported from {cive_sim.__file__}, not from {PACKAGE}")
    if code != 0:
        _fail(f"tier-1 exited {code} under the collector")
    total = 0
    unrun = []  # the ALLOWED key of each unrun line
    for path, source in sources.items():
        text = source.splitlines()
        lines = _body_lines(compile(source, str(path), "exec"))
        total += len(lines)
        for line in sorted(lines - {n for f, n in _hits if f == str(path)}):
            key = f"{path.name}: {text[line - 1].strip()}"
            reason = ALLOWED.get(key)
            print(f"{path.name}:{line}: {text[line - 1].strip()}"
                  + (f"  (allowed: {reason})" if reason else ""))
            unrun.append(key)
    print(f"run {total - len(unrun)} of {total} lines")
    unlisted = [key for key in unrun if key not in ALLOWED]
    stale = sorted(set(ALLOWED) - set(unrun))
    for key in unlisted:
        print(f"error: unrun and not allowed: {key}", file=sys.stderr)
    for key in stale:
        print(f"error: allowed but run: {key}", file=sys.stderr)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
