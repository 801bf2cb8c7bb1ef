"""Line audit: every executable line of ``src/pg552`` runs under the tier-1
suite, or is listed below with the reason no input reaches it.

    PYTHONPATH=src python tests/line_audit.py

The suite runs in this process (``pytest.main`` on ``tests/``) under a
``sys.settrace`` and ``threading.settrace`` hook that records the lines of
frames whose code lives in ``src/pg552`` and ignores all others.  The
executable lines are those that ``co_lines()`` names in the compiled
modules.  Test outcomes are ignored: the tracer slows the suite, so a wall
bound may fail under it, and whether a test passes is the plain run's
business.  Exit 1 on an unexecuted line that is not listed, and on a
listed line that now runs or no longer exists; exit 0 otherwise.  Line
tables differ across Python versions; the listed lines hold on 3.11.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pg552"

# (file, stripped source line) -> why no input runs it
UNREACHED = {
    ("incidence.py", 'raise AssertionError("the line counts and the pair counts disagree")'):
        "verify_pg asks for a witness only after some line's count fails "
        "at a point off it, and that pair is the witness",
}


def executable_lines(code) -> set[int]:
    """The lines ``co_lines()`` names in ``code`` and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def audit() -> int:
    sources = {str(path): path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    hit = {name: set() for name in sources}

    def local_tracer(lines):
        add = lines.add

        def trace(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace

        return trace

    tracers = {name: local_tracer(lines) for name, lines in hit.items()}

    def trace_calls(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    sys.path.insert(0, str(SRC.parent))
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        pytest.main(["-q", "--tb=no", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    package = sys.modules.get("pg552")
    if package is None or Path(package.__file__).parent != SRC:
        print(f"line audit: the suite did not import pg552 from {SRC}")
        return 1

    unlisted, seen, total = [], set(), 0
    for name, text in sources.items():
        rows = text.splitlines()
        lines = executable_lines(compile(text, name, "exec"))
        total += len(lines)
        for line in sorted(lines - hit[name]):
            key = (Path(name).name, rows[line - 1].strip())
            if key in UNREACHED:
                seen.add(key)
            else:
                unlisted.append(f"{key[0]}:{line}: {key[1]}")
    stale = [f"{f}: {text}" for f, text in UNREACHED if (f, text) not in seen]
    for row in unlisted:
        print(f"unexecuted: {row}")
    for row in stale:
        print(f"listed, but runs or is gone: {row}")
    print(f"line audit: {total} executable lines, {len(seen)} listed as unreachable, "
          f"{len(unlisted)} unexecuted and unlisted, {len(stale)} stale entries")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(audit())
