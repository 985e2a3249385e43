#!/usr/bin/env python3
"""Lines of src/ that a run never executes, traced with sys.settrace.

Usage (from the repository root):

    python3 tools/linetrace.py
    python3 tools/linetrace.py --strict consensus.py crypto.py wire.py field.py vss.py
    python3 tools/linetrace.py -- -m bftvss.cli grid --seeds 20
    python3 tools/linetrace.py -- path/to/script.py ARGS

With no command, it runs the tier-1 tests (``pytest -q``) in this process;
after ``--``, ``-m MODULE ARGS`` runs a module as ``python -m`` would and
``SCRIPT ARGS`` a script.  It then prints each line of ``src/bftvss`` that
compiles to bytecode yet never ran, as ``file:line: text``.  Child processes
are not traced.  Traced, tier-1 took 57 s against 23 s untraced on a 2-core
x86-64 VM with Python 3.11.

``--strict FILE ...`` exits 1 if a line of ``src/bftvss/FILE`` never ran and
is not in ALLOWED, or if an ALLOWED line of FILE now runs or is gone, for
each FILE, so the list holds only what is still true.  Every entry of ALLOWED is an error exit
with its reason.  The tool exits with the traced command's own status if
that is not 0.
"""

from __future__ import annotations

import argparse
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bftvss"

# (file, stripped line text) -> why tier-1 need not reach it; each is an error exit
ALLOWED: dict[tuple[str, str], str] = {
    ("consensus.py", 'raise ValueError(f"unknown kind {kind}")'):
        "only a Message whose kind is no MsgKind reaches it; _tag_ok reads the "
        "ValueError as a failed tag, so on_message drops and counts the message",
}


def executable_lines(path: Path) -> set[int]:
    """The lines of path that some bytecode of it is attributed to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace(run) -> tuple[int, dict[str, set[int]]]:
    """run() under the tracer: its exit status and the lines of SRC it ran."""
    prefix = str(SRC)
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_code.co_firstlineno)
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = run()
    except SystemExit as e:
        status = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def runner(command: list[str]):
    """What to run under the tracer: a function returning an exit status."""
    def tier1():
        import pytest
        return int(pytest.main(["-q", "--continue-on-collection-errors", "-p",
                                "no:cacheprovider", str(ROOT / "tests")]))

    def module_or_script():
        if command[0] == "-m":
            sys.argv = command[1:]
            runpy.run_module(command[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = command
            runpy.run_path(command[0], run_name="__main__")
        return 0

    return module_or_script if command else tier1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--strict", metavar="FILE", nargs="+", default=[],
                        help="fail on an unrun line of src/bftvss/FILE outside ALLOWED")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="after --: -m MODULE ARGS, or SCRIPT ARGS (default: tier-1)")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    sys.path.insert(0, str(ROOT / "src"))
    status, ran = trace(runner(command))

    failures = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        unrun = sorted(executable_lines(path) - ran.get(str(path), set()))
        allowed = {line for (name, line) in ALLOWED if name == path.name}
        for lineno in unrun:
            line = text[lineno - 1].strip()
            print(f"{path.relative_to(ROOT)}:{lineno}: {line}")
            if path.name in args.strict and line not in allowed:
                failures.append(f"{path.name}:{lineno} never ran: {line}")
        if path.name in args.strict:
            failures += [f"{path.name}: allowed line runs or is gone: {line}"
                         for line in sorted(allowed - {text[n - 1].strip() for n in unrun})]
    for failure in failures:
        print(f"linetrace: {failure}", file=sys.stderr)
    if status:
        print(f"linetrace: the traced command exited {status}", file=sys.stderr)
        return status
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
