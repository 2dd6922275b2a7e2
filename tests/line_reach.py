"""Print the package statements that no in-process cli.main call reaches.

tests/test_reachability.py sees functions; this sees statements, so it finds
the branch or parameter that only the tests use. It runs the tier-1 suite
with a line tracer that is installed only while purcell_cool.cli.main runs:
what a test calls directly, outside a subcommand, does not count. Run from
the repository root (extra arguments go to pytest):

    PYTHONPATH=src python3 tests/line_reach.py

It takes the lines of every function, method, class body, lambda and
comprehension in src/purcell_cool (module-level code, which runs at import,
is left out) and counts each statement they belong to once: a line belongs
to the innermost AST statement that spans it, so a call or a message that
wraps over several lines is one statement, reached when any of its lines
is. It prints the unreached statements by file, at their first line, then
the totals, as "N of M statements". The fuzz tests draw from hypothesis
seed 0, so that a rerun reaches the same statements.
Class bodies run at import and so always show as unreached, as does
build_parser, which is cached and which a test builds outside cli.main
first. Most of the rest are rejection branches.

It cannot see a subprocess: the subcommands that
tests/test_reachability.py's probe runs, and the runs of
tests/test_cli.py that start `python -m purcell_cool.cli` (among them
test_solver_overflow_exits_3_without_numpy_warnings), are not counted.
"""

import ast
import functools
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "purcell_cool"


def body_lines(path):
    """Line numbers of every code object below the module's own."""
    lines = set()
    stack = [c for c in compile(path.read_text(), str(path), "exec").co_consts
             if isinstance(c, types.CodeType)]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def statements(path, lines):
    """Each of lines mapped to the innermost statement of the module that
    spans it, as that statement's (first line, last line), decorators
    included."""
    spans = [(min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))]),
              node.end_lineno)
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.stmt)]
    return {line: min((span for span in spans if span[0] <= line <= span[1]),
                      key=lambda span: span[1] - span[0])
            for line in lines}


@functools.cache
def entry_line(code):
    """The line of a code object's first instruction, its def line: a call
    runs it without a line event."""
    return next(line for _, _, line in code.co_lines() if line is not None)


def main(args):
    sys.path.insert(0, str(PACKAGE.parent))
    from purcell_cool import cli

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    reached = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        reached.add((code.co_filename, entry_line(code)))
        return local

    main_untraced = cli.main

    def traced_main(argv=None):
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            return main_untraced(argv)
        finally:
            sys.settrace(previous)

    cli.main = traced_main
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                        "--hypothesis-seed=0", str(ROOT / "tests"), *args])
    total = unreached = 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        owner = statements(path, body_lines(path))
        spans = set(owner.values())
        missed = sorted(spans - {span for line, span in owner.items() if (name, line) in reached})
        total += len(spans)
        unreached += len(missed)
        if missed:
            print(f"\n{path.relative_to(ROOT)}: {len(missed)} of {len(spans)} unreached")
            for first, _ in missed:
                print(f"  {first:4d}  {source[first - 1].strip()}")
    print(f"\n{unreached} of {total} statements in functions and class bodies unreached "
          f"(pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
