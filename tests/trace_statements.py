"""Statement coverage of ``src/superroot`` under the test suite, with the
standard library only.

Runs pytest in this process under ``sys.settrace`` and prints each
statement of the package that never executed, as ``path:line: source``,
followed by a count.  Run from the repository root::

    PYTHONPATH=src python tests/trace_statements.py [pytest args]

With no arguments the whole suite in ``tests/`` runs.  The exit status is
pytest's.  Only the main thread of this process is traced: a test's child
processes and threads are not, so what a test runs only in one of them
counts as unexecuted.

The interpreter switches tracing off when it cannot call the trace
function, as at the recursion limit, so each test turns it on again and
such a test loses only the rest of itself.  No package code recurses as
deep as its input any more: the deeply nested JSON tests reach the limit
inside the C JSON parser, which calls no trace function.

A statement counts as executed when a line event fires on its header: the
whole of a simple statement, or the lines of a compound statement before
its body (a decorated ``def`` starts at its first decorator).  String
statements (docstrings) compile to nothing and are not listed.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "superroot") + os.sep


def statement_headers(path):
    """(first line, header lines) of every statement in the file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((first, range(first, max(first, last) + 1)))
    return out


def main(argv):
    if any(name.split(".")[0] == "superroot" for name in sys.modules):
        raise SystemExit("superroot was imported before tracing began")
    executed = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    class Rearm:
        """The interpreter switches tracing off when the trace function
        cannot be called, as at the recursion limit; each test sets it
        again."""

        @staticmethod
        def pytest_runtest_setup():
            sys.settrace(global_trace)

    import pytest

    sys.settrace(global_trace)
    try:
        args = argv or [os.path.join(ROOT, "tests"), "-q", "-p", "no:cacheprovider"]
        code = pytest.main(args, plugins=[Rearm])
    finally:
        sys.settrace(None)

    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        seen = executed.get(path, set())
        for first, header in sorted(statement_headers(path)):
            if not seen.intersection(header):
                missed += 1
                print("%s:%d: %s" % (os.path.relpath(path, ROOT), first, lines[first - 1].strip()))
    print("%d statements never executed" % missed)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
