"""Report the code of ``src/anticonc`` that the test suite never reaches.

Run from anywhere, with no options:

    python tools/reach.py

It runs ``pytest -q tests`` in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``) that records only frames of
files under ``src/anticonc``. Then it prints, as ``file:line``, every
function whose body never ran and every statement never executed (a
statement inside a function that never ran, or inside an outer statement
that never ran, is not listed again). It exits 1 if some function never
ran, else 0, whatever the tests' own outcome: it reports reach, not test
results. Tracing slows the suite about five times, so it loads a hypothesis
profile without deadlines first; a health check may still fail a test.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from inspect import CO_NEWLOCALS
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "anticonc"


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _line_numbers(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def _is_function(code) -> bool:
    # comprehensions and generator expressions are reported by their statement
    return bool(code.co_flags & CO_NEWLOCALS) and (
        not code.co_name.startswith("<") or code.co_name == "<lambda>"
    )


def _statements(tree, code_lines: set[int]):
    """(node, own lines, children) for each statement: its own lines are those
    of its span (decorators included) that have bytecode, less its child
    statements' spans. A function's docstring has no bytecode."""

    def span(node) -> set[int]:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        return set(range(first, node.end_lineno + 1))

    def walk(node):
        children = [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        for handler in ast.iter_child_nodes(node):  # except and match-case bodies
            if not isinstance(handler, ast.stmt):
                children += [c for c in ast.iter_child_nodes(handler) if isinstance(c, ast.stmt)]
        out = []
        for child in children:
            own = span(child)
            for grand in ast.walk(child):
                if grand is not child and isinstance(grand, ast.stmt):
                    own -= span(grand)
            own &= code_lines
            out.append((child, own, walk(child)))
        return out

    return walk(tree)


def _unreached(statements, hits: set[int], skip: set[int]):
    for node, own, children in statements:
        if own and not own & hits:
            if not own & skip:
                yield node.lineno
        else:
            yield from _unreached(children, hits, skip)


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    prefix = str(PACKAGE) + os.sep
    entered: set[tuple[str, int, str]] = set()
    hits: dict[str, set[int]] = {}
    todo: dict[object, set[int]] = {}  # lines of each traced code not yet seen

    def trace_call(frame, event, arg):
        code = frame.f_code
        left = todo.get(code)
        if left is None:
            if not code.co_filename.startswith(prefix):
                todo[code] = left = set()
            else:
                entered.add((code.co_filename, code.co_firstlineno, code.co_name))
                # the first line (def or decorator) starts the frame but gets no line event
                todo[code] = left = _line_numbers(code) - {code.co_firstlineno}
        if not left:
            return None
        seen = hits.setdefault(code.co_filename, set())

        def trace_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                left.discard(frame.f_lineno)
                if not left:
                    return None
            return trace_line

        return trace_line

    import pytest
    from hypothesis import settings

    # a traced example can overrun its deadline; reach does not time the tests
    settings.register_profile("reach", deadline=None)
    settings.load_profile("reach")
    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        pytest.main(["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    never_ran, not_executed = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        module = compile(source, str(path), "exec")
        codes = list(_code_objects(module))
        code_lines = set().union(*map(_line_numbers, codes))
        unrun = [c for c in codes if _is_function(c) and (str(path), c.co_firstlineno, c.co_name) not in entered]
        skip = set().union(*(_line_numbers(c) - {c.co_firstlineno} for c in unrun))
        rel = path.relative_to(ROOT)
        lines = source.splitlines()
        never_ran += [f"{rel}:{c.co_firstlineno}  {c.co_name}" for c in unrun]
        for line in _unreached(_statements(ast.parse(source), code_lines), hits.get(str(path), set()), skip):
            not_executed.append(f"{rel}:{line}  {lines[line - 1].strip()}")
    print(f"\nfunctions whose body never ran: {len(never_ran)}", *never_ran, sep="\n")
    print(f"statements never executed: {len(not_executed)}", *not_executed, sep="\n")
    return 1 if never_ran else 0


if __name__ == "__main__":
    sys.exit(main())
