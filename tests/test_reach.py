"""Static guards: no code of the package is reached from the tests alone,
and no parameter goes unread.

A function, method or class defined in ``src/capwave`` that the tests name,
but that neither the package nor the benchmark harness names, is test
scaffolding kept in the program: it belongs in the tests.  References are
AST names, a bare name or an attribute anywhere in a file, matched by name
alone: a definition that shares its name with anything the program reads
counts as reached.  An import is not a read, so a name that ``__init__.py``
only re-exports is not reached.  A parameter that its function's body never
reads (``self`` and ``cls`` aside) is a setting nothing acts on.
"""

import ast
from pathlib import Path

import capwave

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(Path(capwave.__file__).parent.glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))

# reached from the tests only, kept for the planned remainder-gain checks of
# the paralinearization (the f1, f2, F and Bony residuals of ROADMAP item 3)
ALLOWED = {
    "measured_regularity": "fits the Sobolev gain of a remainder over its principal term",
    "bony_residual": "the paralinearization defect F(a) - F(0) - T_F'(a) a",
    "paraproduct_defect": "the defect ab - T_a b - T_b a of Bony's decomposition",
}


def definitions(source: str) -> set:
    """Names of the functions, methods and classes ``source`` defines (no dunders)."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def references(source: str) -> set:
    """Every bare and attribute name that ``source`` reads (imports are not reads)."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def reached_from_tests_only(program: list, harness: list, tests: list) -> list:
    """Names defined in ``program`` and referenced from ``tests`` alone."""
    defined = set().union(*map(definitions, program))
    reached = set().union(*map(references, program + harness))
    tested = set().union(*map(references, tests))
    return sorted((defined & tested) - reached)


def unread_parameters(source: str) -> list:
    """``function(parameter)`` for each parameter of ``source`` that its body never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        reads = {n.id for stmt in node.body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{node.name}({name})" for name in params
                   if name not in reads and name not in ("self", "cls")]
    return unread


def test_guard_flags_a_helper_only_the_tests_reach():
    program = ["def used():\n    pass\n\n\ndef helper():\n    pass\n\n\n"
               "class Box:\n    def method(self):\n        return used()\n"]
    tests = ["from m import Box, helper\nhelper()\nBox().method()\n"]
    assert reached_from_tests_only(program, [], tests) == ["Box", "helper", "method"]
    assert reached_from_tests_only(program, ["Box().method()\n"], tests) == ["helper"]


def test_guard_flags_a_name_that_init_only_reexports():
    module = "def helper():\n    pass\n"
    init = 'from .m import helper\n\n__all__ = ["helper"]\n'
    tests = ["from pkg import helper\nhelper()\n"]
    assert reached_from_tests_only([module, init], [], tests) == ["helper"]


def test_no_code_reached_from_the_tests_alone():
    flagged = reached_from_tests_only([p.read_text() for p in PACKAGE],
                                      [p.read_text() for p in HARNESS],
                                      [p.read_text() for p in TESTS])
    assert [name for name in flagged if name not in ALLOWED] == []
    # an allowance the program no longer needs is dropped, not kept
    assert sorted(ALLOWED) == [name for name in flagged if name in ALLOWED]


def test_guard_flags_a_parameter_its_function_never_reads():
    source = ("def f(a, b, *, c=0):\n    return a\n\n\n"
              "class K:\n    def m(self, d, **kw):\n        return lambda: d\n")
    assert unread_parameters(source) == ["f(b)", "f(c)", "m(kw)"]


def test_every_parameter_is_read():
    assert [u for p in PACKAGE for u in unread_parameters(p.read_text())] == []
