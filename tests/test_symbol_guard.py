"""Static guard: one owner and one shape for the trace symbols.

``symbols`` owns the trace algebra, so only ``symbols.py`` reads the trace
signs ``SIGNS``.  Every :class:`~capwave.symbols.Symbol` carries an (n, 2)
sub-principal part (zeros when it has none), so no module compares
``.subprincipal`` with None.
"""

import ast
from pathlib import Path

import capwave

PACKAGE = sorted(Path(capwave.__file__).parent.glob("*.py"))


def symbol_uses(source: str) -> dict:
    """Line numbers of ``SIGNS`` reads and of ``.subprincipal`` vs None comparisons."""
    found = {"signs": [], "none": []}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == "SIGNS"
                or isinstance(node, ast.Attribute) and node.attr == "SIGNS"
                or isinstance(node, ast.ImportFrom)
                and any(a.name == "SIGNS" for a in node.names)):
            found["signs"].append(node.lineno)
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(s, ast.Attribute) and s.attr == "subprincipal" for s in sides) \
                    and any(isinstance(s, ast.Constant) and s.value is None for s in sides):
                found["none"].append(node.lineno)
    return {kind: sorted(lines) for kind, lines in found.items()}


def test_guard_flags_planted_uses():
    source = ("from .symbols import SIGNS, Symbol\n"
              "from . import symbols\n\n\n"
              "def sub(a):\n"
              "    if a.subprincipal is not None:\n"
              "        return a.subprincipal * symbols.SIGNS\n"
              "    return None if None == a.subprincipal else SIGNS\n")
    assert symbol_uses(source) == {"signs": [1, 7, 8], "none": [6, 8]}
    clean = "def sub(a):\n    return a.subprincipal if a.principal is None else signs\n"
    assert symbol_uses(clean) == {"signs": [], "none": []}


def test_only_symbols_reads_the_signs_and_no_module_tests_for_a_missing_part():
    offending = {}
    for path in PACKAGE:
        found = symbol_uses(path.read_text())
        if path.name != "symbols.py" and found["signs"]:
            offending[path.name, "SIGNS"] = found["signs"]
        if found["none"]:
            offending[path.name, "subprincipal vs None"] = found["none"]
    assert offending == {}
