"""Static guard: only ``Geometry`` knows which bottom the fluid layer has.

Every other piece of ``src/capwave`` reads the bottom through the lift
(``Geometry.lift``, ``local_depth``, ``fixed_bottom``), so a comparison on
a ``.kind`` attribute outside ``class Geometry`` is a second copy of that
knowledge.
"""

import ast
from pathlib import Path

import capwave

PACKAGE = sorted(Path(capwave.__file__).parent.glob("*.py"))


def kind_comparisons(source: str) -> list:
    """Line numbers of comparisons on a ``.kind`` attribute outside ``class Geometry``."""
    lines = []

    def visit(node, in_geometry):
        if isinstance(node, ast.ClassDef):
            in_geometry = in_geometry or node.name == "Geometry"
        if isinstance(node, ast.Compare) and not in_geometry and any(
                isinstance(side, ast.Attribute) and side.attr == "kind"
                for side in [node.left, *node.comparators]):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_geometry)

    visit(ast.parse(source), False)
    return sorted(lines)


def test_guard_flags_a_kind_comparison_outside_geometry():
    source = ("class Geometry:\n"
              "    def lift(self):\n"
              "        return self.kind == 'flat_bottom'\n\n\n"
              "class Config:\n"
              "    def check(self):\n"
              "        return self.kind not in ('flat_bottom',)\n\n\n"
              "def solve(geo):\n"
              "    if 'parallel_strip' == geo.kind:\n"
              "        return geo.depth\n"
              "    return geo.fixed_bottom\n")
    assert kind_comparisons(source) == [8, 12]


def test_only_geometry_compares_the_kind():
    found = {path.name: kind_comparisons(path.read_text()) for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}
