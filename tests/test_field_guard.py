"""Static guard: fields never change after they are built.

A :class:`~capwave.field.Field` caches its spectrum, its deferred values and
its first derivative (``x_derivative`` stores it on the field), so each of
them is valid only while the field does not change.  No module of the
package assigns to ``.values`` or ``.spectrum`` or to a subscript of either,
augments them, or deletes from them, and only ``field.py`` touches
``Field``'s private slots.
"""

import ast
from pathlib import Path

import capwave
from capwave.field import Field

PACKAGE = sorted(Path(capwave.__file__).parent.glob("*.py"))
CACHED = {"values", "spectrum"}
PRIVATE = {name for name in Field.__slots__ if name.startswith("_")}


def _written_attribute(target):
    """The attribute name a store target writes through, or None.

    ``u.values``, ``u.values[i]`` and ``u.values[i][j]`` all write
    through ``values``.
    """
    while isinstance(target, ast.Subscript):
        target = target.value
    return target.attr if isinstance(target, ast.Attribute) else None


def field_mutations(source: str) -> dict:
    """Line numbers of writes to cached representations and of private-slot uses."""
    found = {"write": [], "private": []}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            targets = []
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, (ast.Attribute, ast.Subscript)) \
                        and _written_attribute(leaf) in CACHED \
                        and isinstance(getattr(leaf, "ctx", None), (ast.Store, ast.Del)):
                    found["write"].append(node.lineno)
                    break
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            found["private"].append(node.lineno)
    return found


def test_guard_flags_planted_uses():
    source = ("def damp(u, v):\n"
              "    u.values = v.values\n"
              "    u.values[0] = 0.0\n"
              "    u.values[1:][0] *= 2.0\n"
              "    u.spectrum[3] += 1.0\n"
              "    a, u.values[2] = 1.0, 2.0\n"
              "    del u.spectrum[4]\n"
              "    return u._spectrum, u._derivative, u._values\n")
    assert field_mutations(source) == {"write": [2, 3, 4, 5, 6, 7], "private": [8, 8, 8]}
    reads = ("def reads(u, w):\n"
             "    w[0] = u.values[0]\n"
             "    x = u.values.copy()\n"
             "    x[1] = u.spectrum[1]\n"
             "    u.value = 1.0\n"
             "    return x\n")
    assert field_mutations(reads) == {"write": [], "private": []}


def test_guard_knows_the_private_slots():
    assert PRIVATE == {"_values", "_spectrum", "_derivative"}


def test_no_module_mutates_a_field():
    offending = {}
    for path in PACKAGE:
        found = field_mutations(path.read_text())
        if found["write"]:
            offending[path.name, "write"] = found["write"]
        if path.name != "field.py" and found["private"]:
            offending[path.name, "private"] = found["private"]
    assert offending == {}
