"""The benchmark's span tracer wraps capwave names; each of them must exist.

``perfbench/tracing.py`` names the traced modules and the class attributes
it wraps as literal tuples.  They are read here from its source, without
importing or changing it, so that renaming one of them in capwave fails
tier-1 instead of the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_constants() -> dict:
    """Module-level tuple assignments of the tracer, as Python values."""
    tree = ast.parse(TRACING.read_text())
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Tuple)}


CONSTANTS = tracer_constants()


@pytest.mark.parametrize("short", CONSTANTS["TRACED_MODULES"])
def test_traced_module_exports_exist(short):
    mod = importlib.import_module(f"capwave.{short}")
    assert all(hasattr(mod, name) for name in mod.__all__)


@pytest.mark.parametrize("short, name", CONSTANTS["EXTRA_FUNCTIONS"])
def test_traced_extra_function_exists(short, name):
    assert inspect.isfunction(getattr(importlib.import_module(f"capwave.{short}"), name))


@pytest.mark.parametrize("short, cls_name, attr", CONSTANTS["METHODS"])
def test_traced_method_is_defined_on_its_class(short, cls_name, attr):
    # the tracer wraps cls.__dict__[attr]: an inherited attribute is not enough
    cls = getattr(importlib.import_module(f"capwave.{short}"), cls_name)
    assert inspect.isclass(cls)
    raw = cls.__dict__.get(attr)
    assert isinstance(raw, (property, classmethod, staticmethod)) or inspect.isfunction(raw)
