"""Import guards: no module of the package imports a name it never uses, and
the package runs on numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capwave

SOURCES = sorted(Path(capwave.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read in ``source``.

    A name listed in ``__all__`` counts as read (a re-export), and
    ``from __future__`` imports are compiler directives, not bindings.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_guard_flags_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads\n" \
             "__all__ = ['loads']\nprint(sys.argv)\n"
    assert unused_imports(source) == ["dumps (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_imports_no_scipy():
    # a fresh interpreter: this one has scipy loaded by the test oracles
    code = ("import sys, capwave, capwave.cli, capwave.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(capwave.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
