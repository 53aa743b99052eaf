"""Static guard: one owner for the discrete transform conventions.

``field`` owns the series transform (the phase (-1)^k in ``Grid._phase`` and
the 1/n factor) and the derivative symbol (i xi)^k.  Every other module
reaches them through ``field``'s helpers, so only ``field.py`` reads
``_phase``, and numpy's FFT appears only in ``field.py`` and in ``dno.py``,
whose strip operator and preconditioner apply real transforms along x.
"""

import ast
from pathlib import Path

import capwave

PACKAGE = sorted(Path(capwave.__file__).parent.glob("*.py"))
FFT_OWNERS = {"field.py", "dno.py"}


def spectral_uses(source: str) -> dict:
    """Line numbers of ``_phase`` reads and of numpy FFT uses in ``source``."""
    found = {"phase": [], "fft": []}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_phase":
            found["phase"].append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found["fft"].append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "numpy.fft"
                or node.module == "numpy" and any(a.name == "fft" for a in node.names)):
            found["fft"].append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name == "numpy.fft" for a in node.names):
            found["fft"].append(node.lineno)
    return found


def test_guard_flags_planted_reads():
    source = ("import numpy as np\n"
              "from numpy import fft\n\n\n"
              "def coefficients(u, grid):\n"
              "    return np.fft.fft(u) * grid._phase / grid.n\n")
    assert spectral_uses(source) == {"phase": [6], "fft": [2, 6]}
    assert spectral_uses("import numpy.fft\n") == {"phase": [], "fft": [1]}
    assert spectral_uses("def f(u, grid):\n    return grid.phase\n") == {"phase": [], "fft": []}


def test_only_field_reads_the_phase_and_field_and_dno_transform():
    offending = {}
    for path in PACKAGE:
        found = spectral_uses(path.read_text())
        if path.name != "field.py" and found["phase"]:
            offending[path.name, "_phase"] = found["phase"]
        if path.name not in FFT_OWNERS and found["fft"]:
            offending[path.name, "np.fft"] = found["fft"]
    assert offending == {}
