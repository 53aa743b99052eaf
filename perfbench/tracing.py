"""Span tracing of capwave from outside the package.

The tracer replaces the public functions of each traced ``capwave`` module,
plus a few hot methods, with wrappers that record one span per call: name,
start, end, parent span and op id.  capwave imports functions by name across
modules (``x_derivative`` lives in ``field`` but is bound in ``dno``,
``evolution``, ``symbols``, ``smoothing`` and ``cli``), so a wrapper is
installed in every module and class namespace that binds the original
object, and :meth:`Tracer.install` fails if any binding is left unwrapped.

Spans are kept in memory (flat arrays) and analysed or written out when the
run ends.  Self time is a span's duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

TRACED_MODULES = ("field", "dno", "symbols", "paradiff", "evolution",
                  "smoothing", "cli")
# public names missing from a module's __all__ that a layer metric needs
EXTRA_FUNCTIONS = (("smoothing", "unweighted_integral"),)
METHODS = (
    ("field", "Field", "from_spectrum"),
    ("field", "Field", "spectrum"),
    ("symbols", "Symbol", "sample_grid"),
    ("paradiff", "Quantizer", "matrix"),
    ("paradiff", "DenseOp", "apply"),
)


class CoverageError(RuntimeError):
    """A traced callable has no binding, or a binding was left unwrapped."""


def _capwave_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "capwave" or name.startswith("capwave."))]


def _unwrap(raw):
    """The plain function behind a namespace entry, or None."""
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__
    if isinstance(raw, property):
        return raw.fget
    if inspect.isfunction(raw):
        return raw
    return None


def _rewrap(raw, new):
    if isinstance(raw, classmethod):
        return classmethod(new)
    if isinstance(raw, staticmethod):
        return staticmethod(new)
    if isinstance(raw, property):
        return property(new, raw.fset, raw.fdel, raw.__doc__)
    return new


def traced_targets() -> dict:
    """Original function object -> span name, for every traced callable."""
    targets = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"capwave.{short}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                targets[obj] = f"{short}.{name}"
    for short, name in EXTRA_FUNCTIONS:
        mod = importlib.import_module(f"capwave.{short}")
        targets[getattr(mod, name)] = f"{short}.{name}"
    for short, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(f"capwave.{short}"), cls_name)
        targets[_unwrap(cls.__dict__[attr])] = f"{short}.{cls_name}.{attr}"
    return targets


def _namespaces():
    """Every module and capwave class dict that can bind a traced callable."""
    seen = set()
    for mod in _capwave_modules():
        yield mod
        for obj in list(vars(mod).values()):
            if (inspect.isclass(obj) and obj.__module__.startswith("capwave")
                    and id(obj) not in seen):
                seen.add(id(obj))
                yield obj


class Patch:
    """Replaces every binding of some functions; :meth:`undo` restores them."""

    def __init__(self):
        self._undo = []

    def replace(self, replacements: dict) -> Counter:
        """Rebind each original in ``replacements`` to its replacement.

        Returns the number of bindings replaced per original.
        """
        done = Counter()
        for ns in _namespaces():
            for key, raw in list(vars(ns).items()):
                fn = _unwrap(raw)
                if fn is None or fn not in replacements:
                    continue
                setattr(ns, key, _rewrap(raw, replacements[fn]))
                self._undo.append((ns, key, raw))
                done[fn] += 1
        return done

    def undo(self) -> None:
        for ns, key, raw in reversed(self._undo):
            setattr(ns, key, raw)
        self._undo.clear()


def unwrapped_bindings(originals) -> list:
    """Names of bindings that still hold one of ``originals``."""
    left = []
    for ns in _namespaces():
        for key, raw in vars(ns).items():
            fn = _unwrap(raw)
            if fn is not None and fn in originals:
                left.append(f"{getattr(ns, '__name__', ns)}.{key}")
    return left


class Tracer:
    """In-memory span recorder for single-threaded calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.errors = Counter()  # (span name, exception type) -> count
        self.residuals: list[float] = []
        self._stack: list[int] = []
        self._patch = Patch()

    def wrap(self, fn, name: str, on_result=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parent, ops = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[name, type(exc).__name__] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced callable in every namespace that binds it."""
        self.targets = targets = traced_targets()
        hooks = {"dno.solve_strip": lambda sol: self.residuals.append(sol.residual)}
        wrappers = {fn: self.wrap(fn, name, hooks.get(name))
                    for fn, name in targets.items()}
        done = self._patch.replace(wrappers)
        missing = [targets[fn] for fn in targets if done[fn] == 0]
        left = unwrapped_bindings(targets)
        if missing or left:
            self._patch.undo()
            raise CoverageError(
                f"tracer not installed: no binding for {missing}, "
                f"unwrapped bindings {left}")

    def uninstall(self) -> None:
        self._patch.undo()

    def arrays(self) -> dict:
        """Spans as numpy arrays (names indexed by ``name_id``)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).astype(np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int32),
            "op": np.frombuffer(self.op, dtype=np.intc).astype(np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


class SpanTable:
    """Self and inclusive times of recorded spans, by name and by layer.

    A layer is the module prefix of a span name (``dno`` in
    ``dno.solve_strip``).
    """

    def __init__(self, spans: dict):
        self.names = [str(n) for n in spans["names"]]
        self.name_id = spans["name_id"]
        self.op = spans["op"]
        self.dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        self._has_parent = parent >= 0
        self._parent = np.where(self._has_parent, parent, 0)
        child = np.bincount(parent[self._has_parent],
                            weights=self.dur[self._has_parent], minlength=len(self.dur))
        self.self_time = self.dur - child[:len(self.dur)]

    def mask(self, *names) -> np.ndarray:
        ids = [self.names.index(nm) for nm in names if nm in self.names]
        return np.isin(self.name_id, ids)

    def count(self, *names) -> int:
        return int(np.count_nonzero(self.mask(*names)))

    def inclusive(self, *names) -> float:
        """Summed duration of the named spans not nested in one another."""
        m = self.mask(*names)
        return float(np.sum(self.dur[m & ~self._nested_in(m)]))

    def layer_inclusive(self, layer: str) -> float:
        """Time covered by the layer's outermost spans."""
        return self.inclusive(*(nm for nm in self.names if nm.split(".")[0] == layer))

    def self_s(self, *names, outside_ops: bool = False) -> float:
        m = self.mask(*names)
        if outside_ops:
            m &= self.op < 0
        return float(np.sum(self.self_time[m]))

    def durations(self, *names) -> np.ndarray:
        return self.dur[self.mask(*names)]

    def in_ops(self, *names) -> int:
        return int(np.count_nonzero(self.mask(*names) & (self.op >= 0)))

    def _nested_in(self, m: np.ndarray) -> np.ndarray:
        """True where a span has an ancestor selected by ``m``."""
        under = np.zeros(len(m), dtype=bool)
        while True:
            new = self._has_parent & (m[self._parent] | under[self._parent])
            if np.array_equal(new, under):
                return under
            under = new
