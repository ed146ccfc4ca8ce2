"""Outside-in tracer: wraps cvrelay's public functions from the benchmark.

Nothing in ``src/`` is changed.  Each wrapped call records a span (name,
start, end, parent) in flat in-memory arrays; classes are traced through
their ``__init__``.  A function imported with ``from .x import y`` is bound
in several ``cvrelay.*`` namespaces, so every binding of the same object is
patched on entry and restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Per module: traced classes (constructors) and traced functions.  ``None``
# means every public function defined in that module.
TRACED = {
    "cli": ((), ("main",)),
    "environments": (("ThermalEnvironment", "AdditiveEnvironment"), None),
    "protocols": ((), None),
    "gaussian": (
        ("CovarianceMatrix",),
        ("symplectic_spectrum", "two_mode_spectrum", "smallest_pts_eigenvalue",
         "log_negativity", "von_neumann_entropy", "condition_on_gaussian_measurement"),
    ),
    "entanglement": ((), None),
    "experiment": ((), None),
}
LAYERS = tuple(TRACED)
PACKAGE = "cvrelay"


def public_functions(module) -> list[str]:
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    )


class Tracer:
    """Span recorder.  Use as a context manager around each traced region;
    it can be entered again and keeps adding to the same spans."""

    def __init__(self, on_result=None):
        self.on_result = on_result or {}  # span name -> hook(args, kwargs, result)
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: Counter[str] = Counter()
        self._stack: list[int] = []
        self._plan = None  # (owner, attribute, original, wrapper), built on first entry

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = self.on_result.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _bindings(self, original):
        """Every (module, attribute) of the package bound to ``original``."""
        for modname, module in list(sys.modules.items()):
            if module is not None and (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                for attr, value in vars(module).items():
                    if value is original:
                        yield module, attr

    def _make_plan(self) -> list[tuple[object, str, object, object]]:
        plan = []
        for layer, (classes, functions) in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for cls_name in classes:
                cls = getattr(module, cls_name)
                init = cls.__dict__["__init__"]
                plan.append((cls, "__init__", init, self.wrap(f"{layer}.{cls_name}", init)))
            for fn_name in public_functions(module) if functions is None else functions:
                fn = getattr(module, fn_name)
                wrapped = self.wrap(f"{layer}.{fn_name}", fn)
                plan += [(owner, attr, fn, wrapped) for owner, attr in self._bindings(fn)]
        return plan

    def __enter__(self):
        if self._plan is None:
            self._plan = self._make_plan()
        for owner, attr, _, wrapped in self._plan:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)
        return False

    # -- analysis ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread with stack discipline, so the children of a
    span never overlap one another and their coverage is the sum of their
    durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def outermost(parent: np.ndarray, in_group: np.ndarray) -> np.ndarray:
    """Mask of the spans in ``in_group`` that have no ancestor in the group."""
    mask = in_group.copy()
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        mask[live] &= ~in_group[anc[live]]
        anc[live] = parent[anc[live]]
        live = anc >= 0
    return mask


class TraceStats:
    """Counts and times of a recorded span set, by span name or layer."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id, self.parent = name_id, parent
        self.dur = end - start
        self.self = self_times(parent, start, end)

    def _mask(self, names) -> np.ndarray:
        wanted = set(names)
        ids = [i for i, n in enumerate(self.names) if n in wanted]
        return np.isin(self.name_id, ids)

    def calls(self, *names) -> int:
        return int(self._mask(names).sum())

    def incl_s(self, *names) -> float:
        """Wall time inside any of the named spans, nested repeats counted once."""
        return float(self.dur[outermost(self.parent, self._mask(names))].sum())

    def layer_names(self, layer) -> list[str]:
        return [n for n in self.names if n.startswith(layer + ".")]

    def layer_self_s(self, layer) -> float:
        return float(self.self[self._mask(self.layer_names(layer))].sum())
