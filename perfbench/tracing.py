"""Span recording around the public functions of a package, and span aggregation.

``Tracer.instrument`` wraps every public function and public method defined in
a package's modules and rebinds each wrapper at every module attribute that
held the original, so ``from .losses import softmax_ce_grad`` copies inside
other modules are timed too. A span is credited to the module that defines the
function; that module is the span's layer.

``aggregate`` turns one process's spans into per-layer self time and call
counts plus inclusive time for chosen functions. A span's self time is its
duration minus the durations of its direct children, so the self times of all
spans add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import marshal
import pkgutil
import time
import types

# Span record fields, kept as plain lists for low overhead.
NAME, LAYER, START, END, PARENT, RAISED = range(6)


class Tracer:
    """Collects spans in memory; ``dump`` writes them out in one file."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.instrumented: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        self.instrumented.append(name)
        return traced

    def instrument(self, package) -> None:
        """Wrap the public functions and methods of every module in ``package``."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, tuple] = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{obj.__qualname__}", layer))
                elif isinstance(obj, type):
                    self._instrument_class(obj, layer)
        # Rebind at every binding site, whatever name the importing module used.
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _instrument_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self.wrap(obj, f"{layer}.{obj.__qualname__}", layer))
            elif isinstance(obj, (classmethod, staticmethod)):
                fn = obj.__func__
                setattr(cls, attr, type(obj)(self.wrap(fn, f"{layer}.{fn.__qualname__}", layer)))

    def dump(self, path) -> None:
        """Write the spans and the instrumented names; ``marshal`` keeps exit fast."""
        with open(path, "wb") as f:
            marshal.dump({"spans": self.spans, "instrumented": sorted(self.instrumented)}, f)


def load_spans(path) -> tuple[list[list], list[str]]:
    """Read a ``Tracer.dump`` file written by the same Python version."""
    with open(path, "rb") as f:
        d = marshal.load(f)
    return d["spans"], d["instrumented"]


def aggregate(spans, functions=()) -> dict:
    """Totals for one process's spans, times in seconds.

    Returns ``self`` and ``calls`` per layer, ``inclusive`` and ``calls`` per
    name in ``functions`` (a call nested inside a call of the same function is
    not counted again), ``roots`` (summed duration of spans without a parent),
    and the first root start and last root end.
    """
    self_time = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= s[END] - s[START]
    layers: dict[str, dict] = {}
    for s, st in zip(spans, self_time):
        entry = layers.setdefault(s[LAYER], {"self": 0.0, "calls": 0})
        entry["self"] += st
        entry["calls"] += 1
    wanted = set(functions)
    funcs = {name: {"inclusive": 0.0, "calls": 0} for name in wanted}
    for s in spans:
        if s[NAME] in wanted and not _has_ancestor_named(spans, s, s[NAME]):
            funcs[s[NAME]]["inclusive"] += s[END] - s[START]
            funcs[s[NAME]]["calls"] += 1
    roots = [s for s in spans if s[PARENT] < 0]
    return {
        "layers": layers,
        "functions": funcs,
        "roots": sum(s[END] - s[START] for s in roots),
        "first_start": min((s[START] for s in roots), default=None),
        "last_end": max((s[END] for s in roots), default=None),
    }


def _has_ancestor_named(spans, span, name) -> bool:
    p = span[PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
