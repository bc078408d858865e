"""Span tracing at the boundaries of the package's layers.

:func:`instrument` replaces each public function of a layer module with a
wrapper everywhere the package binds it: module attributes and module-level
lookup tables.  The benchmark reaches the package only through module
attributes, so it calls the wrappers too.  Dataclass constructors are
traced through their ``__post_init__``.  Spans are kept in flat arrays in
memory (name, start, end, parent) and written out once, when the run ends.
Self time and counts are derived from the spans afterwards, so the wrappers
do no bookkeeping beyond the span itself.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("linalg", "states", "witness", "game", "attack", "cli", "serialize")


class Tracer:
    """In-memory span store; span i is open from ``start[i]`` to ``end[i]``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def write(self, path: Path) -> None:
        name_id, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end
        )


def _wrap(tracer: Tracer, fn, name: str, tag=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name if tag is None else f"{name}[{tag(args, kwargs)}]")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


# Span-name suffixes for the calls whose cost depends on an argument the
# per-layer metrics split on: party count for table builders, subcommand
# for the CLI entry point.
_TAGS = {
    "game.fast_entangled_table": lambda a, k: f"{len(tuple(a[1]))}p",
    "cli.main": lambda a, k: (a[0] if a else k["argv"])[0],
}


def instrument(tracer: Tracer):
    """Trace every public function and dataclass constructor of each layer.

    Returns a function that undoes every replacement.
    """
    modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "mdiw"}
    replacements: dict[int, object] = {}
    undo = []
    for layer in LAYERS:
        mod = modules[f"mdiw.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj):
                replacements[id(obj)] = _wrap(tracer, obj, name, _TAGS.get(name))
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                original = obj.__post_init__
                obj.__post_init__ = _wrap(tracer, original, name)
                undo.append(lambda cls=obj, f=original: setattr(cls, "__post_init__", f))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replacements:
                setattr(mod, attr, replacements[id(obj)])
                undo.append(lambda m=mod, a=attr, o=obj: setattr(m, a, o))
            elif isinstance(obj, dict) and not attr.startswith("__"):
                _rebind_table(obj, replacements, undo)

    def restore():
        for fn in reversed(undo):
            fn()

    return restore


def _rebind_table(table: dict, replacements, undo) -> None:
    """Replace traced functions held as values (or inside tuple values) of a lookup table."""
    for key, value in list(table.items()):
        if id(value) in replacements:
            new = replacements[id(value)]
        elif isinstance(value, tuple) and any(id(v) in replacements for v in value):
            new = tuple(replacements.get(id(v), v) for v in value)
        else:
            continue
        table[key] = new
        undo.append(lambda t=table, k=key, v=value: t.__setitem__(k, v))


def span_stats(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, since every call here is
    synchronous.
    """
    name_id, parent, start, end = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    n = len(tracer.names)
    counts = np.bincount(name_id, minlength=n)
    incl = np.bincount(name_id, weights=dur, minlength=n)
    excl = np.bincount(name_id, weights=self_time, minlength=n)
    return {
        name: {"calls": float(counts[i]), "seconds": float(incl[i]), "self": float(excl[i])}
        for i, name in enumerate(tracer.names)
    }
