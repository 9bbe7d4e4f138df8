"""Span tracing of idemkit's public functions, installed from outside.

The tracer replaces every public function of every idemkit module with a
wrapper that records one span per call: name, start, end and the span that
was open when it was called.  Names other modules imported are replaced too,
so a call through ``from .measures import multiply`` is seen.  Functions
captured before installation (default arguments, the suite registry) keep
calling the original, which is why per-suite times come from the reports.

Spans live in flat arrays while the run lasts and are written out once, at
the end.  Nothing in idemkit changes: uninstall puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# private names that carry a metric of their own
EXTRA = ("laws._minimize",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        # id of an original function -> (original, wrapper), made once so
        # that installing again reuses the same span names
        self._wrappers: dict[int, tuple[object, object]] = {}

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "idemkit") -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        if not self._wrappers:
            for modname, mod in modules.items():
                short = modname.rsplit(".", 1)[-1]
                for attr, obj in vars(mod).items():
                    if not inspect.isfunction(obj) or obj.__module__ != modname:
                        continue
                    if attr.startswith("_") and f"{short}.{attr}" not in EXTRA:
                        continue
                    self._wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------------
    # analysis

    def arrays(self):
        # copies, so the arrays can keep growing afterwards
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return name_id, parent, dur

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) time and self time,
        where self time is a span's duration minus its direct children's."""
        name_id, parent, dur = self.arrays()
        if name_id.size == 0:
            return {}
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def outer_time(self, prefix: str) -> float:
        """Time inside spans whose name starts with `prefix`, counting a span
        only when its parent does not also match, so nested calls within one
        module are not counted twice."""
        name_id, parent, dur = self.arrays()
        if name_id.size == 0:
            return 0.0
        match = np.array([n.startswith(prefix) for n in self.names], dtype=bool)[name_id]
        parent_match = np.zeros_like(match)
        has_parent = parent >= 0
        parent_match[has_parent] = match[parent[has_parent]]
        return float(dur[match & ~parent_match].sum())

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=float).copy(),
            end=np.frombuffer(self.end, dtype=float).copy(),
        )
