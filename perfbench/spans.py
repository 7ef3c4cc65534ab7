"""An in-memory span recorder that wraps the package's public entry points.

`SpanRecorder.install()` replaces each entry point with a wrapper that
records a span (name, start, end, parent).  A function is replaced in every
loaded module namespace that holds it, so calls made inside the package
(`_finalize` calling `validate_allocation`, the CLI calling `fit_family`)
are traced too.  A class entry point is traced by wrapping its `__init__`
or method on the class itself, which keeps `isinstance` checks intact.
`uninstall()` puts every original back.

Spans live in flat arrays until the run ends; `summary()` derives each
name's self time (its duration minus the time covered by its child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute path, span name): every public entry point the
# benchmark attributes time to.  Classes are traced through __init__.
ENTRY_POINTS = (
    ("rivershare.core", "InflowProfile.__init__", "InflowProfile"),
    ("rivershare.core", "Allocation.__init__", "Allocation"),
    ("rivershare.core", "RuleSpec.apply", "RuleSpec.apply"),
    ("rivershare.core", "validate_allocation", "validate_allocation"),
    ("rivershare.axioms", "run_axiom_suite", "run_axiom_suite"),
    ("rivershare.axioms", "find_counterexample", "find_counterexample"),
    ("rivershare.analysis", "fit_family", "fit_family"),
    ("rivershare.analysis", "integrate_distance", "integrate_distance"),
    ("rivershare.analysis", "legitimacy_bounds", "legitimacy_bounds"),
    ("rivershare.analysis", "distance_at", "distance_at"),
    ("rivershare.analysis", "nile_case_study", "nile_case_study"),
    ("rivershare.data_io", "load_dataset", "load_dataset"),
    ("rivershare.data_io", "dump_dataset", "dump_dataset"),
    ("rivershare.cli", "main", "cli.main"),
)

NO_PARENT = -1


class SpanRecorder:
    """Records nested spans from one thread; keeps at most `limit` of them."""

    def __init__(self, limit: int = 1_000_000):
        self.limit = limit
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.dropped = 0
        self._stack = [NO_PARENT]
        self._patches = []  # (owner, attribute, original), restored in reverse

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        if len(self.start) >= self.limit:
            self.dropped += 1
            self._stack.append(NO_PARENT)
            return NO_PARENT
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        now = time.perf_counter_ns()
        self._stack.pop()
        if index != NO_PARENT:
            self.end[index] = now

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a group of calls."""
        index = self._open(self._name_id(name))
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = recorder._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(index)

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for module_name, path, span_name in ENTRY_POINTS:
            owner = sys.modules[module_name]
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:  # a method or __init__: patch the class once
                original = owner.__dict__[attribute]
                self._patch(owner, attribute, original, self.wrap(span_name, original))
                continue
            original = getattr(owner, attribute)
            traced = self.wrap(span_name, original)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, key, original, traced)

    def _patch(self, owner, attribute, original, replacement) -> None:
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- queries ------------------------------------------------------------

    def children(self, parent: int, name: str) -> list[int]:
        """Durations (ns) of the spans called `name` directly under `parent`."""
        name_id = self._ids.get(name)
        out = []
        for index in range(parent + 1, len(self.start)):
            if self.start[index] > self.end[parent]:
                break
            if self.parent[index] == parent and self.name[index] == name_id:
                out.append(self.end[index] - self.start[index])
        return out

    def within(self, parent: int, name: str) -> list[int]:
        """Durations (ns) of every span called `name` anywhere under `parent`."""
        name_id = self._ids.get(name)
        out = []
        for index in range(parent + 1, len(self.start)):
            if self.start[index] > self.end[parent]:
                break
            if self.name[index] == name_id:
                out.append(self.end[index] - self.start[index])
        return out

    def summary(self) -> dict:
        """Per name: call count, total time and self time, in milliseconds."""
        child_ns = [0] * len(self.start)
        for index in range(len(self.start)):
            parent = self.parent[index]
            if parent != NO_PARENT:
                child_ns[parent] += self.end[index] - self.start[index]
        totals: dict[str, list] = {}
        for index in range(len(self.start)):
            duration = self.end[index] - self.start[index]
            entry = totals.setdefault(self.names[self.name[index]], [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_ns[index]
        return {
            name: {"calls": calls, "total_ms": total / 1e6, "self_ms": own / 1e6}
            for name, (calls, total, own) in sorted(totals.items())
        }

    def to_dict(self) -> dict:
        origin = self.start[0] if len(self.start) else 0
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [t - origin for t in self.start],
            "end_ns": [t - origin for t in self.end],
            "dropped": self.dropped,
        }
