"""Spans and counters recorded from outside the program.

`Tracer.patch` replaces a function or method at the name its caller looks up
(for example `dynabs.cli.merge_and_learn`, which is how `cmd_fit` finds it)
with a wrapper that records a span (name, start, end, parent id) or only
counts calls. Spans stay in memory; `restore` puts every original back.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, name, 0.0, 0.0))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def patch(self, owner, attr: str, name: str, observe=None, count_only: bool = False) -> None:
        """Wrap `owner.attr` (a module function, method or classmethod).

        `observe(tracer, args, kwargs, result)` runs after the span closes.
        """
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw

        if count_only:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result

        setattr(owner, attr, classmethod(wrapper) if fn is not raw else wrapper)
        self._saved.append((owner, attr, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def summary(self) -> tuple[dict[str, tuple[int, float]], dict[str, float]]:
        """Per span name (calls, wall seconds) and per layer self seconds.

        Wall time counts only calls with no enclosing span of the same name.
        Self time is a span's duration minus that of its direct children; a
        layer is the part of the span name before the first dot.
        """
        children = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        names: dict[str, tuple[int, float]] = {}
        layers: dict[str, float] = Counter()
        for sid, parent, name, start, end in self.spans:
            calls, wall = names.get(name, (0, 0.0))
            if not self._nested_in_same(sid, name):
                wall += end - start
            names[name] = (calls + 1, wall)
            layers[name.split(".")[0]] += (end - start) - children[sid]
        return names, dict(layers)

    def _nested_in_same(self, sid: int, name: str) -> bool:
        parent = self.spans[sid][1]
        while parent is not None:
            if self.spans[parent][2] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def to_doc(self) -> dict:
        return {
            "spans": [
                {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                for sid, parent, name, start, end in self.spans
            ],
            "counts": dict(self.counts),
        }
