"""Per-layer tracing from outside the program.

A ``Tracer`` replaces a pref2d function with a timing wrapper in the module
namespace where its caller looks it up (``pref2d.heuristic.sample_free_area``
for the search loop, ``pref2d.geometry.candidate_disk`` for the sampler, the
``pref2d.embedding`` functions for the benchmark's own audit calls), and puts
every original back on ``close``. Timed runs never construct one.

For every label it keeps calls, total time and self time (total minus the
time of wrapped calls made inside it, on the same thread). Labels marked as
span labels also record one span per call, ``(id, label, start, end,
parent id, profile)``, in memory; ``write_spans`` saves them when the run
ends. The per-draw functions are counted and timed but record no spans.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter


class LabelStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, LabelStats] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.profile: object = None  # profile id stamped on new spans
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def label(self, name: str) -> LabelStats:
        return self.stats.setdefault(name, LabelStats())

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, span: bool) -> tuple[list, list, int]:
        stack = self._stack()
        parent = stack[-1][1] if stack else 0
        frame = [0.0, next(self._ids) if span else 0]
        stack.append(frame)
        return stack, frame, parent

    def _leave(self, stack, frame, parent, stats, label, span, t0, t1) -> None:
        stack.pop()
        elapsed = t1 - t0
        stats.calls += 1
        stats.total_s += elapsed
        stats.self_s += elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed
        if span:
            self.spans.append((frame[1], label, t0, t1, parent, self.profile))

    def wrap(self, module, attr: str, label: str, *, span: bool = False,
             before=None, after=None) -> None:
        """Replace ``module.attr`` with a timing wrapper.

        ``before()`` runs ahead of each call and its value is passed on as
        ``after(result, token)``; both run outside the timed interval.
        """
        original = getattr(module, attr)
        stats = self.label(label)

        def wrapper(*args, **kwargs):
            token = before() if before is not None else None
            stack, frame, parent = self._enter(span)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._leave(stack, frame, parent, stats, label, span, t0, t1)
            if after is not None:
                after(result, token)
            return result

        self._patch(module, attr, original, wrapper)

    def wrap_iter(self, module, attr: str, label: str) -> None:
        """Like ``wrap`` for a function returning an iterator: each ``next``
        is timed (and counted as a call), since that is where the work runs."""
        original = getattr(module, attr)
        stats = self.label(label)

        def wrapper(*args, **kwargs):
            it = iter(original(*args, **kwargs))
            while True:
                stack, frame, parent = self._enter(False)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    self._leave(stack, frame, parent, stats, label, False, t0, t1)
                yield item

        self._patch(module, attr, original, wrapper)

    def _patch(self, module, attr, original, wrapper) -> None:
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def close(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, label, t0, t1, parent, profile in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": label, "start": t0, "end": t1,
                    "parent": parent, "profile": profile,
                }) + "\n")
