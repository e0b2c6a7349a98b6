"""In-memory span recorder for the traced benchmark run.

A span is one timed call: name, start, end, the index of the enclosing span
(-1 at top level) and the run id shared by every span of one pipeline.
Spans stay in a list until the pipeline ends; nothing is written while it
runs.  Only coarse entry points are wrapped (per step, per task, per
target), so the recorder's own cost stays far below the work it times.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace owner.attr with a version that records a span per call.

        Wrapping the attribute its callers look up (a module global or a
        class method) catches calls the program makes internally too.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(owner, attr, traced)

    def export(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
            for n, s, e, p in self.spans
        ]


def self_times(spans: list[dict]) -> list[tuple[str, float, float]]:
    """(name, duration, self time) per span; self time excludes direct children."""
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] >= 0:
            covered[sp["parent"]] += sp["end"] - sp["start"]
    return [
        (sp["name"], sp["end"] - sp["start"], sp["end"] - sp["start"] - c)
        for sp, c in zip(spans, covered)
    ]
