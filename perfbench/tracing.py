"""In-memory spans recorded around the benchmark's calls into the engine.

A span is (name, start, end, parent, job id, attrs).  Spans stay in a
list until :meth:`Tracer.dump` writes them out with each span's self
time: its duration minus the part of its interval that its children
cover.  :class:`NullTracer` is the untraced mode: the same interface,
recording nothing.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, job: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "job": job,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's
        intervals (children of one span never overlap: calls are
        sequential, so the union is a sum clipped to the parent)."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                p = self.spans[s["parent"]]
                lo, hi = max(s["start"], p["start"]), min(s["end"], p["end"])
                out[p["id"]] -= max(0.0, hi - lo)
        return out

    def find(self, name: str, job: str | None = None) -> dict:
        """The last span called ``name`` (in ``job`` when given)."""
        for s in reversed(self.spans):
            if s["name"] == name and (job is None or s["job"] == job):
                return s
        raise KeyError(name)

    def seconds(self, name: str, job: str | None = None) -> float:
        s = self.find(name, job)
        return s["end"] - s["start"]

    def dump(self, path: str) -> None:
        selfs = self.self_times()
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [{**s, "start": round(s["start"] - t0, 6),
                 "end": round(s["end"] - t0, 6),
                 "self_s": round(selfs[s["id"]], 6)} for s in self.spans]
        with open(path, "w") as f:
            json.dump({"spans": rows}, f, indent=1, default=str)


class NullTracer:
    @contextlib.contextmanager
    def span(self, name: str, job: str, **attrs):
        yield attrs
