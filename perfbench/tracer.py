"""In-memory spans for the traced replay.

A span records its name, start, end, parent span and the id of the workload
run it belongs to.  Spans stay in memory until ``write`` dumps them with
per-name self times (a span's duration minus the part of it its children
cover).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time the body; yields the span record so callers can add counts.

        The parent defaults to the innermost open span of this thread; pass
        it explicitly for work handed to a pool thread.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        rec = {"id": span_id, "name": name, "parent": parent,
               "run": self.run_id, "counts": {}}
        stack.append(span_id)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def traced(self, name: str, fn, count=None):
        """``fn`` wrapped in a span; ``count(result)`` fills the span's counts
        after the span has ended, so counting is not timed."""

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if count is not None:
                rec["counts"] = count(out)
            return out

        return wrapper

    @contextmanager
    def patched(self, targets):
        """Temporarily replace module attributes by traced wrappers.

        ``targets`` holds (module, attribute, span name, count) tuples.  This
        puts spans around calls made inside code the benchmark cannot edit.
        """
        saved = []
        try:
            for module, attr, name, count in targets:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.traced(name, saved[-1][2], count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        totals: dict[str, float] = {}
        for s in self.spans:
            covered = 0.0
            reach = s["start"]
            # Union of child intervals: pool threads make children overlap.
            for lo, hi in sorted(children.get(s["id"], [])):
                lo = max(lo, reach)
                hi = min(hi, s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            own = (s["end"] - s["start"]) - covered
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def write(self, path) -> None:
        doc = {"run": self.run_id, "self_time_s": self.self_times(),
               "spans": sorted(self.spans, key=lambda s: s["start"])}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
