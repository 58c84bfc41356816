"""Spans recorded by the benchmark around its calls into the program.

A span has a name, a start, an end and the span that caused it; spans
stay in memory and are written out once, when the run ends. With
tracing off, ``span`` still times its block (the end-to-end metrics
need those times) but keeps nothing.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the block; yields a dict whose ``"s"`` holds the elapsed
        seconds once the block ends."""
        rec = {"name": name, "start": time.perf_counter(), **attrs}
        if self.enabled:
            rec["parent"] = self._stack[-1] if self._stack else None
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["s"] = rec["end"] - rec["start"]
            if self.enabled:
                self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["s"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        if self.enabled:
            with open(path, "w") as f:
                json.dump(self.spans, f, indent=0)
