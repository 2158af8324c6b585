"""In-memory spans, recorded by the benchmark around its calls into qracah.

A span has a name, start, end, the span that caused it and free-form tags.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **tags):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "tags": tags}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def matching(self, name, **match):
        """The finished spans called ``name`` whose tags include ``match``."""
        return [sp for sp in self.spans
                if sp["name"] == name and sp["end"] is not None
                and all(sp["tags"].get(k) == v for k, v in match.items())]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


class NoTracer:
    """Stands in for :class:`Tracer` in untraced runs."""

    @contextmanager
    def span(self, name, **tags):
        yield None
