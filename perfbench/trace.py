"""Spans recorded from outside the program, around calls into each layer.

Spans stay in memory and travel in the lap's report; nothing is timed
inside ``src/repro``.  They are always recorded (a handful per cell, a
microsecond each); what ``--trace 1`` adds on top is the program's own
event stream, a progress callback and the post-lap layer probes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Spans:
    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body; yields the span row (``dur`` is set on exit)."""
        row = {
            "name": name, "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), **attrs,
        }
        self._open.append(len(self.rows))
        self.rows.append(row)
        try:
            yield row
        finally:
            self._open.pop()
            row["dur"] = time.perf_counter() - row["start"]

    def total(self, name: str) -> float:
        return sum(r["dur"] for r in self.rows if r["name"] == name)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
