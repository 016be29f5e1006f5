"""In-memory spans around calls into the program's public functions.

A span records name, start, end, parent span and run id, plus the counts
known at the boundary (rows in, bytes). Spans are kept in memory and
written once, when the run ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import time


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield
            return
        sid = next(self._ids)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def last(self, name: str) -> dict | None:
        """The most recent finished span called ``name``."""
        for s in reversed(self.spans):
            if s["name"] == name and s["end"] is not None:
                return s
        return None

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it covered by direct children."""
        kids = sorted(
            (s["start"], s["end"])
            for s in self.spans
            if s["parent"] == span["id"] and s["end"] is not None
        )
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in kids:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        return (span["end"] - span["start"]) - covered

    def dump(self) -> list[dict]:
        """Spans with times relative to the first span, plus self time."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        out = []
        for s in self.spans:
            if s["end"] is None:
                continue
            out.append(
                {
                    "id": s["id"],
                    "name": s["name"],
                    "parent": s["parent"],
                    "run_id": s["run_id"],
                    "start_s": s["start"] - t0,
                    "end_s": s["end"] - t0,
                    "self_s": self.self_time(s),
                    "counts": s["counts"],
                }
            )
        return out
