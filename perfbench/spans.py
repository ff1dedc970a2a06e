"""In-memory spans for the traced replay, their self times and exports.

A span records one call into a layer: its name, start, end, the span
that caused it and the job it belongs to.  Spans stay in memory while
the replay runs and are written out only when the run ends, as JSONL
(one span per line) and as Chrome trace-event JSON, which Perfetto and
``chrome://tracing`` open directly.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

#: Spans that only group others (the whole job, one iteration or
#: round, a refresh plan).  Their self time is glue no layer owns.
STRUCTURAL = frozenset({"job", "iteration", "round", "refresh"})


class Spans:
    """Span recorder for one replayed job."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.records),
            "name": name,
            "job": self.job_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for r in self.records:
            out[r["name"]] = out.get(r["name"], 0.0) + (r["end"] - r["start"])
        return out

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the children's.

        Children of one span run one after another, never overlapping,
        so the part of a span they cover is the sum of their durations.
        """
        child = [0.0] * len(self.records)
        for r in self.records:
            if r["parent"] is not None:
                child[r["parent"]] += r["end"] - r["start"]
        out: dict[str, float] = {}
        for r in self.records:
            own = (r["end"] - r["start"]) - child[r["id"]]
            out[r["name"]] = out.get(r["name"], 0.0) + own
        return out

    def wall(self) -> float:
        """Duration of the root ``job`` span."""
        root = self.records[0]
        return root["end"] - root["start"]

    def coverage(self) -> float:
        """Share of the job's wall time spent inside layer spans."""
        glue = sum(
            t for name, t in self.self_times().items() if name in STRUCTURAL
        )
        wall = self.wall()
        return (wall - glue) / wall


def write_jsonl(spans: list[Spans], path: Path) -> None:
    with open(path, "w") as out:
        for s in spans:
            for r in s.records:
                out.write(json.dumps(r) + "\n")


def write_chrome(spans: list[Spans], path: Path) -> None:
    """Chrome trace-event JSON: one complete (``"ph": "X"``) event per
    span, timestamps in microseconds from the first span's start."""
    origin = min(s.records[0]["start"] for s in spans)
    events = []
    for s in spans:
        for r in s.records:
            events.append({
                "name": r["name"],
                "cat": r["name"].split(".")[0],
                "ph": "X",
                "ts": (r["start"] - origin) * 1e6,
                "dur": (r["end"] - r["start"]) * 1e6,
                "pid": 1,
                "tid": r["job"],
                "args": {"id": r["id"], "parent": r["parent"], "job": r["job"]},
            })
    with open(path, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
