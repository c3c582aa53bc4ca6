"""Spans recorded around the benchmark's calls into the package.

A span has a name (the layer-qualified public function, such as
``algebra.elaborate``), a start, an end, its parent span and the id of
the pass it belongs to.  A span may also name the per-layer metric it
feeds and the letters it consumed.  Spans stay in memory and are written
out once, when the run ends.  An untraced run uses ``NullTracer``, whose
spans cost one call and record nothing.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path

_NULL = contextlib.nullcontext()


class NullTracer:
    def begin_pass(self, label: str) -> None:
        pass

    def span(self, name: str, metric: str | None = None, letters: int = 0):
        return _NULL

    def count(self, metric: str, value: float) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[tuple[str, str, float]] = []
        self._stack: list[int] = []
        self._pass = ""
        self._passes = 0

    def begin_pass(self, label: str) -> None:
        """Later spans and counts belong to a new pass, ``label`` plus a number."""
        self._passes += 1
        self._pass = f"{label}#{self._passes}"

    @contextlib.contextmanager
    def span(self, name: str, metric: str | None = None, letters: int = 0):
        record = {
            "id": len(self.spans),
            "name": name,
            "run": self._pass,
            "parent": self._stack[-1] if self._stack else None,
            "metric": metric,
            "letters": letters,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, metric: str, value: float) -> None:
        self.counts.append((self._pass, metric, value))

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def metric_values(self, units: dict[str, str]) -> dict[str, float]:
        """Per-layer metrics: the median over passes of each pass's value.

        ``ms`` sums span time, ``us/letter`` divides span time by letters,
        ``count`` sums counts.
        """
        seconds: dict[tuple[str, str], float] = {}
        letters: dict[tuple[str, str], int] = {}
        for s in self.spans:
            if s["metric"] is None:
                continue
            key = (s["metric"], s["run"])
            seconds[key] = seconds.get(key, 0.0) + s["end"] - s["start"]
            letters[key] = letters.get(key, 0) + s["letters"]
        per_pass: dict[str, list[float]] = {}
        for (metric, run), total in seconds.items():
            if units[metric] == "ms":
                value = total * 1e3
            else:
                value = total * 1e6 / letters[(metric, run)]
            per_pass.setdefault(metric, []).append(value)
        counted: dict[tuple[str, str], float] = {}
        for run, metric, value in self.counts:
            counted[(metric, run)] = counted.get((metric, run), 0) + value
        for (metric, _), total in counted.items():
            per_pass.setdefault(metric, []).append(total)
        return {metric: statistics.median(v) for metric, v in per_pass.items()}

    def write(self, path: Path) -> dict[str, dict]:
        """Write every span with its self time; return totals per span name."""
        own = self.self_times()
        for s in self.spans:
            s["self"] = own[s["id"]]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}), "utf-8")
        totals: dict[str, dict] = {}
        for s in self.spans:
            entry = totals.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += s["end"] - s["start"]
            entry["self_s"] += s["self"]
        return totals
