"""In-memory spans recorded around the benchmark's own calls into each module.

A span is (name, start, end, parent, op_id, label): `name` is the layer
boundary as `<module>.<function>` (or `setup` / `round` for the enclosing
phases), times are `perf_counter_ns` readings, `parent` is the index of the
enclosing span (-1 at the top) and `op_id` numbers the operation the span
belongs to.  Nothing is written while the run is measuring; `dump` writes the
spans out once the run has ended.
"""

from __future__ import annotations

import json
import statistics
import time

MODULES = (
    "field",
    "group",
    "characters",
    "fourier",
    "bent",
    "classical",
    "vectorial",
    "serialize",
    "cli",
)


class Tracer:
    """Span recorder; while `enabled` is false every method is a no-op."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, op_id: int = 0, label: str = "") -> int:
        if not self.enabled:
            return -1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, op_id, label])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        if idx < 0:
            return
        self.spans[idx][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        assert popped == idx, "spans closed out of order"

    def call(self, name: str, fn, *args):
        """Call fn(*args) inside a span named `name`."""
        idx = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def dump(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op_id", "label")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    # -- derived views ---------------------------------------------------------

    def _root(self, idx: int) -> int:
        while self.spans[idx][3] >= 0:
            idx = self.spans[idx][3]
        return idx

    def _phase(self, idx: int) -> str:
        return self.spans[self._root(idx)][0]

    def durations(self, phase: str) -> dict[str, list[float]]:
        """Self time in ms of every span below a `phase` root, by span name.

        Self time is the span's duration minus the part its child spans cover.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0 and self._phase(i) == phase:
                out.setdefault(name, []).append((end - start - child_ns[i]) / 1e6)
        return out

    def labelled(self, phase: str) -> dict[str, list[float]]:
        """Durations in ms of the spans below a `phase` root, by label."""
        out: dict[str, list[float]] = {}
        for i, (_, start, end, parent, _, label) in enumerate(self.spans):
            if parent >= 0 and label and self._phase(i) == phase:
                out.setdefault(label, []).append((end - start) / 1e6)
        return out


def per_call_ms(tracer: Tracer) -> dict[str, float]:
    """Median self ms per call of every `<module>.<function>` span, in set-up
    (field, group and serialize calls) and in the traced rounds together."""
    calls: dict[str, list[float]] = {}
    for phase in ("setup", "round"):
        for name, ds in tracer.durations(phase).items():
            if name.split(".", 1)[0] in MODULES:
                calls.setdefault(name, []).extend(ds)
    return {f"{n}_ms": statistics.median(ds) for n, ds in sorted(calls.items())}


def per_setup_ms(tracer: Tracer, name: str) -> float:
    """Median over set-up repetitions of the total ms spent in `name` spans."""
    totals: dict[int, float] = {}
    for i, (span, start, end, _, _, _) in enumerate(tracer.spans):
        if span == name and tracer._phase(i) == "setup":
            root = tracer._root(i)
            totals[root] = totals.get(root, 0.0) + (end - start) / 1e6
    return statistics.median(totals.values()) if totals else 0.0


def busy_ms(tracer: Tracer) -> dict[str, float]:
    """Total self ms of each module's spans in the traced rounds."""
    busy = dict.fromkeys(MODULES, 0.0)
    for name, ds in tracer.durations("round").items():
        busy[name.split(".", 1)[0]] += sum(ds)
    return busy
