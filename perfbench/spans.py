"""In-memory span recorder, wrapped from outside the program.

The benchmark records spans around calls into each layer's public
functions by swapping a timing wrapper onto the attribute the caller
looks up (a class method, or a module-level name that another module
calls through its namespace).  :class:`Patcher` restores every
original on exit, so only the traced replay pays for tracing.

A span is ``(name, start, end, parent, request_id, attrs)``; its layer
is the part of the name before the first dot.  A layer's self time is
its spans' durations minus the time their child spans cover.  Spans
stay in memory and are written at the end as Chrome Trace Event JSON,
which Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import functools
import json
import pathlib
import time
from collections import defaultdict
from typing import Any, Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "request_id", "attrs")

    def __init__(self, name, start, parent, request_id, attrs) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request_id = request_id
        self.attrs = attrs

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one single-threaded run, nested by call stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: request id -> {"submit": t, "end": t} lifecycle marks.
        self.requests: dict[int, dict[str, float]] = {}

    def open(self, name: str, request_id=None, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), parent, request_id, attrs or {})
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def layer_table(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls", "self_s"}}`` over every span."""
        own = self.self_times()
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for index, span in enumerate(self.spans):
            row = table[span.layer]
            row["calls"] += 1
            row["self_s"] += own[index]
        return dict(table)

    def write_chrome_trace(self, path: pathlib.Path, metadata: dict) -> None:
        """Chrome Trace Event Format: complete events plus request tracks."""
        if not self.spans:
            return
        t0 = min(s.start for s in self.spans)

        def us(t: float) -> float:
            return round((t - t0) * 1e6, 3)

        events: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "perfbench"}},
        ]
        for index, span in enumerate(self.spans):
            args = {"span": index, "parent": span.parent}
            if span.request_id is not None:
                args["request_id"] = span.request_id
            args.update({k: v for k, v in span.attrs.items() if v is not None})
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": us(span.start),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        for request_id, marks in sorted(self.requests.items()):
            if "submit" not in marks or "end" not in marks:
                continue
            common = {"name": f"request {request_id}", "cat": "request",
                      "id": request_id, "pid": 1, "tid": 2}
            events.append({**common, "ph": "b", "ts": us(marks["submit"])})
            events.append({**common, "ph": "e", "ts": us(marks["end"])})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": metadata},
                separators=(",", ":"),
            )
        )


class Patcher:
    """Swap timing wrappers onto attributes; :meth:`restore` undoes all."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        attrs: Callable[[tuple, dict], dict] | None = None,
        request: Callable[[tuple], object] | None = None,
        after: Callable[[tuple, dict, object], None] | None = None,
    ) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``attrs(args, kwargs)`` adds span attributes, ``request(args)``
        names the request the call serves, and ``after(args, kwargs,
        result)`` runs once the call returns (outside the span).
        """
        original = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = recorder.open(
                name,
                request(args) if request is not None else None,
                attrs(args, kwargs) if attrs is not None else None,
            )
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def print_layer_table(table: dict[str, dict[str, float]], wall_s: float) -> None:
    print(f"{'layer':<12} {'calls':>8} {'self ms':>10} {'share':>7}")
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"{layer:<12} {int(row['calls']):>8} {row['self_s'] * 1e3:>10.1f} "
            f"{row['self_s'] / wall_s:>7.1%}"
        )
