"""In-memory span recorder for the traced pass.

A span is ``[name, start, end, parent, op_id]``; spans nest through a
stack, spans of one operation share ``op_id``, and nothing is written
until :meth:`Tracer.write` runs at the end of the workload.  The spans
are recorded from the benchmark's own files, around its calls into each
layer's public functions — nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter

__all__ = ["Tracer", "span_if"]


def span_if(tracer: "Tracer | None", name: str, op_id=None):
    """A span in the traced pass, nothing in the untraced one — for code
    both passes share.  The caller times its call inside the block."""
    return nullcontext() if tracer is None else tracer.span(name, op_id=op_id)


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: list) -> None:
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self._record)
        self._record[1] = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._record[2] = perf_counter()
        self._tracer._stack.pop()


class Tracer:
    """Records nested spans; aggregates total and self time per name."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, op_id=None) -> _Span:
        """Context manager timing one call; ``op_id`` defaults to the
        enclosing span's, so one operation's spans share an identifier."""
        parent = self._stack[-1] if self._stack else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent][4]
        return _Span(self, [name, 0.0, 0.0, parent, op_id])

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (count, total seconds, self seconds)``; self time is
        a span's duration minus what its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time.get(index, 0.0)
        return {name: tuple(entry) for name, entry in out.items()}

    def seconds(self, name: str) -> float:
        """Total seconds spent in spans called ``name`` (0 when none)."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                sink.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op_id": op_id,
                        }
                    )
                    + "\n"
                )
