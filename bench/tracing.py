"""In-memory span recorder for the traced benchmark pass.

The benchmark measures every layer from outside: ``Tracer.patch``
replaces a public callable (a method on a class, a name a module
imported) with a wrapper that records one span per call — name, start,
end, the span that caused it, and the id of the op it belongs to — and
``Tracer.restore`` puts the originals back.  Spans stay in a list and
are written out as JSON lines when the workload ends; nothing is
written while the clock runs.

Parenting is per thread (a stack of open spans).  A caller that knows
better — a batch dispatched on the scheduler's own thread belongs to
the op that enqueued it — passes ``op``/``parent`` explicitly.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    """Context manager recording one span on exit."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._stack().append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(self.span)


class Tracer:
    """Records spans while ``enabled``; patches and restores callables."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = 0
        self._id_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- span creation -------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op: object = None, parent: int | None = None):
        """Open a span; ``op``/``parent`` default to the enclosing span's."""
        stack = self._stack()
        if stack:
            top = stack[-1]
            if parent is None:
                parent = top.span_id
            if op is None:
                op = top.op
        with self._id_lock:
            self._ids += 1
            span_id = self._ids
        return _OpenSpan(self, Span(span_id, name, 0.0, 0.0, parent, op))

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- patching -------------------------------------------------------
    def patch(self, owner: object, attr: str, name: str, around=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``around(tracer, call, args, kwargs)`` may be given to open the
        span itself (the enqueue/dispatch wrappers need the arguments);
        the default opens ``name`` around the call.  The wrapper is a
        plain pass-through while the tracer is disabled.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if around is not None:
                return around(tracer, original, args, kwargs)
            with tracer.span(name):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "op": span.op,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are merged first, so a child that runs on another thread
    after its parent returned subtracts nothing.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(
            children.get(span.span_id, ()), key=lambda s: s.start
        ):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = span.duration - covered
    return out


def span_totals(spans: list[Span]) -> dict[str, tuple[float, float, int]]:
    """Per span name: (total duration, total self time, calls), seconds."""
    own = self_times(spans)
    out: dict[str, tuple[float, float, int]] = {}
    for span in spans:
        total, self_total, calls = out.get(span.name, (0.0, 0.0, 0))
        out[span.name] = (
            total + span.duration,
            self_total + own[span.span_id],
            calls + 1,
        )
    return out
