"""Hierarchical tracing for the exchange pipeline.

An exchange has highly variable cost: the ``A_w^k × complement(target)``
product blows up with ``k`` and the alphabet, the resilient invocation
layer retries and backs off, and the SOAP round-trip serializes every
call.  :class:`Tracer` makes that cost visible as a tree of *spans* —
``exchange → document → node → analysis/product/game/invoke`` — each
carrying wall time from a pluggable clock plus free-form attributes
(word length, product states, cache hit/miss, bytes on wire, ...).

Design constraints, in order:

- **no-op-cheap**: the default tracer is :data:`NULL_TRACER`, whose
  ``span()`` hands back one shared context manager that does nothing.
  Hot paths can also pre-check ``tracer.enabled`` before computing
  attribute values.
- **deterministic**: span ids are sequential, timestamps come from the
  injected clock, so a run under
  :class:`repro.services.resilience.SimulatedClock` produces
  byte-identical traces.
- **bounded**: finished spans land in a ring buffer (oldest dropped,
  ``dropped`` counts them), so a long-lived peer cannot leak memory.
- **concurrency-safe**: the open-span stack is *per thread*
  (``threading.local``), so spans produced by the concurrent
  materialization scheduler's workers never interleave parents; ids
  come from an ``itertools.count`` (atomic under the GIL) and the sink
  is lock-protected.  Worker spans attach under
  a chosen parent with the explicit ``parent_id=`` argument of
  :meth:`Tracer.span` / :meth:`Tracer.start`, since a pool thread does
  not inherit the submitting thread's stack.

Export formats: JSONL (one span object per line, re-importable with
:func:`spans_from_jsonl`) and a human span tree
(:meth:`Tracer.render_tree`, also available on raw JSONL dicts through
:func:`render_span_dicts` — this is what ``repro.cli stats`` prints).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Distinguishes "parent_id not given" from an explicit ``parent_id=None``
#: (which forces a root span).
_UNSET = object()


class PerfClock:
    """The default wall clock (``time.perf_counter``)."""

    def now(self) -> float:
        return time.perf_counter()


@dataclass
class SpanEvent:
    """A timestamped point annotation inside a span (retry, fault, ...)."""

    name: str
    time: float
    attributes: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "time": self.time,
                "attributes": dict(self.attributes)}


@dataclass(slots=True, eq=False)
class Span:
    """One timed operation in the exchange hierarchy.

    Spans compare by identity: :meth:`Tracer.finish` looks a span up on
    the open-span stack, and field-wise equality would compare every
    attribute and event of each deeper open span.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    attributes: Dict[str, object] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)
    end: Optional[float] = None
    #: Set once the span is in the sink (the double-finish guard).
    _sunk: bool = field(default=False, init=False, repr=False)

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "events": [event.to_dict() for event in self.events],
        }


class _ActiveSpan:
    """The context manager :meth:`Tracer.span` returns."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_parent_id")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict,
                 parent_id=_UNSET):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._parent_id = parent_id
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(
            self._name, self._parent_id, self._attributes
        )
        return self._span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is not None and self._span is not None:
            self._span.set(error=str(exc) or exc_type.__name__)
        self._tracer.finish(self._span)
        return False


class Tracer:
    """Produces hierarchical spans into a ring-buffered in-memory sink.

    Args:
        clock: anything with a ``now() -> float``; defaults to
            :class:`PerfClock`.  Pass a ``SimulatedClock`` for
            deterministic traces.
        capacity: ring buffer size for finished spans.
        on_span_end: optional profiling hook called with each finished
            :class:`Span` (benchmarks use it to assert where time went);
            more hooks can be added with :meth:`add_hook`.
    """

    enabled = True

    def __init__(
        self,
        clock=None,
        capacity: int = 4096,
        on_span_end: Optional[Callable[[Span], None]] = None,
    ):
        self.clock = clock if clock is not None else PerfClock()
        self.capacity = capacity
        self._finished: deque = deque(maxlen=capacity)
        self._local = threading.local()  # per-thread open-span stack
        self._lock = threading.Lock()  # guards the sink, dropped, add_hook
        self._ids = itertools.count(1)
        # A tuple, replaced whole by add_hook: finish reads it unlocked.
        self._hooks: Tuple[Callable[[Span], None], ...] = (
            (on_span_end,) if on_span_end is not None else ()
        )
        self._bridged: List[object] = []  # metrics registries already wired
        self.dropped = 0

    def _stack(self) -> List[Span]:
        """The calling thread's own open-span stack."""
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    # -- producing spans --------------------------------------------------

    def span(self, name: str, parent_id=_UNSET, **attributes) -> _ActiveSpan:
        """``with tracer.span("node", word="a.b") as span: ...``

        ``parent_id`` overrides stack-based parenting — pool workers use
        it to attach their spans under the scheduling thread's span.
        """
        return _ActiveSpan(self, name, attributes, parent_id)

    def start(self, name: str, parent_id=_UNSET, **attributes) -> Span:
        """Open a span without a ``with`` block (pair with :meth:`finish`)."""
        return self._open(name, parent_id, attributes)

    def _open(self, name: str, parent_id, attributes: dict) -> Span:
        """Open a span that owns ``attributes`` (a fresh dict)."""
        stack = self._stack()
        if parent_id is _UNSET:
            parent_id = stack[-1].span_id if stack else None
        span = Span(next(self._ids), parent_id, name, self.clock.now(),
                    attributes)
        stack.append(span)
        return span

    def finish(self, span: Optional[Span]) -> None:
        """Close a span: timestamp it, sink it, run the profiling hooks."""
        if span is None or span._sunk:
            return  # finished twice; keep the first sink entry authoritative
        span.end = self.clock.now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # closed out of order, or off its opening thread
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is span:
                    del stack[index]
                    break
        with self._lock:
            if span._sunk:
                return  # lost a concurrent double-finish race
            span._sunk = True
            if len(self._finished) == self._finished.maxlen:
                self.dropped += 1
            self._finished.append(span)
        for hook in self._hooks:  # outside the lock: hooks may be slow
            hook(span)

    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def event(self, name: str, **attributes) -> None:
        """Annotate the current span; silently dropped with no span open."""
        span = self.current()
        if span is not None:
            span.events.append(SpanEvent(name, self.clock.now(),
                                         dict(attributes)))

    def add_hook(self, hook: Callable[[Span], None]) -> None:
        """Register another per-span-end profiling callback."""
        with self._lock:
            self._hooks = self._hooks + (hook,)

    # -- the sink ---------------------------------------------------------

    def finished(self) -> Tuple[Span, ...]:
        """Finished spans, oldest first (creation order ≠ finish order:
        parents finish after their children)."""
        with self._lock:
            return tuple(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self.dropped = 0

    # -- export -----------------------------------------------------------

    def export_jsonl(self, destination) -> int:
        """Write finished spans as JSON Lines; returns the span count.

        ``destination`` is a path or a file-like object.  Spans are
        written in span-id (creation) order so traces diff cleanly.
        """
        spans = sorted(self._finished, key=lambda span: span.span_id)
        lines = [json.dumps(span.to_dict(), sort_keys=True) for span in spans]
        text = "\n".join(lines) + ("\n" if lines else "")
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write(text)
        return len(lines)

    def render_tree(self) -> str:
        """The human span tree (what ``repro.cli stats`` shows)."""
        return render_span_dicts(
            [span.to_dict() for span in self._finished]
        )


class _NullSpan:
    """The shared do-nothing span of :class:`NullTracer`."""

    __slots__ = ()
    duration = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_attributes) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The null-object default: every operation is a cheap no-op."""

    enabled = False
    dropped = 0
    clock = None

    def span(self, _name: str, **_attributes) -> _NullSpan:
        return _NULL_SPAN

    def start(self, _name: str, **_attributes) -> _NullSpan:
        return _NULL_SPAN

    def finish(self, _span) -> None:
        pass

    def current(self) -> None:
        return None

    def event(self, _name: str, **_attributes) -> None:
        pass

    def add_hook(self, _hook) -> None:
        pass

    def finished(self) -> Tuple[()]:
        return ()

    def clear(self) -> None:
        pass

    def export_jsonl(self, _destination) -> int:
        return 0

    def render_tree(self) -> str:
        return ""


NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# JSONL round-trip and tree rendering
# ---------------------------------------------------------------------------


def spans_from_jsonl(text: str) -> List[dict]:
    """Parse a JSONL trace back into span dicts (blank lines ignored)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _format_duration(duration: Optional[float]) -> str:
    if duration is None:
        return "?"
    if duration >= 1.0:
        return "%.3fs" % duration
    return "%.3fms" % (duration * 1000.0)


def _format_attributes(attributes: dict) -> str:
    return " ".join(
        "%s=%s" % (key, value) for key, value in sorted(attributes.items())
    )


def render_span_dicts(spans: Sequence[dict]) -> str:
    """Render span dicts (live or re-read from JSONL) as a tree.

    Spans whose parent is not in the set (e.g. rotated out of the ring
    buffer) are promoted to roots, so partial traces still render.
    """
    by_id = {span["span_id"]: span for span in spans}
    children: Dict[Optional[int], List[dict]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda span: span["span_id"])

    lines: List[str] = []

    def emit(span: dict, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        attributes = _format_attributes(span.get("attributes", {}))
        lines.append(
            "%s%s%s (%s)%s"
            % (
                prefix,
                connector,
                span["name"],
                _format_duration(span.get("duration")),
                " " + attributes if attributes else "",
            )
        )
        child_prefix = prefix if is_root else (
            prefix + ("   " if is_last else "│  ")
        )
        kids = children.get(span["span_id"], [])
        for index, kid in enumerate(kids):
            emit(kid, child_prefix, index == len(kids) - 1, False)

    roots = children.get(None, [])
    for index, root in enumerate(roots):
        emit(root, "", index == len(roots) - 1, True)
    return "\n".join(lines)
