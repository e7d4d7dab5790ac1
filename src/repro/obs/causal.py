"""Span-based causal tracing over the protocol and simulation layers.

Every protocol interaction -- a routed request, a join, a split or
hole-grant, a load-balance switch -- is a *trace*: a tree of *spans*
rooted at the operation that started it.  Each message in flight is one
span; protocol decisions made while handling a message are annotations on
that message's span; messages sent while handling it become child spans.
The result: a completed request yields a hop-by-hop span tree with
latency, drop, and retry attribution, reconstructable from the flight
recorder journal alone (:func:`build_trace` / :func:`render_trace`).

Propagation is cooperative and cheap:

* the transport stamps every sent message with a
  :class:`SpanContext` derived from the sender's current context and
  installs the message's own context around delivery;
* the scheduler captures the current context when a one-shot event is
  scheduled and restores it around the callback, so timer-driven retries
  (a re-issued join, a route retransmit) stay attributed to the operation
  that armed them;
* *periodic* timers (heartbeats, sync, failure sweeps) deliberately run
  detached -- they are causal roots, otherwise every heartbeat for the
  rest of the run would accrete onto whichever join trace started the
  timer.

The context is a single module global (the simulation is single-threaded
by construction), ``None`` whenever tracing is off; every helper here
no-ops unless a :class:`~repro.obs.flightrec.FlightRecorder` is installed
via :func:`repro.obs.enable_flightrec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro import obs

__all__ = [
    "Span",
    "SpanContext",
    "annotate",
    "build_trace",
    "current",
    "detach",
    "operation",
    "render_trace",
    "restore",
    "trace_ids",
    "using",
]


@dataclass(frozen=True)
class SpanContext:
    """The causal coordinates of the work currently executing."""

    __slots__ = ("trace_id", "span_id")

    trace_id: int
    span_id: int


#: The active causal context; ``None`` whenever tracing is off.
_current: Optional[SpanContext] = None


def current() -> Optional[SpanContext]:
    """The active span context, or ``None`` (tracing off / causal root)."""
    return _current


def detach() -> Optional[SpanContext]:
    """Clear the active context and return what it was.

    Used by periodic timers to run as causal roots; pair with
    :func:`restore`.
    """
    global _current
    previous = _current
    _current = None
    return previous


def restore(previous: Optional[SpanContext]) -> None:
    """Reinstall a context saved by :func:`detach`."""
    global _current
    _current = previous


class using:
    """Context manager installing ``ctx`` as the active span context.

    ``using(None)`` is a cheap no-op (the previous context stays), so
    call sites can write ``with using(maybe_ctx):`` unconditionally.
    Hand-rolled rather than ``@contextmanager`` because it sits on the
    message-delivery hot path.
    """

    __slots__ = ("_ctx", "_previous")

    def __init__(self, ctx: Optional[SpanContext]) -> None:
        self._ctx = ctx

    def __enter__(self) -> Optional[SpanContext]:
        global _current
        self._previous = _current
        if self._ctx is not None:
            _current = self._ctx
        return self._ctx

    def __exit__(self, *exc: object) -> None:
        global _current
        _current = self._previous


def operation(
    kind: str, t: Optional[float] = None, /, **fields: object
) -> Optional[SpanContext]:
    """Open an operation span and return its context (``None`` when off).

    Called at protocol entry points (``send_to_point``, ``start_join``,
    ``store_lookup``...).  Outside any context the operation roots a fresh
    trace; inside one (a rejoin triggered by a heartbeat, a retry fired
    by a timer) it becomes a child span, preserving the causal chain that
    PR-2-style forensics need.  Wrap the operation's sends in
    ``with using(ctx):`` so they become children of the span.
    """
    recorder = obs.flightrec()
    if recorder is None:
        return None
    parent = _current
    trace_id = (
        parent.trace_id if parent is not None else recorder.next_trace_id()
    )
    span_id = recorder.next_span_id()
    recorder.record(
        kind,
        t,
        op=True,
        trace_id=trace_id,
        span_id=span_id,
        parent_span=parent.span_id if parent is not None else None,
        **fields,
    )
    return SpanContext(trace_id, span_id)


def annotate(kind: str, t: Optional[float] = None, /, **fields: object) -> None:
    """Attach an event to the current span (or record it unattributed).

    This is what protocol decision sites call: a hole-grant recorded while
    handling a join request lands on that request's span, so the span tree
    names the decision *and* the message chain that led to it.
    """
    recorder = obs.flightrec()
    if recorder is None:
        return
    ctx = _current
    if ctx is not None:
        recorder.record(
            kind, t, trace_id=ctx.trace_id, span_id=ctx.span_id, **fields
        )
    else:
        recorder.record(kind, t, **fields)


# ----------------------------------------------------------------------
# Span-tree reconstruction from journal events
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One node of a reconstructed trace tree."""

    span_id: int
    trace_id: int
    parent_span: Optional[int]
    kind: str
    start: float
    end: Optional[float] = None
    #: ``"op"`` for operation spans; message spans progress through
    #: ``"sent"`` -> ``"delivered"`` or ``"dropped:<reason>"``.
    status: str = "op"
    msg_id: Optional[int] = None
    source: Optional[str] = None
    destination: Optional[str] = None
    annotations: List[Mapping[str, object]] = field(default_factory=list)
    children: List["Span"] = field(default_factory=list)

    @property
    def latency(self) -> Optional[float]:
        """Send-to-delivery latency, when the span completed."""
        if self.end is None:
            return None
        return self.end - self.start


def trace_ids(events: Iterable[Mapping[str, object]]) -> List[int]:
    """Distinct trace ids present in ``events``, in first-seen order."""
    seen: Dict[int, None] = {}
    for event in events:
        trace = event.get("trace_id")
        if isinstance(trace, int) and trace not in seen:
            seen[trace] = None
    return list(seen)


def build_trace(
    events: Iterable[Mapping[str, object]], trace_id: int
) -> List[Span]:
    """Rebuild the span tree of one trace from journal events.

    Returns the root spans (usually one; several when the journal ring
    evicted the root and orphaned subtrees survive).  Annotations whose
    span fell out of the ring are attached to a synthetic ``(evicted)``
    span so nothing silently disappears.
    """
    spans: Dict[int, Span] = {}
    loose: List[Mapping[str, object]] = []
    for event in events:
        if event.get("trace_id") != trace_id:
            continue
        kind = str(event.get("kind"))
        span_id = event.get("span_id")
        if kind == "send":
            spans[int(span_id)] = Span(  # type: ignore[arg-type]
                span_id=int(span_id),  # type: ignore[arg-type]
                trace_id=trace_id,
                parent_span=event.get("parent_span"),  # type: ignore[arg-type]
                kind=str(event.get("msg_kind", "?")),
                start=float(event.get("t", 0.0)),
                status="sent",
                msg_id=event.get("msg_id"),  # type: ignore[arg-type]
                source=str(event.get("source")),
                destination=str(event.get("destination")),
            )
        elif event.get("op") and span_id is not None:
            payload = {
                key: value
                for key, value in event.items()
                if key not in (
                    "t", "seq", "kind", "op",
                    "trace_id", "span_id", "parent_span",
                )
            }
            spans[int(span_id)] = Span(  # type: ignore[arg-type]
                span_id=int(span_id),  # type: ignore[arg-type]
                trace_id=trace_id,
                parent_span=event.get("parent_span"),  # type: ignore[arg-type]
                kind=kind,
                start=float(event.get("t", 0.0)),
                status="op",
                annotations=(
                    [dict(payload, kind="args", t=event.get("t", 0.0))]
                    if payload
                    else []
                ),
            )
        else:
            loose.append(event)

    evicted: Optional[Span] = None
    for event in loose:
        kind = str(event.get("kind"))
        span_id = event.get("span_id")
        span = spans.get(span_id) if isinstance(span_id, int) else None
        if kind == "deliver" and span is not None:
            span.end = float(event.get("t", 0.0))
            span.status = "delivered"
        elif kind == "drop" and span is not None:
            span.end = float(event.get("t", 0.0))
            span.status = f"dropped:{event.get('reason', '?')}"
        elif span is not None:
            span.annotations.append(event)
        else:
            if evicted is None:
                evicted = Span(
                    span_id=-1,
                    trace_id=trace_id,
                    parent_span=None,
                    kind="(evicted)",
                    start=float(event.get("t", 0.0)),
                )
            evicted.annotations.append(event)

    roots: List[Span] = []
    for span in spans.values():
        parent = (
            spans.get(span.parent_span)
            if isinstance(span.parent_span, int)
            else None
        )
        if parent is not None:
            parent.children.append(span)
        else:
            roots.append(span)
    for span in spans.values():
        span.children.sort(key=lambda child: (child.start, child.span_id))
        span.annotations.sort(
            key=lambda a: (float(a.get("t", 0.0)), a.get("seq", 0))
        )
    roots.sort(key=lambda span: (span.start, span.span_id))
    if evicted is not None:
        roots.append(evicted)
    return roots


def _span_line(span: Span) -> str:
    if span.status == "op":
        line = f"{span.kind} t={span.start:g}"
    else:
        line = f"{span.kind} {span.source} -> {span.destination}"
        if span.msg_id is not None:
            line += f" (msg {span.msg_id})"
        line += f" t={span.start:g}"
        if span.status == "delivered":
            line += f" delivered +{span.latency:g}"
        elif span.status.startswith("dropped"):
            line += f" {span.status.upper()}"
        else:
            line += " (in flight)"
    for annotation in span.annotations:
        fields = " ".join(
            f"{key}={value}"
            for key, value in annotation.items()
            if key not in ("t", "seq", "kind", "trace_id", "span_id",
                           "parent_span", "msg_id")
        )
        kind = annotation.get("kind")
        line += f"\n  * {kind}" + (f" ({fields})" if fields else "")
    return line


def render_trace(roots: List[Span]) -> str:
    """ASCII tree of a reconstructed trace (one line per span hop)."""
    if not roots:
        return "(empty trace)"
    lines: List[str] = []

    def walk(span: Span, prefix: str, tail: str) -> None:
        text = _span_line(span).split("\n")
        lines.append(prefix + tail + text[0])
        extension = "   " if tail in ("", "`- ") else "|  "
        for extra in text[1:]:
            lines.append(prefix + (extension if tail else "") + extra)
        for index, child in enumerate(span.children):
            last = index == len(span.children) - 1
            walk(
                child,
                prefix + (extension if tail else ""),
                "`- " if last else "|- ",
            )

    for root in roots:
        walk(root, "", "")
    return "\n".join(lines)
