"""The unified observability plane: trace IDs, spans, and the flight recorder.

Three cooperating pieces, shared by the spec-lint service, the campaign
scheduler, and their workers:

- **Request-scoped span tracing.**  A 16-hex *trace ID* is minted at
  service admission (and once per campaign cell); every protocol envelope,
  worker payload, and log record downstream carries it.  Work is recorded
  as typed :class:`Span` records — ``queue-wait``, ``pool-dispatch``,
  ``static-lint``, ``simulator-confirm``, ``cache-lookup``,
  ``checkpoint-restore`` — with parent/child links, appended as JSONL by a
  :class:`SpanRecorder` so one request's full latency breakdown is
  reconstructable offline (``python -m repro.telemetry --spans``).
- **Flight recorder.**  A bounded, always-on ring buffer of the last N
  spans/events per process (:class:`FlightRecorder`).  It costs a deque
  append per event, so it is never disabled; on shutdown it is dumped next
  to ``shutdown-report.json``, and typed errors get the tail attached so a
  post-mortem carries recent history without verbose tracing enabled.
- **Offline tooling.**  :func:`load_spans` / :func:`render_span_tree`
  rebuild and draw the span forest; :func:`collapsed_stacks` converts a
  cProfile capture into flamegraph-compatible collapsed-stack lines.

Span records are plain dicts on the wire::

    {"kind": "span", "trace": "ab12...", "span": "0f3c...", "parent": "",
     "name": "static-lint", "t0_ms": 12.5, "dur_ms": 3.1,
     "status": "ok", "attrs": {"pool": "static"}}

Timestamps are milliseconds on the recorder's own monotonic clock —
within one process spans order and nest exactly; across processes only
durations are compared (worker-side phases are re-based by the parent).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, IO, Iterable, List, Optional, Tuple

from repro.durable import canonical

#: Span names used across the repo (free-form names are also accepted;
#: these are the typed vocabulary the renderer and tests key on).
SPAN_QUEUE_WAIT = "queue-wait"
SPAN_POOL_DISPATCH = "pool-dispatch"
SPAN_STATIC_LINT = "static-lint"
SPAN_CONFIRM = "simulator-confirm"
SPAN_CACHE_LOOKUP = "cache-lookup"
SPAN_CHECKPOINT_RESTORE = "checkpoint-restore"

_ID_BYTES = 8


def new_trace_id() -> str:
    """A fresh 16-hex trace (or span) identifier."""
    return os.urandom(_ID_BYTES).hex()


def is_trace_id(value: str) -> bool:
    """Loose validation for client-supplied trace IDs: short lowercase
    hex/dash strings, so IDs stay grep-able and log-safe."""
    return (isinstance(value, str) and 1 <= len(value) <= 64
            and all(c in "0123456789abcdef-" for c in value))


@dataclass
class Span:
    """One completed unit of traced work."""

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    t0_ms: float
    dur_ms: float
    status: str = "ok"
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        record = {"kind": "span", "trace": self.trace_id,
                  "span": self.span_id, "parent": self.parent_id,
                  "name": self.name, "t0_ms": round(self.t0_ms, 3),
                  "dur_ms": round(self.dur_ms, 3), "status": self.status}
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        return cls(trace_id=record.get("trace", ""),
                   span_id=record.get("span", ""),
                   parent_id=record.get("parent", ""),
                   name=record.get("name", ""),
                   t0_ms=float(record.get("t0_ms", 0.0)),
                   dur_ms=float(record.get("dur_ms", 0.0)),
                   status=record.get("status", "ok"),
                   attrs=record.get("attrs", {}) or {})


class FlightRecorder:
    """Bounded ring buffer of recent events — the always-on black box.

    ``record`` costs one dict build and a deque append, so the recorder
    stays enabled in production paths.  Events older than ``capacity``
    fall off the front (``dropped`` counts them); :meth:`tail` returns the
    newest ``n`` for attaching to a typed error, :meth:`dump` the whole
    buffer for the shutdown report.
    """

    def __init__(self, capacity: int = 256,
                 clock: Callable[[], float] = time.monotonic):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._epoch = clock()
        self._events: deque = deque(maxlen=capacity)
        self._seq = itertools.count()
        self.recorded = 0
        self._lock = threading.Lock()

    def record(self, event: str, **attrs) -> dict:
        """Append one event (``trace=...`` attrs ride along verbatim)."""
        entry = {"seq": next(self._seq), "event": event,
                 "t_ms": round((self._clock() - self._epoch) * 1000.0, 3)}
        entry.update(attrs)
        with self._lock:
            self._events.append(entry)
            self.recorded += 1
        return entry

    @property
    def dropped(self) -> int:
        return max(0, self.recorded - len(self._events))

    def tail(self, n: int = 16) -> List[dict]:
        with self._lock:
            events = list(self._events)
        return events[-n:]

    def dump(self) -> dict:
        with self._lock:
            events = list(self._events)
        return {"capacity": self.capacity, "recorded": self.recorded,
                "dropped": self.dropped, "events": events}


class _SpanHandle:
    """Context manager backing :meth:`SpanRecorder.span`."""

    def __init__(self, recorder: "SpanRecorder", trace_id: str, name: str,
                 parent_id: str, attrs: Dict[str, object]):
        self._recorder = recorder
        self.trace_id = trace_id
        self.span_id = new_trace_id()
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.status = "ok"
        self._start = recorder.now()

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", str(exc))
        self._recorder.emit(Span(
            trace_id=self.trace_id, span_id=self.span_id,
            parent_id=self.parent_id, name=self.name,
            t0_ms=self._start, dur_ms=self._recorder.now() - self._start,
            status=self.status, attrs=self.attrs))


class SpanRecorder:
    """Appends completed spans as JSONL and mirrors them into the flight
    recorder.

    ``path=None`` keeps spans in memory only (``self.spans``) — the test
    and selftest mode.  Writes are line-buffered appends behind a lock;
    one process, one recorder, one file.
    """

    def __init__(self, path: Optional[str] = None,
                 flight: Optional[FlightRecorder] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.path = path
        self.flight = flight
        self._clock = clock
        self._epoch = clock()
        self.spans: List[Span] = []
        self.emitted = 0
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = None
        if path is not None:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            self._handle = open(path, "a", encoding="utf-8", buffering=1)

    def now(self) -> float:
        """Milliseconds since this recorder's epoch."""
        return (self._clock() - self._epoch) * 1000.0

    def at(self, clock_s: float) -> float:
        """A timestamp already taken on this recorder's clock (seconds),
        re-based to recorder milliseconds — for post-hoc spans measured
        with ``time.monotonic()`` before the span is recorded."""
        return (clock_s - self._epoch) * 1000.0

    def span(self, trace_id: str, name: str, parent_id: str = "",
             **attrs) -> _SpanHandle:
        """Context manager measuring one span as wall time inside it."""
        return _SpanHandle(self, trace_id, name, parent_id, dict(attrs))

    def record(self, trace_id: str, name: str, *, t0_ms: float,
               dur_ms: float, parent_id: str = "", status: str = "ok",
               **attrs) -> Span:
        """Record a span from already-measured timestamps (post-hoc —
        queue waits, worker-reported phases)."""
        span = Span(trace_id=trace_id, span_id=new_trace_id(),
                    parent_id=parent_id, name=name, t0_ms=t0_ms,
                    dur_ms=max(0.0, dur_ms), status=status, attrs=attrs)
        self.emit(span)
        return span

    def emit(self, span: Span) -> None:
        line = canonical(span.to_dict())
        with self._lock:
            self.emitted += 1
            if self._handle is not None:
                self._handle.write(line + "\n")
            else:
                self.spans.append(span)
        if self.flight is not None:
            self.flight.record("span", trace=span.trace_id, name=span.name,
                               dur_ms=round(span.dur_ms, 3),
                               status=span.status)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# ----------------------------------------------------------------------
# offline: load + render
# ----------------------------------------------------------------------

def parse_spans(lines: Iterable[str]) -> List[Span]:
    """Span records from JSONL lines; non-span/damaged lines are skipped
    (span logs are append-only and may end in a torn line)."""
    spans = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and record.get("kind") == "span":
            spans.append(Span.from_dict(record))
    return spans


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return parse_spans(handle)


def span_forest(spans: List[Span]) -> Dict[str, List[Tuple[Span, List]]]:
    """trace_id -> list of (root span, children tree) for that trace.

    Children are ``(span, grandchildren)`` pairs ordered by start time;
    orphans (parent never recorded, e.g. rotated away) promote to roots.
    """
    by_trace: Dict[str, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    forest: Dict[str, List[Tuple[Span, List]]] = {}
    for trace_id, members in by_trace.items():
        ids = {span.span_id for span in members}
        children: Dict[str, List[Span]] = {}
        roots: List[Span] = []
        for span in members:
            if span.parent_id and span.parent_id in ids:
                children.setdefault(span.parent_id, []).append(span)
            else:
                roots.append(span)

        def tree(span: Span) -> Tuple[Span, List]:
            kids = sorted(children.get(span.span_id, ()),
                          key=lambda s: (s.t0_ms, s.name))
            return (span, [tree(kid) for kid in kids])

        forest[trace_id] = [tree(root) for root in
                            sorted(roots, key=lambda s: (s.t0_ms, s.name))]
    return forest


def render_span_tree(spans: List[Span],
                     trace_id: Optional[str] = None) -> str:
    """ASCII span tree, one block per trace — the offline latency
    breakdown of a request."""
    forest = span_forest(spans)
    if trace_id is not None:
        forest = {tid: trees for tid, trees in forest.items()
                  if tid == trace_id}
        if not forest:
            return f"(no spans for trace {trace_id})"
    lines: List[str] = []

    def draw(node: Tuple[Span, List], depth: int, origin: float) -> None:
        span, kids = node
        indent = "  " * depth
        mark = "" if span.status == "ok" else "  [" + span.status + "]"
        attrs = ""
        if span.attrs:
            parts = [f"{k}={v}" for k, v in sorted(span.attrs.items())]
            attrs = "  {" + ", ".join(parts) + "}"
        lines.append(f"{indent}{span.name:<24s} "
                     f"+{span.t0_ms - origin:9.2f}ms "
                     f"{span.dur_ms:9.2f}ms{mark}{attrs}")
        for kid in kids:
            draw(kid, depth + 1, origin)

    for tid in sorted(forest):
        trees = forest[tid]
        total = sum(root.dur_ms for root, _ in trees)
        lines.append(f"trace {tid}  ({len(trees)} root span(s), "
                     f"{total:.2f}ms)")
        origin = min((root.t0_ms for root, _ in trees), default=0.0)
        for tree in trees:
            draw(tree, 1, origin)
        lines.append("")
    return "\n".join(lines).rstrip()


# ----------------------------------------------------------------------
# flamegraph-compatible collapsed stacks from a cProfile capture
# ----------------------------------------------------------------------

def _frame(func: tuple) -> str:
    """pstats function triple -> a collapsed-stack frame label."""
    filename, lineno, name = func
    if filename in ("~", ""):
        return name.strip("<>")
    base = os.path.basename(filename)
    return f"{base}:{lineno}:{name}".replace(";", ",").replace(" ", "_")


def collapsed_stacks(stats: dict, min_us: int = 1) -> List[str]:
    """Collapsed-stack lines (``frame;frame;frame count``) from a
    ``pstats.Stats(...).stats`` mapping.

    cProfile records a call *graph*, not stack samples, so full stacks
    are reconstructed by walking each function's most-expensive caller
    chain (cycle-guarded).  Each function's *inline* time lands exactly
    once, as the leaf of its representative stack, so the flamegraph's
    total equals the profile's total inline time.  Counts are integer
    microseconds.
    """
    lines = []
    for func in sorted(stats, key=_frame):
        _, _, tt, _, callers = stats[func]
        micros = int(round(tt * 1_000_000))
        if micros < min_us:
            continue
        chain = [func]
        seen = {func}
        node = func
        while True:
            node_callers = stats.get(node, (0, 0, 0, 0, {}))[4]
            candidates = [(caller, timing[3])
                          for caller, timing in node_callers.items()
                          if caller not in seen]
            if not candidates:
                break
            node = max(candidates,
                       key=lambda item: (item[1], _frame(item[0])))[0]
            chain.append(node)
            seen.add(node)
        stack = ";".join(_frame(f) for f in reversed(chain))
        lines.append(f"{stack} {micros}")
    return lines


def write_collapsed(profiler, path: str, min_us: int = 1) -> int:
    """Dump a cProfile.Profile as collapsed stacks; returns line count."""
    import pstats

    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    lines = collapsed_stacks(stats, min_us=min_us)
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)
