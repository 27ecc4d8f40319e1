"""Structured tracing over the simulated timeline.

Every priced action in the reproduction — an OpenCL command, a host API
call, a batch of interpreted bytecodes — already charges a
:class:`~repro.opencl.costmodel.CostLedger`.  The tracer records the
same actions as *spans* (name, track, begin timestamp, duration) so a
run's timeline can be inspected, exported to Chrome trace-event JSON
(:mod:`repro.trace.export`) and cross-checked against the aggregated
Figure 3 segments.

Two kinds of spans exist:

* **cost spans** are emitted from the ledger charge sites and carry one
  of the four cost categories (``h2d`` / ``d2h`` / ``kernel`` /
  ``host``).  Their durations are exactly the nanoseconds charged, so
  :meth:`Tracer.summary` reproduces the Figure 3 four-segment breakdown
  directly from raw spans.
* **structural spans** (actor behaviour iterations, channel
  sends/receives, kernel-actor dispatches) describe *what was
  happening*; they carry no cost and are excluded from the summary.

Counters (buffer residency hits/misses, mailbox depths) accumulate a
running value per name and keep timestamped samples for export.

The default tracer is a no-op (:class:`NullTracer`); hot paths guard on
``tracer.enabled`` so untraced runs do no bookkeeping at all, and —
because simulated time only ever advances at charge sites — tracing
never perturbs the priced results.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from ..config import RuntimeConfig, current_config

#: The ledger cost categories, in Figure 3 segment order.
COST_CATEGORIES = ("h2d", "d2h", "kernel", "host")

#: Cost category -> Figure 3 segment name (harness vocabulary).
SEGMENT_OF = {
    "h2d": "to_device",
    "d2h": "from_device",
    "kernel": "kernel",
    "host": "overhead",
}


def thread_track() -> str:
    """The per-OS-thread track for structural spans.

    Channel operations run on the *calling* actor's thread (a send
    executes in the sender even though the buffer lives in the
    receiver's port), so per-thread tracks are the ones on which spans
    are guaranteed to be well-nested.  Stage threads are named
    ``{stage}/{actor}``, which makes these tracks self-describing.
    """
    return f"thread/{threading.current_thread().name}"


def _sim_now() -> float:
    # Local import: repro.opencl.context imports this package at load
    # time, so the clock is resolved lazily at call time.
    from ..opencl.context import current_clock

    return current_clock().now_ns


#: Keys of the with_elapsed summary section, mirroring
#: repro.opencl.costmodel.TIMELINE_SEGMENTS (duplicated literally here
#: because repro.opencl imports this package at load time).
_ELAPSED_KEYS = ("transfer", "compute", "api", "overlap", "idle")


def _elapsed_section() -> dict[str, float]:
    # Snapshot of the current clock's composed end-to-end timeline
    # (lazy import for the same load-order reason as _sim_now).
    from ..opencl.context import current_clock

    timeline = current_clock().timeline
    section = timeline.attribution()
    section["elapsed_ns"] = timeline.elapsed_ns
    return section


@dataclass
class Span:
    """One completed interval on a track of the simulated timeline."""

    name: str
    track: str
    ts_ns: float
    dur_ns: float
    #: cost category for cost spans; a free-form tag for structural ones
    category: Optional[str] = None
    #: True when the span's duration was charged to a cost ledger
    cost: bool = False
    args: dict = field(default_factory=dict)

    @property
    def end_ns(self) -> float:
        return self.ts_ns + self.dur_ns


@dataclass
class CounterSample:
    """A counter's value at one instant (exported as a 'C' event)."""

    name: str
    track: str
    ts_ns: float
    value: float


class _SpanHandle:
    """Context manager recording a structural span on exit."""

    __slots__ = ("_tracer", "name", "track", "category", "args", "_ts")

    def __init__(self, tracer: "Tracer", name: str, track: str,
                 category: Optional[str], args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.track = track
        self.category = category
        self.args = args
        self._ts = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._ts = self._tracer._now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = self._tracer._now()
        self._tracer._append(
            Span(self.name, self.track, self._ts, end - self._ts,
                 self.category, False, self.args)
        )


class _NullSpanHandle:
    """Shared, reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpanHandle()


class Tracer:
    """Collects spans and counters for one traced run.  Thread-safe."""

    enabled = True

    def __init__(self, clock_fn: Optional[Callable[[], float]] = None) -> None:
        #: the runtime configuration the traced run was set up under
        self.config = current_config()
        self._clock_fn = clock_fn
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.counter_samples: list[CounterSample] = []
        self._counters: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def _now(self) -> float:
        return (self._clock_fn or _sim_now)()

    def _append(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def cost_span(
        self,
        category: str,
        ns: float,
        name: Optional[str] = None,
        track: str = "host/api",
        ts_ns: Optional[float] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Record *ns* of charged *category* cost as a completed span.

        Called from the ledger charge sites; ``sum`` of these per
        category is exactly the ledger's Figure 3 breakdown.
        """
        if category not in SEGMENT_OF:
            raise ValueError(f"unknown cost category {category!r}")
        if ts_ns is None:
            ts_ns = self._now() - ns
        self._append(
            Span(name or category, track, ts_ns, ns, category, True,
                 args or {})
        )

    def span(
        self,
        name: str,
        track: str,
        category: Optional[str] = None,
        **args: Any,
    ) -> _SpanHandle:
        """Context manager recording a structural (cost-free) span."""
        return _SpanHandle(self, name, track, category, args)

    def struct_span(
        self,
        name: str,
        track: str,
        ts_ns: float,
        dur_ns: float,
        category: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a structural span at an explicit timestamp.

        Used by the queue scheduler and the multi-device dispatcher,
        whose spans live on their own schedule timelines rather than at
        the clock's current position.  Never counted by
        :meth:`summary` (``cost=False``).
        """
        self._append(
            Span(name, track, ts_ns, dur_ns, category, False, args or {})
        )

    def count(
        self,
        name: str,
        delta: float = 1.0,
        track: str = "counters",
        ts_ns: Optional[float] = None,
    ) -> float:
        """Add *delta* to counter *name*; returns and samples the total."""
        if ts_ns is None:
            ts_ns = self._now()
        with self._lock:
            value = self._counters.get(name, 0.0) + delta
            self._counters[name] = value
            self.counter_samples.append(
                CounterSample(name, track, ts_ns, value)
            )
        return value

    # -- queries -----------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current cumulative value of counter *name* (0.0 if unseen)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def tracks(self) -> list[str]:
        """All track names, in first-seen order."""
        seen: dict[str, None] = {}
        with self._lock:
            for span in self.spans:
                seen.setdefault(span.track, None)
            for sample in self.counter_samples:
                seen.setdefault(sample.track, None)
        return list(seen)

    def spans_on(self, track: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.track == track]

    def summary(
        self,
        with_counters: bool = False,
        by_track: bool = False,
        with_elapsed: bool = False,
    ) -> dict[str, Any]:
        """The Figure 3 four-segment breakdown, from raw cost spans.

        Returns ``{"to_device", "from_device", "kernel", "overhead"}``
        in nanoseconds — the same vocabulary (and, for a run measured by
        the harness, the same totals) as
        :meth:`repro.opencl.costmodel.CostLedger.breakdown`.

        With ``with_counters=True`` a ``"counters"`` key is added
        holding the run's scheduler and cache statistics — the
        ``kcache.*`` kernel-cache events, ``queue.*`` out-of-order
        scheduling gains, and ``dispatch.*`` execution-tier events
        (multi-device splits, ``dispatch.fallback.<reason>`` demotions,
        ``dispatch.compact``/``dispatch.compact.rounds`` lane
        compaction, ``dispatch.cse.hits`` common-subexpression reuse) —
        so per-run behaviour is reportable next to the cost segments
        without disturbing the four-key shape existing consumers
        pattern-match on.

        With ``by_track=True`` a ``"tracks"`` key is added mapping each
        track (e.g. ``device/<name>``) to its own four-segment
        sub-breakdown, which makes per-device costs of a multi-device
        dispatch directly visible.

        With ``with_elapsed=True`` an ``"elapsed"`` key is added with
        the schedule-aware end-to-end view from the current clock's
        composed timeline (the axis the ``sched.*`` spans' additional
        ``e2e_start_ns`` arg aligns to): ``elapsed_ns`` (critical-path
        end-to-end time) plus its exact wall-time attribution —
        ``transfer`` / ``compute`` / ``api`` / ``overlap`` / ``idle``.
        Unlike the four busy-time segments above, these describe
        *coverage*: a nanosecond with transfers and kernels both in
        flight is one ``overlap`` nanosecond, not two busy ones.  Read
        it while the measured run's clock is still current (inside the
        same ``fresh_clock()`` / before the next ledger reset).
        """
        totals: dict[str, Any] = {
            segment: 0.0 for segment in SEGMENT_OF.values()
        }
        tracks: dict[str, dict[str, float]] = {}
        with self._lock:
            for span in self.spans:
                if span.cost:
                    segment = SEGMENT_OF[span.category]
                    totals[segment] += span.dur_ns
                    if by_track:
                        sub = tracks.setdefault(
                            span.track,
                            {s: 0.0 for s in SEGMENT_OF.values()},
                        )
                        sub[segment] += span.dur_ns
        if with_counters:
            totals["counters"] = {
                name: value
                for name, value in self.counters().items()
                if name.startswith(
                    ("kcache.", "queue.", "dispatch.", "fault.", "actor.")
                )
            }
        if by_track:
            totals["tracks"] = tracks
        if with_elapsed:
            totals["elapsed"] = _elapsed_section()
        return totals


class NullTracer:
    """The zero-overhead default: every operation is a no-op."""

    enabled = False
    config = RuntimeConfig()
    spans: list = []
    counter_samples: list = []

    def cost_span(self, *args: Any, **kwargs: Any) -> None:
        pass

    def struct_span(self, *args: Any, **kwargs: Any) -> None:
        pass

    def span(self, *args: Any, **kwargs: Any) -> _NullSpanHandle:
        return _NULL_SPAN

    def count(self, *args: Any, **kwargs: Any) -> float:
        return 0.0

    def counter(self, name: str) -> float:
        return 0.0

    def counters(self) -> dict[str, float]:
        return {}

    def tracks(self) -> list[str]:
        return []

    def spans_on(self, track: str) -> list:
        return []

    def summary(
        self,
        with_counters: bool = False,
        by_track: bool = False,
        with_elapsed: bool = False,
    ) -> dict[str, Any]:
        totals: dict[str, Any] = {
            segment: 0.0 for segment in SEGMENT_OF.values()
        }
        if with_counters:
            totals["counters"] = {}
        if by_track:
            totals["tracks"] = {}
        if with_elapsed:
            totals["elapsed"] = {
                segment: 0.0 for segment in _ELAPSED_KEYS
            }
            totals["elapsed"]["elapsed_ns"] = 0.0
        return totals


NULL_TRACER = NullTracer()

_current: Tracer | NullTracer = NULL_TRACER
_current_lock = threading.Lock()


def current_tracer() -> Tracer | NullTracer:
    """The tracer instrumented code reports to (default: no-op)."""
    return _current


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install *tracer* globally; returns the previous one."""
    global _current
    with _current_lock:
        previous = _current
        _current = tracer
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer for the dynamic extent of the block::

        with tracing() as tr:
            outcome = matmul.run_ensemble(n=32)
        tr.summary()   # == outcome.breakdown
    """
    active = tracer if tracer is not None else Tracer()
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)
