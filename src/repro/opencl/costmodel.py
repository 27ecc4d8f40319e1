"""Deterministic performance model for the simulated OpenCL devices.

The paper reports wall-clock times on an AMD R9 290x GPU and an Intel
i5-3550 CPU.  This environment has neither, so every reported time in
the reproduction comes from this model instead: a deterministic pricing
of the *actually executed* work.  The model charges:

* **transfers** — latency + bytes/bandwidth, asymmetric for host-to-
  device vs device-to-host (PCIe-like for the GPU device);
* **kernels** — per-work-item dynamic operation counts (measured by the
  execution engine) grouped into SIMD "warps" (a warp's cost is the max
  of its lanes — divergence is paid for), warps summed per work-group,
  and work-groups scheduled in order onto compute units; kernel time is
  the makespan plus a fixed launch overhead;
* **host code** — a per-API-call charge for the C-style baseline, and a
  per-bytecode charge for the Ensemble VM (the paper's interpreter
  overhead).

Because every figure is priced from executed operations, the reported
numbers are exactly reproducible on any machine.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

CPU = "CPU"
GPU = "GPU"
ACCELERATOR = "ACCELERATOR"

#: Simulated byte widths of buffer element types.
ELEMENT_BYTES = {"float": 4, "int": 4, "bool": 1}


@dataclass(frozen=True)
class DeviceSpec:
    """Static performance parameters of one simulated device."""

    name: str
    device_type: str
    compute_units: int
    simd_width: int
    #: per-lane primitive-operation throughput, operations per nanosecond
    ops_per_ns: float
    #: host->device bandwidth, bytes per nanosecond
    h2d_bytes_per_ns: float
    #: device->host bandwidth, bytes per nanosecond
    d2h_bytes_per_ns: float
    #: fixed per-transfer latency
    transfer_latency_ns: float
    #: fixed per-dispatch kernel launch cost
    kernel_launch_ns: float
    #: cost charged per host API call
    api_call_ns: float
    #: one-off runtime program build cost
    compile_ns: float
    max_work_group_size: int = 256

    @property
    def lanes(self) -> int:
        return self.compute_units * self.simd_width

    def transfer_ns(self, nbytes: int, to_device: bool) -> float:
        """Simulated duration of moving *nbytes* across the host link."""
        bw = self.h2d_bytes_per_ns if to_device else self.d2h_bytes_per_ns
        return self.transfer_latency_ns + nbytes / bw

    def kernel_ns(
        self,
        item_ops: Sequence[int],
        global_size: Sequence[int],
        local_size: Sequence[int],
    ) -> float:
        """Price one NDRange dispatch from measured per-item op counts.

        ``item_ops`` is in linear order (dim0 fastest).  Tests use this
        as the reference price; dispatches themselves are priced through
        :meth:`kernel_ns_from_group_warps`.
        """
        group_warps = group_warp_costs(
            item_ops, global_size, local_size, self.simd_width
        )
        return self.kernel_ns_from_group_warps(group_warps)

    def kernel_ns_from_group_warps(
        self, group_warps: Sequence[Sequence[int]]
    ) -> float:
        """Price a dispatch from per-group lists of warp op maxima.

        The divergence rule only ever consumes warp-level maxima, so
        runners that reduce lanes to warp maxima on the fly (the batched
        execution fast path) feed this directly and produce bit-identical
        times to :meth:`kernel_ns` over the full per-item list.
        """
        group_ns = [
            sum(w for w in warps) / self.ops_per_ns for warps in group_warps
        ]
        makespan = _schedule(group_ns, self.compute_units)
        return self.kernel_launch_ns + makespan


def group_warp_costs(
    item_ops: Sequence[int],
    global_size: Sequence[int],
    local_size: Sequence[int],
    simd: int,
) -> list[list[int]]:
    """Partition per-item op counts into per-group lists of warp costs.

    A warp is ``simd`` consecutive work-items of the same group (taken
    in linear intra-group order); its cost is the maximum of its lanes,
    modelling lock-step divergence.  This pure-Python fold is the
    reference that :func:`repro.kir.npcodegen.fold_group_warps`, which
    folds every dispatch, is tested against.
    """
    g = list(global_size) + [1] * (3 - len(global_size))
    l = list(local_size) + [1] * (3 - len(local_size))
    ngrp = [gi // li for gi, li in zip(g, l)]

    # group linear index -> list of item ops (in arrival order)
    lanes: list[list[int]] = [[] for _ in range(ngrp[0] * ngrp[1] * ngrp[2])]
    idx = 0
    for z in range(g[2]):
        gz = z // l[2]
        for y in range(g[1]):
            gy = y // l[1]
            row_base = (gz * ngrp[1] + gy) * ngrp[0]
            for x in range(g[0]):
                lanes[row_base + x // l[0]].append(item_ops[idx])
                idx += 1

    out: list[list[int]] = []
    for ops in lanes:
        warps = [
            max(ops[i : i + simd]) for i in range(0, len(ops), simd)
        ]
        out.append(warps)
    return out


def _schedule(group_ns: Sequence[float], compute_units: int) -> float:
    """In-order greedy assignment of groups to CUs; returns the makespan."""
    if not group_ns:
        return 0.0
    if compute_units <= 1:
        return float(sum(group_ns))
    heap = [0.0] * min(compute_units, len(group_ns))
    heapq.heapify(heap)
    for cost in group_ns:
        earliest = heapq.heappop(heap)
        heapq.heappush(heap, earliest + cost)
    return max(heap)


#: Cost category -> composed-timeline segment kind (the end-to-end
#: accounting vocabulary: every covered nanosecond of wall time is a
#: transfer, compute or api nanosecond — or "overlap" where kinds
#: coincide; see :meth:`ScheduleTimeline.attribution`).
TIMELINE_KIND_OF = {
    "h2d": "transfer",
    "d2h": "transfer",
    "kernel": "compute",
    "host": "api",
}

#: Attribution buckets, in reporting order.
TIMELINE_SEGMENTS = ("transfer", "compute", "api", "overlap", "idle")


class ScheduleTimeline:
    """The composed cross-queue end-to-end timeline of one clock.

    The per-queue schedule timelines (``Event.sched_start_ns`` /
    ``sched_end_ns``) are queue-local: origin 0 at queue creation, no
    knowledge of host work or of other queues.  This class composes
    everything priced on one :class:`SimClock` onto a **shared origin**
    so a measured run has a single end-to-end wall-time axis:

    * **serial work** — host API calls, VM bytecode, and device charges
      that never pass through a command queue (the OpenACC runtime's
      synchronous dispatches) — occupies the host cursor sequentially:
      each charge covers ``[host_pos, host_pos + ns)`` and advances the
      cursor;
    * **queue commands** are *placed* by their queue at their composed
      coordinates (``Event.e2e_start_ns`` / ``e2e_end_ns``): released
      no earlier than the host cursor at enqueue time, then subject to
      the same fence/dependency/engine rules as the queue-local
      schedule (see repro.opencl.queue);
    * :meth:`host_wait` models a blocking host call (``clFinish``): the
      cursor jumps to the queue's composed makespan, so commands
      enqueued afterwards — on *any* queue — start no earlier.

    ``elapsed_ns`` is the critical-path end-to-end time: the maximum
    covered instant.  :meth:`attribution` splits it exactly (computed
    in rational arithmetic, so the buckets sum to ``elapsed_ns`` with
    no nanosecond double-counted or dropped) into the four Figure-3-
    style wall-time segments: ``transfer``, ``compute``, ``api`` and
    ``overlap`` — the time during which work of more than one kind was
    in flight, which per-category busy totals can never show.

    ``reset()`` (called by ``Context.reset_ledger`` between measured
    runs) starts a new epoch at origin 0; queues re-anchor their
    composed state lazily on the next placement, keeping their
    queue-local schedules — and ``queue.overlap_ns`` — intact.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: completed composed segments as ``(start, end, kind)`` tuples
        self.segments: list[tuple[float, float, str]] = []
        self._host_pos = 0.0
        self._max_end = 0.0
        self.epoch = 0

    @property
    def host_pos_ns(self) -> float:
        """The host cursor: where serial work has advanced to."""
        with self._lock:
            return self._host_pos

    @property
    def elapsed_ns(self) -> float:
        """End-to-end time: the latest covered composed instant."""
        with self._lock:
            return max(self._max_end, self._host_pos)

    def serial_advance(self, kind: str, ns: float) -> float:
        """Occupy ``[host_pos, host_pos + ns)`` with *kind*; returns the
        segment's start.  Adjacent same-kind serial segments coalesce
        (exact: attribution over ``[a,b)+[b,c)`` equals ``[a,c)``)."""
        with self._lock:
            start = self._host_pos
            end = start + ns
            self._host_pos = end
            if ns > 0.0:
                if (
                    self.segments
                    and self.segments[-1][1] == start
                    and self.segments[-1][2] == kind
                ):
                    self.segments[-1] = (self.segments[-1][0], end, kind)
                else:
                    self.segments.append((start, end, kind))
                if end > self._max_end:
                    self._max_end = end
            return start

    def place(self, kind: str, start_ns: float, end_ns: float) -> None:
        """Record a queue command at its composed coordinates."""
        with self._lock:
            if end_ns > start_ns:
                self.segments.append((start_ns, end_ns, kind))
                if end_ns > self._max_end:
                    self._max_end = end_ns

    def host_wait(self, until_ns: float) -> None:
        """Block the host cursor until *until_ns* (``clFinish`` model).

        The waiting time itself is idle host, not a segment: the device
        work the host waits on already covers it.
        """
        with self._lock:
            if until_ns > self._host_pos:
                self._host_pos = until_ns

    def reset(self) -> None:
        """Start a new epoch at origin 0 (between measured runs)."""
        with self._lock:
            self.segments.clear()
            self._host_pos = 0.0
            self._max_end = 0.0
            self.epoch += 1

    def attribution_exact(self) -> dict[str, Fraction]:
        """Exact wall-time split of ``[0, elapsed_ns)`` as Fractions.

        A sweep over the segment boundaries attributes every elementary
        interval to the one kind covering it, to ``overlap`` when kinds
        of more than one sort cover it (concurrent same-kind work stays
        that kind: two devices computing is still compute time), and to
        ``idle`` when nothing covers it.  Fractions make the telescoping
        sum exact: the bucket values sum to precisely ``elapsed_ns``.
        """
        with self._lock:
            segs = [
                (Fraction(s), Fraction(e), kind)
                for s, e, kind in self.segments
                if e > s
            ]
            elapsed = Fraction(max(self._max_end, self._host_pos))
        totals = {segment: Fraction(0) for segment in TIMELINE_SEGMENTS}
        if elapsed <= 0:
            return totals
        deltas: dict[Fraction, dict[str, int]] = {}
        for start, end, kind in segs:
            deltas.setdefault(start, {}).setdefault(kind, 0)
            deltas[start][kind] += 1
            deltas.setdefault(end, {}).setdefault(kind, 0)
            deltas[end][kind] -= 1
        deltas.setdefault(Fraction(0), {})
        deltas.setdefault(elapsed, {})
        bounds = sorted(deltas)
        active: dict[str, int] = {}
        for lo, hi in zip(bounds, bounds[1:]):
            for kind, delta in deltas[lo].items():
                active[kind] = active.get(kind, 0) + delta
            if lo >= elapsed:
                break
            kinds = [k for k, depth in active.items() if depth > 0]
            if not kinds:
                bucket = "idle"
            elif len(kinds) == 1:
                bucket = kinds[0]
            else:
                bucket = "overlap"
            totals[bucket] += min(hi, elapsed) - lo
        return totals

    def attribution(self) -> dict[str, float]:
        """:meth:`attribution_exact` as floats, for reporting."""
        return {
            kind: float(value)
            for kind, value in self.attribution_exact().items()
        }


class SimClock:
    """A monotonically accumulating simulated-time counter.

    The reproduction reports *busy time*: every priced action (transfer,
    kernel, API call, interpreted bytecode) adds its duration here.
    The clock is thread-safe because actor runtimes charge it from
    multiple actor threads.  The attached :class:`ScheduleTimeline`
    (``clock.timeline``) composes the same charges onto a shared
    end-to-end wall-time axis — busy time and elapsed time are the two
    reported views of one run.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._lock = threading.Lock()
        self.timeline = ScheduleTimeline()

    @property
    def now_ns(self) -> float:
        return self._now

    def advance(self, ns: float) -> float:
        """Add *ns* and return the new now."""
        if ns < 0:
            raise ValueError("cannot advance the clock backwards")
        with self._lock:
            self._now += ns
            return self._now

    def reset(self) -> None:
        with self._lock:
            self._now = 0.0
        self.timeline.reset()


@dataclass
class CostLedger:
    """Per-category totals for one measured run (Figure 3 segments)."""

    h2d_ns: float = 0.0
    d2h_ns: float = 0.0
    kernel_ns: float = 0.0
    host_ns: float = 0.0
    api_calls: int = 0
    kernel_launches: int = 0
    bytes_to_device: int = 0
    bytes_from_device: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def charge(self, category: str, ns: float) -> None:
        with self._lock:
            if category == "h2d":
                self.h2d_ns += ns
            elif category == "d2h":
                self.d2h_ns += ns
            elif category == "kernel":
                self.kernel_ns += ns
            elif category == "host":
                self.host_ns += ns
            else:
                raise ValueError(f"unknown cost category {category!r}")

    @property
    def total_ns(self) -> float:
        return self.h2d_ns + self.d2h_ns + self.kernel_ns + self.host_ns

    def breakdown(self) -> dict[str, float]:
        """Figure-3-style segments (nanoseconds)."""
        return {
            "to_device": self.h2d_ns,
            "from_device": self.d2h_ns,
            "kernel": self.kernel_ns,
            "overhead": self.host_ns,
        }


_spec_counter = itertools.count(1)


def gpu_spec(scale: float = 1.0, name: str | None = None) -> DeviceSpec:
    """An R9-290x-class device.

    ``scale`` shrinks the machine proportionally (lanes and bandwidth)
    so benchmark problem sizes far below the paper's (1024² matrices,
    2^25-element arrays) exercise the same occupancy regime.  scale=1 is
    the full 44-CU part.
    """
    cu = max(2, round(44 * scale))
    return DeviceSpec(
        name=name or f"Repro Radeon Sim {next(_spec_counter)}",
        device_type=GPU,
        compute_units=cu,
        simd_width=16,
        ops_per_ns=1.0,
        h2d_bytes_per_ns=max(0.5, 12.0 * scale),
        d2h_bytes_per_ns=max(0.5, 10.0 * scale),
        transfer_latency_ns=max(400.0, 8_000.0 * scale),
        kernel_launch_ns=max(800.0, 15_000.0 * scale),
        api_call_ns=300.0,
        compile_ns=max(20_000.0, 120_000.0 * scale),
        max_work_group_size=256,
    )


def cpu_spec(scale: float = 1.0, name: str | None = None) -> DeviceSpec:
    """An i5-3550-class device exposed through OpenCL."""
    cu = max(1, round(4 * scale))
    return DeviceSpec(
        name=name or f"Repro Core i5 Sim {next(_spec_counter)}",
        device_type=CPU,
        compute_units=cu,
        simd_width=4,
        ops_per_ns=2.0,
        h2d_bytes_per_ns=max(1.0, 30.0 * scale),
        d2h_bytes_per_ns=max(1.0, 30.0 * scale),
        transfer_latency_ns=max(50.0, 400.0 * scale),
        kernel_launch_ns=max(250.0, 2_500.0 * scale),
        api_call_ns=200.0,
        compile_ns=max(15_000.0, 80_000.0 * scale),
        max_work_group_size=1024,
    )
