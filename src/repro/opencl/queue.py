"""Command queues, profiling events, and the queue scheduling model.

Queues come in the two OpenCL execution modes:

* **in-order** (the default, paper Section 6.2.1): commands drain
  strictly in enqueue order.  The runtime layer above keeps a single
  in-order queue per device — multiple queues per device showed read
  races on the authors' stack, and the same policy is reproduced here.
* **out-of-order** (``CL_QUEUE_OUT_OF_ORDER_EXEC_MODE``): commands form
  a dependency DAG — explicit event wait-lists plus inferred
  whole-buffer read/write hazards (RAW/WAR/WAW) — and a deterministic
  list scheduler places each command at the earliest point its
  dependencies and its device engine allow, so independent commands
  overlap on the schedule.  Barriers, markers and :meth:`finish` retain
  their OpenCL ordering semantics.

Commands *execute* synchronously at enqueue time in both modes, so
buffer contents — and the measured warp maxima the cost model prices —
are bit-identical regardless of mode; the scheduler only decides where
each command lands.  One rule places every command on both schedule
axes, the queue-local one and the clock's composed end-to-end one:
a command is *ready* — in-order, when the queue's latest command has
ended (wait lists are ignored); out-of-order, at the fence, its wait
list and its buffer hazards — and starts once its engine is free; on
the composed axis the host cursor is one more lower bound.  Each
command returns an :class:`Event` carrying OpenCL-style profiling
timestamps (aggregated by the harness into the Figure 3 segments,
identically in both modes) plus both placements, from which
:attr:`CommandQueue.makespan_ns` and the ``queue.overlap_ns`` trace
counter are derived.  See docs/ARCHITECTURE.md ("The queue scheduling
model") for the full determinism argument.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from ..config import current_config
from ..errors import (
    CLDeviceLost,
    CLError,
    CLInvalidContext,
    CLInvalidValue,
    CLInvalidWorkGroupSize,
)
from ..trace import current_tracer
from . import faults, fusion
from .context import Context
from .costmodel import TIMELINE_KIND_OF
from .dispatch import dispatch_kernel_ns
from .memory import Buffer
from .platform import Device

_event_ids = itertools.count(1)
_queue_ids = itertools.count(1)

# Command types (CL_COMMAND_*-style).
WRITE_BUFFER = "WRITE_BUFFER"
READ_BUFFER = "READ_BUFFER"
COPY_BUFFER = "COPY_BUFFER"
NDRANGE_KERNEL = "NDRANGE_KERNEL"
MARKER = "MARKER"
BARRIER = "BARRIER"

#: Queue-property flag enabling the out-of-order scheduler
#: (``clCreateCommandQueue(..., properties=[...])``).
CL_QUEUE_OUT_OF_ORDER_EXEC_MODE = "OUT_OF_ORDER_EXEC_MODE"

#: Device engine each command class occupies on the schedule: transfers
#: ride the two DMA directions, kernels and device-side copies the
#: compute engine.  Commands on different engines may overlap in
#: out-of-order mode; commands on one engine serialize.
ENGINE_OF = {
    WRITE_BUFFER: "dma_h2d",
    READ_BUFFER: "dma_d2h",
    COPY_BUFFER: "compute",
    NDRANGE_KERNEL: "compute",
}


class Event:
    """Profiling record of one enqueued command.

    Carries the four OpenCL profiling timestamps distinctly: QUEUED is
    when the host enqueued the command, SUBMIT when the queue handed it
    to the device — the same instant, except for a kernel deferred for
    fusion, submitted at its flush — and START when the device
    actually began it, which is later than SUBMIT whenever the device
    was still busy with earlier work (queueing delay).  END = START +
    duration.

    Additionally carries the command's placement on its queue's
    schedule timeline (``sched_start_ns`` / ``sched_end_ns``, origin 0
    at queue creation): the serial chain position for an in-order
    queue, the list-scheduled position for an out-of-order one.  The
    same placement composed with host work and every other queue of the
    clock — the shared-origin end-to-end axis — is carried as
    ``e2e_start_ns`` / ``e2e_end_ns`` (see
    :class:`~repro.opencl.costmodel.ScheduleTimeline`).
    """

    def __init__(
        self,
        command: str,
        category: str,
        queued_ns: float,
        duration_ns: float,
        start_ns: Optional[float] = None,
    ) -> None:
        self.id = next(_event_ids)
        self.command = command
        self.category = category  # 'h2d' | 'd2h' | 'kernel'
        self.queued_ns = queued_ns
        self.submit_ns = queued_ns
        self.start_ns = self.submit_ns if start_ns is None else start_ns
        self.end_ns = self.start_ns + duration_ns
        #: placement on the owning queue's schedule timeline
        self.sched_start_ns = 0.0
        self.sched_end_ns = duration_ns
        #: placement on the clock's composed end-to-end timeline
        self.e2e_start_ns = 0.0
        self.e2e_end_ns = duration_ns
        #: composed-timeline epoch the e2e placement belongs to
        self._e2e_epoch = 0

    @property
    def queue_delay_ns(self) -> float:
        """Time the command waited for the device (START - SUBMIT)."""
        return self.start_ns - self.submit_ns

    @property
    def duration_ns(self) -> float:
        """The command's priced duration (END - START)."""
        return self.end_ns - self.start_ns

    def profiling_info(self, name: str) -> float:
        """CL_PROFILING_COMMAND_{QUEUED,SUBMIT,START,END} lookup."""
        try:
            return {
                "QUEUED": self.queued_ns,
                "SUBMIT": self.submit_ns,
                "START": self.start_ns,
                "END": self.end_ns,
            }[name]
        except KeyError:
            raise CLInvalidValue(f"bad profiling info {name!r}") from None

    def __repr__(self) -> str:
        return f"<Event {self.id} {self.command} {self.duration_ns:.0f}ns>"


class _PendingKernel:
    """A kernel dispatch held back by the graph-level optimiser.

    Under ``repro.configure(fusion=True)`` the queue keeps the most
    recent kernel enqueue pending until it learns whether the *next*
    command fuses with it (:mod:`repro.opencl.fusion`).  The caller's
    :class:`Event` exists from enqueue time and is stamped with its real
    placement when the pending dispatch finally executes — either inside
    a fused launch or as an ordinary flush.
    """

    __slots__ = ("kernel", "entries", "gsz", "lsz", "reads", "writes", "event")

    def __init__(self, kernel, entries, gsz, lsz, reads, writes, event):
        self.kernel = kernel
        self.entries = entries
        self.gsz = gsz
        self.lsz = lsz
        self.reads = reads
        self.writes = writes
        self.event = event


class _Axis:
    """Placement state of one schedule axis: the queue-local one, or
    this queue's share of the clock's composed end-to-end timeline."""

    __slots__ = ("fence", "engine_free", "max_end")

    def __init__(self) -> None:
        #: barrier/finish ordering point
        self.fence = 0.0
        #: per-engine availability
        self.engine_free: dict[str, float] = {}
        #: end of the latest-finishing command (the makespan)
        self.max_end = 0.0

    def place(self, ready: float, engine: str, ns: float) -> tuple[float, float]:
        """Run *ns* on *engine* from *ready* or once the engine is free."""
        free = self.engine_free.get(engine, 0.0)
        start = ready if ready >= free else free
        end = start + ns
        self.engine_free[engine] = end
        if end > self.max_end:
            self.max_end = end
        return start, end


class CommandQueue:
    """A command queue bound to one device of a context.

    ``out_of_order=True`` enables the hazard-tracking list scheduler
    (see the module docstring); the default reproduces the paper's
    strictly in-order queues byte-for-byte.
    """

    def __init__(
        self,
        context: Context,
        device: Device,
        out_of_order: bool = False,
    ) -> None:
        if not context.has_device(device):
            raise CLInvalidContext(
                f"device {device.name!r} is not part of the context"
            )
        self.id = next(_queue_ids)
        self.context = context
        self.device = device
        self.out_of_order = bool(out_of_order)
        self.released = False
        #: what an in-order drain of the same commands would take
        self._serial_end = 0.0
        #: queue-local schedule axis (origin 0 at queue creation)
        self._local = _Axis()
        #: composed-axis state and the timeline epoch it belongs to;
        #: when the timeline resets (Context.reset_ledger between runs)
        #: the queue re-anchors lazily at the new origin
        self._e2e = _Axis()
        self._e2e_epoch = context.clock.timeline.epoch
        #: buffer id -> event that last wrote it (out-of-order only)
        self._last_writer: dict[int, Event] = {}
        #: buffer id -> events that read it since its last write
        self._last_readers: dict[int, list[Event]] = {}
        #: overlap already reported to the tracer counter
        self._overlap_reported = 0.0
        #: kernel dispatch deferred by the graph-level optimiser
        #: (always None while fusion is disabled)
        self._pending: Optional[_PendingKernel] = None
        context._queues.append(self)

    # -- schedule -----------------------------------------------------------

    @property
    def makespan_ns(self) -> float:
        """Length of the queue's schedule (max command end, origin 0)."""
        return self._local.max_end

    @property
    def serial_makespan_ns(self) -> float:
        """What the same command stream takes when drained in order."""
        return self._serial_end

    @property
    def overlap_ns(self) -> float:
        """Schedule time saved vs an in-order drain (0 when in-order)."""
        return max(0.0, self._serial_end - self._local.max_end)

    @property
    def e2e_makespan_ns(self) -> float:
        """End of this queue's schedule on the composed end-to-end axis
        (0.0 when nothing was placed since the timeline's last epoch)."""
        if self._e2e_epoch != self.context.clock.timeline.epoch:
            return 0.0
        return self._e2e.max_end

    def _e2e_anchor(self, timeline) -> int:
        """Re-anchor the composed axis at *timeline*'s current epoch and
        return that epoch.

        ``Context.reset_ledger`` restarts the composed timeline at
        origin 0; composed coordinates recorded before the reset are
        stale, so the axis drops back to the origin.  Queue-local
        schedule state (serial end, makespan, ``overlap_ns``)
        deliberately survives: it describes the queue, not the measured
        run.
        """
        epoch = timeline.epoch
        if self._e2e_epoch != epoch:
            self._e2e = _Axis()
            self._e2e_epoch = epoch
        return epoch

    def _ready(
        self, deps: Optional[Sequence[Event]], release: float, epoch: int
    ) -> tuple[float, float]:
        """The one readiness rule, as (queue-local, composed) times.

        A command is ready at the fence and after every event of
        *deps*, or — when *deps* is None — after the queue's latest
        command.  The composed axis adds the host cursor *release* (a
        command cannot start before the host issued it); a dependency
        placed under an older epoch is already satisfied there.
        """
        local, e2e = self._local, self._e2e
        if deps is None:
            return (
                max(local.fence, local.max_end),
                max(release, e2e.fence, e2e.max_end),
            )
        ready, e2e_ready = local.fence, max(release, e2e.fence)
        for dep in deps:
            ready = max(ready, dep.sched_end_ns)
            if dep._e2e_epoch == epoch:
                e2e_ready = max(e2e_ready, dep.e2e_end_ns)
        return ready, e2e_ready

    def _dependencies(
        self,
        reads: Iterable[int],
        writes: Iterable[int],
        wait_for: Optional[Sequence[Event]],
    ) -> Optional[list[Event]]:
        """What a command waits for: None on an in-order queue (it
        follows the queue's latest command and ignores *wait_for*), else
        *wait_for* plus the RAW/WAR/WAW hazards its *reads*/*writes*
        have on earlier commands."""
        if not self.out_of_order:
            return None
        deps = list(wait_for or ())
        for buf_id in reads:
            writer = self._last_writer.get(buf_id)
            if writer is not None:
                deps.append(writer)
        for buf_id in writes:
            writer = self._last_writer.get(buf_id)
            if writer is not None:
                deps.append(writer)
            deps.extend(self._last_readers.get(buf_id, ()))
        return deps

    def _schedule(
        self,
        event: Event,
        command: str,
        ns: float,
        reads: Iterable[int],
        writes: Iterable[int],
        wait_for: Optional[Sequence[Event]],
    ) -> None:
        """Place *event* on both axes by :meth:`_ready` and its engine
        (:meth:`_Axis.place`).  Hazard tables and the ``sched/…`` spans
        are kept for out-of-order queues only; an in-order queue ignores
        *wait_for* and its hazards."""
        timeline = self.context.clock.timeline
        epoch = self._e2e_anchor(timeline)
        event._e2e_epoch = epoch
        serial_start = self._serial_end
        self._serial_end = serial_start + ns
        deps = self._dependencies(reads, writes, wait_for)
        ready, e2e_ready = self._ready(deps, timeline.host_pos_ns, epoch)
        engine = ENGINE_OF[command]
        start, end = self._local.place(ready, engine, ns)
        e2e_start, e2e_end = self._e2e.place(e2e_ready, engine, ns)
        event.sched_start_ns, event.sched_end_ns = start, end
        event.e2e_start_ns, event.e2e_end_ns = e2e_start, e2e_end
        timeline.place(TIMELINE_KIND_OF[event.category], e2e_start, e2e_end)
        if self.out_of_order:
            for buf_id in writes:
                self._last_writer[buf_id] = event
                self._last_readers[buf_id] = []
            for buf_id in reads:
                self._last_readers.setdefault(buf_id, []).append(event)
            tracer = current_tracer()
            if tracer.enabled:
                overlap = self.overlap_ns
                delta = overlap - self._overlap_reported
                if delta > 0.0:
                    self._overlap_reported = overlap
                    tracer.count("queue.overlap_ns", delta)
                tracer.struct_span(
                    command,
                    track=f"sched/queue-{self.id}/{engine}",
                    ts_ns=start,
                    dur_ns=ns,
                    category="sched",
                    args={
                        "ready_ns": ready,
                        "serial_start_ns": serial_start,
                        "e2e_start_ns": e2e_start,
                    },
                )

    def _sync_schedule(self) -> None:
        """Fence the schedule: later commands start after everything
        scheduled so far (out-of-order ``finish``/barrier semantics)."""
        for axis in (self._local, self._e2e):
            axis.fence = max(axis.fence, axis.max_end)
        self._last_writer.clear()
        self._last_readers.clear()

    # -- helpers -----------------------------------------------------------

    def _record(
        self,
        command: str,
        category: str,
        ns: float,
        reads: Iterable[int] = (),
        writes: Iterable[int] = (),
        wait_for: Optional[Sequence[Event]] = None,
        deferred: Optional[Event] = None,
        **span_args,
    ) -> Event:
        """Price one command: stamp its Event, schedule it and charge the
        context ledger/clock (the cost totals never depend on mode).

        A *deferred* event — a kernel the fusion slot held back — is
        stamped in place: QUEUED keeps its enqueue instant, SUBMIT is
        now, the flush instant.
        """
        now = self.context.clock.now_ns
        start = self.device.schedule_ns(now, ns)
        if deferred is None:
            event = Event(command, category, now, ns, start_ns=start)
        else:
            event = deferred
            event.submit_ns, event.start_ns, event.end_ns = now, start, start + ns
        self._schedule(event, command, ns, reads, writes, wait_for)
        self.context.charge(
            category,
            ns,
            name=command,
            track=f"device/{self.device.name}",
            ts_ns=start,
            args=dict(
                span_args,
                queued_ns=event.queued_ns,
                queue_delay_ns=event.queue_delay_ns,
            ),
            placed=True,
        )
        return event

    def _mark_kernel_written(self, entries: Sequence, writes: Iterable[int]) -> None:
        """A kernel stored into these buffers: their device contents no
        longer match any host upload, so the transfer-elimination pass
        must not elide the next write into them."""
        written = set(writes)
        for entry in entries:
            if isinstance(entry, Buffer) and entry.id in written:
                entry._h2d_clean = None

    def _launch(
        self,
        name: str,
        runner,
        entries: Sequence,
        reads: Iterable[int],
        writes: Iterable[int],
        gsz: Sequence[int],
        lsz: Sequence[int],
        wait_for: Optional[Sequence[Event]],
        deferred: Optional[Event] = None,
        **span_args,
    ) -> Event:
        """Execute, price and record one kernel launch (shared tail of
        the immediate, fused and flushed dispatch paths)."""
        ns = dispatch_kernel_ns(runner, self.device.spec, entries, gsz, lsz)
        self._mark_kernel_written(entries, writes)
        with self.context.ledger._lock:
            self.context.ledger.kernel_launches += 1
        return self._record(
            NDRANGE_KERNEL,
            "kernel",
            ns,
            reads=reads,
            writes=writes,
            wait_for=wait_for,
            deferred=deferred,
            kernel=name,
            global_size=list(gsz),
            local_size=list(lsz),
            **span_args,
        )

    def _flush_if_pending(self, reason: str) -> None:
        """Dispatch the deferred kernel, if any, as an ordinary launch.

        *reason* is the legality rule that rejected fusion or the
        command class that forced the flush; it lands on the tracer as
        ``dispatch.fuse.reject.<reason>`` so demotions are diagnosable.
        The pending slot is cleared *before* executing — the dispatch
        itself observes buffer contents, which would otherwise re-enter
        here through the host-observation hooks.
        """
        pend = self._pending
        if pend is None:
            return
        self._pending = None
        self.context._fusion_pending -= 1
        fusion.count_reject(reason)
        self._launch(
            pend.kernel.name,
            pend.kernel.runner(self.device),
            pend.entries,
            pend.reads,
            pend.writes,
            pend.gsz,
            pend.lsz,
            None,
            deferred=pend.event,
            flushed=reason,
        )

    def _check_open(self) -> None:
        """A released queue accepts no new commands."""
        if self.released:
            raise CLInvalidValue(
                f"queue {self.id} on {self.device.name!r} was released"
            )

    def _check_buffer(self, buf: Buffer) -> None:
        buf.check_alive()
        if buf.context is not self.context:
            raise CLInvalidContext(
                f"buffer {buf.id} belongs to a different context"
            )

    def _check_device_writable(self) -> None:
        """New writes and dispatches are refused on a lost device
        (reads of already-resident buffers still drain)."""
        if self.device.lost:
            raise CLDeviceLost(
                f"device {self.device.name!r} was lost; no new work accepted"
            )

    def _count_bytes(self, nbytes: int, to_device: bool) -> None:
        """Add one transfer's bytes to the ledger and the trace counter."""
        ledger = self.context.ledger
        with ledger._lock:
            if to_device:
                ledger.bytes_to_device += nbytes
            else:
                ledger.bytes_from_device += nbytes
        tracer = current_tracer()
        if tracer.enabled:
            direction = "to_device" if to_device else "from_device"
            tracer.count(f"bytes.{direction}", nbytes)

    def _fault_gate(self, op: str, key: str, attempt_ns: float) -> None:
        """Give the installed fault plan its shot at one command
        (:func:`repro.opencl.faults.gate`): aborted attempts are charged
        in the op's own category on this device's track, and a
        ``device-lost`` fault marks this device lost."""
        if current_config().faults is not None:
            faults.gate(
                op,
                key,
                attempt_ns,
                self.context.charge,
                category=op,
                track=f"device/{self.device.name}",
                device=self.device,
            )

    # -- data movement ------------------------------------------------------

    def enqueue_write_buffer(
        self,
        buf: Buffer,
        host_data: Sequence,
        wait_for: Optional[Sequence[Event]] = None,
    ) -> Event:
        """Copy *host_data* into the device buffer (host -> device).

        When the buffer's residency marker is still armed (nothing on
        the device has written it since its last transfer) and
        :meth:`Buffer.contents_equal` finds the array already holding
        *host_data*, the list-to-array conversion is skipped.  A
        ``float`` buffer converts without asking: the comparison costs
        as much as the conversion there.  That saves host wall-clock
        only: the write is priced and recorded like any other.

        With the graph-level optimiser on
        (``repro.configure(fusion=True)``), a write whose target
        buffer already holds exactly *host_data* from an earlier clean
        transfer on this device — tracked by the buffer's residency
        marker and confirmed by content comparison — is elided: no DMA
        span is priced, no bytes are counted, and a zero-duration event
        records the elision (``dispatch.xfer_elim`` counters).
        """
        self._check_open()
        self._check_buffer(buf)
        if len(host_data) != buf.n_elements:
            raise CLInvalidValue(
                f"write of {len(host_data)} elements into buffer "
                f"of {buf.n_elements}"
            )
        self._flush_if_pending("sync")
        ns = self.device.spec.transfer_ns(buf.nbytes, to_device=True)
        self._check_device_writable()
        if (
            current_config().fusion
            and buf._h2d_clean == (self.context.residency_epoch, self.device.id)
            and buf.contents_equal(host_data)
        ):
            fusion.count_xfer_elim(buf.nbytes)
            return self._record(
                WRITE_BUFFER, "h2d", 0.0,
                writes=(buf.id,), wait_for=wait_for, nbytes=buf.nbytes,
                elided=True,
            )
        self._fault_gate("h2d", f"buf{buf.ordinal}", ns)
        view = buf.np_view()
        probe = buf._h2d_clean is not None and buf.dtype != "float"
        if not (probe and buf.contents_equal(host_data)):
            view[:] = host_data
        buf._h2d_clean = (self.context.residency_epoch, self.device.id)
        self._count_bytes(buf.nbytes, to_device=True)
        return self._record(
            WRITE_BUFFER, "h2d", ns,
            writes=(buf.id,), wait_for=wait_for, nbytes=buf.nbytes,
        )

    def enqueue_read_buffer(
        self,
        buf: Buffer,
        host_out: list,
        wait_for: Optional[Sequence[Event]] = None,
    ) -> Event:
        """Copy the device buffer back into *host_out* (device -> host).

        The read certifies host and device copies equal, so it arms the
        transfer-elimination marker: re-uploading the data unmodified
        collapses the d2h -> h2d round trip when fusion is enabled.
        """
        self._check_open()
        self._check_buffer(buf)
        if len(host_out) != buf.n_elements:
            raise CLInvalidValue(
                f"read of buffer of {buf.n_elements} elements into host "
                f"array of {len(host_out)}"
            )
        self._flush_if_pending("host-read")
        ns = self.device.spec.transfer_ns(buf.nbytes, to_device=False)
        self._fault_gate("d2h", f"buf{buf.ordinal}", ns)
        host_out[:] = buf.np_view().tolist()
        buf._h2d_clean = (self.context.residency_epoch, self.device.id)
        self._count_bytes(buf.nbytes, to_device=False)
        return self._record(
            READ_BUFFER, "d2h", ns,
            reads=(buf.id,), wait_for=wait_for, nbytes=buf.nbytes,
        )

    def enqueue_copy_buffer(
        self,
        src: Buffer,
        dst: Buffer,
        wait_for: Optional[Sequence[Event]] = None,
    ) -> Event:
        """Device-to-device copy inside the context (no host link cost;
        charged at kernel-engine speed)."""
        self._check_open()
        self._check_buffer(src)
        self._check_buffer(dst)
        self._flush_if_pending("sync")
        self._check_device_writable()
        if src.n_elements != dst.n_elements or src.dtype != dst.dtype:
            raise CLInvalidValue("copy between mismatched buffers")
        dst.np_view()[:] = src.np_view()
        dst._h2d_clean = None
        ns = src.n_elements / (self.device.spec.lanes * self.device.spec.ops_per_ns)
        return self._record(
            COPY_BUFFER, "kernel", ns,
            reads=(src.id,), writes=(dst.id,), wait_for=wait_for,
        )

    # -- kernel dispatch ---------------------------------------------------

    def check_nd_range(
        self,
        global_size: Sequence[int],
        local_size: Optional[Sequence[int]] = None,
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Validate an NDRange against this queue's device; returns the
        (global, local) sizes with the device's choice filled in when
        the caller passed no local size."""
        gsz = tuple(int(s) for s in global_size)
        if not 1 <= len(gsz) <= 3 or any(s <= 0 for s in gsz):
            raise CLInvalidValue(f"bad global size {gsz}")
        if local_size is None:
            lsz = self.device.choose_local_size(gsz)
        else:
            lsz = tuple(int(s) for s in local_size)
        if len(lsz) != len(gsz):
            raise CLInvalidWorkGroupSize(
                f"local size {lsz} rank != global size {gsz} rank"
            )
        if any(l <= 0 or g % l != 0 for g, l in zip(gsz, lsz)):
            raise CLInvalidWorkGroupSize(
                f"local size {lsz} does not divide global size {gsz}"
            )
        wg = 1
        for l in lsz:
            wg *= l
        if wg > self.device.spec.max_work_group_size:
            raise CLInvalidWorkGroupSize(
                f"work-group of {wg} exceeds device limit "
                f"{self.device.spec.max_work_group_size}"
            )
        return gsz, lsz

    def enqueue_nd_range_kernel(
        self,
        kernel,
        global_size: Sequence[int],
        local_size: Optional[Sequence[int]] = None,
        wait_for: Optional[Sequence[Event]] = None,
    ) -> Event:
        """Launch *kernel* over the NDRange and price the dispatch.

        With the graph-level optimiser enabled
        (``repro.configure(fusion=True)``) a dispatch without a wait
        list is held pending (:mod:`repro.opencl.fusion`): the next
        kernel on this queue either fuses with it into one composed
        launch, stamping both events with the fused placement, or
        flushes it and takes the pending slot itself.  Dispatches with
        an explicit wait list execute immediately — deferring them would
        complicate the event-dependency bookkeeping for no measured gain
        on the paper's pipelines.  With fusion off (the default) nothing
        is deferred, so every priced figure stays byte-identical.
        """
        self._check_open()
        gsz, lsz = self.check_nd_range(global_size, local_size)
        self._check_device_writable()
        fusing = current_config().fusion
        if not fusing:
            self._flush_if_pending("disabled")
        try:
            self._fault_gate(
                "kernel",
                f"{kernel.name}@{self.device.name}",
                self.device.spec.kernel_launch_ns,
            )
        except CLError as exc:
            # An injected failure aborts only *this* dispatch.  The
            # pending producer was accepted (and fault-gated) at its own
            # enqueue: flush it as an ordinary launch so its caller's
            # Event is stamped and priced exactly once — a caller that
            # handles the fault and stops enqueuing must not strand it —
            # and, after a loss, so buffer contents stay consistent for
            # the failover path (reads drain on lost devices).
            lost = isinstance(exc, CLDeviceLost)
            self._flush_if_pending("device-lost" if lost else "fault")
            raise
        entries = kernel.bound_entries(self.context)
        reads, writes = kernel.buffer_access(entries)
        if not fusing or wait_for:
            self._flush_if_pending("sync")
            return self._launch(
                kernel.name, kernel.runner(self.device),
                entries, reads, writes, gsz, lsz, wait_for,
            )
        pend = self._pending
        if pend is not None:
            plan = fusion.try_fuse(
                self.context, self.device, pend, kernel, entries, gsz, lsz
            )
            if isinstance(plan, fusion.FusedPlan):
                self._pending = None
                self.context._fusion_pending -= 1
                fusion.count_fused()
                event = self._launch(
                    plan.name, plan.runner, plan.entries, plan.reads,
                    plan.writes, gsz, lsz, None,
                    fused=f"{pend.kernel.name}+{kernel.name}",
                )
                # The producer's event shares the fused placement: its
                # work happened inside the composed launch.
                for attr in (
                    "submit_ns", "start_ns", "end_ns",
                    "sched_start_ns", "sched_end_ns",
                    "e2e_start_ns", "e2e_end_ns", "_e2e_epoch",
                ):
                    setattr(pend.event, attr, getattr(event, attr))
                return event
            self._flush_if_pending(plan)
        event = Event(NDRANGE_KERNEL, "kernel", self.context.clock.now_ns, 0.0)
        # Residency markers die at enqueue time, exactly as in the
        # unfused world where enqueue executes immediately — a sibling
        # queue of this context must never elide an upload against a
        # buffer this deferred kernel is about to write.
        self._mark_kernel_written(entries, writes)
        self._pending = _PendingKernel(
            kernel, entries, gsz, lsz, reads, writes, event
        )
        self.context._fusion_pending += 1
        return event

    def enqueue_priced_kernel(
        self,
        name: str,
        ns: float,
        reads: Iterable[int] = (),
        writes: Iterable[int] = (),
        wait_for: Optional[Sequence[Event]] = None,
        **span_args,
    ) -> Event:
        """Record an externally executed, pre-priced kernel share.

        The multi-device dispatcher executes an NDRange once, prices
        each device's slice separately, and lands each share here so the
        per-device ledgers, event timelines and hazard tables all see
        the split parts.  The OpenACC runtime records each region kernel
        it ran here too, so the kernel is placed after the region's
        uploads like any other command.  Fault decisions for split
        shares are taken by the dispatcher itself (before pricing), and
        OpenACC kernels take none, so this path only refuses lost
        devices.
        """
        self._check_open()
        self._flush_if_pending("sync")
        self._check_device_writable()
        with self.context.ledger._lock:
            self.context.ledger.kernel_launches += 1
        return self._record(
            NDRANGE_KERNEL, "kernel", ns,
            reads=reads, writes=writes, wait_for=wait_for,
            kernel=name, **span_args,
        )

    def enqueue_priced_transfer(
        self,
        category: str,
        buf: Buffer,
        nbytes: int,
        wait_for: Optional[Sequence[Event]] = None,
        **span_args,
    ) -> Event:
        """Charge a transfer of *nbytes* of *buf* without moving data.

        Models the broadcast/gather traffic of a multi-device split:
        secondary devices pay the host-link cost of receiving their
        inputs and returning their output share, while the data itself
        already lives in the context's (single-copy) buffer.
        """
        self._check_open()
        self._check_buffer(buf)
        self._flush_if_pending("sync")
        to_device = category == "h2d"
        if to_device:
            self._check_device_writable()
        ns = self.device.spec.transfer_ns(nbytes, to_device=to_device)
        self._fault_gate(category, f"buf{buf.ordinal}", ns)
        self._count_bytes(nbytes, to_device)
        command = WRITE_BUFFER if to_device else READ_BUFFER
        access = {"writes": (buf.id,)} if to_device else {"reads": (buf.id,)}
        return self._record(
            command, category, ns,
            wait_for=wait_for, nbytes=nbytes, **access, **span_args,
        )

    # -- synchronisation ----------------------------------------------------

    def enqueue_marker(
        self, wait_for: Optional[Sequence[Event]] = None
    ) -> Event:
        """A zero-duration event completing when *wait_for* (or, with no
        list, everything enqueued so far) has completed.  Does not hold
        up later commands."""
        return self._sync_event(MARKER, wait_for, fence=False)

    def enqueue_barrier(
        self, wait_for: Optional[Sequence[Event]] = None
    ) -> Event:
        """Like a marker, but later commands may not start before it —
        the OpenCL barrier ordering point (a no-op for in-order queues,
        which are one long chain already)."""
        return self._sync_event(BARRIER, wait_for, fence=True)

    def _sync_event(
        self,
        command: str,
        wait_for: Optional[Sequence[Event]],
        fence: bool,
    ) -> Event:
        self._check_open()
        self._flush_if_pending("sync")
        timeline = self.context.clock.timeline
        epoch = self._e2e_anchor(timeline)
        event = Event(command, "kernel", self.context.clock.now_ns, 0.0)
        event._e2e_epoch = epoch
        at, e2e_at = self._ready(wait_for or None, timeline.host_pos_ns, epoch)
        event.sched_start_ns = event.sched_end_ns = at
        event.e2e_start_ns = event.e2e_end_ns = e2e_at
        if fence and self.out_of_order:
            self._local.fence = max(self._local.fence, at)
            self._e2e.fence = max(self._e2e.fence, e2e_at)
            if wait_for is None:
                self._sync_schedule()
        return event

    # -- lifecycle -----------------------------------------------------------

    def finish(self) -> None:
        """Block until queued commands complete (immediate in simulation).

        For an out-of-order queue this is also a schedule ordering
        point: commands enqueued afterwards start no earlier than
        everything scheduled so far, exactly like ``clFinish``.

        On the composed end-to-end timeline (both modes) it is the
        blocking host call it models: the host cursor advances to this
        queue's composed makespan, so commands enqueued afterwards —
        on *any* queue of the clock — start no earlier.
        """
        self._flush_if_pending("sync")
        self.context.clock.timeline.host_wait(self.e2e_makespan_ns)
        if self.out_of_order:
            self._sync_schedule()

    def flush(self) -> None:
        """Submit queued commands (immediate in simulation; dispatches
        any kernel the graph-level optimiser held pending)."""
        self._flush_if_pending("sync")

    def release(self) -> None:
        """Detach the queue from its context (commands stay priced);
        later enqueues raise :class:`~repro.errors.CLInvalidValue`."""
        self._flush_if_pending("sync")
        self.released = True
        try:
            self.context._queues.remove(self)
        except ValueError:  # pragma: no cover - defensive
            pass
