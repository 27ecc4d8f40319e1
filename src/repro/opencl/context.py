"""Contexts and the simulation-wide clock.

A context is the umbrella structure holding devices, buffers and
queues (paper Section 2.1).  Every context charges costs to a
:class:`~repro.opencl.costmodel.SimClock` (the global simulated
timeline) and to its own :class:`~repro.opencl.costmodel.CostLedger`
(the per-run category totals the harness turns into Figure 3 segments).
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import weakref
from typing import Iterator, Optional, Sequence

from ..config import current_config
from ..errors import CLDeviceLost, CLInvalidValue
from ..trace import current_tracer
from . import faults
from .costmodel import TIMELINE_KIND_OF, CostLedger, SimClock
from .platform import Device, Platform

_context_ids = itertools.count(1)

_clock = SimClock()
_clock_lock = threading.Lock()


def current_clock() -> SimClock:
    """The simulation clock new contexts attach to."""
    return _clock


@contextlib.contextmanager
def fresh_clock() -> Iterator[SimClock]:
    """Swap in a fresh clock for the duration of a measured run."""
    global _clock
    with _clock_lock:
        saved = _clock
        _clock = SimClock()
        swapped = _clock
    try:
        yield swapped
    finally:
        with _clock_lock:
            _clock = saved


class Context:
    """Holds devices plus the software state attached to them.

    Buffers are tracked weakly (a buffer holds its context, never the
    reverse), so the buffers of a context dropped without
    :meth:`release` are freed by refcount, not by a later cyclic GC.
    """

    def __init__(
        self,
        devices: Sequence[Device],
        platform: Optional[Platform] = None,
        clock: Optional[SimClock] = None,
    ) -> None:
        if not devices:
            raise CLInvalidValue("a context needs at least one device")
        self.id = next(_context_ids)
        self.devices = list(devices)
        self.platform = platform
        self.clock = clock if clock is not None else current_clock()
        self.ledger = CostLedger()
        self.released = False
        self._queues: list = []
        #: creation ordinal -> live Buffer, held weakly
        self._buffers = weakref.WeakValueDictionary()
        #: source of ``Buffer.ordinal``; never reused, even after release
        self._buffer_ordinals = itertools.count()
        #: source text -> shared Program object (clCreateProgramWithSource
        #: dedupe within this context); see Program.shared.
        self._program_registry: dict = {}
        #: kcache fingerprint -> CompiledModule: the context's registry
        #: of already-built "program binaries".  Rebuilding an identical
        #: (source, device-spec) pair through any Program object finds
        #: the binary here and is charged a cheap API call instead of a
        #: full compile (the clCreateProgramWithBinary model).
        self._binary_cache: dict = {}
        self._registry_lock = threading.Lock()
        #: Generation counter for the transfer-elimination residency
        #: markers (``Buffer._h2d_clean``).  Bumped by
        #: :meth:`reset_ledger`, which structurally invalidates every
        #: marker stamped in an earlier generation — a measured run must
        #: price its own transfers.
        self.residency_epoch = 0
        #: Number of this context's queues currently holding a kernel
        #: dispatch deferred by the graph-level optimiser.  Host-side
        #: buffer observation (``Buffer.data`` / ``np_view``) checks it
        #: and calls :meth:`flush_pending` so deferred effects are never
        #: observable.
        self._fusion_pending = 0

    def flush_pending(self) -> None:
        """Dispatch every kernel the graph-level optimiser is holding
        pending on this context's queues (host observation point)."""
        for queue in list(self._queues):
            queue._flush_if_pending("host-observe")

    def program_binary(self, key: str):
        """Look up an already-built program binary by kcache fingerprint."""
        with self._registry_lock:
            return self._binary_cache.get(key)

    def store_program_binary(self, key: str, compiled) -> None:
        with self._registry_lock:
            self._binary_cache[key] = compiled

    def has_device(self, device: Device) -> bool:
        """Whether *device* is one of this context's devices."""
        return device in self.devices

    def queue_for(self, device: Device):
        """This context's command queue on *device*, created on demand.

        Returns the first live queue already bound to *device* (whatever
        its mode); only when none exists is a new in-order queue
        created.  Keeps the runtime's one-queue-per-device policy intact
        for multi-device dispatch.
        """
        from .queue import CommandQueue

        for queue in self._queues:
            if queue.device is device and not queue.released:
                return queue
        return CommandQueue(self, device)

    def enqueue_nd_range(
        self,
        kernel,
        global_size: Sequence[int],
        local_size: Optional[Sequence[int]] = None,
    ) -> list:
        """Dispatch one NDRange across *all* devices of this context.

        On a single-device context this is exactly
        :meth:`~repro.opencl.queue.CommandQueue.enqueue_nd_range_kernel`
        on that device's queue.  On a multi-device context the range is
        split along its outermost dimension at work-group granularity,
        proportional to device throughput (EngineCL-style runtime work
        splitting): the kernel executes once — buffer contents are
        bit-identical to single-device execution — and each device is
        charged its own slice (warp maxima folded with its SIMD width)
        plus the broadcast/gather transfer traffic of participating in
        the split.  Returns the list of per-device kernel events.

        Devices lost to an earlier ``device-lost`` fault are excluded
        up front; a loss injected *during* a multi-device dispatch
        re-splits the lost share over the survivors (the failover path,
        counted as ``fault.failover``) — see docs/RELIABILITY.md.
        """
        from . import dispatch
        from .memory import Buffer

        devices = [d for d in self.devices if not d.lost]
        if not devices:
            raise CLDeviceLost(
                f"context {self.id}: every device was lost; cannot "
                f"dispatch {kernel.name}"
            )
        queues = [self.queue_for(d) for d in devices]
        if len(devices) == 1:
            return [
                queues[0].enqueue_nd_range_kernel(
                    kernel, global_size, local_size
                )
            ]
        # Validate against every device; the strictest work-group limit
        # picks the local size when the caller passed none.
        strictest = min(
            queues, key=lambda q: q.device.spec.max_work_group_size
        )
        gsz, lsz = strictest.check_nd_range(global_size, local_size)
        for queue in queues:
            queue.check_nd_range(gsz, lsz)

        total_groups = gsz[-1] // lsz[-1]
        weights = [dispatch.device_weight(d.spec) for d in devices]
        shares = dispatch.split_share_counts(total_groups, weights)
        participating = [
            (queue, share) for queue, share in zip(queues, shares) if share
        ]
        if len(participating) > 1 and current_config().faults is not None:
            participating = self._decide_split_faults(kernel, participating)
        if len(participating) == 1:
            return [
                participating[0][0].enqueue_nd_range_kernel(
                    kernel, gsz, lsz
                )
            ]

        entries = kernel.bound_entries(self)
        reads, writes = kernel.buffer_access(entries)
        primary = participating[0][0]
        parts = dispatch.multi_device_kernel_ns(
            kernel.runner(primary.device),
            [q.device.spec for q, _ in participating],
            [share for _, share in participating],
            entries,
            gsz,
            lsz,
        )
        read_bufs = [e for e in entries
                     if isinstance(e, Buffer) and e.id in reads]
        written_bufs = [e for e in entries
                        if isinstance(e, Buffer) and e.id in writes]
        for buf in written_bufs:
            buf._h2d_clean = None
        total_items = 1
        for s in gsz:
            total_items *= s

        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("dispatch.split")
        events = []
        for index, ((queue, _), part) in enumerate(zip(participating, parts)):
            assert part is not None
            sub_gsz, n_items, ns = part
            if index > 0:
                # Secondary devices pay the host link: inputs are
                # broadcast to them, and their output slice comes back.
                for buf in read_bufs:
                    queue.enqueue_priced_transfer(
                        "h2d", buf, buf.nbytes, split=kernel.name
                    )
                for buf in written_bufs:
                    share_bytes = buf.nbytes * n_items // total_items
                    queue.enqueue_priced_transfer(
                        "d2h", buf, share_bytes, split=kernel.name
                    )
            events.append(
                queue.enqueue_priced_kernel(
                    kernel.name,
                    ns,
                    reads=reads,
                    writes=writes,
                    global_size=list(sub_gsz),
                    local_size=list(lsz),
                    split=f"{index + 1}/{len(participating)}",
                )
            )
        if tracer.enabled:
            tracer.count("dispatch.split.devices", len(participating))
        return events

    def _decide_split_faults(self, kernel, participating: list) -> list:
        """Take the fault decisions for a multi-device split dispatch.

        Each participating queue runs its own fault gate under the same
        ``<kernel>@<device>`` key a solo dispatch would use, so
        transients retry in place.  A device whose gate raises
        :class:`~repro.errors.CLDeviceLost` is marked lost and its
        work-group share goes to the survivors, re-split by throughput
        weight (``fault.failover``).  Raises when a fault exhausts its
        retries or no device survives.
        """
        from . import dispatch

        survivors: list = []
        lost_shares = 0
        lost_count = 0
        for queue, share in participating:
            try:
                queue._fault_gate(
                    "kernel",
                    f"{kernel.name}@{queue.device.name}",
                    queue.device.spec.kernel_launch_ns,
                )
            except CLDeviceLost:
                lost_shares += share
                lost_count += 1
            else:
                survivors.append((queue, share))
        if not lost_shares:
            return survivors
        if not survivors:
            raise CLDeviceLost(
                f"every device was lost dispatching {kernel.name}"
            )
        extra = dispatch.split_share_counts(
            lost_shares,
            [dispatch.device_weight(q.device.spec) for q, _ in survivors],
        )
        for _ in range(lost_count):
            faults.count_failover()
        return [
            (queue, share + add)
            for (queue, share), add in zip(survivors, extra)
        ]

    def charge(
        self,
        category: str,
        ns: float,
        *,
        name: Optional[str] = None,
        track: Optional[str] = None,
        ts_ns: Optional[float] = None,
        args: Optional[dict] = None,
        placed: bool = False,
    ) -> None:
        """Record *ns* of *category* cost on clock and ledger.

        Every ledger charge in the substrate funnels through here, so
        the active tracer sees a cost span for each — which is what
        makes :meth:`repro.trace.Tracer.summary` agree with the ledger
        breakdown by construction.  The keyword arguments only refine
        the emitted span (label, track, device-timeline timestamp).

        The charge also lands on the clock's composed end-to-end
        timeline (:class:`~repro.opencl.costmodel.ScheduleTimeline`):
        serially at the host cursor by default, or not at all when the
        caller already *placed* it — command queues place their
        commands at scheduled composed coordinates before charging.
        """
        now = self.clock.advance(ns)
        self.ledger.charge(category, ns)
        if not placed:
            self.clock.timeline.serial_advance(
                TIMELINE_KIND_OF[category], ns
            )
        tracer = current_tracer()
        if tracer.enabled:
            tracer.cost_span(
                category,
                ns,
                name=name or category,
                track=track or f"host/context-{self.id}",
                ts_ns=now - ns if ts_ns is None else ts_ns,
                args=args,
            )

    def charge_api_call(
        self, device: Optional[Device] = None, name: str = "api_call"
    ) -> None:
        """Price one host API call (and give the fault plan its shot).

        An injected ``api`` fault goes through
        :func:`~repro.opencl.faults.gate`: the failed call is charged
        as ``fault.<name>`` host time, transients retry, and a
        permanent or exhausted fault surfaces as
        :class:`~repro.errors.CLOutOfHostMemory`.  The call names no
        device, so a ``device-lost`` fault raises
        :class:`~repro.errors.CLDeviceLost` and marks nothing lost.
        """
        spec = (device or self.devices[0]).spec
        if current_config().faults is not None:
            faults.gate(
                "api", name, spec.api_call_ns, self.charge,
                span_name=f"fault.{name}",
            )
        with self.ledger._lock:
            self.ledger.api_calls += 1
        self.charge("host", spec.api_call_ns, name=name)

    def reset_ledger(self) -> CostLedger:
        """Install and return a fresh ledger (harness: between runs).

        Program state resets with it: a measured run must price its own
        compiles, so the shared-program registry and the binary cache
        never leak "already built" state from a previous run into the
        next run's figures.  (The process-global wall-clock compile
        cache in :mod:`repro.kcache` is unaffected — it carries no
        simulated cost.)

        The clock's composed end-to-end timeline restarts with it (a
        new epoch at origin 0), so the next run's ``elapsed_ns``
        measures that run alone.  Queue-local schedule state — and the
        ``queue.overlap_ns`` counters derived from it — is untouched;
        live queues re-anchor their composed placement lazily.

        Graph-level optimiser state resets too: kernels still pending
        on this context's queues flush into the *old* ledger (they were
        enqueued by the run that is ending), and the residency epoch
        advances so the transfer-elimination pass never elides a
        transfer against a copy uploaded by a previous run.
        """
        if self._fusion_pending:
            self.flush_pending()
        self.clock.timeline.reset()
        self.ledger = CostLedger()
        self.residency_epoch += 1
        with self._registry_lock:
            self._program_registry.clear()
            self._binary_cache.clear()
        return self.ledger

    def release(self) -> None:
        for buf in list(self._buffers.values()):
            if not buf.released:
                buf.release()
        self.released = True

    def __repr__(self) -> str:
        names = ", ".join(d.name for d in self.devices)
        return f"<Context {self.id} [{names}]>"
