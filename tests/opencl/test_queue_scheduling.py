"""In-order vs out-of-order queue scheduling equivalence.

The contract under test (docs/ARCHITECTURE.md, "The queue scheduling
model"): switching a queue to ``CL_QUEUE_OUT_OF_ORDER_EXEC_MODE``
changes *only* the schedule timeline — buffer contents, warp maxima,
ledger totals and profiling timestamps are bit-identical — and the
out-of-order makespan is never longer than the in-order drain of the
same command stream.
"""

from __future__ import annotations

import pytest

from repro import configure
from repro import opencl
from repro.opencl import (
    Buffer,
    CommandQueue,
    Context,
    Program,
    find_device,
    reset_platforms,
)
from repro.opencl.context import fresh_clock
from repro.runtime.oclenv import device_matrix, reset_device_matrix
from repro.trace import tracing

SRC = """
__kernel void scale2(__global float *a) {
    int i = get_global_id(0);
    a[i] = a[i] * 2.0;
}

__kernel void addinto(__global float *src, __global float *dst) {
    int i = get_global_id(0);
    dst[i] = dst[i] + src[i];
}
"""

N = 64


@pytest.fixture(autouse=True)
def _clean_runtime():
    reset_platforms()
    reset_device_matrix()
    yield
    reset_device_matrix()
    reset_platforms()


def _setup(out_of_order):
    device = find_device("GPU")
    ctx = Context([device])
    queue = CommandQueue(ctx, device, out_of_order=out_of_order)
    program = Program(ctx, SRC).build([device])
    return ctx, queue, program


def _run_stream(out_of_order, events=None):
    """A stream with independent and dependent commands; returns the
    queue, context and final buffer contents, and appends the events
    its enqueue calls return to *events* when given."""
    events = [] if events is None else events
    reset_platforms()  # fresh Device objects: no busy-state carry-over
    with fresh_clock():
        ctx, queue, program = _setup(out_of_order)
        a = Buffer(ctx, N)
        b = Buffer(ctx, N)
        events.append(
            queue.enqueue_write_buffer(a, [float(i) for i in range(N)])
        )
        events.append(queue.enqueue_write_buffer(b, [1.0] * N))
        scale = program.create_kernel("scale2")
        scale.set_arg(0, a)
        events.append(queue.enqueue_nd_range_kernel(scale, [N], [16]))
        add = program.create_kernel("addinto")
        add.set_arg(0, a)
        add.set_arg(1, b)
        events.append(queue.enqueue_nd_range_kernel(add, [N], [16]))
        out_a, out_b = [0.0] * N, [0.0] * N
        events.append(queue.enqueue_read_buffer(a, out_a))
        events.append(queue.enqueue_read_buffer(b, out_b))
        queue.finish()
        return queue, ctx, (out_a, out_b)


class TestEquivalence:
    def test_buffers_and_ledger_identical(self):
        q_in, ctx_in, data_in = _run_stream(out_of_order=False)
        q_ooo, ctx_ooo, data_ooo = _run_stream(out_of_order=True)
        assert data_in == data_ooo
        assert ctx_in.ledger.breakdown() == ctx_ooo.ledger.breakdown()
        assert ctx_in.ledger.kernel_launches == ctx_ooo.ledger.kernel_launches

    def test_profiling_timestamps_mode_independent(self):
        ev_in, ev_ooo = [], []
        _run_stream(out_of_order=False, events=ev_in)
        _run_stream(out_of_order=True, events=ev_ooo)
        stamps = lambda events: [
            (e.command, e.queued_ns, e.submit_ns, e.start_ns, e.end_ns)
            for e in events
        ]
        assert stamps(ev_in) == stamps(ev_ooo)

    def test_ooo_makespan_never_longer(self):
        q_in, _, _ = _run_stream(out_of_order=False)
        q_ooo, _, _ = _run_stream(out_of_order=True)
        assert q_ooo.serial_makespan_ns == pytest.approx(q_in.makespan_ns)
        assert q_ooo.makespan_ns <= q_in.makespan_ns
        assert q_ooo.overlap_ns >= 0.0

    def test_in_order_schedule_is_the_serial_chain(self):
        events = []
        q, _, _ = _run_stream(out_of_order=False, events=events)
        assert q.makespan_ns == pytest.approx(q.serial_makespan_ns)
        assert q.overlap_ns == 0.0
        end = 0.0
        for event in events:
            if event.command in (opencl.MARKER, opencl.BARRIER):
                continue
            assert event.sched_start_ns == pytest.approx(end)
            end = event.sched_end_ns

    def test_ooo_schedule_is_deterministic(self):
        ev1, ev2 = [], []
        _run_stream(out_of_order=True, events=ev1)
        _run_stream(out_of_order=True, events=ev2)
        sched = lambda events: [
            (e.command, e.sched_start_ns, e.sched_end_ns) for e in events
        ]
        assert sched(ev1) == sched(ev2)


class TestHazards:
    def _kernel(self, program, name, *bufs):
        k = program.create_kernel(name)
        for i, buf in enumerate(bufs):
            k.set_arg(i, buf)
        return k

    def test_independent_commands_overlap(self):
        ctx, queue, program = _setup(out_of_order=True)
        a = Buffer(ctx, N)
        b = Buffer(ctx, N)
        e1 = queue.enqueue_write_buffer(a, [0.0] * N)  # dma_h2d
        k = self._kernel(program, "scale2", b)
        e2 = queue.enqueue_nd_range_kernel(k, [N], [16])  # compute
        # Different engines, no shared buffers: both start at 0.
        assert e1.sched_start_ns == 0.0
        assert e2.sched_start_ns == 0.0
        assert queue.makespan_ns == pytest.approx(
            max(e1.duration_ns, e2.duration_ns)
        )
        assert queue.overlap_ns == pytest.approx(
            min(e1.duration_ns, e2.duration_ns)
        )

    def test_raw_hazard_orders_reader_after_writer(self):
        ctx, queue, program = _setup(out_of_order=True)
        a = Buffer(ctx, N)
        e_write = queue.enqueue_write_buffer(a, [0.0] * N)
        k = self._kernel(program, "scale2", a)  # reads and writes a
        e_kernel = queue.enqueue_nd_range_kernel(k, [N], [16])
        assert e_kernel.sched_start_ns == pytest.approx(e_write.sched_end_ns)

    def test_war_hazard_orders_writer_after_reader(self):
        ctx, queue, program = _setup(out_of_order=True)
        a = Buffer(ctx, N)
        out = [0.0] * N
        e_read = queue.enqueue_read_buffer(a, out)  # dma_d2h, reads a
        e_write = queue.enqueue_write_buffer(a, [1.0] * N)  # writes a
        assert e_write.sched_start_ns == pytest.approx(e_read.sched_end_ns)

    def test_waw_hazard_orders_writes(self):
        ctx, queue, program = _setup(out_of_order=True)
        a = Buffer(ctx, N)
        k = self._kernel(program, "scale2", a)  # compute engine, writes a
        e1 = queue.enqueue_nd_range_kernel(k, [N], [16])
        e2 = queue.enqueue_write_buffer(a, [1.0] * N)  # dma engine, writes a
        assert e2.sched_start_ns == pytest.approx(e1.sched_end_ns)

    def test_same_engine_serializes_without_hazards(self):
        ctx, queue, _ = _setup(out_of_order=True)
        a = Buffer(ctx, N)
        b = Buffer(ctx, N)
        e1 = queue.enqueue_write_buffer(a, [0.0] * N)
        e2 = queue.enqueue_write_buffer(b, [0.0] * N)  # same dma_h2d engine
        assert e2.sched_start_ns == pytest.approx(e1.sched_end_ns)

    def test_explicit_wait_list_orders_unrelated_commands(self):
        ctx, queue, program = _setup(out_of_order=True)
        a = Buffer(ctx, N)
        b = Buffer(ctx, N)
        e1 = queue.enqueue_write_buffer(a, [0.0] * N)
        k = self._kernel(program, "scale2", b)
        e2 = queue.enqueue_nd_range_kernel(k, [N], [16], wait_for=[e1])
        assert e2.sched_start_ns == pytest.approx(e1.sched_end_ns)


class TestSyncPoints:
    def test_barrier_fences_later_commands(self):
        ctx, queue, program = _setup(out_of_order=True)
        a = Buffer(ctx, N)
        b = Buffer(ctx, N)
        e1 = queue.enqueue_write_buffer(a, [0.0] * N)
        barrier = queue.enqueue_barrier()
        k = program.create_kernel("scale2")
        k.set_arg(0, b)
        e2 = queue.enqueue_nd_range_kernel(k, [N], [16])
        assert barrier.sched_end_ns == pytest.approx(e1.sched_end_ns)
        assert e2.sched_start_ns >= barrier.sched_end_ns

    def test_marker_does_not_fence(self):
        ctx, queue, program = _setup(out_of_order=True)
        a = Buffer(ctx, N)
        b = Buffer(ctx, N)
        e1 = queue.enqueue_write_buffer(a, [0.0] * N)
        marker = queue.enqueue_marker()
        k = program.create_kernel("scale2")
        k.set_arg(0, b)
        e2 = queue.enqueue_nd_range_kernel(k, [N], [16])
        assert marker.sched_end_ns == pytest.approx(e1.sched_end_ns)
        assert e2.sched_start_ns == 0.0  # independent: not held up

    def test_finish_fences_the_schedule(self):
        ctx, queue, program = _setup(out_of_order=True)
        a = Buffer(ctx, N)
        b = Buffer(ctx, N)
        e1 = queue.enqueue_write_buffer(a, [0.0] * N)
        queue.finish()
        k = program.create_kernel("scale2")
        k.set_arg(0, b)
        e2 = queue.enqueue_nd_range_kernel(k, [N], [16])
        assert e2.sched_start_ns >= e1.sched_end_ns

    def test_api_barrier_and_marker_wrappers(self):
        device = find_device("GPU")
        ctx = opencl.api.clCreateContext([device])
        queue = opencl.api.clCreateCommandQueue(
            ctx, device, properties=[opencl.CL_QUEUE_OUT_OF_ORDER_EXEC_MODE]
        )
        assert queue.out_of_order
        a = opencl.api.clCreateBuffer(ctx, [opencl.READ_WRITE], N)
        opencl.api.clEnqueueWriteBuffer(queue, a, True, [0.0] * N)
        marker = opencl.api.clEnqueueMarkerWithWaitList(queue)
        barrier = opencl.api.clEnqueueBarrierWithWaitList(queue)
        assert marker.command == opencl.MARKER
        assert barrier.command == opencl.BARRIER
        assert opencl.api.clCreateCommandQueue(ctx, device).out_of_order is False


class TestOverlapCounter:
    def test_overlap_reported_to_tracer(self):
        with tracing() as tr:
            ctx, queue, program = _setup(out_of_order=True)
            a = Buffer(ctx, N)
            b = Buffer(ctx, N)
            queue.enqueue_write_buffer(a, [0.0] * N)
            k = program.create_kernel("scale2")
            k.set_arg(0, b)
            queue.enqueue_nd_range_kernel(k, [N], [16])
        assert tr.counter("queue.overlap_ns") == pytest.approx(
            queue.overlap_ns
        )
        assert queue.overlap_ns > 0.0

    def test_no_counter_when_in_order(self):
        with tracing() as tr:
            ctx, queue, program = _setup(out_of_order=False)
            a = Buffer(ctx, N)
            queue.enqueue_write_buffer(a, [0.0] * N)
        assert tr.counter("queue.overlap_ns") == 0


class TestLudPipeline:
    """Figure-4's LUD actor pipeline, the paper workload the scheduler
    targets.  Shared-nothing mode (movable=False) re-transfers between
    hops, so transfers of iteration k+1 genuinely overlap the kernels of
    iteration k: out-of-order must *strictly* shorten the schedule while
    leaving the checksum and every ledger segment untouched."""

    N_LUD = 12

    def _run(self, out_of_order):
        from repro.apps.lud import runners

        reset_device_matrix()
        with configure(out_of_order=out_of_order), fresh_clock():
            outcome = runners.run_actors(self.N_LUD, "GPU", movable=False)
        envs = device_matrix().environments()
        assert len(envs) == 1  # one queue per device (Section 6.2.1)
        queue = envs[0].queue
        return outcome, queue

    def test_strict_makespan_reduction_with_identical_results(self):
        base, q_in = self._run(out_of_order=False)
        ooo, q_ooo = self._run(out_of_order=True)
        # Identical numerics and identical priced work...
        assert ooo.result == base.result
        assert ooo.meta["m"] == base.meta["m"]
        assert ooo.breakdown == base.breakdown
        # ...the same serial drain length...
        assert q_ooo.serial_makespan_ns == pytest.approx(q_in.makespan_ns)
        # ...but a strictly shorter schedule.
        assert q_ooo.makespan_ns < q_in.makespan_ns
        assert q_ooo.overlap_ns > 0.0

    def test_ooo_pipeline_is_deterministic(self):
        first, q1 = self._run(out_of_order=True)
        second, q2 = self._run(out_of_order=True)
        assert first.result == second.result
        assert q1.makespan_ns == pytest.approx(q2.makespan_ns)
        assert q1.overlap_ns == pytest.approx(q2.overlap_ns)

    def test_mode_switch_reaches_an_existing_environment(self):
        """A configured mode applies to an environment the matrix
        already holds: its queue is replaced on the same context, so
        one queue per device remains and nothing priced changes."""
        from repro.apps.lud import runners

        base = runners.run_actors(16, "GPU", movable=False)
        (env,) = device_matrix().environments()
        context = env.context
        assert not env.queue.out_of_order
        with configure(out_of_order=True):
            ooo = runners.run_actors(16, "GPU", movable=False)
        (env,) = device_matrix().environments()
        assert env.context is context
        assert env.queue.out_of_order
        assert env.queue.overlap_ns > 0.0
        assert context._queues == [env.queue]
        assert ooo.result == base.result
        assert ooo.breakdown == base.breakdown
