"""Event profiling timestamps: QUEUED / SUBMIT / START / END.

Regression for the timeline collapse where all four timestamps were
aliased: a busy device must delay START past SUBMIT (queueing delay),
and consecutive commands on one device must never overlap.
"""

import gc
import weakref

import pytest

from repro.errors import CLInvalidValue
from repro.opencl import Buffer, CommandQueue, Context, Program
from repro.opencl.costmodel import SimClock, gpu_spec
from repro.opencl.platform import Device


SCALE = """
__kernel void scale2(__global float *a) {
    int i = get_global_id(0);
    a[i] = a[i] * 2.0;
}
"""


def make_device():
    return Device(gpu_spec(name="event-test GPU"))


class TestIdleDevice:
    def test_immediate_start_on_idle_device(self):
        device = make_device()
        ctx = Context([device], clock=SimClock())
        queue = CommandQueue(ctx, device)
        buf = Buffer(ctx, 8)
        event = queue.enqueue_write_buffer(buf, [1.0] * 8)
        assert event.queued_ns == 0.0
        # In-order queue flushes immediately: SUBMIT == QUEUED.
        assert event.submit_ns == event.queued_ns
        # Idle device: no queueing delay.
        assert event.start_ns == event.submit_ns
        assert event.queue_delay_ns == 0.0
        expected = device.spec.transfer_ns(buf.nbytes, to_device=True)
        assert event.end_ns == pytest.approx(event.start_ns + expected)
        assert event.duration_ns == pytest.approx(expected)

    def test_consecutive_commands_do_not_overlap(self):
        device = make_device()
        ctx = Context([device], clock=SimClock())
        queue = CommandQueue(ctx, device)
        buf = Buffer(ctx, 64)
        events = [
            queue.enqueue_write_buffer(buf, [0.0] * 64) for _ in range(4)
        ]
        for prev, cur in zip(events, events[1:]):
            assert cur.queued_ns >= prev.queued_ns
            assert cur.start_ns >= prev.end_ns


class TestBusyDevice:
    def test_start_exceeds_submit_when_device_is_busy(self):
        """Two hosts (contexts with independent clocks) share one
        device: the second host submits at its own time 0 while the
        device is still busy with the first host's transfer, so its
        command has START > SUBMIT — the queueing delay the aliased
        timestamps could never show."""
        device = make_device()
        ctx1 = Context([device], clock=SimClock())
        ctx2 = Context([device], clock=SimClock())
        q1 = CommandQueue(ctx1, device)
        q2 = CommandQueue(ctx2, device)
        big = Buffer(ctx1, 4096)
        first = q1.enqueue_write_buffer(big, [0.0] * 4096)
        assert device.busy_until_ns == pytest.approx(first.end_ns)

        small = Buffer(ctx2, 8)
        second = q2.enqueue_write_buffer(small, [0.0] * 8)
        assert second.queued_ns == 0.0
        assert second.submit_ns == second.queued_ns
        assert second.start_ns == pytest.approx(first.end_ns)
        assert second.start_ns > second.submit_ns
        assert second.queue_delay_ns == pytest.approx(first.end_ns)
        expected = device.spec.transfer_ns(small.nbytes, to_device=True)
        assert second.end_ns == pytest.approx(second.start_ns + expected)

    def test_device_timeline_is_shared_across_queues(self):
        device = make_device()
        ctx1 = Context([device], clock=SimClock())
        ctx2 = Context([device], clock=SimClock())
        q1 = CommandQueue(ctx1, device)
        q2 = CommandQueue(ctx2, device)
        b1 = Buffer(ctx1, 16)
        b2 = Buffer(ctx2, 16)
        events = [
            q1.enqueue_write_buffer(b1, [0.0] * 16),
            q2.enqueue_write_buffer(b2, [0.0] * 16),
            q1.enqueue_read_buffer(b1, [0.0] * 16),
        ]
        ordered = sorted(events, key=lambda e: e.start_ns)
        for prev, cur in zip(ordered, ordered[1:]):
            assert cur.start_ns >= prev.end_ns


class TestProfilingInfo:
    def test_profiling_lookup_matches_attributes(self):
        device = make_device()
        ctx1 = Context([device], clock=SimClock())
        ctx2 = Context([device], clock=SimClock())
        q1 = CommandQueue(ctx1, device)
        q2 = CommandQueue(ctx2, device)
        blocker = Buffer(ctx1, 1024)
        q1.enqueue_write_buffer(blocker, [0.0] * 1024)
        buf = Buffer(ctx2, 8)
        event = q2.enqueue_write_buffer(buf, [0.0] * 8)
        assert event.profiling_info("QUEUED") == event.queued_ns
        assert event.profiling_info("SUBMIT") == event.submit_ns
        assert event.profiling_info("START") == event.start_ns
        assert event.profiling_info("END") == event.end_ns
        # The four values are genuinely distinct stages, not aliases.
        assert event.profiling_info("START") > event.profiling_info("SUBMIT")
        assert event.profiling_info("END") > event.profiling_info("START")

    def test_bad_profiling_name_rejected(self):
        device = make_device()
        ctx = Context([device], clock=SimClock())
        queue = CommandQueue(ctx, device)
        buf = Buffer(ctx, 4)
        event = queue.enqueue_write_buffer(buf, [0.0] * 4)
        with pytest.raises(CLInvalidValue):
            event.profiling_info("COMPLETE")


class TestEventLifetime:
    def test_queue_keeps_no_event_history(self):
        """A long-lived queue must not pin the events it returned."""
        device = make_device()
        ctx = Context([device], clock=SimClock())
        queue = CommandQueue(ctx, device)
        buf = Buffer(ctx, 8)
        refs = [
            weakref.ref(queue.enqueue_write_buffer(buf, [1.0] * 8))
            for _ in range(100)
        ]
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []

        # Reads, kernels and copies on the in-order queue, and every
        # command class on an out-of-order queue once finish() fenced
        # its hazard tables.
        kernel = Program(ctx, SCALE).build().create_kernel("scale2")
        kernel.set_arg(0, buf)
        other = Buffer(ctx, 8)
        commands = {
            "write": lambda q: q.enqueue_write_buffer(buf, [1.0] * 8),
            "read": lambda q: q.enqueue_read_buffer(buf, [0.0] * 8),
            "kernel": lambda q: q.enqueue_nd_range_kernel(kernel, [8]),
            "copy": lambda q: q.enqueue_copy_buffer(buf, other),
        }
        ooo = CommandQueue(ctx, device, out_of_order=True)
        for q in (queue, ooo):
            for name, command in commands.items():
                refs = [weakref.ref(command(q)) for _ in range(100)]
                if q.out_of_order:
                    q.finish()
                gc.collect()
                alive = [ref for ref in refs if ref() is not None]
                assert alive == [], (q.out_of_order, name)
