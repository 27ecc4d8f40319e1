"""Fusion x faults: injected failures on the deferred-dispatch path.

Regression coverage for two chaos hazards of the graph-level dispatch
optimiser:

* a fault injected on a kernel enqueue while another kernel sits in the
  queue's pending slot must flush that producer as an ordinary launch —
  its caller's Event stamped and priced exactly once, never stranded,
  never double-charged;
* transfer elimination (``dispatch.xfer_elim``) must never elide an
  upload to a device that was lost and failed over — the residency
  marker is per ``(epoch, device)``, so the re-upload on the survivor
  is always priced.
"""

import pytest

from repro import configure
from repro import opencl as cl
from repro.errors import CLDeviceLost, CLOutOfResources
from repro.opencl.faults import (
    DEVICE_LOST,
    PERMANENT,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
)
from repro.trace import tracing

pytestmark = pytest.mark.chaos

PRODUCER = """
__kernel void twice(__global float *a, __global float *b) {
    int i = get_global_id(0);
    b[i] = a[i] * 2.0;
}
"""

CONSUMER = """
__kernel void add1(__global float *b, __global float *c) {
    int i = get_global_id(0);
    c[i] = b[i] + 1.0;
}
"""

POKE = """
__kernel void poke(__global float *scratch) {
    scratch[0] = 1.0;
}
"""


@pytest.fixture(autouse=True)
def _clean():
    cl.reset_platforms()
    yield
    cl.reset_platforms()


def gpu_context():
    device = cl.find_device("GPU")
    context = cl.Context([device])
    queue = cl.CommandQueue(context, device)
    return device, context, queue


def chain_setup(context, queue, n=16):
    """Buffers + bound producer/consumer kernels for the twice->add1
    chain, with the input already uploaded."""
    k_a = cl.Program(context, PRODUCER).build().create_kernel("twice")
    k_b = cl.Program(context, CONSUMER).build().create_kernel("add1")
    buf_a = cl.Buffer(context, n)
    buf_b = cl.Buffer(context, n)
    buf_c = cl.Buffer(context, n)
    queue.enqueue_write_buffer(buf_a, [float(i) for i in range(n)])
    k_a.set_arg(0, buf_a)
    k_a.set_arg(1, buf_b)
    k_b.set_arg(0, buf_b)
    k_b.set_arg(1, buf_c)
    return k_a, k_b, buf_b, buf_c


class TestPendingSlotFaults:
    """Satellite regression: fault on an enqueue with a pending kernel."""

    def test_permanent_fault_flushes_pending_without_double_charge(self):
        n = 16
        with configure(
            fusion=True,
            faults=FaultPlan([FaultSpec("kernel", PERMANENT, key="add1@*")]),
        ):
            _, context, queue = gpu_context()
            k_a, k_b, buf_b, _ = chain_setup(context, queue, n)
            with tracing() as tr:
                event_a = queue.enqueue_nd_range_kernel(k_a, [n])
                assert context.ledger.kernel_launches == 0  # deferred
                with pytest.raises(CLOutOfResources) as exc:
                    queue.enqueue_nd_range_kernel(k_b, [n])
                assert exc.value.fault is not None
            # The pending producer flushed as an ordinary launch: its event
            # is stamped and priced exactly once.
            assert context.ledger.kernel_launches == 1
            assert event_a.duration_ns > 0
            # Counter conservation: one injection, no fusion, one
            # fault-triggered flush, a single fault.kernel charge.
            assert tr.counter("fault.injected") == 1
            assert tr.counter("dispatch.fuse") == 0
            assert tr.counter("dispatch.fuse.reject.fault") == 1
            assert len([s for s in tr.spans if s.name == "fault.kernel"]) == 1
            # Nothing left pending; the producer is not re-launched and its
            # output is intact.
            queue.finish()
            assert context.ledger.kernel_launches == 1
            out_b = [0.0] * n
            queue.enqueue_read_buffer(buf_b, out_b)
            assert out_b == [float(i) * 2.0 for i in range(n)]

    def test_transient_fault_retries_then_fuses_once(self):
        n = 16
        with configure(
            fusion=True,
            faults=FaultPlan([FaultSpec("kernel", TRANSIENT, key="add1@*")]),
        ):
            _, context, queue = gpu_context()
            k_a, k_b, _, buf_c = chain_setup(context, queue, n)
            with tracing() as tr:
                event_a = queue.enqueue_nd_range_kernel(k_a, [n])
                event_b = queue.enqueue_nd_range_kernel(k_b, [n])
                queue.finish()
            # The retry recovered in place and the pair still fused: the
            # two enqueues account to exactly one launch + one fusion.
            assert tr.counter("dispatch.fuse") == 1
            assert context.ledger.kernel_launches == 1
            assert event_a.duration_ns > 0
            assert event_b.duration_ns > 0
            # One injection, one retry, one backoff span, one aborted
            # attempt — charged exactly once.
            assert tr.counter("fault.injected") == 1
            assert tr.counter("fault.retry") == 1
            assert len([s for s in tr.spans if s.name == "fault.kernel"]) == 1
            assert len([s for s in tr.spans if s.name == "fault.backoff"]) == 1
            out_c = [0.0] * n
            queue.enqueue_read_buffer(buf_c, out_c)
            assert out_c == [float(i) * 2.0 + 1.0 for i in range(n)]

    def test_device_lost_still_flushes_pending_first(self):
        n = 16
        device, context, queue = gpu_context()
        k_a, k_b, buf_b, _ = chain_setup(context, queue, n)
        with configure(
            fusion=True,
            faults=FaultPlan(
                [FaultSpec("kernel", DEVICE_LOST, key="add1@*")]
            ),
        ):
            with tracing() as tr:
                queue.enqueue_nd_range_kernel(k_a, [n])
                with pytest.raises(CLDeviceLost):
                    queue.enqueue_nd_range_kernel(k_b, [n])
            assert device.lost
            # The producer executed before the loss surfaced, so buffer
            # contents stay consistent for the failover path.
            assert context.ledger.kernel_launches == 1
            assert tr.counter("dispatch.fuse.reject.device-lost") == 1
            assert list(buf_b.data) == [float(i) * 2.0 for i in range(n)]


class TestXferElimUnderLoss:
    """Satellite property: transfer elimination never elides an upload
    to a device that was lost and failed over."""

    def _chain(self, n, repeats):
        cl.reset_platforms()
        with configure(fusion=True):
            gpu = cl.find_device("GPU")
            cpu = cl.find_device("CPU")
            context = cl.Context([gpu, cpu])
            q_gpu = cl.CommandQueue(context, gpu)
            q_cpu = cl.CommandQueue(context, cpu)
            buf = cl.Buffer(context, n)
            scratch = cl.Buffer(context, 1)
            poke = cl.Program(context, POKE).build().create_kernel("poke")
            poke.set_arg(0, scratch)
            data = [float(i) for i in range(n)]
            plan = FaultPlan(
                [FaultSpec("kernel", DEVICE_LOST, key=f"poke@{gpu.name}")]
            )
            with configure(faults=plan), tracing() as tr:
                q_gpu.enqueue_write_buffer(buf, data)
                for _ in range(repeats):
                    q_gpu.enqueue_write_buffer(buf, data)
                # Elision is active before the loss: every re-upload of
                # clean contents to the resident device was free.
                assert tr.counter("dispatch.xfer_elim") == repeats
                before = context.ledger.bytes_to_device
                assert before == buf.nbytes
                with pytest.raises(CLDeviceLost):
                    q_gpu.enqueue_nd_range_kernel(poke, [1])
                assert gpu.lost
                # The failed-over upload must be priced: the residency
                # marker names the lost device, never the survivor.
                q_cpu.enqueue_write_buffer(buf, data)
                assert tr.counter("dispatch.xfer_elim") == repeats
                assert context.ledger.bytes_to_device == before + buf.nbytes
                # And elision re-arms on the survivor as usual.
                q_cpu.enqueue_write_buffer(buf, data)
                assert tr.counter("dispatch.xfer_elim") == repeats + 1

    def test_failed_over_upload_is_always_priced(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=20, deadline=None)
        @hypothesis.given(n=st.integers(4, 64), repeats=st.integers(1, 4))
        def prop(n, repeats):
            self._chain(n, repeats)

        prop()
