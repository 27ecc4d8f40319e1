"""Graph-level dispatch optimiser: kernel fusion and redundant-transfer
elimination (``repro.configure(fusion=True)``).

Covers the optimiser end to end at the substrate level: equal-range and
prologue fusion with bit-identical buffers, every legality demotion as a
``dispatch.fuse.reject.<reason>`` counter, fused-binary pricing
(compile once, then one API call per reuse), host->device transfer
elimination with its invalidation rules (kernel writes, ledger resets,
device loss, failover re-splits), the ManagedArray round-trip collapse,
and fused-vs-unfused agreement on the Figure-4 LUD pipeline and the
docrank corpus — both the flat-API and the actor variants.
"""

import pytest

from repro import configure
from repro import opencl as cl
from repro.apps.docrank import runners as docrank
from repro.apps.lud import runners as lud
from repro.errors import CLDeviceLost, CLInvalidValue
from repro.opencl import dispatch
from repro.opencl.costmodel import SimClock
from repro.opencl.faults import DEVICE_LOST, FaultPlan, FaultSpec
from repro.runtime.residency import ManagedArray
from repro.trace import tracing

pytestmark = pytest.mark.fusion


@pytest.fixture(autouse=True)
def _clean():
    cl.reset_platforms()
    yield
    cl.reset_platforms()


PRODUCER = """
__kernel void scale2(__global float *a, __global float *b) {
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

GATHER_CONSUMER = """
__kernel void rev(__global float *b, __global float *c, int n) {
    int i = get_global_id(0);
    c[i] = b[n - 1 - i];
}
"""

RETURN_PRODUCER = """
__kernel void guarded(__global float *a, __global float *b) {
    int i = get_global_id(0);
    if (a[i] < 0.0) { return; }
    b[i] = a[i] * 2.0;
}
"""

BARRIER_CONSUMER = """
__kernel void fenced(__global float *b, __global float *c) {
    int i = get_global_id(0);
    barrier(CLK_LOCAL_MEM_FENCE);
    c[i] = b[i] + 1.0;
}
"""

TWO_IN_CONSUMER = """
__kernel void addmul(__global float *b, __global float *x, __global float *y) {
    int i = get_global_id(0);
    y[i] = b[i] + x[i];
}
"""

PICK_PRODUCER = """
__kernel void pick(__global float *a, __global float *piv, int k) {
    piv[0] = a[k];
}
"""

GEOM_PRODUCER = """
__kernel void span(__global float *piv) {
    piv[0] = (float)get_global_size(0);
}
"""

FIRST_PRODUCER = """
__kernel void first(__global float *y, int b) {
    y[0] = (float)b;
}
"""

# ``x[a] += ...`` parses to a store and a load sharing one index node.
COMPOUND_CONSUMER = """
__kernel void second(__global float *y, __global float *x, int a, int b) {
    int i = get_global_id(0);
    if (i == 0) x[a] += y[0] * 10.0 + (float)b;
}
"""

DIV_CONSUMER = """
__kernel void divp(__global float *a, __global float *piv) {
    int i = get_global_id(0);
    a[i] = a[i] / piv[0];
}
"""


def gpu_context():
    device = cl.find_device("GPU")
    context = cl.Context([device])
    queue = cl.CommandQueue(context, device)
    return device, context, queue


def make_kernel(context, source, name):
    return cl.Program(context, source).build().create_kernel(name)


def run_pair(
    queue,
    context,
    n=64,
    consumer_src=CONSUMER,
    consumer_name="add1",
    consumer_gsz=None,
    extra_args=(),
):
    """Enqueue the scale2 -> <consumer> chain; returns (b, c) contents."""
    k_a = make_kernel(context, PRODUCER, "scale2")
    k_b = make_kernel(context, consumer_src, consumer_name)
    buf_a = cl.Buffer(context, n)
    buf_b = cl.Buffer(context, n)
    buf_c = cl.Buffer(context, n)
    queue.enqueue_write_buffer(buf_a, [float(i) for i in range(n)])
    k_a.set_arg(0, buf_a)
    k_a.set_arg(1, buf_b)
    k_b.set_arg(0, buf_b)
    k_b.set_arg(1, buf_c)
    for index, value in enumerate(extra_args, start=2):
        k_b.set_arg(index, value)
    queue.enqueue_nd_range_kernel(k_a, [n])
    queue.enqueue_nd_range_kernel(k_b, consumer_gsz or [n])
    out_b, out_c = [0.0] * n, [0.0] * n
    queue.enqueue_read_buffer(buf_b, out_b)
    queue.enqueue_read_buffer(buf_c, out_c)
    return out_b, out_c


class TestConfigure:
    def test_default_is_off_and_toggle_round_trips(self):
        assert dispatch.configure()["fusion"] is False
        with configure(fusion=True):
            assert dispatch.configure()["fusion"] is True
            with configure(fusion=False):
                assert dispatch.configure()["fusion"] is False
        assert dispatch.configure()["fusion"] is False

    def test_omitting_fusion_changes_nothing(self):
        with configure(fusion=True), configure(faults=None):
            assert dispatch.configure()["fusion"] is True


class TestEqualRangeFusion:
    def test_fused_pair_is_bit_identical_and_saves_a_launch(self):
        n = 64
        _, ctx0, q0 = gpu_context()
        plain_b, plain_c = run_pair(q0, ctx0, n)
        launches_plain = ctx0.ledger.kernel_launches

        cl.reset_platforms()
        with configure(fusion=True):
            _, ctx1, q1 = gpu_context()
            with tracing() as tr:
                fused_b, fused_c = run_pair(q1, ctx1, n)
            assert fused_b == plain_b
            assert fused_c == plain_c
            assert ctx1.ledger.kernel_launches == launches_plain - 1
            assert tr.counter("dispatch.fuse") == 1
            assert tr.counter("dispatch.fuse.launches_saved") == 1

    def test_first_fusion_compiles_then_binary_reloads(self):
        device, context, queue = gpu_context()
        with configure(fusion=True):
            before = context.ledger.host_ns
            run_pair(queue, context)
            compile_delta = context.ledger.host_ns - before
            assert compile_delta >= device.spec.compile_ns

            mid = context.ledger.host_ns
            run_pair(queue, context)
            reload_delta = context.ledger.host_ns - mid
            assert reload_delta < device.spec.compile_ns
            assert reload_delta >= device.spec.api_call_ns

    def test_producer_event_shares_the_fused_placement(self):
        n = 32
        device, context, queue = gpu_context()
        with configure(fusion=True):
            k_a = make_kernel(context, PRODUCER, "scale2")
            k_b = make_kernel(context, CONSUMER, "add1")
            buf_a, buf_b, buf_c = (cl.Buffer(context, n) for _ in range(3))
            queue.enqueue_write_buffer(buf_a, [1.0] * n)
            k_a.set_arg(0, buf_a)
            k_a.set_arg(1, buf_b)
            k_b.set_arg(0, buf_b)
            k_b.set_arg(1, buf_c)
            ev_a = queue.enqueue_nd_range_kernel(k_a, [n])
            ev_b = queue.enqueue_nd_range_kernel(k_b, [n])
            assert ev_a.start_ns == ev_b.start_ns
            assert ev_a.end_ns == ev_b.end_ns


class TestFlushedEvent:
    def _producer_event(self, fusion):
        """Enqueue scale2, charge one API call, then read its output
        (the flush point under fusion); returns the kernel's event and
        the clock at its enqueue and after the API call."""
        n = 64
        cl.reset_platforms()
        device = cl.find_device("GPU")
        context = cl.Context([device], clock=SimClock())
        queue = cl.CommandQueue(context, device)
        with configure(fusion=fusion):
            k_a = make_kernel(context, PRODUCER, "scale2")
            buf_a, buf_b = cl.Buffer(context, n), cl.Buffer(context, n)
            queue.enqueue_write_buffer(buf_a, [1.0] * n)
            k_a.set_arg(0, buf_a)
            k_a.set_arg(1, buf_b)
            enqueued = context.clock.now_ns
            event = queue.enqueue_nd_range_kernel(k_a, [n])
            context.charge_api_call()
            flushed = context.clock.now_ns
            out = [0.0] * n
            queue.enqueue_read_buffer(buf_b, out)
        assert out == [2.0] * n
        return event, enqueued, flushed

    def test_flush_stamps_the_deferred_event(self):
        self._producer_event(fusion=False)  # compile once for both runs
        plain, _, _ = self._producer_event(fusion=False)
        event, enqueued, flushed = self._producer_event(fusion=True)
        assert flushed > enqueued
        assert event.queued_ns == enqueued
        assert event.submit_ns == flushed
        assert event.end_ns - event.start_ns == plain.duration_ns
        for placement in (
            "sched_start_ns", "sched_end_ns", "e2e_start_ns", "e2e_end_ns",
        ):
            assert getattr(event, placement) == getattr(plain, placement)

    def test_released_queue_defers_nothing(self):
        n = 16
        _, context, queue = gpu_context()
        with configure(fusion=True):
            k_a = make_kernel(context, PRODUCER, "scale2")
            buf_a, buf_b = cl.Buffer(context, n), cl.Buffer(context, n)
            queue.enqueue_write_buffer(buf_a, [3.0] * n)
            k_a.set_arg(0, buf_a)
            k_a.set_arg(1, buf_b)
            queue.release()
            with pytest.raises(CLInvalidValue, match=f"queue {queue.id} "):
                queue.enqueue_nd_range_kernel(k_a, [n])
            assert context._fusion_pending == 0
            assert context.ledger.kernel_launches == 0
            assert buf_b.data == [0.0] * n


class TestPrologueFusion:
    def test_single_item_producer_runs_as_guarded_prologue(self):
        n = 48

        def chain(queue, context):
            k_pick = make_kernel(context, PICK_PRODUCER, "pick")
            k_div = make_kernel(context, DIV_CONSUMER, "divp")
            buf = cl.Buffer(context, n)
            piv = cl.Buffer(context, 1)
            queue.enqueue_write_buffer(
                buf, [float(i + 1) for i in range(n)]
            )
            k_pick.set_arg(0, buf)
            k_pick.set_arg(1, piv)
            k_pick.set_arg(2, 3)
            k_div.set_arg(0, buf)
            k_div.set_arg(1, piv)
            queue.enqueue_nd_range_kernel(k_pick, [1])
            queue.enqueue_nd_range_kernel(k_div, [n])
            out = [0.0] * n
            queue.enqueue_read_buffer(buf, out)
            return out

        _, ctx0, q0 = gpu_context()
        plain = chain(q0, ctx0)
        cl.reset_platforms()
        with configure(fusion=True):
            _, ctx1, q1 = gpu_context()
            with tracing() as tr:
                fused = chain(q1, ctx1)
            assert fused == plain
            assert tr.counter("dispatch.fuse") == 1

    def test_shared_index_node_is_renamed_once(self):
        # The consumer's scalar a equals the producer's b, so the fused
        # renames chain: a -> b and b -> b_2.  Renaming the compound
        # store's shared index twice would store at x[7].
        def chain(queue, context):
            k_first = make_kernel(context, FIRST_PRODUCER, "first")
            k_second = make_kernel(context, COMPOUND_CONSUMER, "second")
            y, x = cl.Buffer(context, 1), cl.Buffer(context, 16)
            for index, arg in enumerate((y, 3)):
                k_first.set_arg(index, arg)
            for index, arg in enumerate((y, x, 3, 7)):
                k_second.set_arg(index, arg)
            queue.enqueue_nd_range_kernel(k_first, [1])
            queue.enqueue_nd_range_kernel(k_second, [16], [8])
            out = [0.0] * 16
            queue.enqueue_read_buffer(x, out)
            return out

        _, ctx0, q0 = gpu_context()
        plain = chain(q0, ctx0)
        cl.reset_platforms()
        with configure(fusion=True):
            _, ctx1, q1 = gpu_context()
            with tracing() as tr:
                fused = chain(q1, ctx1)
        assert plain[3] == 37.0
        assert fused == plain
        assert tr.counter("dispatch.fuse") == 1
        assert ctx1.ledger.kernel_launches == ctx0.ledger.kernel_launches - 1

    def test_geometry_reading_producer_demotes(self):
        n = 16
        device, context, queue = gpu_context()
        with configure(fusion=True):
            k_span = make_kernel(context, GEOM_PRODUCER, "span")
            k_div = make_kernel(context, DIV_CONSUMER, "divp")
            buf = cl.Buffer(context, n)
            piv = cl.Buffer(context, 1)
            queue.enqueue_write_buffer(buf, [4.0] * n)
            k_span.set_arg(0, piv)
            k_div.set_arg(0, buf)
            k_div.set_arg(1, piv)
            with tracing() as tr:
                queue.enqueue_nd_range_kernel(k_span, [1])
                queue.enqueue_nd_range_kernel(k_div, [n])
                out = [0.0] * n
                queue.enqueue_read_buffer(buf, out)
            # get_global_size(0) must see the producer's own range (1), not
            # the consumer's fused range.
            assert out == [4.0] * n
            assert tr.counter("dispatch.fuse") == 0
            assert tr.counter("dispatch.fuse.reject.geometry") == 1


class TestRejectReasons:
    def assert_reject(self, tr, reason):
        assert tr.counter("dispatch.fuse") == 0
        assert tr.counter(f"dispatch.fuse.reject.{reason}") >= 1

    def test_shape_mismatch_demotes(self):
        _, context, queue = gpu_context()
        with configure(fusion=True):
            with tracing() as tr:
                run_pair(queue, context, n=64, consumer_gsz=[32])
            self.assert_reject(tr, "shape")

    def test_gather_access_demotes(self):
        n = 64
        _, ctx0, q0 = gpu_context()
        plain_b, plain_c = run_pair(
            q0, ctx0, n, GATHER_CONSUMER, "rev", extra_args=(n,)
        )
        cl.reset_platforms()
        with configure(fusion=True):
            _, ctx1, q1 = gpu_context()
            with tracing() as tr:
                fused_b, fused_c = run_pair(
                    q1, ctx1, n, GATHER_CONSUMER, "rev", extra_args=(n,)
                )
            assert (fused_b, fused_c) == (plain_b, plain_c)
            self.assert_reject(tr, "gather")

    def test_early_return_producer_demotes(self):
        n = 32
        _, context, queue = gpu_context()
        with configure(fusion=True):
            k_a = make_kernel(context, RETURN_PRODUCER, "guarded")
            k_b = make_kernel(context, CONSUMER, "add1")
            buf_a, buf_b, buf_c = (cl.Buffer(context, n) for _ in range(3))
            queue.enqueue_write_buffer(buf_a, [1.0] * n)
            k_a.set_arg(0, buf_a)
            k_a.set_arg(1, buf_b)
            k_b.set_arg(0, buf_b)
            k_b.set_arg(1, buf_c)
            with tracing() as tr:
                queue.enqueue_nd_range_kernel(k_a, [n])
                queue.enqueue_nd_range_kernel(k_b, [n])
                queue.finish()
            self.assert_reject(tr, "return")

    def test_barrier_kernel_demotes(self):
        _, context, queue = gpu_context()
        with configure(fusion=True):
            with tracing() as tr:
                run_pair(queue, context, n=64, consumer_src=BARRIER_CONSUMER,
                         consumer_name="fenced")
            self.assert_reject(tr, "barrier")

    def test_write_aliasing_demotes(self):
        n = 32
        _, context, queue = gpu_context()
        with configure(fusion=True):
            k_a = make_kernel(context, PRODUCER, "scale2")
            k_b = make_kernel(context, TWO_IN_CONSUMER, "addmul")
            buf_a, buf_b, buf_y = (cl.Buffer(context, n) for _ in range(3))
            queue.enqueue_write_buffer(buf_a, [2.0] * n)
            k_a.set_arg(0, buf_a)
            k_a.set_arg(1, buf_b)
            # buf_y bound both as a read input and as the written output.
            k_b.set_arg(0, buf_b)
            k_b.set_arg(1, buf_y)
            k_b.set_arg(2, buf_y)
            with tracing() as tr:
                queue.enqueue_nd_range_kernel(k_a, [n])
                queue.enqueue_nd_range_kernel(k_b, [n])
                queue.finish()
            self.assert_reject(tr, "aliasing")

    def test_unrelated_kernels_demote_without_dataflow_edge(self):
        n = 32
        _, context, queue = gpu_context()
        with configure(fusion=True):
            k_a = make_kernel(context, PRODUCER, "scale2")
            k_b = make_kernel(context, PRODUCER, "scale2")
            bufs = [cl.Buffer(context, n) for _ in range(4)]
            for buf in bufs[:1] + bufs[2:3]:
                queue.enqueue_write_buffer(buf, [1.0] * n)
            k_a.set_arg(0, bufs[0])
            k_a.set_arg(1, bufs[1])
            k_b.set_arg(0, bufs[2])
            k_b.set_arg(1, bufs[3])
            with tracing() as tr:
                queue.enqueue_nd_range_kernel(k_a, [n])
                queue.enqueue_nd_range_kernel(k_b, [n])
                queue.finish()
            self.assert_reject(tr, "no-intermediate")

    def test_host_read_flushes_the_pending_kernel(self):
        n = 16
        _, context, queue = gpu_context()
        with configure(fusion=True):
            k_a = make_kernel(context, PRODUCER, "scale2")
            buf_a, buf_b = cl.Buffer(context, n), cl.Buffer(context, n)
            queue.enqueue_write_buffer(buf_a, [3.0] * n)
            k_a.set_arg(0, buf_a)
            k_a.set_arg(1, buf_b)
            with tracing() as tr:
                queue.enqueue_nd_range_kernel(k_a, [n])
                out = [0.0] * n
                queue.enqueue_read_buffer(buf_b, out)
            assert out == [6.0] * n
            self.assert_reject(tr, "host-read")

    def test_host_observation_of_buffer_data_flushes(self):
        n = 16
        _, context, queue = gpu_context()
        with configure(fusion=True):
            k_a = make_kernel(context, PRODUCER, "scale2")
            buf_a, buf_b = cl.Buffer(context, n), cl.Buffer(context, n)
            queue.enqueue_write_buffer(buf_a, [5.0] * n)
            k_a.set_arg(0, buf_a)
            k_a.set_arg(1, buf_b)
            with tracing() as tr:
                queue.enqueue_nd_range_kernel(k_a, [n])
                observed = list(buf_b.data)
            assert observed == [10.0] * n
            self.assert_reject(tr, "host-observe")

    def test_explicit_wait_list_dispatches_immediately(self):
        n = 16
        _, context, queue = gpu_context()
        with configure(fusion=True):
            k_a = make_kernel(context, PRODUCER, "scale2")
            k_b = make_kernel(context, CONSUMER, "add1")
            buf_a, buf_b, buf_c = (cl.Buffer(context, n) for _ in range(3))
            ev = queue.enqueue_write_buffer(buf_a, [1.0] * n)
            k_a.set_arg(0, buf_a)
            k_a.set_arg(1, buf_b)
            k_b.set_arg(0, buf_b)
            k_b.set_arg(1, buf_c)
            with tracing() as tr:
                queue.enqueue_nd_range_kernel(k_a, [n])
                queue.enqueue_nd_range_kernel(k_b, [n], wait_for=[ev])
                queue.finish()
            assert tr.counter("dispatch.fuse") == 0
            assert tr.counter("dispatch.fuse.reject.sync") == 1

    def test_disabling_fusion_flushes_on_the_next_dispatch(self):
        n = 16
        _, context, queue = gpu_context()
        k_a = make_kernel(context, PRODUCER, "scale2")
        buf_a, buf_b = cl.Buffer(context, n), cl.Buffer(context, n)
        queue.enqueue_write_buffer(buf_a, [2.0] * n)
        k_a.set_arg(0, buf_a)
        k_a.set_arg(1, buf_b)
        with tracing() as tr:
            with configure(fusion=True):
                queue.enqueue_nd_range_kernel(k_a, [n])
            queue.enqueue_nd_range_kernel(k_a, [n])
            queue.finish()
        assert tr.counter("dispatch.fuse.reject.disabled") == 1
        out = [0.0] * n
        queue.enqueue_read_buffer(buf_b, out)
        assert out == [4.0] * n


class TestTransferElimination:
    def test_repeat_upload_is_elided_and_unpriced(self):
        n = 128
        _, context, queue = gpu_context()
        with configure(fusion=True):
            buf = cl.Buffer(context, n)
            data = [float(i) for i in range(n)]
            queue.enqueue_write_buffer(buf, data)
            h2d_ns = context.ledger.h2d_ns
            bytes_up = context.ledger.bytes_to_device
            with tracing() as tr:
                event = queue.enqueue_write_buffer(buf, data)
            assert context.ledger.h2d_ns == h2d_ns
            assert context.ledger.bytes_to_device == bytes_up
            assert event.duration_ns == 0.0
            assert tr.counter("dispatch.xfer_elim") == 1
            assert tr.counter("dispatch.xfer_elim.bytes") == buf.nbytes

    def test_changed_data_is_priced_in_full(self):
        n = 64
        _, context, queue = gpu_context()
        with configure(fusion=True):
            buf = cl.Buffer(context, n)
            queue.enqueue_write_buffer(buf, [1.0] * n)
            h2d_ns = context.ledger.h2d_ns
            with tracing() as tr:
                queue.enqueue_write_buffer(buf, [2.0] * n)
            assert context.ledger.h2d_ns > h2d_ns
            assert tr.counter("dispatch.xfer_elim") == 0

    def test_fusion_off_never_elides(self):
        n = 64
        _, context, queue = gpu_context()
        buf = cl.Buffer(context, n)
        data = [1.0] * n
        queue.enqueue_write_buffer(buf, data)
        h2d_ns = context.ledger.h2d_ns
        queue.enqueue_write_buffer(buf, data)
        assert context.ledger.h2d_ns == 2 * h2d_ns

    def test_kernel_write_invalidates_the_marker(self):
        n = 32
        _, context, queue = gpu_context()
        with configure(fusion=True):
            kernel = make_kernel(context, PRODUCER, "scale2")
            buf_a, buf_b = cl.Buffer(context, n), cl.Buffer(context, n)
            queue.enqueue_write_buffer(buf_a, [1.0] * n)
            queue.enqueue_write_buffer(buf_b, [2.0] * n)
            kernel.set_arg(0, buf_a)
            kernel.set_arg(1, buf_b)
            queue.enqueue_nd_range_kernel(kernel, [n])
            queue.finish()
            h2d_ns = context.ledger.h2d_ns
            # buf_b now holds [2.0]*n again via the kernel, but the upload
            # must be priced: the device copy is a kernel product, not the
            # certified image of a host transfer.
            with tracing() as tr:
                queue.enqueue_write_buffer(buf_b, [2.0] * n)
            assert context.ledger.h2d_ns > h2d_ns
            assert tr.counter("dispatch.xfer_elim") == 0

    def test_read_back_arms_the_round_trip_collapse(self):
        n = 64
        _, context, queue = gpu_context()
        with configure(fusion=True):
            kernel = make_kernel(context, PRODUCER, "scale2")
            buf_a, buf_b = cl.Buffer(context, n), cl.Buffer(context, n)
            queue.enqueue_write_buffer(buf_a, [1.0] * n)
            kernel.set_arg(0, buf_a)
            kernel.set_arg(1, buf_b)
            queue.enqueue_nd_range_kernel(kernel, [n])
            out = [0.0] * n
            queue.enqueue_read_buffer(buf_b, out)
            h2d_ns = context.ledger.h2d_ns
            with tracing() as tr:
                queue.enqueue_write_buffer(buf_b, out)
            assert context.ledger.h2d_ns == h2d_ns
            assert tr.counter("dispatch.xfer_elim") == 1

    def test_reset_ledger_invalidates_residency_state(self):
        n = 64
        _, context, queue = gpu_context()
        with configure(fusion=True):
            buf = cl.Buffer(context, n)
            data = [3.0] * n
            queue.enqueue_write_buffer(buf, data)
            context.reset_ledger()
            with tracing() as tr:
                queue.enqueue_write_buffer(buf, data)
            # A measured run prices its own transfers: the marker from the
            # previous run's upload must not survive the reset.
            assert context.ledger.h2d_ns > 0.0
            assert tr.counter("dispatch.xfer_elim") == 0

    def test_reset_ledger_flushes_a_pending_kernel_into_the_old_run(self):
        n = 16
        _, context, queue = gpu_context()
        with configure(fusion=True):
            kernel = make_kernel(context, PRODUCER, "scale2")
            buf_a, buf_b = cl.Buffer(context, n), cl.Buffer(context, n)
            queue.enqueue_write_buffer(buf_a, [1.0] * n)
            kernel.set_arg(0, buf_a)
            kernel.set_arg(1, buf_b)
            queue.enqueue_nd_range_kernel(kernel, [n])
            old = context.ledger
            fresh = context.reset_ledger()
            assert old.kernel_launches == 1
            assert fresh.kernel_launches == 0
            out = [0.0] * n
            queue.enqueue_read_buffer(buf_b, out)
            assert out == [2.0] * n

    def test_device_loss_invalidates_the_marker(self):
        n = 1024
        with configure(
            fusion=True,
            faults=FaultPlan([FaultSpec("kernel", kind=DEVICE_LOST,
                                        key="fill@*R9*")]),
        ):
            platform = cl.get_platforms()[0]
            context = cl.Context(platform.devices)
            program = cl.Program(
                context,
                """
                __kernel void fill(__global float *a, __global float *b) {
                    int i = get_global_id(0);
                    b[i] = a[i];
                }
                """,
            ).build()
            kernel = program.create_kernel("fill")
            buf_a = cl.Buffer(context, n)
            buf_b = cl.Buffer(context, n)
            gpu = next(d for d in platform.devices if "R9" in d.name)
            data = [1.0] * n
            context.queue_for(gpu).enqueue_write_buffer(buf_a, data)
            kernel.set_arg(0, buf_a)
            kernel.set_arg(1, buf_b)
            # The multi-device dispatch loses the GPU and fails over.
            context.enqueue_nd_range(kernel, (n,), (64,))
            assert gpu.lost
            survivor = next(d for d in platform.devices if not d.lost)
            h2d_ns = context.ledger.h2d_ns
            with tracing() as tr:
                context.queue_for(survivor).enqueue_write_buffer(buf_a, data)
            # The marker names the lost GPU, so the survivor re-prices the
            # upload in full.
            assert context.ledger.h2d_ns > h2d_ns
            assert tr.counter("dispatch.xfer_elim") == 0

    def test_failover_resplit_clears_written_buffer_markers(self):
        n = 64
        with configure(fusion=True):
            platform = cl.get_platforms()[0]
            context = cl.Context(platform.devices)
            program = cl.Program(
                context,
                """
                __kernel void keep(__global float *a) {
                    int i = get_global_id(0);
                    a[i] = a[i];
                }
                """,
            ).build()
            kernel = program.create_kernel("keep")
            buf = cl.Buffer(context, n)
            data = [2.0] * n
            device = platform.devices[0]
            context.queue_for(device).enqueue_write_buffer(buf, data)
            kernel.set_arg(0, buf)
            context.enqueue_nd_range(kernel, (n,), (8,))
            h2d_ns = context.ledger.h2d_ns
            with tracing() as tr:
                context.queue_for(device).enqueue_write_buffer(buf, data)
            # The split dispatch wrote the buffer (even value-identically),
            # so the next upload is priced.
            assert context.ledger.h2d_ns > h2d_ns
            assert tr.counter("dispatch.xfer_elim") == 0


class TestManagedArrayRoundTrip:
    def _device_write(self, context, queue, arr):
        kernel = make_kernel(
            context,
            """
            __kernel void bump(__global float *a) {
                int i = get_global_id(0);
                a[i] = a[i] + 1.0;
            }
            """,
            "bump",
        )
        buf = arr.to_device(queue)
        kernel.set_arg(0, buf)
        queue.enqueue_nd_range_kernel(kernel, [buf.n_elements])
        queue.finish()
        arr.mark_device_written()

    def test_round_trip_collapses_under_fusion(self):
        n = 64
        _, context, queue = gpu_context()
        with configure(fusion=True):
            arr = ManagedArray([1.0] * n, (n,))
            self._device_write(context, queue, arr)
            assert arr.host() == [2.0] * n  # read-back; device copy stays warm
            h2d_ns = context.ledger.h2d_ns
            with tracing() as tr:
                arr.to_device(queue)
            assert tr.counter("residency.warm") == 1
            assert tr.counter("dispatch.xfer_elim") == 1
            assert context.ledger.h2d_ns == h2d_ns

    def test_fusion_off_releases_the_device_copy(self):
        n = 16
        _, context, queue = gpu_context()
        arr = ManagedArray([1.0] * n, (n,))
        self._device_write(context, queue, arr)
        arr.host()
        assert arr._buffer is None

    def test_lost_device_copy_is_never_kept_warm(self):
        n = 16
        _, context, queue = gpu_context()
        with configure(fusion=True):
            arr = ManagedArray([1.0] * n, (n,))
            self._device_write(context, queue, arr)
            with configure(
                faults=FaultPlan([FaultSpec("kernel", kind=DEVICE_LOST)])
            ):
                kernel = make_kernel(context, PRODUCER, "scale2")
                buf_a, buf_b = cl.Buffer(context, n), cl.Buffer(context, n)
                kernel.set_arg(0, buf_a)
                kernel.set_arg(1, buf_b)
                with pytest.raises(CLDeviceLost):
                    queue.enqueue_nd_range_kernel(kernel, [n])
                    queue.finish()
                assert queue.device.lost
                # Reads drain on lost devices, so the sync still works — but
                # the device copy must not be kept warm for a dead queue.
                assert arr.host() == [2.0] * n
                assert arr._buffer is None


class TestFiguresAgreement:
    def _with_fusion(self, fn):
        cl.reset_platforms()
        base = fn()
        cl.reset_platforms()
        with configure(fusion=True), tracing() as tr:
            fused = fn()
        return base, fused, tr

    def test_lud_api_pipeline_agrees_and_gets_cheaper(self):
        base, fused, tr = self._with_fusion(lambda: lud.run_api(32))
        assert fused.result == base.result
        assert fused.meta["m"] == base.meta["m"]
        assert fused.total_ns < base.total_ns
        assert tr.counter("dispatch.fuse") == 32

    def test_lud_actor_pipeline_agrees_and_gets_cheaper(self):
        base, fused, tr = self._with_fusion(lambda: lud.run_actors(32))
        assert fused.result == base.result
        assert fused.meta["m"] == base.meta["m"]
        assert fused.total_ns < base.total_ns
        assert tr.counter("dispatch.fuse") == 32

    def test_docrank_api_agrees_and_elides_repeat_uploads(self):
        base, fused, tr = self._with_fusion(
            lambda: docrank.run_api(ndocs=64, v=16, repeats=4)
        )
        assert fused.result == base.result
        assert fused.total_ns < base.total_ns
        # Repeats 2..4 re-upload the unchanged corpus and weights.
        assert tr.counter("dispatch.xfer_elim") >= 6

    def test_docrank_actor_pipeline_agrees(self):
        base, fused, _ = self._with_fusion(
            lambda: docrank.run_actors(ndocs=64, v=16, repeats=4)
        )
        assert fused.result == base.result
