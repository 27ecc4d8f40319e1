"""Buffer storage and per-kernel static facts.

A :class:`~repro.opencl.Buffer` keeps its contents in one NumPy array:
transfers and both execution tiers work on that array in place, and
``Buffer.data`` is a snapshot.  A kernel's read and written array sets
are computed once, when its program is built, and shared by every
``Kernel`` created from it.  An array index out of bounds raises the
same typed error on either tier, on one device or split over two.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from repro import configure
from repro import kir
from repro.errors import KirRuntimeError
from repro.kir import ir
from repro.opencl import (
    Buffer,
    CommandQueue,
    Context,
    Program,
    dispatch,
    find_device,
    reset_platforms,
)
from repro.opencl.context import fresh_clock
from repro.opencl.costmodel import cpu_spec, gpu_spec
from repro.opencl.platform import Device
from repro.trace import tracing

SQUARE = """
__kernel void square(__global float *a, __global float *out) {
    int i = get_global_id(0);
    out[i] = a[i] * a[i];
}
"""

SHIFT = """
__kernel void shift(__global float *a, __global float *out) {
    int i = get_global_id(0);
    out[i] = a[i + 1];
}
"""

N = 512  # large enough for the vectorised tier


@pytest.fixture(autouse=True)
def _clean():
    reset_platforms()
    yield
    reset_platforms()


def _square_setup():
    device = find_device("GPU")
    context = Context([device])
    queue = CommandQueue(context, device)
    kernel = Program(context, SQUARE).build().create_kernel("square")
    src, out = Buffer(context, N), Buffer(context, N)
    kernel.set_arg(0, src)
    kernel.set_arg(1, out)
    return queue, kernel, src, out


class TestOneStorage:
    def test_np_view_is_the_same_array_throughout(self):
        queue, kernel, src, out = _square_setup()
        store = out.np_view()

        queue.enqueue_write_buffer(out, [1.0] * N)
        assert out.np_view() is store
        queue.enqueue_write_buffer(src, [float(i) for i in range(N)])

        with tracing() as tr:
            queue.enqueue_nd_range_kernel(kernel, [8])
            queue.finish()
        assert tr.counter("dispatch.fallback.small-ndrange") == 1
        assert out.np_view() is store
        assert out.data[:9] == [float(i * i) for i in range(8)] + [1.0]

        with tracing() as tr:
            queue.enqueue_nd_range_kernel(kernel, [N])
            queue.finish()
        assert tr.counter("dispatch.fallback") == 0
        assert out.np_view() is store

        host = [0.0] * N
        queue.enqueue_read_buffer(out, host)
        assert out.np_view() is store
        assert host == [float(i * i) for i in range(N)]

        queue.enqueue_copy_buffer(src, out)
        assert out.np_view() is store
        assert out.data == src.data


class TestDataSnapshot:
    def test_data_is_a_new_list_and_mutating_it_changes_nothing(self):
        queue, _, src, _ = _square_setup()
        queue.enqueue_write_buffer(src, [2.0] * N)
        first = src.data
        second = src.data
        assert first == second and first is not second
        first[0] = 99.0
        assert src.data[0] == 2.0
        assert src.np_view()[0] == 2.0

    def test_data_flushes_a_pending_fused_kernel(self):
        queue, kernel, src, out = _square_setup()
        with configure(fusion=True):
            queue.enqueue_write_buffer(src, [3.0] * N)
            with tracing() as tr:
                queue.enqueue_nd_range_kernel(kernel, [N])
                assert out.data == [9.0] * N
            assert tr.counter("dispatch.fuse.reject.host-observe") == 1


def _gpu_queue():
    device = find_device("GPU")
    context = Context([device])
    return context, CommandQueue(context, device)


def _write_repeatedly(lists):
    """Write each list in turn into one 4,096-element ``int`` buffer on
    a fresh clock; returns the buffer's writes as ``(ts, dur)`` pairs,
    the ledger, ``elapsed_ns`` and the probe's answers."""
    answers = []
    probe = Buffer.contents_equal

    def spy(buf, values):
        answers.append(probe(buf, values))
        return answers[-1]

    reset_platforms()
    with fresh_clock() as clock, tracing() as tr, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(Buffer, "contents_equal", spy)
        context, queue = _gpu_queue()
        buf = Buffer(context, 4096, "int")
        for data in lists:
            queue.enqueue_write_buffer(buf, data)
        queue.finish()
        assert buf.data == lists[-1]
    writes = [(s.ts_ns, s.dur_ns) for s in tr.spans if s.name == "WRITE_BUFFER"]
    return writes, context.ledger, clock.timeline.elapsed_ns, answers


class TestRedundantWrite:
    """A host write the buffer already holds bit for bit skips the
    list-to-array conversion.  The transfer is priced all the same, and
    a write that would change any bit lands."""

    def test_repeated_list_prices_like_fresh_lists(self):
        data = [(i * 7) % 13 for i in range(4096)]
        same = _write_repeatedly([data] * 16)
        fresh = _write_repeatedly([list(data) for _ in range(16)])
        changed = _write_repeatedly(
            [[(i * 7 + k) % 13 for i in range(4096)] for k in range(16)]
        )
        assert same[3] == fresh[3] == [True] * 15
        assert changed[3] == [False] * 15
        for other in (fresh, changed):
            writes, ledger, elapsed_ns, _ = other
            assert len(writes) == 16
            assert writes == same[0]
            assert ledger.bytes_to_device == same[1].bytes_to_device
            assert ledger.breakdown() == same[1].breakdown()
            assert elapsed_ns == same[2] > 0

    def test_list_mutated_in_place_lands(self):
        context, queue = _gpu_queue()
        buf = Buffer(context, 4096, "int")
        data = list(range(4096))
        queue.enqueue_write_buffer(buf, data)
        data[4095] = -1
        queue.enqueue_write_buffer(buf, data)
        assert buf.data == data

    def test_kernel_output_is_overwritten_by_the_original_list(self):
        queue, kernel, src, out = _square_setup()
        host = [float(i) for i in range(N)]
        queue.enqueue_write_buffer(src, host)
        queue.enqueue_write_buffer(out, host)
        queue.enqueue_nd_range_kernel(kernel, [N])
        assert out.data[3] == 9.0
        queue.enqueue_write_buffer(out, host)
        assert out.data == host

    def test_float_values_over_equal_ints_stay_ints(self):
        context, queue = _gpu_queue()
        buf = Buffer(context, 2, "int")
        queue.enqueue_write_buffer(buf, [1, 2])
        queue.enqueue_write_buffer(buf, [1.0, 2.0])
        assert buf.data == [1, 2]
        assert [type(x) for x in buf.data] == [int, int]

    def test_tuple_and_ndarray_land(self):
        queue, _, src, _ = _square_setup()
        queue.enqueue_write_buffer(src, [1.0] * N)
        queue.enqueue_write_buffer(src, tuple([2.0] * N))
        assert src.data == [2.0] * N
        queue.enqueue_write_buffer(src, np.full(N, 0.1))
        assert src.data == [0.1] * N
        # float32 0.1 compares equal to 0.1 at float32 precision, but
        # the write stores its exact value.
        queue.enqueue_write_buffer(src, np.full(N, 0.1, dtype=np.float32))
        assert src.data == [float(np.float32(0.1))] * N

    @pytest.mark.parametrize(
        "fusion", [False, pytest.param(True, marks=pytest.mark.fusion)]
    )
    def test_signed_zero_lands(self, fusion):
        context, queue = _gpu_queue()
        buf = Buffer(context, 2)
        with configure(fusion=fusion), tracing() as tr:
            queue.enqueue_write_buffer(buf, [0.0, 1.0])
            queue.enqueue_write_buffer(buf, [-0.0, 1.0])
            assert math.copysign(1.0, buf.data[0]) == -1.0
            queue.enqueue_write_buffer(buf, [0, 1])
            assert math.copysign(1.0, buf.data[0]) == 1.0
        assert tr.counter("dispatch.xfer_elim") == 0


    @pytest.mark.parametrize(
        "fusion", [False, pytest.param(True, marks=pytest.mark.fusion)]
    )
    def test_float32_scalars_land(self, fusion):
        """float32 0.1 equals 0.1 at float32 precision, but the write
        stores its exact value."""
        context, queue = _gpu_queue()
        buf = Buffer(context, 2)
        with configure(fusion=fusion), tracing() as tr:
            queue.enqueue_write_buffer(buf, [0.1, 0.2])
            queue.enqueue_write_buffer(
                buf, [np.float32(0.1), np.float32(0.2)]
            )
            assert buf.data == [0.10000000149011612, 0.20000000298023224]
        assert tr.counter("dispatch.xfer_elim") == 0

    def test_float_write_converts_without_probing(self):
        asked = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Buffer, "contents_equal",
                       lambda buf, values: asked.append(buf) or True)
            context, queue = _gpu_queue()
            buf = Buffer(context, 4)
            for value in (0.5, 0.5, 1.5):
                queue.enqueue_write_buffer(buf, [value] * 4)
        assert asked == []
        assert buf.data == [1.5] * 4

    @pytest.mark.fusion
    def test_elision_compares_float_bits(self):
        nan_a, nan_b = (
            struct.unpack("<d", struct.pack("<Q", bits))[0]
            for bits in (0x7FF8000000000001, 0x7FF8000000000002)
        )
        context, queue = _gpu_queue()
        buf = Buffer(context, 2)
        with configure(fusion=True), tracing() as tr:
            queue.enqueue_write_buffer(buf, [nan_a, 1.0])
            queue.enqueue_write_buffer(buf, [nan_a, 1.0])
            assert tr.counter("dispatch.xfer_elim") == 1
            queue.enqueue_write_buffer(buf, [nan_b, 1.0])
            assert tr.counter("dispatch.xfer_elim") == 1
        assert struct.pack("<d", buf.data[0]) == struct.pack("<d", nan_b)


class TestReleaseFlushesFusion:
    """Releasing memory runs a kernel deferred for fusion first, on the
    contents it was enqueued against."""

    def test_releasing_an_input_keeps_the_output(self):
        queue, kernel, src, out = _square_setup()
        with configure(fusion=True):
            queue.enqueue_write_buffer(src, [3.0] * N)
            queue.enqueue_nd_range_kernel(kernel, [N])
            src.release()
            host = [0.0] * N
            queue.enqueue_read_buffer(out, host)
            assert host == [9.0] * N

    def test_releasing_the_context_dispatches_the_kernel(self):
        queue, kernel, src, out = _square_setup()
        with configure(fusion=True):
            queue.enqueue_write_buffer(src, [3.0] * N)
            queue.enqueue_nd_range_kernel(kernel, [N])
            context = queue.context
            context.release()
            queue.finish()
            assert context.ledger.kernel_launches == 1


class TestAccessSetsComputedOnce:
    def test_create_kernel_does_not_walk_the_ir(self, monkeypatch):
        device = find_device("GPU")
        context = Context([device])
        queue = CommandQueue(context, device, out_of_order=True)
        program = Program(context, SQUARE).build()

        def walked(fn):
            raise AssertionError("create_kernel walked the kernel IR")

        for module in (kir, ir):
            monkeypatch.setattr(module, "read_arrays", walked)
            monkeypatch.setattr(module, "written_arrays", walked)

        first = program.create_kernel("square")
        second = program.create_kernel("square")
        assert first.read_params == frozenset({"a"})
        assert first.written_params == frozenset({"out"})
        assert second.read_params is first.read_params
        assert second.written_params is first.written_params

        src, out = Buffer(context, N), Buffer(context, N)
        second.set_arg(0, src)
        second.set_arg(1, out)
        entries = second.bound_entries(context)
        assert second.buffer_access(entries) == ([src.id], [out.id])
        write = queue.enqueue_write_buffer(src, [1.0] * N)
        launch = queue.enqueue_nd_range_kernel(second, [N])
        queue.finish()
        # The out-of-order queue orders the read behind the write.
        assert launch.sched_start_ns >= write.sched_end_ns
        assert out.data == [1.0] * N


def _split_setup(source, name, n):
    devices = [
        Device(gpu_spec(scale=0.1, name="split-gpu")),
        Device(cpu_spec(name="split-cpu")),
    ]
    context = Context(devices)
    kernel = Program(context, source).build().create_kernel(name)
    kernel.set_arg(0, Buffer(context, n))
    kernel.set_arg(1, Buffer(context, n))
    return context, kernel


def _assert_tier(tr, n):
    """8 items run on the scalar tier, N on the vectorised one."""
    if n < dispatch.VEC_MIN_ITEMS:
        assert tr.counter("dispatch.fallback.small-ndrange") == 1
    else:
        assert tr.counter("dispatch.fallback") == 0


class TestIndexOutOfRange:
    @pytest.mark.parametrize("n", [8, N])
    def test_single_device_raises_typed_error(self, n):
        device = find_device("GPU")
        context = Context([device])
        queue = CommandQueue(context, device)
        kernel = Program(context, SHIFT).build().create_kernel("shift")
        kernel.set_arg(0, Buffer(context, n))
        kernel.set_arg(1, Buffer(context, n))
        with tracing() as tr:
            with pytest.raises(KirRuntimeError, match="shift.*out of range"):
                queue.enqueue_nd_range_kernel(kernel, [n])
        _assert_tier(tr, n)

    @pytest.mark.parametrize("n", [8, N])
    def test_split_over_two_devices_raises_typed_error(self, n):
        context, kernel = _split_setup(SHIFT, "shift", n)
        weights = [dispatch.device_weight(d.spec) for d in context.devices]
        assert all(dispatch.split_share_counts(n // 4, weights))
        with tracing() as tr:
            with pytest.raises(KirRuntimeError, match="shift.*out of range"):
                context.enqueue_nd_range(kernel, [n], [4])
        _assert_tier(tr, n)
