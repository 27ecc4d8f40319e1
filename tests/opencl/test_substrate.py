"""OpenCL substrate: platforms, contexts, buffers, queues, programs."""

import pytest

from repro import opencl
from repro.errors import (
    CLBuildProgramFailure,
    CLInvalidContext,
    CLInvalidKernelArgs,
    CLInvalidValue,
    CLInvalidWorkGroupSize,
    CLMemObjectReleased,
)
from repro.opencl import (
    Buffer,
    CommandQueue,
    Context,
    Program,
    find_device,
    get_platforms,
    reset_platforms,
    scaled_platform,
    set_platforms,
)
from repro.opencl.costmodel import SimClock

SQUARE = """
__kernel void square(__global float *a, __global float *out, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = a[i] * a[i]; }
}
"""


@pytest.fixture(autouse=True)
def _default_platforms():
    reset_platforms()
    yield
    reset_platforms()


class TestDiscovery:
    def test_default_installation(self):
        platforms = get_platforms()
        assert len(platforms) == 1
        types = {d.device_type for d in platforms[0].devices}
        assert types == {"CPU", "GPU"}

    def test_find_device(self):
        assert find_device("GPU").device_type == "GPU"
        assert find_device("CPU").device_type == "CPU"

    def test_scaled_platform_installable(self):
        set_platforms([scaled_platform(0.5)])
        gpu = find_device("GPU")
        assert "x0.5" in gpu.name
        reset_platforms()
        assert "x0.5" not in find_device("GPU").name

    def test_empty_platform_list_rejected(self):
        with pytest.raises(CLInvalidValue):
            set_platforms([])


class TestContextAndBuffers:
    def test_context_needs_devices(self):
        with pytest.raises(CLInvalidValue):
            Context([])

    def test_buffer_allocation_and_dtype(self):
        ctx = Context([find_device("GPU")])
        buf = Buffer(ctx, 16, "int")
        assert buf.n_elements == 16
        assert buf.nbytes == 64
        assert buf.data == [0] * 16

    def test_copy_host_ptr(self):
        ctx = Context([find_device("GPU")])
        buf = Buffer(
            ctx, 3, "float", ["READ_ONLY", "COPY_HOST_PTR"],
            host_data=[1.0, 2.0, 3.0],
        )
        assert buf.data == [1.0, 2.0, 3.0]

    def test_bad_dtype_rejected(self):
        ctx = Context([find_device("GPU")])
        with pytest.raises(CLInvalidValue):
            Buffer(ctx, 4, "double")

    def test_use_after_release(self):
        ctx = Context([find_device("GPU")])
        buf = Buffer(ctx, 4)
        buf.release()
        with pytest.raises(CLMemObjectReleased):
            buf.check_alive()
        with pytest.raises(CLMemObjectReleased):
            buf.release()

    def test_context_release_frees_buffers(self):
        ctx = Context([find_device("GPU")])
        buf = Buffer(ctx, 4)
        ctx.release()
        assert buf.released


class TestQueues:
    def _ctx_queue(self):
        device = find_device("GPU")
        ctx = Context([device])
        return ctx, CommandQueue(ctx, device)

    def test_queue_requires_context_device(self):
        gpu = find_device("GPU")
        cpu = find_device("CPU")
        ctx = Context([gpu])
        with pytest.raises(CLInvalidContext):
            CommandQueue(ctx, cpu)

    def test_write_read_round_trip(self):
        ctx, queue = self._ctx_queue()
        buf = Buffer(ctx, 4)
        queue.enqueue_write_buffer(buf, [1.0, 2.0, 3.0, 4.0])
        out = [0.0] * 4
        queue.enqueue_read_buffer(buf, out)
        assert out == [1.0, 2.0, 3.0, 4.0]

    def test_size_mismatch_rejected(self):
        ctx, queue = self._ctx_queue()
        buf = Buffer(ctx, 4)
        with pytest.raises(CLInvalidValue):
            queue.enqueue_write_buffer(buf, [1.0])
        with pytest.raises(CLInvalidValue):
            queue.enqueue_read_buffer(buf, [0.0] * 3)

    def test_cross_context_buffer_rejected(self):
        device = find_device("GPU")
        ctx1 = Context([device])
        ctx2 = Context([device])
        queue = CommandQueue(ctx1, device)
        buf = Buffer(ctx2, 4)
        with pytest.raises(CLInvalidContext):
            queue.enqueue_write_buffer(buf, [0.0] * 4)

    def test_events_are_ordered_on_the_timeline(self):
        ctx, queue = self._ctx_queue()
        buf = Buffer(ctx, 1024)
        e1 = queue.enqueue_write_buffer(buf, [0.0] * 1024)
        out = [0.0] * 1024
        e2 = queue.enqueue_read_buffer(buf, out)
        assert e1.end_ns <= e2.queued_ns
        assert e1.duration_ns > 0
        assert e1.profiling_info("START") == e1.start_ns
        with pytest.raises(CLInvalidValue):
            e1.profiling_info("BOGUS")

    def test_copy_buffer(self):
        ctx, queue = self._ctx_queue()
        src = Buffer(ctx, 4)
        dst = Buffer(ctx, 4)
        queue.enqueue_write_buffer(src, [5.0, 6.0, 7.0, 8.0])
        queue.enqueue_copy_buffer(src, dst)
        assert dst.data == [5.0, 6.0, 7.0, 8.0]

    def test_ledger_accumulates_bytes(self):
        ctx, queue = self._ctx_queue()
        buf = Buffer(ctx, 8, "int")
        queue.enqueue_write_buffer(buf, list(range(8)))
        assert ctx.ledger.bytes_to_device == 32


#: Every enqueue entry point, called with (queue, kernel, src, dst).
ENQUEUES = {
    "write": lambda q, k, a, b: q.enqueue_write_buffer(a, [1.0] * 4),
    "read": lambda q, k, a, b: q.enqueue_read_buffer(a, [0.0] * 4),
    "copy": lambda q, k, a, b: q.enqueue_copy_buffer(a, b),
    "ndrange": lambda q, k, a, b: q.enqueue_nd_range_kernel(k, [4]),
    "priced-kernel": lambda q, k, a, b: q.enqueue_priced_kernel(
        "square", 100.0, reads=(a.id,), writes=(b.id,)
    ),
    "priced-transfer": lambda q, k, a, b: q.enqueue_priced_transfer(
        "h2d", a, a.nbytes
    ),
    "marker": lambda q, k, a, b: q.enqueue_marker(),
    "barrier": lambda q, k, a, b: q.enqueue_barrier(),
}


class TestReleasedQueue:
    @pytest.mark.parametrize("entry", sorted(ENQUEUES))
    def test_enqueue_is_refused_and_charges_nothing(self, entry):
        device = find_device("GPU")
        ctx = Context([device], clock=SimClock())
        queue = CommandQueue(ctx, device)
        kernel = Program(ctx, SQUARE).build().create_kernel("square")
        src, dst = Buffer(ctx, 4), Buffer(ctx, 4)
        queue.enqueue_write_buffer(src, [1.0, 2.0, 3.0, 4.0])
        kernel.set_arg(0, src)
        kernel.set_arg(1, dst)
        kernel.set_arg(2, 4)
        queue.release()
        ledger = ctx.ledger

        def priced():
            return (
                ledger.breakdown(), ledger.kernel_launches,
                ledger.bytes_to_device, ledger.bytes_from_device,
                ctx.clock.now_ns, device.busy_until_ns,
            )

        before = priced()
        with pytest.raises(CLInvalidValue, match=f"queue {queue.id} "):
            ENQUEUES[entry](queue, kernel, src, dst)
        assert priced() == before
        assert dst.data == [0.0] * 4


class TestProgramsAndKernels:
    def _env(self):
        device = find_device("GPU")
        ctx = Context([device])
        queue = CommandQueue(ctx, device)
        return device, ctx, queue

    def test_build_and_dispatch(self):
        device, ctx, queue = self._env()
        program = Program(ctx, SQUARE).build()
        kernel = program.create_kernel("square")
        a = Buffer(ctx, 8)
        out = Buffer(ctx, 8)
        queue.enqueue_write_buffer(a, [float(i) for i in range(8)])
        kernel.set_arg(0, a)
        kernel.set_arg(1, out)
        kernel.set_arg(2, 8)
        event = queue.enqueue_nd_range_kernel(kernel, [8], [4])
        host = [0.0] * 8
        queue.enqueue_read_buffer(out, host)
        assert host == [float(i * i) for i in range(8)]
        assert event.command == "NDRANGE_KERNEL"
        assert ctx.ledger.kernel_launches == 1

    def test_build_failure_carries_log(self):
        _, ctx, _ = self._env()
        program = Program(ctx, "__kernel void broken( {")
        with pytest.raises(CLBuildProgramFailure) as info:
            program.build()
        assert info.value.build_log

    def test_kernel_before_build_rejected(self):
        _, ctx, _ = self._env()
        program = Program(ctx, SQUARE)
        with pytest.raises(CLInvalidValue):
            program.create_kernel("square")

    def test_unknown_kernel_name(self):
        _, ctx, _ = self._env()
        program = Program(ctx, SQUARE).build()
        with pytest.raises(CLInvalidValue):
            program.create_kernel("nope")
        assert program.kernel_names() == ["square"]

    def test_unset_arg_rejected_at_dispatch(self):
        device, ctx, queue = self._env()
        kernel = Program(ctx, SQUARE).build().create_kernel("square")
        kernel.set_arg(0, Buffer(ctx, 4))
        with pytest.raises(CLInvalidKernelArgs):
            queue.enqueue_nd_range_kernel(kernel, [4], [4])

    def test_arg_type_validation(self):
        device, ctx, _ = self._env()
        kernel = Program(ctx, SQUARE).build().create_kernel("square")
        with pytest.raises(CLInvalidValue):
            kernel.set_arg(0, 42)  # array param wants a Buffer
        with pytest.raises(CLInvalidValue):
            kernel.set_arg(2, Buffer(ctx, 4))  # scalar param
        with pytest.raises(CLInvalidValue):
            kernel.set_arg(0, Buffer(ctx, 4, "int"))  # dtype mismatch
        with pytest.raises(CLInvalidValue):
            kernel.set_arg(9, 1)

    def test_work_group_size_validation(self):
        device, ctx, queue = self._env()
        kernel = Program(ctx, SQUARE).build().create_kernel("square")
        kernel.set_arg(0, Buffer(ctx, 8))
        kernel.set_arg(1, Buffer(ctx, 8))
        kernel.set_arg(2, 8)
        with pytest.raises(CLInvalidWorkGroupSize):
            queue.enqueue_nd_range_kernel(kernel, [8], [3])
        with pytest.raises(CLInvalidWorkGroupSize):
            queue.enqueue_nd_range_kernel(kernel, [8], [8, 1])
        with pytest.raises(CLInvalidValue):
            queue.enqueue_nd_range_kernel(kernel, [0])

    def test_default_local_size_chosen(self):
        device, ctx, queue = self._env()
        kernel = Program(ctx, SQUARE).build().create_kernel("square")
        kernel.set_arg(0, Buffer(ctx, 24))
        kernel.set_arg(1, Buffer(ctx, 24))
        kernel.set_arg(2, 24)
        queue.enqueue_nd_range_kernel(kernel, [24])  # no local size

    def test_choose_local_size_divides(self):
        device = find_device("GPU")
        for size in (7, 24, 64, 100, 1024):
            local = device.choose_local_size([size])
            assert size % local[0] == 0
            assert local[0] <= device.spec.max_work_group_size


class TestFlatApi:
    def test_full_ceremony(self):
        from repro.opencl.api import (
            CL_DEVICE_TYPE_GPU,
            CL_MEM_READ_ONLY,
            CL_MEM_WRITE_ONLY,
            clBuildProgram,
            clCreateBuffer,
            clCreateCommandQueue,
            clCreateContext,
            clCreateKernel,
            clCreateProgramWithSource,
            clEnqueueNDRangeKernel,
            clEnqueueReadBuffer,
            clEnqueueWriteBuffer,
            clFinish,
            clGetDeviceIDs,
            clGetPlatformIDs,
            clReleaseContext,
        )

        platform = clGetPlatformIDs()[0]
        device = clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU)[0]
        ctx = clCreateContext([device])
        queue = clCreateCommandQueue(ctx, device)
        program = clCreateProgramWithSource(ctx, SQUARE)
        clBuildProgram(program)
        kernel = clCreateKernel(program, "square")
        buf_a = clCreateBuffer(ctx, [CL_MEM_READ_ONLY], 4, "float")
        buf_o = clCreateBuffer(ctx, [CL_MEM_WRITE_ONLY], 4, "float")
        clEnqueueWriteBuffer(queue, buf_a, True, [1.0, 2.0, 3.0, 4.0])
        from repro.opencl.api import clSetKernelArg

        clSetKernelArg(kernel, 0, buf_a)
        clSetKernelArg(kernel, 1, buf_o)
        clSetKernelArg(kernel, 2, 4)
        clEnqueueNDRangeKernel(queue, kernel, 1, [4])
        out = [0.0] * 4
        clEnqueueReadBuffer(queue, buf_o, True, out)
        clFinish(queue)
        assert out == [1.0, 4.0, 9.0, 16.0]
        assert ctx.ledger.api_calls >= 9
        clReleaseContext(ctx)

    def test_work_dim_checked(self):
        from repro.opencl.api import (
            clCreateContext,
            clEnqueueNDRangeKernel,
            clCreateCommandQueue,
        )

        device = find_device("GPU")
        ctx = clCreateContext([device])
        queue = clCreateCommandQueue(ctx, device)
        with pytest.raises(CLInvalidValue):
            clEnqueueNDRangeKernel(queue, None, 2, [8])
