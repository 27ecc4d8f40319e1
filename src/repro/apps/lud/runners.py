"""LU decomposition — the five runnable variants."""

from __future__ import annotations

from ...actors import (
    Actor,
    InPort,
    KernelActor,
    KernelRequest,
    ManagedArray,
    OutPort,
    Stage,
    connect,
    mov,
)
from ...opencl.api import (
    CL_MEM_READ_WRITE,
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
    clReleaseCommandQueue,
    clReleaseContext,
    clReleaseKernel,
    clReleaseMemObject,
    clReleaseProgram,
    clSetKernelArg,
)
from ...openacc.runtime import AccProgram
from ..common import (
    RunOutcome,
    checksum,
    collect_runtime_ledger,
    host_only,
    merge_ledgers,
    reset_runtime_ledgers,
    rounded,
    run_ensemble_program,
    run_host_c,
)
from .sources import (
    KERNEL_SOURCE,
    OPENACC_SOURCE,
    SINGLE_C_SOURCE,
    ensemble_opencl_source,
    ensemble_single_source,
)

DEFAULT_N = 48


def generate(n: int) -> list[float]:
    return [
        float(n) if i == j else ((i * 13 + j * 7) % 10) / 10.0
        for i in range(n)
        for j in range(n)
    ]


def run_python(n: int = DEFAULT_N) -> RunOutcome:
    m = generate(n)
    for k in range(n):
        for i in range(k + 1, n):
            m[i * n + k] = m[i * n + k] / m[k * n + k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i * n + j] = m[i * n + j] - m[i * n + k] * m[k * n + j]
    return RunOutcome(checksum(m), {}, meta={"m": m})


def run_single_c(n: int = DEFAULT_N) -> RunOutcome:
    m = [0.0] * (n * n)
    value, host_ns = run_host_c(SINGLE_C_SOURCE, "run", [m, n])
    return RunOutcome(round(value, 6), host_only(host_ns), meta={"m": m})


def run_api(n: int = DEFAULT_N, device_type: str = "GPU") -> RunOutcome:
    """Sequential host dispatch of the three kernels per step; the matrix
    buffer stays on the device for the whole factorisation."""
    platforms = clGetPlatformIDs()
    device = clGetDeviceIDs(platforms[0], device_type)[0]
    context = clCreateContext([device])
    queue = clCreateCommandQueue(context, device)
    program = clCreateProgramWithSource(context, KERNEL_SOURCE)
    clBuildProgram(program)
    k_pivot = clCreateKernel(program, "lud_pivot")
    k_scale = clCreateKernel(program, "lud_scale")
    k_update = clCreateKernel(program, "lud_update")

    m = generate(n)
    buf_m = clCreateBuffer(context, [CL_MEM_READ_WRITE], n * n, "float")
    buf_piv = clCreateBuffer(context, [CL_MEM_READ_WRITE], 1, "float")
    clEnqueueWriteBuffer(queue, buf_m, True, m)
    local = [8, 8] if n % 8 == 0 else None
    for k in range(n):
        clSetKernelArg(k_pivot, 0, buf_m)
        clSetKernelArg(k_pivot, 1, buf_piv)
        clSetKernelArg(k_pivot, 2, k)
        clSetKernelArg(k_pivot, 3, n)
        clEnqueueNDRangeKernel(queue, k_pivot, 1, [1], [1])
        clSetKernelArg(k_scale, 0, buf_m)
        clSetKernelArg(k_scale, 1, buf_piv)
        clSetKernelArg(k_scale, 2, k)
        clSetKernelArg(k_scale, 3, n)
        clEnqueueNDRangeKernel(queue, k_scale, 1, [n], None)
        clSetKernelArg(k_update, 0, buf_m)
        clSetKernelArg(k_update, 1, k)
        clSetKernelArg(k_update, 2, n)
        clEnqueueNDRangeKernel(queue, k_update, 2, [n, n], local)
    clEnqueueReadBuffer(queue, buf_m, True, m)
    clFinish(queue)

    clReleaseMemObject(buf_m)
    clReleaseMemObject(buf_piv)
    for kern in (k_pivot, k_scale, k_update):
        clReleaseKernel(kern)
    clReleaseProgram(program)
    clReleaseCommandQueue(queue)
    ledger = context.ledger
    clReleaseContext(context)
    return RunOutcome(checksum(m), merge_ledgers(ledger), meta={"m": m})


class _LudController(Actor):
    """The Figure-4 controller: plumbs the three kernel actors into a
    pipeline and streams the movable matrix through it n times."""

    reqs1 = OutPort()
    reqs2 = OutPort()
    reqs3 = OutPort()
    din = InPort()

    def __init__(self, n: int, movable: bool) -> None:
        super().__init__()
        self.n = n
        self.movable = movable
        self.m: ManagedArray | None = None

    def behaviour(self) -> None:
        n = self.n
        local = [8, 8] if n % 8 == 0 else None
        dout = OutPort(name="lud.dout")
        req1 = KernelRequest([1], None)
        req2 = KernelRequest([n], None)
        req3 = KernelRequest([n, n], local)
        connect(dout, req1.input)
        connect(req1.output, req2.input)
        connect(req2.output, req3.input)
        connect(req3.output, self.din)

        data = {
            "m": ManagedArray(generate(n), (n * n,)),
            "piv": ManagedArray.zeros(1),
            "k": 0,
            "n": n,
        }
        for k in range(n):
            data["k"] = k
            self.reqs1.send(req1)
            self.reqs2.send(req2)
            self.reqs3.send(req3)
            dout.send(mov(data) if self.movable else data)
            received = self.din.receive()
            data = received.value if self.movable else received
        self.m = data["m"]
        self.stop()


def run_actors(
    n: int = DEFAULT_N, device_type: str = "GPU", movable: bool = True
) -> RunOutcome:
    reset_runtime_ledgers()
    stage = Stage("lud")
    pivot = stage.spawn(KernelActor(KERNEL_SOURCE, "lud_pivot", device_type))
    scale = stage.spawn(KernelActor(KERNEL_SOURCE, "lud_scale", device_type))
    update = stage.spawn(KernelActor(KERNEL_SOURCE, "lud_update", device_type))
    control = stage.spawn(_LudController(n, movable))
    connect(control.reqs1, pivot.requests)
    connect(control.reqs2, scale.requests)
    connect(control.reqs3, update.requests)
    stage.run(600.0)
    assert control.m is not None
    m = control.m.host()
    return RunOutcome(
        checksum(m),
        merge_ledgers(collect_runtime_ledger()),
        meta={"m": m},
    )


def run_ensemble(
    n: int = DEFAULT_N, device_type: str = "GPU", movable: bool = True
) -> RunOutcome:
    return run_ensemble_program(
        ensemble_opencl_source(n, device_type, movable), "checksum=", rounded
    )


def run_ensemble_single(n: int = DEFAULT_N) -> RunOutcome:
    return run_ensemble_program(
        ensemble_single_source(n), "checksum=", rounded
    )


def run_openacc(n: int = DEFAULT_N, device_type: str = "GPU") -> RunOutcome:
    program = AccProgram(OPENACC_SOURCE, device_type)
    m = [0.0] * (n * n)
    result = program.run("run", [m, n])
    return RunOutcome(
        round(result.value, 6), merge_ledgers(result.ledger), meta={"m": m}
    )
