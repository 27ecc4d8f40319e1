"""Matrix multiplication — the five runnable variants."""

from __future__ import annotations

from ...actors import ManagedArray, run_kernel
from ...opencl.api import (
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

DEFAULT_N = 64


def generate(n: int) -> tuple[list[float], list[float]]:
    """The shared closed-form inputs (identical in every variant)."""
    a = [float((i * 7 + j * 3) % 11 - 5) for i in range(n) for j in range(n)]
    b = [float((i * 5 + j) % 7 - 3) for i in range(n) for j in range(n)]
    return a, b


def run_python(n: int = DEFAULT_N) -> RunOutcome:
    """Single-threaded Python (the API approach's sequential version)."""
    a, b = generate(n)
    c = [0.0] * (n * n)
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc += a[i * n + k] * b[k * n + j]
            c[i * n + j] = acc
    return RunOutcome(checksum(c), {}, meta={"c": c})


def run_single_c(n: int = DEFAULT_N) -> RunOutcome:
    """Single-threaded kernel-C at sequential host speed."""
    c = [0.0] * (n * n)
    value, host_ns = run_host_c(SINGLE_C_SOURCE, "run", [c, n])
    return RunOutcome(round(value, 6), host_only(host_ns), meta={"c": c})


def run_api(n: int = DEFAULT_N, device_type: str = "GPU") -> RunOutcome:
    """C-OpenCL: the verbose API path, boilerplate and all."""
    platforms = clGetPlatformIDs()
    devices = clGetDeviceIDs(platforms[0], device_type)
    device = devices[0]
    context = clCreateContext([device])
    queue = clCreateCommandQueue(context, device)
    program = clCreateProgramWithSource(context, KERNEL_SOURCE)
    clBuildProgram(program)
    kernel = clCreateKernel(program, "matmul")

    a, b = generate(n)
    c = [0.0] * (n * n)
    buf_a = clCreateBuffer(context, [CL_MEM_READ_ONLY], n * n, "float")
    buf_b = clCreateBuffer(context, [CL_MEM_READ_ONLY], n * n, "float")
    buf_c = clCreateBuffer(context, [CL_MEM_WRITE_ONLY], n * n, "float")
    clEnqueueWriteBuffer(queue, buf_a, True, a)
    clEnqueueWriteBuffer(queue, buf_b, True, b)
    clSetKernelArg(kernel, 0, buf_a)
    clSetKernelArg(kernel, 1, buf_b)
    clSetKernelArg(kernel, 2, buf_c)
    clSetKernelArg(kernel, 3, n)
    local = [8, 8] if n % 8 == 0 else None
    clEnqueueNDRangeKernel(queue, kernel, 2, [n, n], local)
    clEnqueueReadBuffer(queue, buf_c, True, c)
    clFinish(queue)

    clReleaseMemObject(buf_a)
    clReleaseMemObject(buf_b)
    clReleaseMemObject(buf_c)
    clReleaseKernel(kernel)
    clReleaseProgram(program)
    clReleaseCommandQueue(queue)
    ledger = context.ledger
    clReleaseContext(context)
    return RunOutcome(checksum(c), merge_ledgers(ledger), meta={"c": c})


def run_actors(
    n: int = DEFAULT_N, device_type: str = "GPU", movable: bool = True
) -> RunOutcome:
    """Ensemble-OpenCL through the Pythonic actor API."""
    a, b = generate(n)
    data = {
        "a": ManagedArray(a, (n * n,)),
        "b": ManagedArray(b, (n * n,)),
        "c": ManagedArray.zeros(n * n),
        "n": n,
    }
    reset_runtime_ledgers()
    result = run_kernel(
        KERNEL_SOURCE,
        "matmul",
        data,
        worksize=[n, n],
        groupsize=[8, 8] if n % 8 == 0 else None,
        device_type=device_type,
        movable=movable,
    )
    c = result["c"].host()
    return RunOutcome(
        checksum(c),
        merge_ledgers(collect_runtime_ledger()),
        meta={"c": c},
    )


def run_ensemble(n: int = DEFAULT_N, device_type: str = "GPU") -> RunOutcome:
    """Ensemble-OpenCL from language source through compiler and VM."""
    return run_ensemble_program(
        ensemble_opencl_source(n, device_type), "checksum=", rounded
    )


def run_ensemble_single(n: int = DEFAULT_N) -> RunOutcome:
    """Single-threaded Ensemble (Table 1's baseline for the approach)."""
    return run_ensemble_program(
        ensemble_single_source(n), "checksum=", rounded
    )


def run_openacc(n: int = DEFAULT_N, device_type: str = "GPU") -> RunOutcome:
    """C-OpenACC: the annotated source through the pragma compiler."""
    program = AccProgram(OPENACC_SOURCE, device_type)
    c = [0.0] * (n * n)
    result = program.run("run", [c, n])
    return RunOutcome(
        round(result.value, 6),
        merge_ledgers(result.ledger),
        meta={"c": c, "report": result.report},
    )
