"""Matrix reduction — the five runnable variants."""

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
    collect_runtime_ledger,
    host_only,
    merge_ledgers,
    reset_runtime_ledgers,
    run_ensemble_program,
    run_host_c,
)
from .sources import (
    GROUP,
    KERNEL_SOURCE,
    OPENACC_SOURCE,
    SINGLE_C_SOURCE,
    ensemble_opencl_source,
    ensemble_single_source,
)

DEFAULT_N = 4096


def generate(n: int) -> list[float]:
    v = [float((i * 1103515245 + 12345) % 100000) + 1.0 for i in range(n)]
    v[3 * n // 4] = 0.5
    return v


def run_python(n: int = DEFAULT_N) -> RunOutcome:
    v = generate(n)
    m = v[0]
    for value in v[1:]:
        if value < m:
            m = value
    return RunOutcome(m, {})


def run_single_c(n: int = DEFAULT_N) -> RunOutcome:
    value, host_ns = run_host_c(SINGLE_C_SOURCE, "run", [n])
    return RunOutcome(value, host_only(host_ns))


def run_api(n: int = DEFAULT_N, device_type: str = "GPU") -> RunOutcome:
    platforms = clGetPlatformIDs()
    device = clGetDeviceIDs(platforms[0], device_type)[0]
    context = clCreateContext([device])
    queue = clCreateCommandQueue(context, device)
    program = clCreateProgramWithSource(context, KERNEL_SOURCE)
    clBuildProgram(program)
    kernel = clCreateKernel(program, "reduce_min")

    v = generate(n)
    groups = n // GROUP
    partial = [0.0] * groups
    buf_v = clCreateBuffer(context, [CL_MEM_READ_ONLY], n, "float")
    buf_p = clCreateBuffer(context, [CL_MEM_WRITE_ONLY], groups, "float")
    clEnqueueWriteBuffer(queue, buf_v, True, v)
    clSetKernelArg(kernel, 0, buf_v)
    clSetKernelArg(kernel, 1, buf_p)
    clSetKernelArg(kernel, 2, n)
    clEnqueueNDRangeKernel(queue, kernel, 1, [n], [GROUP])
    clEnqueueReadBuffer(queue, buf_p, True, partial)
    clFinish(queue)

    m = partial[0]
    for value in partial[1:]:
        if value < m:
            m = value

    clReleaseMemObject(buf_v)
    clReleaseMemObject(buf_p)
    clReleaseKernel(kernel)
    clReleaseProgram(program)
    clReleaseCommandQueue(queue)
    ledger = context.ledger
    clReleaseContext(context)
    return RunOutcome(m, merge_ledgers(ledger))


def run_actors(
    n: int = DEFAULT_N, device_type: str = "GPU", movable: bool = True
) -> RunOutcome:
    groups = n // GROUP
    data = {
        "data": ManagedArray(generate(n), (n,)),
        "partial": ManagedArray.zeros(groups),
        "n": n,
    }
    reset_runtime_ledgers()
    result = run_kernel(
        KERNEL_SOURCE,
        "reduce_min",
        data,
        worksize=[n],
        groupsize=[GROUP],
        device_type=device_type,
        movable=movable,
    )
    partial = result["partial"].host()
    m = min(partial)
    return RunOutcome(m, merge_ledgers(collect_runtime_ledger()))


def run_ensemble(n: int = DEFAULT_N, device_type: str = "GPU") -> RunOutcome:
    return run_ensemble_program(
        ensemble_opencl_source(n, device_type), "minimum="
    )


def run_ensemble_single(n: int = DEFAULT_N) -> RunOutcome:
    return run_ensemble_program(ensemble_single_source(n), "minimum=")


def run_openacc(n: int = DEFAULT_N, device_type: str = "GPU") -> RunOutcome:
    program = AccProgram(OPENACC_SOURCE, device_type)
    result = program.run("run", [n])
    return RunOutcome(result.value, merge_ledgers(result.ledger))
