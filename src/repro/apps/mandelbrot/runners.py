"""Mandelbrot — the five runnable variants."""

from __future__ import annotations

import numpy as _np

from ...actors import ManagedArray, run_kernel
from ...opencl.api import (
    CL_MEM_WRITE_ONLY,
    clBuildProgram,
    clCreateBuffer,
    clCreateCommandQueue,
    clCreateContext,
    clCreateKernel,
    clCreateProgramWithSource,
    clEnqueueNDRangeKernel,
    clEnqueueReadBuffer,
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
    KERNEL_SOURCE,
    OPENACC_SOURCE,
    SINGLE_C_SOURCE,
    ensemble_opencl_source,
    ensemble_single_source,
)

DEFAULT_W = 48
DEFAULT_H = 48
DEFAULT_ITER = 100


def _checksum_int(counts: list[int]) -> int:
    if len(counts) >= 4096:
        values = _np.asarray(counts, dtype=_np.int64)
        weights = _np.arange(len(counts), dtype=_np.int64) % 97 + 1
        return int(values.dot(weights))
    return sum((i % 97 + 1) * int(v) for i, v in enumerate(counts))


def run_python(
    w: int = DEFAULT_W, h: int = DEFAULT_H, max_iter: int = DEFAULT_ITER
) -> RunOutcome:
    counts = [0] * (w * h)
    for py in range(h):
        for px in range(w):
            x0 = -2.0 + 3.0 * px / w
            y0 = -1.5 + 3.0 * py / h
            x = 0.0
            y = 0.0
            iters = 0
            while x * x + y * y <= 4.0 and iters < max_iter:
                x, y = x * x - y * y + x0, 2.0 * x * y + y0
                iters += 1
            counts[py * w + px] = iters
    return RunOutcome(_checksum_int(counts), {}, meta={"counts": counts})


def run_single_c(
    w: int = DEFAULT_W, h: int = DEFAULT_H, max_iter: int = DEFAULT_ITER
) -> RunOutcome:
    counts = [0] * (w * h)
    value, host_ns = run_host_c(SINGLE_C_SOURCE, "run", [counts, w, h, max_iter])
    return RunOutcome(value, host_only(host_ns), meta={"counts": counts})


def run_api(
    w: int = DEFAULT_W,
    h: int = DEFAULT_H,
    max_iter: int = DEFAULT_ITER,
    device_type: str = "GPU",
) -> RunOutcome:
    platforms = clGetPlatformIDs()
    device = clGetDeviceIDs(platforms[0], device_type)[0]
    context = clCreateContext([device])
    queue = clCreateCommandQueue(context, device)
    program = clCreateProgramWithSource(context, KERNEL_SOURCE)
    clBuildProgram(program)
    kernel = clCreateKernel(program, "mandelbrot")

    counts = [0] * (w * h)
    buf = clCreateBuffer(context, [CL_MEM_WRITE_ONLY], w * h, "int")
    clSetKernelArg(kernel, 0, buf)
    clSetKernelArg(kernel, 1, w)
    clSetKernelArg(kernel, 2, h)
    clSetKernelArg(kernel, 3, max_iter)
    local = [8, 8] if w % 8 == 0 and h % 8 == 0 else None
    clEnqueueNDRangeKernel(queue, kernel, 2, [w, h], local)
    clEnqueueReadBuffer(queue, buf, True, counts)
    clFinish(queue)

    clReleaseMemObject(buf)
    clReleaseKernel(kernel)
    clReleaseProgram(program)
    clReleaseCommandQueue(queue)
    ledger = context.ledger
    clReleaseContext(context)
    return RunOutcome(
        _checksum_int(counts), merge_ledgers(ledger), meta={"counts": counts}
    )


def run_actors(
    w: int = DEFAULT_W,
    h: int = DEFAULT_H,
    max_iter: int = DEFAULT_ITER,
    device_type: str = "GPU",
    movable: bool = True,
) -> RunOutcome:
    data = {
        "out": ManagedArray.zeros(w * h, "int"),
        "w": w,
        "h": h,
        "max_iter": max_iter,
    }
    reset_runtime_ledgers()
    result = run_kernel(
        KERNEL_SOURCE,
        "mandelbrot",
        data,
        worksize=[w, h],
        groupsize=[8, 8] if w % 8 == 0 and h % 8 == 0 else None,
        device_type=device_type,
        movable=movable,
    )
    counts = result["out"].host()
    return RunOutcome(
        _checksum_int(counts),
        merge_ledgers(collect_runtime_ledger()),
        meta={"counts": counts},
    )


def run_ensemble(
    w: int = DEFAULT_W,
    h: int = DEFAULT_H,
    max_iter: int = DEFAULT_ITER,
    device_type: str = "GPU",
) -> RunOutcome:
    return run_ensemble_program(
        ensemble_opencl_source(w, h, max_iter, device_type), "checksum=", int
    )


def run_ensemble_single(
    w: int = DEFAULT_W, h: int = DEFAULT_H, max_iter: int = DEFAULT_ITER
) -> RunOutcome:
    return run_ensemble_program(
        ensemble_single_source(w, h, max_iter), "checksum=", int
    )


def run_openacc(
    w: int = DEFAULT_W,
    h: int = DEFAULT_H,
    max_iter: int = DEFAULT_ITER,
    device_type: str = "GPU",
) -> RunOutcome:
    program = AccProgram(OPENACC_SOURCE, device_type)
    counts = [0] * (w * h)
    result = program.run("run", [counts, w, h, max_iter])
    return RunOutcome(
        result.value, merge_ledgers(result.ledger), meta={"counts": counts}
    )
