"""Document ranking — the five runnable variants."""

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
    KERNEL_SOURCE,
    OPENACC_SOURCE,
    OPENMP_SOURCE,
    SINGLE_C_SOURCE,
    ensemble_opencl_source,
    ensemble_single_source,
)

DEFAULT_DOCS = 128
DEFAULT_TERMS = 48
DEFAULT_REPEATS = 8


def generate(ndocs: int, v: int) -> tuple[list[int], list[float]]:
    tf = [
        (d + t) % 7 + 1 if (d * 31 + t * 17) % 13 == 0 else 0
        for d in range(ndocs)
        for t in range(v)
    ]
    w = [float(t % 5 - 2) * 0.5 for t in range(v)]
    return tf, w


def _checksum(wanted: list[int]) -> int:
    return sum((d % 97 + 1) * int(x) for d, x in enumerate(wanted))


def run_python(
    ndocs: int = DEFAULT_DOCS,
    v: int = DEFAULT_TERMS,
    repeats: int = DEFAULT_REPEATS,
) -> RunOutcome:
    tf, w = generate(ndocs, v)
    wanted = [0] * ndocs
    for _ in range(repeats):
        for d in range(ndocs):
            score = 0.0
            for t in range(v):
                score += tf[d * v + t] * w[t]
            wanted[d] = 1 if score > 0.0 else 0
    return RunOutcome(_checksum(wanted), {}, meta={"wanted": wanted})


def run_single_c(
    ndocs: int = DEFAULT_DOCS,
    v: int = DEFAULT_TERMS,
    repeats: int = DEFAULT_REPEATS,
) -> RunOutcome:
    wanted = [0] * ndocs
    value, host_ns = run_host_c(
        SINGLE_C_SOURCE, "run", [wanted, ndocs, v, repeats]
    )
    return RunOutcome(value, host_only(host_ns))


def run_api(
    ndocs: int = DEFAULT_DOCS,
    v: int = DEFAULT_TERMS,
    repeats: int = DEFAULT_REPEATS,
    device_type: str = "GPU",
) -> RunOutcome:
    """The C host re-copies the corpus in and the flags out on every
    repeat — the paper's observation about the C version."""
    platforms = clGetPlatformIDs()
    device = clGetDeviceIDs(platforms[0], device_type)[0]
    context = clCreateContext([device])
    queue = clCreateCommandQueue(context, device)
    program = clCreateProgramWithSource(context, KERNEL_SOURCE)
    clBuildProgram(program)
    kernel = clCreateKernel(program, "rank")

    tf, w = generate(ndocs, v)
    wanted = [0] * ndocs
    buf_tf = clCreateBuffer(context, [CL_MEM_READ_ONLY], ndocs * v, "int")
    buf_w = clCreateBuffer(context, [CL_MEM_READ_ONLY], v, "float")
    buf_out = clCreateBuffer(context, [CL_MEM_WRITE_ONLY], ndocs, "int")
    for _ in range(repeats):
        clEnqueueWriteBuffer(queue, buf_tf, True, tf)
        clEnqueueWriteBuffer(queue, buf_w, True, w)
        clSetKernelArg(kernel, 0, buf_tf)
        clSetKernelArg(kernel, 1, buf_w)
        clSetKernelArg(kernel, 2, buf_out)
        clSetKernelArg(kernel, 3, v)
        clSetKernelArg(kernel, 4, 0.0)
        clEnqueueNDRangeKernel(queue, kernel, 1, [ndocs], None)
        clEnqueueReadBuffer(queue, buf_out, True, wanted)
    clFinish(queue)

    clReleaseMemObject(buf_tf)
    clReleaseMemObject(buf_w)
    clReleaseMemObject(buf_out)
    clReleaseKernel(kernel)
    clReleaseProgram(program)
    clReleaseCommandQueue(queue)
    ledger = context.ledger
    clReleaseContext(context)
    return RunOutcome(_checksum(wanted), merge_ledgers(ledger))


class _RankHost(Actor):
    """Streams the movable corpus through the kernel actor R times."""

    requests = OutPort()
    din = InPort()

    def __init__(self, ndocs: int, v: int, repeats: int, movable: bool):
        super().__init__()
        self.ndocs = ndocs
        self.v = v
        self.repeats = repeats
        self.movable = movable
        self.wanted: list[int] | None = None

    def behaviour(self) -> None:
        tf, w = generate(self.ndocs, self.v)
        data = {
            "tf": ManagedArray(tf, (self.ndocs * self.v,), "int"),
            "w": ManagedArray(w, (self.v,)),
            "wanted": ManagedArray.zeros(self.ndocs, "int"),
            "v": self.v,
            "threshold": 0.0,
        }
        dout = OutPort(name="rank.dout")
        request = KernelRequest([self.ndocs], None)
        connect(dout, request.input)
        connect(request.output, self.din)
        for _ in range(self.repeats):
            self.requests.send(request)
            dout.send(mov(data) if self.movable else data)
            received = self.din.receive()
            data = received.value if self.movable else received
        self.wanted = [int(x) for x in data["wanted"].host()]
        self.stop()


def run_actors(
    ndocs: int = DEFAULT_DOCS,
    v: int = DEFAULT_TERMS,
    repeats: int = DEFAULT_REPEATS,
    device_type: str = "GPU",
    movable: bool = True,
) -> RunOutcome:
    reset_runtime_ledgers()
    stage = Stage("docrank")
    rank = stage.spawn(KernelActor(KERNEL_SOURCE, "rank", device_type))
    host = stage.spawn(_RankHost(ndocs, v, repeats, movable))
    connect(host.requests, rank.requests)
    stage.run(600.0)
    assert host.wanted is not None
    return RunOutcome(
        _checksum(host.wanted), merge_ledgers(collect_runtime_ledger())
    )


def run_ensemble(
    ndocs: int = DEFAULT_DOCS,
    v: int = DEFAULT_TERMS,
    repeats: int = DEFAULT_REPEATS,
    device_type: str = "GPU",
) -> RunOutcome:
    return run_ensemble_program(
        ensemble_opencl_source(ndocs, v, repeats, device_type), "checksum=",
        int,
    )


def run_ensemble_single(
    ndocs: int = DEFAULT_DOCS,
    v: int = DEFAULT_TERMS,
    repeats: int = DEFAULT_REPEATS,
) -> RunOutcome:
    return run_ensemble_program(
        ensemble_single_source(ndocs, v, repeats), "checksum=", int
    )


def run_openacc(
    ndocs: int = DEFAULT_DOCS,
    v: int = DEFAULT_TERMS,
    repeats: int = DEFAULT_REPEATS,
    device_type: str = "GPU",
) -> RunOutcome:
    """GPU: raises AccUnsupportedError (the paper's PGI failure).
    CPU: the OpenMP source compiles and runs (the paper's gcc path)."""
    if device_type == "GPU":
        program = AccProgram(OPENACC_SOURCE, device_type)  # raises
        raise AssertionError("unreachable: acc compile must fail")
    program = AccProgram(OPENMP_SOURCE, device_type, openmp=True)
    wanted = [0] * ndocs
    result = program.run("run", [wanted, ndocs, v, repeats])
    return RunOutcome(result.value, merge_ledgers(result.ledger))
