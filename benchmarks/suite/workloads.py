"""The benchmark's workloads: seeded request sequences, one request
runner per workload, and the output checks.

Every workload is a closed loop with one client: the next request is
issued only after the previous one returned.  A request is one call
into the public API at one problem size, run on a fresh bench platform
under a fresh simulated clock, so its priced simulated total depends on
the size alone.

This module imports ``repro`` only inside functions, so the parent
process of the benchmark (``run.py``) can read the workload table
without loading the program it measures.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Relative tolerance on a request's priced simulated total against the
#: first request of the same size.  The priced totals are frozen; only
#: the order actor threads add them in may move the last bits.
SIM_RTOL = 1e-6

#: The timed loop runs past its time limit until it has this many
#: requests, so that at least ten samples lie beyond the p90.
MIN_REQUESTS = 100

#: What a request runner returns: the app's checksum and its priced
#: simulated total in ns.
Priced = tuple[float, float]


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a request runner over a set of sizes."""

    name: str
    sizes: tuple[int, ...]
    why: str
    call: Callable[[int], Priced]
    oracle: Callable[[int], float]


# -- request runners --------------------------------------------------------


def _lud_actors(n: int) -> Priced:
    from repro.apps import lud

    outcome = lud.run_actors(n)
    return outcome.result, outcome.total_ns


def _ensemble_lud(n: int) -> Priced:
    from repro.apps import lud

    outcome = lud.run_ensemble(n)
    return outcome.result, outcome.total_ns


def _mandelbrot_deep(max_iter: int) -> Priced:
    from repro.apps import mandelbrot

    outcome = mandelbrot.run_api(96, 96, max_iter)
    return outcome.result, outcome.total_ns


def _docrank_api(ndocs: int) -> Priced:
    from repro.apps import docrank

    outcome = docrank.run_api(ndocs, 64, 16)
    return outcome.result, outcome.total_ns


class SplitError(RuntimeError):
    """A multi-device dispatch ran on fewer than two devices."""


def _matmul_split(n: int) -> Priced:
    """Matmul on a GPU+CPU context through ``Context.enqueue_nd_range``,
    built from the public API the way the multi-device tests build it."""
    from repro.apps.common import checksum
    from repro.apps.matmul.runners import generate
    from repro.apps.matmul.sources import KERNEL_SOURCE
    from repro.opencl import COPY_HOST_PTR, READ_WRITE, Buffer, Context, Program
    from repro.opencl.costmodel import cpu_spec, gpu_spec
    from repro.opencl.platform import Device

    # The GPU is scaled down so the CPU's share does not round to zero.
    devices = [Device(gpu_spec(scale=0.1)), Device(cpu_spec())]
    context = Context(devices)
    program = Program(context, KERNEL_SOURCE).build(devices)
    a, b = generate(n)
    init = (READ_WRITE, COPY_HOST_PTR)
    buf_c = Buffer(context, n * n)
    kernel = program.create_kernel("matmul")
    kernel.set_arg(0, Buffer(context, n * n, flags=init, host_data=a))
    kernel.set_arg(1, Buffer(context, n * n, flags=init, host_data=b))
    kernel.set_arg(2, buf_c)
    kernel.set_arg(3, n)
    events = context.enqueue_nd_range(kernel, [n, n], [8, 8])
    if len(events) < 2:
        raise SplitError(f"n={n}: dispatch ran on {len(events)} device(s)")
    return checksum(buf_c.data), context.ledger.total_ns


# -- independent oracles (plain single-threaded Python) ---------------------


def _lud_oracle(n: int) -> float:
    from repro.apps import lud

    return lud.run_python(n).result


def _mandelbrot_oracle(max_iter: int) -> float:
    from repro.apps import mandelbrot

    return mandelbrot.run_python(96, 96, max_iter).result


def _docrank_oracle(ndocs: int) -> float:
    from repro.apps import docrank

    return docrank.run_python(ndocs, 64, 16).result


def _matmul_oracle(n: int) -> float:
    from repro.apps import matmul

    return matmul.run_python(n).result


# Three sizes per workload, drawn in balanced rounds (see request_sizes),
# keep the median on the middle size and the p90 on the largest, so both
# percentiles are stable from seed to seed.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "lud_actors", (48, 64, 80),
            "Figure-4 LUD pipeline: 3n small dispatches per request through "
            "four actor threads; host overhead and channel waits dominate",
            _lud_actors, _lud_oracle,
        ),
        Workload(
            "ensemble_lud", (24, 32, 40),
            "the paper's own path: Ensemble source compiled per request and "
            "run by the VM; the only workload where ensemble and vm work",
            _ensemble_lud, _lud_oracle,
        ),
        Workload(
            "mandelbrot_deep", (500, 1000, 2000),
            "one deep masked-loop dispatch per request, nearly all time in "
            "kernel execution; bypasses actors, vm and front ends",
            _mandelbrot_deep, _mandelbrot_oracle,
        ),
        Workload(
            "docrank_api", (512, 1024, 2048),
            "32 large host-to-device writes and 16 read-backs beside 16 "
            "vectorised dispatches; stresses the queue and buffer mirrors",
            _docrank_api, _docrank_oracle,
        ),
        Workload(
            "matmul_split", (64, 80, 96),
            "one NDRange split over a GPU and a CPU; the multi-device path "
            "runs the slow per-item engine",
            _matmul_split, _matmul_oracle,
        ),
    )
}


def request_sizes(workload: Workload, seed: int) -> Iterator[int]:
    """The endless seeded request sequence of *workload*.

    Sizes are drawn in shuffled rounds that each hold every size once,
    so any prefix holds each size equally often, give or take one.
    """
    rng = random.Random(seed)
    while True:
        round_ = list(workload.sizes)
        rng.shuffle(round_)
        yield from round_


def load_expected() -> dict[str, dict[int, float]]:
    """Expected checksums per workload and size, from the oracles."""
    with open(EXPECTED_PATH) as fh:
        raw = json.load(fh)
    return {
        name: {int(size): value for size, value in sizes.items()}
        for name, sizes in raw.items()
    }


def regen_expected() -> dict:
    """Recompute expected.json from the ``run_python`` oracles only."""
    out = {
        name: {str(size): w.oracle(size) for size in w.sizes}
        for name, w in WORKLOADS.items()
    }
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def import_program() -> None:
    """Import every module a request loads, so that no timed request
    pays for an import and the layer wrappers see every binding."""
    import repro.harness  # noqa: F401
    import repro.runtime.vm  # noqa: F401
    from repro.apps import docrank, lud, mandelbrot, matmul  # noqa: F401


def check_config() -> None:
    """Refuse to measure anything but the default runtime configuration:
    fusion off, no fault plan, no legacy execution, no disk cache."""
    from repro import kcache
    from repro.opencl import dispatch

    settings = dispatch.configure()
    problems = []
    if settings["fusion"]:
        problems.append("fusion is on")
    if settings["faults"] is not None:
        problems.append("a fault plan is installed")
    if dispatch.use_legacy():
        problems.append("legacy execution is forced")
    if kcache.disk_dir() is not None:
        problems.append("the kcache disk tier is on")
    if problems:
        raise RuntimeError("benchmark needs the default configuration: "
                           + ", ".join(problems))


def execute(workload: Workload, size: int) -> tuple[float, float, float, float]:
    """Run one request; returns ``(wall_s, checksum, priced_ns, elapsed_ns)``,
    the last two on the simulated clock.

    Only the app call is timed; installing the bench platform and the
    fresh clock is not part of the request.
    """
    from repro.harness import scaled_devices
    from repro.opencl.context import fresh_clock

    with fresh_clock() as clock, scaled_devices(0.08, 1.0):
        start = time.perf_counter()
        checksum, priced_ns = workload.call(size)
        wall = time.perf_counter() - start
    return wall, checksum, priced_ns, clock.timeline.elapsed_ns


class RequestLog:
    """Outcomes of the requests one process issued."""

    def __init__(self, workload: Workload, expected: dict[int, float]):
        self.workload = workload
        self.expected = expected
        self.first_priced: dict[int, float] = {}
        self.wall_ms: list[float] = []
        self.sim_us: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def issue(self, size: int, record: bool = True) -> Optional[float]:
        """Run and check one request; returns its wall seconds, or
        ``None`` when it failed.  A failure is counted, never raised."""
        self.attempted += 1
        try:
            wall, checksum, priced_ns, elapsed_ns = execute(self.workload, size)
        except Exception as exc:  # a failed request, counted below
            return self._fail(f"size {size}: {type(exc).__name__}: {exc}")
        want = self.expected.get(size)
        if checksum != want:
            return self._fail(f"size {size}: checksum {checksum!r} != {want!r}")
        first = self.first_priced.setdefault(size, priced_ns)
        if abs(priced_ns - first) > SIM_RTOL * max(abs(first), 1.0):
            return self._fail(f"size {size}: priced {priced_ns} ns != {first} ns")
        if record:
            self.wall_ms.append(wall * 1e3)
            self.sim_us.append(elapsed_ns / 1e3)
        return wall

    def _fail(self, reason: str) -> None:
        """Count one failed request; keep the first few reasons."""
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)
        return None

    def as_dict(self) -> dict:
        return {
            "wall_ms": self.wall_ms,
            "sim_us": self.sim_us,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
        }


def timed_loop(
    workload: Workload,
    seed: int,
    seconds: float,
    expected: dict[int, float],
    max_requests: Optional[int] = None,
) -> dict:
    """Warm up once per distinct size, then issue the seeded sequence
    until *seconds* have passed and :data:`MIN_REQUESTS` were issued, or
    until *max_requests* were issued."""
    log = RequestLog(workload, expected)
    for size in workload.sizes:
        log.issue(size, record=False)
    start = time.perf_counter()
    for issued, size in enumerate(request_sizes(workload, seed)):
        if max_requests is not None:
            if issued >= max_requests:
                break
        elif issued >= MIN_REQUESTS and time.perf_counter() - start >= seconds:
            break
        log.issue(size)
    return {**log.as_dict(), "loop_s": time.perf_counter() - start}

