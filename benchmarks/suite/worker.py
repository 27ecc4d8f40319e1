"""One benchmark process: a fresh interpreter per measurement.

    worker.py timed  WORKLOAD SEED SECONDS [MAX_REQUESTS]
    worker.py cold   WORKLOAD
    worker.py traced WORKLOAD SEED COUNT [TRACE_OUT]

Each mode prints one JSON object as its last line of output.  ``run.py``
starts these with ``src/`` on ``PYTHONPATH`` and ``REPRO_KCACHE_DIR``
unset; run them through it.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # before anything of the program is imported

import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def _pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU.

    The actor and VM workloads hand work between threads hundreds of
    times per request.  On a virtual machine, waking a thread on another,
    idle virtual CPU costs the hypervisor's wake-up latency, which
    follows the host's load: unpinned, those workloads ran 60-90% slower
    on a 2-vCPU machine, and ``ensemble_lud``'s run-to-run spread grew
    from 6% to 14%.  The program holds the interpreter lock outside numpy
    calls, so one CPU costs it little parallelism.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _cold(workload: workloads.Workload) -> dict:
    """``import repro`` plus one request of the smallest size, from a cold
    compile cache (a fixed size keeps the seed out of the set-up time)."""
    import repro  # noqa: F401

    log = workloads.RequestLog(workload, workloads.load_expected()[workload.name])
    log.issue(min(workload.sizes))
    setup_s = time.perf_counter() - START
    workloads.check_config()
    return {**log.as_dict(), "setup_s": setup_s}


def _timed(workload: workloads.Workload, seed: int, seconds: float,
           max_requests: int | None) -> dict:
    import numpy

    workloads.import_program()
    workloads.check_config()
    out = workloads.timed_loop(workload, seed, seconds,
                               workloads.load_expected()[workload.name],
                               max_requests)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["numpy"] = numpy.__version__
    return out


def _traced(workload: workloads.Workload, seed: int, count: int,
            trace_out: str | None) -> dict:
    """Replay the first *count* requests, each once traced and once not.

    The two runs of a request are adjacent and alternate in order, so the
    tracing overhead is measured on the same machine state.  Request 0
    runs traced first, against a cold compile cache.
    """
    import layers
    from repro import kcache
    from repro.trace import Tracer, tracing

    expected = workloads.load_expected()[workload.name]
    workloads.import_program()
    workloads.check_config()
    recorder, tracer = layers.SpanRecorder(), Tracer()
    traced = workloads.RequestLog(workload, expected)
    untraced = workloads.RequestLog(workload, expected)
    hits = misses = 0
    sizes = itertools.islice(workloads.request_sizes(workload, seed), count)
    for index, size in enumerate(sizes):
        if index % 2:
            untraced.issue(size)
        recorder.request = index
        before = kcache.stats()
        with recorder, tracing(tracer):
            traced.issue(size)
        after = kcache.stats()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
        if not index % 2:
            untraced.issue(size)
    if trace_out:
        with open(trace_out, "w") as fh:
            json.dump(layers.chrome_trace(recorder.spans), fh)
    return {
        "traced": traced.as_dict(),
        "untraced": untraced.as_dict(),
        "functions": layers.function_totals(recorder.spans),
        "counters": tracer.counters(),
        "kcache": {"hits": hits, "misses": misses},
    }


def main(argv: list[str]) -> int:
    _pin_to_one_cpu()
    mode, workload = argv[0], workloads.WORKLOADS[argv[1]]
    if mode == "cold":
        out = _cold(workload)
    elif mode == "timed":
        max_requests = int(argv[4]) if len(argv) > 4 else None
        out = _timed(workload, int(argv[2]), float(argv[3]), max_requests)
    elif mode == "traced":
        out = _traced(workload, int(argv[2]), int(argv[3]),
                      argv[4] if len(argv) > 4 else None)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
