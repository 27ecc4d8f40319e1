"""Differential scheduling tests: random command DAGs vs a reference oracle.

Hypothesis generates random command programs — mixed transfers, priced
kernels with explicit read/write sets, device-side copies, barriers,
markers, ``finish`` calls and host API charges, spread over one to
three queues on one to three devices — and executes each program in
both queue modes.  An independent reference scheduler (a longest-path
computation over the augmented dependency DAG: explicit wait lists,
inferred whole-buffer hazards, per-engine serialization, fences, and
host release times) recomputes every placement from the recorded
durations alone; the real scheduler must agree exactly, on the
queue-local axis and on the composed end-to-end axis.

On top of the placement equality, the metamorphic scheduling contract:
the scheduled makespan never exceeds the serial drain (with equality
in-order), ``overlap_ns`` conserves exactly the difference, composed
elapsed time never grows when switching to out-of-order, and every
priced total — ledger segments, API-call and launch counts, byte
counters, profiling timestamps, buffer contents — is byte-identical in
both modes.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opencl import Buffer, CommandQueue, Context, find_device, reset_platforms
from repro.opencl.context import fresh_clock

pytestmark = pytest.mark.sched

#: Device of each generated queue (queues 0 and 2 share the GPU: two
#: contexts, two queues, one device — composed placement must still
#: hold up).
DEVICE_TYPES = ("GPU", "CPU", "GPU")

ENGINE_OF_OP = {
    "write": "dma_h2d",
    "read": "dma_d2h",
    "copy": "compute",
    "kernel": "compute",
}

#: Ops that schedule a priced command (record a placement).
COMMANDS = frozenset(ENGINE_OF_OP)
#: Ops that record a zero-duration sync event.
SYNCS = frozenset(("marker", "barrier"))


@st.composite
def programs(draw):
    """A random multi-queue command program.

    Wait lists are drawn as raw integers and resolved at execution
    time modulo the waiting queue's event count, so a draw is always
    valid whatever the queue's history; the oracle resolves them the
    same way.
    """
    n_queues = draw(st.integers(min_value=1, max_value=3))
    n_bufs = [draw(st.integers(min_value=1, max_value=3))
              for _ in range(n_queues)]
    n_ops = draw(st.integers(min_value=1, max_value=20))
    ops = []
    for _ in range(n_ops):
        q = draw(st.integers(min_value=0, max_value=n_queues - 1))
        kind = draw(st.sampled_from(
            ["write", "read", "copy", "kernel", "kernel",
             "barrier", "marker", "finish", "api"]
        ))
        waits = draw(st.one_of(
            st.none(),
            st.lists(st.integers(min_value=0, max_value=999),
                     min_size=1, max_size=2),
        ))
        if kind in ("write", "read"):
            buf = draw(st.integers(min_value=0, max_value=n_bufs[q] - 1))
            ops.append((kind, q, {"buf": buf, "waits": waits}))
        elif kind == "copy":
            if n_bufs[q] < 2:
                kind = "kernel"  # a copy needs two distinct buffers
            else:
                pair = draw(st.permutations(range(n_bufs[q])))
                ops.append((kind, q, {"src": pair[0], "dst": pair[1],
                                      "waits": waits}))
        if kind == "kernel":
            reads = draw(st.sets(
                st.integers(min_value=0, max_value=n_bufs[q] - 1)))
            writes = draw(st.sets(
                st.integers(min_value=0, max_value=n_bufs[q] - 1)))
            ns = float(draw(st.integers(min_value=1, max_value=2000)))
            ops.append((kind, q, {"reads": sorted(reads),
                                  "writes": sorted(writes),
                                  "ns": ns, "waits": waits}))
        elif kind in SYNCS:
            ops.append((kind, q, {"waits": waits}))
        elif kind in ("finish", "api"):
            ops.append((kind, q, {}))
    return n_queues, n_bufs, ops


def _resolve_waits(waits, events):
    """Map raw drawn integers onto the queue's event list (or None)."""
    if waits is None or not events:
        return None
    return [events[w % len(events)] for w in waits]


def _execute(program, out_of_order):
    """Run *program* on real queues; snapshot everything checkable."""
    n_queues, n_bufs, ops = program
    reset_platforms()  # fresh Device objects: no busy-state carry-over
    with fresh_clock() as clock:
        ctxs, queues, bufs = [], [], []
        for qi in range(n_queues):
            device = find_device(DEVICE_TYPES[qi])
            ctx = Context([device], clock=clock)
            queues.append(CommandQueue(ctx, device,
                                       out_of_order=out_of_order))
            ctxs.append(ctx)
            bufs.append([Buffer(ctx, 8) for _ in range(n_bufs[qi])])
        host0 = clock.timeline.host_pos_ns

        placements, durations, profiling, read_outs = [], [], [], []
        recorded = [[] for _ in queues]  # each queue's returned events
        for kind, q, spec in ops:
            queue = queues[q]
            dev_spec = queue.device.spec
            waits = _resolve_waits(spec.get("waits"), recorded[q])
            event = None
            ns = None
            if kind == "write":
                buf = bufs[q][spec["buf"]]
                # The oracle gets the command's priced duration as an
                # input, re-derived here from the cost model (pricing
                # is not under test; placement is).  Event.duration_ns
                # would be off by an ULP: it is (start + ns) - start at
                # a large timestamp.
                ns = dev_spec.transfer_ns(buf.nbytes, to_device=True)
                event = queue.enqueue_write_buffer(
                    buf, [float(i + q) for i in range(buf.n_elements)],
                    wait_for=waits,
                )
            elif kind == "read":
                buf = bufs[q][spec["buf"]]
                ns = dev_spec.transfer_ns(buf.nbytes, to_device=False)
                out = [0.0] * buf.n_elements
                event = queue.enqueue_read_buffer(buf, out, wait_for=waits)
                read_outs.append(list(out))
            elif kind == "copy":
                src = bufs[q][spec["src"]]
                ns = src.n_elements / (dev_spec.lanes * dev_spec.ops_per_ns)
                event = queue.enqueue_copy_buffer(
                    src, bufs[q][spec["dst"]], wait_for=waits,
                )
            elif kind == "kernel":
                ns = spec["ns"]
                event = queue.enqueue_priced_kernel(
                    "k", ns,
                    reads=[bufs[q][i].id for i in spec["reads"]],
                    writes=[bufs[q][i].id for i in spec["writes"]],
                    wait_for=waits,
                )
            elif kind == "marker":
                ns = 0.0
                event = queue.enqueue_marker(wait_for=waits)
            elif kind == "barrier":
                ns = 0.0
                event = queue.enqueue_barrier(wait_for=waits)
            elif kind == "finish":
                queue.finish()
            elif kind == "api":
                ctxs[q].charge_api_call()
            if event is not None:
                recorded[q].append(event)
                placements.append((event.sched_start_ns, event.sched_end_ns,
                                   event.e2e_start_ns, event.e2e_end_ns))
                durations.append(ns)
                profiling.append(tuple(
                    event.profiling_info(n)
                    for n in ("QUEUED", "SUBMIT", "START", "END")
                ))
            else:
                placements.append(None)
                durations.append(None)

        return {
            "placements": placements,
            "durations": durations,
            "profiling": profiling,
            "host0": host0,
            "elapsed": clock.timeline.elapsed_ns,
            "attribution": clock.timeline.attribution_exact(),
            "queues": [(qu.makespan_ns, qu.serial_makespan_ns,
                        qu.overlap_ns) for qu in queues],
            "api_ns": [ctx.devices[0].spec.api_call_ns for ctx in ctxs],
            "ledgers": [
                (ctx.ledger.breakdown(), ctx.ledger.api_calls,
                 ctx.ledger.kernel_launches, ctx.ledger.bytes_to_device,
                 ctx.ledger.bytes_from_device)
                for ctx in ctxs
            ],
            "buffers": [[list(b.data) for b in row] for row in bufs],
            "reads": read_outs,
        }


class _OracleQueue:
    """Reference per-queue scheduler state (local and composed axes)."""

    def __init__(self):
        self.events = []  # (local_end, e2e_end) per recorded event
        self.serial_end = 0.0
        self.sched_max_end = 0.0
        self.engine_free = {}
        self.fence = 0.0
        self.last_writer = {}   # buf key -> event index
        self.last_readers = {}  # buf key -> [event index]
        self.e2e_prev_end = 0.0
        self.e2e_engine_free = {}
        self.e2e_fence = 0.0
        self.e2e_max_end = 0.0


def _oracle(program, durations, api_ns, host0, out_of_order):
    """Longest-path reference schedule from the recorded durations.

    Processes ops in enqueue order; each command's start is the longest
    path to it through explicit waits, buffer hazards, fences, engine
    availability and (composed axis) the host release time.  Returns
    per-op placements plus the composed elapsed time.
    """
    n_queues, n_bufs, ops = program
    host = host0
    covered_max = host0
    qs = [_OracleQueue() for _ in range(n_queues)]
    placements = []
    for (kind, q, spec), ns in zip(ops, durations):
        oq = qs[q]
        if kind == "api":
            host += api_ns[q]
            covered_max = max(covered_max, host)
            placements.append(None)
            continue
        if kind == "finish":
            host = max(host, oq.e2e_max_end)
            if out_of_order:
                oq.fence = max(oq.fence, oq.sched_max_end)
                oq.e2e_fence = max(oq.e2e_fence, oq.e2e_max_end)
                oq.last_writer.clear()
                oq.last_readers.clear()
            placements.append(None)
            continue

        raw_waits = spec.get("waits")
        waits = (None if raw_waits is None or not oq.events
                 else [w % len(oq.events) for w in raw_waits])

        if kind in SYNCS:
            if waits:
                at = max(oq.events[i][0] for i in waits)
                e2e_at = max(oq.events[i][1] for i in waits)
            else:
                at = oq.sched_max_end
                e2e_at = oq.e2e_max_end
            at = max(at, oq.fence)
            e2e_at = max(e2e_at, oq.e2e_fence, host)
            if kind == "barrier" and out_of_order:
                oq.fence = max(oq.fence, at)
                oq.e2e_fence = max(oq.e2e_fence, e2e_at)
                # The real queue receives wait_for=None both for a
                # drawn None and for an unresolvable list (no events
                # yet), and only then also clears its hazard tables.
                if waits is None:
                    oq.fence = max(oq.fence, oq.sched_max_end)
                    oq.e2e_fence = max(oq.e2e_fence, oq.e2e_max_end)
                    oq.last_writer.clear()
                    oq.last_readers.clear()
            oq.events.append((at, e2e_at))
            placements.append((at, at, e2e_at, e2e_at))
            continue

        # A priced command.  Buffer access sets:
        if kind == "write":
            reads, writes = [], [spec["buf"]]
        elif kind == "read":
            reads, writes = [spec["buf"]], []
        elif kind == "copy":
            reads, writes = [spec["src"]], [spec["dst"]]
        else:
            reads, writes = spec["reads"], spec["writes"]

        serial_start = oq.serial_end
        oq.serial_end = serial_start + ns
        if not out_of_order:
            start, end = serial_start, serial_start + ns
            oq.sched_max_end = oq.serial_end
            e2e_start = max(host, oq.e2e_prev_end)
            e2e_end = e2e_start + ns
            oq.e2e_prev_end = e2e_end
        else:
            ready = oq.fence
            e2e_ready = max(host, oq.e2e_fence)
            for i in waits or ():
                ready = max(ready, oq.events[i][0])
                e2e_ready = max(e2e_ready, oq.events[i][1])
            for buf in reads:
                writer = oq.last_writer.get(buf)
                if writer is not None:
                    ready = max(ready, oq.events[writer][0])
                    e2e_ready = max(e2e_ready, oq.events[writer][1])
            for buf in writes:
                writer = oq.last_writer.get(buf)
                if writer is not None:
                    ready = max(ready, oq.events[writer][0])
                    e2e_ready = max(e2e_ready, oq.events[writer][1])
                for reader in oq.last_readers.get(buf, ()):
                    ready = max(ready, oq.events[reader][0])
                    e2e_ready = max(e2e_ready, oq.events[reader][1])
            engine = ENGINE_OF_OP[kind]
            start = max(ready, oq.engine_free.get(engine, 0.0))
            end = start + ns
            oq.engine_free[engine] = end
            oq.sched_max_end = max(oq.sched_max_end, end)
            e2e_start = max(e2e_ready, oq.e2e_engine_free.get(engine, 0.0))
            e2e_end = e2e_start + ns
            oq.e2e_engine_free[engine] = e2e_end
        oq.e2e_max_end = max(oq.e2e_max_end, e2e_end)
        covered_max = max(covered_max, e2e_end)
        index = len(oq.events)
        oq.events.append((end, e2e_end))
        if out_of_order:
            for buf in writes:
                oq.last_writer[buf] = index
                oq.last_readers[buf] = []
            for buf in reads:
                oq.last_readers.setdefault(buf, []).append(index)
        placements.append((start, end, e2e_start, e2e_end))
    return placements, max(covered_max, host)


@settings(deadline=None, max_examples=60)
@given(programs())
def test_scheduler_matches_longest_path_oracle(program):
    """Every placement, on both axes and in both modes, equals the
    independent oracle's longest-path computation — exactly, since both
    perform the same max/add float operations."""
    for out_of_order in (False, True):
        run = _execute(program, out_of_order)
        expected, expected_elapsed = _oracle(
            program, run["durations"], run["api_ns"], run["host0"],
            out_of_order,
        )
        assert run["placements"] == expected
        assert run["elapsed"] == expected_elapsed


@settings(deadline=None, max_examples=60)
@given(programs())
def test_metamorphic_scheduling_invariants(program):
    """Mode changes the schedule and nothing else, and only shrinks it."""
    base = _execute(program, False)
    ooo = _execute(program, True)

    # Makespan contract, per queue.
    for makespan, serial, overlap in base["queues"]:
        assert makespan == serial  # in-order IS the serial drain
        assert overlap == 0.0
    for (m_ooo, s_ooo, overlap), (m_in, s_in, _) in zip(
        ooo["queues"], base["queues"]
    ):
        assert s_ooo == s_in  # same command stream, same serial drain
        assert m_ooo <= s_ooo
        assert overlap == s_ooo - m_ooo  # conservation, no clamp needed

    # End to end, out-of-order never loses.
    assert ooo["elapsed"] <= base["elapsed"]

    # Priced totals are byte-identical across modes.
    for key in ("ledgers", "profiling", "buffers", "reads", "durations"):
        assert ooo[key] == base[key], key

    # Attribution covers each mode's elapsed interval exactly and the
    # composed placements leave no idle gap (every start is the max of
    # already-covered instants).
    for run in (base, ooo):
        attribution = run["attribution"]
        assert sum(attribution.values(), Fraction(0)) == Fraction(
            run["elapsed"]
        )
        assert attribution["idle"] == 0


def test_oracle_is_not_a_tautology():
    """The oracle must disagree with a deliberately wrong schedule —
    guards against the differential test degenerating into comparing
    the implementation with itself."""
    program = (
        1, [1],
        [
            ("kernel", 0, {"reads": [], "writes": [0], "ns": 100.0,
                           "waits": None}),
            ("read", 0, {"buf": 0, "waits": None}),
        ],
    )
    run = _execute(program, True)
    expected, _ = _oracle(
        program, run["durations"], run["api_ns"], run["host0"], True
    )
    assert run["placements"] == expected
    # Drop the RAW hazard from the oracle's second placement: the read
    # would start at 0 instead of after the kernel — and must no longer
    # match the real scheduler.
    wrong = list(expected)
    start, end, e2e_start, e2e_end = wrong[1]
    dur = end - start
    wrong[1] = (0.0, dur, e2e_start - start, e2e_start - start + dur)
    assert run["placements"] != wrong
