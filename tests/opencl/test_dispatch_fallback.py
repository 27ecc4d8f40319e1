"""Every demotion from the vectorised tier is visible as a
``dispatch.fallback`` counter with a reason string, and the iteration
cap on masked loops falls back to the scalar tier without corrupting
buffers."""

from __future__ import annotations

import importlib

import pytest

from repro import kcache
from repro.kir import npcodegen
from repro.opencl import Buffer, CommandQueue, Context, Program, find_device
from repro.trace import tracing


ELIGIBLE = """
__kernel void add1(__global int *a) {
    int i = get_global_id(0);
    a[i] = a[i] + 1;
}
"""

DIVERGENT_BARRIER = """
__kernel void bad(__global int *out) {
    int i = get_global_id(0);
    if (i == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
    out[i] = i;
}
"""

IMPURE_CALL = """
int bump(__global int *a, int i) { a[i] = a[i] + 1; return a[i]; }
__kernel void k(__global int *a) {
    int i = get_global_id(0);
    bump(a, i);
}
"""

# Per-lane trip counts vary with the global id, so the loop is masked
# and subject to the iteration cap; stores accumulate inside the loop,
# so a mid-loop cap abort would leave partial sums behind unless the
# dispatcher restores the pre-dispatch buffer contents.
CAPPED_LOOP = """
__kernel void accum(__global int *out) {
    int i = get_global_id(0);
    for (int j = 0; j < i % 7 + 5; j++) {
        out[i] = out[i] + 1;
    }
}
"""


def _run(source, name, n=512, lsz=8, init=0):
    device = find_device("GPU")
    ctx = Context([device])
    queue = CommandQueue(ctx, device)
    program = Program(ctx, source).build()
    kernel = program.create_kernel(name)
    buf = Buffer(ctx, n, "int")
    queue.enqueue_write_buffer(buf, [init] * n)
    kernel.set_arg(0, buf)
    queue.enqueue_nd_range_kernel(kernel, [n], [lsz])
    queue.finish()
    return list(buf.data)


class TestFallbackCounters:
    def test_eligible_dispatch_counts_nothing(self):
        with tracing() as tr:
            out = _run(ELIGIBLE, "add1")
        assert out == [1] * 512
        assert tr.counter("dispatch.fallback") == 0

    def test_small_ndrange_reason(self):
        with tracing() as tr:
            out = _run(ELIGIBLE, "add1", n=32, lsz=8)
        assert out == [1] * 32
        assert tr.counter("dispatch.fallback") == 1
        assert tr.counter("dispatch.fallback.small-ndrange") == 1

    def test_divergent_barrier_reason(self):
        with tracing() as tr:
            out = _run(DIVERGENT_BARRIER, "bad", n=512, lsz=1)
        assert out == list(range(512))
        assert tr.counter("dispatch.fallback") == 1
        assert tr.counter("dispatch.fallback.barrier") == 1

    def test_user_call_reason(self):
        with tracing() as tr:
            out = _run(IMPURE_CALL, "k")
        assert out == [1] * 512
        assert tr.counter("dispatch.fallback") == 1
        assert tr.counter("dispatch.fallback.user-call") == 1


class TestIterationCap:
    def test_cap_falls_back_and_restores_buffers(self, monkeypatch):
        kcache.clear()  # force a rebuild under the tiny cap
        monkeypatch.setattr(npcodegen, "LOOP_ITER_CAP", 3)
        with tracing() as tr:
            out = _run(CAPPED_LOOP, "accum")
        # Scalar rerun from the restored (all-zero) buffer: exact sums.
        assert out == [i % 7 + 5 for i in range(512)]
        assert tr.counter("dispatch.fallback") == 1
        assert tr.counter("dispatch.fallback.iter-cap") == 1

    def test_cap_not_hit_stays_vectorised(self):
        kcache.clear()  # drop any module built under a monkeypatched cap
        assert npcodegen.LOOP_ITER_CAP >= 1 << 16
        with tracing() as tr:
            out = _run(CAPPED_LOOP, "accum")
        assert out == [i % 7 + 5 for i in range(512)]
        assert tr.counter("dispatch.fallback") == 0

    def test_cap_under_compaction_restores_and_falls_back(self, monkeypatch):
        """A runaway loop that compacts mid-flight must still restore
        buffers exactly on the cap abort and rerun on the warp-fold.

        Trip counts diverge per lane (`i % 7 + 5` rounds), so with
        compaction forced on the loop gathers to its active subset after
        the fastest lanes exit — and *then* hits the monkeypatched cap.
        The scatter/restore path must unwind both the compaction frame
        and the partial stores.
        """
        kcache.clear()  # force a rebuild under the tiny cap
        monkeypatch.setattr(npcodegen, "LOOP_ITER_CAP", 7)
        monkeypatch.setattr(npcodegen, "COMPACT_DENSITY", 1.0)
        monkeypatch.setattr(npcodegen, "COMPACT_CHECK_EVERY", 1)
        with tracing() as tr:
            out = _run(CAPPED_LOOP, "accum", init=3)
        # Scalar rerun from the restored (all-threes) buffer: exact sums.
        assert out == [3 + i % 7 + 5 for i in range(512)]
        assert tr.counter("dispatch.fallback") == 1
        assert tr.counter("dispatch.fallback.iter-cap") == 1
        # The compaction events before the abort are still reported.
        assert tr.counter("dispatch.compact") >= 1


class TestAppsKeepTheVectorisedTier:
    """The shipped apps' large dispatches stay on the vectorised tier.

    Counter-based, so the guard holds on any machine: a regression that
    demotes these dispatches shows up as ``dispatch.fallback`` counts,
    not as a wall-clock ratio.
    """

    @pytest.mark.parametrize(
        "app,args,min_compact",
        [
            ("mandelbrot", (96, 96, 60), 0),
            ("mandelbrot", (96, 96, 2000), 1),  # deep loop compacts
            ("reduction", (4096, "GPU"), 0),
            ("matmul", (64, "GPU"), 0),
            ("docrank", (512, 64, 16), 0),
        ],
    )
    def test_no_fallback(self, app, args, min_compact):
        module = importlib.import_module(f"repro.apps.{app}")
        with tracing() as tr:
            module.run_api(*args)
        assert tr.counter("dispatch.fallback") == 0
        assert tr.counter("dispatch.compact") >= min_compact

    def test_lud_pipeline_demotes_only_small_ranges(self):
        from repro.apps import lud

        with tracing() as tr:
            lud.run_actors(64)
        assert tr.counter("dispatch.fallback") == 128
        assert tr.counter("dispatch.fallback.small-ndrange") == 128

    def test_lud_ensemble_demotes_only_small_ranges(self):
        """The Ensemble update kernel's guard loads a scalar carrier to
        the right of ``&&``; the guarded operand keeps it vectorised."""
        from repro.apps import lud

        with tracing() as tr:
            lud.run_ensemble(32)
        assert tr.counter("dispatch.fallback") == 64
        assert tr.counter("dispatch.fallback.small-ndrange") == 64
