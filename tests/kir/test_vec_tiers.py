"""Tier-agreement suite for the extended vectorised execution tiers.

PR 4 lifted three restrictions from :mod:`repro.kir.npcodegen`:
divergent loops (``while`` / ``break`` / ``continue`` / early
``return``) run under iterative masked evaluation, pure user-function
calls are inlined at codegen time, and barrier kernels run as
cooperative whole-group phases with local memory as numpy buffers.

Every test here asserts the contract those tiers must keep: numpy tier
== scalar warp-fold == interpreter on buffer contents, per-group warp
maxima, and priced ledger totals — so the simulated figures never
depend on which tier executed a dispatch.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import kernelc, kir
from repro.apps.reduction import sources as reduction_sources
from repro.kir import npcodegen
from repro.opencl import Buffer, CommandQueue, Context, Program, find_device
from repro.opencl.costmodel import group_warp_costs
from repro.trace import tracing


SIMD = 8


def _np():
    import numpy as np

    return np


def _np_dtype(kind):
    np = _np()
    return {"int": np.int64, "float": np.float64, "bool": np.bool_}[kind]


def run_tiers(source, kernel, scalars, arrays, gsz, lsz, simd=SIMD,
              expect_vec=True):
    """Run *kernel* through every tier and assert exact agreement.

    Reference is ``run_range`` (the lock-step generators for
    group-mode kernels, the warp-fold at SIMD width 1 otherwise) folded
    by ``group_warp_costs``.  Returns the reference warp maxima.
    """
    np = _np()
    compiled = kernelc.build(source)
    runner = compiled.kernel_runner(kernel)
    fn = compiled.module.kernel(kernel)

    def make_args(as_numpy):
        out, arrays_iter, scalars_iter = [], iter(arrays), iter(scalars)
        for p in fn.params:
            if p.type.is_array:
                data = next(arrays_iter)
                if as_numpy:
                    out.append(
                        np.array(data, dtype=_np_dtype(p.type.element.kind))
                    )
                else:
                    out.append(list(data))
            else:
                out.append(next(scalars_iter))
        return out

    ref_args = make_args(False)
    item_ops = runner.run_range(ref_args, gsz, lsz)
    ref_warps = group_warp_costs(item_ops, gsz, lsz, simd)

    if not runner.group_mode:
        fold_args = make_args(False)
        fold_warps = runner.run_group_warps(fold_args, gsz, lsz, simd)
        assert fold_warps == ref_warps
        assert fold_args == ref_args

    if expect_vec:
        assert runner.vec is not None, runner.vec_reason
        vec_args = make_args(True)
        vec_warps = runner.vec.run_group_warps(vec_args, gsz, lsz, simd)
        assert vec_warps == ref_warps
        for got, want in zip(vec_args, ref_args):
            if isinstance(want, list):
                assert got.tolist() == want
    else:
        assert runner.vec is None
    return ref_warps


def interp_buffers(source, kernel, scalars, arrays, gsz, lsz):
    """Reference buffer contents from :class:`repro.kir.Interpreter`."""
    compiled = kernelc.build(source)
    fn = compiled.module.kernel(kernel)
    interp = kir.Interpreter(compiled.module)
    out, arrays_iter, scalars_iter = [], iter(arrays), iter(scalars)
    for p in fn.params:
        if p.type.is_array:
            out.append(list(next(arrays_iter)))
        else:
            out.append(next(scalars_iter))
    gsz = list(gsz) + [1] * (3 - len(gsz))
    lsz = list(lsz) + [1] * (3 - len(lsz))
    nit = gsz[0] * gsz[1] * gsz[2]
    for linear in range(nit):
        gid = (linear % gsz[0],
               (linear // gsz[0]) % gsz[1],
               linear // (gsz[0] * gsz[1]))
        lid = tuple(g % l for g, l in zip(gid, lsz))
        grp = tuple(g // l for g, l in zip(gid, lsz))
        wi = kir.WorkItem(gid, lid, grp, tuple(gsz), tuple(lsz))
        for _ in interp.run_workitem(fn, out, wi):
            pass
    return [a for a in out if isinstance(a, list)]


ESCAPE_LOOP = """
__kernel void escape(__global int *out, int cap) {
    int i = get_global_id(0);
    float x = 0.0;
    float c = (float)(i % 13) / 6.0 - 1.0;
    int n = 0;
    while (x * x <= 4.0 && n < cap) {
        x = x * x + c;
        n = n + 1;
    }
    out[i] = n;
}
"""

BREAK_CONTINUE = """
__kernel void bc(__global int *out, int n) {
    int i = get_global_id(0);
    int s = 0;
    for (int j = 0; j < n; j++) {
        if ((i + j) % 3 == 0) { continue; }
        if (j > i % 7 + 4) { break; }
        s += i + j;
    }
    out[i] = s;
}
"""

NESTED_MASKS = """
__kernel void nested(__global int *out, int n) {
    int i = get_global_id(0);
    int acc = 0;
    for (int a = 0; a < i % 5 + 1; a++) {
        int b = 0;
        while (b < n) {
            if ((a + b + i) % 4 == 0) {
                b = b + 2;
                continue;
            }
            acc += a * b + 1;
            if (acc > 100 + i) { break; }
            b = b + 1;
        }
    }
    out[i] = acc;
}
"""

EARLY_RETURN = """
__kernel void early(__global int *out, int n) {
    int i = get_global_id(0);
    out[i] = -1;
    if (i % 4 == 0) { return; }
    int s = 0;
    for (int j = 0; j < n; j++) {
        s += j;
        if (s > i * 3) { out[i] = s; return; }
    }
    out[i] = s;
}
"""

INLINED_HELPERS = """
int weight(int term, int count) {
    if (count == 0) { return 0; }
    return term * count + 1;
}
int fold(int a, int b) { return a + weight(b, a % 3); }
__kernel void rank(__global int *tf, __global int *out, int vocab) {
    int d = get_global_id(0);
    int score = 0;
    for (int t = 0; t < vocab; t++) {
        score = fold(score, tf[d * vocab + t]);
    }
    out[d] = score;
}
"""

HELPER_IN_LOOP_COND = """
int step_of(int x) { return x % 3 + 1; }
__kernel void strider(__global int *out, int n) {
    int i = get_global_id(0);
    int j = 0;
    int s = 0;
    while (j < n) {
        s += j;
        j += step_of(i + j);
    }
    out[i] = s;
}
"""


class TestDivergentLoops:
    """Masked iterative evaluation agrees with the scalar tiers."""

    @pytest.mark.parametrize("n,lsz", [(64, [8]), (96, [4])])
    def test_escape_loop(self, n, lsz):
        out = [0] * n
        run_tiers(ESCAPE_LOOP, "escape", [60], [out], [n], lsz)

    def test_escape_loop_matches_interpreter(self):
        np = _np()
        n = 48
        compiled = kernelc.build(ESCAPE_LOOP)
        runner = compiled.kernel_runner("escape")
        vec_out = np.zeros(n, np.int64)
        runner.vec.run_group_warps([vec_out, 60], [n], [8], SIMD)
        (want,) = interp_buffers(ESCAPE_LOOP, "escape", [60],
                                 [[0] * n], [n], [8])
        assert vec_out.tolist() == want

    def test_break_and_continue(self):
        n = 64
        run_tiers(BREAK_CONTINUE, "bc", [24], [[0] * n], [n], [8])

    def test_nested_loops_nested_masks(self):
        n = 64
        run_tiers(NESTED_MASKS, "nested", [9], [[0] * n], [n], [8])

    def test_early_return(self):
        n = 64
        run_tiers(EARLY_RETURN, "early", [20], [[0] * n], [n], [8])

    def test_early_return_matches_interpreter(self):
        np = _np()
        n = 32
        compiled = kernelc.build(EARLY_RETURN)
        runner = compiled.kernel_runner("early")
        vec_out = np.zeros(n, np.int64)
        runner.vec.run_group_warps([vec_out, 20], [n], [4], SIMD)
        (want,) = interp_buffers(EARLY_RETURN, "early", [20],
                                 [[0] * n], [n], [4])
        assert vec_out.tolist() == want


class TestInlining:
    """Pure user-function calls inline instead of demoting the kernel."""

    def test_helper_chain_vectorised(self):
        docs, vocab = 48, 7
        tf = [(d * 31 + t * 7) % 5 for d in range(docs) for t in range(vocab)]
        run_tiers(INLINED_HELPERS, "rank", [vocab],
                  [tf, [0] * docs], [docs], [8])

    def test_helper_in_loop_condition(self):
        n = 64
        run_tiers(HELPER_IN_LOOP_COND, "strider", [30], [[0] * n], [n], [8])

    def test_impure_helper_demotes_with_reason(self):
        source = """
        int bump(__global int *a, int i) { a[i] = a[i] + 1; return a[i]; }
        __kernel void k(__global int *a) {
            int i = get_global_id(0);
            bump(a, i);
        }
        """
        runner = kernelc.build(source).kernel_runner("k")
        assert runner.vec is None
        assert runner.vec_reason == "user-call"


BARRIER_SCAN = """
__kernel void scan(__global int *data, __global int *sums) {
    int gid = get_global_id(0);
    int lid = get_local_id(0);
    __local int tile[16];
    tile[lid] = data[gid];
    barrier(CLK_LOCAL_MEM_FENCE);
    int acc = 0;
    for (int j = 0; j <= lid; j++) { acc += tile[j]; }
    barrier(CLK_LOCAL_MEM_FENCE);
    data[gid] = acc;
    if (lid == 0) { sums[get_group_id(0)] = acc; }
}
"""


class TestBarrierPhases:
    """Cooperative whole-group execution of barrier kernels."""

    def test_reduction_app_kernel(self):
        np = _np()
        n, group = 256, 64
        values = [(i * 37) % 91 + 1 for i in range(n)]
        partial = [0] * (n // group)
        run_tiers(
            reduction_sources.KERNEL_SOURCE, "reduce_min",
            [n], [values, partial], [n], [group],
        )

    def test_local_scan_kernel(self):
        n, group = 128, 16
        data = [(i * 17) % 23 for i in range(n)]
        sums = [0] * (n // group)
        run_tiers(BARRIER_SCAN, "scan", [], [data, sums], [n], [group])

    def test_divergent_barrier_still_raises_on_scalar_engine(self):
        source = """
        __kernel void bad(__global int *out) {
            int i = get_global_id(0);
            if (i < 2) { barrier(CLK_LOCAL_MEM_FENCE); }
            out[i] = i;
        }
        """
        runner = kernelc.build(source).kernel_runner("bad")
        assert runner.vec is None  # never reaches the vec tier
        assert runner.vec_reason == "barrier"
        with pytest.raises(Exception, match="[Bb]arrier"):
            runner.run_range([[0] * 8], [8], [4])


class TestLedgerTotals:
    """Priced totals are independent of the executing tier."""

    SOURCES = [
        (ESCAPE_LOOP, "escape", [60], 1, "int"),
        (BREAK_CONTINUE, "bc", [24], 1, "int"),
        (INLINED_HELPERS, "rank", [7], 2, "int"),
    ]

    @pytest.mark.parametrize("case", range(len(SOURCES)))
    def test_legacy_and_vec_price_identically(self, case, scalar_tier):
        """The forced scalar tier and the vectorised tier price alike."""
        source, name, scalars, nbuf, dtype = self.SOURCES[case]
        totals, contents = [], []
        for tier in (scalar_tier, contextlib.nullcontext):
            with tier():
                device = find_device("GPU")
                ctx = Context([device])
                queue = CommandQueue(ctx, device)
                program = Program(ctx, source).build()
                kernel = program.create_kernel(name)
                n = 512
                if name == "rank":
                    docs, vocab = 64, scalars[0]
                    shapes = [docs * vocab, docs]
                    n = docs
                else:
                    shapes = [n]
                bufs = []
                for size in shapes[:nbuf]:
                    buf = Buffer(ctx, size, dtype)
                    queue.enqueue_write_buffer(
                        buf, [(i * 13) % 7 for i in range(size)]
                    )
                    bufs.append(buf)
                idx = 0
                for buf in bufs:
                    kernel.set_arg(idx, buf)
                    idx += 1
                for s in scalars:
                    kernel.set_arg(idx, s)
                    idx += 1
                queue.enqueue_nd_range_kernel(kernel, [n], [8])
                queue.finish()
                totals.append(ctx.ledger.kernel_ns)
                contents.append([list(b.data) for b in bufs])
        assert totals[0] == totals[1]
        assert contents[0] == contents[1]


# -- active-lane compaction and loop-body CSE ------------------------------

from repro.apps.mandelbrot import sources as mandelbrot_sources


@contextlib.contextmanager
def compaction(density, every=1):
    """Force the compaction policy for one block, restoring defaults."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npcodegen, "COMPACT_DENSITY", density)
        patch.setattr(npcodegen, "COMPACT_CHECK_EVERY", every)
        yield


DIVERGENT_CASES = [
    (ESCAPE_LOOP, "escape", [60], [[0] * 64], [64], [8]),
    (BREAK_CONTINUE, "bc", [24], [[0] * 64], [64], [8]),
    (NESTED_MASKS, "nested", [9], [[0] * 64], [64], [8]),
    (EARLY_RETURN, "early", [20], [[0] * 64], [64], [8]),
    (HELPER_IN_LOOP_COND, "strider", [21], [[0] * 64], [64], [8]),
]


class TestCompaction:
    """Lane compaction changes wall-clock only: outputs, warp maxima and
    priced totals are bit-identical at every density setting."""

    @pytest.mark.parametrize("case", range(len(DIVERGENT_CASES)))
    @pytest.mark.parametrize("density,every", [(1.0, 1), (1.0, 3), (0.0, 1)])
    def test_divergent_kernels_agree_at_any_density(self, case, density,
                                                    every):
        source, name, scalars, arrays, gsz, lsz = DIVERGENT_CASES[case]
        with compaction(density, every):
            run_tiers(source, name, scalars,
                      [list(a) for a in arrays], gsz, lsz)

    def test_compaction_counters_on_mandelbrot(self):
        """A deep escape loop compacts mid-flight and the dispatch layer
        reports it (`dispatch.compact` / `dispatch.compact.rounds`)."""
        with compaction(0.5, 8), tracing() as tr:
            out = _run_mandelbrot_dispatch(w=64, h=8, max_iter=400)
        counters = tr.counters()
        assert counters.get("dispatch.compact", 0) >= 1
        assert counters.get("dispatch.compact.rounds", 0) >= 1
        with compaction(0.0), tracing() as tr:
            out_off = _run_mandelbrot_dispatch(w=64, h=8, max_iter=400)
        assert "dispatch.compact" not in tr.counters()
        assert out == out_off

    def test_configure_applies_to_compiled_kernels(self):
        """The kcache may hand back an already-compiled kernel; the
        policy constants are read at run time, so patching them still
        bites."""
        compiled = kernelc.build(ESCAPE_LOOP)
        runner = compiled.kernel_runner("escape")
        np = _np()
        with compaction(1.0, 1):
            before = npcodegen.thread_compact_stats()
            runner.vec.run_group_warps(
                [np.zeros(64, np.int64), 60], [64], [8], SIMD
            )
            events_on = npcodegen.thread_compact_stats()[0] - before[0]
        with compaction(0.0):
            before = npcodegen.thread_compact_stats()
            runner.vec.run_group_warps(
                [np.zeros(64, np.int64), 60], [64], [8], SIMD
            )
            events_off = npcodegen.thread_compact_stats()[0] - before[0]
        assert events_on >= 1
        assert events_off == 0


def _run_mandelbrot_dispatch(w, h, max_iter):
    """Run the real mandelbrot kernel through the full dispatch path
    (Context/Queue/Program) and return the iteration counts."""
    device = find_device("GPU")
    ctx = Context([device])
    queue = CommandQueue(ctx, device)
    program = Program(ctx, mandelbrot_sources.KERNEL_SOURCE).build()
    kernel = program.create_kernel("mandelbrot")
    buf = Buffer(ctx, w * h, "int")
    kernel.set_arg(0, buf)
    kernel.set_arg(1, w)
    kernel.set_arg(2, h)
    kernel.set_arg(3, max_iter)
    queue.enqueue_nd_range_kernel(kernel, [w, h], [8, 1])
    queue.finish()
    return list(buf.data)


class TestLoopBodyCSE:
    """A loop condition's subexpressions are reused inside its body."""

    def test_escape_cond_reused_in_body(self):
        """`x * x` appears in the ESCAPE_LOOP condition and body; the
        codegen computes it once per round."""
        compiled = kernelc.build(ESCAPE_LOOP)
        runner = compiled.kernel_runner("escape")
        assert runner.vec is not None
        assert runner.vec.cse_hits >= 1

    def test_mandelbrot_escape_test_hits_cache(self, scalar_tier):
        """The paper's mandelbrot kernel computes `x*x` and `y*y` in the
        escape test and again in the body — both must hit the cache, and
        the dispatch layer must report it."""
        compiled = kernelc.build(mandelbrot_sources.KERNEL_SOURCE)
        runner = compiled.kernel_runner("mandelbrot")
        assert runner.vec is not None
        assert runner.vec.cse_hits >= 2
        with tracing() as tr:
            vec_out = _run_mandelbrot_dispatch(w=64, h=8, max_iter=60)
        assert tr.counters().get("dispatch.cse.hits", 0) > 0
        with scalar_tier():
            scalar_out = _run_mandelbrot_dispatch(w=64, h=8, max_iter=60)
        assert vec_out == scalar_out
