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
import re
import sys
import threading

import pytest

from repro import kcache, kernelc, kir
from repro.apps.docrank import sources as docrank_sources
from repro.apps.reduction import sources as reduction_sources
from repro.kir import npcodegen
from repro.kir.pycodegen import _Emitter
from repro.opencl import Buffer, CommandQueue, Context, Program, find_device
from repro.opencl.costmodel import group_warp_costs
from repro.opencl.dispatch import VEC_MIN_ITEMS
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

# OpenCL C's && and || yield 0 or 1, never an operand.
LOGIC_VALUES = """
__kernel void logic(__global int *out, int a, int b) {
    int i = get_global_id(0);
    int v = out[i];
    out[i] = (int)(v && b) * 10 + (int)(v || a);
}
"""

# OpenCL floats are IEEE 754: x / 0.0 is inf, sqrt of a negative and
# fmod by zero are NaN, on every tier.
IEEE_FLOATS = """
__kernel void ieee(__global int *out, float x) {
    int i = get_global_id(0);
    float y = x + (float)i;
    out[i] = (int)(y / 0.0 > 1e300) + 2 * (int)(sqrt(-y) != sqrt(-y))
        + 4 * (int)(y % 0.0 != y % 0.0);
}
"""

# A ?: arm or the right operand of && / || runs only on the lanes the
# scalar engine evaluates it on: a is half the NDRange long, the false
# arm divides by zero where the true arm is taken, and the last two
# operands, a uniform out-of-range load and a uniform zero divisor,
# are evaluated by no lane.  The helper call runs, and is charged,
# only on the lanes that evaluate its operand.
GUARDED_OPERANDS = """
int at(__global int *a, int k) { return a[k % 8] + 1; }
__kernel void guards(__global int *out, __global int *a, int n, int z) {
    int i = get_global_id(0);
    int inside = i < n && a[i] + at(a, i) > 6;
    int arms = i % 4 == 0 ? a[i / 2] : 7 / (i % 4);
    float x = (float)(i % 5);
    float r = i > 3 ? x / (float)i : 0.0;
    int never = i < 0 && a[n * 4] / z > 0;
    int always = i >= 0 || 10 / z > 0;
    out[i] = inside + 2 * arms + 100 * (int)(r * 8.0) + 1000 * never
        + 3000 * always;
}
"""

# A user call in a short-circuit operand runs only where C evaluates
# it: a is half the NDRange long, so a call on every lane would index
# past its end.
SHORT_CIRCUIT_CALL = """
int at(__global int *a, int k) { return a[k]; }
__kernel void found(__global int *out, __global int *a, int n) {
    int i = get_global_id(0);
    out[i] = i < n && at(a, i) > 0;
}
"""

# User calls in all three guarded operand kinds: the right operands of
# && and ||, and both arms of ?:.  Each call is charged only on the
# lanes that evaluate it, a call's argument included.
CALL_OPERANDS = """
int at(__global int *a, int k) { return a[k]; }
int spin(int x) {
    int s = 0;
    for (int j = 0; j < x % 5; j++) { s += j; }
    return s;
}
__kernel void calls(__global int *out, __global int *a, int n) {
    int i = get_global_id(0);
    int both = i < n && at(a, i) > 0;
    int either = i >= n || at(a, i) > 1;
    int arm = i % 3 == 0 ? spin(i) : at(a, i % n) + spin(spin(i + 1));
    out[i] = both + 2 * either + 4 * arm;
}
"""

# A uniform ?: as an index: a private store under a divergent if, the
# same store into a global array, and an unmasked global store (every
# item stores to one slot, the last one wins).
UNIFORM_SELECT_PRIVATE = """
__kernel void selpriv(__global int *out, int n) {
    int i = get_global_id(0);
    int p[2];
    p[0] = out[i];
    p[1] = 0;
    if (i % 2 == 0) { p[n > 3 ? 1 : 0] = i; }
    out[i] = p[0] + 1000 * p[1];
}
"""

UNIFORM_SELECT_MASKED = """
__kernel void selmasked(__global int *out, int n) {
    int i = get_global_id(0);
    if (i % 2 == 0) { out[n > 3 ? 1 : 0] = i; }
}
"""

UNIFORM_SELECT_STORE = """
__kernel void selstore(__global int *out, int n) {
    int i = get_global_id(0);
    out[n > 3 ? 1 : 0] = i;
}
"""

# Private arrays read and written at uniform rows (a loop variable, a
# constant, a declared variable and a uniform ?:), with and without an
# enclosing mask; q[0] and q[2] are read where nothing wrote them.  The
# second loop's i * n is loop-invariant, (s + i) * 2 - s is not.
UNIFORM_ROWS = """
__kernel void rows(__global int *out, int n) {
    int i = get_global_id(0);
    int p[4];
    int q[3];
    for (int t = 0; t < 4; t++) { p[t] = t * n; }
    if (i % 3 == 0) { p[n > 3 ? 1 : 2] = i; q[n % 3] = p[0] + 1; }
    int k = 2;
    p[k] = p[k] + out[i];
    int s = 0;
    for (int t = 0; t < 4; t++) {
        s += p[t] * (t + 1) + i * n;
        s = (s + i) * 2 - s;
    }
    if (i % 2 == 1) { s += q[0] + 10 * q[n % 3] + p[n > 3 ? 1 : 0]; }
    int x = p[1];
    p[1] = 0;
    out[i] = s + 1000 * x + p[1];
}
"""

# Uniform indices that the vec tier holds as per-lane arrays: an
# assignment in a kernel with return runs under its live mask, and an
# inlined call's result is full-width.
ROWS_AFTER_RETURN = """
int wrap(int x) { return (x + 1) % 4; }
__kernel void rowsret(__global int *out, int n) {
    int i = get_global_id(0);
    int p[4];
    if (out[i] > 5) { return; }
    int k = 0;
    k = n % 4;
    p[k] = i;
    int c = wrap(n);
    int h = c;
    p[h] = p[k] + 1;
    out[i] = p[0] + 10 * p[1] + 100 * p[2] + 1000 * p[c];
}
"""

# Loop-invariant division stays in its loop: the first loop never runs
# and no lane takes the branch in the second, so z = 0 divides nothing.
INVARIANT_DIVISION = """
__kernel void nohoist(__global int *out, int n, int z) {
    int i = get_global_id(0);
    int s = out[i];
    for (int t = 0; t < n - 40; t++) { s += 10 / z; }
    for (int t = 0; t < 3; t++) {
        if (i < 0) { s += n % z; }
        s += t * n;
    }
    out[i] = s;
}
"""

# Straight-line if/else of unequal cost at full width and under an
# enclosing mask: each lane is charged for the branch it takes.  The
# while loop is uniform.
STRAIGHT_BRANCHES = """
__kernel void branches(__global int *out, int n) {
    int i = get_global_id(0);
    int a = out[i];
    int b = 0;
    if (a > 3) { b = a * 2 + 1; out[i] = b - n; } else { b = 7; }
    if (i % 4 != 0) {
        if (a % 2 == 0) { b += a; } else { b = b * a - n; a = a + 1; }
    }
    int u = 0;
    while (u < n) { b += u; u = u + 1; }
    out[i] = out[i] + b * 10 + a;
}
"""

# In a function with return every assignment runs under the live mask,
# so these loops' bounds are per lane (uniform loops over them raised a
# raw ValueError on the vec tier).
LOOPS_AFTER_RETURN = """
int count_to(int n) {
    int u = 0;
    if (n < 0) { return 0; }
    u = 1;
    while (u < n) { u = u + 1; }
    return u;
}
__kernel void loopsret(__global int *out, int n) {
    int i = get_global_id(0);
    if (i > 300) { return; }
    int u = 0;
    u = n - 1;
    while (u < n + 2) { u = u + 1; }
    int s = 0;
    for (int t = 0; t < u; t++) { s += t; }
    out[i] = s + count_to(n + i % 3);
}
"""

# Masked while loops left by break, by continue and by return; the
# first two also compact when compaction is forced.
WHILE_EXITS = """
__kernel void exits(__global int *out, int n) {
    int i = get_global_id(0);
    int s = out[i];
    int j = 0;
    while (j < i % 13) {
        s += j;
        if (s > 20 + i % 5) { break; }
        j++;
    }
    int k = 0;
    while (k < i % 11) {
        k++;
        if (k % 3 == 0) { continue; }
        s += k;
    }
    int m = 0;
    while (m < n) {
        m += 1 + i % 4;
        if (m > 9 + i % 6) { out[i] = s + m; return; }
    }
    out[i] = s;
}
"""

WHILE_COMPACTS = """
__kernel void compacts(__global int *out, int n) {
    int i = get_global_id(0);
    int s = out[i];
    int j = 0;
    while (j < i % 29) {
        s += j * 3;
        if (s > 200 + i % 50) { break; }
        j++;
    }
    int k = 0;
    while (k < i % 23 + n) {
        k++;
        if (k % 4 == 0) { continue; }
        s -= k;
    }
    out[i] = s;
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

    def test_calls_in_guarded_operands_charge_equal_item_ops(self):
        # SIMD width 1: every work-item is its own warp, so the tiers
        # must agree on each item's op count.
        n = 64
        a = [(i * 13) % 7 for i in range(n // 2)]
        run_tiers(CALL_OPERANDS, "calls", [n // 2], [[0] * n, a], [n], [8],
                  simd=1)

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
        (LOGIC_VALUES, "logic", [3, 5], 1, "int"),
        (IEEE_FLOATS, "ieee", [-3.0], 1, "int"),
        (GUARDED_OPERANDS, "guards", [256, 0], 2, "int"),
        (UNIFORM_SELECT_PRIVATE, "selpriv", [5], 1, "int"),
        (UNIFORM_SELECT_MASKED, "selmasked", [5], 1, "int"),
        (UNIFORM_SELECT_STORE, "selstore", [5], 1, "int"),
        (SHORT_CIRCUIT_CALL, "found", [256], 2, "int"),
        (CALL_OPERANDS, "calls", [256], 2, "int"),
        (UNIFORM_ROWS, "rows", [5], 1, "int"),
        (ROWS_AFTER_RETURN, "rowsret", [6], 1, "int"),
        (INVARIANT_DIVISION, "nohoist", [40, 0], 1, "int"),
        (LOOPS_AFTER_RETURN, "loopsret", [5], 1, "int"),
        (STRAIGHT_BRANCHES, "branches", [3], 1, "int"),
        (WHILE_EXITS, "exits", [40], 1, "int"),
        (WHILE_COMPACTS, "compacts", [3], 1, "int"),
    ]

    @pytest.mark.parametrize("case", range(len(SOURCES)))
    def test_legacy_and_vec_price_identically(self, case, scalar_tier):
        """The forced scalar tier and the vectorised tier price alike,
        and both store what the Interpreter stores.  An NDRange large
        enough for the vectorised tier runs on it."""
        source, name, scalars, nbuf, dtype = self.SOURCES[case]
        n = 512
        if name == "rank":
            docs, vocab = 64, scalars[0]
            shapes = [docs * vocab, docs]
            n = docs
        elif name in ("guards", "found", "calls"):
            shapes = [n, n // 2]
        else:
            shapes = [n]
        self.check(scalar_tier, source, name, scalars, shapes[:nbuf], dtype,
                   n)

    @pytest.mark.parametrize("name", ["exits", "compacts"])
    def test_masked_while_with_compaction_forced(self, name, scalar_tier):
        source = WHILE_EXITS if name == "exits" else WHILE_COMPACTS
        before = npcodegen.thread_compact_stats()[0]
        with compaction(1.0, 1):
            self.check(scalar_tier, source, name, [40], [512], "int", 512)
        assert npcodegen.thread_compact_stats()[0] > before

    def test_short_circuit_call_at_eight_items(self, scalar_tier):
        """Both runs take the scalar tier at this size."""
        self.check(scalar_tier, SHORT_CIRCUIT_CALL, "found", [4], [8, 4],
                   "int", 8)

    @staticmethod
    def check(scalar_tier, source, name, scalars, shapes, dtype, n):
        inputs = [[(i * 13) % 7 for i in range(size)] for size in shapes]
        totals, contents = [], []
        for tier in (scalar_tier, contextlib.nullcontext):
            with tier(), tracing() as tr:
                device = find_device("GPU")
                ctx = Context([device])
                queue = CommandQueue(ctx, device)
                program = Program(ctx, source).build()
                kernel = program.create_kernel(name)
                bufs = []
                for data in inputs:
                    buf = Buffer(ctx, len(data), dtype)
                    queue.enqueue_write_buffer(buf, data)
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
        if n >= VEC_MIN_ITEMS:
            assert tr.counter("dispatch.fallback") == 0
        assert totals[0] == totals[1]
        assert contents[0] == contents[1]
        assert contents[1] == interp_buffers(
            source, name, scalars, inputs, [n], [8]
        )


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


# -- private arrays and the generated code of the shipped kernels ---------

READ_BEFORE_WRITE = """
__kernel void first(__global int *out, int n) {
    int i = get_global_id(0);
    int p[3];
    int r = p[0] + 10 * p[i % 3];
    p[0] = i + n;
    p[i % 3] = n;
    out[i] = r + p[0];
}
"""

DECL_IN_LOOP = """
__kernel void inloop(__global int *out, int n) {
    int i = get_global_id(0);
    int s = 0;
    for (int t = 0; t < n; t++) {
        int p[2];
        s += p[0] * 100 + p[i % 2];
        p[0] = t + 1;
        p[i % 2] = i;
    }
    for (int t = 0; t < i % 4 + n; t++) {
        int q[2];
        s += q[1] + q[i % 2];
        q[1] = t;
        q[i % 2] = i + 1;
    }
    out[i] = s;
}
"""


def _vec_out(runner, n, scalars):
    np = _np()
    out = np.zeros(n, np.int64)
    runner.vec.run_item_ops([out, *scalars], [n], [8])
    return out.tolist()


class TestPrivateArrays:
    """A private array starts at zero each time its declaration runs,
    and a kernel the compile cache shares runs on threads at once."""

    def test_slot_read_before_written_reads_zero_every_dispatch(self):
        runner = kernelc.build(READ_BEFORE_WRITE).kernel_runner("first")
        for n in (5, 9, 5):
            (want,) = interp_buffers(READ_BEFORE_WRITE, "first", [n],
                                     [[0] * 512], [512], [8])
            assert _vec_out(runner, 512, [n]) == want

    def test_array_declared_in_a_loop_restarts_at_zero(self):
        runner = kernelc.build(DECL_IN_LOOP).kernel_runner("inloop")
        for _ in range(2):
            assert _vec_out(runner, 512, [3]) == [0] * 512

    def test_threads_sharing_a_kernel_match_their_solo_runs(self):
        np = _np()
        compiled = kcache.get_or_build(docrank_sources.KERNEL_SOURCE)
        assert kcache.get_or_build(docrank_sources.KERNEL_SOURCE) is compiled
        vec = compiled.kernel_runner("rank").vec
        v = 64
        w = np.array([(t % 5 - 2) * 0.5 for t in range(v)])
        # One shape, so the threads would share arrays if anything did.
        tfs = {
            seed: np.array([(d * seed + t * t) % 7 for d in range(512)
                            for t in range(v)], np.int64)
            for seed in (3, 11)
        }

        def rank(seed):
            out = np.zeros(512, np.int64)
            ops = vec.run_item_ops([tfs[seed], w, out, v, 1.0], [512], [64])
            return out.tolist(), ops.tolist()

        solo = {seed: rank(seed) for seed in tfs}
        assert solo[3][0] != solo[11][0]
        start = threading.Barrier(len(tfs), timeout=60)
        wrong = []

        def worker(seed):
            start.wait()
            try:
                for _ in range(20):
                    if rank(seed) != solo[seed]:
                        wrong.append(seed)
            except Exception as exc:  # reported by the assertion below
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in tfs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def _vec_source(source, kernel):
    module = kernelc.compile_source(source)
    em = _Emitter()
    npcodegen._gen_vec_kernel(module, module.kernel(kernel), em)
    return em.source()


class TestShippedKernelCode:
    """The generated code of the two kernels the vec tier spends most of
    the benchmark in."""

    def test_rank_reads_and_writes_private_rows_inline(self):
        code = _vec_source(docrank_sources.KERNEL_SOURCE, "rank")
        assert "__vstore2(" not in code
        assert "__vload2(" not in code
        assert "__vload(" not in code

    def test_mandelbrot_charges_once_per_round(self):
        code = _vec_source(mandelbrot_sources.KERNEL_SOURCE, "mandelbrot")
        loop = code[code.index("while True:"):]
        assert len(re.findall(r"__ops \+= __m\d+", loop)) == 1
