"""Equivalence tests for the execution tiers of range-mode kernels.

Every kernel can be priced three ways:

* **reference fold**: ``run_range`` (the warp-fold at SIMD width 1)
  yields per-item op counts which ``group_warp_costs`` folds into
  per-group warp maxima;
* **scalar warp-fold**: the generated ``__warps_`` runner folds on the
  fly at the device's SIMD width;
* **vectorised batch** (:mod:`repro.kir.npcodegen`): numpy evaluates
  whole NDRanges at once, when the kernel is eligible.

The cost model consumes only the per-group warp maxima, so the tiers
must agree on those *exactly* — and on every buffer mutation — for the
paper figures to be independent of which tier ran.
"""

from __future__ import annotations

import random

import pytest

from repro import kernelc
from repro.apps.docrank import sources as docrank_sources
from repro.apps.lud import sources as lud_sources
from repro.apps.mandelbrot import sources as mandelbrot_sources
from repro.apps.matmul import sources as matmul_sources
from repro.errors import KirRuntimeError
from repro.kir import npcodegen
from repro.opencl.costmodel import group_warp_costs


SIMD = 8


def _np():
    import numpy as np

    return np


def run_all_tiers(source, kernel, scalars, arrays, gsz, lsz, simd=SIMD):
    """Run one kernel through all tiers; assert identical warp maxima
    and identical buffer contents; returns the reference warp maxima."""
    np = _np()
    compiled = kernelc.build(source)
    runner = compiled.kernel_runner(kernel)
    fn = compiled.module.kernel(kernel)

    def make_args(as_numpy):
        out = []
        arrays_iter = iter(arrays)
        scalars_iter = iter(scalars)
        for p in fn.params:
            if p.type.is_array:
                data = next(arrays_iter)
                if as_numpy:
                    dtype = {"int": np.int64, "float": np.float64,
                             "bool": np.bool_}[p.type.element.kind]
                    out.append(np.array(data, dtype=dtype))
                else:
                    out.append(list(data))
            else:
                out.append(next(scalars_iter))
        return out

    ref_args = make_args(False)
    item_ops = runner.run_range(ref_args, gsz, lsz)
    ref_warps = group_warp_costs(item_ops, gsz, lsz, simd)

    fold_args = make_args(False)
    fold_warps = runner.run_group_warps(fold_args, gsz, lsz, simd)
    assert fold_warps == ref_warps
    assert fold_args == ref_args

    if runner.vec is not None:
        vec_args = make_args(True)
        vec_warps = runner.vec.run_group_warps(vec_args, gsz, lsz, simd)
        assert vec_warps == ref_warps
        for got, want in zip(vec_args, ref_args):
            if isinstance(want, list):
                assert got.tolist() == want
    return ref_warps


def _rand_floats(rng, n, lo=-4.0, hi=4.0):
    return [round(rng.uniform(lo, hi), 3) for _ in range(n)]


class TestAppKernels:
    """All five paper applications' kernels agree across tiers."""

    @pytest.mark.parametrize("n,lsz", [(8, [4, 4]), (16, [8, 4])])
    def test_matmul(self, n, lsz):
        rng = random.Random(7)
        a = _rand_floats(rng, n * n)
        b = _rand_floats(rng, n * n)
        c = [0.0] * (n * n)
        run_all_tiers(
            matmul_sources.KERNEL_SOURCE, "matmul",
            [n], [a, b, c], [n, n], lsz,
        )

    def test_matmul_is_vectorised(self):
        runner = kernelc.build(matmul_sources.KERNEL_SOURCE).kernel_runner(
            "matmul"
        )
        assert runner.vec is not None

    @pytest.mark.parametrize("docs,vocab", [(16, 8), (32, 5)])
    def test_docrank(self, docs, vocab):
        rng = random.Random(11)
        tf = [rng.randrange(0, 6) for _ in range(docs * vocab)]
        w = _rand_floats(rng, vocab)
        wanted = [0] * docs
        run_all_tiers(
            docrank_sources.KERNEL_SOURCE, "rank",
            [vocab, 0.5], [tf, w, wanted], [docs], [4],
        )

    @pytest.mark.parametrize("kernel,k", [
        ("lud_pivot", 0), ("lud_scale", 2), ("lud_update", 1),
    ])
    def test_lud(self, kernel, k):
        rng = random.Random(13)
        n = 16
        m = _rand_floats(rng, n * n, 1.0, 5.0)
        piv = [m[k * n + k]]
        if kernel == "lud_update":
            scalars, arrays = [k, n], [m]
            gsz, lsz = [n, n], [4, 4]
        elif kernel == "lud_pivot":
            scalars, arrays = [k, n], [m, piv]
            gsz, lsz = [1], [1]
        else:
            scalars, arrays = [k, n], [m, piv]
            gsz, lsz = [n], [4]
        run_all_tiers(lud_sources.KERNEL_SOURCE, kernel, scalars, arrays,
                      gsz, lsz)

    def test_mandelbrot_vectorised(self):
        """The escape-time ``while`` now runs under iterative masked
        evaluation, so the vec tier exists and matches the reference."""
        w = h = 12
        out = [0] * (w * h)
        runner = kernelc.build(
            mandelbrot_sources.KERNEL_SOURCE
        ).kernel_runner("mandelbrot")
        assert runner.vec is not None
        assert runner.vec.has_masked_loops
        run_all_tiers(
            mandelbrot_sources.KERNEL_SOURCE, "mandelbrot",
            [w, h, 32], [out], [w, h], [4, 4],
        )


DIV_GUARDED = """
__kernel void div_guarded(__global int *out, __global int *d, int n) {
    int i = get_global_id(0);
    if (d[i] != 0) {
        out[i] = 100 / d[i];
    } else {
        out[i] = -1;
    }
}
"""

DIV_UNGUARDED = """
__kernel void div_unguarded(__global int *out, __global int *d) {
    int i = get_global_id(0);
    out[i] = 100 / d[i];
}
"""


class TestMaskedDivision:
    def test_inactive_lane_division_by_zero_is_safe(self):
        """Lanes masked off by the guard must not fault even though the
        vector engine evaluates the division speculatively."""
        n = 16
        d = [(i % 4) - 1 for i in range(n)]  # zeros on every 4th lane
        out = [0] * n
        run_all_tiers(DIV_GUARDED, "div_guarded", [n], [out, d], [n], [4])

    def test_active_lane_division_by_zero_raises_in_both_tiers(self):
        np = _np()
        n = 8
        compiled = kernelc.build(DIV_UNGUARDED)
        runner = compiled.kernel_runner("div_unguarded")
        assert runner.vec is not None
        d = [1, 2, 0, 4, 5, 6, 7, 8]
        with pytest.raises(KirRuntimeError):
            runner.run_range([[0] * n, list(d)], [n], [4])
        with pytest.raises(KirRuntimeError):
            runner.vec.run_group_warps(
                [np.zeros(n, np.int64), np.array(d, np.int64)],
                [n], [4], SIMD,
            )


TWO_D_LOCAL = """
__kernel void weight(__global int *out, int w) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int acc = 0;
    for (int k = 0; k < x + y; k++) {
        acc += k;
    }
    out[y * w + x] = acc;
}
"""


class TestWarpFolding:
    @pytest.mark.parametrize("gsz,lsz", [
        ([16, 8], [4, 4]),
        ([8, 8], [8, 2]),
        ([12, 6, 2], [2, 3, 1]),
    ])
    def test_fold_matches_reference_partition(self, gsz, lsz):
        """fold_group_warps must reproduce group_warp_costs' grouping
        for multi-dimensional local sizes, where linear item order is
        *not* group-major."""
        np = _np()
        rng = random.Random(17)
        nitems = 1
        for g in gsz:
            nitems *= g
        ops = np.array([rng.randrange(1, 100) for _ in range(nitems)],
                       dtype=np.int64)
        got = npcodegen.fold_group_warps(ops, gsz, lsz, SIMD)
        want = group_warp_costs(ops.tolist(), gsz, lsz, SIMD)
        assert got.tolist() == want

    def test_two_dimensional_kernel_end_to_end(self):
        w, h = 16, 8
        out = [0] * (w * h)
        run_all_tiers(TWO_D_LOCAL, "weight", [w], [out], [w, h], [4, 4])


PRIVATE_SLOTS = """
__kernel void slots(__global int *out, int k) {
    int i = get_global_id(0);
    int s[4];
    for (int j = 0; j < 4; j++) { s[j] = j * k; }
    s[i % 4] = s[i % 4] + i;
    if (i % 3 == 0) {
        s[2] = s[1] + s[i % 4];
    }
    out[i] = s[0] + 10 * s[1] + 100 * s[2] + 1000 * s[3];
}
"""

PRIVATE_IN_LOOP = """
__kernel void hist(__global int *out) {
    int i = get_global_id(0);
    int h[5];
    for (int j = 0; j < 5; j++) { h[j] = 0; }
    int t = 0;
    while (t < i % 9 + 1) {
        h[t % 5] = h[t % 5] + t;
        h[2] = h[2] + 1;
        t = t + 1;
    }
    out[i] = h[0] + 7 * h[1] + 49 * h[2] + 343 * h[3] + 2401 * h[4];
}
"""

READ_THEN_STORE = """
__kernel void alias(__global float *out, int t) {
    int i = get_global_id(0);
    float p[4];
    for (int j = 0; j < 4; j++) { p[j] = (float)(i + j); }
    float x = p[t];
    p[t] = x + 1.0;
    out[i] = x;
}
"""


class TestPrivateArrays:
    """Private arrays agree across tiers in both access forms: a row of
    every lane's slot under a uniform index at full width, and a
    gather/scatter otherwise."""

    def test_lane_varying_and_uniform_indices(self):
        assert kernelc.build(PRIVATE_SLOTS).kernel_runner("slots").vec
        n = 64
        run_all_tiers(PRIVATE_SLOTS, "slots", [3], [[0] * n], [n], [8])

    def test_read_and_written_in_a_compacted_loop(self, monkeypatch):
        monkeypatch.setattr(npcodegen, "COMPACT_DENSITY", 1.0)
        monkeypatch.setattr(npcodegen, "COMPACT_CHECK_EVERY", 1)
        assert kernelc.build(PRIVATE_IN_LOOP).kernel_runner("hist").vec
        before = npcodegen.thread_compact_stats()[0]
        n = 64
        run_all_tiers(PRIVATE_IN_LOOP, "hist", [], [[0] * n], [n], [8])
        assert npcodegen.thread_compact_stats()[0] > before

    def test_a_value_read_survives_a_store_to_its_slot(self):
        assert kernelc.build(READ_THEN_STORE).kernel_runner("alias").vec
        n = 32
        run_all_tiers(READ_THEN_STORE, "alias", [2], [[0.0] * n], [n], [8])


class TestEligibility:
    def test_barrier_kernel_group_mode_and_vectorised(self):
        source = """
        __kernel void b(__global int *out) {
            int i = get_global_id(0);
            barrier(CLK_GLOBAL_MEM_FENCE);
            out[i] = i;
        }
        """
        runner = kernelc.build(source).kernel_runner("b")
        assert runner.group_mode
        assert runner.vec is not None
        assert runner.vec_reason is None

    def test_while_loop_vectorised(self):
        runner = kernelc.build(
            mandelbrot_sources.KERNEL_SOURCE
        ).kernel_runner("mandelbrot")
        assert runner.vec is not None
        assert runner.vec_reason is None

    def test_divergent_barrier_rejected_with_reason(self):
        source = """
        __kernel void b(__global int *out) {
            int i = get_global_id(0);
            if (i > 2) {
                barrier(CLK_GLOBAL_MEM_FENCE);
            }
            out[i] = i;
        }
        """
        runner = kernelc.build(source).kernel_runner("b")
        assert runner.vec is None
        assert runner.vec_reason == "barrier"

    def test_private_array_kernel_vectorised(self):
        runner = kernelc.build(docrank_sources.KERNEL_SOURCE).kernel_runner(
            "rank"
        )
        assert runner.vec is not None
