"""Multi-device NDRange splitting via ``Context.enqueue_nd_range``.

The split contract (docs/ARCHITECTURE.md, "Multi-device dispatch"): a
single dispatch on a multi-device context executes the kernel *once*,
so buffer contents are bit-identical to single-device execution; each
device is charged its own work-group slice (folded with its own SIMD
width) plus the broadcast/gather transfer traffic of joining the split.
"""

from __future__ import annotations

import contextlib
import gc
import weakref

import pytest

from repro import kcache
from repro.kir import KernelRunner, npcodegen
from repro.opencl import (
    Buffer,
    COPY_HOST_PTR,
    Context,
    Program,
    READ_WRITE,
    dispatch,
    faults,
    group_warp_costs,
)
from repro.opencl.costmodel import cpu_spec, gpu_spec
from repro.opencl.dispatch import (
    device_weight,
    multi_device_kernel_ns,
    split_share_counts,
)
from repro.opencl.faults import TRANSIENT, FaultPlan, FaultSpec
from repro.opencl.platform import Device
from repro.errors import CLInvalidValue
from repro.trace import tracing
from repro.apps.matmul.runners import generate
from repro.apps.matmul.sources import KERNEL_SOURCE

N = 32  # 4 outermost work-group rows with 8x8 groups


def _gpu():
    # A scaled-down GPU so the CPU's share does not round to zero.
    return Device(gpu_spec(scale=0.1, name="split-gpu"))


def _cpu():
    return Device(cpu_spec(name="split-cpu"))


def _matmul(context, devices):
    program = Program(context, KERNEL_SOURCE).build(list(devices))
    a, b = generate(N)
    init = (READ_WRITE, COPY_HOST_PTR)
    buf_a = Buffer(context, N * N, flags=init, host_data=a)
    buf_b = Buffer(context, N * N, flags=init, host_data=b)
    buf_c = Buffer(context, N * N)
    kernel = program.create_kernel("matmul")
    kernel.set_arg(0, buf_a)
    kernel.set_arg(1, buf_b)
    kernel.set_arg(2, buf_c)
    kernel.set_arg(3, N)
    return kernel, (buf_a, buf_b, buf_c)


class TestShareCounts:
    def test_shares_sum_to_total(self):
        weights = [device_weight(gpu_spec()), device_weight(cpu_spec())]
        for total in range(0, 40):
            assert sum(split_share_counts(total, weights)) == total

    def test_proportionality(self):
        assert split_share_counts(4, [3.0, 1.0]) == [3, 1]
        assert split_share_counts(10, [1.0, 1.0]) == [5, 5]

    def test_largest_remainder_tie_breaks_by_position(self):
        assert split_share_counts(1, [1.0, 1.0]) == [1, 0]
        assert split_share_counts(3, [1.0, 1.0]) == [2, 1]

    def test_zero_weight_device_gets_nothing(self):
        assert split_share_counts(7, [1.0, 0.0]) == [7, 0]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(CLInvalidValue):
            split_share_counts(4, [0.0, 0.0])
        with pytest.raises(CLInvalidValue):
            split_share_counts(-1, [1.0])

    def test_deterministic(self):
        weights = [2.7, 1.3, 0.9]
        assert split_share_counts(17, weights) == split_share_counts(
            17, weights
        )


class TestWarpSliceIdentity:
    def test_slice_folds_equal_whole_fold(self):
        """Folding a work-group-aligned slice yields exactly the
        corresponding rows of the whole-range fold (the property that
        makes the split's pricing consistent with single-device)."""
        gsz, lsz, simd = (8, 8), (4, 4), 4
        item_ops = [(i * 13 + 5) % 17 + 1 for i in range(64)]
        whole = group_warp_costs(item_ops, gsz, lsz, simd)
        # Slice along the outermost dim: first group row = items 0..31.
        half = group_warp_costs(item_ops[:32], (8, 4), lsz, simd)
        assert half == whole[: len(whole) // 2]
        rest = group_warp_costs(item_ops[32:], (8, 4), lsz, simd)
        assert rest == whole[len(whole) // 2 :]


class TestMultiDeviceDispatch:
    def _single_device_reference(self):
        gpu = _gpu()
        ctx = Context([gpu])
        kernel, bufs = _matmul(ctx, [gpu])
        ctx.enqueue_nd_range(kernel, [N, N], [8, 8])
        return ctx, bufs

    def _split_run(self):
        gpu, cpu = _gpu(), _cpu()
        ctx = Context([gpu, cpu])
        kernel, bufs = _matmul(ctx, [gpu, cpu])
        events = ctx.enqueue_nd_range(kernel, [N, N], [8, 8])
        return ctx, bufs, events, (gpu, cpu)

    def test_split_actually_happens(self):
        _, _, events, (gpu, cpu) = self._split_run()
        kernel_events = [e for e in events if e.command == "NDRANGE_KERNEL"]
        assert len(kernel_events) == 2  # both devices participate

    def test_bit_identical_to_single_device(self):
        _, (_, _, ref_c) = self._single_device_reference()
        _, (_, _, split_c), _, _ = self._split_run()
        assert list(split_c.data) == list(ref_c.data)

    def test_each_device_charged_its_slice(self):
        ctx, _, events, (gpu, cpu) = self._split_run()
        kernel_events = [e for e in events if e.command == "NDRANGE_KERNEL"]
        assert ctx.ledger.kernel_launches == 2
        assert ctx.ledger.kernel_ns == pytest.approx(
            sum(e.duration_ns for e in kernel_events)
        )
        # The secondary device paid broadcast (inputs) + gather (its
        # share of the output) on the host link.
        assert ctx.ledger.bytes_to_device == 2 * N * N * 4  # a and b
        assert 0 < ctx.ledger.bytes_from_device < N * N * 4

    def test_per_device_costs_visible_in_summary(self):
        with tracing() as tr:
            ctx, _, _, (gpu, cpu) = self._split_run()
        summary = tr.summary(with_counters=True, by_track=True)
        tracks = summary["tracks"]
        assert f"device/{gpu.name}" in tracks
        assert f"device/{cpu.name}" in tracks
        assert tracks[f"device/{gpu.name}"]["kernel"] > 0
        assert tracks[f"device/{cpu.name}"]["kernel"] > 0
        assert tracks[f"device/{cpu.name}"]["to_device"] > 0
        assert summary["counters"]["dispatch.split"] == 1
        assert summary["counters"]["dispatch.split.devices"] == 2

    def test_single_device_context_delegates(self):
        gpu = _gpu()
        ctx = Context([gpu])
        kernel, _ = _matmul(ctx, [gpu])
        events = ctx.enqueue_nd_range(kernel, [N, N], [8, 8])
        assert len(events) == 1
        assert ctx.ledger.bytes_to_device == 0  # no broadcast charged

    def test_lopsided_weights_degrade_to_one_device(self):
        # With the full-size GPU the CPU's share rounds to zero and the
        # dispatch must quietly stay single-device.
        gpu = Device(gpu_spec(name="big-gpu"))
        cpu = _cpu()
        ctx = Context([gpu, cpu])
        kernel, _ = _matmul(ctx, [gpu, cpu])
        events = ctx.enqueue_nd_range(kernel, [N, N], [8, 8])
        assert len(events) == 1
        assert ctx.ledger.bytes_to_device == 0

    def test_deterministic_split_pricing(self):
        ctx1, _, ev1, _ = self._split_run()
        ctx2, _, ev2, _ = self._split_run()
        assert [e.duration_ns for e in ev1] == [e.duration_ns for e in ev2]
        assert ctx1.ledger.kernel_ns == ctx2.ledger.kernel_ns


class TestMultiDeviceKernelNs:
    def test_parts_cover_the_range(self):
        gpu, cpu = _gpu(), _cpu()
        ctx = Context([gpu, cpu])
        kernel, _ = _matmul(ctx, [gpu, cpu])
        entries = kernel.bound_entries(ctx)
        shares = split_share_counts(
            N // 8, [device_weight(gpu.spec), device_weight(cpu.spec)]
        )
        parts = multi_device_kernel_ns(
            kernel.runner(gpu),
            [gpu.spec, cpu.spec],
            shares,
            entries,
            (N, N),
            (8, 8),
        )
        items = sum(p[1] for p in parts if p is not None)
        assert items == N * N
        for part, share in zip(parts, shares):
            if share == 0:
                assert part is None
            else:
                sub_gsz, n_items, ns = part
                assert sub_gsz == (N, share * 8)
                assert ns > 0


# A 2-D barrier kernel over 4x4 groups: per-item trip counts follow the
# data, so folding the group-major op order the scalar engine reports as
# if it were linear (its pricing quirk) gives different warp maxima than
# folding linear order would.
TILE_SCAN = """
__kernel void tile_scan(__global int *data, __global int *out, int w) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int slot = get_local_id(1) * 4 + get_local_id(0);
    __local int tile[16];
    tile[slot] = data[y * w + x];
    barrier(CLK_LOCAL_MEM_FENCE);
    int acc = 0;
    for (int j = 0; j <= tile[slot] % 7; j++) { acc += tile[j]; }
    out[y * w + x] = acc;
}
"""

# Lane-dependent trip counts make the loop masked (subject to the
# iteration cap), and stores inside it would leave partial sums behind
# if a cap abort did not restore the buffer.
CAPPED_LOOP = """
__kernel void accum(__global int *out) {
    int i = get_global_id(0);
    for (int j = 0; j < i % 7 + 5; j++) {
        out[i] = out[i] + 1;
    }
}
"""


@pytest.fixture
def per_item_runs(monkeypatch):
    """One entry per ``run_range`` call: whether the scalar tier was
    forced at the time."""
    calls = []
    run_range = KernelRunner.run_range
    vec_item_ops = dispatch._vec_item_ops

    def recording(self, *args):
        calls.append(dispatch._vec_item_ops is not vec_item_ops)
        return run_range(self, *args)

    monkeypatch.setattr(KernelRunner, "run_range", recording)
    return calls


def _split_parts(source, name, gsz, lsz, args, tier=contextlib.nullcontext):
    """Run ``multi_device_kernel_ns`` for one GPU+CPU split inside the
    *tier* context.

    List arguments become buffers.  Returns the per-device parts, every
    buffer's contents afterwards, and the tracer of the dispatch.
    """
    gpu, cpu = _gpu(), _cpu()
    ctx = Context([gpu, cpu])
    kernel = Program(ctx, source).build([gpu, cpu]).create_kernel(name)
    bufs = []
    for index, arg in enumerate(args):
        if isinstance(arg, list):
            dtype = "float" if isinstance(arg[0], float) else "int"
            arg = Buffer(ctx, len(arg), dtype,
                         flags=(READ_WRITE, COPY_HOST_PTR), host_data=arg)
            bufs.append(arg)
        kernel.set_arg(index, arg)
    shares = split_share_counts(
        gsz[-1] // lsz[-1], [device_weight(gpu.spec), device_weight(cpu.spec)]
    )
    assert all(shares)  # both devices take part
    with tier(), tracing() as tr:
        parts = multi_device_kernel_ns(
            kernel.runner(gpu), [gpu.spec, cpu.spec], shares,
            kernel.bound_entries(ctx), gsz, lsz,
        )
    return parts, [list(b.data) for b in bufs], tr


def _agrees_with_scalar(scalar_tier, *case):
    """Split *case* on the tier ladder and on the forced scalar tier;
    parts and buffers must be identical.  Returns the tracer of the
    tier-ladder run."""
    parts, contents, tr = _split_parts(*case)
    want_parts, want_contents, _ = _split_parts(*case, tier=scalar_tier)
    assert parts == want_parts
    assert contents == want_contents
    return tr


class TestSplitTierAgreement:
    """A split dispatch takes the single-device tier ladder, and every
    device's priced slice matches the scalar engine exactly."""

    def test_matmul_runs_vectorised(self, per_item_runs, scalar_tier):
        a, b = generate(N)
        tr = _agrees_with_scalar(
            scalar_tier, KERNEL_SOURCE, "matmul", (N, N), (8, 8),
            [a, b, [0.0] * N * N, N],
        )
        assert tr.counter("dispatch.fallback") == 0
        assert per_item_runs == [True]  # only the forced-scalar run

    def test_barrier_kernel_keeps_group_major_order(
        self, per_item_runs, scalar_tier
    ):
        w, h = 16, 32
        data = [(i * 37 + 11) % 23 for i in range(w * h)]
        tr = _agrees_with_scalar(
            scalar_tier, TILE_SCAN, "tile_scan", (w, h), (4, 4),
            [data, [0] * (w * h), w],
        )
        assert tr.counter("dispatch.fallback") == 0
        assert per_item_runs == [True]

    def test_iteration_cap_restores_buffers_and_demotes(
        self, monkeypatch, per_item_runs, scalar_tier
    ):
        kcache.clear()  # build under the tiny cap
        monkeypatch.setattr(npcodegen, "LOOP_ITER_CAP", 3)
        try:
            tr = _agrees_with_scalar(
                scalar_tier, CAPPED_LOOP, "accum", (512,), (8,), [[3] * 512]
            )
        finally:
            kcache.clear()  # no later test may reuse the capped build
        assert tr.counter("dispatch.fallback") == 1
        assert tr.counter("dispatch.fallback.iter-cap") == 1
        assert per_item_runs == [False, True]

    def test_vec_fault_demotes(self, per_item_runs, scalar_tier):
        a, b = generate(N)
        dispatch.configure(
            faults=FaultPlan([FaultSpec("vec", kind=TRANSIENT)])
        )
        try:
            tr = _agrees_with_scalar(
                scalar_tier, KERNEL_SOURCE, "matmul", (N, N), (8, 8),
                [a, b, [0.0] * N * N, N],
            )
        finally:
            faults.clear()
        assert tr.counter("dispatch.fallback") == 1
        assert tr.counter("dispatch.fallback.fault") == 1
        assert per_item_runs == [False, True]

    def test_small_ndrange_demotes(self, per_item_runs, scalar_tier):
        n = 8  # 64 work-items, under dispatch.VEC_MIN_ITEMS
        a, b = generate(n)
        tr = _agrees_with_scalar(
            scalar_tier, KERNEL_SOURCE, "matmul", (n, n), (2, 2),
            [a, b, [0.0] * n * n, n],
        )
        assert tr.counter("dispatch.fallback") == 1
        assert tr.counter("dispatch.fallback.small-ndrange") == 1
        assert per_item_runs == [False, True]


class TestBufferLifetime:
    def test_unreleased_context_frees_buffers_by_refcount(self):
        """A context dropped without ``release()`` does not pin its
        buffers: they die with the caller's last reference, with no
        cyclic garbage collection."""

        def split_and_drop():
            gpu, cpu = _gpu(), _cpu()
            ctx = Context([gpu, cpu])
            kernel, bufs = _matmul(ctx, [gpu, cpu])
            ctx.enqueue_nd_range(kernel, [N, N], [8, 8])
            return [weakref.ref(buf) for buf in bufs]

        gc.disable()
        try:
            refs = split_and_drop()
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()
