"""Property tests for the deterministic cost model.

The cost model is the paper substitute for real hardware, so its
invariants carry the whole evaluation: pricing must be deterministic,
monotone in the amount of work, pay for SIMD divergence as the max of a
warp's lanes, and price transfers as latency + bytes/bandwidth with
asymmetric host-to-device / device-to-host links.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opencl.costmodel import (
    DeviceSpec,
    cpu_spec,
    gpu_spec,
    group_warp_costs,
    _schedule,
)


def make_spec(compute_units=2, simd_width=4, ops_per_ns=1.0,
              kernel_launch_ns=100.0):
    return DeviceSpec(
        name="prop-test device",
        device_type="GPU",
        compute_units=compute_units,
        simd_width=simd_width,
        ops_per_ns=ops_per_ns,
        h2d_bytes_per_ns=12.0,
        d2h_bytes_per_ns=10.0,
        transfer_latency_ns=400.0,
        kernel_launch_ns=kernel_launch_ns,
        api_call_ns=300.0,
        compile_ns=1000.0,
        max_work_group_size=256,
    )


@st.composite
def ndrange_1d(draw):
    """A 1-D dispatch: (item_ops, global_size, local_size)."""
    local = draw(st.integers(min_value=1, max_value=8))
    groups = draw(st.integers(min_value=1, max_value=6))
    n = local * groups
    item_ops = draw(
        st.lists(st.integers(min_value=0, max_value=100),
                 min_size=n, max_size=n)
    )
    return item_ops, (n,), (local,)


class TestDeterminism:
    @settings(deadline=None)
    @given(ndrange_1d(),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=8))
    def test_kernel_pricing_is_deterministic(self, dispatch, cu, simd):
        item_ops, gsz, lsz = dispatch
        spec = make_spec(compute_units=cu, simd_width=simd)
        first = spec.kernel_ns(item_ops, gsz, lsz)
        assert all(
            spec.kernel_ns(item_ops, gsz, lsz) == first for _ in range(3)
        )

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 20),
           st.booleans())
    def test_transfer_pricing_is_deterministic(self, nbytes, to_device):
        spec = make_spec()
        first = spec.transfer_ns(nbytes, to_device)
        assert spec.transfer_ns(nbytes, to_device) == first


class TestMonotonicity:
    @settings(deadline=None)
    @given(ndrange_1d(),
           st.data(),
           st.integers(min_value=1, max_value=50))
    def test_more_ops_per_item_never_cheaper(self, dispatch, data, delta):
        item_ops, gsz, lsz = dispatch
        spec = make_spec()
        base = spec.kernel_ns(item_ops, gsz, lsz)
        idx = data.draw(
            st.integers(min_value=0, max_value=len(item_ops) - 1)
        )
        bumped = list(item_ops)
        bumped[idx] += delta
        assert spec.kernel_ns(bumped, gsz, lsz) >= base

    @settings(deadline=None)
    @given(ndrange_1d(), st.data())
    def test_more_work_items_never_cheaper(self, dispatch, data):
        """Appending one more work-group can only grow the makespan."""
        item_ops, (n,), (local,) = dispatch
        spec = make_spec()
        base = spec.kernel_ns(item_ops, (n,), (local,))
        extra = data.draw(
            st.lists(st.integers(min_value=0, max_value=100),
                     min_size=local, max_size=local)
        )
        grown = item_ops + extra
        assert spec.kernel_ns(grown, (n + local,), (local,)) >= base

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 20),
           st.integers(min_value=1, max_value=4096),
           st.booleans())
    def test_more_bytes_never_cheaper(self, nbytes, extra, to_device):
        spec = make_spec()
        assert (spec.transfer_ns(nbytes + extra, to_device)
                > spec.transfer_ns(nbytes, to_device))


class TestWarpDivergence:
    @settings(deadline=None)
    @given(ndrange_1d(),
           st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.25, max_value=4.0))
    def test_single_cu_cost_is_sum_of_warp_maxima(
        self, dispatch, simd, ops_per_ns
    ):
        """With one compute unit there is no scheduling freedom: the
        kernel costs launch + (sum over warps of max lane ops) / rate."""
        item_ops, gsz, lsz = dispatch
        spec = make_spec(compute_units=1, simd_width=simd,
                         ops_per_ns=ops_per_ns)
        local = lsz[0]
        expected_ops = 0
        for g in range(0, len(item_ops), local):
            group = item_ops[g:g + local]
            for w in range(0, local, simd):
                expected_ops += max(group[w:w + simd])
        expected = spec.kernel_launch_ns + expected_ops / ops_per_ns
        assert spec.kernel_ns(item_ops, gsz, lsz) == pytest.approx(expected)

    @settings(deadline=None)
    @given(ndrange_1d(), st.integers(min_value=2, max_value=8))
    def test_lanes_below_warp_max_are_free(self, dispatch, simd):
        """Divergence is priced as max-of-lanes: raising every lane of a
        warp to that warp's maximum changes nothing."""
        item_ops, gsz, lsz = dispatch
        spec = make_spec(simd_width=simd)
        local = lsz[0]
        levelled = []
        for g in range(0, len(item_ops), local):
            group = item_ops[g:g + local]
            for w in range(0, local, simd):
                warp = group[w:w + simd]
                levelled.extend([max(warp)] * len(warp))
        assert (spec.kernel_ns(levelled, gsz, lsz)
                == spec.kernel_ns(item_ops, gsz, lsz))

    def test_group_warp_costs_unit_example(self):
        # two groups of 4, simd 2: warps (3,1) (4,4) / (0,2) (5,0)
        warps = group_warp_costs(
            [3, 1, 4, 4, 0, 2, 5, 0], (8,), (4,), 2
        )
        assert warps == [[3, 4], [2, 5]]


@st.composite
def group_warp_arrays(draw):
    """Per-group warp op maxima: every group has the same warp count."""
    groups = draw(st.integers(min_value=1, max_value=12))
    warps = draw(st.integers(min_value=1, max_value=8))
    row = st.lists(st.integers(min_value=0, max_value=1 << 20),
                   min_size=warps, max_size=warps)
    return draw(st.lists(row, min_size=groups, max_size=groups))


class TestGroupWarpPricing:
    @settings(deadline=None)
    @given(group_warp_arrays(),
           st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.01, max_value=100.0))
    def test_numpy_sums_price_exactly_as_the_reference_loop(
        self, warps, cu, ops_per_ns
    ):
        """Folded warp arrays are summed per group in numpy; the price
        must equal the reference loop's bit for bit."""
        spec = make_spec(compute_units=cu, ops_per_ns=ops_per_ns)
        reference = (
            _schedule([sum(w) / spec.ops_per_ns for w in warps], cu)
            + spec.kernel_launch_ns
        )
        folded = np.array(warps, dtype=np.int64)
        assert spec.kernel_ns_from_group_warps(folded) == reference
        assert spec.kernel_ns_from_group_warps(warps) == reference


class TestTransferAsymmetry:
    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 24))
    def test_transfer_is_latency_plus_bytes_over_bandwidth(self, nbytes):
        spec = make_spec()
        assert spec.transfer_ns(nbytes, to_device=True) == (
            spec.transfer_latency_ns + nbytes / spec.h2d_bytes_per_ns
        )
        assert spec.transfer_ns(nbytes, to_device=False) == (
            spec.transfer_latency_ns + nbytes / spec.d2h_bytes_per_ns
        )

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=1 << 24))
    def test_h2d_and_d2h_are_asymmetric_on_the_gpu(self, nbytes):
        spec = gpu_spec()
        assert spec.h2d_bytes_per_ns != spec.d2h_bytes_per_ns
        assert (spec.transfer_ns(nbytes, to_device=True)
                != spec.transfer_ns(nbytes, to_device=False))

    def test_cpu_link_is_symmetric(self):
        spec = cpu_spec()
        assert spec.h2d_bytes_per_ns == spec.d2h_bytes_per_ns


class TestScheduler:
    @settings(deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6),
                    max_size=32),
           st.integers(min_value=1, max_value=8))
    def test_makespan_bounds(self, group_ns, cu):
        makespan = _schedule(group_ns, cu)
        total = sum(group_ns)
        longest = max(group_ns, default=0.0)
        assert makespan >= longest
        assert makespan >= total / cu - 1e-6
        assert makespan <= total + 1e-6

    @settings(deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6),
                    max_size=32))
    def test_single_cu_is_serial(self, group_ns):
        assert _schedule(group_ns, 1) == sum(group_ns)
