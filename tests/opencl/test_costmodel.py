"""Cost-model unit tests: warps, scheduling, transfers, ledgers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.opencl.costmodel import (
    CostLedger,
    SimClock,
    group_warp_costs,
    _schedule,
    cpu_spec,
    gpu_spec,
)


class TestWarpGrouping:
    def test_uniform_items_one_group(self):
        warps = group_warp_costs([5] * 8, [8], [8], simd=4)
        assert warps == [[5, 5]]

    def test_divergence_pays_warp_max(self):
        warps = group_warp_costs([1, 100, 1, 1], [4], [4], simd=4)
        assert warps == [[100]]

    def test_groups_partition_linear_items(self):
        # 8 items, 2 groups of 4, simd 2.
        item_ops = [1, 2, 3, 4, 10, 20, 30, 40]
        warps = group_warp_costs(item_ops, [8], [4], simd=2)
        assert warps == [[2, 4], [20, 40]]

    def test_2d_grouping_respects_tiles(self):
        # 4x2 range with 2x2 tiles: two groups.
        #   items row0: a b c d / row1: e f g h
        item_ops = [1, 2, 3, 4, 5, 6, 7, 8]
        warps = group_warp_costs(item_ops, [4, 2], [2, 2], simd=4)
        # group 0 holds (0,0),(1,0),(0,1),(1,1) = 1,2,5,6
        assert sorted(map(max, warps)) == [6, 8]

    def test_item_count_preserved(self):
        warps = group_warp_costs(list(range(24)), [6, 4], [3, 2], simd=2)
        total_items = sum(
            len(w) for group in warps for w in [group]
        )
        assert len(warps) == (6 // 3) * (4 // 2)


class TestScheduler:
    def test_single_cu_serialises(self):
        assert _schedule([3.0, 4.0, 5.0], 1) == 12.0

    def test_many_cus_parallelise(self):
        assert _schedule([3.0, 4.0, 5.0], 3) == 5.0

    def test_greedy_balancing(self):
        # 4 groups on 2 CUs: greedy earliest-free.
        assert _schedule([4.0, 3.0, 2.0, 1.0], 2) == 5.0

    def test_empty(self):
        assert _schedule([], 8) == 0.0


class TestKernelPricing:
    def test_more_lanes_is_faster(self):
        small = gpu_spec(0.05)
        big = gpu_spec(1.0)
        items = [10] * 1024
        t_small = small.kernel_ns(items, [1024], [64]) - small.kernel_launch_ns
        t_big = big.kernel_ns(items, [1024], [64]) - big.kernel_launch_ns
        assert t_big < t_small

    def test_launch_overhead_floor(self):
        spec = gpu_spec(1.0)
        assert spec.kernel_ns([1], [1], [1]) >= spec.kernel_launch_ns

    def test_divergent_workload_costs_more_than_uniform(self):
        spec = gpu_spec(0.2)
        n = 512
        uniform = [50] * n
        divergent = [1] * n
        divergent[:: spec.simd_width] = [
            50 * spec.simd_width // spec.simd_width
        ] * (n // spec.simd_width)
        # same max per warp but far less total work: price must still
        # charge the warp max, so both cost the same per warp
        t_uniform = spec.kernel_ns(uniform, [n], [64])
        t_divergent = spec.kernel_ns(divergent, [n], [64])
        assert t_divergent == pytest.approx(t_uniform)


class TestTransfers:
    def test_transfer_scales_with_bytes(self):
        spec = gpu_spec(1.0)
        t1 = spec.transfer_ns(1000, to_device=True)
        t2 = spec.transfer_ns(2000, to_device=True)
        assert t2 > t1
        assert t2 - t1 == pytest.approx(1000 / spec.h2d_bytes_per_ns)

    def test_latency_floor(self):
        spec = gpu_spec(1.0)
        assert spec.transfer_ns(0, True) == spec.transfer_latency_ns

    def test_asymmetric_link(self):
        spec = gpu_spec(1.0)
        assert spec.h2d_bytes_per_ns != spec.d2h_bytes_per_ns


class TestClockAndLedger:
    def test_clock_accumulates(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now_ns == 7.5

    def test_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_clock_thread_safety(self):
        import threading

        clock = SimClock()

        def bump():
            for _ in range(1000):
                clock.advance(1.0)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert clock.now_ns == 8000.0

    def test_ledger_categories(self):
        ledger = CostLedger()
        ledger.charge("h2d", 1.0)
        ledger.charge("d2h", 2.0)
        ledger.charge("kernel", 3.0)
        ledger.charge("host", 4.0)
        assert ledger.total_ns == 10.0
        assert ledger.breakdown() == {
            "to_device": 1.0,
            "from_device": 2.0,
            "kernel": 3.0,
            "overhead": 4.0,
        }

    def test_ledger_rejects_unknown_category(self):
        with pytest.raises(ValueError):
            CostLedger().charge("magic", 1.0)


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(st.integers(1, 100), min_size=1, max_size=64),
    cus=st.integers(1, 8),
)
def test_property_makespan_bounds(ops, cus):
    """Makespan is between max(group) and sum(groups) for any schedule."""
    costs = [float(o) for o in ops]
    makespan = _schedule(costs, cus)
    assert makespan >= max(costs) - 1e-9
    assert makespan <= sum(costs) + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    item_ops=st.lists(st.integers(0, 50), min_size=8, max_size=8),
    simd=st.sampled_from([1, 2, 4, 8]),
)
def test_property_warp_max_dominates(item_ops, simd):
    """Total warp-priced work is >= the true total / simd and >= max."""
    warps = group_warp_costs(item_ops, [8], [8], simd)
    priced = sum(sum(w) * simd for w in warps)
    assert priced >= sum(item_ops)
    if any(item_ops):
        assert max(max(w) for w in warps) == max(item_ops)
