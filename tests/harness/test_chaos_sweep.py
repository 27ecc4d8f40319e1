"""The end-to-end chaos sweep: figure regeneration under fault plans.

Drives :func:`repro.harness.chaos.chaos_sweep` over the default matrix
at smoke sizes — every Figure 3 chart and the Figure-4 pipeline
regenerated under transient/permanent/device-lost plans at each
injection site, fusion off and on.  The sweep itself enforces the three
chaos invariants per cell (bit-identical buffers, exact Fraction
recovery-cost delta, bit-for-bit replay); the tests here pin the matrix
shape, that every cell actually injects, and the cross-device failover
path that sits outside the exact-delta matrix.
"""

import pytest

from repro import configure
from repro import opencl as cl
from repro.apps.lud import runners as lud
from repro.harness.chaos import (
    FIGURE_TARGETS,
    TARGETS,
    chaos_sweep,
    default_matrix,
    run_target,
)
from repro.harness.figures import scaled_devices
from repro.opencl.faults import (
    DEVICE_LOST,
    PERMANENT,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
)
from repro.runtime import reset_device_matrix
from repro.trace import tracing

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def _clean():
    cl.reset_platforms()
    reset_device_matrix()
    yield
    cl.reset_platforms()
    reset_device_matrix()


class TestMatrixShape:
    def test_matrix_is_broad_enough(self):
        matrix = default_matrix()
        names = [cell.name for cell in matrix]
        # The acceptance floor: at least 12 distinct plans.
        assert len(set(names)) == len(names) >= 12
        # Every injection site of the substrate *and* the VM/Ensemble
        # path appears, under both fusion settings.
        ops = {spec.op for cell in matrix for spec in cell.specs}
        assert ops == {
            "h2d", "d2h", "kernel", "api", "build",
            "native", "vm", "handoff", "vec",
        }
        assert {cell.fusion for cell in matrix} == {False, True}
        kinds = {spec.kind for cell in matrix for spec in cell.specs}
        assert kinds == {TRANSIENT, PERMANENT, DEVICE_LOST}
        # Coverage spans all five Figure 3 charts plus Figure 4.
        targets = {cell.target for cell in matrix}
        assert set(FIGURE_TARGETS) <= targets
        assert "fig4" in targets

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos target"):
            run_target("fig5")

    def test_targets_cover_figure_series(self):
        assert TARGETS == ("3a", "3b", "3c", "3d", "3e", "fig4")


class TestSweep:
    def test_default_matrix_smoke_sweep_holds_all_invariants(self):
        """The acceptance sweep: >= 12 plans, all inject, all three
        invariants enforced (the sweep raises on any violation)."""
        report = chaos_sweep(sizes="smoke")
        assert len(report.cells) == len(default_matrix()) >= 24
        zero = [cell.plan.name for cell in report.cells if not cell.injected]
        assert zero == [], f"cells that never injected: {zero}"
        assert report.injected > 0
        # Recovery is priced: transient cells charge backoff + attempts.
        assert any(cell.recovery_ns > 0 for cell in report.cells)
        # And the delta equals the recovery charge in every cell.
        for cell in report.cells:
            assert cell.delta_ns == cell.recovery_ns

    def test_single_cell_without_replay(self):
        cell = default_matrix()[0]
        report = chaos_sweep(matrix=[cell], sizes="smoke", replay=False)
        assert len(report.cells) == 1
        assert report.cells[0].injected >= 1


class TestDeviceLostFailover:
    """Cross-device failover re-prices on the survivor, so it sits
    outside the exact-delta matrix: assert invariants (a) and (c)."""

    N = 8

    def _run(self, plan=None):
        cl.reset_platforms()
        reset_device_matrix()
        if plan is not None:
            plan.reset()
        with configure(faults=plan):
            with scaled_devices(0.08, 2048 / self.N):
                with tracing() as tracer:
                    outcome = lud.run_actors(self.N, "GPU", movable=True)
        return outcome, tracer.counters()

    def test_mid_pipeline_device_loss_keeps_buffers_identical(self):
        clean, _ = self._run()
        # Pin the key to the GPU: per-device occurrence streams both
        # start at 0, so a bare `lud_scale@*` would kill the failover
        # device's retry as well and strand the pipeline.
        plan = FaultPlan(
            [FaultSpec("kernel", kind=DEVICE_LOST, key="lud_scale@GPU*")]
        )
        faulted, counters = self._run(plan)
        assert plan.injected == 1
        assert counters["fault.failover"] >= 1
        # (a) bit-identical buffers despite the mid-pipeline loss.
        assert faulted.result == clean.result
        assert faulted.meta["m"] == clean.meta["m"]
        # (c) the faulted run replays bit-for-bit under the same plan.
        again, _ = self._run(plan)
        assert again.result == faulted.result
        assert again.meta["m"] == faulted.meta["m"]
        assert again.breakdown == faulted.breakdown
