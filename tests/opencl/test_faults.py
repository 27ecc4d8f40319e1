"""Deterministic fault injection: plans, gates, retries, failover.

Covers the reliability tentpole end to end at the substrate level:
explicit and seeded fault plans, the per-operation gates (build,
transfers, dispatch, API calls, vectorised tier), bounded retry with
priced backoff, device loss with multi-device failover, and the
determinism guarantee (same plan + seed => bit-identical ledgers).
"""

import pytest

from repro import configure, current_config
from repro import opencl as cl
from repro.errors import (
    CLBuildProgramFailure,
    CLDeviceLost,
    CLInvalidValue,
    CLOutOfHostMemory,
    CLOutOfResources,
    CLTransferFailure,
)
from repro.opencl import dispatch
from repro.opencl.faults import (
    DEVICE_LOST,
    PERMANENT,
    TRANSIENT,
    Fault,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.trace import tracing

pytestmark = pytest.mark.faults

SRC = """
__kernel void fill(__global int *a, int v) {
    a[get_global_id(0)] = v;
}
"""


@pytest.fixture(autouse=True)
def _clean():
    cl.reset_platforms()
    yield
    cl.reset_platforms()


def gpu_context():
    device = cl.find_device("GPU")
    context = cl.Context([device])
    queue = cl.CommandQueue(context, device)
    return device, context, queue


def ledger_totals(ledger) -> dict:
    """Every ledger field, for bit-for-bit run comparisons."""
    return {
        "h2d_ns": ledger.h2d_ns,
        "d2h_ns": ledger.d2h_ns,
        "kernel_ns": ledger.kernel_ns,
        "host_ns": ledger.host_ns,
        "api_calls": ledger.api_calls,
        "kernel_launches": ledger.kernel_launches,
        "bytes_to_device": ledger.bytes_to_device,
        "bytes_from_device": ledger.bytes_from_device,
    }


class TestFaultSpec:
    def test_validates_op_and_kind(self):
        with pytest.raises(CLInvalidValue):
            FaultSpec("teleport")
        with pytest.raises(CLInvalidValue):
            FaultSpec("h2d", kind="catastrophic")
        with pytest.raises(CLInvalidValue):
            FaultSpec("h2d", times=0)

    def test_matches_window_and_key_pattern(self):
        spec = FaultSpec("kernel", key="fill@*", index=2, times=2)
        assert not spec.matches("kernel", "fill@gpu", 1)
        assert spec.matches("kernel", "fill@gpu", 2)
        assert spec.matches("kernel", "fill@gpu", 3)
        assert not spec.matches("kernel", "fill@gpu", 4)
        assert not spec.matches("kernel", "other@gpu", 2)
        assert not spec.matches("h2d", "fill@gpu", 2)


class TestFaultPlan:
    def test_explicit_spec_fires_at_coordinates(self):
        plan = FaultPlan([FaultSpec("h2d", key="buf1", index=1)])
        assert plan.decide("h2d", "buf1") is None
        fault = plan.decide("h2d", "buf1")
        assert fault == Fault("h2d", TRANSIENT, "buf1", 1)
        assert plan.injected == 1

    def test_seeded_draw_is_deterministic_and_reset_replays(self):
        plan = FaultPlan(seed=7, rate=0.5)
        first = [plan.decide("kernel", "k@dev") for _ in range(64)]
        plan.reset()
        second = [plan.decide("kernel", "k@dev") for _ in range(64)]
        assert first == second
        assert any(f is not None for f in first)
        assert any(f is None for f in first)

    def test_keys_are_independent_streams(self):
        plan = FaultPlan(seed=3, rate=0.5)
        a = [plan.decide("h2d", "bufA") for _ in range(32)]
        plan.reset()
        # Interleaving another key's stream does not disturb bufA's.
        b = []
        for _ in range(32):
            plan.decide("h2d", "bufB")
            b.append(plan.decide("h2d", "bufA"))
        assert a == b

    def test_validates_rate_kind_op(self):
        with pytest.raises(CLInvalidValue):
            FaultPlan(rate=1.5)
        with pytest.raises(CLInvalidValue):
            FaultPlan(kinds=("sideways",))
        with pytest.raises(CLInvalidValue):
            FaultPlan(ops=("teleport",))


class TestConfigure:
    def test_install_and_clear(self):
        plan = FaultPlan([FaultSpec("h2d")])
        with configure(faults=plan) as settings:
            assert settings.faults is plan
            assert current_config().faults is plan
            assert dispatch.configure()["faults"] is plan
        assert current_config().faults is None
        assert dispatch.configure()["faults"] is None

    def test_retry_policy_roundtrip(self):
        policy = RetryPolicy(max_attempts=5, backoff_ns=10.0)
        assert FaultPlan(retry=policy).retry is policy
        assert FaultPlan().retry == RetryPolicy()

    def test_rejects_wrong_types(self):
        with pytest.raises(CLInvalidValue):
            with configure(faults=42):
                pass
        with pytest.raises(CLInvalidValue):
            FaultPlan(retry="never")

    def test_omitting_arguments_changes_nothing(self):
        plan = FaultPlan([FaultSpec("h2d")])
        with configure(faults=plan), configure():
            assert dispatch.configure()["faults"] is plan


class TestTransferFaults:
    def test_transient_h2d_recovers_and_charges_retries(self):
        with configure(
            faults=FaultPlan(
                [FaultSpec("h2d", kind=TRANSIENT)],
                retry=RetryPolicy(max_attempts=3, backoff_ns=100.0),
            )
        ):
            _, context, queue = gpu_context()
            buf = cl.Buffer(context, 8, dtype="int")
            baseline_host = context.ledger.host_ns
            with tracing() as tracer:
                queue.enqueue_write_buffer(buf, [1, 2, 3, 4, 5, 6, 7, 8])
            out = [0] * 8
            queue.enqueue_read_buffer(buf, out)
            assert out == [1, 2, 3, 4, 5, 6, 7, 8]
            counters = tracer.counters()
            assert counters["fault.injected"] == 1
            assert counters["fault.injected.transient"] == 1
            assert counters["fault.retry"] == 1
            # One failed attempt charged as h2d, backoff charged as host.
            assert context.ledger.host_ns >= baseline_host + 100.0

    def test_permanent_d2h_raises_with_fault_metadata(self):
        with configure(
            faults=FaultPlan([FaultSpec("d2h", kind=PERMANENT)])
        ):
            _, context, queue = gpu_context()
            buf = cl.Buffer(context, 4, dtype="int")
            queue.enqueue_write_buffer(buf, [9, 9, 9, 9])
            with pytest.raises(CLTransferFailure) as info:
                queue.enqueue_read_buffer(buf, [0] * 4)
            assert info.value.transient is False
            assert info.value.fault.op == "d2h"

    def test_failed_write_does_not_mutate_the_buffer(self):
        with configure(
            faults=FaultPlan([FaultSpec("h2d", kind=PERMANENT, index=1)])
        ):
            _, context, queue = gpu_context()
            buf = cl.Buffer(context, 4, dtype="int")
            queue.enqueue_write_buffer(buf, [1, 2, 3, 4])
            with pytest.raises(CLTransferFailure):
                queue.enqueue_write_buffer(buf, [5, 6, 7, 8])
            out = [0] * 4
            queue.enqueue_read_buffer(buf, out)
            assert out == [1, 2, 3, 4]

    def test_retry_exhaustion_surfaces_original_kind(self):
        with configure(
            faults=FaultPlan(
                [FaultSpec("h2d", kind=TRANSIENT, times=10)],
                retry=RetryPolicy(max_attempts=3, backoff_ns=0.0),
            )
        ):
            _, context, queue = gpu_context()
            buf = cl.Buffer(context, 4, dtype="int")
            with tracing() as tracer:
                with pytest.raises(CLTransferFailure) as info:
                    queue.enqueue_write_buffer(buf, [1, 2, 3, 4])
            assert info.value.transient is True
            assert info.value.fault.kind == TRANSIENT
            assert tracer.counters()["fault.retry"] == 2  # attempts 2 and 3


class TestBufferOrdinals:
    def test_ordinal_not_reused_after_release(self):
        """Transfer fault keys are ``buf<ordinal>``: a buffer created
        after a release must not inherit a live buffer's key."""
        _, context, queue = gpu_context()
        b0 = cl.Buffer(context, 4, dtype="int")
        b1 = cl.Buffer(context, 4, dtype="int")
        b0.release()
        b2 = cl.Buffer(context, 4, dtype="int")
        assert [b0.ordinal, b1.ordinal, b2.ordinal] == [0, 1, 2]
        with configure(
            faults=FaultPlan([FaultSpec("h2d", kind=PERMANENT, key="buf1")])
        ):
            queue.enqueue_write_buffer(b2, [1, 2, 3, 4])
            with pytest.raises(CLTransferFailure):
                queue.enqueue_write_buffer(b1, [1, 2, 3, 4])


class TestKernelAndApiFaults:
    def test_kernel_fault_raises_out_of_resources(self):
        with configure(
            faults=FaultPlan([FaultSpec("kernel", kind=PERMANENT)])
        ):
            _, context, queue = gpu_context()
            program = cl.Program(context, SRC).build()
            kernel = program.create_kernel("fill")
            buf = cl.Buffer(context, 16, dtype="int")
            kernel.set_arg(0, buf)
            kernel.set_arg(1, 3)
            with pytest.raises(CLOutOfResources):
                queue.enqueue_nd_range_kernel(kernel, (16,))

    def test_api_fault_raises_out_of_host_memory(self):
        with configure(
            faults=FaultPlan([FaultSpec("api", kind=PERMANENT)]),
        ):
            _, context, _ = gpu_context()
            with pytest.raises(CLOutOfHostMemory):
                context.charge_api_call(name="clRetainContext")

    def test_transient_api_fault_recovers(self):
        with configure(
            faults=FaultPlan([FaultSpec("api", kind=TRANSIENT)]),
        ):
            _, context, _ = gpu_context()
            context.charge_api_call(name="clRetainContext")
            assert context.ledger.api_calls == 1

    def test_device_lost_api_fault_marks_no_device(self):
        """An API call names no device: the loss surfaces, nothing is
        marked lost."""
        with configure(
            faults=FaultPlan([FaultSpec("api", kind=DEVICE_LOST)]),
        ):
            device, context, _ = gpu_context()
            with pytest.raises(CLDeviceLost):
                context.charge_api_call(device, name="clRetainContext")
            assert not device.lost


class TestBuildFaults:
    def test_transient_build_recovers(self):
        with configure(
            faults=FaultPlan([FaultSpec("build", kind=TRANSIENT)])
        ):
            _, context, _ = gpu_context()
            program = cl.Program(context, SRC).build()
            assert program.is_built

    def test_permanent_build_raises_with_injected_log(self):
        with configure(
            faults=FaultPlan([FaultSpec("build", kind=PERMANENT, times=9)])
        ):
            _, context, _ = gpu_context()
            with pytest.raises(CLBuildProgramFailure) as info:
                cl.Program(context, SRC).build()
            assert "injected permanent build fault" in info.value.build_log
            assert info.value.fault.op == "build"

    def test_device_lost_build_loses_the_device(self):
        with configure(
            faults=FaultPlan([FaultSpec("build", kind=DEVICE_LOST)])
        ):
            device, context, _ = gpu_context()
            with pytest.raises(CLDeviceLost) as info:
                cl.Program(context, SRC).build()
            assert info.value.fault.op == "build"
            assert device.lost

    def test_faulted_build_charges_the_compile(self):
        with configure(
            faults=FaultPlan([FaultSpec("build", kind=TRANSIENT)])
        ):
            device, context, _ = gpu_context()
            cl.Program(context, SRC).build()
            # Two compile attempts charged (failed + succeeded).
            assert context.ledger.host_ns >= 2 * device.spec.compile_ns


def _fill_kernel(context, n):
    kernel = cl.Program(context, SRC).build().create_kernel("fill")
    kernel.set_arg(0, cl.Buffer(context, n, dtype="int"))
    kernel.set_arg(1, 3)
    return kernel


def _transfer_site(to_device):
    device, context, queue = gpu_context()
    buf = cl.Buffer(context, 8, dtype="int")
    queue.enqueue_write_buffer(buf, list(range(8)))
    if not to_device:
        queue.enqueue_read_buffer(buf, [0] * 8)
    op = "h2d" if to_device else "d2h"
    attempt_ns = device.spec.transfer_ns(buf.nbytes, to_device=to_device)
    return context, (f"fault.{op}", op, f"device/{device.name}",
                     attempt_ns, "buf0")


def _kernel_site():
    device, context, queue = gpu_context()
    queue.enqueue_nd_range_kernel(_fill_kernel(context, 16), (16,))
    return context, ("fault.kernel", "kernel", f"device/{device.name}",
                     device.spec.kernel_launch_ns, f"fill@{device.name}")


def _api_site():
    device, context, _ = gpu_context()
    context.charge_api_call(name="clRetainContext")
    return context, ("fault.clRetainContext", "host",
                     f"host/context-{context.id}", device.spec.api_call_ns,
                     "clRetainContext")


def _build_site():
    device, context, _ = gpu_context()
    cl.Program(context, SRC).build()
    return context, ("fault.build", "host", f"host/context-{context.id}",
                     device.spec.compile_ns, device.name)


def _split_site():
    devices = cl.get_platforms()[0].devices
    context = cl.Context(devices)
    context.enqueue_nd_range(_fill_kernel(context, 1024), (1024,), (64,))
    gpu = next(d for d in devices if d.device_type == "GPU")
    return context, ("fault.kernel", "kernel", f"device/{gpu.name}",
                     gpu.spec.kernel_launch_ns, f"fill@{gpu.name}")


#: site -> (the one transient fault, workload returning its context and
#: the expected attempt span's name, category, track, duration and key).
#: The split pins its key to the GPU so only one participant faults.
FAULT_SITES = {
    "h2d": (FaultSpec("h2d"), lambda: _transfer_site(True)),
    "d2h": (FaultSpec("d2h"), lambda: _transfer_site(False)),
    "kernel": (FaultSpec("kernel"), _kernel_site),
    "api": (FaultSpec("api"), _api_site),
    "build": (FaultSpec("build"), _build_site),
    "split": (FaultSpec("kernel", key="fill@*R9*"), _split_site),
}


class TestFaultSpans:
    @pytest.mark.parametrize("site", list(FAULT_SITES))
    def test_one_attempt_and_one_backoff_priced(self, site):
        spec, workload = FAULT_SITES[site]
        cl.reset_platforms()
        clean_context, _ = workload()
        expected = ledger_totals(clean_context.ledger)

        cl.reset_platforms()
        with configure(
            faults=FaultPlan(
                [spec], retry=RetryPolicy(max_attempts=3, backoff_ns=500.0)
            )
        ):
            with tracing() as tracer:
                context, (name, category, track, attempt_ns, key) = workload()
            attempts = [
                (s.category, s.track, s.dur_ns, s.args)
                for s in tracer.spans if s.name == name
            ]
            assert attempts == [
                (category, track, attempt_ns, {"key": key, "kind": TRANSIENT})
            ]
            backoffs = [
                (s.category, s.track, s.dur_ns)
                for s in tracer.spans if s.name == "fault.backoff"
            ]
            assert backoffs == [("host", f"host/context-{context.id}", 500.0)]
            assert tracer.counters()["fault.retry"] == 1
            expected[f"{category}_ns"] += attempt_ns
            expected["host_ns"] += 500.0
            assert ledger_totals(context.ledger) == pytest.approx(expected)


class TestDeviceLoss:
    def test_lost_device_refuses_new_work_but_drains_reads(self):
        with configure(
            faults=FaultPlan(
                [FaultSpec("kernel", kind=DEVICE_LOST)]
            )
        ):
            device, context, queue = gpu_context()
            program = cl.Program(context, SRC).build()
            kernel = program.create_kernel("fill")
            buf = cl.Buffer(context, 16, dtype="int")
            queue.enqueue_write_buffer(buf, [7] * 16)
            kernel.set_arg(0, buf)
            kernel.set_arg(1, 3)
            with pytest.raises(CLDeviceLost):
                queue.enqueue_nd_range_kernel(kernel, (16,))
            assert device.lost and not device.available
            with pytest.raises(CLDeviceLost):
                queue.enqueue_write_buffer(buf, [0] * 16)
            out = [0] * 16
            queue.enqueue_read_buffer(buf, out)
            assert out == [7] * 16

    def test_multi_device_dispatch_fails_over_to_survivors(self):
        with configure(
            faults=FaultPlan(
                [FaultSpec("kernel", kind=DEVICE_LOST, key="fill@*R9*")]
            )
        ):
            platform = cl.get_platforms()[0]
            context = cl.Context(platform.devices)
            program = cl.Program(context, SRC).build()
            kernel = program.create_kernel("fill")
            buf = cl.Buffer(context, 1024, dtype="int")
            kernel.set_arg(0, buf)
            kernel.set_arg(1, 5)
            with tracing() as tracer:
                events = context.enqueue_nd_range(kernel, (1024,), (64,))
            assert len(events) == 1  # whole range landed on the survivor
            out = [0] * 1024
            cpu = next(d for d in platform.devices if not d.lost)
            context.queue_for(cpu).enqueue_read_buffer(buf, out)
            assert out == [5] * 1024
            counters = tracer.counters()
            assert counters["fault.failover"] == 1
            assert counters["fault.injected.device-lost"] == 1

    def test_every_device_lost_raises(self):
        with configure(
            faults=FaultPlan(
                [FaultSpec("kernel", kind=DEVICE_LOST, key="fill@*")]
            )
        ):
            platform = cl.get_platforms()[0]
            context = cl.Context(platform.devices)
            program = cl.Program(context, SRC).build()
            kernel = program.create_kernel("fill")
            buf = cl.Buffer(context, 1024, dtype="int")
            kernel.set_arg(0, buf)
            kernel.set_arg(1, 5)
            with pytest.raises(CLDeviceLost):
                context.enqueue_nd_range(kernel, (1024,), (64,))
            with pytest.raises(CLDeviceLost):
                context.enqueue_nd_range(kernel, (1024,), (64,))


class TestVecTierDegrade:
    def test_vec_fault_degrades_with_identical_output_and_price(self):
        device, context, queue = gpu_context()
        program = cl.Program(context, SRC).build()
        kernel = program.create_kernel("fill")
        buf = cl.Buffer(context, 1024, dtype="int")
        kernel.set_arg(0, buf)
        kernel.set_arg(1, 9)
        queue.enqueue_nd_range_kernel(kernel, (1024,))
        clean_kernel_ns = context.ledger.kernel_ns
        reference = [0] * 1024
        queue.enqueue_read_buffer(buf, reference)

        with configure(
            faults=FaultPlan([FaultSpec("vec", kind=TRANSIENT)])
        ):
            context.reset_ledger()
            buf2 = cl.Buffer(context, 1024, dtype="int")
            kernel.set_arg(0, buf2)
            with tracing() as tracer:
                queue.enqueue_nd_range_kernel(kernel, (1024,))
            degraded = [0] * 1024
            queue.enqueue_read_buffer(buf2, degraded)
            assert degraded == reference
            assert context.ledger.kernel_ns == pytest.approx(clean_kernel_ns)
            counters = tracer.counters()
            assert counters["fault.injected"] == 1
            assert counters["fault.failover"] == 1
            assert counters["dispatch.fallback.fault"] == 1


class TestDeterminism:
    @staticmethod
    def _workload():
        """One faulted run on a fresh platform; returns its cost totals."""
        cl.reset_platforms()
        device = cl.find_device("GPU")
        context = cl.Context([device])
        queue = cl.CommandQueue(context, device)
        program = cl.Program(context, SRC).build()
        kernel = program.create_kernel("fill")
        buf = cl.Buffer(context, 256, dtype="int")
        out = [0] * 256
        for value in range(6):
            try:
                queue.enqueue_write_buffer(buf, [value] * 256)
                kernel.set_arg(0, buf)
                kernel.set_arg(1, value)
                queue.enqueue_nd_range_kernel(kernel, (256,))
                queue.enqueue_read_buffer(buf, out)
            except (CLTransferFailure, CLOutOfResources):
                pass
        return ledger_totals(context.ledger), list(out)

    def test_same_seed_same_ledger_bit_for_bit(self):
        plan = FaultPlan(seed=11, rate=0.3, kinds=(TRANSIENT, PERMANENT))
        with configure(faults=plan):
            first_totals, first_out = self._workload()
            plan.reset()
            second_totals, second_out = self._workload()
            assert first_totals == second_totals
            assert first_out == second_out
            assert plan.injected > 0

    def test_no_plan_matches_fault_free_run(self):
        clean_totals, clean_out = self._workload()
        with configure(faults=None):
            again_totals, again_out = self._workload()
        assert clean_totals == again_totals
        assert clean_out == again_out


class TestTracerSummary:
    def test_summary_counters_include_fault_namespace(self):
        with configure(
            faults=FaultPlan(
                [FaultSpec("h2d", kind=TRANSIENT)],
                retry=RetryPolicy(max_attempts=2, backoff_ns=1.0),
            )
        ):
            _, context, queue = gpu_context()
            buf = cl.Buffer(context, 8, dtype="int")
            with tracing() as tracer:
                queue.enqueue_write_buffer(buf, [0] * 8)
                summary = tracer.summary(with_counters=True)
            assert summary["counters"]["fault.injected"] == 1
            assert summary["counters"]["fault.retry"] == 1
