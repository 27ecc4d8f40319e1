"""Property tests over random fault plans.

The reliability layer's contract, quantified over arbitrary seeded
plans:

* **replay** — the same plan under the same seed produces bit-identical
  ledgers and buffer contents, however dense the injections;
* **recovery** — transient-only plans that stay within the retry budget
  never surface an error and never corrupt outputs;
* **exhaustion** — when retries run out, the surfaced exception carries
  the original fault's kind and op;
* **failover** — a multi-device dispatch that loses a device produces
  the same buffer contents as the fault-free dispatch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import configure
from repro import opencl as cl
from repro.errors import CLError
from repro.opencl.faults import (
    DEVICE_LOST,
    PERMANENT,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)

pytestmark = pytest.mark.faults

SRC = """
__kernel void scale2(__global int *a, int n) {
    int i = get_global_id(0);
    if (i < n) { a[i] = a[i] * 2; }
}
"""


@pytest.fixture(autouse=True)
def _clean():
    cl.reset_platforms()
    yield
    cl.reset_platforms()


def run_workload(rounds: int = 4):
    """A small host-driven workload on a fresh platform.

    Returns (ledger fields, final buffer contents, error kinds seen) —
    everything a replay must reproduce exactly.
    """
    cl.reset_platforms()
    device = cl.find_device("GPU")
    context = cl.Context([device])
    queue = cl.CommandQueue(context, device)
    program = cl.Program(context, SRC).build()
    kernel = program.create_kernel("scale2")
    buf = cl.Buffer(context, 64, dtype="int")
    out = [0] * 64
    errors = []
    for value in range(rounds):
        try:
            queue.enqueue_write_buffer(buf, [value + 1] * 64)
            kernel.set_arg(0, buf)
            kernel.set_arg(1, 64)
            queue.enqueue_nd_range_kernel(kernel, (64,))
            queue.enqueue_read_buffer(buf, out)
        except CLError as exc:
            errors.append(
                (type(exc).__name__,
                 exc.fault.kind if exc.fault else None)
            )
    ledger = context.ledger
    fields = (
        ledger.h2d_ns, ledger.d2h_ns, ledger.kernel_ns, ledger.host_ns,
        ledger.api_calls, ledger.kernel_launches,
        ledger.bytes_to_device, ledger.bytes_from_device,
    )
    return fields, list(out), errors


plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**32),
    rate=st.floats(min_value=0.0, max_value=0.6),
    kinds=st.sampled_from([(TRANSIENT,), (PERMANENT,),
                           (TRANSIENT, PERMANENT)]),
    retry=st.just(RetryPolicy(max_attempts=2, backoff_ns=50.0)),
)


class TestReplay:
    @settings(deadline=None, max_examples=30)
    @given(plans)
    def test_same_seed_bit_identical_ledgers_and_outputs(self, plan):
        with configure(faults=plan):
            first = run_workload()
            plan.reset()
            second = run_workload()
        assert first == second


class TestRecovery:
    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from(["h2d", "d2h", "kernel"]),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=3))
    def test_transient_faults_within_budget_never_surface(
        self, op, burst, index
    ):
        # A burst of `burst` consecutive transient faults recovers as
        # long as the retry budget exceeds it (attempts > burst).
        with configure(
            faults=FaultPlan(
                [FaultSpec(op, kind=TRANSIENT, index=index, times=burst)],
                retry=RetryPolicy(max_attempts=burst + 1, backoff_ns=10.0),
            )
        ):
            _, out, errors = run_workload()
        assert errors == []
        assert out == [8] * 64  # last of 4 rounds writes 4, kernel doubles

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_recovered_or_not_outputs_never_corrupt(self, seed):
        # A seeded random plan may exhaust the retry budget (each retry
        # redraws), but every surfaced error must be transient-kind and
        # a clean run of the same workload must be unaffected after.
        _, clean_out, _ = run_workload()
        with configure(
            faults=FaultPlan(
                seed=seed, rate=0.25, kinds=(TRANSIENT,),
                retry=RetryPolicy(max_attempts=4, backoff_ns=0.0),
            )
        ):
            _, faulted_out, errors = run_workload()
        for name, kind in errors:
            assert kind == TRANSIENT
            assert name in ("CLTransferFailure", "CLOutOfResources")
        if not errors:
            assert faulted_out == clean_out
        _, after_out, after_errors = run_workload()
        assert after_errors == []
        assert after_out == clean_out


class TestExhaustion:
    @settings(deadline=None, max_examples=15)
    @given(st.sampled_from(["h2d", "d2h", "kernel"]),
           st.integers(min_value=1, max_value=3))
    def test_exhaustion_surfaces_original_fault_kind(self, op, attempts):
        with configure(
            faults=FaultPlan(
                [FaultSpec(op, kind=TRANSIENT, times=8)],
                retry=RetryPolicy(max_attempts=attempts, backoff_ns=0.0),
            )
        ):
            _, _, errors = run_workload(rounds=1)
        assert len(errors) == 1
        name, kind = errors[0]
        assert kind == TRANSIENT
        expected = {
            "h2d": "CLTransferFailure",
            "d2h": "CLTransferFailure",
            "kernel": "CLOutOfResources",
        }[op]
        assert name == expected


class TestFailover:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=5))
    def test_failover_output_equals_fault_free_output(self, occurrence):
        def split_dispatch():
            platform = cl.get_platforms()[0]
            context = cl.Context(platform.devices)
            program = cl.Program(context, SRC).build()
            kernel = program.create_kernel("scale2")
            buf = cl.Buffer(context, 512, dtype="int")
            survivor_queue = context.queue_for(platform.devices[0])
            survivor_queue.enqueue_write_buffer(buf, [3] * 512)
            kernel.set_arg(0, buf)
            kernel.set_arg(1, 512)
            for _ in range(occurrence + 1):
                context.enqueue_nd_range(kernel, (512,), (32,))
            out = [0] * 512
            survivor = next(
                d for d in platform.devices if not d.lost
            )
            context.queue_for(survivor).enqueue_read_buffer(buf, out)
            return out

        cl.reset_platforms()
        clean = split_dispatch()

        cl.reset_platforms()
        with configure(faults=FaultPlan([
            FaultSpec("kernel", kind=DEVICE_LOST, key="scale2@*R9*",
                      index=occurrence)
        ])):
            faulted = split_dispatch()
        assert faulted == clean
