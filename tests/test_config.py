"""The one runtime configuration: scoped ``repro.configure`` blocks.

Covers the contract of :mod:`repro.config`: a block installs its
changes and restores what it found, exception or not; ill-typed values
and unknown names are refused; two threads run under two
configurations at once without seeing each other's; and a scoped
harness run hands the caller's settings back.
"""

import sys
import threading

import pytest

from repro import RuntimeConfig, configure, current_config
from repro import opencl as cl
from repro.errors import CLInvalidValue
from repro.harness import chaos
from repro.opencl.faults import FaultPlan, FaultSpec
from repro.runtime import reset_device_matrix

SRC = """
__kernel void twice(__global float *a, __global float *b) {
    int i = get_global_id(0);
    b[i] = a[i] * 2.0;
}

__kernel void add1(__global float *b, __global float *c) {
    int i = get_global_id(0);
    c[i] = b[i] + 1.0;
}
"""

N = 64


@pytest.fixture(autouse=True)
def _clean():
    cl.reset_platforms()
    reset_device_matrix()
    yield
    cl.reset_platforms()
    reset_device_matrix()


class TestScope:
    def test_default_configuration(self):
        assert current_config().faults is None
        assert current_config().fusion is False
        assert current_config().out_of_order is False

    def test_block_installs_and_restores(self):
        plan = FaultPlan([FaultSpec("h2d")])
        with configure(fusion=True) as outer:
            assert current_config() is outer
            with configure(faults=plan) as inner:
                assert inner == RuntimeConfig(faults=plan, fusion=True)
            assert current_config() is outer
        assert current_config() == RuntimeConfig()

    def test_restores_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with configure(fusion=True, out_of_order=True):
                raise RuntimeError("boom")
        assert current_config() == RuntimeConfig()

    @pytest.mark.parametrize(
        "changes", [{"faults": 42}, {"fusion": 1}, {"out_of_order": "yes"}]
    )
    def test_ill_typed_values_raise_invalid_value(self, changes):
        with pytest.raises(CLInvalidValue):
            with configure(**changes):
                pass
        assert current_config() == RuntimeConfig()

    def test_unknown_name_raises_type_error(self):
        with pytest.raises(TypeError):
            with configure(retry=None):
                pass
        assert current_config() == RuntimeConfig()


def run_pair(barrier=None):
    """The fusable twice->add1 pair on a fresh GPU context; returns the
    context's ledger fields and the consumer's output."""
    device = cl.find_device("GPU")
    context = cl.Context([device])
    queue = cl.CommandQueue(context, device)
    program = cl.Program(context, SRC).build()
    a, b, c = (cl.Buffer(context, N) for _ in range(3))
    queue.enqueue_write_buffer(a, [float(i) for i in range(N)])
    twice = program.create_kernel("twice")
    twice.set_arg(0, a)
    twice.set_arg(1, b)
    add1 = program.create_kernel("add1")
    add1.set_arg(0, b)
    add1.set_arg(1, c)
    if barrier is not None:
        barrier.wait(timeout=10.0)
    queue.enqueue_nd_range_kernel(twice, [N])
    queue.enqueue_nd_range_kernel(add1, [N])
    out = [0.0] * N
    queue.enqueue_read_buffer(c, out)
    queue.finish()
    if barrier is not None:
        barrier.wait(timeout=10.0)
    ledger = context.ledger
    fields = {
        "h2d_ns": ledger.h2d_ns,
        "d2h_ns": ledger.d2h_ns,
        "kernel_ns": ledger.kernel_ns,
        "host_ns": ledger.host_ns,
        "api_calls": ledger.api_calls,
        "kernel_launches": ledger.kernel_launches,
        "bytes_to_device": ledger.bytes_to_device,
        "bytes_from_device": ledger.bytes_from_device,
    }
    return fields, out


class TestTwoThreads:
    def test_two_configurations_run_at_once(self):
        solo_plain = run_pair()
        with configure(fusion=True):
            solo_fused = run_pair()
        assert solo_fused[0]["kernel_launches"] == (
            solo_plain[0]["kernel_launches"] - 1
        )
        assert solo_fused[1] == solo_plain[1]

        # Two threads per configuration, more than the cores CI has, all
        # inside their blocks together and switching often.
        flags = [False, True, False, True]
        barrier = threading.Barrier(len(flags))
        results: list = [None] * len(flags)
        errors: list = []

        def worker(index, fusion):
            try:
                with configure(fusion=fusion):
                    results[index] = run_pair(barrier)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(i, fusion))
            for i, fusion in enumerate(flags)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for fusion, result in zip(flags, results):
            assert result == (solo_fused if fusion else solo_plain)
        assert current_config() == RuntimeConfig()


class TestScopedHarnessRuns:
    def test_chaos_run_restores_the_callers_settings(self):
        with configure(fusion=True):
            chaos.run_target("fig4", fusion=False, fig4_n=8)
            assert current_config().fusion is True
