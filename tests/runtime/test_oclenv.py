"""The runtime device matrix: one command queue per device (S 6.2.1)."""

import pytest

from repro.errors import CLInvalidDevice
from repro.opencl import reset_platforms
from repro.runtime.oclenv import (
    device_matrix,
    get_environment,
    reset_device_matrix,
)


@pytest.fixture(autouse=True)
def _fresh_matrix():
    reset_platforms()
    reset_device_matrix()
    yield
    reset_device_matrix()
    reset_platforms()


class TestEnvironments:
    def test_environment_lazily_created(self):
        assert device_matrix().environments() == []
        env = get_environment("GPU")
        assert env.device.device_type == "GPU"
        assert len(device_matrix().environments()) == 1

    def test_single_queue_per_device(self):
        env1 = get_environment("GPU")
        env2 = get_environment("GPU")
        assert env1.queue is env2.queue
        assert env1.context is env2.context

    def test_distinct_devices_get_distinct_contexts(self):
        gpu = get_environment("GPU")
        cpu = get_environment("CPU")
        assert gpu.context is not cpu.context
        assert gpu.queue is not cpu.queue

    def test_bad_indices_rejected(self):
        with pytest.raises(CLInvalidDevice):
            get_environment("GPU", device_index=7)
        with pytest.raises(CLInvalidDevice):
            get_environment("GPU", platform_index=3)

    def test_fallback_when_type_missing(self):
        # Requesting an absent type falls back to any device, as real
        # OpenCL runtimes commonly do.
        env = get_environment("ACCELERATOR")
        assert env.device is not None


class TestLedgers:
    def test_combined_ledger_sums_devices(self):
        gpu = get_environment("GPU")
        cpu = get_environment("CPU")
        gpu.context.charge("kernel", 10.0)
        cpu.context.charge("kernel", 5.0)
        assert device_matrix().combined_ledger().kernel_ns == 15.0

    def test_reset_ledgers(self):
        env = get_environment("GPU")
        env.context.charge("host", 10.0)
        device_matrix().reset_ledgers()
        assert device_matrix().combined_ledger().total_ns == 0.0

    def test_reset_matrix_drops_environments(self):
        get_environment("GPU")
        reset_device_matrix()
        assert device_matrix().environments() == []
