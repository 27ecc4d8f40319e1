"""ManagedArray residency protocol (paper Section 6.2.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import configure
from repro.errors import RuntimeFault
from repro.opencl import (
    Buffer,
    CommandQueue,
    Context,
    Program,
    find_device,
    reset_platforms,
)
from repro.runtime import ManagedArray
from repro.runtime.oclenv import get_environment, reset_device_matrix


@pytest.fixture()
def gpu_queue():
    device = find_device("GPU")
    ctx = Context([device])
    return CommandQueue(ctx, device)


@pytest.fixture()
def fresh_matrix():
    reset_platforms()
    reset_device_matrix()
    yield
    reset_device_matrix()
    reset_platforms()


@pytest.fixture()
def cpu_queue():
    device = find_device("CPU")
    ctx = Context([device])
    return CommandQueue(ctx, device)


BUMP = """
__kernel void bump(__global float *a) {
    int i = get_global_id(0);
    a[i] = a[i] + 1.0;
}
"""


class TestShapes:
    def test_flat_and_shape_consistency(self):
        with pytest.raises(RuntimeFault):
            ManagedArray([1.0, 2.0], (3,))

    def test_from_nested(self):
        array = ManagedArray.from_nested([[1.0, 2.0], [3.0, 4.0]])
        assert array.shape == (2, 2)
        assert array[1, 0] == 3.0

    def test_ragged_nested_rejected(self):
        with pytest.raises(RuntimeFault):
            ManagedArray.from_nested([[1.0], [2.0, 3.0]])

    def test_tolist_round_trip(self):
        nested = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert ManagedArray.from_nested(nested).tolist() == nested

    def test_multi_dim_indexing(self):
        array = ManagedArray.zeros((2, 3, 4), "int")
        array[1, 2, 3] = 7
        assert array[1, 2, 3] == 7
        assert array.host()[1 * 12 + 2 * 4 + 3] == 7

    def test_out_of_bounds_rejected(self):
        array = ManagedArray.zeros((2, 2))
        with pytest.raises(RuntimeFault):
            _ = array[2, 0]

    def test_rank_mismatch_rejected(self):
        array = ManagedArray.zeros((2, 2))
        with pytest.raises(RuntimeFault):
            _ = array[1]

    def test_iteration_only_for_1d(self):
        assert list(ManagedArray([1.0, 2.0], (2,))) == [1.0, 2.0]
        with pytest.raises(RuntimeFault):
            list(ManagedArray.zeros((2, 2)))


class TestResidency:
    def test_to_device_uploads_once(self, gpu_queue):
        array = ManagedArray([1.0, 2.0, 3.0, 4.0], (4,))
        buf1 = array.to_device(gpu_queue)
        buf2 = array.to_device(gpu_queue)
        assert buf1 is buf2
        assert gpu_queue.context.ledger.bytes_to_device == 16

    def test_device_written_makes_device_authoritative(self, gpu_queue):
        array = ManagedArray([0.0] * 4, (4,))
        buf = array.to_device(gpu_queue)
        buf.np_view()[0] = 42.0  # simulate a kernel write
        array.mark_device_written()
        assert not array.host_valid
        assert array[0] == 42.0  # host access triggers read-back
        assert gpu_queue.context.ledger.bytes_from_device == 16

    def test_host_access_returns_device_memory(self, gpu_queue):
        array = ManagedArray([0.0] * 4, (4,))
        buf = array.to_device(gpu_queue)
        array.mark_device_written()
        array.sync_host()
        assert buf.released
        assert not array.on_device

    def test_no_copy_upload_for_write_only_buffers(self, gpu_queue):
        array = ManagedArray([0.0] * 1024, (1024,))
        array.to_device(gpu_queue, copy=False)
        assert gpu_queue.context.ledger.bytes_to_device == 0
        assert array.on_device

    def test_cross_context_migration(self, gpu_queue, cpu_queue):
        array = ManagedArray([1.0, 2.0], (2,))
        gpu_buf = array.to_device(gpu_queue)
        gpu_buf.np_view()[0] = 9.0
        array.mark_device_written()
        # Arriving at a different context forces read-back + re-upload.
        cpu_buf = array.to_device(cpu_queue)
        assert gpu_buf.released
        assert cpu_buf.context is cpu_queue.context
        assert cpu_buf.data[0] == 9.0
        assert gpu_queue.context.ledger.bytes_from_device == 8
        assert cpu_queue.context.ledger.bytes_to_device == 8

    def test_read_back_after_a_mode_switch(self, fresh_matrix):
        """An out-of-order switch releases the device's queue; a device
        copy recorded on it reads back through its successor."""
        env = get_environment("GPU")
        old_queue = env.queue
        kernel = Program(env.context, BUMP).build().create_kernel("bump")
        array = ManagedArray([1.0, 2.0, 3.0, 4.0], (4,))
        kernel.set_arg(0, array.to_device(old_queue))
        old_queue.enqueue_nd_range_kernel(kernel, [4])
        array.mark_device_written()
        with configure(out_of_order=True):
            new_queue = get_environment("GPU").queue
        assert old_queue.released and new_queue is not old_queue
        assert array.host() == [2.0, 3.0, 4.0, 5.0]
        assert env.context.ledger.bytes_from_device == 16

    def test_mark_written_requires_device_copy(self):
        array = ManagedArray([1.0], (1,))
        with pytest.raises(RuntimeFault):
            array.mark_device_written()

    def test_clone_preserves_values_without_stealing_residency(
        self, gpu_queue
    ):
        array = ManagedArray([1.0, 2.0], (2,))
        buf = array.to_device(gpu_queue)
        buf.np_view()[1] = 5.0
        array.mark_device_written()
        clone = array.clone()
        assert clone.host() == [1.0, 5.0]
        assert not clone.on_device
        assert array.on_device  # original keeps its buffer

    def test_writes_invalidate_nothing_on_pure_host_array(self):
        array = ManagedArray([1.0], (1,))
        array[0] = 3.0
        assert array.host() == [3.0]


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=32,
    )
)
def test_property_device_round_trip_is_identity(values):
    device = find_device("GPU")
    ctx = Context([device])
    queue = CommandQueue(ctx, device)
    array = ManagedArray(list(values), (len(values),))
    array.to_device(queue)
    array.mark_device_written()
    assert array.host() == list(values)
