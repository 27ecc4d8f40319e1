"""KernelActor behaviour: dispatch automation, residency, errors."""

import builtins

import pytest

from repro.actors import (
    Actor,
    InPort,
    KernelActor,
    KernelRequest,
    ManagedArray,
    OutPort,
    Stage,
    connect,
    mov,
    run_kernel,
)
from repro.errors import ActorError
from repro.opencl import reset_platforms
from repro.runtime import device_matrix, reset_device_matrix

SQUARE = """
__kernel void square(__global float *a, __global float *out, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = a[i] * a[i]; }
}
"""


@pytest.fixture(autouse=True)
def _fresh():
    reset_platforms()
    reset_device_matrix()
    yield
    reset_device_matrix()
    reset_platforms()


class TestRunKernel:
    def test_basic_dispatch(self):
        n = 32
        result = run_kernel(
            SQUARE,
            "square",
            {"a": [float(i) for i in range(n)], "out": [0.0] * n, "n": n},
            worksize=[n],
        )
        out = result["out"]
        out = out.host() if isinstance(out, ManagedArray) else out
        assert out == [float(i * i) for i in range(n)]

    def test_explicit_groupsize(self):
        n = 16
        result = run_kernel(
            SQUARE,
            "square",
            {"a": [1.0] * n, "out": [0.0] * n, "n": n},
            worksize=[n],
            groupsize=[4],
        )
        assert result["out"].host() == [1.0] * n

    def test_missing_parameter_is_an_actor_error(self):
        with pytest.raises(ActorError, match="missing"):
            run_kernel(SQUARE, "square", {"a": [1.0]}, worksize=[1])

    def test_wrong_kernel_name(self):
        with pytest.raises(ActorError):
            run_kernel(SQUARE, "nope", {"a": [1.0]}, worksize=[1])

    def test_cpu_device(self):
        result = run_kernel(
            SQUARE,
            "square",
            {"a": [3.0], "out": [0.0], "n": 1},
            worksize=[1],
            device_type="CPU",
        )
        assert result["out"].host() == [9.0]
        env = device_matrix().environments()[0]
        assert env.device.device_type == "CPU"


class TestResidency:
    def test_movable_data_stays_on_device(self):
        n = 16
        stage = Stage()
        kernel = stage.spawn(KernelActor(SQUARE, "square", "GPU"))

        class Host(Actor):
            requests = OutPort()
            din = InPort()

            def behaviour(self) -> None:
                request = KernelRequest([n])
                dout = OutPort()
                connect(dout, request.input)
                connect(request.output, self.din)
                self.requests.send(request)
                data = {
                    "a": ManagedArray([2.0] * n, (n,)),
                    "out": ManagedArray.zeros(n),
                    "n": n,
                }
                dout.send(mov(data))
                self.received = self.din.receive().value
                self.stop()

        host = stage.spawn(Host())
        connect(host.requests, kernel.requests)
        device_matrix().reset_ledgers()
        stage.run(30)
        out = host.received["out"]
        assert out.on_device and not out.host_valid
        ledger = device_matrix().combined_ledger()
        assert ledger.bytes_from_device == 0
        assert out[0] == 4.0  # read-back happens here
        assert device_matrix().combined_ledger().bytes_from_device > 0

    def test_copy_semantics_sync_before_send(self):
        n = 8
        result = run_kernel(
            SQUARE,
            "square",
            {"a": [2.0] * n, "out": [0.0] * n, "n": n},
            worksize=[n],
            movable=False,
        )
        out = result["out"]
        # non-movable: host copy is already synchronised
        assert not out.on_device
        assert out.host() == [4.0] * n

    def test_write_only_output_not_uploaded(self):
        n = 64
        device_matrix().reset_ledgers()
        run_kernel(
            SQUARE,
            "square",
            {"a": [1.0] * n, "out": [0.0] * n, "n": n},
            worksize=[n],
        )
        ledger = device_matrix().combined_ledger()
        # only 'a' (n floats) crossed; 'out' was allocated without copy.
        assert ledger.bytes_to_device == n * 4

    def test_repeated_dispatch_through_same_actor(self):
        n = 4
        stage = Stage()
        kernel = stage.spawn(KernelActor(SQUARE, "square", "GPU"))

        class Host(Actor):
            requests = OutPort()
            din = InPort()

            def __init__(self) -> None:
                super().__init__()
                self.rounds = 0
                self.outs = []

            def behaviour(self) -> None:
                if self.rounds == 3:
                    self.stop()
                request = KernelRequest([n])
                dout = OutPort()
                connect(dout, request.input)
                connect(request.output, self.din)
                self.requests.send(request)
                value = float(self.rounds + 1)
                dout.send({"a": [value] * n, "out": [0.0] * n, "n": n})
                received = self.din.receive()
                self.outs.append(received["out"].host()[0])
                self.rounds += 1

        host = stage.spawn(Host())
        connect(host.requests, kernel.requests)
        stage.run(30)
        assert host.outs == [1.0, 4.0, 9.0]


class TestBarrierKernelsThroughActors:
    SOURCE = """
    __kernel void group_sum(__global float *data, __global float *sums) {
        __local float tile[8];
        int lid = get_local_id(0);
        tile[lid] = data[get_global_id(0)];
        barrier(CLK_LOCAL_MEM_FENCE);
        if (lid == 0) {
            float total = 0.0;
            for (int i = 0; i < 8; i++) { total += tile[i]; }
            sums[get_group_id(0)] = total;
        }
    }
    """

    def test_local_memory_kernel(self):
        data = [float(i) for i in range(16)]
        result = run_kernel(
            self.SOURCE,
            "group_sum",
            {"data": data, "sums": [0.0, 0.0]},
            worksize=[16],
            groupsize=[8],
        )
        assert result["sums"].host() == [sum(range(8)), sum(range(8, 16))]


class TestImportsPerRequest:
    def test_import_statements_do_not_grow_with_the_pipeline(self):
        """No dispatch or message runs an import statement: the count
        per LUD pipeline is the same at 8 and 16 (3n dispatches)."""
        from repro.apps import lud

        def imports(n):
            count = 0
            real = builtins.__import__

            def counting(*args, **kwargs):
                nonlocal count
                count += 1
                return real(*args, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(builtins, "__import__", counting)
                lud.run_actors(n)
            return count

        lud.run_actors(8)
        lud.run_actors(16)  # the first runs load what they need
        assert imports(8) == imports(16)
