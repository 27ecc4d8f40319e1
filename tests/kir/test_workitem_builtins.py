"""Work-item builtins agree across the interpreter, the scalar engine and
the vectorised tier, including ``get_work_dim()`` and dimension
arguments past the dispatch's real dimension count (OpenCL returns 0
for every ``*_id`` builtin there and 1 for the sizes)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import kernelc, kir
from repro.opencl import Buffer, CommandQueue, Context, Program, find_device
from repro.trace import tracing

BUILTINS = (
    "get_global_id",
    "get_local_id",
    "get_group_id",
    "get_global_size",
    "get_local_size",
    "get_num_groups",
)
PROBES = [(name, d) for name in BUILTINS for d in range(4)]

LINEAR_ID = """
    int i = (get_global_id(2) * get_global_size(1) + get_global_id(1))
            * get_global_size(0) + get_global_id(0);
"""

WORK_DIM = "__kernel void wd(__global int *out) {" + LINEAR_ID + """
    out[i] = get_work_dim();
}
"""

# Group mode: local memory routes the dispatch through the lock-step
# generator engine instead of the warp-fold.
WORK_DIM_LOCAL = "__kernel void wdl(__global int *out) {" + LINEAR_ID + """
    __local int seen[1];
    seen[0] = get_work_dim();
    barrier(CLK_LOCAL_MEM_FENCE);
    out[i] = seen[0] * 10 + get_work_dim();
}
"""

IDS = (
    "__kernel void ids(__global int *out) {" + LINEAR_ID
    + f"    int base = i * {len(PROBES)};\n"
    + "".join(
        f"    out[base + {k}] = {name}({d});\n"
        for k, (name, d) in enumerate(PROBES)
    )
    + "}\n"
)

RANGES = {
    1: ((8,), (4,)),
    2: ((4, 6), (2, 3)),
    3: ((4, 2, 2), (2, 1, 2)),
}


def _items(gsz):
    return int(np.prod(gsz))


def _interpreter(source, name, gsz, lsz, width=1):
    """Run every work-item through :class:`repro.kir.Interpreter` with
    the dispatch's own (unpadded) dimension count.  Items run one at a
    time, each with its own ``__local`` arrays, which the kernels here
    write before they read."""
    compiled = kernelc.build(source)
    fn = compiled.module.kernel(name)
    out = [0] * (_items(gsz) * width)
    interp = kir.Interpreter(compiled.module)
    for rev in itertools.product(*(range(g) for g in reversed(gsz))):
        gid = tuple(reversed(rev))
        lid = tuple(g % l for g, l in zip(gid, lsz))
        grp = tuple(g // l for g, l in zip(gid, lsz))
        wi = kir.WorkItem(gid, lid, grp, gsz, lsz)
        for _ in interp.run_workitem(fn, [out], wi):
            pass
    return out


def _scalar(source, name, gsz, lsz, width=1):
    out = [0] * (_items(gsz) * width)
    kernelc.build(source).kernel_runner(name).run_range([out], gsz, lsz)
    return out


def _vec(source, name, gsz, lsz, width=1):
    runner = kernelc.build(source).kernel_runner(name)
    assert runner.vec is not None, runner.vec_reason
    out = np.zeros(_items(gsz) * width, dtype=np.int64)
    runner.vec.run_item_ops([out], gsz, lsz)
    return out.tolist()


def _enqueue(source, name, gsz, lsz):
    device = find_device("GPU")
    ctx = Context([device])
    queue = CommandQueue(ctx, device)
    kernel = Program(ctx, source).build().create_kernel(name)
    buf = Buffer(ctx, _items(gsz), "int")
    kernel.set_arg(0, buf)
    queue.enqueue_nd_range_kernel(kernel, list(gsz), list(lsz))
    queue.finish()
    return list(buf.data)


class TestWorkDim:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("engine", [_interpreter, _scalar, _vec])
    def test_engines_return_the_dispatch_dimension(self, engine, dim):
        gsz, lsz = RANGES[dim]
        assert engine(WORK_DIM, "wd", gsz, lsz) == [dim] * _items(gsz)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("engine", [_interpreter, _scalar, _vec])
    def test_group_mode_engines(self, engine, dim):
        gsz, lsz = RANGES[dim]
        assert engine(WORK_DIM_LOCAL, "wdl", gsz, lsz) == (
            [dim * 11] * _items(gsz)
        )

    @pytest.mark.parametrize(
        "gsz,lsz,vectorised",
        [
            ((8,), (4,), False),
            ((512,), (8,), True),
            ((4, 2), (2, 2), False),
            ((32, 16), (8, 2), True),
            ((2, 2, 2), (1, 1, 2), False),
            ((8, 8, 8), (2, 2, 2), True),
        ],
    )
    def test_enqueue_below_and_above_the_vec_floor(self, gsz, lsz,
                                                   vectorised):
        with tracing() as tr:
            out = _enqueue(WORK_DIM, "wd", gsz, lsz)
        assert out == [len(gsz)] * _items(gsz)
        if vectorised:
            assert tr.counter("dispatch.fallback") == 0
        else:
            assert tr.counter("dispatch.fallback.small-ndrange") == 1


class TestIdsPastTheDispatchDimension:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_all_builtins_agree(self, dim):
        gsz, lsz = RANGES[dim]
        width = len(PROBES)
        want = _interpreter(IDS, "ids", gsz, lsz, width)
        assert _scalar(IDS, "ids", gsz, lsz, width) == want
        assert _vec(IDS, "ids", gsz, lsz, width) == want

    @pytest.mark.parametrize("dim", [1, 2])
    def test_opencl_values(self, dim):
        """``*_id`` builtins are 0 and the sizes are 1 for every
        dimension at or past the dispatch's dimension count."""
        gsz, lsz = RANGES[dim]
        width = len(PROBES)
        out = _interpreter(IDS, "ids", gsz, lsz, width)
        for item in range(_items(gsz)):
            row = out[item * width:(item + 1) * width]
            for (name, d), got in zip(PROBES, row):
                if d >= dim:
                    assert got == (0 if name.endswith("_id") else 1), (
                        name, d,
                    )
