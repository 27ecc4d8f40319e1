"""Property tests over random fusible/unfusible kernel chains.

The graph-level optimiser's contract, quantified over arbitrary
sequences of elementwise, gather and single-work-item kernels on a
shared buffer pool:

* **agreement** — with fusion enabled, every buffer ends bit-identical
  to the unfused run, whatever mix of legal and illegal pairs the chain
  contains;
* **conservation** — each enqueued kernel is accounted exactly once:
  ``dispatch.fuse.reject == kernels - 2 * dispatch.fuse`` (a fused pair
  consumes two dispatches, every other dispatch flushes with a reason);
* **demotion** — known-illegal pairs (mismatched shapes, gather access,
  write aliasing, missing dataflow edge) never fuse and surface the
  matching ``dispatch.fuse.reject.<reason>`` counter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import configure
from repro import opencl as cl
from repro.trace import tracing

pytestmark = pytest.mark.fusion

N = 32
N_BUFFERS = 3

EW_SOURCE = """
__kernel void ew(__global int *src, __global int *dst, int m, int c) {
    int i = get_global_id(0);
    dst[i] = src[i] * m + c;
}
"""

GATHER_SOURCE = """
__kernel void gather(__global int *src, __global int *dst, int s, int n) {
    int i = get_global_id(0);
    dst[i] = src[(i + s) % n];
}
"""

PICK_SOURCE = """
__kernel void pick(__global int *src, __global int *dst, int k) {
    dst[0] = src[k] + 1;
}
"""


@pytest.fixture(autouse=True)
def _clean():
    cl.reset_platforms()
    yield
    cl.reset_platforms()


def ew_steps():
    return st.tuples(
        st.just("ew"),
        st.integers(0, N_BUFFERS - 1),  # src (may equal dst: aliasing)
        st.integers(0, N_BUFFERS - 1),  # dst
        st.integers(-3, 3),  # m
        st.integers(-5, 5),  # c
        st.sampled_from([N, N // 2]),  # gsz
    )


def gather_steps():
    # src != dst is enforced in run_chain: an in-place gather is racy
    # in real OpenCL, so the substrate makes no ordering promise for it.
    return st.tuples(
        st.just("gather"),
        st.integers(0, N_BUFFERS - 1),
        st.integers(0, N_BUFFERS - 1),
        st.integers(0, N - 1),  # shift
        st.just(N),
        st.sampled_from([N, N // 2]),
    )


def pick_steps():
    return st.tuples(
        st.just("pick"),
        st.integers(0, N_BUFFERS - 1),
        st.integers(0, N_BUFFERS - 1),
        st.integers(0, N - 1),  # picked index
        st.just(0),
        st.just(1),  # single-work-item range
    )


def chains():
    return st.lists(
        st.one_of(ew_steps(), gather_steps(), pick_steps()),
        min_size=2,
        max_size=8,
    )


def run_chain(chain, init):
    """Execute *chain* on a fresh context; returns every buffer's final
    contents and the number of kernels actually enqueued."""
    device = cl.find_device("GPU")
    context = cl.Context([device])
    queue = cl.CommandQueue(context, device)
    kernels = {
        "ew": cl.Program(context, EW_SOURCE).build().create_kernel("ew"),
        "gather": cl.Program(context, GATHER_SOURCE)
        .build()
        .create_kernel("gather"),
        "pick": cl.Program(context, PICK_SOURCE).build().create_kernel("pick"),
    }
    buffers = []
    for b in range(N_BUFFERS):
        buf = cl.Buffer(context, N, "int")
        queue.enqueue_write_buffer(buf, init[b])
        buffers.append(buf)
    enqueued = 0
    for kind, src, dst, s0, s1, gsz in chain:
        if kind == "gather" and src == dst:
            continue
        kernel = kernels[kind]
        kernel.set_arg(0, buffers[src])
        kernel.set_arg(1, buffers[dst])
        kernel.set_arg(2, s0)
        if kind != "pick":
            kernel.set_arg(3, s1)
        queue.enqueue_nd_range_kernel(kernel, [gsz])
        enqueued += 1
    outs = []
    for buf in buffers:
        out = [0] * N
        queue.enqueue_read_buffer(buf, out)
        outs.append(out)
    queue.finish()
    return outs, enqueued


def initial_contents():
    return [[(b * 31 + i * 7) % 23 - 11 for i in range(N)]
            for b in range(N_BUFFERS)]


class TestChainAgreement:
    @given(chain=chains())
    @settings(deadline=None, max_examples=40)
    def test_fused_chain_matches_unfused_bit_for_bit(self, chain):
        init = initial_contents()
        cl.reset_platforms()
        plain, _ = run_chain(chain, init)
        cl.reset_platforms()
        with configure(fusion=True):
            fused, _ = run_chain(chain, init)
        assert fused == plain

    @given(chain=chains())
    @settings(deadline=None, max_examples=40)
    def test_every_dispatch_is_accounted_once(self, chain):
        init = initial_contents()
        cl.reset_platforms()
        with configure(fusion=True), tracing() as tr:
            _, enqueued = run_chain(chain, init)
        fused = tr.counter("dispatch.fuse")
        rejected = tr.counter("dispatch.fuse.reject")
        assert rejected == enqueued - 2 * fused


class TestIllegalPairsDemote:
    def _run_pair(self, first, second):
        init = initial_contents()
        cl.reset_platforms()
        with configure(fusion=True), tracing() as tr:
            fused, _ = run_chain([first, second], init)
        cl.reset_platforms()
        plain, _ = run_chain([first, second], init)
        assert fused == plain
        return tr

    @given(m=st.integers(-3, 3), c=st.integers(-5, 5))
    @settings(deadline=None, max_examples=15)
    def test_shape_mismatch_never_fuses(self, m, c):
        tr = self._run_pair(("ew", 0, 1, m, c, N), ("ew", 1, 2, m, c, N // 2))
        assert tr.counter("dispatch.fuse") == 0
        assert tr.counter("dispatch.fuse.reject.shape") == 1

    @given(shift=st.integers(1, N - 1))
    @settings(deadline=None, max_examples=15)
    def test_gather_consumer_never_fuses(self, shift):
        tr = self._run_pair(
            ("ew", 0, 1, 2, 1, N), ("gather", 1, 2, shift, N, N)
        )
        assert tr.counter("dispatch.fuse") == 0
        assert tr.counter("dispatch.fuse.reject.gather") == 1

    @given(m=st.integers(-3, 3))
    @settings(deadline=None, max_examples=15)
    def test_write_aliasing_never_fuses(self, m):
        tr = self._run_pair(("ew", 0, 1, 2, 0, N), ("ew", 1, 1, m, 1, N))
        assert tr.counter("dispatch.fuse") == 0
        assert tr.counter("dispatch.fuse.reject.aliasing") == 1

    @given(m=st.integers(-3, 3))
    @settings(deadline=None, max_examples=15)
    def test_disjoint_pair_never_fuses(self, m):
        tr = self._run_pair(("ew", 0, 0, 2, 1, N), ("ew", 1, 1, m, 2, N))
        # Both kernels alias src == dst, so the aliasing rule fires
        # before the dataflow rule ever gets asked.
        assert tr.counter("dispatch.fuse") == 0
        assert tr.counter("dispatch.fuse.reject") == 2

    @given(k=st.integers(0, N - 1), m=st.integers(-3, 3))
    @settings(deadline=None, max_examples=15)
    def test_single_item_producer_fuses_as_prologue(self, k, m):
        tr = self._run_pair(("pick", 0, 1, k, 0, 1), ("ew", 1, 2, m, 1, N))
        assert tr.counter("dispatch.fuse") == 1
        assert tr.counter("dispatch.fuse.launches_saved") == 1
