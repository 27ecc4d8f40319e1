"""Property suite for active-lane compaction (hypothesis).

Random divergent-loop kernels are generated from a small grammar —
per-lane trip counts, optional ``continue``/``break``/``return`` arms,
``if``/``else`` branches of unequal cost, a private array written
inside the loop and read at uniform rows after it, nested inner loops,
and deliberately repeated subexpressions (CSE bait) — and executed with
compaction forced on (density 1.0, checked every round) and forced off
(density 0.0).  Outputs, per-group warp maxima and priced ledger totals
must be bit-identical: compaction and CSE are wall-clock optimisations
only, invisible to everything the simulation reports.  The vec tier's
per-item op counts must also equal the scalar tier's.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernelc
from repro.kir import npcodegen
from repro.opencl import Buffer, CommandQueue, Context, Program, find_device


N = 256  # >= dispatch.VEC_MIN_ITEMS so the full path takes the vec tier
LSZ = 8
SIMD = 8


@st.composite
def divergent_kernels(draw):
    """A kernel whose masked loop drains lanes at per-lane rates."""
    trip_mod = draw(st.integers(min_value=2, max_value=9))
    trip_base = draw(st.integers(min_value=1, max_value=12))
    step = draw(st.integers(min_value=1, max_value=3))
    arm = draw(st.sampled_from(
        ["none", "continue", "break", "both", "return"]
    ))
    arm_mod = draw(st.integers(min_value=2, max_value=5))
    orelse = draw(st.sampled_from([
        "",
        "if ((i + j) % 3 == 0) { s += j * 2; } else { s = s + 1; }",
        "if (s % 2 == 0) { s = s + i % 4; p[j % 4] = s; } "
        "else { p[1] = j; }",
    ]))
    private = draw(st.booleans()) or "p[" in orelse
    body = draw(st.sampled_from([
        "s += i + j;",
        "s += (i + j) * (i + j);",   # repeated subtree: CSE bait
        "s += i % 5 + j;",
        "s = s + j * 2 + 1;",
    ]))
    nested = draw(st.booleans())
    lines = [
        "__kernel void k(__global int *out, int n) {",
        "    int i = get_global_id(0);",
        "    int s = 0;",
        "    int j = 0;",
    ]
    if private:
        lines.append("    int p[4];")
        lines.append("    p[3] = n % 5;")
    lines.append(f"    while (j < i % {trip_mod} + {trip_base}) {{")
    if arm in ("continue", "both"):
        lines.append(
            f"        if ((i + j) % {arm_mod} == 0) {{ j += {step}; "
            "continue; }"
        )
    if arm in ("break", "both"):
        lines.append(f"        if (s > 50 + i % 17) {{ break; }}")
    if arm == "return":
        lines.append("        if (s > 40 + i % 13) { out[i] = s; return; }")
    lines.append(f"        {body}")
    if orelse:
        lines.append(f"        {orelse}")
    if nested:
        lines.append("        for (int t = 0; t < j % 3 + 1; t++) "
                     "{ s += t; }")
    lines.append(f"        j += {step};")
    lines.append("    }")
    if private:
        lines.append("    for (int t = 0; t < 4; t++) "
                     "{ s += p[t] * (t + 1) + (i + n) * 2; }")
    lines.append("    out[i] = s;")
    lines.append("}")
    return "\n".join(lines)


def _full_dispatch(source):
    """Run *source* through Context/Queue and return (contents, ns)."""
    device = find_device("GPU")
    ctx = Context([device])
    queue = CommandQueue(ctx, device)
    program = Program(ctx, source).build()
    kernel = program.create_kernel("k")
    buf = Buffer(ctx, N, "int")
    queue.enqueue_write_buffer(buf, [0] * N)
    kernel.set_arg(0, buf)
    kernel.set_arg(1, N)
    queue.enqueue_nd_range_kernel(kernel, [N], [LSZ])
    queue.finish()
    return list(buf.data), ctx.ledger.kernel_ns


def _at_density(source, density, every=1):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npcodegen, "COMPACT_DENSITY", density)
        patch.setattr(npcodegen, "COMPACT_CHECK_EVERY", every)
        import numpy as np

        compiled = kernelc.build(source)
        runner = compiled.kernel_runner("k")
        assert runner.vec is not None, runner.vec_reason
        args = [np.zeros(N, np.int64), N]
        warps = runner.vec.run_group_warps(args, [N], [LSZ], SIMD)
        contents, ns = _full_dispatch(source)
        return args[0].tolist(), warps, contents, ns


class TestCompactionProperties:
    @settings(deadline=None, max_examples=30)
    @given(divergent_kernels())
    def test_on_off_identical(self, source):
        on = _at_density(source, 1.0, every=1)
        off = _at_density(source, 0.0)
        out_on, warps_on, contents_on, ns_on = on
        out_off, warps_off, contents_off, ns_off = off
        assert out_on == out_off
        assert warps_on == warps_off
        assert contents_on == contents_off
        assert ns_on == ns_off

    @settings(deadline=None, max_examples=15)
    @given(divergent_kernels(),
           st.floats(min_value=0.1, max_value=0.9),
           st.integers(min_value=1, max_value=6))
    def test_intermediate_densities_match_reference(self, source, density,
                                                    every):
        got = _at_density(source, density, every=every)
        ref = _at_density(source, 0.0)
        assert got == ref

    @settings(deadline=None)
    @given(divergent_kernels())
    def test_item_ops_match_scalar_tier(self, source):
        """Per-item op counts (warps of one item) and outputs equal the
        scalar tier's, with compaction at its default policy."""
        compiled = kernelc.build(source)
        runner = compiled.kernel_runner("k")
        assert runner.vec is not None, runner.vec_reason
        ref_out = [0] * N
        ref_ops = runner.run_range([ref_out, N], [N], [LSZ])
        import numpy as np

        vec_out = np.zeros(N, np.int64)
        vec_ops = runner.vec.run_item_ops([vec_out, N], [N], [LSZ])
        assert vec_ops.tolist() == list(ref_ops)
        assert vec_out.tolist() == ref_out

    @settings(deadline=None, max_examples=10)
    @given(divergent_kernels())
    def test_scalar_reference_agreement(self, source):
        """The compacted vec tier agrees with the scalar engine, not
        just with its own uncompacted self."""
        compiled = kernelc.build(source)
        runner = compiled.kernel_runner("k")
        ref_args = [[0] * N, N]
        runner.run_range(ref_args, [N], [LSZ])
        on_out = _at_density(source, 1.0, every=1)[0]
        assert on_out == ref_args[0]
