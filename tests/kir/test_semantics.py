"""One definition of kernel arithmetic: for every math builtin and for
float ``/`` and ``%``, the scalar form the Interpreter, the scalar tier
and the VM call gives the same bits as the vector form the vec tier
calls, whatever the lane position of a value in the array."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.kir import semantics

EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310,
    1.0, -1.0, 1e308, -1e308,
]
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(width=64))
#: every combination of these is checked once per operation (numpy
#: computes a uniform exponent of 0.5 or 2 as a square root or square)
GRID = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.5, 2.5,
        0.5, 2.0, 0.1]

#: operation -> (arity, scalar form, vector form)
OPS = {
    name: (
        len(kinds),
        semantics.SCALAR_BUILTINS[name],
        semantics.VECTOR_BUILTINS[name],
    )
    for name, (kinds, _, _) in semantics.BUILTINS.items()
}
OPS["/"] = (2, semantics.fdiv, semantics.vfdiv)
OPS["%"] = (2, semantics.fmod, semantics.vfmod)


def same_bits(a: float, b: float) -> bool:
    """Bit equality, except that any NaN equals any NaN; ±0 differ."""
    if math.isnan(a) and math.isnan(b):
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


@pytest.mark.parametrize("op", sorted(OPS))
@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(
        st.tuples(FLOATS, FLOATS, FLOATS), min_size=1, max_size=24
    )
)
@example(rows=list(itertools.product(GRID, repeat=3)))
def test_scalar_form_equals_vector_form(op, rows):
    arity, scalar, vector = OPS[op]
    # Repeat the rows so each value also sits at other lane positions
    # (inside a SIMD block and in the tail).
    lanes = [row[:arity] for row in rows] * (1 + 40 // len(rows))
    columns = [np.array(col, dtype=np.float64) for col in zip(*lanes)]
    with np.errstate(all="ignore"):
        got = vector(*columns)
    for row, value in zip(lanes, got):
        want = scalar(*row)
        assert same_bits(want, float(value)), (op, row, want, value)


@pytest.mark.parametrize("op", sorted(OPS))
@settings(max_examples=20, deadline=None)
@given(row=st.tuples(FLOATS, FLOATS, FLOATS), lanes=st.integers(1, 40))
@example(row=(-0.0, 0.5, 0.0), lanes=3)
@example(row=(-math.inf, 0.5, 0.0), lanes=3)
@example(row=(0.1, 2.0, 0.0), lanes=17)
def test_uniform_operand_equals_a_column(op, row, lanes):
    """The vec tier passes a uniform operand as a scalar; the result has
    the bits of that operand spread over every lane."""
    arity, _, vector = OPS[op]
    args = row[:arity]
    columns = [np.full(lanes, a) for a in args]
    with np.errstate(all="ignore"):
        want = vector(*columns)
        for k in range(arity):
            got = np.broadcast_to(
                vector(*columns[:k], args[k], *columns[k + 1:]), (lanes,)
            )
            for a, b in zip(want, got):
                assert same_bits(float(a), float(b)), (op, args, k)


TWO63 = 2.0**63
#: float -> int edges: NaN, ±inf, ±2**63 and their neighbours, subnormals
CONVERSION_EDGES = [
    math.nan, math.inf, -math.inf,
    TWO63, math.nextafter(TWO63, 0.0), math.nextafter(TWO63, math.inf),
    -TWO63, math.nextafter(-TWO63, 0.0), math.nextafter(-TWO63, -math.inf),
    5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    0.0, -0.0, 0.5, -0.5, -1.5, 2.5,
]


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.sampled_from(CONVERSION_EDGES), st.floats(width=64)),
        min_size=1, max_size=24,
    )
)
@example(values=CONVERSION_EDGES)
def test_float_to_int_scalar_form_equals_lane_form(values):
    lanes = values * (1 + 40 // len(values))
    got = semantics.vftoi(np.array(lanes, dtype=np.float64))
    assert got.dtype == np.int64
    for x, value in zip(lanes, got.tolist()):
        want = semantics.ftoi(x)
        assert type(want) is int and want == value, (x, want, value)


@pytest.mark.parametrize("x,want", [
    (math.nan, 0),
    (math.inf, 2**63 - 1),
    (-math.inf, -(2**63)),
    (TWO63, 2**63 - 1),
    (-TWO63, -(2**63)),
    (math.nextafter(TWO63, 0.0), 2**63 - 1024),
    (-2.9, -2),
    (5e-324, 0),
])
def test_float_to_int_saturates(x, want):
    """NaN converts to 0, out-of-range values clamp to the int64 bounds
    and everything else truncates toward zero."""
    assert semantics.ftoi(x) == want
    assert semantics.vftoi(np.array([x])).tolist() == [want]
