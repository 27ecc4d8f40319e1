"""Cross-check the Python code generator against the reference interpreter.

Programs are written in kernel-C (exercising the whole front end) and
executed through both engines; results must match exactly and dynamic
op counts must agree within a factor of two.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernelc, kir


def run_both(source: str, fname: str, arg_maker):
    compiled = kernelc.build(source)
    args_a = arg_maker()
    ret_a, ops_a = compiled.call(fname, args_a)
    interp = kir.Interpreter(compiled.module)
    args_b = arg_maker()
    ret_b = interp.call(fname, args_b)
    return (ret_a, args_a, ops_a), (ret_b, args_b, interp.ops)


CASES = {
    "arith": (
        """
        float f(int a, int b) {
            int q = a / b;
            int r = a % b;
            float x = (float)a / (float)b;
            return x + (float)q + (float)r;
        }
        """,
        "f",
        lambda: [-17, 5],
    ),
    "loops": (
        """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 3 == 0) { continue; }
                if (i > 20) { break; }
                s += i;
            }
            int j = 0;
            while (j < n) { s += 2; j += 5; }
            return s;
        }
        """,
        "f",
        lambda: [30],
    ),
    "arrays": (
        """
        void f(__global float *a, int n) {
            float acc = 0.0;
            for (int i = 0; i < n; i++) {
                acc = acc + a[i];
                a[i] = acc;
            }
        }
        """,
        "f",
        lambda: [[1.0, 2.0, 3.0, 4.0], 4],
    ),
    "ternary_and_logic": (
        """
        int f(int x) {
            int a = x > 2 && x < 10 ? 1 : 0;
            int b = x == 5 || x == 7 ? 10 : 20;
            bool c = !(x > 100);
            if (c) { return a + b; }
            return 0;
        }
        """,
        "f",
        lambda: [5],
    ),
    "logic_values": (
        "int f(int a, int b) { return (int)(a && b) * 10 + (int)(a || b); }",
        "f",
        lambda: [3, 5],
    ),
    # As in C, a logic result converts to int or float without a cast.
    "logic_converts": (
        "int f(int a, int b) { int c = a && b; float d = a || b;"
        " return c * 10 + (int)d; }",
        "f",
        lambda: [3, 0],
    ),
    # IEEE 754, as OpenCL requires: inf and NaN results, never an error.
    "ieee_floats": (
        """
        void f(__global int *out, float x) {
            out[0] = (int)(x / 0.0 > 1e300);
            out[1] = (int)(sqrt(-x) != sqrt(-x));
            out[2] = (int)(x % 0.0 != x % 0.0);
        }
        """,
        "f",
        lambda: [[0, 0, 0], 2.5],
    ),
    # float -> int saturates: NaN gives 0, out-of-range values the
    # nearer int64 bound.
    "float_to_int": (
        """
        void f(__global int *out, float y) {
            out[0] = (int)(y / 0.0 - y / 0.0);
            out[1] = (int)(y * 1e300);
            out[2] = (int)(0.0 - y * 1e300);
            out[3] = (int)(0.0 - y);
        }
        """,
        "f",
        lambda: [[0, 0, 0, 0], 2.5],
    ),
    "math": (
        """
        float f(float x) {
            return sqrt(x) + pow(x, 2.0) + fmin(x, 3.0) + fabs(0.0 - x)
                + floor(x) + ceil(x) + exp(0.0) + log(1.0) + clamp(x, 0.0, 2.0);
        }
        """,
        "f",
        lambda: [1.7],
    ),
    "helpers": (
        """
        int helper(int x, int y) { return x * y + 1; }
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s += helper(i, i + 1); }
            return s;
        }
        """,
        "f",
        lambda: [6],
    ),
    "noncanonical_for": (
        """
        int f(int n) {
            int s = 0;
            for (int i = n; i > 0; i = i / 2) { s += i; }
            return s;
        }
        """,
        "f",
        lambda: [40],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_engines_agree(case):
    source, fname, arg_maker = CASES[case]
    (ret_a, args_a, ops_a), (ret_b, args_b, ops_b) = run_both(
        source, fname, arg_maker
    )
    assert ret_a == pytest.approx(ret_b)
    assert args_a == args_b  # in-place array effects identical
    assert ops_a > 0 and ops_b > 0
    assert ops_a <= 2 * ops_b and ops_b <= 2 * ops_a


KERNEL = """
__kernel void saxpy(__global float *x, __global float *y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) { y[i] = a * x[i] + y[i]; }
}
"""


def test_kernel_range_matches_interp_per_item():
    compiled = kernelc.build(KERNEL)
    fn = compiled.module.kernel("saxpy")
    n = 16
    x = [float(i) for i in range(n)]
    y1 = [1.0] * n
    compiled.kernel_runner("saxpy").run_range([x, y1, 2.0, n], [n], [4])

    interp = kir.Interpreter(compiled.module)
    y2 = [1.0] * n
    for i in range(n):
        wi = kir.WorkItem((i,), (i % 4,), (i // 4,), (n,), (4,))
        for _ in interp.run_workitem(fn, [x, y2, 2.0, n], wi):
            pass
    assert y1 == y2
    assert y1[3] == 2.0 * 3 + 1


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=-100, max_value=100), min_size=1, max_size=24
    )
)
def test_property_prefix_sum_engines_agree(values):
    source = """
    void scan(__global int *a, int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) {
            acc = acc + a[i];
            a[i] = acc;
        }
    }
    """
    compiled = kernelc.build(source)
    a1 = list(values)
    compiled.call("scan", [a1, len(values)])
    interp = kir.Interpreter(compiled.module)
    a2 = list(values)
    interp.call("scan", [a2, len(values)])
    expected = []
    total = 0
    for v in values:
        total += v
        expected.append(total)
    assert a1 == a2 == expected


@settings(max_examples=25, deadline=None)
@given(a=st.integers(-50, 50), b=st.integers(-50, 50).filter(lambda x: x != 0))
def test_property_c_division(a, b):
    source = "int f(int a, int b) { return a / b * b + a % b; }"
    compiled = kernelc.build(source)
    ret, _ = compiled.call("f", [a, b])
    assert ret == a  # the C division identity
