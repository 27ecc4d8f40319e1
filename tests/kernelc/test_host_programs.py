"""Whole-program behavioural tests for the kernel-C substrate: classic
algorithms executed through the host path and checked against Python."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernelc, kir
from repro.errors import KirRuntimeError


def run(source, fn, args):
    value, ops = kernelc.run_host(source, fn, list(args))
    assert ops >= 0
    return value


SORT = """
void insertion_sort(__global int *a, int n) {
    for (int i = 1; i < n; i++) {
        int key = a[i];
        int j = i - 1;
        while (j >= 0 && a[j] > key) {
            a[j + 1] = a[j];
            j--;
        }
        a[j + 1] = key;
    }
}
"""

GCD = """
int gcd(int a, int b) {
    while (b != 0) {
        int t = b;
        b = a % b;
        a = t;
    }
    return a;
}
"""

BSEARCH = """
int bsearch(__global int *a, int n, int key) {
    int lo = 0;
    int hi = n - 1;
    while (lo <= hi) {
        int mid = (lo + hi) / 2;
        if (a[mid] == key) { return mid; }
        if (a[mid] < key) { lo = mid + 1; }
        else { hi = mid - 1; }
    }
    return -1;
}
"""

SIEVE = """
int count_primes(int n) {
    bool composite[n + 1];
    int count = 0;
    for (int i = 2; i <= n; i++) {
        if (!composite[i]) {
            count++;
            for (int j = i + i; j <= n; j += i) {
                composite[j] = true;
            }
        }
    }
    return count;
}
"""

TRANSPOSE = """
void transpose(__global float *src, __global float *dst, int rows, int cols) {
    for (int r = 0; r < rows; r++) {
        for (int c = 0; c < cols; c++) {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}
"""

HORNER = """
float horner(__global float *coeffs, int n, float x) {
    float acc = 0.0;
    for (int i = 0; i < n; i++) {
        acc = acc * x + coeffs[i];
    }
    return acc;
}
"""


class TestClassicAlgorithms:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=25))
    def test_insertion_sort(self, values):
        a = list(values)
        run(SORT, "insertion_sort", [a, len(a)])
        assert a == sorted(values)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10_000), st.integers(1, 10_000))
    def test_gcd(self, a, b):
        import math

        assert run(GCD, "gcd", [a, b]) == math.gcd(a, b)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=20),
        st.integers(0, 50),
    )
    def test_binary_search(self, values, key):
        a = sorted(set(values))
        index = run(BSEARCH, "bsearch", [a, len(a), key])
        if key in a:
            assert a[index] == key
        else:
            assert index == -1

    @pytest.mark.parametrize(
        "n, expected", [(1, 0), (2, 1), (10, 4), (30, 10), (100, 25)]
    )
    def test_sieve(self, n, expected):
        assert run(SIEVE, "count_primes", [n]) == expected

    def test_transpose(self):
        rows, cols = 3, 4
        src = [float(i) for i in range(rows * cols)]
        dst = [0.0] * (rows * cols)
        run(TRANSPOSE, "transpose", [src, dst, rows, cols])
        for r in range(rows):
            for c in range(cols):
                assert dst[c * rows + r] == src[r * cols + c]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-10, max_value=10, allow_nan=False, width=32
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=-3, max_value=3, allow_nan=False, width=32),
    )
    def test_horner(self, coeffs, x):
        expected = 0.0
        for c in coeffs:
            expected = expected * x + c
        assert run(HORNER, "horner", [coeffs, len(coeffs), x]) == pytest.approx(
            expected, nan_ok=False
        )


class TestRecursion:
    def test_recursive_functions(self):
        src = """
        int ack(int m, int n) {
            if (m == 0) { return n + 1; }
            if (n == 0) { return ack(m - 1, 1); }
            return ack(m - 1, ack(m, n - 1));
        }
        """
        assert run(src, "ack", [2, 3]) == 9

    def test_mutual_recursion(self):
        src = """
        int is_odd(int n);
        """
        # forward declarations are not supported; use a single function
        src = """
        int parity(int n) {
            if (n == 0) { return 0; }
            return 1 - parity(n - 1);
        }
        """
        assert run(src, "parity", [7]) == 1
        assert run(src, "parity", [10]) == 0


class TestIndexFaults:
    def test_load_past_the_end_is_a_typed_error(self):
        """As in the Interpreter and the kernel tiers, not a raw
        IndexError."""
        src = "int f(int *a) { return a[10]; }"
        with pytest.raises(KirRuntimeError, match="function f"):
            kernelc.run_host(src, "f", [[1, 2, 3]])
        interp = kir.Interpreter(kernelc.compile_source(src))
        with pytest.raises(KirRuntimeError):
            interp.call("f", [[1, 2, 3]])
