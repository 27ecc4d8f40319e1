"""Interpreter and codegen edge cases not covered elsewhere."""

import math

import pytest

from repro import kernelc, kir
from repro.errors import KirRuntimeError


class TestInterpreterEdges:
    def test_zero_step_for_loop_rejected(self):
        fn = kir.Function(
            "f",
            [],
            kir.INT_T,
            [
                kir.For("i", kir.Const(0), kir.Const(3), kir.Const(0), []),
                kir.Return(kir.Const(0)),
            ],
        )
        module = kir.Module()
        module.add(fn)
        with pytest.raises(KirRuntimeError, match="zero step"):
            kir.Interpreter(module).call("f", [])

    def test_negative_step_counts_down(self):
        fn = kir.Function(
            "f",
            [],
            kir.INT_T,
            [
                kir.Decl("s", kir.INT_T, init=kir.Const(0)),
                kir.For(
                    "i",
                    kir.Const(5),
                    kir.Const(0),
                    kir.Const(-1),
                    [
                        kir.Assign(
                            "s", kir.BinOp("+", kir.Var("s"), kir.Var("i"))
                        )
                    ],
                ),
                kir.Return(kir.Var("s")),
            ],
        )
        module = kir.Module()
        module.add(fn)
        assert kir.Interpreter(module).call("f", []) == 5 + 4 + 3 + 2 + 1

    def test_wrong_arg_count_rejected(self):
        fn = kir.Function(
            "f", [kir.Param("x", kir.INT_T)], kir.INT_T,
            [kir.Return(kir.Var("x"))],
        )
        module = kir.Module()
        module.add(fn)
        with pytest.raises(KirRuntimeError, match="expected 1"):
            kir.Interpreter(module).call("f", [])

    def test_calling_kernel_as_host_rejected(self):
        fn = kir.Function("k", [], kir.VOID, [], is_kernel=True)
        module = kir.Module()
        module.add(fn)
        with pytest.raises(KirRuntimeError, match="kernel"):
            kir.Interpreter(module).call("k", [])

    def test_math_domain_error_reported(self):
        """A domain error is reported as OpenCL reports it, by a NaN
        result, on the Interpreter as on the compiled code."""
        src = "float f(float x) { return sqrt(x); }"
        compiled = kernelc.build(src)
        interp = kir.Interpreter(compiled.module)
        assert math.isnan(interp.call("f", [-1.0]))
        assert math.isnan(compiled.call("f", [-1.0])[0])


class TestCodegenEdges:
    def test_early_return_in_kernel(self):
        src = """
        __kernel void k(__global int *out, int n) {
            int i = get_global_id(0);
            if (i >= n) { return; }
            out[i] = 1;
        }
        """
        compiled = kernelc.build(src)
        out = [0] * 8
        compiled.kernel_runner("k").run_range([out, 5], [8], [4])
        assert out == [1, 1, 1, 1, 1, 0, 0, 0]

    def test_kernel_with_no_parameters(self):
        src = "__kernel void noop() { int x = get_global_id(0); }"
        compiled = kernelc.build(src)
        ops = compiled.kernel_runner("k" if False else "noop").run_range(
            [], [4], [2]
        )
        assert len(ops) == 4

    def test_helper_calls_inside_loops(self):
        src = """
        int triple(int x) { return x * 3; }
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                s += triple(i) + triple(i + 1);
            }
            return s;
        }
        """
        value, _ = kernelc.run_host(src, "f", [5])
        assert value == sum(3 * i + 3 * (i + 1) for i in range(5))

    def test_deeply_nested_control_flow(self):
        src = """
        int f(int n) {
            int count = 0;
            for (int a = 0; a < n; a++) {
                for (int b = 0; b < n; b++) {
                    if (a < b) {
                        while (count % 7 != 3) { count++; }
                    } else {
                        if (a == b) { count += 2; }
                        else { count += 1; }
                    }
                }
            }
            return count;
        }
        """
        def oracle(n):
            count = 0
            for a in range(n):
                for b in range(n):
                    if a < b:
                        while count % 7 != 3:
                            count += 1
                    elif a == b:
                        count += 2
                    else:
                        count += 1
            return count

        for n in (0, 1, 3, 5):
            value, _ = kernelc.run_host(src, "f", [n])
            assert value == oracle(n)

    def test_op_counts_scale_with_work(self):
        src = """
        void f(__global float *a, int n) {
            for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
        }
        """
        compiled = kernelc.build(src)
        _, ops_small = compiled.call("f", [[1.0] * 10, 10])
        _, ops_big = compiled.call("f", [[1.0] * 100, 100])
        assert 8 <= ops_big / ops_small <= 12  # linear in n

    def test_generated_source_is_inspectable(self):
        compiled = kernelc.build("int f() { return 42; }")
        assert "def f_f(" in compiled.source
