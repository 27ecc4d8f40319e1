"""Interpreter semantics: C-style arithmetic, control flow, errors."""

import pytest

from repro import kir
from repro.errors import KirRuntimeError
from repro.kir.semantics import idiv, imod


class TestCArithmetic:
    @pytest.mark.parametrize(
        "a, b, q",
        [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (0, 5, 0)],
    )
    def test_idiv_truncates_toward_zero(self, a, b, q):
        assert idiv(a, b) == q

    @pytest.mark.parametrize(
        "a, b, r",
        [(7, 2, 1), (-7, 2, -1), (7, -2, 1), (-7, -2, -1)],
    )
    def test_imod_sign_follows_dividend(self, a, b, r):
        assert imod(a, b) == r

    def test_idiv_by_zero_raises(self):
        with pytest.raises(KirRuntimeError):
            idiv(1, 0)


def _fn(name, params, ret, body, is_kernel=False):
    return kir.Function(name, params, ret, body, is_kernel=is_kernel)


def _module(*fns):
    m = kir.Module()
    for f in fns:
        m.add(f)
    return m


class TestHostCalls:
    def test_simple_return(self):
        fn = _fn(
            "f",
            [kir.Param("x", kir.INT_T)],
            kir.INT_T,
            [kir.Return(kir.BinOp("+", kir.Var("x"), kir.Const(1)))],
        )
        interp = kir.Interpreter(_module(fn))
        assert interp.call("f", [41]) == 42

    def test_void_function_returns_none(self):
        fn = _fn("f", [], kir.VOID, [])
        assert kir.Interpreter(_module(fn)).call("f", []) is None

    def test_array_mutation_is_visible(self):
        fn = _fn(
            "fill",
            [kir.Param("a", kir.ArrayType(kir.INT_T)), kir.Param("n", kir.INT_T)],
            kir.VOID,
            [
                kir.For(
                    "i",
                    kir.Const(0),
                    kir.Var("n"),
                    kir.Const(1),
                    [kir.Store(kir.Var("a"), kir.Var("i"), kir.Var("i"))],
                )
            ],
        )
        interp = kir.Interpreter(_module(fn))
        arr = [0] * 4
        interp.call("fill", [arr, 4])
        assert arr == [0, 1, 2, 3]

    def test_nested_call(self):
        inner = _fn(
            "sq",
            [kir.Param("x", kir.INT_T)],
            kir.INT_T,
            [kir.Return(kir.BinOp("*", kir.Var("x"), kir.Var("x")))],
        )
        outer = _fn(
            "f",
            [kir.Param("x", kir.INT_T)],
            kir.INT_T,
            [kir.Return(kir.Call("sq", [kir.Call("sq", [kir.Var("x")])]))],
        )
        assert kir.Interpreter(_module(inner, outer)).call("f", [2]) == 16

    def test_while_break_continue(self):
        # sum of odd numbers below 10, stopping at 7
        body = [
            kir.Assign("i", kir.BinOp("+", kir.Var("i"), kir.Const(1))),
            kir.If(
                kir.BinOp("==", kir.Var("i"), kir.Const(7)),
                [kir.Break()],
            ),
            kir.If(
                kir.BinOp(
                    "==",
                    kir.BinOp("%", kir.Var("i"), kir.Const(2)),
                    kir.Const(0),
                ),
                [kir.Continue()],
            ),
            kir.Assign("s", kir.BinOp("+", kir.Var("s"), kir.Var("i"))),
        ]
        fn = _fn(
            "f",
            [],
            kir.INT_T,
            [
                kir.Decl("i", kir.INT_T, init=kir.Const(0)),
                kir.Decl("s", kir.INT_T, init=kir.Const(0)),
                kir.While(kir.Const(True), body),
                kir.Return(kir.Var("s")),
            ],
        )
        assert kir.Interpreter(_module(fn)).call("f", []) == 1 + 3 + 5

    def test_out_of_bounds_load_raises(self):
        fn = _fn(
            "f",
            [kir.Param("a", kir.ArrayType(kir.INT_T))],
            kir.INT_T,
            [kir.Return(kir.Index(kir.Var("a"), kir.Const(10)))],
        )
        with pytest.raises(KirRuntimeError, match="out of range"):
            kir.Interpreter(_module(fn)).call("f", [[1, 2]])

    def test_negative_index_raises(self):
        fn = _fn(
            "f",
            [kir.Param("a", kir.ArrayType(kir.INT_T))],
            kir.INT_T,
            [kir.Return(kir.Index(kir.Var("a"), kir.Const(-1)))],
        )
        with pytest.raises(KirRuntimeError):
            kir.Interpreter(_module(fn)).call("f", [[1, 2]])

    def test_ops_are_counted(self):
        fn = _fn(
            "f",
            [],
            kir.INT_T,
            [kir.Return(kir.BinOp("+", kir.Const(1), kir.Const(2)))],
        )
        interp = kir.Interpreter(_module(fn))
        interp.call("f", [])
        assert interp.ops > 0


class TestWorkItems:
    def test_global_id_drives_output(self):
        fn = _fn(
            "k",
            [kir.Param("out", kir.ArrayType(kir.INT_T))],
            kir.VOID,
            [
                kir.Store(
                    kir.Var("out"),
                    kir.Call("get_global_id", [kir.Const(0)]),
                    kir.Call("get_global_id", [kir.Const(0)]),
                )
            ],
            is_kernel=True,
        )
        interp = kir.Interpreter(_module(fn))
        out = [0] * 4
        for i in range(4):
            wi = kir.WorkItem((i,), (i % 2,), (i // 2,), (4,), (2,))
            for _ in interp.run_workitem(fn, [out], wi):
                pass
        assert out == [0, 1, 2, 3]

    def test_workitem_builtin_outside_kernel_raises(self):
        fn = _fn(
            "f",
            [],
            kir.INT_T,
            [kir.Return(kir.Call("get_global_id", [kir.Const(0)]))],
        )
        module = kir.Module()
        module.add(fn)
        with pytest.raises(KirRuntimeError):
            kir.Interpreter(module).call("f", [])
