"""Static validation: every class of malformed IR is rejected."""

import pytest

from repro import kir
from repro.errors import KirValidationError


def module_with(fn):
    m = kir.Module()
    m.add(fn)
    return m


def kernel(body, params=(), name="k"):
    return kir.Function(name, list(params), kir.VOID, body, is_kernel=True)


def func(body, params=(), ret=kir.INT_T, name="f"):
    return kir.Function(name, list(params), ret, body)


class TestScoping:
    def test_unknown_variable_rejected(self):
        fn = func([kir.Return(kir.Var("ghost"))])
        with pytest.raises(KirValidationError, match="undeclared"):
            kir.validate(module_with(fn))

    def test_redeclaration_rejected(self):
        fn = func(
            [
                kir.Decl("x", kir.INT_T, init=kir.Const(1)),
                kir.Decl("x", kir.INT_T, init=kir.Const(2)),
                kir.Return(kir.Var("x")),
            ]
        )
        with pytest.raises(KirValidationError, match="redeclaration"):
            kir.validate(module_with(fn))

    def test_block_scoping_allows_shadow_free_reuse(self):
        # Two sibling if-branches may declare the same name.
        fn = func(
            [
                kir.If(
                    kir.Const(True),
                    [kir.Decl("t", kir.INT_T, init=kir.Const(1))],
                    [kir.Decl("t", kir.INT_T, init=kir.Const(2))],
                ),
                kir.Return(kir.Const(0)),
            ]
        )
        kir.validate(module_with(fn))

    def test_loop_var_scoped_to_loop(self):
        fn = func(
            [
                kir.For("i", kir.Const(0), kir.Const(3), kir.Const(1), []),
                kir.Return(kir.Var("i")),
            ]
        )
        with pytest.raises(KirValidationError):
            kir.validate(module_with(fn))


class TestStructure:
    def test_barrier_outside_kernel_rejected(self):
        fn = func([kir.Barrier(), kir.Return(kir.Const(0))])
        with pytest.raises(KirValidationError, match="barrier"):
            kir.validate(module_with(fn))

    def test_break_outside_loop_rejected(self):
        fn = func([kir.Break(), kir.Return(kir.Const(0))])
        with pytest.raises(KirValidationError, match="break"):
            kir.validate(module_with(fn))

    def test_continue_outside_loop_rejected(self):
        fn = func([kir.Continue(), kir.Return(kir.Const(0))])
        with pytest.raises(KirValidationError, match="continue"):
            kir.validate(module_with(fn))

    def test_kernel_returning_value_rejected(self):
        fn = kir.Function(
            "k", [], kir.INT_T, [kir.Return(kir.Const(1))], is_kernel=True
        )
        with pytest.raises(KirValidationError, match="void"):
            kir.validate(module_with(fn))

    def test_local_array_outside_kernel_rejected(self):
        fn = func(
            [
                kir.Decl(
                    "t",
                    kir.ArrayType(kir.FLOAT_T, kir.LOCAL),
                    size=kir.Const(4),
                ),
                kir.Return(kir.Const(0)),
            ]
        )
        with pytest.raises(KirValidationError, match="local"):
            kir.validate(module_with(fn))

    def test_array_decl_without_size_rejected(self):
        fn = func(
            [
                kir.Decl("t", kir.ArrayType(kir.FLOAT_T, kir.PRIVATE)),
                kir.Return(kir.Const(0)),
            ]
        )
        with pytest.raises(KirValidationError, match="size"):
            kir.validate(module_with(fn))


class TestCallRules:
    def test_unknown_call_rejected(self):
        fn = func([kir.Return(kir.Call("nothing", []))])
        with pytest.raises(KirValidationError, match="unknown function"):
            kir.validate(module_with(fn))

    def test_arity_mismatch_rejected(self):
        m = kir.Module()
        m.add(func([kir.Return(kir.Const(1))], name="g"))
        m.add(func([kir.Return(kir.Call("g", [kir.Const(1)]))], name="f"))
        with pytest.raises(KirValidationError, match="expects 0"):
            kir.validate(m)

    def test_calling_kernel_rejected(self):
        m = kir.Module()
        m.add(kernel([], name="k"))
        m.add(func([kir.Return(kir.Call("k", []))], name="f"))
        with pytest.raises(KirValidationError, match="kernel"):
            kir.validate(m)

    def test_workitem_builtin_outside_kernel_rejected(self):
        fn = func([kir.Return(kir.Call("get_global_id", [kir.Const(0)]))])
        with pytest.raises(KirValidationError):
            kir.validate(module_with(fn))

    def test_helper_with_barrier_uncallable(self):
        # Barrier in a helper is rejected at the helper, so the module
        # is invalid regardless of the call.
        m = kir.Module()
        m.add(func([kir.Barrier(), kir.Return(kir.Const(0))], name="h"))
        m.add(kernel([kir.ExprStmt(kir.Call("h", []))], name="k"))
        with pytest.raises(KirValidationError):
            kir.validate(m)


class TestStores:
    def test_store_into_scalar_rejected(self):
        fn = func(
            [
                kir.Decl("x", kir.INT_T, init=kir.Const(0)),
                kir.Store(kir.Var("x"), kir.Const(0), kir.Const(1)),
                kir.Return(kir.Const(0)),
            ]
        )
        with pytest.raises(KirValidationError, match="non-array"):
            kir.validate(module_with(fn))

    def test_store_into_constant_memory_rejected(self):
        p = kir.Param("c", kir.ArrayType(kir.FLOAT_T, kir.CONSTANT))
        fn = kernel(
            [kir.Store(kir.Var("c"), kir.Const(0), kir.Const(1.0))],
            params=[p],
        )
        with pytest.raises(KirValidationError, match="constant"):
            kir.validate(module_with(fn))

    def test_whole_array_assignment_rejected(self):
        p = kir.Param("a", kir.ArrayType(kir.FLOAT_T))
        fn = func(
            [kir.Assign("a", kir.Const(1.0)), kir.Return(kir.Const(0))],
            params=[p],
        )
        with pytest.raises(KirValidationError, match="whole array"):
            kir.validate(module_with(fn))


class TestDivision:
    @pytest.mark.parametrize("op", ["/", "%"])
    def test_operands_must_be_typed_int_or_float(self, op):
        # The engines choose C int or IEEE float semantics by type.
        fn = func([kir.Return(kir.BinOp(op, kir.Const(True), kir.Const(2)))])
        with pytest.raises(KirValidationError, match="int or float"):
            kir.validate(module_with(fn))


class TestAnalysisHelpers:
    def test_written_and_read_arrays(self):
        a = kir.Param("a", kir.ArrayType(kir.FLOAT_T))
        b = kir.Param("b", kir.ArrayType(kir.FLOAT_T))
        base_a = kir.Var("a")
        base_b = kir.Var("b")
        fn = kernel(
            [
                kir.Store(
                    base_a,
                    kir.Const(0),
                    kir.Index(base_b, kir.Const(0)),
                )
            ],
            params=[a, b],
        )
        assert kir.written_arrays(fn) == {"a"}
        assert kir.read_arrays(fn) == {"b"}

    def test_has_barrier(self):
        assert kir.has_barrier(kernel([kir.Barrier()]))
        assert not kir.has_barrier(kernel([]))
        nested = kernel(
            [kir.If(kir.Const(True), [kir.Barrier()])],
        )
        assert kir.has_barrier(nested)
