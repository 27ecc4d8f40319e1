"""Type checker / annotator for kernel-C programs lowered to kir.

Fills in ``Expr.type`` on every expression, inserts explicit
:class:`~repro.kir.ir.Cast` nodes where C would convert implicitly
(int <-> float, and bool to either, on assignment, argument passing and
return), and rejects
genuinely ill-typed programs.  The annotated types drive the Python code
generator's choice of C-style integer division versus float division.
"""

from __future__ import annotations

from typing import Optional

from ..errors import TypeCheckError
from .. import kir


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.names: dict[str, kir.Type] = {}

    def declare(self, name: str, typ: kir.Type) -> None:
        if name in self.names:
            raise TypeCheckError(f"redeclaration of {name!r}")
        self.names[name] = typ

    def lookup(self, name: str) -> kir.Type:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        raise TypeCheckError(f"undeclared variable {name!r}")


class TypeChecker:
    def __init__(self, module: kir.Module) -> None:
        self.module = module
        self.fn: Optional[kir.Function] = None

    def run(self) -> None:
        for fn in self.module.functions.values():
            self._check_function(fn)

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _numeric(t: kir.Type) -> bool:
        return isinstance(t, kir.ScalarType) and t.kind in (kir.INT, kir.FLOAT)

    def _coerce(self, expr: kir.Expr, want: kir.ScalarType) -> kir.Expr:
        """Return *expr* converted to *want*, inserting a Cast if needed:
        as in C, int, float and bool (0 or 1) convert to int or float,
        and nothing converts implicitly to bool."""
        have = expr.type
        if not isinstance(have, kir.ScalarType):
            raise TypeCheckError(f"expected a {want} value, got {have}")
        if have.kind == want.kind:
            return expr
        if want.kind != kir.BOOL:
            cast = kir.Cast(want, expr)
            cast.type = want
            return cast
        raise TypeCheckError(f"cannot convert {have} to {want}")

    # -- functions ---------------------------------------------------------

    def _check_function(self, fn: kir.Function) -> None:
        self.fn = fn
        scope = _Scope()
        for p in fn.params:
            scope.declare(p.name, p.type)
        self._block(fn.body, scope)
        self.fn = None

    # -- statements --------------------------------------------------------

    def _block(self, stmts: list[kir.Stmt], scope: _Scope) -> None:
        for st in stmts:
            self._stmt(st, scope)

    def _stmt(self, st: kir.Stmt, scope: _Scope) -> None:
        assert self.fn is not None
        if isinstance(st, kir.Decl):
            if isinstance(st.type, kir.ArrayType):
                if st.size is not None:
                    st.size = self._expect_int(self._expr(st.size, scope))
            elif st.init is not None:
                st.init = self._coerce(self._expr(st.init, scope), st.type)
            scope.declare(st.name, st.type)
        elif isinstance(st, kir.Assign):
            target = scope.lookup(st.name)
            if isinstance(target, kir.ArrayType):
                raise TypeCheckError(f"cannot assign to array {st.name!r}")
            value = self._expr(st.value, scope)
            if target.kind == kir.BOOL:
                if not (isinstance(value.type, kir.ScalarType)
                        and value.type.kind == kir.BOOL):
                    raise TypeCheckError(
                        f"assigning non-bool to bool {st.name!r}"
                    )
                st.value = value
            else:
                st.value = self._coerce(value, target)
        elif isinstance(st, kir.Store):
            base = self._expr(st.base, scope)
            if not isinstance(base.type, kir.ArrayType):
                raise TypeCheckError("store into a non-array")
            st.base = base
            st.index = self._expect_int(self._expr(st.index, scope))
            value = self._expr(st.value, scope)
            elem = base.type.element
            if elem.kind == kir.BOOL:
                if not (isinstance(value.type, kir.ScalarType)
                        and value.type.kind == kir.BOOL):
                    raise TypeCheckError("storing non-bool into bool array")
                st.value = value
            else:
                st.value = self._coerce(value, elem)
        elif isinstance(st, kir.If):
            st.cond = self._condition(st.cond, scope)
            self._block(st.then, _Scope(scope))
            self._block(st.orelse, _Scope(scope))
        elif isinstance(st, kir.For):
            st.start = self._expect_int(self._expr(st.start, scope))
            st.stop = self._expect_int(self._expr(st.stop, scope))
            st.step = self._expect_int(self._expr(st.step, scope))
            inner = _Scope(scope)
            inner.declare(st.var, kir.INT_T)
            self._block(st.body, inner)
        elif isinstance(st, kir.While):
            st.cond = self._condition(st.cond, scope)
            self._block(st.body, _Scope(scope))
        elif isinstance(st, kir.Return):
            fn = self.fn
            if st.value is None:
                if fn.ret_type != kir.VOID and not fn.is_kernel:
                    raise TypeCheckError(
                        f"{fn.name}: return without value"
                    )
            else:
                if fn.ret_type == kir.VOID:
                    raise TypeCheckError(
                        f"{fn.name}: void function returns a value"
                    )
                value = self._expr(st.value, scope)
                assert isinstance(fn.ret_type, kir.ScalarType)
                st.value = self._coerce(value, fn.ret_type)
        elif isinstance(st, kir.ExprStmt):
            st.expr = self._expr(st.expr, scope)
        elif isinstance(st, (kir.Break, kir.Continue, kir.Barrier)):
            pass
        else:
            raise TypeCheckError(f"unknown statement {type(st).__name__}")

    def _condition(self, e: kir.Expr, scope: _Scope) -> kir.Expr:
        cond = self._expr(e, scope)
        if not isinstance(cond.type, kir.ScalarType):
            raise TypeCheckError("condition must be a scalar")
        return cond

    def _expect_int(self, e: kir.Expr) -> kir.Expr:
        if not (isinstance(e.type, kir.ScalarType) and e.type.kind == kir.INT):
            raise TypeCheckError(f"expected int, got {e.type}")
        return e

    # -- expressions -------------------------------------------------------

    def _expr(self, e: kir.Expr, scope: _Scope) -> kir.Expr:
        if isinstance(e, kir.Const):
            return e  # type set in __post_init__
        if isinstance(e, kir.Var):
            e.type = scope.lookup(e.name)
            return e
        if isinstance(e, kir.BinOp):
            return self._binop(e, scope)
        if isinstance(e, kir.UnOp):
            e.operand = self._expr(e.operand, scope)
            t = e.operand.type
            if e.op == "-":
                if not self._numeric(t):
                    raise TypeCheckError(f"negating non-numeric {t}")
                e.type = t
            elif e.op == "!":
                e.type = kir.BOOL_T
            else:  # ~
                if not (isinstance(t, kir.ScalarType) and t.kind == kir.INT):
                    raise TypeCheckError("~ requires an int operand")
                e.type = kir.INT_T
            return e
        if isinstance(e, kir.Index):
            e.base = self._expr(e.base, scope)
            if not isinstance(e.base.type, kir.ArrayType):
                raise TypeCheckError("indexing a non-array")
            e.index = self._expect_int(self._expr(e.index, scope))
            e.type = e.base.type.element
            return e
        if isinstance(e, kir.Cast):
            e.operand = self._expr(e.operand, scope)
            if not isinstance(e.operand.type, kir.ScalarType):
                raise TypeCheckError("cannot cast an array")
            e.type = e.target
            return e
        if isinstance(e, kir.Select):
            e.cond = self._condition(e.cond, scope)
            e.if_true = self._expr(e.if_true, scope)
            e.if_false = self._expr(e.if_false, scope)
            t, f = e.if_true.type, e.if_false.type
            if t == f:
                e.type = t
            elif self._numeric(t) and self._numeric(f):
                e.if_true = self._coerce(e.if_true, kir.FLOAT_T)
                e.if_false = self._coerce(e.if_false, kir.FLOAT_T)
                e.type = kir.FLOAT_T
            else:
                raise TypeCheckError("ternary branches have unrelated types")
            return e
        if isinstance(e, kir.Call):
            return self._call(e, scope)
        raise TypeCheckError(f"unknown expression {type(e).__name__}")

    def _binop(self, e: kir.BinOp, scope: _Scope) -> kir.Expr:
        e.left = self._expr(e.left, scope)
        e.right = self._expr(e.right, scope)
        lt, rt = e.left.type, e.right.type
        if e.op in kir.ARITH_OPS:
            if not (self._numeric(lt) and self._numeric(rt)):
                raise TypeCheckError(
                    f"operator {e.op!r} needs numeric operands, "
                    f"got {lt} and {rt}"
                )
            if kir.FLOAT in (lt.kind, rt.kind):  # type: ignore[union-attr]
                e.left = self._coerce(e.left, kir.FLOAT_T)
                e.right = self._coerce(e.right, kir.FLOAT_T)
                e.type = kir.FLOAT_T
            else:
                e.type = kir.INT_T
            return e
        if e.op in kir.COMPARE_OPS:
            if isinstance(lt, kir.ArrayType) or isinstance(rt, kir.ArrayType):
                raise TypeCheckError("cannot compare arrays")
            e.type = kir.BOOL_T
            return e
        if e.op in kir.LOGIC_OPS:
            e.type = kir.BOOL_T
            return e
        # bit ops
        for side in (lt, rt):
            if not (isinstance(side, kir.ScalarType) and side.kind == kir.INT):
                raise TypeCheckError(f"operator {e.op!r} needs int operands")
        e.type = kir.INT_T
        return e

    def _call(self, e: kir.Call, scope: _Scope) -> kir.Expr:
        assert self.fn is not None
        name = e.name
        e.args = [self._expr(a, scope) for a in e.args]
        if name in kir.WORKITEM_BUILTINS:
            if not self.fn.is_kernel:
                raise TypeCheckError(f"{name} used outside a kernel")
            for a in e.args:
                self._expect_int(a)
            e.type = kir.INT_T
            return e
        if name in kir.MATH_BUILTINS:
            arg_kinds, result = kir.MATH_BUILTINS[name]
            if len(e.args) != len(arg_kinds):
                raise TypeCheckError(
                    f"{name} expects {len(arg_kinds)} args, got {len(e.args)}"
                )
            for a in e.args:
                if not self._numeric(a.type):
                    raise TypeCheckError(f"{name}: non-numeric argument")
            if result == kir.FLOAT:
                e.args = [self._coerce(a, kir.FLOAT_T) for a in e.args]
                e.type = kir.FLOAT_T
            else:  # 'follow'
                kinds = {a.type.kind for a in e.args}  # type: ignore[union-attr]
                if kir.FLOAT in kinds:
                    e.args = [self._coerce(a, kir.FLOAT_T) for a in e.args]
                    e.type = kir.FLOAT_T
                else:
                    e.type = kir.INT_T
            return e
        target = self.module.functions.get(name)
        if target is None:
            raise TypeCheckError(f"call to unknown function {name!r}")
        if target.is_kernel:
            raise TypeCheckError(f"cannot call kernel {name!r} directly")
        if len(e.args) != len(target.params):
            raise TypeCheckError(
                f"{name} expects {len(target.params)} args, got {len(e.args)}"
            )
        new_args: list[kir.Expr] = []
        for a, p in zip(e.args, target.params):
            if isinstance(p.type, kir.ArrayType):
                if not isinstance(a.type, kir.ArrayType) or (
                    a.type.element != p.type.element
                ):
                    raise TypeCheckError(
                        f"{name}: argument for {p.name!r} must be "
                        f"a {p.type.element} array"
                    )
                new_args.append(a)
            else:
                new_args.append(self._coerce(a, p.type))
        e.args = new_args
        e.type = target.ret_type if target.ret_type != kir.VOID else None
        return e


def typecheck(module: kir.Module) -> kir.Module:
    """Annotate and verify *module* in place; returns it for chaining."""
    TypeChecker(module).run()
    return module
