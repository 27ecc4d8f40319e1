"""Static validation of kernel IR modules.

Front ends are expected to produce well-typed IR; the validator is the
safety net that catches compiler bugs before execution.  It checks:

* every variable reference is in scope;
* expression nodes carry types consistent with their operands, and
  both operands of ``/`` and ``%`` are typed ``int`` or ``float``;
* barriers appear only in kernels, and never inside helper functions;
* ``local`` declarations appear only in kernels and have a size;
* kernels return void and have scalar-or-array params;
* user-function calls resolve and arity matches.
"""

from __future__ import annotations

from ..errors import KirValidationError
from . import ir


class _Scope:
    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.parent = parent
        self.names: dict[str, ir.Type] = {}

    def declare(self, name: str, typ: ir.Type) -> None:
        if name in self.names:
            raise KirValidationError(f"redeclaration of {name!r}")
        self.names[name] = typ

    def lookup(self, name: str) -> ir.Type:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        raise KirValidationError(f"undeclared variable {name!r}")


class _Validator:
    def __init__(self, module: ir.Module) -> None:
        self.module = module
        self.fn: ir.Function | None = None

    def run(self) -> None:
        for fn in self.module.functions.values():
            self._check_function(fn)

    # -- functions ---------------------------------------------------------

    def _check_function(self, fn: ir.Function) -> None:
        self.fn = fn
        scope = _Scope()
        for p in fn.params:
            if isinstance(p.type, ir.ArrayType) and p.type.space == ir.PRIVATE:
                raise KirValidationError(
                    f"{fn.name}: array param {p.name!r} cannot be private"
                )
            scope.declare(p.name, p.type)
        if fn.is_kernel and fn.ret_type != ir.VOID:
            raise KirValidationError(f"kernel {fn.name} must return void")
        self._check_block(fn.body, scope, in_loop=False)
        self.fn = None

    # -- statements --------------------------------------------------------

    def _check_block(self, stmts: list[ir.Stmt], scope: _Scope, in_loop: bool) -> None:
        for st in stmts:
            self._check_stmt(st, scope, in_loop)

    def _check_stmt(self, st: ir.Stmt, scope: _Scope, in_loop: bool) -> None:
        assert self.fn is not None
        fn = self.fn
        if isinstance(st, ir.Decl):
            if isinstance(st.type, ir.ArrayType):
                if st.type.space == ir.LOCAL and not fn.is_kernel:
                    raise KirValidationError(
                        f"{fn.name}: local array {st.name!r} outside kernel"
                    )
                if st.size is None:
                    raise KirValidationError(
                        f"{fn.name}: array decl {st.name!r} needs a size"
                    )
                self._check_expr(st.size, scope)
            if st.init is not None:
                self._check_expr(st.init, scope)
            scope.declare(st.name, st.type)
        elif isinstance(st, ir.Assign):
            typ = scope.lookup(st.name)
            if isinstance(typ, ir.ArrayType):
                raise KirValidationError(
                    f"{fn.name}: cannot assign whole array {st.name!r}"
                )
            self._check_expr(st.value, scope)
        elif isinstance(st, ir.Store):
            self._check_expr(st.base, scope)
            base_t = self._expr_type(st.base, scope)
            if not isinstance(base_t, ir.ArrayType):
                raise KirValidationError(f"{fn.name}: store into non-array")
            if base_t.space == ir.CONSTANT:
                raise KirValidationError(f"{fn.name}: store into constant memory")
            self._check_expr(st.index, scope)
            self._check_expr(st.value, scope)
        elif isinstance(st, ir.If):
            self._check_expr(st.cond, scope)
            self._check_block(st.then, _Scope(scope), in_loop)
            self._check_block(st.orelse, _Scope(scope), in_loop)
        elif isinstance(st, ir.For):
            self._check_expr(st.start, scope)
            self._check_expr(st.stop, scope)
            self._check_expr(st.step, scope)
            inner = _Scope(scope)
            inner.declare(st.var, ir.INT_T)
            self._check_block(st.body, inner, in_loop=True)
        elif isinstance(st, ir.While):
            self._check_expr(st.cond, scope)
            self._check_block(st.body, _Scope(scope), in_loop=True)
        elif isinstance(st, (ir.Break, ir.Continue)):
            if not in_loop:
                kind = "break" if isinstance(st, ir.Break) else "continue"
                raise KirValidationError(f"{fn.name}: {kind} outside loop")
        elif isinstance(st, ir.Return):
            if st.value is not None:
                if fn.is_kernel:
                    raise KirValidationError(
                        f"kernel {fn.name} cannot return a value"
                    )
                self._check_expr(st.value, scope)
        elif isinstance(st, ir.ExprStmt):
            self._check_expr(st.expr, scope)
        elif isinstance(st, ir.Barrier):
            if not fn.is_kernel:
                raise KirValidationError(
                    f"{fn.name}: barrier outside kernel body"
                )
        else:
            raise KirValidationError(f"unknown statement {type(st).__name__}")

    # -- expressions -------------------------------------------------------

    def _check_expr(self, e: ir.Expr, scope: _Scope) -> None:
        assert self.fn is not None
        fn = self.fn
        if isinstance(e, ir.Const):
            return
        if isinstance(e, ir.Var):
            scope.lookup(e.name)
            return
        if isinstance(e, ir.BinOp):
            if e.op not in ir.ALL_BINOPS:
                raise KirValidationError(f"bad binary op {e.op!r}")
            self._check_expr(e.left, scope)
            self._check_expr(e.right, scope)
            if e.op in ("/", "%"):
                # The engines pick C int or IEEE float semantics from
                # these types.
                for side in (e.left, e.right):
                    kind = getattr(side.type, "kind", None)
                    if kind not in (ir.INT, ir.FLOAT):
                        raise KirValidationError(
                            f"operator {e.op!r} needs int or float "
                            f"operands, got {side.type}"
                        )
            return
        if isinstance(e, ir.UnOp):
            if e.op not in ir.UNARY_OPS:
                raise KirValidationError(f"bad unary op {e.op!r}")
            self._check_expr(e.operand, scope)
            return
        if isinstance(e, ir.Index):
            self._check_expr(e.base, scope)
            base_t = self._expr_type(e.base, scope)
            if not isinstance(base_t, ir.ArrayType):
                raise KirValidationError("indexing a non-array")
            self._check_expr(e.index, scope)
            return
        if isinstance(e, ir.Cast):
            self._check_expr(e.operand, scope)
            return
        if isinstance(e, ir.Select):
            self._check_expr(e.cond, scope)
            self._check_expr(e.if_true, scope)
            self._check_expr(e.if_false, scope)
            return
        if isinstance(e, ir.Call):
            for a in e.args:
                self._check_expr(a, scope)
            if e.name in ir.WORKITEM_BUILTINS:
                if not fn.is_kernel:
                    raise KirValidationError(
                        f"{fn.name}: {e.name} outside kernel"
                    )
                return
            if e.name in ir.MATH_BUILTINS:
                want = len(ir.MATH_BUILTINS[e.name][0])
                if len(e.args) != want:
                    raise KirValidationError(
                        f"{e.name} expects {want} args, got {len(e.args)}"
                    )
                return
            target = self.module.functions.get(e.name)
            if target is None:
                raise KirValidationError(f"call to unknown function {e.name!r}")
            if target.is_kernel:
                raise KirValidationError(f"cannot call kernel {e.name!r}")
            if ir.has_barrier(target):
                raise KirValidationError(
                    f"helper {e.name!r} contains a barrier"
                )
            if len(e.args) != len(target.params):
                raise KirValidationError(
                    f"{e.name} expects {len(target.params)} args,"
                    f" got {len(e.args)}"
                )
            return
        raise KirValidationError(f"unknown expression {type(e).__name__}")

    def _expr_type(self, e: ir.Expr, scope: _Scope) -> ir.Type | None:
        """Best-effort type of *e*: front-end annotation or scope lookup."""
        if e.type is not None:
            return e.type
        if isinstance(e, ir.Var):
            return scope.lookup(e.name)
        return None


def validate(module: ir.Module) -> None:
    """Validate *module*, raising :class:`KirValidationError` on problems."""
    _Validator(module).run()
