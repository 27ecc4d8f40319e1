"""Reference interpreter for kernel IR.

This is the slow, exact engine: it walks the IR tree per work-item,
counting every operation.  Kernel dispatches run on the generated
engines (:mod:`repro.kir.pycodegen`, :mod:`repro.kir.npcodegen`); the
interpreter is the oracle tests cross-check them against, and it runs
the OpenACC host code.

Semantics
---------
* ``/``, ``%`` and the math builtins are :mod:`repro.kir.semantics`'s:
  ``int`` division truncates toward zero as in C, and ``float``
  operations follow IEEE 754 (inf or NaN, never an error).
* Out-of-bounds array access raises :class:`KirRuntimeError` (a real GPU
  would silently corrupt memory; we prefer loud failure).
* Barriers are implemented by yielding from the execution generator;
  the caller resumes every work-item of a group in lock-step.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from ..errors import KirRuntimeError
from . import ir, semantics


class WorkItem:
    """Identity of one work-item inside an NDRange dispatch."""

    __slots__ = ("gid", "lid", "group", "gsize", "lsize", "ngroups", "dim")

    def __init__(
        self,
        gid: Sequence[int],
        lid: Sequence[int],
        group: Sequence[int],
        gsize: Sequence[int],
        lsize: Sequence[int],
    ) -> None:
        self.gid = tuple(gid)
        self.lid = tuple(lid)
        self.group = tuple(group)
        self.gsize = tuple(gsize)
        self.lsize = tuple(lsize)
        self.ngroups = tuple(g // l for g, l in zip(gsize, lsize))
        self.dim = len(self.gsize)


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class Interpreter:
    """Tree-walking evaluator for a :class:`~repro.kir.ir.Module`.

    The ``ops`` attribute accumulates the number of primitive operations
    executed; the cost model prices kernels from these counts.
    """

    def __init__(self, module: ir.Module) -> None:
        self.module = module
        self.ops = 0

    # -- host entry points ---------------------------------------------

    def call(self, name: str, args: Sequence[Any]) -> Any:
        """Call a non-kernel function as host code and return its value."""
        fn = self.module.functions.get(name)
        if fn is None:
            raise KirRuntimeError(f"no function {name!r}")
        if fn.is_kernel:
            raise KirRuntimeError(f"{name!r} is a kernel; use run_workitem")
        return self._call_function(fn, list(args))

    def run_workitem(
        self, kernel: ir.Function, args: Sequence[Any], wi: WorkItem,
        local_mem: Optional[dict[str, list]] = None,
    ) -> Iterator[None]:
        """Run one work-item of *kernel* as a generator.

        The generator yields once per barrier; the caller drives all items
        of a work-group in lock-step.  ``local_mem`` maps the names of
        ``local`` arrays (shared across the group) to their backing lists.
        """
        env: dict[str, Any] = dict(zip(kernel.param_names(), args))
        if local_mem:
            env.update(local_mem)
        try:
            yield from self._exec_block(kernel.body, env, wi, local_mem or {})
        except _Return:
            pass

    # -- function calls --------------------------------------------------

    def _call_function(self, fn: ir.Function, args: list[Any]) -> Any:
        if len(args) != len(fn.params):
            raise KirRuntimeError(
                f"{fn.name}: expected {len(fn.params)} args, got {len(args)}"
            )
        env = dict(zip(fn.param_names(), args))
        gen = self._exec_block(fn.body, env, None, {})
        try:
            for _ in gen:
                raise KirRuntimeError(f"{fn.name}: barrier in helper function")
        except _Return as r:
            return r.value
        return None

    # -- statements --------------------------------------------------------

    def _exec_block(
        self, stmts: list[ir.Stmt], env: dict, wi: Optional[WorkItem],
        local_mem: dict,
    ) -> Iterator[None]:
        for st in stmts:
            yield from self._exec_stmt(st, env, wi, local_mem)

    def _exec_stmt(
        self, st: ir.Stmt, env: dict, wi: Optional[WorkItem], local_mem: dict
    ) -> Iterator[None]:
        if isinstance(st, ir.Decl):
            self.ops += 1
            if isinstance(st.type, ir.ArrayType):
                if st.type.space == ir.LOCAL:
                    # Allocated by the group driver; just bind the name.
                    if st.name not in env:
                        size = self._eval(st.size, env, wi)
                        arr = self._new_array(st.type.element, size)
                        env[st.name] = arr
                        local_mem[st.name] = arr
                else:
                    size = self._eval(st.size, env, wi)
                    env[st.name] = self._new_array(st.type.element, size)
            else:
                env[st.name] = (
                    self._eval(st.init, env, wi)
                    if st.init is not None
                    else _zero(st.type)
                )
        elif isinstance(st, ir.Assign):
            self.ops += 1
            env[st.name] = self._eval(st.value, env, wi)
        elif isinstance(st, ir.Store):
            self.ops += 1
            arr = self._eval(st.base, env, wi)
            idx = self._eval(st.index, env, wi)
            val = self._eval(st.value, env, wi)
            try:
                if idx < 0:
                    raise IndexError
                arr[idx] = val
            except IndexError:
                raise KirRuntimeError(
                    f"store index {idx} out of range (len {len(arr)})"
                ) from None
        elif isinstance(st, ir.If):
            if self._eval(st.cond, env, wi):
                yield from self._exec_block(st.then, env, wi, local_mem)
            else:
                yield from self._exec_block(st.orelse, env, wi, local_mem)
        elif isinstance(st, ir.For):
            i = self._eval(st.start, env, wi)
            stop = self._eval(st.stop, env, wi)
            step = self._eval(st.step, env, wi)
            if step == 0:
                raise KirRuntimeError("for loop with zero step")
            outer = st.var in env
            saved = env.get(st.var)
            while (i < stop) if step > 0 else (i > stop):
                self.ops += 2
                env[st.var] = i
                try:
                    yield from self._exec_block(st.body, env, wi, local_mem)
                except _Break:
                    break
                except _Continue:
                    pass
                i = env[st.var] + step
            if outer:
                env[st.var] = saved
            else:
                env.pop(st.var, None)
        elif isinstance(st, ir.While):
            while True:
                self.ops += 1
                if not self._eval(st.cond, env, wi):
                    break
                try:
                    yield from self._exec_block(st.body, env, wi, local_mem)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(st, ir.Break):
            raise _Break()
        elif isinstance(st, ir.Continue):
            raise _Continue()
        elif isinstance(st, ir.Return):
            value = (
                self._eval(st.value, env, wi) if st.value is not None else None
            )
            raise _Return(value)
        elif isinstance(st, ir.ExprStmt):
            self._eval(st.expr, env, wi)
        elif isinstance(st, ir.Barrier):
            yield
        else:
            raise KirRuntimeError(f"unknown statement {type(st).__name__}")

    # -- expressions -------------------------------------------------------

    def _eval(self, e: ir.Expr, env: dict, wi: Optional[WorkItem]) -> Any:
        if isinstance(e, ir.Const):
            return e.value
        if isinstance(e, ir.Var):
            try:
                return env[e.name]
            except KeyError:
                raise KirRuntimeError(f"unbound variable {e.name!r}") from None
        self.ops += 1
        if isinstance(e, ir.BinOp):
            op = e.op
            if op == "&&":
                return bool(self._eval(e.left, env, wi)) and bool(
                    self._eval(e.right, env, wi)
                )
            if op == "||":
                return bool(self._eval(e.left, env, wi)) or bool(
                    self._eval(e.right, env, wi)
                )
            fn = semantics.BINOPS.get(op)
            if fn is None:
                raise KirRuntimeError(f"bad binary op {op!r}")
            lv = self._eval(e.left, env, wi)
            return fn(lv, self._eval(e.right, env, wi))
        if isinstance(e, ir.UnOp):
            v = self._eval(e.operand, env, wi)
            if e.op == "-":
                return -v
            if e.op == "!":
                return not v
            if e.op == "~":
                return ~v
            raise KirRuntimeError(f"bad unary op {e.op!r}")
        if isinstance(e, ir.Index):
            arr = self._eval(e.base, env, wi)
            idx = self._eval(e.index, env, wi)
            try:
                if idx < 0:
                    raise IndexError
                return arr[idx]
            except IndexError:
                raise KirRuntimeError(
                    f"load index {idx} out of range (len {len(arr)})"
                ) from None
        if isinstance(e, ir.Cast):
            v = self._eval(e.operand, env, wi)
            if e.target.kind == ir.INT:
                return semantics.ftoi(v) if isinstance(v, float) else int(v)
            if e.target.kind == ir.FLOAT:
                return float(v)
            return bool(v)
        if isinstance(e, ir.Select):
            if self._eval(e.cond, env, wi):
                return self._eval(e.if_true, env, wi)
            return self._eval(e.if_false, env, wi)
        if isinstance(e, ir.Call):
            return self._call(e, env, wi)
        raise KirRuntimeError(f"unknown expression {type(e).__name__}")

    def _call(self, e: ir.Call, env: dict, wi: Optional[WorkItem]) -> Any:
        name = e.name
        if name in ir.WORKITEM_BUILTINS:
            if wi is None:
                raise KirRuntimeError(f"{name} called outside a kernel")
            if name == "get_work_dim":
                return wi.dim
            d = self._eval(e.args[0], env, wi)
            if not 0 <= d < wi.dim:
                return 0 if name.endswith("_id") else 1
            return {
                "get_global_id": wi.gid,
                "get_local_id": wi.lid,
                "get_group_id": wi.group,
                "get_global_size": wi.gsize,
                "get_local_size": wi.lsize,
                "get_num_groups": wi.ngroups,
            }[name][d]
        args = [self._eval(a, env, wi) for a in e.args]
        builtin = semantics.SCALAR_BUILTINS.get(name)
        if builtin is not None:
            return builtin(*args)
        fn = self.module.functions.get(name)
        if fn is None:
            raise KirRuntimeError(f"call to unknown function {name!r}")
        return self._call_function(fn, args)

    @staticmethod
    def _new_array(element: ir.ScalarType, size: Any) -> list:
        if not isinstance(size, int) or size < 0:
            raise KirRuntimeError(f"bad array size {size!r}")
        return [_zero(element)] * size


def _zero(typ: ir.Type) -> Any:
    if isinstance(typ, ir.ScalarType):
        if typ.kind == ir.INT:
            return 0
        if typ.kind == ir.FLOAT:
            return 0.0
        return False
    return None
