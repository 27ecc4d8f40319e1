"""Fast execution engine: compile kernel IR to Python source.

The OpenCL substrate's devices execute kernels through this module.  For
each IR module we generate one Python source text containing:

* ``f_<name>`` for every helper/host function.  Convention: it counts
  its own ops from zero and returns ``(value, ops)``.  A call is
  evaluated in place, inside its expression, and adds the callee's ops
  to the caller's ``__ops``, so a call in a ``?:`` arm or a ``&&``/``||``
  right operand runs (and is charged) only where C evaluates it.
* ``__warps_<kernel>`` for kernels without barriers or local memory
  ("range mode"): the warp-fold runner iterates the NDRange group by
  group and folds per-item op counts into per-group warp maxima, the
  only granularity the cost model prices.  At SIMD width 1 it yields
  one op count per item (:meth:`KernelRunner.run_range`).  Kernels that
  ``return`` early also get an ``__item_<kernel>`` function it calls.
* ``__wi_<kernel>`` + ``__locals_<kernel>`` for kernels with barriers or
  local memory ("group mode"): a per-work-item *generator* that yields at
  every barrier, plus an allocator for the group's local arrays.  The
  device drives all items of a group in lock-step.

Every runner receives the dispatch's real dimension count as ``__dim``
(``get_work_dim()``); the size tuples it gets are padded to 3-D.

Operation counts are aggregated per straight-line block (one ``__ops +=
N`` per run of simple statements), so they match the reference
interpreter closely but not exactly; tests assert results are identical
and op counts agree within a small tolerance.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as _np

from ..errors import KirError, KirRuntimeError
from . import ir, semantics

_MAX_DIMS = 3

_GLOBALS_BASE: dict[str, Any] = {
    "__idiv": semantics.idiv,
    "__imod": semantics.imod,
    "__fdiv": semantics.fdiv,
    "__fmod": semantics.fmod,
    "__ftoi": semantics.ftoi,
    "__kre": KirRuntimeError,
    **{
        f"__math_{name}": fn
        for name, fn in semantics.SCALAR_BUILTINS.items()
    },
}

# Work-item builtin -> variable prefix used in generated code.
_WI_VARS = {
    "get_global_id": "__g",
    "get_local_id": "__l",
    "get_group_id": "__grp",
    "get_global_size": "__G",
    "get_local_size": "__L",
    "get_num_groups": "__N",
}


class _Emitter:
    """Accumulates indented Python source lines."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _static_cost(e: ir.Expr) -> int:
    """Static operation count of evaluating *e* once."""
    return sum(
        1
        for node in ir.walk_exprs(e)
        if not isinstance(node, (ir.Const, ir.Var))
    )


def _stmt_cost(st: ir.Stmt) -> int:
    """Op cost of a simple (non-control-flow) statement."""
    cost = 1  # the statement itself (decl/assign/store)
    for node in ir.walk_exprs(st):
        if not isinstance(node, (ir.Const, ir.Var)):
            cost += 1
    return cost


class _FnCompiler:
    """Compiles one function or kernel body to Python lines."""

    def __init__(
        self,
        module: ir.Module,
        fn: ir.Function,
        em: _Emitter,
        mode: str,
        used_wi: Optional[set[tuple[str, int]]] = None,
    ) -> None:
        self.module = module
        self.fn = fn
        self.em = em
        self.mode = mode  # 'host', 'item', 'group'
        self.used_wi = used_wi or set()
        self.tmp = 0

    # -- naming ----------------------------------------------------------

    @staticmethod
    def var(name: str) -> str:
        return f"v_{name}"

    def fresh(self) -> str:
        self.tmp += 1
        return f"__t{self.tmp}"

    # -- expressions -------------------------------------------------------

    def expr(self, e: ir.Expr) -> str:
        """Python expression for *e*."""
        if isinstance(e, ir.Const):
            if isinstance(e.value, bool):
                return "True" if e.value else "False"
            return repr(e.value)
        if isinstance(e, ir.Var):
            return self.var(e.name)
        if isinstance(e, ir.BinOp):
            return self._binop(e)
        if isinstance(e, ir.UnOp):
            inner = self.expr(e.operand)
            if e.op == "-":
                return f"(-{inner})"
            if e.op == "!":
                return f"(not {inner})"
            return f"(~{inner})"
        if isinstance(e, ir.Index):
            base = self.expr(e.base)
            idx = self.expr(e.index)
            return f"{base}[{idx}]"
        if isinstance(e, ir.Cast):
            inner = self.expr(e.operand)
            if e.target.kind == ir.INT and _kind(e.operand) == ir.FLOAT:
                return f"__ftoi({inner})"
            pyname = {"int": "int", "float": "float", "bool": "bool"}[
                e.target.kind
            ]
            return f"{pyname}({inner})"
        if isinstance(e, ir.Select):
            c = self.expr(e.cond)
            t = self.expr(e.if_true)
            f = self.expr(e.if_false)
            return f"({t} if {c} else {f})"
        if isinstance(e, ir.Call):
            return self._call(e)
        raise KirError(f"codegen: unknown expr {type(e).__name__}")

    def _binop(self, e: ir.BinOp) -> str:
        lk = _kind(e.left)
        rk = _kind(e.right)
        left = self.expr(e.left)
        right = self.expr(e.right)
        op = e.op
        if op in ("/", "%"):
            # validate() admits only int and float operands here.
            kind = "i" if lk == ir.INT and rk == ir.INT else "f"
            stem = "div" if op == "/" else "mod"
            return f"__{kind}{stem}({left}, {right})"
        if op in ("&&", "||"):
            # Python's and/or return an operand; OpenCL C gives 0 or 1.
            if lk != ir.BOOL:
                left = f"bool({left})"
            if rk != ir.BOOL:
                right = f"bool({right})"
            return f"({left} {'and' if op == '&&' else 'or'} {right})"
        return f"({left} {op} {right})"

    def _call(self, e: ir.Call) -> str:
        name = e.name
        if name in ir.WORKITEM_BUILTINS:
            return self._workitem_ref(e)
        args = ", ".join(self.expr(a) for a in e.args)
        if name in ir.MATH_BUILTINS:
            return f"__math_{name}({args})"
        target = self.module.functions.get(name)
        if target is None:
            raise KirError(f"codegen: unknown function {name!r}")
        # The callee's ops join __ops after its arguments, which may hold
        # calls of their own, are evaluated.
        tmp = self.fresh()
        call = f"({tmp} := f_{name}({args}))"
        return f"(__ops := {call}[1] + __ops, {tmp}[0])[1]"

    def _workitem_ref(self, e: ir.Call) -> str:
        if self.mode == "host":
            raise KirError(f"codegen: {e.name} in host function")
        if e.name == "get_work_dim":
            return "__dim"
        if len(e.args) != 1 or not isinstance(e.args[0], ir.Const):
            raise KirError(
                f"codegen: {e.name} requires a constant dimension argument"
            )
        d = int(e.args[0].value)
        if not 0 <= d < _MAX_DIMS:
            return "0" if e.name.endswith("_id") else "1"
        return f"{_WI_VARS[e.name]}{d}"

    # -- statements --------------------------------------------------------

    def block(self, stmts: list[ir.Stmt]) -> None:
        """Emit *stmts*, batching op-count increments per straight run."""
        pending = 0

        def flush() -> None:
            nonlocal pending
            if pending:
                self.em.emit(f"__ops += {pending}")
                pending = 0

        for st in stmts:
            if isinstance(st, (ir.Decl, ir.Assign, ir.Store, ir.ExprStmt)):
                pending += _stmt_cost(st)
                self.simple_stmt(st)
            elif isinstance(st, ir.Return):
                pending += _stmt_cost(st)
                flush()
                self.return_stmt(st)
            else:
                flush()
                self.control_stmt(st)
        flush()

    def simple_stmt(self, st: ir.Stmt) -> None:
        em = self.em
        if isinstance(st, ir.Decl):
            if isinstance(st.type, ir.ArrayType):
                if st.type.space == ir.LOCAL:
                    # Bound from the group-shared allocation.
                    em.emit(f'{self.var(st.name)} = __locals["{st.name}"]')
                else:
                    assert st.size is not None
                    size = self.expr(st.size)
                    zero = _zero_literal(st.type.element)
                    em.emit(f"{self.var(st.name)} = [{zero}] * ({size})")
            elif st.init is not None:
                em.emit(f"{self.var(st.name)} = {self.expr(st.init)}")
            else:
                em.emit(f"{self.var(st.name)} = {_zero_literal(st.type)}")
        elif isinstance(st, ir.Assign):
            em.emit(f"{self.var(st.name)} = {self.expr(st.value)}")
        elif isinstance(st, ir.Store):
            base = self.expr(st.base)
            idx = self.expr(st.index)
            val = self.expr(st.value)
            em.emit(f"{base}[{idx}] = {val}")
        elif isinstance(st, ir.ExprStmt):
            val = self.expr(st.expr)
            em.emit(f"_ = {val}")
        else:  # pragma: no cover - guarded by block()
            raise KirError(f"not a simple statement: {type(st).__name__}")

    def return_stmt(self, st: ir.Return) -> None:
        if self.mode == "host":
            value = self.expr(st.value) if st.value is not None else "None"
            self.em.emit(f"return ({value}, __ops)")
        else:
            # Kernel early exit: report this item's op count.
            self.em.emit("return __ops")

    def control_stmt(self, st: ir.Stmt) -> None:
        em = self.em
        if isinstance(st, ir.If):
            cost = _static_cost(st.cond) + 1
            em.emit(f"__ops += {cost}")
            em.emit(f"if {self.expr(st.cond)}:")
            em.indent += 1
            self.block(st.then) if st.then else em.emit("pass")
            em.indent -= 1
            if st.orelse:
                em.emit("else:")
                em.indent += 1
                self.block(st.orelse)
                em.indent -= 1
        elif isinstance(st, ir.For):
            self._for_stmt(st)
        elif isinstance(st, ir.While):
            cost = _static_cost(st.cond) + 1
            em.emit("while True:")
            em.indent += 1
            em.emit(f"__ops += {cost}")
            em.emit(f"if not ({self.expr(st.cond)}):")
            em.indent += 1
            em.emit("break")
            em.indent -= 1
            self.block(st.body)
            em.indent -= 1
        elif isinstance(st, ir.Break):
            em.emit("break")
        elif isinstance(st, ir.Continue):
            em.emit("continue")
        elif isinstance(st, ir.Barrier):
            if self.mode != "group":
                raise KirError("codegen: barrier outside group-mode kernel")
            em.emit("yield")
        else:
            raise KirError(f"codegen: unknown statement {type(st).__name__}")

    def _for_stmt(self, st: ir.For) -> None:
        em = self.em
        var = self.var(st.var)
        setup = _static_cost(st.start) + _static_cost(st.stop) + _static_cost(
            st.step
        )
        if setup:
            em.emit(f"__ops += {setup}")
        start = self.expr(st.start)
        stop = self.expr(st.stop)
        step = self.expr(st.step)
        body_writes_var = any(
            isinstance(s, ir.Assign) and s.name == st.var
            for s in ir.walk_stmts(st.body)
        )
        const_step = isinstance(st.step, ir.Const)
        if const_step and not body_writes_var:
            em.emit(f"for {var} in range({start}, {stop}, {step}):")
            em.indent += 1
            em.emit("__ops += 2")
            self.block(st.body)
            em.indent -= 1
        else:
            stop_v = self.fresh()
            step_v = self.fresh()
            em.emit(f"{var} = {start}")
            em.emit(f"{stop_v} = {stop}")
            em.emit(f"{step_v} = {step}")
            if const_step:
                cmp = "<" if st.step.value > 0 else ">"  # type: ignore[attr-defined]
                em.emit(f"while {var} {cmp} {stop_v}:")
            else:
                em.emit(
                    f"while ({var} < {stop_v}) "
                    f"if {step_v} > 0 else ({var} > {stop_v}):"
                )
            em.indent += 1
            em.emit("__ops += 2")
            self.block(st.body)
            em.emit(f"{var} += {step_v}")
            em.indent -= 1


def _kind(e: ir.Expr) -> Optional[str]:
    return e.type.kind if isinstance(e.type, ir.ScalarType) else None


def _zero_literal(typ: ir.Type) -> str:
    if isinstance(typ, ir.ScalarType):
        return {"int": "0", "float": "0.0", "bool": "False"}[typ.kind]
    raise KirError("cannot zero-init an array type here")


def _used_workitem_vars(fn: ir.Function) -> set[tuple[str, int]]:
    """Which (builtin, dim) pairs the kernel body references."""
    used: set[tuple[str, int]] = set()
    for st in ir.walk_stmts(fn.body):
        for e in ir.walk_exprs(st):
            if isinstance(e, ir.Call) and e.name in _WI_VARS:
                if e.args and isinstance(e.args[0], ir.Const):
                    d = int(e.args[0].value)
                    if 0 <= d < _MAX_DIMS:
                        used.add((e.name, d))
    return used


def _local_decls(fn: ir.Function) -> list[ir.Decl]:
    return [
        st
        for st in ir.walk_stmts(fn.body)
        if isinstance(st, ir.Decl)
        and isinstance(st.type, ir.ArrayType)
        and st.type.space == ir.LOCAL
    ]


class KernelRunner:
    """Executable form of one compiled kernel."""

    def __init__(
        self,
        fn: ir.Function,
        run_warps: Optional[Callable] = None,
        wi_factory: Optional[Callable] = None,
        locals_factory: Optional[Callable] = None,
    ) -> None:
        self.fn = fn
        self.name = fn.name
        self.group_mode = run_warps is None
        self._run_warps = run_warps
        self._wi_factory = wi_factory
        self._locals_factory = locals_factory
        #: vectorised batch executor (:mod:`repro.kir.npcodegen`), or
        #: None when the kernel is not vectorisable
        self.vec = None
        #: why ``vec`` is None (an ``npcodegen.eligibility`` reason
        #: string surfaced as a ``dispatch.fallback.<reason>`` counter)
        self.vec_reason: Optional[str] = None
        #: names of the array params the kernel body loads from and
        #: stores into, computed once and shared by every ``Kernel``
        self.read_params = frozenset(ir.read_arrays(fn))
        self.written_params = frozenset(ir.written_arrays(fn))
        #: indices of array params the kernel stores into
        self.written_param_indices: tuple[int, ...] = tuple(
            i
            for i, p in enumerate(fn.params)
            if p.name in self.written_params
        )

    def run_range(
        self, args: Sequence[Any], gsz: Sequence[int], lsz: Sequence[int]
    ) -> list[int]:
        """Execute the full NDRange; returns per-item op counts in
        linear (row-major, dim0 fastest) order.

        Range-mode kernels run on the warp-fold at SIMD width 1 and
        group-mode kernels on the lock-step engine.  Both visit the
        items group by group, so the counts are put back in linear
        order here."""
        g = _pad3(gsz)
        l = _pad3(lsz)
        if self.group_mode:
            ops = self._run_groups(tuple(args), g, l, len(gsz))
        else:
            groups = self._run_warps(tuple(args), g, l, 1, len(gsz))
            ops = [w for warps in groups for w in warps]
        if l[1] == 1 and l[2] == 1:
            return ops  # group-major order is already linear
        from .npcodegen import _fold_perm  # imports this module

        return _np.asarray(ops)[_fold_perm(g, l, len(ops))].tolist()

    def run_group_warps(
        self,
        args: Sequence[Any],
        gsz: Sequence[int],
        lsz: Sequence[int],
        simd: int,
    ) -> list[list[int]]:
        """Execute the NDRange, folding per-item op counts into per-group
        warp maxima on the fly (the only granularity the cost model's
        divergence rule consumes).  Range-mode kernels only."""
        assert self._run_warps is not None
        return self._run_warps(
            tuple(args), _pad3(gsz), _pad3(lsz), simd, len(gsz)
        )

    def _run_groups(
        self, args_t: tuple, g: tuple, l: tuple, dim: int
    ) -> list[int]:
        ngrp = tuple(a // b for a, b in zip(g, l))
        assert self._wi_factory is not None and self._locals_factory is not None
        wi = self._wi_factory
        mk_locals = self._locals_factory
        item_ops: list[int] = []
        group_items = l[0] * l[1] * l[2]
        # One generator slot per work-item, reused for every group.
        gens: list = [None] * group_items
        for gz in range(ngrp[2]):
            for gy in range(ngrp[1]):
                for gx in range(ngrp[0]):
                    local_mem = mk_locals(args_t, g, l, ngrp, dim)
                    grp = (gx, gy, gz)
                    slot = 0
                    for lz in range(l[2]):
                        for ly in range(l[1]):
                            for lx in range(l[0]):
                                gid = (
                                    gx * l[0] + lx,
                                    gy * l[1] + ly,
                                    gz * l[2] + lz,
                                )
                                gens[slot] = wi(
                                    args_t,
                                    gid,
                                    (lx, ly, lz),
                                    grp,
                                    g,
                                    l,
                                    ngrp,
                                    local_mem,
                                    dim,
                                )
                                slot += 1
                    item_ops.extend(self._drive_group(gens, group_items))
        return item_ops

    @staticmethod
    def _drive_group(gens: list, count: int) -> list[int]:
        """Advance all work-item generators in lock-step between barriers."""
        ops = [0] * count
        live: list[int] = list(range(count))
        while live:
            still: list[int] = []
            for i in live:
                try:
                    next(gens[i])
                    still.append(i)
                except StopIteration as stop:
                    ops[i] = stop.value if stop.value is not None else 0
            if still and len(still) != len(live):
                raise KirRuntimeError(
                    "barrier divergence: not all work-items of the group "
                    "reached the barrier"
                )
            live = still
        return ops


def _pad3(dims: Sequence[int]) -> tuple[int, int, int]:
    d = list(dims) + [1] * (_MAX_DIMS - len(dims))
    return (d[0], d[1], d[2])


class CompiledModule:
    """A kir module compiled to Python, ready to execute."""

    def __init__(self, module: ir.Module) -> None:
        from .npcodegen import vectorize_kernel_info  # imports this module

        self.module = module
        self.source = _generate_source(module)
        self.namespace: dict[str, Any] = dict(_GLOBALS_BASE)
        code = compile(self.source, f"<kir:{id(module)}>", "exec")
        exec(code, self.namespace)  # noqa: S102 - our own generated code
        self._runners: dict[str, KernelRunner] = {}
        for fn in module.kernels():
            if ir.has_barrier(fn) or _local_decls(fn):
                runner = KernelRunner(
                    fn,
                    wi_factory=self.namespace[f"__wi_{fn.name}"],
                    locals_factory=self.namespace[f"__locals_{fn.name}"],
                )
            else:
                runner = KernelRunner(
                    fn, run_warps=self.namespace[f"__warps_{fn.name}"]
                )
            runner.vec, runner.vec_reason = vectorize_kernel_info(module, fn)
            self._runners[fn.name] = runner

    def call(self, name: str, args: Sequence[Any]) -> tuple[Any, int]:
        """Call host function *name*; returns ``(value, op_count)``.  An
        index past an array's end is a :class:`KirRuntimeError`."""
        fn = self.module.functions.get(name)
        if fn is None:
            raise KirRuntimeError(f"no function {name!r}")
        if fn.is_kernel:
            raise KirRuntimeError(f"{name!r} is a kernel")
        try:
            return self.namespace[f"f_{name}"](*args)
        except IndexError as exc:
            msg = f"function {name}: array index out of range ({exc})"
            raise KirRuntimeError(msg) from exc

    def kernel_runner(self, name: str) -> KernelRunner:
        runner = self._runners.get(name)
        if runner is None:
            raise KirRuntimeError(f"no kernel {name!r}")
        return runner


def _generate_source(module: ir.Module) -> str:
    em = _Emitter()
    for fn in module.functions.values():
        if fn.is_kernel:
            _gen_kernel(module, fn, em)
        else:
            _gen_host_fn(module, fn, em)
    return em.source()


def _gen_host_fn(module: ir.Module, fn: ir.Function, em: _Emitter) -> None:
    params = ", ".join(f"v_{p.name}" for p in fn.params)
    em.emit(f"def f_{fn.name}({params}):")
    em.indent += 1
    em.emit("__ops = 0")
    comp = _FnCompiler(module, fn, em, mode="host")
    comp.block(fn.body)
    em.emit("return (None, __ops)")
    em.indent -= 1
    em.emit("")


def _gen_kernel(module: ir.Module, fn: ir.Function, em: _Emitter) -> None:
    if ir.has_barrier(fn) or _local_decls(fn):
        _gen_group_kernel(module, fn, em)
    else:
        _gen_range_kernel(module, fn, em)


def _gen_range_kernel(module: ir.Module, fn: ir.Function, em: _Emitter) -> None:
    """The warp-fold runner of a range-mode kernel.

    ``__warps_<k>(__args, __gsz, __lsz, __simd, __dim)`` walks the
    NDRange in the cost model's group/warp order with all index
    arithmetic hoisted into the loop nest, folds per-item op counts into
    per-warp maxima as it goes (the divergence rule never looks below
    warp granularity) and returns one list of warp maxima per
    work-group.  The kernel body is inlined unless it early-returns; in
    that case it becomes ``__item_<k>``, whose parameters after the
    kernel's own are exactly the loop-scope work-item variables it
    reads, then ``__dim``.
    """
    used = _used_workitem_vars(fn)
    params = [f"v_{p.name}" for p in fn.params]
    has_return = any(
        isinstance(st, ir.Return) for st in ir.walk_stmts(fn.body)
    )
    item_params = ", ".join(
        params + [f"{_WI_VARS[name]}{d}" for (name, d) in sorted(used)]
        + ["__dim"]
    )
    if has_return:
        em.emit(f"def __item_{fn.name}({item_params}):")
        em.indent += 1
        em.emit("__ops = 0")
        comp = _FnCompiler(module, fn, em, mode="item", used_wi=used)
        comp.block(fn.body)
        em.emit("return __ops")
        em.indent -= 1
        em.emit("")

    em.emit(f"def __warps_{fn.name}(__args, __gsz, __lsz, __simd, __dim):")
    em.indent += 1
    if params:
        em.emit(f"({', '.join(params)},) = __args")
    for d in range(_MAX_DIMS):
        em.emit(f"__G{d} = __gsz[{d}]")
        em.emit(f"__L{d} = __lsz[{d}]")
        em.emit(f"__N{d} = __G{d} // __L{d}")
    if has_return:
        em.emit(f"__it = __item_{fn.name}")
    em.emit("__out = []")
    em.emit("__oap = __out.append")
    for d in (2, 1, 0):
        em.emit(f"for __grp{d} in range(__N{d}):")
        em.indent += 1
        em.emit(f"__b{d} = __grp{d} * __L{d}")
    em.emit("__warps = []")
    em.emit("__wap = __warps.append")
    em.emit("__wmax = 0")
    em.emit("__lane = 0")
    for d in (2, 1, 0):
        em.emit(f"for __l{d} in range(__L{d}):")
        em.indent += 1
        if ("get_global_id", d) in used:
            em.emit(f"__g{d} = __b{d} + __l{d}")
    if has_return:
        em.emit(f"__ops = __it({item_params})")
    else:
        em.emit("__ops = 0")
        comp = _FnCompiler(module, fn, em, mode="item", used_wi=used)
        comp.block(fn.body)
    em.emit("if __ops > __wmax:")
    em.indent += 1
    em.emit("__wmax = __ops")
    em.indent -= 1
    em.emit("__lane += 1")
    em.emit("if __lane == __simd:")
    em.indent += 1
    em.emit("__wap(__wmax)")
    em.emit("__wmax = 0")
    em.emit("__lane = 0")
    em.indent -= 1
    em.indent -= 3
    em.emit("if __lane:")
    em.indent += 1
    em.emit("__wap(__wmax)")
    em.indent -= 1
    em.emit("__oap(__warps)")
    em.indent -= 3
    em.emit("return __out")
    em.indent -= 1
    em.emit("")


def _gen_group_kernel(module: ir.Module, fn: ir.Function, em: _Emitter) -> None:
    used = _used_workitem_vars(fn)
    params = [f"v_{p.name}" for p in fn.params]

    # Allocator for group-shared local arrays.
    em.emit(
        f"def __locals_{fn.name}(__args, __gsize, __lsize, __ngrp, __dim):"
    )
    em.indent += 1
    if params:
        em.emit(f"({', '.join(params)},) = __args")
    for d in range(_MAX_DIMS):
        em.emit(f"__G{d} = __gsize[{d}]")
        em.emit(f"__L{d} = __lsize[{d}]")
        em.emit(f"__N{d} = __ngrp[{d}]")
    em.emit("__out = {}")
    alloc = _FnCompiler(module, fn, em, mode="group", used_wi=used)
    for decl in _local_decls(fn):
        assert decl.size is not None
        assert isinstance(decl.type, ir.ArrayType)
        size = alloc.expr(decl.size)
        zero = _zero_literal(decl.type.element)
        em.emit(f'__out["{decl.name}"] = [{zero}] * ({size})')
    em.emit("return __out")
    em.indent -= 1
    em.emit("")

    # Per-work-item generator.
    em.emit(
        f"def __wi_{fn.name}(__args, __gid, __lid, __grp, "
        "__gsize, __lsize, __ngrp, __locals, __dim):"
    )
    em.indent += 1
    if params:
        em.emit(f"({', '.join(params)},) = __args")
    for d in range(_MAX_DIMS):
        em.emit(f"__g{d} = __gid[{d}]")
        em.emit(f"__l{d} = __lid[{d}]")
        em.emit(f"__grp{d} = __grp[{d}]")
        em.emit(f"__G{d} = __gsize[{d}]")
        em.emit(f"__L{d} = __lsize[{d}]")
        em.emit(f"__N{d} = __ngrp[{d}]")
    em.emit("__ops = 0")
    comp = _FnCompiler(module, fn, em, mode="group", used_wi=used)
    comp.block(fn.body)
    em.emit("yield")  # ensure generator even if body lacks barriers
    em.emit("return __ops")
    em.indent -= 1
    em.emit("")


def compile_module(module: ir.Module) -> CompiledModule:
    """Compile *module* to executable Python (validating it first)."""
    from .validate import validate

    validate(module)
    return CompiledModule(module)
