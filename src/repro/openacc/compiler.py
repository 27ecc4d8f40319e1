"""The pragma compiler: turn annotated kernel-C loops into device kernels.

Behaviour mirrors what the paper reports of the PGI OpenACC compiler:

* an annotated canonical loop whose body has no loop-carried scalar
  writes becomes a 1-D kernel over the outer iterations (``collapse(2)``
  linearises two levels — still a 1-D decomposition: the generated code
  cannot exploit the 2-D thread geometry the way a hand-written kernel
  can, Section 7.4);
* without the non-trivial ``gang``/``worker``/``vector`` clauses the
  generated schedule uses single-iteration gangs (work-group size 1);
  with them it uses the default vector length of 256 — coarse linear
  work-groups that balance poorly under divergence, unlike a
  hand-chosen 2-D tiling;
* ``reduction(op:var)`` produces a strided two-level reduction with one
  partial per gang and a sequential host combine — much less parallel
  than the hand-written tree reduction of Figure 3d;
* loops with data-dependent scalar flow, top-level breaks, or
  non-canonical headers are **not** parallelised — sequential host code
  is generated instead ("there is no guarantee that the compiler will be
  able to generate an effective parallel strategy");
* calls to user functions inside an annotated region abort compilation
  (the paper's PGI compiler could not compile the document-ranking
  source at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import AccError, AccUnsupportedError
from .. import kir
from ..kernelc.parser import Parser
from ..kernelc.typecheck import typecheck
from .analysis import (
    assigned_scalars,
    calls_user_functions,
    declared_names,
    free_vars,
    has_break,
    read_array_names,
    rename_vars,
    written_array_names,
)
from .pragmas import Pragma, parse_pragma

_REDUCE_INIT = {"min": None, "max": None, "+": 0}  # None: seed from host value


@dataclass
class LoopRegion:
    """One annotated loop and the kernel generated for it."""

    pragma: Pragma
    stmt: kir.Stmt
    kind: str  # 'kernel' | 'reduction' | 'sequential'
    kernel_name: str = ""
    arrays: list[str] = field(default_factory=list)
    arrays_in: list[str] = field(default_factory=list)
    arrays_out: list[str] = field(default_factory=list)
    scalars: list[str] = field(default_factory=list)
    loop_var: str = ""
    inner_var: str = ""
    collapse: bool = False
    reduction: Optional[tuple[str, str]] = None
    local_size: int = 1
    reason: str = ""


@dataclass
class DataRegion:
    pragma: Pragma
    stmt: kir.Stmt
    copy: list[str] = field(default_factory=list)
    copyin: list[str] = field(default_factory=list)
    copyout: list[str] = field(default_factory=list)
    #: Element kind of each array the enclosing function declares.
    kinds: dict[str, str] = field(default_factory=dict)


@dataclass
class AccModule:
    """Result of pragma compilation."""

    module: kir.Module  # the original host program (typed)
    kernels: kir.Module  # generated device kernels
    loop_regions: dict[int, LoopRegion]  # keyed by id(stmt)
    data_regions: dict[int, DataRegion]
    report: list[str] = field(default_factory=list)


def _int_const(value: int) -> kir.Const:
    return kir.Const(int(value))


def _ivar(name: str) -> kir.Var:
    var = kir.Var(name)
    var.type = kir.INT_T
    return var


def _ibin(op: str, left: kir.Expr, right: kir.Expr) -> kir.BinOp:
    node = kir.BinOp(op, left, right)
    node.type = kir.INT_T
    return node


class AccCompiler:
    def __init__(self, source: str, allow_calls: bool = False) -> None:
        self.source = source
        self.allow_calls = allow_calls
        parser = Parser(source)
        self.module = parser.parse_module()
        typecheck(self.module)
        self.directives = parser.directives
        self.kernels = kir.Module()
        self.loop_regions: dict[int, LoopRegion] = {}
        self.data_regions: dict[int, DataRegion] = {}
        self.report: list[str] = []
        self._kernel_counter = 0

    # -- directive association ---------------------------------------------

    def _stmt_lines(self) -> list[tuple[int, kir.Stmt]]:
        pairs: list[tuple[int, kir.Stmt]] = []
        for fn in self.module.functions.values():
            for st in kir.walk_stmts(fn.body):
                line = getattr(st, "line", None)
                if line is not None:
                    pairs.append((line, st))
        pairs.sort(key=lambda item: item[0])
        return pairs

    def _target_for(self, pragma: Pragma, pairs) -> kir.Stmt:
        candidates = [st for line, st in pairs if line > pragma.line]
        if not candidates:
            raise AccError(
                f"pragma at line {pragma.line} has no following statement"
            )
        return candidates[0]

    def _array_kinds(self, target: kir.Stmt) -> dict[str, str]:
        """Element kind of each array that the function holding *target*
        declares, as a parameter or a local."""
        for fn in self.module.functions.values():
            stmts = list(kir.walk_stmts(fn.body))
            if any(st is target for st in stmts):
                locals_ = [s for s in stmts if isinstance(s, kir.Decl)]
                decls = fn.params + locals_
                return {
                    d.name: d.type.element.kind
                    for d in decls if isinstance(d.type, kir.ArrayType)
                }
        return {}

    # -- compilation -----------------------------------------------------------

    def compile(self) -> AccModule:
        pairs = self._stmt_lines()
        for directive in self.directives:
            pragma = parse_pragma(directive.text, directive.line)
            if pragma is None:
                continue
            target = self._target_for(pragma, pairs)
            if pragma.kind == "data":
                self.data_regions[id(target)] = DataRegion(
                    pragma,
                    target,
                    copy=list(pragma.copy),
                    copyin=list(pragma.copyin),
                    copyout=list(pragma.copyout),
                    kinds=self._array_kinds(target),
                )
                self.report.append(
                    f"line {pragma.line}: data region "
                    f"copy={pragma.copy} copyin={pragma.copyin} "
                    f"copyout={pragma.copyout}"
                )
                continue
            region = self._compile_loop(pragma, target)
            self.loop_regions[id(target)] = region
            self.report.append(
                f"line {pragma.line}: {region.kind}"
                + (f" ({region.reason})" if region.reason else "")
            )
        return AccModule(
            self.module,
            self.kernels,
            self.loop_regions,
            self.data_regions,
            self.report,
        )

    def _compile_loop(self, pragma: Pragma, stmt: kir.Stmt) -> LoopRegion:
        if not isinstance(stmt, kir.For):
            return LoopRegion(
                pragma,
                stmt,
                "sequential",
                reason="annotated statement is not a canonical for loop",
            )
        body = stmt.body
        called = calls_user_functions(body, self.module)
        if called and not self.allow_calls:
            # The paper: the PGI compiler was not able to compile the
            # document-ranking source at all.  (OpenMP host compilation —
            # allow_calls=True — accepts it, matching the paper's
            # gcc-compiled CPU fallback.)
            raise AccUnsupportedError(
                f"line {pragma.line}: cannot generate device code for "
                f"calls to {sorted(set(called))} inside a parallel region"
            )
        if called:
            for fname in called:
                if fname not in self.kernels.functions:
                    self.kernels.add(self.module.functions[fname])
        if has_break(body):
            return LoopRegion(
                pragma,
                stmt,
                "sequential",
                reason="loop exits early (break) — data-dependent trip count",
            )
        if not isinstance(stmt.step, kir.Const) or stmt.step.value != 1:
            return LoopRegion(
                pragma, stmt, "sequential", reason="non-unit loop step"
            )
        reduction_vars = {var for _, var in pragma.reduction}
        loop_carried = (
            assigned_scalars(body) - declared_names(body) - {stmt.var}
            - reduction_vars
        )
        if loop_carried:
            return LoopRegion(
                pragma,
                stmt,
                "sequential",
                reason=(
                    "loop-carried scalar dependency on "
                    f"{sorted(loop_carried)} — sequential code generated"
                ),
            )
        carried_arrays = _carried_array_deps(body, stmt.var)
        if carried_arrays:
            # The paper's failure case: a data dependency across
            # iterations (e.g. a[i] = a[i-1] + ...) — the compiler emits
            # sequential code instead of a kernel.
            return LoopRegion(
                pragma,
                stmt,
                "sequential",
                reason=(
                    "loop-carried array dependency on "
                    f"{sorted(carried_arrays)} — sequential code generated"
                ),
            )
        if pragma.reduction:
            if len(pragma.reduction) != 1:
                return LoopRegion(
                    pragma, stmt, "sequential",
                    reason="multiple reduction variables",
                )
            return self._reduction_kernel(pragma, stmt)
        return self._parallel_kernel(pragma, stmt)

    # -- plain parallel loop -------------------------------------------------

    def _parallel_kernel(self, pragma: Pragma, stmt: kir.For) -> LoopRegion:
        collapse = False
        inner: Optional[kir.For] = None
        body = stmt.body
        if pragma.collapse >= 2:
            if (
                len(body) == 1
                and isinstance(body[0], kir.For)
                and isinstance(body[0].step, kir.Const)
                and body[0].step.value == 1
            ):
                inner = body[0]
                collapse = True
            # collapse requested but not applicable: fall through 1-D.

        name = self._fresh_kernel_name()
        # Irregular (while-)loops defeat the pragma compiler's
        # vectoriser: the generated schedule falls back to one iteration
        # per gang even when gang/worker/vector clauses are given — the
        # paper's Mandelbrot result ("much worse performance ... even
        # when using the fine-grained gangs and worker annotations").
        irregular = any(
            isinstance(st, kir.While) for st in kir.walk_stmts(stmt.body)
        )
        loop_vars = {stmt.var}
        kernel_body: list[kir.Stmt] = []
        guard_var = "__gid"
        gid_call = kir.Call("get_global_id", [_int_const(0)])
        gid_call.type = kir.INT_T
        kernel_body.append(kir.Decl(guard_var, kir.INT_T, init=gid_call))

        if collapse and inner is not None:
            loop_vars.add(inner.var)
            region_body = inner.body
            trip1 = _ibin("-", _ivar("__stop1"), _ivar("__start1"))
            total = _ibin(
                "*",
                _ibin("-", _ivar("__stop0"), _ivar("__start0")),
                trip1,
            )
            outer_idx = _ibin(
                "+",
                _ivar("__start0"),
                _ibin("/", _ivar(guard_var), trip1),
            )
            inner_idx = _ibin(
                "+",
                _ivar("__start1"),
                _ibin("%", _ivar(guard_var), trip1),
            )
            guarded: list[kir.Stmt] = [
                kir.Decl(stmt.var, kir.INT_T, init=outer_idx),
                kir.Decl(inner.var, kir.INT_T, init=inner_idx),
                *region_body,
            ]
            kernel_body.append(
                kir.If(_ibin("<", _ivar(guard_var), total), guarded)
            )
        else:
            region_body = body
            idx = _ibin("+", _ivar("__start0"), _ivar(guard_var))
            guarded = [
                kir.Decl(stmt.var, kir.INT_T, init=idx),
                *region_body,
            ]
            bound = _ibin("<", _ivar(stmt.var + "__acc_probe"), _int_const(0))
            # guard: start0 + gid < stop0
            cond = _ibin(
                "<", _ibin("+", _ivar("__start0"), _ivar(guard_var)),
                _ivar("__stop0"),
            )
            kernel_body.append(kir.If(cond, guarded))

        scan_body = region_body if not collapse else inner.body
        free = free_vars(stmt.body)
        arrays = sorted(
            n for n, t in free.items() if isinstance(t, kir.ArrayType)
        )
        scalars = sorted(
            n
            for n, t in free.items()
            if not isinstance(t, kir.ArrayType) and n not in loop_vars
        )
        params = [
            kir.Param(n, _as_global(free[n])) for n in arrays
        ] + [
            kir.Param(n, free[n] or kir.INT_T) for n in scalars
        ] + [
            kir.Param("__start0", kir.INT_T),
            kir.Param("__stop0", kir.INT_T),
        ]
        if collapse:
            params += [
                kir.Param("__start1", kir.INT_T),
                kir.Param("__stop1", kir.INT_T),
            ]
        fn = kir.Function(name, params, kir.VOID, kernel_body, is_kernel=True)
        self.kernels.add(fn)

        written = written_array_names(stmt.body)
        read = read_array_names(stmt.body)
        region = LoopRegion(
            pragma,
            stmt,
            "kernel",
            kernel_name=name,
            arrays=arrays,
            arrays_in=sorted(
                (set(pragma.copy) | set(pragma.copyin)) & set(arrays)
            )
            or sorted(read & set(arrays)),
            arrays_out=sorted(
                (set(pragma.copy) | set(pragma.copyout)) & set(arrays)
            )
            or sorted(written & set(arrays)),
            scalars=scalars,
            loop_var=stmt.var,
            inner_var=inner.var if inner is not None else "",
            collapse=collapse,
            local_size=1 if irregular else (256 if pragma.tuned else 1),
        )
        return region

    # -- reduction loop --------------------------------------------------------

    def _reduction_kernel(self, pragma: Pragma, stmt: kir.For) -> LoopRegion:
        op, var = pragma.reduction[0]
        acc = "__acc"
        body = rename_vars(stmt.body, {var: acc})
        # Include the loop header's bounds: the generated kernel keeps the
        # strided loop, so names in start/stop become parameters too.
        free = free_vars([stmt])
        red_type = free.get(var) or kir.FLOAT_T
        if isinstance(red_type, kir.ArrayType):
            raise AccError(f"reduction variable {var!r} is an array")

        name = self._fresh_kernel_name()
        arrays = sorted(
            n
            for n, t in free.items()
            if isinstance(t, kir.ArrayType)
        )
        scalars = sorted(
            n
            for n, t in free.items()
            if not isinstance(t, kir.ArrayType)
            and n not in (var, stmt.var)
        )
        gid_call = kir.Call("get_global_id", [_int_const(0)])
        gid_call.type = kir.INT_T
        gsz_call = kir.Call("get_global_size", [_int_const(0)])
        gsz_call.type = kir.INT_T
        partial = kir.Var("__partial")
        partial.type = kir.ArrayType(
            red_type if isinstance(red_type, kir.ScalarType) else kir.FLOAT_T,
            kir.GLOBAL,
        )
        init_load = kir.Index(partial, _ivar("__g"))
        init_load.type = red_type
        kernel_body: list[kir.Stmt] = [
            kir.Decl("__g", kir.INT_T, init=gid_call),
            kir.Decl("__stride", kir.INT_T, init=gsz_call),
            kir.Decl(acc, red_type, init=init_load),
            kir.For(
                stmt.var,
                _ibin("+", _clone_typed(stmt.start), _ivar("__g")),
                _clone_typed(stmt.stop),
                _ivar("__stride"),
                body,
            ),
            kir.Store(partial, _ivar("__g"), _typed_var(acc, red_type)),
        ]
        params = (
            [kir.Param(n, _as_global(free[n])) for n in arrays]
            + [kir.Param(n, free[n] or kir.INT_T) for n in scalars]
            + [
                kir.Param(
                    "__partial",
                    kir.ArrayType(red_type, kir.GLOBAL),
                )
            ]
        )
        fn = kir.Function(name, params, kir.VOID, kernel_body, is_kernel=True)
        self.kernels.add(fn)
        return LoopRegion(
            pragma,
            stmt,
            "reduction",
            kernel_name=name,
            arrays=arrays,
            arrays_in=sorted(
                (set(pragma.copy) | set(pragma.copyin)) & set(arrays)
            )
            or arrays,
            arrays_out=[],
            scalars=scalars,
            loop_var=stmt.var,
            reduction=(op, var),
            local_size=1,
        )

    def _fresh_kernel_name(self) -> str:
        self._kernel_counter += 1
        return f"__acc_kernel_{self._kernel_counter}"


def _carried_array_deps(body: list[kir.Stmt], loop_var: str) -> set[str]:
    """Arrays written in *body* and also read at an iteration-shifted
    index (``a[i - 1]`` style) — a loop-carried dependence the pragma
    compiler refuses to parallelise.  This is a syntactic test, the kind
    of conservative analysis the paper's discussion of OpenACC's limits
    refers to; it deliberately accepts LUD-style ``m[i*n+k]`` accesses
    where the loop variable is not additively shifted.
    """

    def shifted(expr: kir.Expr) -> bool:
        for node in kir.walk_exprs(expr):
            if (
                isinstance(node, kir.BinOp)
                and node.op in ("+", "-")
                and (
                    (
                        isinstance(node.left, kir.Var)
                        and node.left.name == loop_var
                        and isinstance(node.right, kir.Const)
                    )
                    or (
                        isinstance(node.right, kir.Var)
                        and node.right.name == loop_var
                        and isinstance(node.left, kir.Const)
                    )
                )
            ):
                return True
        return False

    written = written_array_names(body)
    out: set[str] = set()
    for st in kir.walk_stmts(body):
        for e in kir.walk_exprs(st):
            if (
                isinstance(e, kir.Index)
                and isinstance(e.base, kir.Var)
                and e.base.name in written
                and shifted(e.index)
            ):
                out.add(e.base.name)
    return out


def _as_global(typ) -> kir.ArrayType:
    assert isinstance(typ, kir.ArrayType)
    if typ.space == kir.GLOBAL:
        return typ
    return kir.ArrayType(typ.element, kir.GLOBAL)


def _clone_typed(expr: kir.Expr) -> kir.Expr:
    import copy as _copy

    return _copy.deepcopy(expr)


def _typed_var(name: str, typ) -> kir.Var:
    var = kir.Var(name)
    var.type = typ
    return var


def compile_acc(source: str, allow_calls: bool = False) -> AccModule:
    """Compile OpenACC/OpenMP-annotated kernel-C *source*."""
    return AccCompiler(source, allow_calls=allow_calls).compile()
