"""Semantic analysis for Ensemble programs.

Three concerns, mirroring the paper's compiler:

1. **Type checking** with local inference (``=`` binds, ``:=`` assigns),
   strong int/real separation (int widens to real, never the reverse
   implicitly) and typed channel ends.
2. **OpenCL actor structure** (Section 6.1.1/6.1.2): an ``opencl`` actor
   presents an interface with a single in-channel conveying an
   ``opencl struct``; its behaviour must start with the two ``receive``
   statements and end with a ``send``; everything between is the kernel
   region, restricted to kernel-compatible constructs plus the OpenCL
   work-item/math builtins.
3. **Movability analysis** (Section 4): a value sent on a ``mov``
   channel must not be read again until it is reassigned; violations are
   compile-time errors.

Every expression node gets an ``etype`` attribute used by the compiler
and the kernel extractor.
"""

from __future__ import annotations

from typing import Optional

from .. import kir
from ..errors import MovabilityError, TypeCheckError
from . import ast
from .types import (
    ActorInfo,
    ActorT,
    ArrT,
    BOOL,
    ChanEndT,
    EType,
    INT,
    InterfaceInfo,
    NUMERIC,
    REAL,
    STRING,
    StructInfo,
    StructT,
    TypeTable,
    VOID,
    assignable,
)

# Host-side native functions provided by the runtime (system actors /
# invokenative operations in the paper's VM).
NATIVES: dict[str, tuple[list[EType], EType]] = {
    "printString": ([STRING], VOID),
    "printInt": ([INT], VOID),
    "printReal": ([REAL], VOID),
    "printBool": ([BOOL], VOID),
    "intToReal": ([INT], REAL),
    "realToInt": ([REAL], INT),
    "random": ([], REAL),
    "randomInt": ([INT], INT),
    "clockMillis": ([], INT),
}

# OpenCL work-item builtins, legal only inside a kernel region.
WORKITEM: dict[str, tuple[list[EType], EType]] = {
    "get_global_id": ([INT], INT),
    "get_local_id": ([INT], INT),
    "get_group_id": ([INT], INT),
    "get_global_size": ([INT], INT),
    "get_local_size": ([INT], INT),
    "get_num_groups": ([INT], INT),
    "barrier": ([], VOID),
}

# Math builtins: available both on the host and inside kernels
# ("the standard set of OpenCL calls ... including the math functions"),
# with kernel IR's arities.
MATH: dict[str, tuple[list[EType], EType]] = {
    name: ([REAL] * len(kir.MATH_BUILTINS[name][0]), REAL)
    for name in ("sqrt", "fabs", "exp", "log", "sin", "cos", "pow",
                 "floor", "ceil", "fmin", "fmax", "atan2")
}


class Scope:
    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self.names: dict[str, EType] = {}

    def declare(self, name: str, typ: EType, line: int = 0) -> None:
        if name in self.names:
            raise TypeCheckError(f"{name!r} is already bound", line)
        self.names[name] = typ

    def lookup(self, name: str, line: int = 0) -> EType:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        raise TypeCheckError(f"unknown name {name!r}", line)

    def has(self, name: str) -> bool:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.names:
                return True
            scope = scope.parent
        return False

    def rebind(self, name: str, typ: EType, line: int = 0) -> None:
        """receive may rebind an existing name of the same type."""
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.names:
                if scope.names[name] != typ:
                    raise TypeCheckError(
                        f"receive rebinds {name!r} from "
                        f"{scope.names[name]} to {typ}",
                        line,
                    )
                return
            scope = scope.parent
        self.names[name] = typ


class Checker:
    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.table = TypeTable()
        self._ctx = "host"  # 'host' | 'kernel' | 'boot'
        self._current_fn_ret: Optional[EType] = None
        self._in_actor = False

    # ==================================================================
    # entry point
    # ==================================================================

    def run(self) -> TypeTable:
        self._collect_names()
        self._resolve_structs()
        self._resolve_interfaces()
        self._resolve_signatures()
        for fn in self.program.stage.functions:
            self._check_function(fn)
        for actor in self.program.stage.actors:
            self._check_actor(actor)
        self._check_boot()
        for actor in self.program.stage.actors:
            analyse_movability(actor, self.table)
        return self.table

    # ==================================================================
    # declaration passes
    # ==================================================================

    def _collect_names(self) -> None:
        for struct in self.program.structs:
            if struct.name in self.table.structs:
                raise TypeCheckError(
                    f"duplicate type {struct.name!r}", struct.line
                )
            self.table.structs[struct.name] = StructInfo(
                struct.name, [], is_opencl=struct.is_opencl
            )
        for iface in self.program.interfaces:
            self.table.interfaces[iface.name] = InterfaceInfo(iface.name, [])
        for actor in self.program.stage.actors:
            if actor.name in self.table.actors:
                raise TypeCheckError(
                    f"duplicate actor {actor.name!r}", actor.line
                )
            self.table.actors[actor.name] = ActorInfo(
                actor.name,
                actor.interface,
                [],
                is_opencl=actor.is_opencl,
                settings=dict(actor.opencl_settings),
            )

    def _resolve_structs(self) -> None:
        for struct in self.program.structs:
            info = self.table.structs[struct.name]
            for fdecl in struct.fields:
                ftype = self.table.resolve(fdecl.type)
                info.fields.append((fdecl.name, ftype))
            if struct.is_opencl:
                self._validate_opencl_struct(struct, info)

    def _validate_opencl_struct(
        self, struct: ast.StructDecl, info: StructInfo
    ) -> None:
        """Enforce the paper's shape: two integer arrays (worksize and
        groupsize) plus an in channel and an out channel."""
        int_arrays = [
            name for name, typ in info.fields if typ == ArrT(INT)
        ]
        ins = [
            (name, typ)
            for name, typ in info.fields
            if isinstance(typ, ChanEndT) and typ.direction == "in"
        ]
        outs = [
            (name, typ)
            for name, typ in info.fields
            if isinstance(typ, ChanEndT) and typ.direction == "out"
        ]
        if len(int_arrays) != 2 or len(ins) != 1 or len(outs) != 1:
            raise TypeCheckError(
                f"opencl struct {struct.name!r} must have two integer "
                "arrays (worksize, groupsize), one in channel and one "
                "out channel",
                struct.line,
            )
        if len(info.fields) != 4:
            raise TypeCheckError(
                f"opencl struct {struct.name!r} has extra fields",
                struct.line,
            )
        info.worksize_field, info.groupsize_field = int_arrays
        info.input_field = ins[0][0]
        info.output_field = outs[0][0]
        info.in_movable = ins[0][1].movable

    def _resolve_interfaces(self) -> None:
        for iface in self.program.interfaces:
            info = self.table.interfaces[iface.name]
            for chan in iface.channels:
                ctype = self.table.resolve(chan.type)
                if not isinstance(ctype, ChanEndT):
                    raise TypeCheckError(
                        f"interface field {chan.name!r} is not a channel",
                        chan.line,
                    )
                info.channels.append((chan.name, ctype))
                if isinstance(chan.type, ast.ChanTypeExpr):
                    info.buffers[chan.name] = chan.type.buffer

    def _resolve_signatures(self) -> None:
        for fn in self.program.stage.functions:
            if fn.name in NATIVES or fn.name in MATH:
                raise TypeCheckError(
                    f"function {fn.name!r} shadows a builtin", fn.line
                )
            params = [
                (p.name, self.table.resolve(p.type)) for p in fn.params
            ]
            ret = self.table.resolve(fn.ret_type) if fn.ret_type else VOID
            self.table.functions[fn.name] = (params, ret)
        for actor in self.program.stage.actors:
            info = self.table.actors[actor.name]
            info.ctor_params = [
                (p.name, self.table.resolve(p.type))
                for p in actor.constructor_params
            ]
            if actor.interface not in self.table.interfaces:
                raise TypeCheckError(
                    f"actor {actor.name!r} presents unknown interface "
                    f"{actor.interface!r}",
                    actor.line,
                )

    # ==================================================================
    # functions
    # ==================================================================

    def _check_function(self, fn: ast.FunctionDecl) -> None:
        params, ret = self.table.functions[fn.name]
        scope = Scope()
        for name, typ in params:
            scope.declare(name, typ, fn.line)
        self._current_fn_ret = ret
        self._check_block(fn.body, scope)
        self._current_fn_ret = None

    # ==================================================================
    # actors
    # ==================================================================

    def _actor_scope(self, actor: ast.ActorDecl) -> Scope:
        """State fields + interface channels are in scope inside an actor."""
        scope = Scope()
        iface = self.table.interface(actor.interface)
        for cname, ctype in iface.channels:
            scope.declare(cname, ctype, actor.line)
        return scope

    def _check_actor(self, actor: ast.ActorDecl) -> None:
        self._in_actor = True
        scope = self._actor_scope(actor)
        for state in actor.state:
            typ = self._check_expr(state.init, scope)
            if typ == VOID:
                raise TypeCheckError(
                    f"state field {state.name!r} has void type", state.line
                )
            scope.declare(state.name, typ, state.line)
        ctor_scope = Scope(scope)
        for pname, ptype in self.table.actor(actor.name).ctor_params:
            ctor_scope.declare(pname, ptype, actor.line)
        self._check_block(actor.constructor_body, ctor_scope)
        if actor.is_opencl:
            self._check_opencl_actor(actor, scope)
        else:
            self._check_block(actor.behaviour, Scope(scope))
        self._in_actor = False

    def _check_opencl_actor(self, actor: ast.ActorDecl, scope: Scope) -> None:
        iface = self.table.interface(actor.interface)
        if len(iface.channels) != 1:
            raise TypeCheckError(
                f"opencl actor {actor.name!r}: interface must contain "
                "a single channel",
                actor.line,
            )
        cname, ctype = iface.channels[0]
        if ctype.direction != "in" or not isinstance(ctype.element, StructT):
            raise TypeCheckError(
                f"opencl actor {actor.name!r}: the channel must be an "
                "in channel conveying an opencl struct",
                actor.line,
            )
        sinfo = self.table.struct(ctype.element.name)
        if not sinfo.is_opencl:
            raise TypeCheckError(
                f"opencl actor {actor.name!r}: {sinfo.name} is not an "
                "opencl struct",
                actor.line,
            )
        body = actor.behaviour
        if len(body) < 3:
            raise TypeCheckError(
                f"opencl actor {actor.name!r}: behaviour must contain "
                "receive, receive, ..., send",
                actor.line,
            )
        first, second, last = body[0], body[1], body[-1]
        if not (
            isinstance(first, ast.Receive)
            and isinstance(first.channel, ast.Name)
            and first.channel.id == cname
        ):
            raise TypeCheckError(
                f"opencl actor {actor.name!r}: the first statement must "
                f"receive from {cname!r}",
                getattr(first, "line", actor.line),
            )
        if not (
            isinstance(second, ast.Receive)
            and isinstance(second.channel, ast.FieldAccess)
            and isinstance(second.channel.obj, ast.Name)
            and second.channel.obj.id == first.name
            and second.channel.field == sinfo.input_field
        ):
            raise TypeCheckError(
                f"opencl actor {actor.name!r}: the second statement must "
                f"receive the data from {first.name}.{sinfo.input_field}",
                getattr(second, "line", actor.line),
            )
        if not (
            isinstance(last, ast.Send)
            and isinstance(last.channel, ast.FieldAccess)
            and isinstance(last.channel.obj, ast.Name)
            and last.channel.obj.id == first.name
            and last.channel.field == sinfo.output_field
        ):
            raise TypeCheckError(
                f"opencl actor {actor.name!r}: the last statement must "
                f"send on {first.name}.{sinfo.output_field}",
                getattr(last, "line", actor.line),
            )
        # Type the prologue / kernel region / epilogue.
        inner = Scope(scope)
        self._check_stmt(first, inner)
        self._check_stmt(second, inner)
        self._ctx = "kernel"
        try:
            kernel_scope = Scope(inner)
            for stmt in body[2:-1]:
                self._check_kernel_stmt(stmt, kernel_scope, second.name)
        finally:
            self._ctx = "host"
        self._check_stmt(last, inner)

    def _check_kernel_stmt(
        self, stmt: ast.Stmt, scope: Scope, data_var: str
    ) -> None:
        if isinstance(
            stmt, (ast.Send, ast.Receive, ast.Connect, ast.StopStmt,
                   ast.ReturnStmt)
        ):
            raise TypeCheckError(
                f"{type(stmt).__name__} is not allowed inside a kernel "
                "region",
                stmt.line,
            )
        if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.CallE):
            if stmt.expr.name.startswith("print"):
                raise TypeCheckError(
                    "print statements are not allowed in kernels", stmt.line
                )
        self._check_stmt(stmt, scope)

    # ==================================================================
    # boot
    # ==================================================================

    def _check_boot(self) -> None:
        self._ctx = "boot"
        try:
            self._check_block(self.program.stage.boot, Scope())
        finally:
            self._ctx = "host"

    # ==================================================================
    # statements
    # ==================================================================

    def _check_block(self, stmts: list[ast.Stmt], scope: Scope) -> None:
        for stmt in stmts:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.Bind):
            typ = self._check_expr(stmt.value, scope)
            if typ == VOID:
                raise TypeCheckError(
                    f"cannot bind {stmt.name!r} to a void value", stmt.line
                )
            scope.declare(stmt.name, typ, stmt.line)
        elif isinstance(stmt, ast.Assign):
            target = self._check_lvalue(stmt.target, scope)
            value = self._check_expr(stmt.value, scope)
            if not assignable(target, value):
                raise TypeCheckError(
                    f"cannot assign {value} to {target}", stmt.line
                )
        elif isinstance(stmt, ast.Send):
            chan = self._check_expr(stmt.channel, scope)
            if not isinstance(chan, ChanEndT) or chan.direction != "out":
                raise TypeCheckError(
                    f"send needs an out channel, got {chan}", stmt.line
                )
            value = self._check_expr(stmt.value, scope)
            if not assignable(chan.element, value):
                raise TypeCheckError(
                    f"sending {value} on a channel of {chan.element}",
                    stmt.line,
                )
        elif isinstance(stmt, ast.Receive):
            chan = self._check_expr(stmt.channel, scope)
            if not isinstance(chan, ChanEndT) or chan.direction != "in":
                raise TypeCheckError(
                    f"receive needs an in channel, got {chan}", stmt.line
                )
            scope.rebind(stmt.name, chan.element, stmt.line)
        elif isinstance(stmt, ast.Connect):
            src = self._check_expr(stmt.source, scope)
            dst = self._check_expr(stmt.target, scope)
            if not (isinstance(src, ChanEndT) and src.direction == "out"):
                raise TypeCheckError(
                    f"connect source must be an out channel, got {src}",
                    stmt.line,
                )
            if not (isinstance(dst, ChanEndT) and dst.direction == "in"):
                raise TypeCheckError(
                    f"connect target must be an in channel, got {dst}",
                    stmt.line,
                )
            if src.element != dst.element:
                raise TypeCheckError(
                    f"connect joins {src.element} to {dst.element}",
                    stmt.line,
                )
        elif isinstance(stmt, ast.If):
            cond = self._check_expr(stmt.cond, scope)
            if cond != BOOL:
                raise TypeCheckError(
                    f"if condition must be boolean, got {cond}", stmt.line
                )
            self._check_block(stmt.then, Scope(scope))
            self._check_block(stmt.orelse, Scope(scope))
        elif isinstance(stmt, ast.For):
            start = self._check_expr(stmt.start, scope)
            stop = self._check_expr(stmt.stop, scope)
            if start != INT or stop != INT:
                raise TypeCheckError(
                    "for bounds must be integers", stmt.line
                )
            inner = Scope(scope)
            inner.declare(stmt.var, INT, stmt.line)
            self._check_block(stmt.body, inner)
        elif isinstance(stmt, ast.While):
            cond = self._check_expr(stmt.cond, scope)
            if cond != BOOL:
                raise TypeCheckError(
                    f"while condition must be boolean, got {cond}", stmt.line
                )
            self._check_block(stmt.body, Scope(scope))
        elif isinstance(stmt, ast.StopStmt):
            if not self._in_actor:
                raise TypeCheckError("stop outside an actor", stmt.line)
        elif isinstance(stmt, ast.ReturnStmt):
            if self._current_fn_ret is None:
                raise TypeCheckError("return outside a function", stmt.line)
            if stmt.value is None:
                if self._current_fn_ret != VOID:
                    raise TypeCheckError("return needs a value", stmt.line)
            else:
                value = self._check_expr(stmt.value, scope)
                if not assignable(self._current_fn_ret, value):
                    raise TypeCheckError(
                        f"returning {value} from a function of "
                        f"{self._current_fn_ret}",
                        stmt.line,
                    )
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        else:
            raise TypeCheckError(f"unknown statement {type(stmt).__name__}")

    def _check_lvalue(self, target: ast.Expr, scope: Scope) -> EType:
        if isinstance(target, (ast.Name, ast.FieldAccess, ast.IndexAccess)):
            return self._check_expr(target, scope)
        raise TypeCheckError("invalid assignment target", target.line)

    # ==================================================================
    # expressions
    # ==================================================================

    def _check_expr(self, expr: ast.Expr, scope: Scope) -> EType:
        typ = self._expr_type(expr, scope)
        expr.etype = typ  # annotation consumed by the compiler
        return typ

    def _expr_type(self, expr: ast.Expr, scope: Scope) -> EType:
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.RealLit):
            return REAL
        if isinstance(expr, ast.BoolLit):
            return BOOL
        if isinstance(expr, ast.StringLit):
            return STRING
        if isinstance(expr, ast.Name):
            return scope.lookup(expr.id, expr.line)
        if isinstance(expr, ast.FieldAccess):
            obj = self._check_expr(expr.obj, scope)
            if isinstance(obj, StructT):
                return self.table.struct(obj.name).field_type(expr.field)
            if isinstance(obj, ActorT):
                if self._ctx != "boot":
                    raise TypeCheckError(
                        "actor channels are only accessible from boot",
                        expr.line,
                    )
                info = self.table.actor(obj.name)
                return self.table.interface(info.interface).channel_type(
                    expr.field
                )
            raise TypeCheckError(
                f"cannot access field {expr.field!r} of {obj}", expr.line
            )
        if isinstance(expr, ast.IndexAccess):
            obj = self._check_expr(expr.obj, scope)
            if not isinstance(obj, ArrT):
                raise TypeCheckError(f"cannot index into {obj}", expr.line)
            index = self._check_expr(expr.index, scope)
            if index != INT:
                raise TypeCheckError(
                    f"array index must be integer, got {index}", expr.line
                )
            return obj.element
        if isinstance(expr, ast.BinOpE):
            return self._binop_type(expr, scope)
        if isinstance(expr, ast.UnOpE):
            operand = self._check_expr(expr.operand, scope)
            if expr.op == "-":
                if operand not in NUMERIC:
                    raise TypeCheckError(
                        f"cannot negate {operand}", expr.line
                    )
                return operand
            if operand != BOOL:
                raise TypeCheckError(f"'not' needs a boolean", expr.line)
            return BOOL
        if isinstance(expr, ast.CallE):
            return self._call_type(expr, scope)
        if isinstance(expr, ast.NewArray):
            return self._new_array_type(expr, scope)
        if isinstance(expr, ast.NewStruct):
            return self._new_struct_type(expr, scope)
        if isinstance(expr, ast.NewChannel):
            elem = self.table.resolve(expr.element)
            return ChanEndT(expr.direction, elem, expr.movable)
        raise TypeCheckError(f"unknown expression {type(expr).__name__}")

    def _binop_type(self, expr: ast.BinOpE, scope: Scope) -> EType:
        left = self._check_expr(expr.left, scope)
        right = self._check_expr(expr.right, scope)
        op = expr.op
        if op in ("+", "-", "*", "/"):
            if left not in NUMERIC or right not in NUMERIC:
                raise TypeCheckError(
                    f"operator {op!r} needs numeric operands, got "
                    f"{left} and {right}",
                    expr.line,
                )
            return REAL if REAL in (left, right) else INT
        if op == "%":
            if left != INT or right != INT:
                raise TypeCheckError(
                    "operator '%' needs integer operands", expr.line
                )
            return INT
        if op in ("<", "<=", ">", ">="):
            if left not in NUMERIC or right not in NUMERIC:
                raise TypeCheckError(
                    f"operator {op!r} needs numeric operands", expr.line
                )
            return BOOL
        if op in ("==", "!="):
            if left != right and not (
                left in NUMERIC and right in NUMERIC
            ):
                raise TypeCheckError(
                    f"cannot compare {left} with {right}", expr.line
                )
            return BOOL
        if op in ("and", "or"):
            if left != BOOL or right != BOOL:
                raise TypeCheckError(
                    f"operator {op!r} needs boolean operands", expr.line
                )
            return BOOL
        raise TypeCheckError(f"unknown operator {op!r}", expr.line)

    def _call_type(self, expr: ast.CallE, scope: Scope) -> EType:
        name = expr.name
        arg_types = [self._check_expr(a, scope) for a in expr.args]

        def check_sig(params: list[EType], ret: EType) -> EType:
            if len(arg_types) != len(params):
                raise TypeCheckError(
                    f"{name} expects {len(params)} arguments, got "
                    f"{len(arg_types)}",
                    expr.line,
                )
            for want, got in zip(params, arg_types):
                if not assignable(want, got):
                    raise TypeCheckError(
                        f"{name}: argument of {got} where {want} expected",
                        expr.line,
                    )
            return ret

        if name in WORKITEM:
            if self._ctx != "kernel":
                raise TypeCheckError(
                    f"{name} is only available inside a kernel", expr.line
                )
            return check_sig(*WORKITEM[name])
        if name in MATH:
            return check_sig(*MATH[name])
        if name == "length":
            if len(arg_types) != 1 or not isinstance(arg_types[0], ArrT):
                raise TypeCheckError("length expects one array", expr.line)
            return INT
        if name in ("fillPattern1D", "fillPattern2D", "fillPatternCond2D"):
            if self._ctx == "kernel":
                raise TypeCheckError(
                    f"{name} is not available inside a kernel", expr.line
                )
            want_args = {"fillPattern1D": 6, "fillPattern2D": 7,
                         "fillPatternCond2D": 8}[name]
            if len(arg_types) != want_args:
                raise TypeCheckError(
                    f"{name} expects {want_args} arguments", expr.line
                )
            arr = arg_types[0]
            if not isinstance(arr, ArrT):
                raise TypeCheckError(f"{name}: first argument must be an "
                                     "array", expr.line)
            want_dims = 1 if name == "fillPattern1D" else 2
            if arr.ndim != want_dims:
                raise TypeCheckError(
                    f"{name}: array must be {want_dims}-D", expr.line
                )
            if name == "fillPatternCond2D":
                for t in arg_types[1:]:
                    if t != INT:
                        raise TypeCheckError(
                            f"{name}: pattern arguments must be integers",
                            expr.line,
                        )
            else:
                for t in arg_types[1:-1]:
                    if t != INT:
                        raise TypeCheckError(
                            f"{name}: pattern arguments must be integers",
                            expr.line,
                        )
                if arg_types[-1] != REAL:
                    raise TypeCheckError(
                        f"{name}: the divisor must be real", expr.line
                    )
            return VOID
        if name == "minElement":
            if len(arg_types) != 1 or not isinstance(arg_types[0], ArrT):
                raise TypeCheckError("minElement expects one array", expr.line)
            if self._ctx == "kernel":
                raise TypeCheckError(
                    "minElement is not available inside a kernel", expr.line
                )
            return arg_types[0].scalar
        if name == "checksumWeighted":
            if len(arg_types) != 1 or not isinstance(arg_types[0], ArrT):
                raise TypeCheckError(
                    "checksumWeighted expects one array", expr.line
                )
            if self._ctx == "kernel":
                raise TypeCheckError(
                    "checksumWeighted is not available inside a kernel",
                    expr.line,
                )
            return REAL if arg_types[0].scalar == REAL else INT
        if name in NATIVES:
            if self._ctx == "kernel" and name not in (
                "intToReal", "realToInt"
            ):
                raise TypeCheckError(
                    f"{name} is not available inside a kernel", expr.line
                )
            return check_sig(*NATIVES[name])
        if name in self.table.functions:
            params, ret = self.table.functions[name]
            return check_sig([t for _, t in params], ret)
        raise TypeCheckError(f"unknown function {name!r}", expr.line)

    def _new_array_type(self, expr: ast.NewArray, scope: Scope) -> EType:
        if expr.space == "local" and self._ctx != "kernel":
            raise TypeCheckError(
                "'new local' arrays exist only inside kernels", expr.line
            )
        elem = self.table.resolve(expr.element)
        if elem not in (INT, REAL, BOOL):
            raise TypeCheckError(
                f"arrays of {elem} are not supported", expr.line
            )
        for dim in expr.dims:
            if self._check_expr(dim, scope) != INT:
                raise TypeCheckError(
                    "array dimensions must be integers", expr.line
                )
        typ: EType = elem
        for _ in expr.dims:
            typ = ArrT(typ)
        if expr.fill is not None:
            fill = self._check_expr(expr.fill, scope)
            if not assignable(elem, fill):
                raise TypeCheckError(
                    f"array fill of {fill} where {elem} expected", expr.line
                )
        return typ

    def _new_struct_type(self, expr: ast.NewStruct, scope: Scope) -> EType:
        if expr.type_name in self.table.actors:
            if self._ctx == "kernel":
                raise TypeCheckError(
                    "cannot create actors inside a kernel", expr.line
                )
            info = self.table.actor(expr.type_name)
            if len(expr.args) != len(info.ctor_params):
                raise TypeCheckError(
                    f"actor {expr.type_name} constructor expects "
                    f"{len(info.ctor_params)} arguments",
                    expr.line,
                )
            for arg, (_, want) in zip(expr.args, info.ctor_params):
                got = self._check_expr(arg, scope)
                if not assignable(want, got):
                    raise TypeCheckError(
                        f"constructor argument of {got} where {want} "
                        "expected",
                        expr.line,
                    )
            return ActorT(expr.type_name)
        sinfo = self.table.struct(expr.type_name)
        if len(expr.args) != len(sinfo.fields):
            raise TypeCheckError(
                f"struct {expr.type_name} expects {len(sinfo.fields)} "
                f"fields, got {len(expr.args)}",
                expr.line,
            )
        for arg, (fname, want) in zip(expr.args, sinfo.fields):
            got = self._check_expr(arg, scope)
            ok = (
                assignable(want, got)
                or (
                    isinstance(want, ChanEndT)
                    and isinstance(got, ChanEndT)
                    and want.direction == got.direction
                    and want.element == got.element
                )
            )
            if not ok:
                raise TypeCheckError(
                    f"field {fname!r}: {got} where {want} expected",
                    expr.line,
                )
        return StructT(expr.type_name)


# =====================================================================
# Movability analysis
# =====================================================================


def _expr_names(expr: ast.Expr):
    """Yield the names *read* by an expression (root names only)."""
    if isinstance(expr, ast.Name):
        yield expr.id
    elif isinstance(expr, ast.FieldAccess):
        yield from _expr_names(expr.obj)
    elif isinstance(expr, ast.IndexAccess):
        yield from _expr_names(expr.obj)
        yield from _expr_names(expr.index)
    elif isinstance(expr, ast.BinOpE):
        yield from _expr_names(expr.left)
        yield from _expr_names(expr.right)
    elif isinstance(expr, ast.UnOpE):
        yield from _expr_names(expr.operand)
    elif isinstance(expr, ast.CallE):
        for arg in expr.args:
            yield from _expr_names(arg)
    elif isinstance(expr, (ast.NewArray, ast.NewStruct)):
        for child in getattr(expr, "dims", []) or []:
            yield from _expr_names(child)
        for child in getattr(expr, "args", []) or []:
            yield from _expr_names(child)
        fill = getattr(expr, "fill", None)
        if fill is not None:
            yield from _expr_names(fill)


def _root_name(expr: ast.Expr) -> Optional[str]:
    while isinstance(expr, (ast.FieldAccess, ast.IndexAccess)):
        expr = expr.obj
    if isinstance(expr, ast.Name):
        return expr.id
    return None


class _MoveState:
    def __init__(self) -> None:
        self.moved: set[str] = set()

    def copy(self) -> "_MoveState":
        clone = _MoveState()
        clone.moved = set(self.moved)
        return clone


def analyse_movability(actor: ast.ActorDecl, table: TypeTable) -> None:
    """Reject use-after-send of movable values (compile-time, as in the
    paper's inter-procedural analysis — here intra-behaviour with a
    two-pass fixed point over the implicit behaviour loop)."""

    def check_read(expr: ast.Expr, state: _MoveState) -> None:
        for name in _expr_names(expr):
            if name in state.moved:
                raise MovabilityError(
                    f"actor {actor.name!r}: movable value {name!r} used "
                    "after being sent",
                    getattr(expr, "line", 0),
                )

    def walk(stmts: list[ast.Stmt], state: _MoveState) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Bind):
                check_read(stmt.value, state)
                state.moved.discard(stmt.name)
            elif isinstance(stmt, ast.Assign):
                check_read(stmt.value, state)
                root = _root_name(stmt.target)
                if isinstance(stmt.target, ast.Name):
                    state.moved.discard(stmt.target.id)
                elif root is not None and root in state.moved:
                    raise MovabilityError(
                        f"actor {actor.name!r}: movable value {root!r} "
                        "written through after being sent",
                        stmt.line,
                    )
            elif isinstance(stmt, ast.Receive):
                chan_t = getattr(stmt.channel, "etype", None)
                check_read(stmt.channel, state)
                state.moved.discard(stmt.name)
            elif isinstance(stmt, ast.Send):
                check_read(stmt.value, state)
                check_read(stmt.channel, state)
                chan_t = getattr(stmt.channel, "etype", None)
                if isinstance(chan_t, ChanEndT) and chan_t.movable:
                    root = _root_name(stmt.value)
                    if root is not None:
                        state.moved.add(root)
            elif isinstance(stmt, ast.Connect):
                check_read(stmt.source, state)
                check_read(stmt.target, state)
            elif isinstance(stmt, ast.If):
                check_read(stmt.cond, state)
                then_state = state.copy()
                else_state = state.copy()
                walk(stmt.then, then_state)
                walk(stmt.orelse, else_state)
                state.moved = then_state.moved | else_state.moved
            elif isinstance(stmt, ast.For):
                check_read(stmt.start, state)
                check_read(stmt.stop, state)
                walk(stmt.body, state)
                walk(stmt.body, state)  # loop back-edge
            elif isinstance(stmt, ast.While):
                check_read(stmt.cond, state)
                walk(stmt.body, state)
                walk(stmt.body, state)
            elif isinstance(stmt, ast.ExprStmt):
                check_read(stmt.expr, state)
            # Stop/Return carry no movability effects beyond reads.
            elif isinstance(stmt, ast.ReturnStmt) and stmt.value is not None:
                check_read(stmt.value, state)

    state = _MoveState()
    walk(actor.constructor_body, state)
    # The behaviour clause repeats: analyse twice so a value moved at the
    # bottom and read at the top is caught.
    walk(actor.behaviour, state)
    walk(actor.behaviour, state)


def typecheck(program: ast.Program) -> TypeTable:
    """Check *program*; returns the resolved type table."""
    return Checker(program).run()
