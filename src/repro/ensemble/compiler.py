"""Compile checked Ensemble ASTs to VM bytecode.

Each actor yields three code objects (state initialisation, constructor,
behaviour) plus, for ``opencl`` actors, a :class:`KernelPlan`: the
behaviour compiles to *prologue receives* + ``DISPATCH`` + *epilogue
send*, with the extracted kernel serialised to kernel-C inside the plan
(see :mod:`repro.ensemble.kernelgen`).  The boot block compiles to its
own code object executed by the stage at startup.
"""

from __future__ import annotations

from typing import Optional

from ..errors import TypeCheckError
from . import ast
from .bytecode import (
    Code,
    CompiledActor,
    CompiledFunction,
    CompiledProgram,
    KernelPlan,
)
from .kernelgen import KernelGenerator
from .typecheck import MATH, NATIVES, WORKITEM
from .types import ArrT, ChanEndT, StructT, TypeTable

_DTYPE = {"integer": "int", "real": "float", "boolean": "bool"}


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.slots: dict[str, int] = {}

    def lookup(self, name: str) -> Optional[int]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.slots:
                return scope.slots[name]
            scope = scope.parent
        return None


class FnCompiler:
    """Compiles one statement list to a Code object."""

    def __init__(
        self,
        name: str,
        table: TypeTable,
        state_names: frozenset[str] = frozenset(),
        channel_names: frozenset[str] = frozenset(),
    ) -> None:
        self.name = name
        self.table = table
        self.state_names = state_names
        self.channel_names = channel_names
        self.code = Code(name)
        self.scope = _Scope()
        self.next_slot = 0

    # -- emission helpers ---------------------------------------------------

    def emit(self, op: str, arg=None) -> int:
        self.code.instrs.append((op, arg))
        return len(self.code.instrs) - 1

    def patch(self, index: int, target: int) -> None:
        op, _ = self.code.instrs[index]
        self.code.instrs[index] = (op, target)

    def here(self) -> int:
        return len(self.code.instrs)

    def new_slot(self, name: str) -> int:
        slot = self.next_slot
        self.next_slot += 1
        self.scope.slots[name] = slot
        return slot

    def declare_param(self, name: str) -> int:
        slot = self.new_slot(name)
        self.code.param_slots.append(slot)
        return slot

    def finish(self) -> Code:
        self.code.nlocals = self.next_slot
        return self.code

    def push_scope(self) -> None:
        self.scope = _Scope(self.scope)

    def pop_scope(self) -> None:
        assert self.scope.parent is not None
        self.scope = self.scope.parent

    # -- statements --------------------------------------------------------

    def compile_block(self, stmts: list[ast.Stmt]) -> None:
        self.push_scope()
        for stmt in stmts:
            self.compile_stmt(stmt)
        self.pop_scope()

    def compile_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Bind):
            self.expr(stmt.value)
            self.emit("STOREL", self.new_slot(stmt.name))
        elif isinstance(stmt, ast.Assign):
            self._assign(stmt)
        elif isinstance(stmt, ast.Send):
            self.expr(stmt.value)
            self.expr(stmt.channel)
            chan_t = getattr(stmt.channel, "etype", None)
            movable = isinstance(chan_t, ChanEndT) and chan_t.movable
            self.emit("SEND", movable)
        elif isinstance(stmt, ast.Receive):
            self.expr(stmt.channel)
            self.emit("RECEIVE")
            self._store_name(stmt.name, stmt.line)
        elif isinstance(stmt, ast.Connect):
            self.expr(stmt.source)
            self.expr(stmt.target)
            self.emit("CONNECT")
        elif isinstance(stmt, ast.If):
            self.expr(stmt.cond)
            jf = self.emit("JUMPF")
            self.compile_block(stmt.then)
            if stmt.orelse:
                jend = self.emit("JUMP")
                self.patch(jf, self.here())
                self.compile_block(stmt.orelse)
                self.patch(jend, self.here())
            else:
                self.patch(jf, self.here())
        elif isinstance(stmt, ast.For):
            self._for(stmt)
        elif isinstance(stmt, ast.While):
            top = self.here()
            self.expr(stmt.cond)
            jf = self.emit("JUMPF")
            self.compile_block(stmt.body)
            self.emit("JUMP", top)
            self.patch(jf, self.here())
        elif isinstance(stmt, ast.StopStmt):
            self.emit("STOP")
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                self.expr(stmt.value)
            else:
                self.emit("CONST", None)
            self.emit("RET")
        elif isinstance(stmt, ast.ExprStmt):
            self.expr(stmt.expr)
            self.emit("POP")
        else:
            raise TypeCheckError(
                f"cannot compile {type(stmt).__name__}", stmt.line
            )

    def _for(self, stmt: ast.For) -> None:
        self.push_scope()
        var_slot = self.new_slot(stmt.var)
        stop_slot = self.new_slot(f"__stop_{var_slot}")
        self.expr(stmt.start)
        self.emit("STOREL", var_slot)
        self.expr(stmt.stop)
        self.emit("STOREL", stop_slot)
        top = self.here()
        self.emit("LOADL", var_slot)
        self.emit("LOADL", stop_slot)
        self.emit("BINOP", "<=")
        jf = self.emit("JUMPF")
        self.compile_block(stmt.body)
        self.emit("LOADL", var_slot)
        self.emit("CONST", 1)
        self.emit("BINOP", "+")
        self.emit("STOREL", var_slot)
        self.emit("JUMP", top)
        self.patch(jf, self.here())
        self.pop_scope()

    def _assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.Name):
            self.expr(stmt.value)
            self._store_name(target.id, stmt.line)
        elif isinstance(target, ast.FieldAccess):
            self.expr(stmt.value)
            self.expr(target.obj)
            self.emit("SETFIELD", target.field)
        elif isinstance(target, ast.IndexAccess):
            self.expr(stmt.value)
            self.expr(target.obj)
            self.expr(target.index)
            self.emit("SETINDEX")
        else:
            raise TypeCheckError("invalid assignment target", stmt.line)

    def _store_name(self, name: str, line: int) -> None:
        slot = self.scope.lookup(name)
        if slot is not None:
            self.emit("STOREL", slot)
        elif name in self.state_names:
            self.emit("STORESTATE", name)
        else:
            self.emit("STOREL", self.new_slot(name))

    # -- expressions -------------------------------------------------------

    def expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, (ast.IntLit, ast.RealLit, ast.StringLit)):
            self.emit("CONST", expr.value)
        elif isinstance(expr, ast.BoolLit):
            self.emit("CONST", expr.value)
        elif isinstance(expr, ast.Name):
            self._load_name(expr.id, expr.line)
        elif isinstance(expr, ast.FieldAccess):
            self.expr(expr.obj)
            self.emit("GETFIELD", expr.field)
        elif isinstance(expr, ast.IndexAccess):
            self.expr(expr.obj)
            self.expr(expr.index)
            self.emit("GETINDEX")
        elif isinstance(expr, ast.BinOpE):
            self.expr(expr.left)
            self.expr(expr.right)
            self.emit("BINOP", expr.op)
        elif isinstance(expr, ast.UnOpE):
            self.expr(expr.operand)
            self.emit("UNOP", expr.op)
        elif isinstance(expr, ast.CallE):
            self._call(expr)
        elif isinstance(expr, ast.NewArray):
            for dim in expr.dims:
                self.expr(dim)
            if expr.fill is not None:
                self.expr(expr.fill)
            else:
                elem = str(getattr(expr.element, "name", "real"))
                self.emit(
                    "CONST", {"integer": 0, "real": 0.0, "boolean": False}[elem]
                )
            elem_name = str(getattr(expr.element, "name", "real"))
            self.emit("NEWARRAY", (len(expr.dims), _DTYPE[elem_name]))
        elif isinstance(expr, ast.NewStruct):
            for arg in expr.args:
                self.expr(arg)
            if expr.type_name in self.table.actors:
                self.emit("NEWACTOR", (expr.type_name, len(expr.args)))
            else:
                self.emit("NEWSTRUCT", (expr.type_name, len(expr.args)))
        elif isinstance(expr, ast.NewChannel):
            self.emit("NEWCHAN", (expr.direction, expr.movable))
        else:
            raise TypeCheckError(
                f"cannot compile expression {type(expr).__name__}", expr.line
            )

    def _load_name(self, name: str, line: int) -> None:
        slot = self.scope.lookup(name)
        if slot is not None:
            self.emit("LOADL", slot)
        elif name in self.state_names:
            self.emit("LOADSTATE", name)
        elif name in self.channel_names:
            self.emit("LOADCHAN", name)
        else:
            raise TypeCheckError(f"unknown name {name!r}", line)

    def _call(self, expr: ast.CallE) -> None:
        for arg in expr.args:
            self.expr(arg)
        if expr.name in self.table.functions:
            self.emit("CALL", (expr.name, len(expr.args)))
        elif (expr.name in NATIVES or expr.name in MATH
              or expr.name in ("length", "checksumWeighted", "minElement",
                               "fillPattern1D", "fillPattern2D",
                               "fillPatternCond2D")):
            self.emit("NATIVE", (expr.name, len(expr.args)))
        elif expr.name in WORKITEM:
            raise TypeCheckError(
                f"{expr.name} outside a kernel region", expr.line
            )
        else:
            raise TypeCheckError(f"unknown function {expr.name!r}", expr.line)


class ProgramCompiler:
    def __init__(self, program: ast.Program, table: TypeTable) -> None:
        self.program = program
        self.table = table

    def compile(self) -> CompiledProgram:
        actors = {
            actor.name: self._compile_actor(actor)
            for actor in self.program.stage.actors
        }
        functions = {
            fn.name: self._compile_function(fn)
            for fn in self.program.stage.functions
        }
        boot = FnCompiler("boot", self.table)
        boot.compile_block(self.program.stage.boot)
        struct_fields = {
            name: [fname for fname, _ in info.fields]
            for name, info in self.table.structs.items()
        }
        return CompiledProgram(
            self.program.stage.name,
            actors,
            functions,
            boot.finish(),
            struct_fields=struct_fields,
        )

    def _compile_function(self, fn: ast.FunctionDecl) -> CompiledFunction:
        comp = FnCompiler(fn.name, self.table)
        for param in fn.params:
            comp.declare_param(param.name)
        comp.compile_block(fn.body)
        comp.emit("CONST", None)
        comp.emit("RET")
        return CompiledFunction(fn.name, comp.finish(), len(fn.params))

    def _compile_actor(self, actor: ast.ActorDecl) -> CompiledActor:
        iface = self.table.interface(actor.interface)
        channel_names = frozenset(name for name, _ in iface.channels)
        state_names = frozenset(s.name for s in actor.state)
        channel_specs = [
            (name, chan.direction, chan.movable,
             iface.buffers.get(name, 0))
            for name, chan in iface.channels
        ]

        state = FnCompiler(
            f"{actor.name}.state", self.table, state_names, channel_names
        )
        for decl in actor.state:
            state.expr(decl.init)
            state.emit("STORESTATE", decl.name)

        ctor = FnCompiler(
            f"{actor.name}.constructor", self.table, state_names, channel_names
        )
        for param in actor.constructor_params:
            ctor.declare_param(param.name)
        ctor.compile_block(actor.constructor_body)

        plan: Optional[KernelPlan] = None
        behaviour = FnCompiler(
            f"{actor.name}.behaviour", self.table, state_names, channel_names
        )
        if actor.is_opencl:
            plan = self._compile_opencl_behaviour(actor, behaviour)
        else:
            behaviour.compile_block(actor.behaviour)

        return CompiledActor(
            actor.name,
            actor.interface,
            channel_specs,
            sorted(state_names),
            state.finish(),
            ctor.finish(),
            behaviour.finish(),
            kernel_plan=plan,
        )

    def _compile_opencl_behaviour(
        self, actor: ast.ActorDecl, comp: FnCompiler
    ) -> KernelPlan:
        body = actor.behaviour
        first = body[0]
        second = body[1]
        last = body[-1]
        assert isinstance(first, ast.Receive)
        assert isinstance(second, ast.Receive)
        assert isinstance(last, ast.Send)

        comp.push_scope()
        # Prologue: receive the request struct, then the data.
        comp.expr(first.channel)
        comp.emit("RECEIVE")
        req_slot = comp.new_slot(first.name)
        comp.emit("STOREL", req_slot)
        comp.expr(second.channel)
        comp.emit("RECEIVE")
        data_slot = comp.new_slot(second.name)
        comp.emit("STOREL", data_slot)

        # Extract the kernel and build the plan.
        req_type = first.channel.etype.element  # StructT (opencl struct)
        sinfo = self.table.struct(req_type.name)
        data_type = second.channel.etype.element
        generator = KernelGenerator(
            actor,
            self.table,
            second.name,
            data_type,
            self.program.stage.functions,
        )
        source, params = generator.generate(body[2:-1])
        settings = actor.opencl_settings
        plan = KernelPlan(
            kernel_name=generator.kernel_name,
            kernel_source=source,
            device_type=settings.get("device_type", "GPU"),
            device_index=int(settings.get("device_index", "0")),
            platform_index=int(settings.get("platform_index", "0")),
            req_slot=req_slot,
            data_slot=data_slot,
            data_is_struct=isinstance(data_type, StructT),
            params=params,
            worksize_field=sinfo.worksize_field,
            groupsize_field=sinfo.groupsize_field,
            in_movable=sinfo.in_movable,
        )

        comp.emit("DISPATCH")
        # Epilogue: the final send.
        comp.compile_stmt(last)
        comp.pop_scope()
        return plan


def compile_program(
    program: ast.Program, table: TypeTable
) -> CompiledProgram:
    return ProgramCompiler(program, table).compile()
