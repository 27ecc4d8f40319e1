"""Kernel extraction: lower an OpenCL actor's kernel region to kernel-C.

This is the paper's Section 6.1.2/6.1.3 compiler work:

* the statements between the second ``receive`` and the final ``send``
  become the body of a generated kernel function;
* struct data is flattened — each field becomes a separate kernel
  parameter; multi-dimensional arrays flatten to 1-D with generated
  index arithmetic (extra ``<field>__dim<k>`` int parameters carry the
  inner dimensions); scalar fields are passed as one-element arrays so
  kernel writes reach the host;
* functions called from the kernel region are lowered to C equivalents
  and included in the generated source;
* the result is serialised to a kernel-C string (via the kir unparser)
  and stored in the compiled actor, to be runtime-compiled through the
  ordinary OpenCL program path on first dispatch.
"""

from __future__ import annotations

from typing import Optional

from ..errors import TypeCheckError
from .. import kir
from . import ast
from .bytecode import ParamSpec
from .types import (
    ArrT,
    BOOL,
    EType,
    INT,
    REAL,
    StructT,
    TypeTable,
)

_KIR_SCALAR = {"integer": kir.INT_T, "real": kir.FLOAT_T, "boolean": kir.BOOL_T}
_DTYPE = {"integer": "int", "real": "float", "boolean": "bool"}


def _scalar_kir(etype: EType) -> kir.ScalarType:
    try:
        return _KIR_SCALAR[str(etype)]
    except KeyError:
        raise TypeCheckError(f"{etype} has no kernel representation") from None


def _err(msg: str, node) -> TypeCheckError:
    return TypeCheckError(msg, getattr(node, "line", 0))


class KernelGenerator:
    """Lowers one OpenCL actor's kernel region."""

    def __init__(
        self,
        actor: ast.ActorDecl,
        table: TypeTable,
        data_var: str,
        data_type: EType,
        functions: list[ast.FunctionDecl],
    ) -> None:
        self.actor = actor
        self.table = table
        self.data_var = data_var
        self.data_type = data_type
        self.functions = {fn.name: fn for fn in functions}
        self.kernel_name = f"{actor.name.lower()}_kernel"
        self.module = kir.Module()
        self.params: list[ParamSpec] = []
        self.kir_params: list[kir.Param] = []
        # Ensemble name -> (kir name, EType) for kernel-region locals.
        self.locals: dict[str, EType] = {}
        # struct field name -> (EType); '' key for bare-array data.
        self.fields: dict[str, EType] = {}
        self._lowered_fns: set[str] = set()
        self._fill_counter = 0

    # ------------------------------------------------------------------
    # parameter layout
    # ------------------------------------------------------------------

    def _layout_params(self) -> None:
        if isinstance(self.data_type, StructT):
            info = self.table.struct(self.data_type.name)
            for fname, ftype in info.fields:
                self._add_field_params(fname, ftype)
        elif isinstance(self.data_type, ArrT):
            self._add_field_params("data", self.data_type)
            self.fields[""] = self.data_type
        else:
            raise TypeCheckError(
                f"opencl data must be a struct or array, got {self.data_type}"
            )

    def _add_field_params(self, fname: str, ftype: EType) -> None:
        self.fields[fname] = ftype
        if isinstance(ftype, ArrT):
            elem = _scalar_kir(ftype.scalar)
            self.kir_params.append(
                kir.Param(fname, kir.ArrayType(elem, kir.GLOBAL))
            )
            dtype = _DTYPE[str(ftype.scalar)]
            self.params.append(
                ParamSpec("array", fname, fname=fname, dtype=dtype)
            )
            for axis in range(1, ftype.ndim):
                dim_name = f"{fname}__dim{axis}"
                self.kir_params.append(kir.Param(dim_name, kir.INT_T))
                self.params.append(
                    ParamSpec("dim", dim_name, fname=fname, axis=axis)
                )
        else:
            elem = _scalar_kir(ftype)
            # Primitives travel as 1-element arrays (Section 6.1.2).
            self.kir_params.append(
                kir.Param(fname, kir.ArrayType(elem, kir.GLOBAL))
            )
            dtype = _DTYPE[str(ftype)]
            self.params.append(
                ParamSpec("scalar", fname, fname=fname, dtype=dtype)
            )

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def generate(self, region: list[ast.Stmt]) -> tuple[str, list[ParamSpec]]:
        """Lower *region*; returns (source, params)."""
        self._layout_params()
        body = self._block(region)
        fn = kir.Function(
            self.kernel_name, self.kir_params, kir.VOID, body, is_kernel=True
        )
        self.module.add(fn)
        kir.validate(self.module)
        return kir.unparse_module(self.module), self.params

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _block(self, stmts: list[ast.Stmt]) -> list[kir.Stmt]:
        out: list[kir.Stmt] = []
        for stmt in stmts:
            out.extend(self._stmt(stmt))
        return out

    def _stmt(self, stmt: ast.Stmt) -> list[kir.Stmt]:
        if isinstance(stmt, ast.Bind):
            return self._bind(stmt)
        if isinstance(stmt, ast.Assign):
            return [self._assign(stmt)]
        if isinstance(stmt, ast.If):
            cond = self._expr(stmt.cond)
            return [
                kir.If(cond, self._block(stmt.then), self._block(stmt.orelse))
            ]
        if isinstance(stmt, ast.For):
            self.locals[stmt.var] = INT
            start = self._expr(stmt.start)
            stop = kir.BinOp("+", self._expr(stmt.stop), kir.Const(1))
            stop.type = kir.INT_T
            body = self._block(stmt.body)
            del self.locals[stmt.var]
            return [kir.For(stmt.var, start, stop, kir.Const(1), body)]
        if isinstance(stmt, ast.While):
            return [kir.While(self._expr(stmt.cond), self._block(stmt.body))]
        if isinstance(stmt, ast.ExprStmt):
            if isinstance(stmt.expr, ast.CallE) and stmt.expr.name == "barrier":
                return [kir.Barrier()]
            return [kir.ExprStmt(self._expr(stmt.expr))]
        raise _err(
            f"{type(stmt).__name__} cannot appear in a kernel region", stmt
        )

    def _bind(self, stmt: ast.Bind) -> list[kir.Stmt]:
        if stmt.name in self.fields or stmt.name in self.locals:
            raise _err(f"kernel local {stmt.name!r} shadows a name", stmt)
        if isinstance(stmt.value, ast.NewArray):
            return self._bind_array(stmt, stmt.value)
        init = self._expr(stmt.value)
        etype = stmt.value.etype
        self.locals[stmt.name] = etype
        return [kir.Decl(stmt.name, _scalar_kir(etype), init=init)]

    def _bind_array(
        self, stmt: ast.Bind, new: ast.NewArray
    ) -> list[kir.Stmt]:
        if len(new.dims) != 1:
            raise _err(
                "kernel-local arrays must be one-dimensional", stmt
            )
        elem_et = self.table.resolve(new.element)
        elem = _scalar_kir(elem_et)
        space = kir.LOCAL if new.space == "local" else kir.PRIVATE
        size = self._expr(new.dims[0])
        self.locals[stmt.name] = ArrT(elem_et)
        out: list[kir.Stmt] = [
            kir.Decl(stmt.name, kir.ArrayType(elem, space), size=size)
        ]
        if new.fill is not None:
            # Ensemble has no uninitialised data (no NULL values): the
            # compiler emits an explicit fill loop — the very
            # initialisation overhead the paper discusses for Figure 3e.
            self._fill_counter += 1
            ivar = f"__fill{self._fill_counter}"
            fill = self._expr(new.fill)
            base = kir.Var(stmt.name)
            base.type = kir.ArrayType(elem, space)
            idx = kir.Var(ivar)
            idx.type = kir.INT_T
            if space == kir.LOCAL:
                # Group-shared arrays are filled cooperatively (strided
                # by local id) and a barrier keeps later stores from
                # racing with neighbours' fills.
                lid = kir.Call("get_local_id", [kir.Const(0)])
                lid.type = kir.INT_T
                lsz = kir.Call("get_local_size", [kir.Const(0)])
                lsz.type = kir.INT_T
                cond = kir.BinOp("<", idx, self._expr(new.dims[0]))
                cond.type = kir.BOOL_T
                step = kir.BinOp("+", idx, lsz)
                step.type = kir.INT_T
                out.append(kir.Decl(ivar, kir.INT_T, init=lid))
                out.append(
                    kir.While(cond, [
                        kir.Store(base, idx, fill),
                        kir.Assign(ivar, step),
                    ])
                )
                out.append(kir.Barrier())
            else:
                out.append(
                    kir.For(
                        ivar,
                        kir.Const(0),
                        self._expr(new.dims[0]),
                        kir.Const(1),
                        [kir.Store(base, idx, fill)],
                    )
                )
        return out

    def _assign(self, stmt: ast.Assign) -> kir.Stmt:
        value = self._expr(stmt.value)
        target = stmt.target
        if isinstance(target, ast.Name):
            if target.id not in self.locals:
                raise _err(
                    f"cannot assign to {target.id!r} inside a kernel", stmt
                )
            return kir.Assign(target.id, value)
        if isinstance(target, ast.FieldAccess):
            fname = self._data_field(target)
            ftype = self.fields[fname]
            if isinstance(ftype, ArrT):
                raise _err("cannot assign a whole array field", stmt)
            base = kir.Var(fname)
            base.type = kir.ArrayType(_scalar_kir(ftype), kir.GLOBAL)
            return kir.Store(base, kir.Const(0), value)
        if isinstance(target, ast.IndexAccess):
            base, index = self._flatten_index(target)
            return kir.Store(base, index, value)
        raise _err("invalid kernel assignment target", stmt)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _expr(self, expr: ast.Expr) -> kir.Expr:
        node = self._expr_inner(expr)
        return node

    def _expr_inner(self, expr: ast.Expr) -> kir.Expr:
        if isinstance(expr, ast.IntLit):
            return kir.Const(expr.value)
        if isinstance(expr, ast.RealLit):
            return kir.Const(float(expr.value))
        if isinstance(expr, ast.BoolLit):
            return kir.Const(bool(expr.value))
        if isinstance(expr, ast.Name):
            if expr.id in self.locals:
                var = kir.Var(expr.id)
                var.type = self._kir_type(self.locals[expr.id])
                return var
            if expr.id == self.data_var and "" in self.fields:
                var = kir.Var("data")
                var.type = self._kir_type(self.fields[""])
                return var
            raise _err(
                f"{expr.id!r} is not visible inside the kernel region", expr
            )
        if isinstance(expr, ast.FieldAccess):
            fname = self._data_field(expr)
            ftype = self.fields[fname]
            if isinstance(ftype, ArrT):
                var = kir.Var(fname)
                var.type = self._kir_type(ftype)
                return var
            # Scalar field: element 0 of its 1-element carrier array.
            base = kir.Var(fname)
            base.type = kir.ArrayType(_scalar_kir(ftype), kir.GLOBAL)
            load = kir.Index(base, kir.Const(0))
            load.type = _scalar_kir(ftype)
            return load
        if isinstance(expr, ast.IndexAccess):
            base, index = self._flatten_index(expr)
            load = kir.Index(base, index)
            load.type = _scalar_kir(expr.etype)
            return load
        if isinstance(expr, ast.BinOpE):
            op = {"and": "&&", "or": "||"}.get(expr.op, expr.op)
            node = kir.BinOp(op, self._expr(expr.left), self._expr(expr.right))
            node.type = self._kir_type(expr.etype)
            return node
        if isinstance(expr, ast.UnOpE):
            op = "!" if expr.op == "not" else expr.op
            node = kir.UnOp(op, self._expr(expr.operand))
            node.type = self._kir_type(expr.etype)
            return node
        if isinstance(expr, ast.CallE):
            return self._call(expr)
        raise _err(
            f"{type(expr).__name__} cannot appear in a kernel region", expr
        )

    def _call(self, expr: ast.CallE) -> kir.Expr:
        args = [self._expr(a) for a in expr.args]
        if expr.name == "intToReal":
            cast = kir.Cast(kir.FLOAT_T, args[0])
            cast.type = kir.FLOAT_T
            return cast
        if expr.name == "realToInt":
            cast = kir.Cast(kir.INT_T, args[0])
            cast.type = kir.INT_T
            return cast
        node = kir.Call(expr.name, args)
        if expr.name in self.functions:
            self._lower_function(expr.name)
        node.type = self._kir_type(expr.etype) if expr.etype != "void" else None
        if str(expr.etype) in _KIR_SCALAR:
            node.type = _KIR_SCALAR[str(expr.etype)]
        else:
            node.type = None
        return node

    def _lower_function(self, name: str) -> None:
        """Generate a C equivalent of a stage function used by the kernel
        (paper: 'the compiler will generate C equivalents within this
        string')."""
        if name in self._lowered_fns:
            return
        self._lowered_fns.add(name)
        fn = self.functions[name]
        params_info, ret = self.table.functions[name]
        saved_locals = self.locals
        self.locals = {}
        kparams: list[kir.Param] = []
        for pname, ptype in params_info:
            if isinstance(ptype, ArrT):
                raise _err(
                    f"function {name!r} used in a kernel cannot take "
                    "array parameters",
                    fn,
                )
            kparams.append(kir.Param(pname, _scalar_kir(ptype)))
            self.locals[pname] = ptype
        body = self._fn_block(fn.body)
        self.locals = saved_locals
        ret_t = kir.VOID if str(ret) == "void" else _scalar_kir(ret)
        self.module.add(kir.Function(name, kparams, ret_t, body))

    def _fn_block(self, stmts: list[ast.Stmt]) -> list[kir.Stmt]:
        out: list[kir.Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, ast.ReturnStmt):
                value = (
                    self._expr(stmt.value) if stmt.value is not None else None
                )
                out.append(kir.Return(value))
            else:
                out.extend(self._stmt(stmt))
        return out

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _data_field(self, expr: ast.FieldAccess) -> str:
        if not (
            isinstance(expr.obj, ast.Name) and expr.obj.id == self.data_var
        ):
            raise _err(
                "only fields of the received data are accessible in a "
                "kernel region",
                expr,
            )
        if expr.field not in self.fields:
            raise _err(f"unknown data field {expr.field!r}", expr)
        return expr.field

    def _flatten_index(
        self, expr: ast.IndexAccess
    ) -> tuple[kir.Expr, kir.Expr]:
        """Collapse ``base[i0][i1]...`` into (kir base var, flat index)."""
        indices: list[ast.Expr] = []
        node: ast.Expr = expr
        while isinstance(node, ast.IndexAccess):
            indices.append(node.index)
            node = node.obj
        indices.reverse()
        if isinstance(node, ast.FieldAccess):
            fname = self._data_field(node)
            ftype = self.fields[fname]
        elif isinstance(node, ast.Name):
            if node.id in self.locals:
                fname = node.id
                ftype = self.locals[node.id]
            elif node.id == self.data_var and "" in self.fields:
                fname = "data"
                ftype = self.fields[""]
            else:
                raise _err(f"cannot index {node.id!r} in a kernel", node)
        else:
            raise _err("unsupported kernel array expression", expr)
        if not isinstance(ftype, ArrT):
            raise _err(f"{fname!r} is not an array", expr)
        ndim = ftype.ndim
        if len(indices) != ndim:
            raise _err(
                f"kernel array access must supply all {ndim} indices",
                expr,
            )
        flat = self._expr(indices[0])
        for axis in range(1, ndim):
            dim = kir.Var(f"{fname}__dim{axis}")
            dim.type = kir.INT_T
            mul = kir.BinOp("*", flat, dim)
            mul.type = kir.INT_T
            flat = kir.BinOp("+", mul, self._expr(indices[axis]))
            flat.type = kir.INT_T
        base = kir.Var(fname)
        base.type = self._kir_type_flat(ftype)
        return base, flat

    def _kir_type(self, etype: EType) -> Optional[kir.Type]:
        if isinstance(etype, ArrT):
            return self._kir_type_flat(etype)
        if str(etype) in _KIR_SCALAR:
            return _KIR_SCALAR[str(etype)]
        return None

    def _kir_type_flat(self, etype: ArrT) -> kir.ArrayType:
        return kir.ArrayType(_scalar_kir(etype.scalar), kir.GLOBAL)
