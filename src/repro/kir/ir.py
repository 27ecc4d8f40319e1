"""Kernel IR node definitions.

The kernel IR (kir) is the common executable representation shared by the
kernel-C front end, the Ensemble compiler's kernel extraction, and the
OpenACC pragma compiler.  A device in the OpenCL substrate only ever
executes kir: every front end lowers to it.

Design notes
------------
* Arrays are always one-dimensional.  Front ends flatten multi-dimensional
  arrays and generate explicit index arithmetic, exactly as the Ensemble
  compiler does in the paper (Section 6.1.2).
* Every expression node carries a ``type`` field filled in by the front
  end; the validator checks consistency.
* Address spaces mirror OpenCL: ``global``, ``local``, ``constant``,
  ``private``.  ``local`` arrays are allocated per work-group by the
  execution engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .semantics import BUILTINS

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

INT = "int"
FLOAT = "float"
BOOL = "bool"
VOID = "void"

SCALAR_TYPES = (INT, FLOAT, BOOL)

GLOBAL = "global"
LOCAL = "local"
CONSTANT = "constant"
PRIVATE = "private"

ADDRESS_SPACES = (GLOBAL, LOCAL, CONSTANT, PRIVATE)


@dataclass(frozen=True)
class ScalarType:
    """A scalar value type (int, float or bool)."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in SCALAR_TYPES:
            raise ValueError(f"bad scalar kind: {self.kind!r}")

    @property
    def is_array(self) -> bool:
        return False

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True)
class ArrayType:
    """A 1-D array of scalars living in some address space."""

    element: ScalarType
    space: str = GLOBAL

    def __post_init__(self) -> None:
        if self.space not in ADDRESS_SPACES:
            raise ValueError(f"bad address space: {self.space!r}")

    @property
    def is_array(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.space} {self.element}[]"


Type = Union[ScalarType, ArrayType]

INT_T = ScalarType(INT)
FLOAT_T = ScalarType(FLOAT)
BOOL_T = ScalarType(BOOL)


def scalar(kind: str) -> ScalarType:
    """Return the canonical ScalarType for *kind*."""
    return {INT: INT_T, FLOAT: FLOAT_T, BOOL: BOOL_T}[kind]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for all expression nodes."""

    type: Optional[Type] = field(default=None, init=False)


@dataclass
class Const(Expr):
    """A literal int, float or bool."""

    value: Union[int, float, bool]

    def __post_init__(self) -> None:
        if isinstance(self.value, bool):
            self.type = BOOL_T
        elif isinstance(self.value, int):
            self.type = INT_T
        elif isinstance(self.value, float):
            self.type = FLOAT_T
        else:
            raise ValueError(f"bad constant: {self.value!r}")


@dataclass
class Var(Expr):
    """Reference to a named local variable or parameter."""

    name: str


@dataclass
class BinOp(Expr):
    """Binary arithmetic / comparison / logic operation."""

    op: str
    left: Expr
    right: Expr


@dataclass
class UnOp(Expr):
    """Unary negation / logical not / bit complement."""

    op: str
    operand: Expr


@dataclass
class Index(Expr):
    """Array element load: ``base[index]``."""

    base: Expr
    index: Expr


@dataclass
class Call(Expr):
    """Call to a builtin or user function."""

    name: str
    args: list[Expr]


@dataclass
class Cast(Expr):
    """Explicit scalar conversion, e.g. ``(float) x``."""

    target: ScalarType
    operand: Expr


@dataclass
class Select(Expr):
    """Ternary select: ``cond ? a : b`` (both branches evaluated lazily)."""

    cond: Expr
    if_true: Expr
    if_false: Expr


# Binary operators grouped by result behaviour.
ARITH_OPS = ("+", "-", "*", "/", "%")
COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")
LOGIC_OPS = ("&&", "||")
BIT_OPS = ("&", "|", "^", "<<", ">>")
ALL_BINOPS = ARITH_OPS + COMPARE_OPS + LOGIC_OPS + BIT_OPS

UNARY_OPS = ("-", "!", "~")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for all statement nodes."""


@dataclass
class Decl(Stmt):
    """Declare (and optionally initialise) a private scalar or array.

    ``size`` is an expression for array declarations (``local float t[64]``)
    and must be group-uniform when ``space == 'local'``.
    """

    name: str
    type: Type
    init: Optional[Expr] = None
    size: Optional[Expr] = None


@dataclass
class Assign(Stmt):
    """Scalar assignment ``name = value``."""

    name: str
    value: Expr


@dataclass
class Store(Stmt):
    """Array element store ``base[index] = value``."""

    base: Expr
    index: Expr
    value: Expr


@dataclass
class If(Stmt):
    """Two-armed conditional ``if (cond) then... else orelse...``."""

    cond: Expr
    then: list[Stmt]
    orelse: list[Stmt] = field(default_factory=list)


@dataclass
class For(Stmt):
    """Counted loop: ``for var = start; var < stop; var += step``.

    ``var`` is an int induction variable scoped to the loop.
    """

    var: str
    start: Expr
    stop: Expr
    step: Expr
    body: list[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    """Pre-tested loop ``while (cond) body...``."""

    cond: Expr
    body: list[Stmt] = field(default_factory=list)


@dataclass
class Break(Stmt):
    """Exit the innermost enclosing loop."""


@dataclass
class Continue(Stmt):
    """Skip to the next iteration of the innermost enclosing loop."""


@dataclass
class Return(Stmt):
    """Return from the function (kernels return nothing)."""

    value: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for its side effects (e.g. a call)."""

    expr: Expr


@dataclass
class Barrier(Stmt):
    """Work-group barrier (CLK_LOCAL_MEM_FENCE).  Only legal in kernels."""


# ---------------------------------------------------------------------------
# Functions / kernels / modules
# ---------------------------------------------------------------------------


@dataclass
class Param:
    """A function or kernel parameter."""

    name: str
    type: Type


@dataclass
class Function:
    """A function (host-callable or kernel-internal helper) or a kernel.

    Kernels (``is_kernel=True``) take buffer and scalar parameters, return
    void, and may use work-item builtins and barriers.
    """

    name: str
    params: list[Param]
    ret_type: Type
    body: list[Stmt]
    is_kernel: bool = False

    def param_names(self) -> list[str]:
        return [p.name for p in self.params]


@dataclass
class Module:
    """A compilation unit: an ordered collection of functions/kernels."""

    functions: dict[str, Function] = field(default_factory=dict)

    def add(self, fn: Function) -> None:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name!r}")
        self.functions[fn.name] = fn

    def kernels(self) -> list[Function]:
        return [f for f in self.functions.values() if f.is_kernel]

    def kernel(self, name: str) -> Function:
        fn = self.functions.get(name)
        if fn is None or not fn.is_kernel:
            raise KeyError(f"no kernel named {name!r}")
        return fn


# ---------------------------------------------------------------------------
# Work-item builtins available inside kernels
# ---------------------------------------------------------------------------

WORKITEM_BUILTINS = (
    "get_global_id",
    "get_local_id",
    "get_group_id",
    "get_global_size",
    "get_local_size",
    "get_num_groups",
    "get_work_dim",
)

# name -> (arg scalar kinds, result kind), from the one builtin table in
# :mod:`repro.kir.semantics`.  'num' means int-or-float; a 'follow'
# result has the (unified) argument type.
MATH_BUILTINS: dict[str, tuple[tuple[str, ...], str]] = {
    name: (kinds, result) for name, (kinds, result, _) in BUILTINS.items()
}


def walk_stmts(stmts: Sequence[Stmt]):
    """Yield every statement in *stmts*, recursing into bodies."""
    for st in stmts:
        yield st
        if isinstance(st, If):
            yield from walk_stmts(st.then)
            yield from walk_stmts(st.orelse)
        elif isinstance(st, (For, While)):
            yield from walk_stmts(st.body)


def walk_exprs(node: Union[Expr, Stmt]):
    """Yield every expression reachable from *node* (inclusive for Expr)."""
    if isinstance(node, Expr):
        yield node
        if isinstance(node, BinOp):
            yield from walk_exprs(node.left)
            yield from walk_exprs(node.right)
        elif isinstance(node, UnOp):
            yield from walk_exprs(node.operand)
        elif isinstance(node, Index):
            yield from walk_exprs(node.base)
            yield from walk_exprs(node.index)
        elif isinstance(node, Call):
            for a in node.args:
                yield from walk_exprs(a)
        elif isinstance(node, Cast):
            yield from walk_exprs(node.operand)
        elif isinstance(node, Select):
            yield from walk_exprs(node.cond)
            yield from walk_exprs(node.if_true)
            yield from walk_exprs(node.if_false)
        return
    # Statements
    if isinstance(node, Decl):
        if node.init is not None:
            yield from walk_exprs(node.init)
        if node.size is not None:
            yield from walk_exprs(node.size)
    elif isinstance(node, Assign):
        yield from walk_exprs(node.value)
    elif isinstance(node, Store):
        yield from walk_exprs(node.base)
        yield from walk_exprs(node.index)
        yield from walk_exprs(node.value)
    elif isinstance(node, If):
        yield from walk_exprs(node.cond)
    elif isinstance(node, For):
        yield from walk_exprs(node.start)
        yield from walk_exprs(node.stop)
        yield from walk_exprs(node.step)
    elif isinstance(node, While):
        yield from walk_exprs(node.cond)
    elif isinstance(node, Return):
        if node.value is not None:
            yield from walk_exprs(node.value)
    elif isinstance(node, ExprStmt):
        yield from walk_exprs(node.expr)


def has_barrier(fn: Function) -> bool:
    """True when *fn* (or code it textually contains) uses a barrier."""
    return any(isinstance(st, Barrier) for st in walk_stmts(fn.body))


def read_arrays(fn: Function) -> set[str]:
    """Names of array parameters the function loads from."""
    params = {p.name for p in fn.params if isinstance(p.type, ArrayType)}
    read: set[str] = set()
    for st in walk_stmts(fn.body):
        for e in walk_exprs(st):
            if isinstance(e, Index) and isinstance(e.base, Var):
                if e.base.name in params:
                    read.add(e.base.name)
    return read


def written_arrays(fn: Function) -> set[str]:
    """Names of array parameters the function stores into.

    The runtime uses this to know which buffers a kernel writes, so
    lazy evaluation can mark exactly those as device-authoritative.
    """
    params = {p.name for p in fn.params if isinstance(p.type, ArrayType)}
    written: set[str] = set()
    for st in walk_stmts(fn.body):
        if isinstance(st, Store) and isinstance(st.base, Var):
            if st.base.name in params:
                written.add(st.base.name)
    return written
