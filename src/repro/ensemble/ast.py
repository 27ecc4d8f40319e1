"""AST node definitions for the Ensemble language.

The grammar follows the paper's listings (1–3): type declarations
(struct / ``opencl struct`` / interface), a single stage containing
actor declarations and a ``boot`` block, imperative statements with
``=`` binding / ``:=`` assignment, channel ``send``/``receive``/
``connect``, and ``new`` expressions for arrays, structs, channel ends
and actors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# ---------------------------------------------------------------------------
# Type expressions (syntactic; resolved by the checker)
# ---------------------------------------------------------------------------


@dataclass
class TypeExpr:
    """Base class of syntactic type references."""

    line: int = field(default=0, kw_only=True)


@dataclass
class NamedType(TypeExpr):
    """``integer``, ``real``, ``boolean``, ``string`` or a user type."""

    name: str


@dataclass
class ArrayTypeExpr(TypeExpr):
    element: TypeExpr
    # number of [] suffixes collapses into `dims` on the innermost element
    dims: int = 1


@dataclass
class ChanTypeExpr(TypeExpr):
    direction: str  # 'in' | 'out'
    element: TypeExpr
    movable: bool = False
    #: optional buffer capacity (0 = synchronous rendezvous)
    buffer: int = 0


@dataclass
class MovType(TypeExpr):
    inner: TypeExpr


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class FieldDecl:
    type: TypeExpr
    name: str
    line: int = 0


@dataclass
class StructDecl:
    name: str
    fields: list[FieldDecl]
    is_opencl: bool = False
    line: int = 0


@dataclass
class InterfaceDecl:
    name: str
    channels: list[FieldDecl]  # each .type is a ChanTypeExpr
    line: int = 0


@dataclass
class Param:
    type: TypeExpr
    name: str
    line: int = 0


@dataclass
class FunctionDecl:
    name: str
    params: list[Param]
    ret_type: Optional[TypeExpr]
    body: list["Stmt"]
    line: int = 0


@dataclass
class StateDecl:
    """An actor state field with an initialiser (``value = 1;``)."""

    name: str
    init: "Expr"
    line: int = 0


@dataclass
class ActorDecl:
    name: str
    interface: str
    state: list[StateDecl]
    constructor_params: list[Param]
    constructor_body: list["Stmt"]
    behaviour: list["Stmt"]
    is_opencl: bool = False
    opencl_settings: dict[str, str] = field(default_factory=dict)
    line: int = 0


@dataclass
class StageDecl:
    name: str
    actors: list[ActorDecl]
    functions: list[FunctionDecl]
    boot: list["Stmt"]
    line: int = 0


@dataclass
class Program:
    structs: list[StructDecl]
    interfaces: list[InterfaceDecl]
    stage: StageDecl


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    line: int = field(default=0, kw_only=True)


@dataclass
class Bind(Stmt):
    """``x = expr;`` — declare-and-initialise with inference."""

    name: str
    value: "Expr"


@dataclass
class Assign(Stmt):
    """``lvalue := expr;``"""

    target: "Expr"  # Name, FieldAccess or IndexAccess
    value: "Expr"


@dataclass
class Send(Stmt):
    """``send expr on chan;``"""

    value: "Expr"
    channel: "Expr"


@dataclass
class Receive(Stmt):
    """``receive x from chan;`` — binds (or rebinds) *name*."""

    name: str
    channel: "Expr"


@dataclass
class Connect(Stmt):
    """``connect out_chan to in_chan;``"""

    source: "Expr"
    target: "Expr"


@dataclass
class If(Stmt):
    cond: "Expr"
    then: list[Stmt] = field(default_factory=list)
    orelse: list[Stmt] = field(default_factory=list)


@dataclass
class For(Stmt):
    """``for i = a .. b do { }`` — inclusive bounds."""

    var: str
    start: "Expr"
    stop: "Expr"
    body: list[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    cond: "Expr"
    body: list[Stmt] = field(default_factory=list)


@dataclass
class StopStmt(Stmt):
    pass


@dataclass
class ReturnStmt(Stmt):
    value: Optional["Expr"] = None


@dataclass
class ExprStmt(Stmt):
    expr: "Expr"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    line: int = field(default=0, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class RealLit(Expr):
    value: float


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class StringLit(Expr):
    value: str


@dataclass
class Name(Expr):
    id: str


@dataclass
class FieldAccess(Expr):
    obj: Expr
    field: str


@dataclass
class IndexAccess(Expr):
    obj: Expr
    index: Expr


@dataclass
class BinOpE(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class UnOpE(Expr):
    op: str
    operand: Expr


@dataclass
class CallE(Expr):
    name: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class NewArray(Expr):
    """``new real[n][m] of 0.0``; ``space`` is '' or 'local'."""

    element: TypeExpr
    dims: list[Expr] = field(default_factory=list)
    fill: Optional[Expr] = None
    space: str = ""


@dataclass
class NewStruct(Expr):
    """``new settings_t(ws, gs, i, o)``"""

    type_name: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class NewChannel(Expr):
    """``new in data_t`` / ``new out real[][]``"""

    direction: str
    element: TypeExpr
    movable: bool = False
