"""Kernel IR: the shared executable representation for device kernels.

Every front end (kernel-C, the Ensemble compiler's kernel extraction,
the OpenACC pragma compiler) lowers to this IR; the OpenCL substrate's
devices execute it via :func:`compile_module` (fast path) or
:class:`Interpreter` (instrumented reference engine).  What ``/``,
``%`` and the math builtins compute is defined once, for every engine,
in :mod:`repro.kir.semantics`.
"""

from .ir import (  # noqa: F401
    ADDRESS_SPACES,
    ARITH_OPS,
    BOOL,
    BOOL_T,
    COMPARE_OPS,
    CONSTANT,
    FLOAT,
    FLOAT_T,
    GLOBAL,
    INT,
    INT_T,
    LOCAL,
    LOGIC_OPS,
    MATH_BUILTINS,
    PRIVATE,
    SCALAR_TYPES,
    VOID,
    WORKITEM_BUILTINS,
    ArrayType,
    Assign,
    Barrier,
    BinOp,
    Break,
    Call,
    Cast,
    Const,
    Continue,
    Decl,
    Expr,
    ExprStmt,
    For,
    Function,
    If,
    Index,
    Module,
    Param,
    Return,
    ScalarType,
    Select,
    Stmt,
    Store,
    Type,
    UnOp,
    Var,
    While,
    has_barrier,
    read_arrays,
    scalar,
    walk_exprs,
    walk_stmts,
    written_arrays,
)
from .interp import Interpreter, WorkItem  # noqa: F401
from .pycodegen import CompiledModule, KernelRunner, compile_module  # noqa: F401
from .unparse import unparse_function, unparse_module  # noqa: F401
from .validate import validate  # noqa: F401
