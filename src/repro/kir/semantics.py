"""The kernel operations whose meaning Python and OpenCL C do not share.

The reference :class:`~repro.kir.interp.Interpreter`, the scalar tier
(:mod:`repro.kir.pycodegen`), the vec tier (:mod:`repro.kir.npcodegen`)
and the Ensemble VM all take these definitions from here, so these
operations give the same bits whichever engine runs a kernel, over any
number of work-items.

* ``int`` ``/`` and ``%`` truncate toward zero, as in C.  A zero divisor
  raises :class:`~repro.errors.KirRuntimeError`; the lane forms raise
  only for a zero divisor on an active lane.
* ``float`` ``/`` and ``%`` (C ``fmod``) follow IEEE 754, as OpenCL
  requires: ±inf or NaN, never an error.  Python's ``/`` and
  :func:`math.fmod` are exact, so the scalar forms try them first and
  fall back to numpy only when they raise.
* Converting a ``float`` to ``int`` saturates, as OpenCL's
  ``convert_long_sat`` and GPU hardware do: NaN converts to 0, a value
  outside the int64 range to the nearer bound, anything else truncates
  toward zero.  It has no error, so the lane form takes no mask.
* The math builtins are one table, :data:`BUILTINS`, whose numpy
  functions are the definitions: the vector form applies one to lanes,
  and the scalar form applies it to scalars and returns ``.item()``.

Vector forms take numpy arrays or uniform scalars.  Their callers run
them under ``np.errstate(all="ignore")``, as
:class:`~repro.kir.npcodegen.VecKernel` does: an IEEE inf or NaN is a
result, not an error.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable

import numpy as np

from ..errors import KirRuntimeError


def idiv(a: int, b: int) -> int:
    """C ``int`` division: truncates toward zero; a zero divisor raises."""
    if b == 0:
        raise KirRuntimeError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def imod(a: int, b: int) -> int:
    """C ``int`` remainder: its sign follows the dividend."""
    return a - idiv(a, b) * b


def fdiv(a: Any, b: Any) -> float:
    """Float division, IEEE 754: a zero divisor gives ±inf or NaN."""
    try:
        return a / b
    except ZeroDivisionError:
        with np.errstate(all="ignore"):
            return np.true_divide(a, b).item()


def fmod(a: Any, b: Any) -> float:
    """Float remainder (C ``fmod``), IEEE 754: a zero divisor or an
    infinite dividend gives NaN."""
    try:
        return math.fmod(a, b)
    except ValueError:
        with np.errstate(all="ignore"):
            return np.fmod(a, b).item()


def vidiv(a: Any, b: Any, m: Any) -> Any:
    """:func:`idiv` on lanes under the active mask *m* (None: all lanes
    active).  Inactive lanes divide by one, so they never raise."""
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return idiv(a, b)
    a = np.asarray(a)
    b = np.asarray(b)
    zero = b == 0
    if zero.any():
        if m is None or bool((zero & m).any()):
            raise KirRuntimeError("integer division by zero")
        b = np.where(zero, 1, b)
    q = np.abs(a) // np.abs(b)
    return np.where((a < 0) == (b < 0), q, -q)


def vimod(a: Any, b: Any, m: Any) -> Any:
    """:func:`imod` on lanes under the active mask *m*."""
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return imod(a, b)
    return a - vidiv(a, b, m) * b


#: :func:`fdiv` and :func:`fmod` on lanes: numpy's are IEEE 754 already.
vfdiv = np.true_divide
vfmod = np.fmod


INT_MIN, INT_MAX = -(2**63), 2**63 - 1
_TWO63 = 2.0**63


def ftoi(x: float) -> int:
    """``float`` to ``int``, saturating: NaN gives 0, a value outside
    the int64 range its nearer bound; anything else truncates."""
    if x != x:
        return 0
    if x >= _TWO63:
        return INT_MAX
    if x < -_TWO63:
        return INT_MIN
    return int(x)


def vftoi(x: Any) -> Any:
    """:func:`ftoi` on lanes."""
    if not isinstance(x, np.ndarray):
        return ftoi(x)
    big = x >= _TWO63
    small = x < -_TWO63
    t = np.where(big | small | (x != x), 0.0, x).astype(np.int64)
    return np.where(big, INT_MAX, np.where(small, INT_MIN, t))


def _div(a: Any, b: Any) -> Any:
    return idiv(a, b) if type(a) is int and type(b) is int else fdiv(a, b)


def _mod(a: Any, b: Any) -> Any:
    return imod(a, b) if type(a) is int and type(b) is int else fmod(a, b)


#: The binary operators on scalars that carry no static type, as the
#: Interpreter and the VM evaluate them: ``/`` and ``%`` pick the
#: ``int`` form when both operands are ints (not bools).
BINOPS: dict[str, Callable] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _div, "%": _mod,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "<<": operator.lshift, ">>": operator.rshift,
}


# OpenCL's min and max (and Python's): y if y < x (resp. x < y), else
# x.  fmin and fmax also return the other operand when x is NaN.
# numpy's own fmin/fmax return either zero for (0.0, -0.0), depending
# on the lane's position in the array, so they are spelt out here.
def _min(x: Any, y: Any) -> Any:
    return np.where(y < x, y, x)[()]


def _max(x: Any, y: Any) -> Any:
    return np.where(x < y, y, x)[()]


def _fmin(x: Any, y: Any) -> Any:
    return np.where((y < x) | (x != x), y, x)[()]


def _fmax(x: Any, y: Any) -> Any:
    return np.where((x < y) | (x != x), y, x)[()]


# numpy computes a scalar or broadcast exponent of 0.5 or 2 as a square
# root or a square, which differ from its pow at -0.0 and -inf and in
# the last bit, so pow always gets whole arrays.
def _pow(x: Any, y: Any) -> Any:
    x, y = np.broadcast_arrays(x, y)
    r = np.power(np.array(x, ndmin=1), np.array(y, ndmin=1))
    return r.reshape(x.shape)[()]


NUM, FLOAT, FOLLOW = "num", "float", "follow"

#: name -> (argument kinds, result kind, numpy definition).  A ``num``
#: argument is int or float; a ``float`` builtin converts int arguments
#: to float; a ``follow`` result has its unified argument type.
BUILTINS: dict[str, tuple[tuple[str, ...], str, Callable]] = {
    "sqrt": ((NUM,), FLOAT, np.sqrt),
    "fabs": ((NUM,), FLOAT, np.fabs),
    "exp": ((NUM,), FLOAT, np.exp),
    "log": ((NUM,), FLOAT, np.log),
    "sin": ((NUM,), FLOAT, np.sin),
    "cos": ((NUM,), FLOAT, np.cos),
    "tan": ((NUM,), FLOAT, np.tan),
    "atan": ((NUM,), FLOAT, np.arctan),
    "atan2": ((NUM, NUM), FLOAT, np.arctan2),
    "pow": ((NUM, NUM), FLOAT, _pow),
    "floor": ((NUM,), FLOAT, np.floor),
    "ceil": ((NUM,), FLOAT, np.ceil),
    "fmin": ((NUM, NUM), FLOAT, _fmin),
    "fmax": ((NUM, NUM), FLOAT, _fmax),
    "min": ((NUM, NUM), FOLLOW, _min),
    "max": ((NUM, NUM), FOLLOW, _max),
    "abs": ((NUM,), FOLLOW, np.absolute),
    "clamp": ((NUM,) * 3, FOLLOW, lambda x, lo, hi: _fmin(_fmax(x, lo), hi)),
}


def _vector(fn: Callable, result: str) -> Callable:
    if result != FLOAT:
        return fn
    return lambda *args: fn(*[np.asarray(a, np.float64)[()] for a in args])


def _scalar(vector: Callable) -> Callable:
    def scalar(*args: Any) -> Any:
        with np.errstate(all="ignore"):
            return vector(*args).item()

    return scalar


#: name -> the builtin on lanes (numpy arrays or uniform scalars)
VECTOR_BUILTINS = {n: _vector(f, r) for n, (_, r, f) in BUILTINS.items()}
#: name -> the builtin on scalars: its vector form's ``.item()``
SCALAR_BUILTINS = {n: _scalar(f) for n, f in VECTOR_BUILTINS.items()}
