"""Vectorised batch execution of kernels (numpy backend).

The scalar engine (:mod:`repro.kir.pycodegen`) executes an NDRange one
Python work-item at a time.  This module instead compiles a kernel into
a ``__vec_<name>(args, gsz, lsz)`` function that executes the whole
NDRange as numpy array operations, one array lane per work-item, and
returns the per-item dynamic op-count *vector*, which
:func:`fold_group_warps` reduces to the per-group warp maxima the cost
model consumes.

Three escalating capabilities make almost every kernel eligible:

* **Masked straight-line / structured code** — ``if``/``else`` becomes
  boolean masks, counted ``for`` loops with item-invariant bounds stay
  plain Python loops.
* **Iterative masked evaluation** — ``while`` loops, ``for`` loops with
  item-dependent bounds, ``break``, ``continue`` and early ``return``
  keep a per-lane *active mask*; the loop body re-executes under the
  mask until it empties.  ``break``/``continue``/``return`` subtract
  lanes from the enclosing masks.  A runaway loop (more than
  :data:`LOOP_ITER_CAP` iterations) raises :class:`VecIterationCap` and
  the dispatcher falls back to the scalar warp-fold.
* **Pure user-function inlining** — calls to side-effect-free
  kernel-language helpers are inlined at codegen time (with per-site
  renaming), charging exactly the ops the scalar engine charges.
* **Cooperative barrier phases** — group-mode kernels (barriers /
  ``__local`` arrays) execute with local memory materialised as
  ``(num_groups, size)`` numpy buffers.  Every statement already runs
  in lock-step across all lanes, so ``barrier()`` itself emits nothing;
  eligibility restricts barriers to dispatch-uniform control flow so
  the scalar engine would never diagnose divergence either.

Two optimisation passes keep deep divergent loops cheap without
changing anything observable:

* **Active-lane compaction** — a masked loop whose live-lane density
  falls below :data:`COMPACT_DENSITY` (re-checked every
  :data:`COMPACT_CHECK_EVERY` rounds) gathers its loop-carried state
  into a contiguous array via ``np.flatnonzero`` and runs subsequent
  rounds at the compacted width, scattering results back to full width
  on exit.  Charging, mask subtraction and the iteration cap are
  bit-identical to the full-width path; the thresholds are module
  constants read at run time, so a test that patches them reaches
  cached kernels too.
* **Common-subexpression elimination** — pure ``ir.Expr`` subtrees are
  hashed per masked region at codegen time and repeated occurrences
  (e.g. a loop condition's ``x*x + y*y`` reused in its body) become
  single-assignment temporaries, invalidated on assignments to their
  dependencies and conservatively on any store to an array.

Op accounting mirrors ``_FnCompiler.block`` exactly (same per-block
batching, the same ``+1`` / ``+2`` control-flow charges, masked where
the scalar path is conditional), so the folded warp maxima — and hence
every simulated nanosecond — are identical to the scalar engines';
tests assert this.  Both passes above are charging-equivalent by
construction: charges derive from static IR costs, never from the
numpy expressions actually emitted.

Kernels the tier still refuses (reason strings surface as
``dispatch.fallback.<reason>`` trace counters): non-variable array
bases (``array-expr``), variant array sizes (``array-size``), local
arrays declared below the kernel's top level (``local-array``),
barriers under divergent control flow or early return in a barrier
kernel (``barrier``), impure or recursive user calls (``user-call``),
and division or loads inside speculatively evaluated select /
short-circuit operands (``speculative``).

Known semantic deltas of the vector tier (documented, none observable
in race-free kernels): int64 wrap-around instead of Python big ints,
same-address stores from multiple work-items resolve by numpy
fancy-assignment order, and statements between barriers execute in
lock-step across lanes rather than item-by-item.

Everything here is a wall-clock optimisation only.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Optional, Sequence

import numpy as _np

from ..errors import KirRuntimeError
from . import ir
from .interp import c_idiv, c_imod
from .pycodegen import (
    _Emitter,
    _MAX_DIMS,
    _WI_VARS,
    _kind,
    _local_decls,
    _pad3,
    _static_cost,
    _stmt_cost,
    _used_workitem_vars,
)

#: Masked-loop iteration budget per loop entry.  A loop still live past
#: this many iterations raises :class:`VecIterationCap`; the dispatcher
#: restores written buffers and re-runs on the scalar warp-fold (which
#: will hang or fault exactly as the kernel deserves).
LOOP_ITER_CAP = 65536


class VecIterationCap(Exception):
    """A masked loop exceeded :data:`LOOP_ITER_CAP` iterations."""


#: Live-lane density below which a compactible masked loop compresses
#: to its active lanes.  ``0.0`` disables compaction; ``1.0`` compacts
#: as soon as any lane has exited.  Read at run time by generated
#: kernels, so patching it applies to already-compiled code.
COMPACT_DENSITY = 0.5

#: How many loop rounds pass between density checks (the first round of
#: every compactible loop is always checked, so a loop entered under a
#: sparse mask compacts immediately).
COMPACT_CHECK_EVERY = 8


_NP_DTYPE_OF = {"int": "__np.int64", "float": "__np.float64", "bool": "bool"}

_ZERO = {"int": "0", "float": "0.0", "bool": "False"}

#: math builtin -> numpy-side expression prefix
_NP_MATH = {
    "sqrt": "__np.sqrt",
    "fabs": "__np.abs",
    "exp": "__np.exp",
    "log": "__np.log",
    "sin": "__np.sin",
    "cos": "__np.cos",
    "tan": "__np.tan",
    "atan": "__np.arctan",
    "atan2": "__np.arctan2",
    "pow": "__vpow",
    "floor": "__np.floor",
    "ceil": "__np.ceil",
    "fmin": "__np.minimum",
    "fmax": "__np.maximum",
    "min": "__np.minimum",
    "max": "__np.maximum",
    "abs": "__np.abs",
    "clamp": "__vclamp",
}

_VARIANT_ID_BUILTINS = ("get_global_id", "get_local_id", "get_group_id")


# -- runtime helpers (the generated code's namespace) ----------------------


def _is_arr(x: Any) -> bool:
    return isinstance(x, _np.ndarray)


def _vmask(val: Any, n: int):
    """Normalise an if/loop condition to a full-width boolean mask."""
    if _is_arr(val):
        return val
    if val:
        return _np.ones(n, dtype=bool)
    return _np.zeros(n, dtype=bool)


def _vidiv(a: Any, b: Any, m: Any):
    """C-style integer division, mask-aware for inactive lanes."""
    if not _is_arr(a) and not _is_arr(b):
        return c_idiv(a, b)
    a = _np.asarray(a)
    b = _np.asarray(b)
    zero = b == 0
    if zero.any():
        if m is None or bool((zero & m).any()):
            raise KirRuntimeError("integer division by zero")
        b = _np.where(zero, 1, b)
    q = _np.abs(a) // _np.abs(b)
    return _np.where((a < 0) == (b < 0), q, -q)


def _vimod(a: Any, b: Any, m: Any):
    """C-style integer remainder (sign follows the dividend)."""
    if not _is_arr(a) and not _is_arr(b):
        return c_imod(a, b)
    return a - _vidiv(a, b, m) * b


def _vfdiv(a: Any, b: Any, m: Any):
    """Float division, mask-aware for inactive lanes."""
    if not _is_arr(a) and not _is_arr(b):
        if b == 0:
            raise ZeroDivisionError("float division by zero")
        return a / b
    b = _np.asarray(b)
    zero = b == 0
    if zero.any():
        if m is None or bool((zero & m).any()):
            raise ZeroDivisionError("float division by zero")
        b = _np.where(zero, 1.0, b)
    return a / b


def _int_like(x: Any) -> bool:
    if _is_arr(x):
        return x.dtype.kind in "bi"
    return isinstance(x, (bool, int, _np.integer))


def _vdiv(a: Any, b: Any, m: Any):
    """Dynamically-typed division (mirrors ``_runtime_div``)."""
    if _int_like(a) and _int_like(b):
        return _vidiv(a, b, m)
    try:
        return _vfdiv(a, b, m)
    except ZeroDivisionError:
        raise KirRuntimeError("float division by zero") from None


def _vmod(a: Any, b: Any, m: Any):
    """Dynamically-typed modulo (mirrors ``_runtime_mod``)."""
    if _int_like(a) and _int_like(b):
        return _vimod(a, b, m)
    return _vfmod(a, b, m)


def _vfmod(a: Any, b: Any, m: Any):
    """Float remainder with C semantics, mask-aware."""
    if not _is_arr(a) and not _is_arr(b):
        return math.fmod(a, b)
    b = _np.asarray(b)
    zero = b == 0
    if zero.any():
        if m is None or bool((zero & m).any()):
            raise ValueError("math domain error")
        b = _np.where(zero, 1.0, b)
    return _np.fmod(a, b)


def _vpow(a: Any, b: Any):
    """Vector ``pow`` (always float, like ``math.pow``)."""
    return _np.float_power(a, b)


def _vclamp(x: Any, lo: Any, hi: Any):
    """Vector ``clamp``."""
    return _np.clip(x, lo, hi)


def _vload(arr: Any, idx: Any, m: Any):
    """Gather from a global array; inactive lanes read a safe index."""
    if m is None or not _is_arr(idx):
        return arr[idx]
    return arr[_np.where(m, idx, 0)]


def _vload2(arr: Any, rows: Any, idx: Any, m: Any):
    """Gather each work-item's slot from its private/local-array row."""
    if m is not None and _is_arr(idx):
        idx = _np.where(m, idx, 0)
    return arr[rows, idx]


def _vstore(arr: Any, idx: Any, val: Any, m: Any) -> None:
    """Scatter into a global array with sequential-store semantics."""
    if m is None:
        if _is_arr(idx):
            arr[idx] = val
        elif _is_arr(val):
            arr[idx] = val[-1]  # every item stores here: last one wins
        else:
            arr[idx] = val
        return
    if _is_arr(idx):
        sel = idx[m]
        arr[sel] = val[m] if _is_arr(val) else val
        return
    if bool(m.any()):
        if _is_arr(val):
            active = val[m]
            arr[idx] = active[-1]
        else:
            arr[idx] = val


def _vstore2(arr: Any, rows: Any, idx: Any, val: Any, m: Any) -> None:
    """Scatter into per-item private (or per-group local) array rows."""
    if m is None:
        arr[rows, idx] = val
        return
    r = rows[m] if _is_arr(rows) else rows
    i = idx[m] if _is_arr(idx) else idx
    v = val[m] if _is_arr(val) else val
    arr[r, i] = v


# -- lane compaction runtime ------------------------------------------------


def _should_compact(rounds: int, act: Any) -> bool:
    """Whether a compactible masked loop should (re)compress now.

    Checked at the top of every loop round: fires every
    :data:`COMPACT_CHECK_EVERY` rounds when the live-lane density of
    *act* has dropped below :data:`COMPACT_DENSITY`.  Reads both
    constants at call time, so patching them reaches kernels that were
    compiled (and cached process-wide) earlier.
    """
    if COMPACT_DENSITY <= 0.0:
        return False
    if rounds % COMPACT_CHECK_EVERY:
        return False
    return int(act.sum()) < COMPACT_DENSITY * act.shape[0]


def _vsave(v: Any) -> Any:
    """Snapshot a loop-carried value at the first compaction event.

    Arrays are copied: later rounds scatter into the snapshot in place,
    and the pre-loop value may be aliased by other variables (an
    unmasked ``b = x`` emits a direct rebind), so mutating the original
    object would corrupt them.  Scalars (lanes that never diverged) are
    returned as-is.
    """
    return v.copy() if _is_arr(v) else v


def _vtake(v: Any, sel: Any) -> Any:
    """Gather the *sel* lanes of a per-lane value (no-op on scalars)."""
    return v[sel] if _is_arr(v) else v


def _vput(full: Any, sel: Any, val: Any, width: int) -> Any:
    """Scatter a compacted value back into its full-width snapshot.

    *full* is the (private, see :func:`_vsave`) snapshot at *width*
    lanes, *sel* the absolute indices the compact *val* occupies.  A
    scalar *val* with a scalar snapshot means the variable has only ever
    seen unmasked uniform assignments (a ``for`` induction variable with
    scalar bounds keeps incrementing as a plain int), so the *current*
    value is the full-width value — returning the stale snapshot would
    rewind the variable at the next regather.  A scalar on one side only
    is promoted/broadcast before the scatter.
    """
    if not _is_arr(val) and not _is_arr(full):
        return val
    if not _is_arr(full):
        full = _np.full(width, full)
    full[sel] = val
    return full


class _CompactStats(threading.local):
    """Per-thread compaction accounting (events and compacted rounds)."""

    events = 0
    rounds = 0


_compact_stats = _CompactStats()


def _note_compaction(events: int, rounds: int) -> None:
    """Accumulate compaction stats (called from generated kernels).

    *events* is counted eagerly at each compaction event (so a loop
    that later hits the iteration cap still reports them); *rounds* —
    the number of loop rounds evaluated at compacted width — is
    reported once at loop exit.
    """
    _compact_stats.events += events
    _compact_stats.rounds += rounds


def thread_compact_stats() -> tuple[int, int]:
    """This thread's cumulative ``(events, compacted_rounds)``.

    The dispatcher snapshots this around a vectorised run and counts
    the delta as ``dispatch.compact`` / ``dispatch.compact.rounds``.
    """
    return _compact_stats.events, _compact_stats.rounds


def _namespace_base() -> dict[str, Any]:
    return {
        "__np": _np,
        "__vmask": _vmask,
        "__vidiv": _vidiv,
        "__vimod": _vimod,
        "__vdiv": _vdiv,
        "__vmod": _vmod,
        "__vfdiv": _vfdiv,
        "__vfmod": _vfmod,
        "__vpow": _vpow,
        "__vclamp": _vclamp,
        "__vload": _vload,
        "__vload2": _vload2,
        "__vstore": _vstore,
        "__vstore2": _vstore2,
        "__vnot": _np.logical_not,
        "__vand": _np.logical_and,
        "__vor": _np.logical_or,
        "__vsel": _np.where,
        "__kre": KirRuntimeError,
        "__CAP": LOOP_ITER_CAP,
        "__vcaperr": VecIterationCap,
        "__vcshould": _should_compact,
        "__vsave": _vsave,
        "__vtake": _vtake,
        "__vput": _vput,
        "__vcstats": _note_compaction,
    }


# -- eligibility -----------------------------------------------------------


def _unsafe_speculative(e: ir.Expr) -> bool:
    """True if evaluating *e* on lanes that would not evaluate it in the
    scalar engine can fault: division/modulo (zero) and array loads
    (out-of-range index).  numpy evaluates both arms of a select and
    both sides of ``&&``/``||``, so such expressions are only safe in
    positions the scalar engine also evaluates unconditionally."""
    return any(
        (isinstance(n, ir.BinOp) and n.op in ("/", "%"))
        or isinstance(n, ir.Index)
        for n in ir.walk_exprs(e)
    )


def _direct(stmts: Sequence[ir.Stmt], kinds) -> bool:
    """True when a statement of *kinds* binds to this loop level (it is
    not nested inside an inner loop)."""
    for st in stmts:
        if isinstance(st, kinds):
            return True
        if isinstance(st, ir.If):
            if _direct(st.then, kinds) or _direct(st.orelse, kinds):
                return True
    return False


def _loop_divergent(body: Sequence[ir.Stmt]) -> bool:
    """True when lanes can leave this loop at different trip counts:
    a ``break``/``continue`` bound to it, or a ``return`` anywhere."""
    if _direct(body, (ir.Break, ir.Continue)):
        return True
    return any(isinstance(s, ir.Return) for s in ir.walk_stmts(body))


def _callee_taints(module: ir.Module, name: str, seen: tuple = ()) -> bool:
    """True when calling *name* can produce per-lane-different values
    even on item-invariant arguments (it reads arrays, uses work-item
    state, or cannot be resolved)."""
    fn = module.functions.get(name)
    if fn is None or name in seen:
        return True
    for st in ir.walk_stmts(fn.body):
        for e in ir.walk_exprs(st):
            if isinstance(e, ir.Index):
                return True
            if isinstance(e, ir.Call):
                if e.name in ir.WORKITEM_BUILTINS:
                    return True
                if e.name not in _NP_MATH and _callee_taints(
                    module, e.name, seen + (name,)
                ):
                    return True
    return False


def _make_expr_variant(module: ir.Module, variant: set[str]):
    """Build the "can this expression differ between lanes" predicate
    over the evolving *variant* set."""

    def expr_variant(e: Optional[ir.Expr]) -> bool:
        if e is None:
            return False
        for node in ir.walk_exprs(e):
            if isinstance(node, ir.Var) and node.name in variant:
                return True
            if isinstance(node, ir.Index):
                return True
            if isinstance(node, ir.Call):
                if node.name in _VARIANT_ID_BUILTINS:
                    return True
                if (
                    node.name not in ir.WORKITEM_BUILTINS
                    and node.name not in _NP_MATH
                    and _callee_taints(module, node.name)
                ):
                    return True
        return False

    return expr_variant


def _masked_for(st: ir.For, expr_variant) -> bool:
    """Whether a ``for`` loop needs iterative masked evaluation (as
    opposed to a plain uniform Python loop)."""
    return (
        not isinstance(st.step, ir.Const)
        or _loop_divergent(st.body)
        or any(
            isinstance(s, ir.Assign) and s.name == st.var
            for s in ir.walk_stmts(st.body)
        )
        or expr_variant(st.start)
        or expr_variant(st.stop)
        or expr_variant(st.step)
    )


def _masked_while(st: ir.While, expr_variant) -> bool:
    """Whether a ``while`` loop needs iterative masked evaluation."""
    return _loop_divergent(st.body) or expr_variant(st.cond)


def _variant_vars(
    module: ir.Module, fn: ir.Function, seeds: Sequence[str] = ()
) -> set[str]:
    """Scalar variables whose value can differ between work-items.

    Seeds: work-item ids and array loads are variant; everything
    derived from them (or assigned under a condition or inside a
    masked loop, which masking turns into an array) becomes variant.
    *seeds* pre-marks names (used for inline sites, where a callee
    parameter bound to a variant argument is variant).  Fixpoint over
    the body.
    """
    variant: set[str] = set(seeds)
    expr_variant = _make_expr_variant(module, variant)

    changed = True
    while changed:
        changed = False

        def visit(stmts: Sequence[ir.Stmt], conditional: bool) -> None:
            nonlocal changed
            for st in stmts:
                if isinstance(st, ir.Decl):
                    if isinstance(st.type, ir.ArrayType):
                        continue
                    if (conditional or expr_variant(st.init)) and (
                        st.name not in variant
                    ):
                        variant.add(st.name)
                        changed = True
                elif isinstance(st, ir.Assign):
                    if (conditional or expr_variant(st.value)) and (
                        st.name not in variant
                    ):
                        variant.add(st.name)
                        changed = True
                elif isinstance(st, ir.If):
                    visit(st.then, True)
                    visit(st.orelse, True)
                elif isinstance(st, ir.For):
                    masked = _masked_for(st, expr_variant)
                    if masked and st.var not in variant:
                        variant.add(st.var)
                        changed = True
                    visit(st.body, conditional or masked)
                elif isinstance(st, ir.While):
                    visit(
                        st.body,
                        conditional or _masked_while(st, expr_variant),
                    )

        visit(fn.body, False)
    return variant


def _barriers_phase_safe(
    stmts: Sequence[ir.Stmt], uniform: bool, expr_variant
) -> bool:
    """Every barrier sits in dispatch-uniform control flow: at the top
    level, or inside loops whose trip count is identical for all lanes.
    Barriers under ``if`` are rejected outright (the scalar engine
    diagnoses real divergence at runtime; demoting keeps that
    behaviour)."""
    for st in stmts:
        if isinstance(st, ir.Barrier):
            if not uniform:
                return False
        elif isinstance(st, ir.If):
            if not _barriers_phase_safe(st.then, False, expr_variant):
                return False
            if not _barriers_phase_safe(st.orelse, False, expr_variant):
                return False
        elif isinstance(st, ir.For):
            inner = uniform and not _masked_for(st, expr_variant)
            if not _barriers_phase_safe(st.body, inner, expr_variant):
                return False
        elif isinstance(st, ir.While):
            inner = uniform and not _masked_while(st, expr_variant)
            if not _barriers_phase_safe(st.body, inner, expr_variant):
                return False
    return True


def _call_reason(
    module: ir.Module, call: ir.Call, stack: tuple
) -> Optional[str]:
    """Inlinability of one user-function call site (None when OK)."""
    target = module.functions.get(call.name)
    if target is None or target.is_kernel or call.name in stack:
        return "user-call"
    if len(target.params) != len(call.args):
        return "user-call"
    for p, a in zip(target.params, call.args):
        if isinstance(p.type, ir.ArrayType) and not isinstance(a, ir.Var):
            return "user-call"
    for st in ir.walk_stmts(target.body):
        if isinstance(st, (ir.Store, ir.Barrier)):
            return "user-call"
        if isinstance(st, ir.Decl) and isinstance(st.type, ir.ArrayType):
            return "user-call"
    return _body_reason(module, target.body, stack + (call.name,))


def _body_reason(
    module: ir.Module, body: Sequence[ir.Stmt], stack: tuple
) -> Optional[str]:
    """Statement/expression-level vectorisation blockers in *body*
    (including transitively inlined callees).  None when clean."""
    for st in ir.walk_stmts(body):
        if isinstance(st, ir.Store) and not isinstance(st.base, ir.Var):
            return "array-expr"
        for e in ir.walk_exprs(st):
            if isinstance(e, ir.Index) and not isinstance(e.base, ir.Var):
                return "array-expr"
            if isinstance(e, ir.Call):
                if e.name in ir.WORKITEM_BUILTINS or e.name in _NP_MATH:
                    continue
                reason = _call_reason(module, e, stack)
                if reason:
                    return reason
            if isinstance(e, ir.Select) and (
                _unsafe_speculative(e.if_true)
                or _unsafe_speculative(e.if_false)
            ):
                return "speculative"
            if isinstance(e, ir.BinOp):
                if e.op in ("&&", "||") and _unsafe_speculative(e.right):
                    return "speculative"
    return None


def eligibility(module: ir.Module, fn: ir.Function) -> Optional[str]:
    """Why *fn* cannot run on the vectorised tier, or None if it can.

    The reason string becomes the ``dispatch.fallback.<reason>`` trace
    counter suffix when a dispatch is demoted to a scalar tier.
    """
    variant = _variant_vars(module, fn)
    expr_variant = _make_expr_variant(module, variant)

    top_locals = {
        st.name
        for st in fn.body
        if isinstance(st, ir.Decl)
        and isinstance(st.type, ir.ArrayType)
        and st.type.space == ir.LOCAL
    }
    for st in ir.walk_stmts(fn.body):
        if isinstance(st, ir.Decl) and isinstance(st.type, ir.ArrayType):
            if st.size is None or expr_variant(st.size):
                return "array-size"
            if st.type.space == ir.LOCAL and st.name not in top_locals:
                return "local-array"
    if ir.has_barrier(fn):
        if any(isinstance(s, ir.Return) for s in ir.walk_stmts(fn.body)):
            return "barrier"
        if not _barriers_phase_safe(fn.body, True, expr_variant):
            return "barrier"
    return _body_reason(module, fn.body, (fn.name,))


# -- codegen ---------------------------------------------------------------


class _VecCompiler:
    """Compiles one eligible kernel body to masked numpy statements."""

    def __init__(
        self,
        module: ir.Module,
        fn: ir.Function,
        em: _Emitter,
        variant: set[str],
    ) -> None:
        self.module = module
        self.fn = fn
        self.em = em
        #: stack of boolean-mask variable names; empty = all lanes
        self.masks: list[str] = []
        #: enclosing masked loops: {'depth', 'act'}
        self.loops: list[dict] = []
        #: rename scopes for inlined callees (innermost last)
        self.scopes: list[dict[str, str]] = []
        #: per-scope variant-variable sets (kernel's own at index 0)
        self.variants: list[set[str]] = [variant]
        #: resolved 2-D array name -> row-index variable
        self.rowed: dict[str, str] = {}
        #: return contexts: {'depth', 'ret'} (kernel level at index 0
        #: when the kernel body contains Return)
        self.inline_ctx: list[dict] = []
        self.inline_stack: list[str] = []
        #: True once any masked loop was emitted (the iteration cap can
        #: fire at runtime, so dispatch snapshots written buffers)
        self.has_masked_loops = False
        #: stack of width expressions; compactible masked loops push
        #: their current-width variable so inner mask materialisation
        #: (``__vmask`` / ``ones``) matches the compacted lane count
        self.widths: list[str] = ["__n"]
        #: per-lane work-item index arrays emitted by the prologue
        #: (``__lin`` always, plus any ``__g*``/``__l*``/``__grp*`` and
        #: ``__grow``); compaction gathers them so absolute-index
        #: semantics survive at compacted width
        self.lane_arrays: list[str] = ["__lin"]
        #: CSE availability table: structural key -> (temp, deps, load)
        self.cse_table: dict = {}
        #: keys added per lexical scope (popped when leaving a
        #: conditionally-executed region, so a temp assigned under a
        #: runtime-skippable branch is never reused outside it)
        self.cse_scopes: list[set] = [set()]
        #: static count of eliminated re-evaluations (reuse sites)
        self.cse_hits = 0
        self.tmp = 0

    def var(self, name: str) -> str:
        """Resolve *name* through the inline rename scopes."""
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return f"v_{name}"

    def fresh_mask(self) -> str:
        self.tmp += 1
        return f"__m{self.tmp}"

    def fresh(self, prefix: str) -> str:
        self.tmp += 1
        return f"__{prefix}{self.tmp}"

    @property
    def mask(self) -> Optional[str]:
        return self.masks[-1] if self.masks else None

    def _m(self) -> str:
        return self.mask or "None"

    def _expr_variant(self, e: Optional[ir.Expr]) -> bool:
        return _make_expr_variant(self.module, self.variants[-1])(e)

    def add_ops(self, n: int) -> None:
        if self.mask is None:
            self.em.emit(f"__ops += {n}")
        else:
            # bool * int broadcast beats boolean fancy indexing by an
            # order of magnitude and is density-independent.
            self.em.emit(f"__ops += {self.mask} * {n}")

    def _width(self) -> str:
        """The lane-count expression masks materialise at (the full
        ``__n``, or the innermost compacted loop's width variable)."""
        return self.widths[-1]

    # -- common-subexpression elimination -------------------------------

    def _cse_clear(self) -> None:
        """Drop every available expression (region boundary)."""
        self.cse_table.clear()

    def _cse_push(self) -> None:
        self.cse_scopes.append(set())

    def _cse_pop(self) -> None:
        """Leave a conditionally-executed region: its temps may not
        have been assigned at runtime, so they are not reusable."""
        for key in self.cse_scopes.pop():
            self.cse_table.pop(key, None)

    def _cse_kill(self, name: str) -> None:
        """Invalidate entries depending on *name* (it was reassigned)."""
        if not self.cse_table:
            return
        dead = [
            k for k, (_, deps, _) in self.cse_table.items() if name in deps
        ]
        for k in dead:
            del self.cse_table[k]

    def _cse_kill_loads(self) -> None:
        """Invalidate every entry containing an array load.  Any store
        may alias any array (two parameters can name the same buffer),
        so stores are treated as clobbering all of them."""
        if not self.cse_table:
            return
        dead = [k for k, (_, _, load) in self.cse_table.items() if load]
        for k in dead:
            del self.cse_table[k]

    def _cse_key(self, e: ir.Expr):
        """Structural availability key for *e*, or None when the
        expression is not cacheable (user calls, whose inlining emits
        statements).  Variable names are resolved through the inline
        scopes; mask-dependent forms (division helpers, loads) embed
        the current mask name so a reuse under a different mask misses.
        """
        if isinstance(e, ir.Const):
            return ("c", type(e.value).__name__, e.value)
        if isinstance(e, ir.Var):
            return ("v", self.var(e.name))
        if isinstance(e, ir.UnOp):
            k = self._cse_key(e.operand)
            return None if k is None else ("u", e.op, k)
        if isinstance(e, ir.BinOp):
            lk = self._cse_key(e.left)
            rk = self._cse_key(e.right)
            if lk is None or rk is None:
                return None
            if e.op in ("/", "%"):
                kinds = (_kind(e.left), _kind(e.right))
                return ("d", e.op, kinds, self._m(), lk, rk)
            return ("b", e.op, lk, rk)
        if isinstance(e, ir.Cast):
            k = self._cse_key(e.operand)
            return None if k is None else ("t", e.target.kind, k)
        if isinstance(e, ir.Select):
            ks = tuple(
                self._cse_key(x) for x in (e.cond, e.if_true, e.if_false)
            )
            return None if None in ks else ("s",) + ks
        if isinstance(e, ir.Index):
            if not isinstance(e.base, ir.Var):
                return None
            ik = self._cse_key(e.index)
            if ik is None:
                return None
            return ("l", self.var(e.base.name), self._m(), ik)
        if isinstance(e, ir.Call):
            if e.name in ir.WORKITEM_BUILTINS:
                return ("v", self._call(e))
            if e.name in _NP_MATH:
                ks = tuple(self._cse_key(a) for a in e.args)
                return None if None in ks else ("m", e.name, ks)
        return None

    def _cse_deps(self, e: ir.Expr) -> tuple[frozenset, bool]:
        """(resolved names the cached value depends on, contains-load)."""
        deps: set[str] = set()
        load = False
        masked = False
        for node in ir.walk_exprs(e):
            if isinstance(node, ir.Var):
                deps.add(self.var(node.name))
            elif isinstance(node, ir.Index):
                load = True
                masked = True
            elif isinstance(node, ir.BinOp) and node.op in ("/", "%"):
                masked = True
        if masked and self.mask is not None:
            # Mask-aware helpers bake the mask's value in; killing on
            # mask reassignment (break/continue/return subtraction,
            # per-round act updates) keeps reuse exact.
            deps.add(self.mask)
        return frozenset(deps), load

    # -- expressions ----------------------------------------------------

    def expr(self, e: ir.Expr) -> str:
        """Emit *e*, reusing a previously computed temp when an
        identical pure subexpression is still available."""
        if isinstance(e, (ir.Const, ir.Var)):
            return self._expr_raw(e)
        if isinstance(e, ir.Call) and e.name in ir.WORKITEM_BUILTINS:
            return self._expr_raw(e)
        key = self._cse_key(e)
        if key is None:
            return self._expr_raw(e)
        hit = self.cse_table.get(key)
        if hit is not None:
            self.cse_hits += 1
            return hit[0]
        code = self._expr_raw(e)
        tmp = self.fresh("c")
        self.em.emit(f"{tmp} = {code}")
        deps, load = self._cse_deps(e)
        self.cse_table[key] = (tmp, deps, load)
        self.cse_scopes[-1].add(key)
        return tmp

    def _expr_raw(self, e: ir.Expr) -> str:
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
                return f"__vnot({inner})"
            return f"(~{inner})"
        if isinstance(e, ir.Index):
            assert isinstance(e.base, ir.Var)
            base = self.var(e.base.name)
            idx = self.expr(e.index)
            row = self.rowed.get(base)
            if row is not None:
                return f"__vload2({base}, {row}, {idx}, {self._m()})"
            return f"__vload({base}, {idx}, {self._m()})"
        if isinstance(e, ir.Cast):
            inner = self.expr(e.operand)
            fn = {"int": "__vint", "float": "__vfloat", "bool": "__vbool"}[
                e.target.kind
            ]
            return f"{fn}({inner})"
        if isinstance(e, ir.Select):
            c = self.expr(e.cond)
            t = self.expr(e.if_true)
            f = self.expr(e.if_false)
            return f"__vsel({c}, {t}, {f})"
        if isinstance(e, ir.Call):
            return self._call(e)
        raise KirRuntimeError(f"vec codegen: unknown expr {type(e).__name__}")

    def _binop(self, e: ir.BinOp) -> str:
        lk = _kind(e.left)
        rk = _kind(e.right)
        left = self.expr(e.left)
        right = self.expr(e.right)
        op = e.op
        if op == "/":
            if lk == ir.INT and rk == ir.INT:
                return f"__vidiv({left}, {right}, {self._m()})"
            if ir.FLOAT in (lk, rk):
                return f"__vfdiv({left}, {right}, {self._m()})"
            return f"__vdiv({left}, {right}, {self._m()})"
        if op == "%":
            if lk == ir.INT and rk == ir.INT:
                return f"__vimod({left}, {right}, {self._m()})"
            if ir.FLOAT in (lk, rk):
                return f"__vfmod({left}, {right}, {self._m()})"
            return f"__vmod({left}, {right}, {self._m()})"
        if op == "&&":
            return f"__vand({left}, {right})"
        if op == "||":
            return f"__vor({left}, {right})"
        return f"({left} {op} {right})"

    def _call(self, e: ir.Call) -> str:
        if e.name == "get_work_dim":
            return "__dim"
        if e.name in ir.WORKITEM_BUILTINS:
            d = int(e.args[0].value)  # type: ignore[attr-defined]
            if not 0 <= d < _MAX_DIMS:
                return "0" if e.name.endswith("_id") else "1"
            return f"{_WI_VARS[e.name]}{d}"
        if e.name in _NP_MATH:
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{_NP_MATH[e.name]}({args})"
        return self._inline_call(e)

    def _inline_call(self, e: ir.Call) -> str:
        """Inline a pure user-function call under the current mask.

        Ops match the scalar engine exactly: argument expressions are
        charged by the caller's statement cost (``_stmt_cost`` walks
        into call arguments), parameter binding is free, the callee
        body is charged by the shared :meth:`block`, and each
        ``return`` is charged like any other statement."""
        callee = self.module.functions[e.name]
        k = self.fresh("i")
        scope: dict[str, str] = {}
        seeds: list[str] = []
        for p, a in zip(callee.params, e.args):
            if isinstance(p.type, ir.ArrayType):
                assert isinstance(a, ir.Var)
                scope[p.name] = self.var(a.name)
            else:
                tmp = f"{k}a_{p.name}"
                self.em.emit(f"{tmp} = {self.expr(a)}")
                scope[p.name] = tmp
                if self._expr_variant(a):
                    seeds.append(p.name)
        for st in ir.walk_stmts(callee.body):
            if isinstance(st, ir.Decl) and st.name not in scope:
                scope[st.name] = f"{k}v_{st.name}"
            elif isinstance(st, ir.For) and st.var not in scope:
                scope[st.var] = f"{k}v_{st.var}"
        ret: Optional[str] = None
        if isinstance(callee.ret_type, ir.ScalarType):
            ret = f"{k}r"
            self.em.emit(f"{ret} = {_ZERO[callee.ret_type.kind]}")
        has_ret = any(
            isinstance(s, ir.Return) for s in ir.walk_stmts(callee.body)
        )
        self.inline_stack.append(e.name)
        self.scopes.append(scope)
        self.variants.append(_variant_vars(self.module, callee, seeds))
        if has_ret:
            live = self.fresh_mask()
            cur = self.mask
            if cur is None:
                self.em.emit(f"{live} = __np.ones({self._width()}, dtype=bool)")
            else:
                self.em.emit(f"{live} = {cur}")
            self.masks.append(live)
            self.inline_ctx.append({"depth": len(self.masks) - 1, "ret": ret})
            self.block(callee.body)
            self.inline_ctx.pop()
            self.masks.pop()
        else:
            self.block(callee.body)
        self.variants.pop()
        self.scopes.pop()
        self.inline_stack.pop()
        return ret if ret is not None else "0"

    # -- statements -----------------------------------------------------

    def block(self, stmts: Sequence[ir.Stmt]) -> None:
        """Mirror of ``_FnCompiler.block``'s per-run op batching."""
        pending = 0

        def flush() -> None:
            nonlocal pending
            if pending:
                self.add_ops(pending)
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
                assert st.size is not None
                size = self.expr(st.size)
                dtype = _NP_DTYPE_OF[st.type.element.kind]
                name = self.var(st.name)
                if st.type.space == ir.LOCAL:
                    em.emit(
                        f"{name} = "
                        f"__np.zeros((__ngroups, {size}), dtype={dtype})"
                    )
                    self.rowed[name] = "__grow"
                else:
                    em.emit(
                        f"{name} = "
                        f"__np.zeros((__n, {size}), dtype={dtype})"
                    )
                    self.rowed[name] = "__lin"
            elif st.init is not None:
                self._assign(st.name, self.expr(st.init), declares=True)
            else:
                em.emit(f"{self.var(st.name)} = {_ZERO[st.type.kind]}")
                self._cse_kill(self.var(st.name))
        elif isinstance(st, ir.Assign):
            self._assign(st.name, self.expr(st.value))
        elif isinstance(st, ir.Store):
            assert isinstance(st.base, ir.Var)
            base = self.var(st.base.name)
            idx = self.expr(st.index)
            val = self.expr(st.value)
            row = self.rowed.get(base)
            if row is not None:
                em.emit(
                    f"__vstore2({base}, {row}, {idx}, {val}, {self._m()})"
                )
            else:
                em.emit(f"__vstore({base}, {idx}, {val}, {self._m()})")
            self._cse_kill_loads()
        elif isinstance(st, ir.ExprStmt):
            em.emit(f"_ = {self.expr(st.expr)}")
        else:  # pragma: no cover - guarded by block()
            raise KirRuntimeError(f"not simple: {type(st).__name__}")

    def _assign(self, name: str, value: str, declares: bool = False) -> None:
        target = self.var(name)
        if self.mask is None or declares:
            # A declaration is scoped to its branch: later lanes never
            # observe it, so the unmasked full-width value is correct.
            self.em.emit(f"{target} = {value}")
        else:
            self.em.emit(
                f"{target} = __np.where({self.mask}, {value}, {target})"
            )
        self._cse_kill(target)

    def _kill_masks(self, names: Sequence[str], cap: str) -> None:
        seen: set[str] = set()
        for v in names:
            if v not in seen:
                self.em.emit(f"{v} = {v} & ~{cap}")
                self._cse_kill(v)
                seen.add(v)

    def return_stmt(self, st: ir.Return) -> None:
        ctx = self.inline_ctx[-1]
        cur = self.mask
        assert cur is not None  # a live mask is pushed whenever Return occurs
        if ctx["ret"] is not None and st.value is not None:
            val = self.expr(st.value)
            self.em.emit(
                f"{ctx['ret']} = __np.where({cur}, {val}, {ctx['ret']})"
            )
        cap = self.fresh("t")
        self.em.emit(f"{cap} = {cur}")
        names = list(self.masks[ctx["depth"]:])
        names += [
            lp["act"] for lp in self.loops if lp["depth"] >= ctx["depth"]
        ]
        self._kill_masks(names, cap)

    def break_stmt(self) -> None:
        lp = self.loops[-1]
        cur = self.mask
        assert cur is not None
        cap = self.fresh("t")
        self.em.emit(f"{cap} = {cur}")
        self._kill_masks(list(self.masks[lp["depth"]:]) + [lp["act"]], cap)

    def continue_stmt(self) -> None:
        lp = self.loops[-1]
        cur = self.mask
        assert cur is not None
        cap = self.fresh("t")
        self.em.emit(f"{cap} = {cur}")
        self._kill_masks(list(self.masks[lp["depth"]:]), cap)

    def control_stmt(self, st: ir.Stmt) -> None:
        em = self.em
        if isinstance(st, ir.If):
            self.add_ops(_static_cost(st.cond) + 1)
            raw = self.fresh_mask()
            em.emit(f"{raw} = __vmask({self.expr(st.cond)}, {self._width()})")
            then_mask = raw if self.mask is None else self.fresh_mask()
            if self.mask is not None:
                em.emit(f"{then_mask} = {raw} & {self.mask}")
            if st.then:
                em.emit(f"if {then_mask}.any():")
                em.indent += 1
                self.masks.append(then_mask)
                self._cse_push()
                self.block(st.then)
                self._cse_pop()
                self.masks.pop()
                em.indent -= 1
            if st.orelse:
                else_mask = self.fresh_mask()
                if self.mask is None:
                    em.emit(f"{else_mask} = ~{raw}")
                else:
                    em.emit(f"{else_mask} = ~{raw} & {self.mask}")
                em.emit(f"if {else_mask}.any():")
                em.indent += 1
                self.masks.append(else_mask)
                self._cse_push()
                self.block(st.orelse)
                self._cse_pop()
                self.masks.pop()
                em.indent -= 1
        elif isinstance(st, ir.For):
            if _masked_for(st, self._expr_variant):
                self._masked_for_stmt(st)
            else:
                self._uniform_for_stmt(st)
        elif isinstance(st, ir.While):
            if _masked_while(st, self._expr_variant):
                self._masked_while_stmt(st)
            else:
                self._uniform_while_stmt(st)
        elif isinstance(st, ir.Break):
            self.break_stmt()
        elif isinstance(st, ir.Continue):
            self.continue_stmt()
        elif isinstance(st, ir.Barrier):
            # Full-width execution is already statement-synchronous:
            # every lane completes the previous phase before the next
            # statement runs, so the barrier needs no code (it also
            # charges no ops in the scalar engines).
            pass
        else:  # pragma: no cover - guarded by eligibility()
            raise KirRuntimeError(
                f"vec codegen: unsupported {type(st).__name__}"
            )

    def _loop_setup_ops(self, st: ir.For) -> None:
        setup = (
            _static_cost(st.start)
            + _static_cost(st.stop)
            + _static_cost(st.step)
        )
        if setup:
            self.add_ops(setup)

    def _uniform_for_stmt(self, st: ir.For) -> None:
        em = self.em
        self._loop_setup_ops(st)
        start = self.expr(st.start)
        stop = self.expr(st.stop)
        step = self.expr(st.step)
        em.emit(
            f"for {self.var(st.var)} in range({start}, {stop}, {step}):"
        )
        em.indent += 1
        # Entries from before the loop could be stale by iteration 2
        # (their deps may be assigned later in the body); entries made
        # inside are undefined after a zero-trip loop.  Clear at both
        # boundaries, keeping only within-body reuse.
        self._cse_clear()
        self.add_ops(2)
        self.block(st.body)
        self._cse_clear()
        em.indent -= 1

    # -- lane compaction ------------------------------------------------

    def _compaction_plan(self, st) -> Optional[dict]:
        """Build the gather/scatter plan for a masked loop, or None
        when the loop cannot be compacted.

        A loop is compactible unless its body contains ``return``: a
        return must subtract lanes from masks of the *enclosing* width
        (the kernel's ``__live`` or an enclosing callee's live mask),
        which do not exist at compacted width.  ``break``/``continue``
        always bind to masks created inside the region, so they are
        safe.

        The gather set is every per-lane value the region can read or
        write between rounds: loop-carried variant variables (region
        reads/writes, minus names declared inside the region and inner
        loop variables, which are rebound before use), the op vector,
        and the prologue's work-item index arrays — ``__lin`` stays in
        *absolute* lane indices after gathering, so private-array rows
        and store targets keep full-width addressing.  Values never
        assigned in the region are restored by reference on exit;
        assigned ones are snapshotted (copied) at the first event and
        scattered back through it.
        """
        body = st.body
        if any(isinstance(s, ir.Return) for s in ir.walk_stmts(body)):
            return None
        reads: set[str] = set()
        writes: set[str] = set()
        local: set[str] = set()
        exprs: list[ir.Expr] = []
        if isinstance(st, ir.While):
            exprs.append(st.cond)
        else:
            writes.add(st.var)
        for s in ir.walk_stmts(body):
            if isinstance(s, ir.Decl):
                local.add(s.name)
            elif isinstance(s, ir.Assign):
                writes.add(s.name)
            elif isinstance(s, ir.For):
                local.add(s.var)
            exprs.extend(ir.walk_exprs(s))
        for e in exprs:
            for node in ir.walk_exprs(e):
                if isinstance(node, ir.Var):
                    reads.add(node.name)
        variant = self.variants[-1]
        ro = list(self.lane_arrays)
        rw = ["__ops"]
        for name in sorted(reads | writes):
            if name in local or name not in variant:
                continue
            (rw if name in writes else ro).append(self.var(name))
        return {"ro": ro, "rw": rw}

    def _compact_frame(self, plan: dict) -> dict:
        """Allocate the runtime bookkeeping variables for one
        compactible loop and emit their initialisation."""
        em = self.em
        fr = {
            "ew": self.fresh("w"),    # entry width (scatter target)
            "cw": self.fresh("w"),    # current width
            "sel": self.fresh("s"),   # absolute indices, None until
            "ck": self.fresh("k"),    # rounds since entry (check gate)
            "cr": self.fresh("k"),    # rounds run at compacted width
            "ro": [(n, self.fresh("s")) for n in plan["ro"]],
            "rw": [(n, self.fresh("s")) for n in plan["rw"]],
        }
        em.emit(f"{fr['ew']} = {self._width()}")
        em.emit(f"{fr['cw']} = {fr['ew']}")
        em.emit(f"{fr['sel']} = None")
        em.emit(f"{fr['ck']} = 0")
        em.emit(f"{fr['cr']} = 0")
        return fr

    def _compact_check(self, fr: dict, act: str) -> None:
        """Emit the per-round density check and compaction event.

        Runs at the top of a round, before the condition/charge, so
        everything the round touches is already at the new width.  A
        first event snapshots each read-write value (:func:`_vsave`)
        and records the live lanes' absolute indices; a re-compaction
        scatters current values through the old selection before
        composing it with the new ``flatnonzero`` (lanes that died
        between events hold their final values in the compact arrays).
        """
        em = self.em
        p = self.fresh("p")
        em.emit(f"if __vcshould({fr['ck']}, {act}):")
        em.indent += 1
        em.emit("__vcstats(1, 0)")
        em.emit(f"{p} = __np.flatnonzero({act})")
        em.emit(f"if {fr['sel']} is None:")
        em.indent += 1
        for name, sv in fr["ro"]:
            em.emit(f"{sv} = {name}")
        for name, sv in fr["rw"]:
            em.emit(f"{sv} = __vsave({name})")
        em.emit(f"{fr['sel']} = {p}")
        em.indent -= 1
        em.emit("else:")
        em.indent += 1
        for name, sv in fr["rw"]:
            em.emit(f"{sv} = __vput({sv}, {fr['sel']}, {name}, {fr['ew']})")
        em.emit(f"{fr['sel']} = {fr['sel']}[{p}]")
        em.indent -= 1
        for name, sv in fr["ro"] + fr["rw"]:
            em.emit(f"{name} = __vtake({sv}, {fr['sel']})")
        em.emit(f"{act} = {act}[{p}]")
        em.emit(f"{fr['cw']} = {p}.shape[0]")
        em.indent -= 1
        em.emit(f"{fr['ck']} += 1")
        em.emit(f"if {fr['sel']} is not None: {fr['cr']} += 1")

    def _compact_exit(self, fr: dict) -> None:
        """Emit the loop-exit scatter: read-write values go back
        through the snapshot at entry width, read-only ones are
        restored by reference (they were never written)."""
        em = self.em
        em.emit(f"if {fr['sel']} is not None:")
        em.indent += 1
        for name, sv in fr["rw"]:
            em.emit(f"{name} = __vput({sv}, {fr['sel']}, {name}, {fr['ew']})")
        for name, sv in fr["ro"]:
            em.emit(f"{name} = {sv}")
        em.emit(f"__vcstats(0, {fr['cr']})")
        em.indent -= 1

    def _enter_loop_body(self, body: Sequence[ir.Stmt], act: str) -> None:
        """Push the loop body mask (a per-iteration copy when the body
        contains ``continue``, so continue can subtract lanes from the
        rest of the iteration without ending their loop)."""
        if _direct(body, ir.Continue):
            body_mask = self.fresh_mask()
            self.em.emit(f"{body_mask} = {act}")
        else:
            body_mask = act
        self.loops.append({"depth": len(self.masks), "act": act})
        self.masks.append(body_mask)
        self.block(body)
        self.masks.pop()
        self.loops.pop()

    def _masked_while_stmt(self, st: ir.While) -> None:
        em = self.em
        self.has_masked_loops = True
        act = self.fresh_mask()
        outer = self.mask
        if outer is None:
            em.emit(f"{act} = __np.ones({self._width()}, dtype=bool)")
        else:
            em.emit(f"{act} = {outer}")
        it = self.fresh("t")
        em.emit(f"{it} = 0")
        plan = self._compaction_plan(st)
        fr = self._compact_frame(plan) if plan is not None else None
        cost = _static_cost(st.cond) + 1
        em.emit("while True:")
        em.indent += 1
        # Region boundary for CSE: a temp assigned in round i must not
        # be reused in round i+1 (its deps move, and compaction may
        # change the lane width between rounds).
        self._cse_clear()
        if fr is not None:
            self._compact_check(fr, act)
            self.widths.append(fr["cw"])
        # Every still-active lane performs the check (and pays for it,
        # including the final failing one — exactly the scalar charge).
        em.emit(f"__ops += {act} * {cost}")
        self.masks.append(act)
        cond = self.expr(st.cond)
        self.masks.pop()
        em.emit(f"{act} = {act} & __vmask({cond}, {self._width()})")
        em.emit(f"if not {act}.any(): break")
        em.emit(f"{it} += 1")
        em.emit(f"if {it} > __CAP: raise __vcaperr()")
        self._enter_loop_body(st.body, act)
        if fr is not None:
            self.widths.pop()
        em.indent -= 1
        if fr is not None:
            self._compact_exit(fr)
        self._cse_clear()

    def _masked_for_stmt(self, st: ir.For) -> None:
        em = self.em
        self.has_masked_loops = True
        self._loop_setup_ops(st)
        var = self.var(st.var)
        stop_v = self.fresh("t")
        step_v = self.fresh("t")
        em.emit(f"{var} = {self.expr(st.start)}")
        em.emit(f"{stop_v} = {self.expr(st.stop)}")
        em.emit(f"{step_v} = {self.expr(st.step)}")
        if isinstance(st.step, ir.Const):
            cmp_op = "<" if st.step.value > 0 else ">"
            in_range = f"({var} {cmp_op} {stop_v})"
        else:
            in_range = (
                f"__vsel({step_v} > 0, {var} < {stop_v}, {var} > {stop_v})"
            )
        plan = self._compaction_plan(st)
        fr = None
        if plan is not None:
            # The bound/step temps are loop-carried per-lane state too
            # (never reassigned, so restore-by-reference suffices).
            plan["ro"] = plan["ro"] + [stop_v, step_v]
            fr = self._compact_frame(plan)
        act = self.fresh_mask()
        outer = self.mask
        if outer is None:
            em.emit(f"{act} = __vmask({in_range}, {self._width()})")
        else:
            em.emit(f"{act} = {outer} & __vmask({in_range}, {self._width()})")
        it = self.fresh("t")
        em.emit(f"{it} = 0")
        em.emit(f"while {act}.any():")
        em.indent += 1
        self._cse_clear()
        if fr is not None:
            self._compact_check(fr, act)
            self.widths.append(fr["cw"])
        # The scalar range loop charges +2 per entered iteration; the
        # failing range check is free.
        em.emit(f"__ops += {act} * 2")
        self._enter_loop_body(st.body, act)
        em.emit(f"{var} = {var} + {step_v}")
        em.emit(f"{act} = {act} & __vmask({in_range}, {self._width()})")
        if fr is not None:
            self.widths.pop()
        em.emit(f"{it} += 1")
        em.emit(f"if {it} > __CAP: raise __vcaperr()")
        em.indent -= 1
        if fr is not None:
            self._compact_exit(fr)
        self._cse_clear()

    def _uniform_while_stmt(self, st: ir.While) -> None:
        """A ``while`` whose condition is item-invariant and whose body
        cannot diverge runs as a plain Python loop: the condition is a
        host scalar and every lane shares the trip count."""
        em = self.em
        cost = _static_cost(st.cond) + 1
        em.emit("while True:")
        em.indent += 1
        # Same staleness/zero-trip reasoning as _uniform_for_stmt (the
        # condition always runs once, but reuse across the back edge
        # would read values from the previous iteration).
        self._cse_clear()
        self.add_ops(cost)
        em.emit(f"if not ({self.expr(st.cond)}): break")
        self.block(st.body)
        em.indent -= 1
        self._cse_clear()


def _vint(x: Any):
    return x.astype(_np.int64) if _is_arr(x) else int(x)


def _vfloat(x: Any):
    return x.astype(_np.float64) if _is_arr(x) else float(x)


def _vbool(x: Any):
    return x.astype(bool) if _is_arr(x) else bool(x)


def _gen_vec_kernel(
    module: ir.Module, fn: ir.Function, em: _Emitter
) -> _VecCompiler:
    used = _used_workitem_vars(fn)
    params = [f"v_{p.name}" for p in fn.params]
    has_locals = bool(_local_decls(fn))
    em.emit(f"def __vec_{fn.name}(__args, __gsz, __lsz, __dim):")
    em.indent += 1
    if params:
        em.emit(f"({', '.join(params)},) = __args")
    for d in range(_MAX_DIMS):
        em.emit(f"__G{d} = __gsz[{d}]")
        em.emit(f"__L{d} = __lsz[{d}]")
        em.emit(f"__N{d} = __G{d} // __L{d}")
    em.emit("__n = __G0 * __G1 * __G2")
    em.emit("__lin = __np.arange(__n)")
    id_used = {d for (name, d) in used if name in (
        "get_global_id", "get_local_id", "get_group_id")}
    if has_locals:
        id_used |= {0, 1, 2}
    for d in sorted(id_used):
        if d == 0:
            em.emit("__g0 = __lin % __G0")
        elif d == 1:
            em.emit("__g1 = (__lin // __G0) % __G1")
        else:
            em.emit("__g2 = __lin // (__G0 * __G1)")
    for name, d in sorted(used):
        if name == "get_local_id":
            em.emit(f"__l{d} = __g{d} % __L{d}")
        elif name == "get_group_id":
            em.emit(f"__grp{d} = __g{d} // __L{d}")
    if has_locals:
        # Per-item row into the (num_groups, size) local-memory
        # buffers: the group's flat index in the scalar engine's
        # group-major visit order.
        em.emit("__ngroups = __N0 * __N1 * __N2")
        em.emit(
            "__grow = (__g2 // __L2 * __N1 + __g1 // __L1) * __N0 "
            "+ __g0 // __L0"
        )
    em.emit("__ops = __np.zeros(__n, dtype=__np.int64)")
    comp = _VecCompiler(module, fn, em, _variant_vars(module, fn))
    for d in sorted(id_used):
        comp.lane_arrays.append(f"__g{d}")
    for name, d in sorted(used):
        if name == "get_local_id":
            comp.lane_arrays.append(f"__l{d}")
        elif name == "get_group_id":
            comp.lane_arrays.append(f"__grp{d}")
    if has_locals:
        comp.lane_arrays.append("__grow")
    if any(isinstance(s, ir.Return) for s in ir.walk_stmts(fn.body)):
        # Early return subtracts lanes from this kernel-wide live mask.
        em.emit("__live = __np.ones(__n, dtype=bool)")
        comp.masks.append("__live")
        comp.inline_ctx.append({"depth": 0, "ret": None})
    comp.block(fn.body)
    em.emit("return __ops")
    em.indent -= 1
    em.emit("")
    return comp


#: (gsz, lsz) -> linear-to-group-major scatter index for
#: :func:`fold_group_warps`.  Iterative workloads (the LUD pipeline,
#: repeated docrank launches) dispatch the same NDRange shape hundreds
#: of times; the index math is the dominant fold cost, so it is built
#: once per shape.  Bounded: wiped wholesale when it grows past 64
#: shapes (real workloads use a handful).
_fold_perm_cache: dict = {}


def _fold_perm(g: tuple, l: tuple, nitems: int) -> Any:
    """Scatter index mapping linear item order to group-major order."""
    key = (g, l)
    perm = _fold_perm_cache.get(key)
    if perm is None:
        n0, n1 = g[0] // l[0], g[1] // l[1]
        gitems = l[0] * l[1] * l[2]
        lin = _np.arange(nitems)
        x = lin % g[0]
        y = (lin // g[0]) % g[1]
        z = lin // (g[0] * g[1])
        grp = (z // l[2] * n1 + y // l[1]) * n0 + x // l[0]
        intra = ((z % l[2]) * l[1] + y % l[1]) * l[0] + x % l[0]
        perm = grp * gitems + intra
        if len(_fold_perm_cache) >= 64:
            _fold_perm_cache.clear()
        _fold_perm_cache[key] = perm
    return perm


def fold_group_warps(
    ops: Any, gsz: Sequence[int], lsz: Sequence[int], simd: int
) -> list[list[int]]:
    """Reduce a per-item op vector (numpy array or list) to per-group
    warp maxima.

    Reproduces ``costmodel.group_warp_costs`` exactly: items are
    regrouped from linear (dim0-fastest) order into intra-group arrival
    order, chunked into warps of *simd*, and reduced by max.  The
    short-warp tail pads with zeros, which cannot change a maximum of
    non-negative op counts.
    """
    ops = _np.asarray(ops)
    g = _pad3(gsz)
    l = _pad3(lsz)
    n0, n1, n2 = g[0] // l[0], g[1] // l[1], g[2] // l[2]
    ngroups = n0 * n1 * n2
    gitems = l[0] * l[1] * l[2]
    if l[1] == 1 and l[2] == 1:
        # Groups never span dim1/dim2: linear order is already
        # group-major intra-group order.
        arranged = ops
    else:
        arranged = _np.empty_like(ops)
        arranged[_fold_perm(g, l, ops.shape[0])] = ops
    nwarps = -(-gitems // simd)
    if gitems % simd:
        padded = _np.zeros((ngroups, nwarps * simd), dtype=ops.dtype)
        padded[:, :gitems] = arranged.reshape(ngroups, gitems)
        arranged = padded
    else:
        arranged = arranged.reshape(ngroups, nwarps * simd)
    return arranged.reshape(ngroups, nwarps, simd).max(axis=2).tolist()


class VecKernel:
    """Callable vectorised form of one kernel."""

    def __init__(
        self,
        fn: ir.Function,
        run_fn: Any,
        group_major: bool = False,
        has_masked_loops: bool = False,
        cse_hits: int = 0,
    ) -> None:
        self.fn = fn
        self.name = fn.name
        self._run = run_fn
        #: group-mode kernels are priced from item ops listed in the
        #: scalar engine's group-major visit order; reproduce that
        #: ordering quirk bit-for-bit (see :meth:`run_item_ops`)
        self.group_major = group_major
        #: True when the kernel contains loops whose runtime iteration
        #: count is lane-dependent (the :data:`LOOP_ITER_CAP` can fire)
        self.has_masked_loops = has_masked_loops
        #: static count of subexpression re-evaluations eliminated at
        #: codegen (reported per dispatch as ``dispatch.cse.hits``)
        self.cse_hits = cse_hits

    def run_item_ops(
        self, args: Sequence[Any], gsz: Sequence[int], lsz: Sequence[int]
    ) -> Any:
        """Execute the NDRange on numpy arrays; returns the per-item op
        vector in the order the scalar engine prices it, so slicing it
        at work-group-row boundaries matches slicing
        :meth:`repro.kir.KernelRunner.run_range`.  Array arguments must
        be numpy views of the buffers
        (:meth:`repro.opencl.memory.Buffer.np_view`)."""
        g = _pad3(gsz)
        l = _pad3(lsz)
        # Masked-off lanes may compute garbage that is discarded; only
        # the mask-aware helpers turn *active* faults into errors.
        with _np.errstate(all="ignore"):
            ops = self._run(tuple(args), g, l, len(gsz))
        if self.group_major and (l[1] != 1 or l[2] != 1):
            # The scalar group engine emits item ops in group-major
            # order and prices them as if linear; mimic by scattering
            # to group-major before the (identical) fold.
            arranged = _np.empty_like(ops)
            arranged[_fold_perm(g, l, ops.shape[0])] = ops
            ops = arranged
        return ops

    def run_group_warps(
        self,
        args: Sequence[Any],
        gsz: Sequence[int],
        lsz: Sequence[int],
        simd: int,
    ) -> list[list[int]]:
        """:meth:`run_item_ops` folded into per-group warp op maxima."""
        ops = self.run_item_ops(args, gsz, lsz)
        return fold_group_warps(ops, gsz, lsz, simd)


def vectorize_kernel_info(
    module: ir.Module, fn: ir.Function
) -> tuple[Optional["VecKernel"], Optional[str]]:
    """Compile *fn* to a :class:`VecKernel`.

    Returns ``(kernel, None)`` on success or ``(None, reason)`` where
    *reason* is the :func:`eligibility` string (or ``codegen-error``
    for an unexpected compilation failure — vectorisation is purely an
    optimisation, so the scalar engine silently carries execution).
    """
    try:
        reason = eligibility(module, fn)
        if reason is not None:
            return None, reason
        em = _Emitter()
        comp = _gen_vec_kernel(module, fn, em)
        namespace = _namespace_base()
        namespace["__vint"] = _vint
        namespace["__vfloat"] = _vfloat
        namespace["__vbool"] = _vbool
        code = compile(em.source(), f"<kirvec:{fn.name}>", "exec")
        exec(code, namespace)  # noqa: S102 - our own generated code
        vk = VecKernel(
            fn,
            namespace[f"__vec_{fn.name}"],
            group_major=ir.has_barrier(fn) or bool(_local_decls(fn)),
            has_masked_loops=comp.has_masked_loops,
            cse_hits=comp.cse_hits,
        )
        return vk, None
    except Exception:
        return None, "codegen-error"

