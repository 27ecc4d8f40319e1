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
  ``(size, num_groups)`` numpy buffers.  Every statement already runs
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
  (e.g. a loop condition's ``x*x + y*y`` reused in its body, or a
  uniform ``for`` body's loop-invariant arithmetic, hoisted) become
  single-assignment temporaries, invalidated on assignments to their
  dependencies and conservatively on any store to an array.

Where codegen knows the shape of the work it emits plain numpy: a
private array at full width indexed by one host scalar is read and
written a row at a time inline, and an unmasked gather is ``a[i]``.

Op accounting mirrors ``_FnCompiler.block`` exactly (same per-block
batching, the same ``+1`` / ``+2`` control-flow charges, masked where
the scalar path is conditional), so the folded warp maxima — and hence
every simulated nanosecond — are identical to the scalar engines';
tests assert this.  Two charges are merged exactly: a straight-line
``if``/``else`` charges its cheaper branch once with the condition,
and a ``while`` charges each later check with the body's last charge.
Charges derive from static IR costs, never from the numpy expressions
actually emitted, so no pass above changes one.

A ``?:`` arm or the right operand of ``&&``/``||`` that holds an array
load, an integer division or a user call runs under a guard mask, on
the lanes the scalar engine evaluates it on, so it faults and is
charged exactly where the scalar engine's does.

Kernels the tier still refuses (reason strings surface as
``dispatch.fallback.<reason>`` trace counters): non-variable array
bases (``array-expr``), variant array sizes (``array-size``), local
arrays declared below the kernel's top level (``local-array``),
barriers under divergent control flow or early return in a barrier
kernel (``barrier``), and impure or recursive user calls
(``user-call``).

Known semantic deltas of the vector tier (documented, none observable
in race-free kernels): int64 wrap-around instead of Python big ints,
same-address stores from multiple work-items resolve by numpy
fancy-assignment order, and statements between barriers execute in
lock-step across lanes rather than item-by-item.

Everything here is a wall-clock optimisation only.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Sequence

import numpy as _np

from ..errors import KirRuntimeError
from . import ir, semantics
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

_VARIANT_ID_BUILTINS = ("get_global_id", "get_local_id", "get_group_id")

#: Statements without control flow: a block charges them in one batch.
_SIMPLE = (ir.Decl, ir.Assign, ir.Store, ir.ExprStmt)


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


def _vload(arr: Any, idx: Any, m: Any):
    """Masked gather from a global array: inactive lanes read index 0."""
    if not _is_arr(idx):
        return arr[idx]
    return arr[_np.where(m, idx, 0)]


def _vload2(arr: Any, rows: Any, idx: Any, m: Any):
    """Read each work-item's slot of a private or ``__local`` array.
    Both are slot-major, ``(size, columns)``; *rows* holds each lane's
    column (``__lin`` or ``__grow``).  Codegen reads a row at one host
    scalar inline instead (:meth:`_VecCompiler._row_index`)."""
    if m is not None and _is_arr(idx):
        idx = _np.where(m, idx, 0)
    return arr[idx, rows]


def _vsel(cond: Any, if_true: Any, if_false: Any) -> Any:
    """``cond ? if_true : if_false`` per lane.  Uniform operands give a
    scalar, not ``np.where``'s 0-d array: a 0-d index is advanced
    indexing (``arr[np.array(1)]`` is a copy, not a row), and a masked
    store would index it with the lane mask."""
    r = _np.where(cond, if_true, if_false)
    return r if r.ndim else r[()]


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
    if _np.count_nonzero(m):
        if _is_arr(val):
            active = val[m]
            arr[idx] = active[-1]
        else:
            arr[idx] = val


def _vstore2(arr: Any, rows: Any, idx: Any, val: Any, m: Any) -> None:
    """Write each work-item's slot of a private or ``__local`` array
    (*rows* as in :func:`_vload2`)."""
    if m is None:
        arr[idx, rows] = val
        return
    i = idx[m] if _is_arr(idx) else idx
    v = val[m] if _is_arr(val) else val
    arr[i, rows[m]] = v


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
        # Faster than ndarray.any below about 10,000 lanes, where most
        # dispatches run, and the masked work dwarfs it above.
        "__vany": _np.count_nonzero,
        "__vidiv": semantics.vidiv,
        "__vimod": semantics.vimod,
        "__vfdiv": semantics.vfdiv,
        "__vfmod": semantics.vfmod,
        "__vload": _vload,
        "__vload2": _vload2,
        "__vstore": _vstore,
        "__vstore2": _vstore2,
        "__vnot": _np.logical_not,
        "__vand": _np.logical_and,
        "__vor": _np.logical_or,
        "__vsel": _vsel,
        "__kre": KirRuntimeError,
        "__CAP": LOOP_ITER_CAP,
        "__vcaperr": VecIterationCap,
        "__vcshould": _should_compact,
        "__vsave": _vsave,
        "__vtake": _vtake,
        "__vput": _vput,
        "__vcstats": _note_compaction,
        **{
            f"__math_{name}": fn
            for name, fn in semantics.VECTOR_BUILTINS.items()
        },
    }


# -- eligibility -----------------------------------------------------------


def _unsafe_speculative(module: ir.Module, e: ir.Expr) -> bool:
    """True if evaluating *e* on lanes that would not evaluate it in the
    scalar engine can fault or charge ops: it holds an array load (an
    out-of-range index), an integer ``/`` or ``%`` (a zero divisor) or a
    user call (its body's ops).  Such a ``?:`` arm or short-circuit
    right operand is evaluated under a guard mask
    (:meth:`_VecCompiler._guarded`)."""
    return any(
        isinstance(n, ir.Index)
        or (isinstance(n, ir.Call) and n.name in module.functions)
        or (
            isinstance(n, ir.BinOp)
            and n.op in ("/", "%")
            and _kind(n.left) == ir.INT
            and _kind(n.right) == ir.INT
        )
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
                if e.name not in ir.MATH_BUILTINS and _callee_taints(
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
                    and node.name not in ir.MATH_BUILTINS
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
    derived from them (or assigned under a condition, inside a masked
    loop or anywhere in a function with ``return``, whose live mask
    masking turns into an array) becomes variant.  *seeds* pre-marks
    names (used for inline sites, where a callee parameter bound to a
    variant argument is variant).  Fixpoint over the body.
    """
    variant: set[str] = set(seeds)
    stmts = list(ir.walk_stmts(fn.body))
    if any(isinstance(s, ir.Return) for s in stmts):
        variant |= {s.name for s in stmts if isinstance(s, ir.Assign)}
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


def _host_scalar(module: ir.Module, e: ir.Expr, arrays: set[str]) -> bool:
    """True when *e* is one host scalar on the vec tier: it reads no
    array, work-item id, user call or variable of *arrays*."""
    return not any(
        isinstance(n, ir.Index)
        or (isinstance(n, ir.Var) and n.name in arrays)
        or (
            isinstance(n, ir.Call)
            and (n.name in _VARIANT_ID_BUILTINS or n.name in module.functions)
        )
        for n in ir.walk_exprs(e)
    )


def _array_vars(
    module: ir.Module, fn: ir.Function, variant: set[str]
) -> set[str]:
    """Scalar variables of *fn* that may hold a per-lane array: the
    *variant* ones, every assigned one (a masked assignment is
    ``np.where``) and any declared from an inlined call or from them."""
    stmts = list(ir.walk_stmts(fn.body))
    arrays = set(variant) | {s.name for s in stmts if isinstance(s, ir.Assign)}
    for s in stmts:  # in program order: a declaration follows its reads
        if isinstance(s, ir.Decl) and s.init is not None:
            if not _host_scalar(module, s.init, arrays):
                arrays.add(s.name)
    return arrays


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
                if e.name in ir.WORKITEM_BUILTINS or (
                    e.name in ir.MATH_BUILTINS
                ):
                    continue
                reason = _call_reason(module, e, stack)
                if reason:
                    return reason
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
        #: kernel variables that may hold a per-lane array
        self.arrays = _array_vars(module, fn, variant)
        #: resolved private/``__local`` array name -> the variable
        #: holding each lane's column (``__lin`` or ``__grow``)
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

    def add_ops(self, n: int, mask: Optional[str] = None) -> None:
        """Charge *n* ops to the lanes of *mask* (default: the current
        mask).  Without a mask the code runs at full width with every
        lane live, so the charge is one constant for every lane: it is
        summed in the Python int ``__opk``, which joins ``__ops`` once,
        before the kernel returns."""
        mask = mask or self.mask
        if mask is None:
            self.em.emit(f"__opk += {n}")
        elif n == 1:
            self.em.emit(f"__ops += {mask}")
        else:
            # bool * int broadcast beats boolean fancy indexing by an
            # order of magnitude and is density-independent.
            self.em.emit(f"__ops += {mask} * {n}")

    def _row_index(self, base: str, index: ir.Expr) -> bool:
        """Whether *base* at *index* is one row, accessed inline: a
        private array at full width (lane *k* owns column *k*; a
        compactible loop may gather ``__lin``) at one host scalar of the
        kernel's own scope.  An ndarray index, even 0-d, selects a copy."""
        return (
            self.rowed.get(base) == "__lin"
            and len(self.widths) == 1
            and not self.scopes
            and _host_scalar(self.module, index, self.arrays)
        )

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
            if e.name in ir.MATH_BUILTINS:
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
            if self._row_index(base, e.index):
                return f"{base}[{idx}].copy()"
            if row is not None:
                return f"__vload2({base}, {row}, {idx}, {self._m()})"
            if self.mask is None:
                return f"{base}[{idx}]"
            return f"__vload({base}, {idx}, {self._m()})"
        if isinstance(e, ir.Cast):
            inner = self.expr(e.operand)
            if e.target.kind == "float" and isinstance(e.operand, ir.Index):
                # A load is a NumPy array or scalar, never a Python one.
                return f"{inner}.astype(__np.float64)"
            fn = {"int": "__vint", "float": "__vfloat", "bool": "__vbool"}[
                e.target.kind
            ]
            return f"{fn}({inner})"
        if isinstance(e, ir.Select):
            c = self.expr(e.cond)
            t = self._guarded(c, e.if_true)
            f = self._guarded(f"__vnot({c})", e.if_false)
            return f"__vsel({c}, {t}, {f})"
        if isinstance(e, ir.Call):
            return self._call(e)
        raise KirRuntimeError(f"vec codegen: unknown expr {type(e).__name__}")

    def _guarded(self, cond: str, e: ir.Expr) -> str:
        """Emit *e* evaluated only on the lanes of the current mask where
        *cond* holds, as the scalar engine evaluates a ``?:`` arm or the
        right operand of ``&&``/``||``.  Only an operand that can fault
        or charge ops is guarded, and it is skipped when no lane passes:
        a uniform index or divisor faults whatever the mask."""
        if not _unsafe_speculative(self.module, e):
            return self.expr(e)
        em = self.em
        g = self.fresh_mask()
        out = self.fresh("g")
        guard = f"__vand({self.mask or 'True'}, {cond})"
        em.emit(f"{g} = __vmask({guard}, {self._width()})")
        em.emit(f"if __vany({g}):")
        em.indent += 1
        self.masks.append(g)
        self._cse_push()
        em.emit(f"{out} = {self.expr(e)}")
        self._cse_pop()
        self.masks.pop()
        em.indent -= 1
        em.emit("else:")
        em.emit(f"    {out} = {_ZERO[_kind(e)]}")
        return out

    def _binop(self, e: ir.BinOp) -> str:
        lk = _kind(e.left)
        rk = _kind(e.right)
        left = self.expr(e.left)
        op = e.op
        if op == "&&":
            right = self._guarded(left, e.right)
        elif op == "||":
            right = self._guarded(f"__vnot({left})", e.right)
        else:
            right = self.expr(e.right)
        if op in ("/", "%"):
            # validate() admits only int and float operands here; only
            # int division can fault, so only it takes the mask.
            stem = "div" if op == "/" else "mod"
            if lk == ir.INT and rk == ir.INT:
                return f"__vi{stem}({left}, {right}, {self._m()})"
            return f"__vf{stem}({left}, {right})"
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
        if e.name in ir.MATH_BUILTINS:
            args = ", ".join(self.expr(a) for a in e.args)
            return f"__math_{e.name}({args})"
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

    def block(self, stmts: Sequence[ir.Stmt], tail: int = 0) -> None:
        """Mirror of ``_FnCompiler.block``'s per-run op batching; *tail*
        joins the last charge (a ``while`` check, or minus what an
        ``if`` already charged for a straight-line branch)."""
        pending = 0

        def flush() -> None:
            nonlocal pending
            if pending:
                self.add_ops(pending)
                pending = 0

        for st in stmts:
            if isinstance(st, _SIMPLE):
                pending += _stmt_cost(st)
                self.simple_stmt(st)
            elif isinstance(st, ir.Return):
                pending += _stmt_cost(st)
                flush()
                self.return_stmt(st)
            else:
                flush()
                self.control_stmt(st)
        pending += tail
        flush()

    def simple_stmt(self, st: ir.Stmt) -> None:
        em = self.em
        if isinstance(st, ir.Decl):
            if isinstance(st.type, ir.ArrayType):
                assert st.size is not None
                size = self.expr(st.size)
                dtype = _NP_DTYPE_OF[st.type.element.kind]
                name = self.var(st.name)
                # Slot-major: slot s of every lane is one row, and
                # column k belongs to lane (or group) k.
                local = st.type.space == ir.LOCAL
                em.emit(
                    f"{name} = __np.zeros(({size}, "
                    f"{'__ngroups' if local else '__n'}), dtype={dtype})"
                )
                self.rowed[name] = "__grow" if local else "__lin"
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
            if self._row_index(base, st.index):
                if self.mask is None:
                    em.emit(f"{base}[{idx}] = {val}")
                else:
                    # putmask casts "safe": convert as assignment would.
                    em.emit(
                        f"__np.putmask({base}[{idx}], {self.mask}, "
                        f"__np.asarray({val}, {base}.dtype))"
                    )
            elif row is not None:
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
            # Each lane of the enclosing mask takes one branch: without
            # control flow in either, charge the cheaper one's cost here.
            common = 0
            if all(isinstance(s, _SIMPLE) for s in (*st.then, *st.orelse)):
                common = min(
                    sum(_stmt_cost(s) for s in st.then),
                    sum(_stmt_cost(s) for s in st.orelse),
                )
            self.add_ops(_static_cost(st.cond) + 1 + common)
            raw = self.fresh_mask()
            em.emit(f"{raw} = __vmask({self.expr(st.cond)}, {self._width()})")
            then_mask = raw if self.mask is None else self.fresh_mask()
            if self.mask is not None:
                em.emit(f"{then_mask} = {raw} & {self.mask}")
            if st.then:
                em.emit(f"if __vany({then_mask}):")
                em.indent += 1
                self.masks.append(then_mask)
                self._cse_push()
                self.block(st.then, -common)
                self._cse_pop()
                self.masks.pop()
                em.indent -= 1
            if st.orelse:
                else_mask = self.fresh_mask()
                if self.mask is None:
                    em.emit(f"{else_mask} = ~{raw}")
                else:
                    em.emit(f"{else_mask} = ~{raw} & {self.mask}")
                em.emit(f"if __vany({else_mask}):")
                em.indent += 1
                self.masks.append(else_mask)
                self._cse_push()
                self.block(st.orelse, -common)
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
        # Entries from before the loop could be stale by iteration 2
        # (their deps may be assigned later in the body); entries made
        # inside are undefined after a zero-trip loop.  Clear at both
        # boundaries, keeping within-body reuse and the hoisted entries.
        self._cse_clear()
        self._hoist(st)
        em.emit(
            f"for {self.var(st.var)} in range({start}, {stop}, {step}):"
        )
        em.indent += 1
        self.add_ops(2)
        self.block(st.body)
        self._cse_clear()
        em.indent -= 1

    def _hoist(self, st: ir.For) -> None:
        """Evaluate a uniform loop body's invariant arithmetic (no load,
        division, shift or call) before the loop, for CSE to reuse."""
        body = list(ir.walk_stmts(st.body))
        written = {st.var} | {
            s.var if isinstance(s, ir.For) else s.name
            for s in body
            if isinstance(s, (ir.Decl, ir.Assign, ir.For))
        }
        ops = (ir.BinOp, ir.UnOp, ir.Cast)
        for e in (e for s in body for e in ir.walk_exprs(s)):
            if isinstance(e, ops) and all(
                isinstance(n, ir.Const)
                or (isinstance(n, ir.Var) and n.name not in written)
                or (
                    isinstance(n, ops)
                    and getattr(n, "op", "") not in ("/", "%", "<<", ">>")
                )
                for n in ir.walk_exprs(e)
            ):
                self.expr(e)

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

    def _enter_loop_body(self, body: Sequence[ir.Stmt], act: str, tail=0):
        """Push the loop body mask (a per-iteration copy when the body
        contains ``continue``, so continue can subtract lanes from the
        rest of the iteration without ending their loop) and emit the
        body, *tail* joining its last charge."""
        if _direct(body, ir.Continue):
            body_mask = self.fresh_mask()
            self.em.emit(f"{body_mask} = {act}")
        else:
            body_mask = act
        self.loops.append({"depth": len(self.masks), "act": act})
        self.masks.append(body_mask)
        self.block(body, tail)
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
        # The lanes that check in round r + 1 (failing or not) are those
        # live at the end of round r, so the check joins the body's last
        # charge, unless a continue ends their round under a mask copy.
        merged = not _direct(st.body, ir.Continue)
        if merged:
            self.add_ops(cost)
        em.emit("while True:")
        em.indent += 1
        # Region boundary for CSE: a temp assigned in round i must not
        # be reused in round i+1 (its deps move, and compaction may
        # change the lane width between rounds).
        self._cse_clear()
        if fr is not None:
            self._compact_check(fr, act)
            self.widths.append(fr["cw"])
        if not merged:
            self.add_ops(cost, act)
        self.masks.append(act)
        cond = self.expr(st.cond)
        self.masks.pop()
        em.emit(f"{act} = {act} & __vmask({cond}, {self._width()})")
        em.emit(f"if not __vany({act}): break")
        em.emit(f"{it} += 1")
        em.emit(f"if {it} > __CAP: raise __vcaperr()")
        self._enter_loop_body(st.body, act, cost if merged else 0)
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
        em.emit(f"while __vany({act}):")
        em.indent += 1
        self._cse_clear()
        if fr is not None:
            self._compact_check(fr, act)
            self.widths.append(fr["cw"])
        # The scalar range loop charges +2 per entered iteration; the
        # failing range check is free.
        self.add_ops(2, act)
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
        self.add_ops(cost)  # the rest join the body (_masked_while_stmt)
        em.emit("while True:")
        em.indent += 1
        # Same staleness/zero-trip reasoning as _uniform_for_stmt (the
        # condition always runs once, but reuse across the back edge
        # would read values from the previous iteration).
        self._cse_clear()
        em.emit(f"if not ({self.expr(st.cond)}): break")
        self.block(st.body, cost)
        em.indent -= 1
        self._cse_clear()


def _vint(x: Any):
    if _is_arr(x):
        if x.dtype.kind == "f":
            return semantics.vftoi(x)
        return x.astype(_np.int64)
    return semantics.ftoi(x) if isinstance(x, float) else int(x)


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
        # Per-item column of the (size, num_groups) local-memory
        # buffers: the group's flat index in the scalar engine's
        # group-major visit order.
        em.emit("__ngroups = __N0 * __N1 * __N2")
        em.emit(
            "__grow = (__g2 // __L2 * __N1 + __g1 // __L1) * __N0 "
            "+ __g0 // __L0"
        )
    em.emit("__ops = __np.zeros(__n, dtype=__np.int64)")
    em.emit("__opk = 0")
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
    em.emit("__ops += __opk")
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
) -> Any:
    """Reduce a per-item op vector (numpy array or list) to per-group
    warp maxima, an array of shape ``(groups, warps per group)``.

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
    return arranged.reshape(ngroups, nwarps, simd).max(axis=2)


class VecKernel:
    """Callable vectorised form of one kernel."""

    def __init__(
        self,
        fn: ir.Function,
        run_fn: Any,
        has_masked_loops: bool = False,
        cse_hits: int = 0,
    ) -> None:
        self.fn = fn
        self.name = fn.name
        self._run = run_fn
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
        vector in linear order, as
        :meth:`repro.kir.KernelRunner.run_range` does.  Array arguments
        must be numpy views of the buffers
        (:meth:`repro.opencl.memory.Buffer.np_view`)."""
        # Masked-off lanes may compute garbage that is discarded; only
        # the mask-aware helpers turn *active* faults into errors.
        with _np.errstate(all="ignore"):
            return self._run(tuple(args), _pad3(gsz), _pad3(lsz), len(gsz))

    def run_group_warps(
        self,
        args: Sequence[Any],
        gsz: Sequence[int],
        lsz: Sequence[int],
        simd: int,
    ) -> list[list[int]]:
        """:meth:`run_item_ops` folded into per-group lists of warp op
        maxima, the form the scalar runner returns."""
        ops = self.run_item_ops(args, gsz, lsz)
        return fold_group_warps(ops, gsz, lsz, simd).tolist()


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
            has_masked_loops=comp.has_masked_loops,
            cse_hits=comp.cse_hits,
        )
        return vk, None
    except Exception:
        return None, "codegen-error"

