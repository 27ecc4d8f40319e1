"""Kernel body composition for producer->consumer fusion.

The graph-level dispatch optimiser (:mod:`repro.opencl.fusion`) decides
*whether* two adjacent dispatches may merge; this module does the pure
IR surgery of merging them.  Given kernels A and B (each with a rename
map from its own parameter names onto the fused parameter list), it
builds a fresh validated :class:`~repro.kir.ir.Module` holding one
fused kernel whose body is A's statements followed by B's:

* **equal-range fusion** — both bodies are emitted back to back; the
  caller has already proven every shared buffer is accessed purely at
  ``get_global_id(0)``, so per-item interleaving, warp folding and the
  whole-array vectorised tier all observe A-before-B per element.
* **prologue fusion** — A was a single-work-item kernel; its body is
  wrapped in an ``if (get_global_id(0) == 0 && ...)`` guard over B's
  NDRange rank.  Work item (0, ..., 0) runs first in every execution
  tier (item order in the scalar engines, statement phases in the
  vectorised tier), so A's effects are visible to every instance of B
  exactly as they were across the original two launches.

Local variables and loop induction variables of both bodies are renamed
apart (``fa__`` / ``fb__`` prefixes) so the merged scope cannot clash,
and user helper functions referenced by either body are copied into the
fused module under the same prefixes.  Everything returned is freshly
constructed — the source kernels are never mutated — and the result is
deterministic, which keeps :func:`repro.kcache.module_fingerprint`
stable across runs (the fused binary cache hits).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from . import ir

#: Work-item builtins whose value depends on the launch geometry.  A
#: prologue-fused producer would observe B's NDRange instead of its own
#: single-item range through these, so their presence vetoes fusion
#: (checked by the optimiser via :func:`uses_geometry_builtins`).
GEOMETRY_BUILTINS = (
    "get_global_size",
    "get_local_size",
    "get_num_groups",
    "get_work_dim",
)


# ---------------------------------------------------------------------------
# Analysis helpers (used by the fusion legality checks)
# ---------------------------------------------------------------------------


def has_return(fn: ir.Function) -> bool:
    """Whether *fn*'s body contains a ``return`` anywhere.

    A ``return`` inside a fused producer would skip the consumer's
    statements for that work item, which the original two launches never
    did — so such producers are never fused.
    """
    return any(isinstance(st, ir.Return) for st in ir.walk_stmts(fn.body))


def uses_geometry_builtins(fn: ir.Function) -> bool:
    """Whether *fn* queries the launch geometry (sizes, group counts)."""
    for st in ir.walk_stmts(fn.body):
        for e in ir.walk_exprs(st):
            if isinstance(e, ir.Call) and e.name in GEOMETRY_BUILTINS:
                return True
    return False


def _is_gid0(e: ir.Expr, aliases: set[str]) -> bool:
    if isinstance(e, ir.Var):
        return e.name in aliases
    return (
        isinstance(e, ir.Call)
        and e.name == "get_global_id"
        and len(e.args) == 1
        and isinstance(e.args[0], ir.Const)
        and e.args[0].value == 0
    )


def gid_aliases(fn: ir.Function) -> set[str]:
    """Names bound exactly once, at the top level, to ``get_global_id(0)``.

    The idiomatic kernel prelude ``int i = get_global_id(0);`` makes
    ``i`` a faithful alias of the work-item id; any further assignment
    anywhere in the body disqualifies the name.
    """
    candidates: set[str] = set()
    for st in fn.body:
        if isinstance(st, ir.Decl) and st.init is not None:
            if _is_gid0(st.init, set()):
                candidates.add(st.name)
    # A later write (top-level or nested) invalidates the alias.
    seen_first: set[str] = set()
    for st in ir.walk_stmts(fn.body):
        if isinstance(st, ir.Decl) and st.name in candidates:
            if st.name in seen_first:
                candidates.discard(st.name)
            seen_first.add(st.name)
        elif isinstance(st, ir.Assign) and st.name in candidates:
            candidates.discard(st.name)
        elif isinstance(st, ir.For) and st.var in candidates:
            candidates.discard(st.var)
    return candidates


def accesses_elementwise(fn: ir.Function, param_names: set[str]) -> bool:
    """Whether every load/store of the named array params indexes purely
    at ``get_global_id(0)`` (directly or through a once-assigned alias).

    This is the structural condition under which per-item interleaved
    execution of a fused pair equals the original launch-after-launch
    order: work item *i* only ever touches element *i* of the shared
    buffers, so no item observes another item's half of the fusion.
    """
    if not param_names:
        return True
    aliases = gid_aliases(fn)
    for st in ir.walk_stmts(fn.body):
        if isinstance(st, ir.Store) and isinstance(st.base, ir.Var):
            if st.base.name in param_names:
                if not _is_gid0(st.index, aliases):
                    return False
        for e in ir.walk_exprs(st):
            if isinstance(e, ir.Index) and isinstance(e.base, ir.Var):
                if e.base.name in param_names:
                    if not _is_gid0(e.index, aliases):
                        return False
    return True


def user_callees(module: ir.Module, fn: ir.Function) -> list[str]:
    """Names of user helper functions *fn* reaches (transitively),
    in deterministic first-use order."""
    out: list[str] = []
    pending = [fn]
    seen: set[str] = set()
    while pending:
        current = pending.pop(0)
        for st in ir.walk_stmts(current.body):
            for e in ir.walk_exprs(st):
                if isinstance(e, ir.Call) and e.name in module.functions:
                    if e.name not in seen:
                        seen.add(e.name)
                        out.append(e.name)
                        pending.append(module.functions[e.name])
    return out


# ---------------------------------------------------------------------------
# Renaming deep copy
# ---------------------------------------------------------------------------


def _clone_expr(
    e: ir.Expr, names: Mapping[str, str], calls: Mapping[str, str]
) -> ir.Expr:
    if isinstance(e, ir.Const):
        out: ir.Expr = ir.Const(e.value)
    elif isinstance(e, ir.Var):
        out = ir.Var(names.get(e.name, e.name))
    elif isinstance(e, ir.BinOp):
        out = ir.BinOp(
            e.op, _clone_expr(e.left, names, calls),
            _clone_expr(e.right, names, calls),
        )
    elif isinstance(e, ir.UnOp):
        out = ir.UnOp(e.op, _clone_expr(e.operand, names, calls))
    elif isinstance(e, ir.Index):
        out = ir.Index(
            _clone_expr(e.base, names, calls),
            _clone_expr(e.index, names, calls),
        )
    elif isinstance(e, ir.Call):
        out = ir.Call(
            calls.get(e.name, e.name),
            [_clone_expr(a, names, calls) for a in e.args],
        )
    elif isinstance(e, ir.Cast):
        out = ir.Cast(e.target, _clone_expr(e.operand, names, calls))
    elif isinstance(e, ir.Select):
        out = ir.Select(
            _clone_expr(e.cond, names, calls),
            _clone_expr(e.if_true, names, calls),
            _clone_expr(e.if_false, names, calls),
        )
    else:  # pragma: no cover - new node kinds must be handled explicitly
        raise TypeError(f"cannot clone expression {type(e).__name__}")
    out.type = e.type
    return out


def _clone_stmts(
    stmts: Sequence[ir.Stmt],
    names: Mapping[str, str],
    calls: Mapping[str, str],
) -> list[ir.Stmt]:
    out: list[ir.Stmt] = []
    for st in stmts:
        if isinstance(st, ir.Decl):
            out.append(
                ir.Decl(
                    names.get(st.name, st.name),
                    st.type,
                    None if st.init is None
                    else _clone_expr(st.init, names, calls),
                    None if st.size is None
                    else _clone_expr(st.size, names, calls),
                )
            )
        elif isinstance(st, ir.Assign):
            out.append(
                ir.Assign(
                    names.get(st.name, st.name),
                    _clone_expr(st.value, names, calls),
                )
            )
        elif isinstance(st, ir.Store):
            out.append(
                ir.Store(
                    _clone_expr(st.base, names, calls),
                    _clone_expr(st.index, names, calls),
                    _clone_expr(st.value, names, calls),
                )
            )
        elif isinstance(st, ir.If):
            out.append(
                ir.If(
                    _clone_expr(st.cond, names, calls),
                    _clone_stmts(st.then, names, calls),
                    _clone_stmts(st.orelse, names, calls),
                )
            )
        elif isinstance(st, ir.For):
            out.append(
                ir.For(
                    names.get(st.var, st.var),
                    _clone_expr(st.start, names, calls),
                    _clone_expr(st.stop, names, calls),
                    _clone_expr(st.step, names, calls),
                    _clone_stmts(st.body, names, calls),
                )
            )
        elif isinstance(st, ir.While):
            out.append(
                ir.While(
                    _clone_expr(st.cond, names, calls),
                    _clone_stmts(st.body, names, calls),
                )
            )
        elif isinstance(st, ir.Break):
            out.append(ir.Break())
        elif isinstance(st, ir.Continue):
            out.append(ir.Continue())
        elif isinstance(st, ir.Return):
            out.append(
                ir.Return(
                    None if st.value is None
                    else _clone_expr(st.value, names, calls)
                )
            )
        elif isinstance(st, ir.ExprStmt):
            out.append(ir.ExprStmt(_clone_expr(st.expr, names, calls)))
        elif isinstance(st, ir.Barrier):
            out.append(ir.Barrier())
        else:  # pragma: no cover - new node kinds must be handled explicitly
            raise TypeError(f"cannot clone statement {type(st).__name__}")
    return out


def _local_names(fn: ir.Function) -> set[str]:
    """Every name the body declares (locals and loop induction vars)."""
    names: set[str] = set()
    for st in ir.walk_stmts(fn.body):
        if isinstance(st, ir.Decl):
            names.add(st.name)
        elif isinstance(st, ir.For):
            names.add(st.var)
    return names


def _rename_map(
    fn: ir.Function, param_map: Mapping[str, str], prefix: str
) -> dict[str, str]:
    """Full identifier rename for one fused side: parameters onto the
    fused parameter list, locals behind a side-unique prefix."""
    names = dict(param_map)
    for local in _local_names(fn):
        names[local] = f"{prefix}{local}"
    return names


def _gid_guard(rank: int) -> ir.Expr:
    """``get_global_id(0) == 0 && ... && get_global_id(rank-1) == 0``."""
    cond: Optional[ir.Expr] = None
    for dim in range(max(1, rank)):
        call = ir.Call("get_global_id", [ir.Const(dim)])
        call.type = ir.INT_T
        eq = ir.BinOp("==", call, ir.Const(0))
        eq.type = ir.BOOL_T
        if cond is None:
            cond = eq
        else:
            both = ir.BinOp("&&", cond, eq)
            both.type = ir.BOOL_T
            cond = both
    assert cond is not None
    return cond


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def compose_module(
    name: str,
    fn_a: ir.Function,
    module_a: ir.Module,
    param_map_a: Mapping[str, str],
    fn_b: ir.Function,
    module_b: ir.Module,
    param_map_b: Mapping[str, str],
    fused_params: Sequence[ir.Param],
    guard_rank: int = 0,
) -> ir.Module:
    """Build a module holding the fused kernel *name* = A then B.

    ``param_map_a`` / ``param_map_b`` rename each source kernel's
    parameters onto ``fused_params`` (the deduplicated union the
    optimiser derived from the actual buffer/scalar bindings).  With
    ``guard_rank > 0``, A's body becomes a prologue guarded to the
    all-zero work item of a *guard_rank*-dimensional NDRange (prologue
    fusion); with 0 the bodies are concatenated (equal-range fusion).
    Helper functions either body calls are copied in under ``fa__`` /
    ``fb__`` prefixes.  The caller validates and compiles the result.
    """
    module = ir.Module()

    calls_a: dict[str, str] = {}
    calls_b: dict[str, str] = {}
    for source_module, fn, calls, prefix in (
        (module_a, fn_a, calls_a, "fa__"),
        (module_b, fn_b, calls_b, "fb__"),
    ):
        for helper_name in user_callees(source_module, fn):
            calls[helper_name] = f"{prefix}{helper_name}"
        for helper_name, fused_name in calls.items():
            helper = source_module.functions[helper_name]
            module.add(
                ir.Function(
                    fused_name,
                    [ir.Param(p.name, p.type) for p in helper.params],
                    helper.ret_type,
                    _clone_stmts(helper.body, {}, calls),
                    is_kernel=False,
                )
            )

    body_a = _clone_stmts(
        fn_a.body, _rename_map(fn_a, param_map_a, "fa__"), calls_a
    )
    body_b = _clone_stmts(
        fn_b.body, _rename_map(fn_b, param_map_b, "fb__"), calls_b
    )
    if guard_rank > 0:
        body: list[ir.Stmt] = [ir.If(_gid_guard(guard_rank), body_a)]
    else:
        body = body_a
    body = body + body_b

    module.add(
        ir.Function(
            name,
            [ir.Param(p.name, p.type) for p in fused_params],
            ir.VOID,
            body,
            is_kernel=True,
        )
    )
    return module
