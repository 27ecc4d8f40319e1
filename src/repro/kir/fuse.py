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

import copy
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


def _renamed(
    stmts: Sequence[ir.Stmt],
    names: Mapping[str, str],
    calls: Mapping[str, str],
) -> list[ir.Stmt]:
    """A deep copy of *stmts* with identifiers renamed through *names*
    and helper calls through *calls*.

    The copy keeps the source's node sharing (the kernel-C parser gives
    ``a[s] += v`` one index node for the store and the load), so every
    node is renamed once: a second pass over a shared node would chain
    a map such as ``{"a": "b", "b": "b_2"}``.
    """
    out = copy.deepcopy(list(stmts))
    seen: set[int] = set()
    for st in ir.walk_stmts(out):
        for node in (st, *ir.walk_exprs(st)):
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, (ir.Decl, ir.Assign, ir.Var)):
                node.name = names.get(node.name, node.name)
            elif isinstance(node, ir.For):
                node.var = names.get(node.var, node.var)
            elif isinstance(node, ir.Call):
                node.name = calls.get(node.name, node.name)
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
                    _renamed(helper.body, {}, calls),
                    is_kernel=False,
                )
            )

    body_a = _renamed(
        fn_a.body, _rename_map(fn_a, param_map_a, "fa__"), calls_a
    )
    body_b = _renamed(
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
