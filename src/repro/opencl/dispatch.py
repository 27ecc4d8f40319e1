"""Execution-tier selection and multi-device splitting for NDRange
dispatches.

Pricing a kernel dispatch needs its per-group warp op maxima; how those
are obtained is purely a host wall-clock concern.  This module picks the
fastest correct tier for each dispatch:

* **vectorised** — the numpy batch executor
  (:mod:`repro.kir.npcodegen`), used for eligible range-mode kernels on
  NDRanges large enough to amortise array setup.  Array arguments are
  the buffers' own numpy arrays.
* **scalar warp-fold** — the generated ``__warps_`` runner, which
  iterates items inline with hoisted index arithmetic and folds op
  counts into warp maxima on the fly (no per-item list).  Array
  arguments are memoryviews of the same arrays, so a dispatch never
  converts buffer contents whichever tier runs it.

Group-mode kernels (barriers / local memory) are eligible for the
vectorised tier too (barrier-phase execution with local arrays as numpy
buffers); when ineligible they run the lock-step generator engine,
whose per-item op list is folded like the vectorised tier's.  All
tiers produce identical warp maxima (tests assert it, against
``DeviceSpec.kernel_ns`` as the pricing reference), so simulated
nanoseconds never depend on the tier chosen.

Every demotion from the vectorised tier is counted on the active tracer
as ``dispatch.fallback`` plus ``dispatch.fallback.<reason>`` (reasons:
``while-loop``, ``barrier``, ``user-call``, ``iter-cap``,
``small-ndrange``, ``fault``, … — see
:func:`repro.kir.npcodegen.eligibility`), so BENCH regressions are
diagnosable instead of silent.  Kernels with masked loops carry a
runtime iteration cap; hitting it restores the pre-dispatch buffer
contents and re-runs on a scalar tier (counted as ``iter-cap``).  An
array index past the end raises
:class:`~repro.errors.KirRuntimeError` naming the kernel on either
tier.

The vectorised tier's two loop optimisations are observable here too:

* ``dispatch.compact`` / ``dispatch.compact.rounds`` — how many times a
  masked loop compressed itself to its active lanes, and how many loop
  rounds then ran at compacted width (see *Active-lane compaction* in
  :mod:`repro.kir.npcodegen`).  Counted even when the dispatch later
  hits the iteration cap — the events happened.
* ``dispatch.cse.hits`` — codegen-time common-subexpression hits baked
  into the kernel that actually ran (e.g. mandelbrot's ``x*x + y*y``
  escape test shared between loop condition and body), counted per
  successful vectorised dispatch.

The module also houses the **multi-device split** machinery
(:func:`split_share_counts`, :func:`multi_device_kernel_ns`) used by
:meth:`repro.opencl.context.Context.enqueue_nd_range`: one NDRange is
executed once, on the same tiers as a single-device dispatch, then its
per-item op counts are sliced along the outermost dimension at
work-group boundaries, and each device's slice is folded into warp
maxima with *that device's* SIMD width and priced on its own spec.
A demoted split gets its op list from
:meth:`repro.kir.KernelRunner.run_range`.  Deterministic, and
bit-identical in buffer contents to single-device execution because
only one execution ever happens.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import current_config
from ..errors import CLInvalidValue, KirRuntimeError
from .. import kir
from ..kir import npcodegen as _npc
from ..trace import current_tracer
from . import faults as _faults
from .costmodel import DeviceSpec
from .memory import Buffer

#: Below this many work-items the scalar warp-fold runner beats the
#: numpy tier on wall-clock (array setup dominates tiny dispatches).
VEC_MIN_ITEMS = 256


def use_legacy() -> bool:
    """Always False: there is no forced legacy execution path.  Kept
    because the benchmark harness checks it by name."""
    return False


def configure() -> dict:
    """:func:`repro.current_config` as a dict (the benchmark reads it)."""
    return dict(vars(current_config()))


def _scalar_args(raw_args: Sequence) -> list:
    """Each buffer as a memoryview of its array, whose indexing reads
    and stores plain Python scalars (the scalar runners' arguments)."""
    return [
        memoryview(a.np_view()) if isinstance(a, Buffer) else a
        for a in raw_args
    ]


def _run_tier(runner: "kir.KernelRunner", run, *args):
    """Call a tier's executor *run*; an array index past the end raises
    :class:`KirRuntimeError` naming the kernel, whichever tier ran."""
    try:
        return run(*args)
    except IndexError as exc:
        msg = f"kernel {runner.name}: array index out of range ({exc})"
        raise KirRuntimeError(msg) from exc


def _count_fallback(reason: str) -> None:
    """Record one vectorised-tier demotion on the active tracer."""
    tracer = current_tracer()
    if tracer is not None and tracer.enabled:
        tracer.count("dispatch.fallback", 1)
        tracer.count(f"dispatch.fallback.{reason}", 1)


def _count_compaction(before: tuple) -> None:
    """Record lane-compaction activity since the *before* snapshot
    (:func:`repro.kir.npcodegen.thread_compact_stats`) on the tracer."""
    tracer = current_tracer()
    if tracer is None or not tracer.enabled:
        return
    events, rounds = _npc.thread_compact_stats()
    if events > before[0]:
        tracer.count("dispatch.compact", events - before[0])
    if rounds > before[1]:
        tracer.count("dispatch.compact.rounds", rounds - before[1])


def _count_cse_hits(hits: int) -> None:
    """Record the kernel's codegen-time CSE hits for this dispatch."""
    if hits <= 0:
        return
    tracer = current_tracer()
    if tracer is not None and tracer.enabled:
        tracer.count("dispatch.cse.hits", hits)


def _vec_item_ops(
    runner: "kir.KernelRunner",
    raw_args: Sequence,
    gsz: Sequence[int],
    lsz: Sequence[int],
):
    """Execute one NDRange on the vectorised tier.

    Returns the per-item op vector in linear order
    (:meth:`repro.kir.npcodegen.VecKernel.run_item_ops`), or ``None``
    after counting ``dispatch.fallback.<reason>`` when a scalar tier
    must run the dispatch instead.
    """
    if runner.vec is None:
        _count_fallback(runner.vec_reason or "ineligible")
        return None
    nitems = 1
    for s in gsz:
        nitems *= s
    if nitems < VEC_MIN_ITEMS:
        _count_fallback("small-ndrange")
        return None
    plan = current_config().faults
    if plan is not None:
        fault = plan.decide("vec", runner.name)
        if fault is not None:
            # Graceful degradation: the scalar tiers produce identical
            # outputs and identical priced nanoseconds, so a vec-tier
            # fault never surfaces to the caller — it just demotes.
            _faults.count_injection(fault)
            _faults.count_failover()
            _count_fallback("fault")
            return None
    np_args = [
        a.np_view() if isinstance(a, Buffer) else a for a in raw_args
    ]
    snaps: list[tuple[Buffer, object]] = []
    if runner.vec.has_masked_loops:
        # A masked loop may hit the iteration cap after partial stores;
        # snapshot written buffers so the scalar rerun starts clean.
        for i in runner.written_param_indices:
            arg = raw_args[i]
            if isinstance(arg, Buffer):
                snaps.append((arg, arg.np_view().copy()))
    compact_before = _npc.thread_compact_stats()
    try:
        try:
            run = runner.vec.run_item_ops
            ops = _run_tier(runner, run, np_args, gsz, lsz)
        finally:
            # Count compaction activity even when the kernel faults:
            # events that happened before an iteration-cap abort are
            # still real work.
            _count_compaction(compact_before)
    except _npc.VecIterationCap:
        for arg, snap in snaps:
            arg.np_view()[:] = snap
        _count_fallback("iter-cap")
        return None
    _count_cse_hits(runner.vec.cse_hits)
    return ops


def dispatch_kernel_ns(
    runner: "kir.KernelRunner",
    spec: DeviceSpec,
    raw_args: Sequence,
    gsz: Sequence[int],
    lsz: Sequence[int],
) -> float:
    """Execute one NDRange dispatch and return its simulated duration.

    *raw_args* carries :class:`Buffer` objects for array parameters (so
    this helper can hand each tier its view of the array) and plain
    scalars otherwise.
    """
    ops = _vec_item_ops(runner, raw_args, gsz, lsz)
    if ops is None:
        args = _scalar_args(raw_args)
        if not runner.group_mode:
            run = runner.run_group_warps
            warps = _run_tier(runner, run, args, gsz, lsz, spec.simd_width)
            return spec.kernel_ns_from_group_warps(warps)
        ops = _run_tier(runner, runner.run_range, args, gsz, lsz)
    warps = _npc.fold_group_warps(ops, gsz, lsz, spec.simd_width)
    return spec.kernel_ns_from_group_warps(warps)


# -- multi-device splitting -------------------------------------------------


def device_weight(spec: DeviceSpec) -> float:
    """Relative kernel throughput used to apportion work-groups."""
    return spec.lanes * spec.ops_per_ns


def split_share_counts(total: int, weights: Sequence[float]) -> list[int]:
    """Deterministically apportion *total* units over *weights*.

    Largest-remainder assignment: every device gets ``floor(total *
    w/sum)``, leftovers go to the largest fractional remainders (ties
    broken by position).  Shares always sum to *total*; a zero share
    simply leaves that device out of the dispatch.
    """
    if total < 0:
        raise CLInvalidValue("cannot split a negative work amount")
    wsum = float(sum(weights))
    if wsum <= 0:
        raise CLInvalidValue("device weights must be positive")
    shares = [int(total * w / wsum) for w in weights]
    remainders = [
        (total * w / wsum - share, -i)
        for i, (w, share) in enumerate(zip(weights, shares))
    ]
    for _, neg_i in sorted(remainders, reverse=True)[: total - sum(shares)]:
        shares[-neg_i] += 1
    return shares


def multi_device_kernel_ns(
    runner: "kir.KernelRunner",
    specs: Sequence[DeviceSpec],
    shares: Sequence[int],
    raw_args: Sequence,
    gsz: Sequence[int],
    lsz: Sequence[int],
) -> list[Optional[tuple[tuple[int, ...], int, float]]]:
    """Execute one NDRange once and price each device's slice.

    ``shares`` holds the per-spec work-group counts along the outermost
    dimension (see :func:`split_share_counts`).  Returns, aligned with
    *specs*, either ``None`` (zero share) or ``(sub_global_size,
    n_items, ns)`` where *ns* is that device's simulated kernel time
    for its slice — warp maxima folded with its own SIMD width,
    work-groups scheduled over its own compute units.  The NDRange runs
    on the vectorised tier when it can (see :func:`dispatch_kernel_ns`),
    otherwise through :meth:`repro.kir.KernelRunner.run_range`.
    """
    ops = _vec_item_ops(runner, raw_args, gsz, lsz)
    if ops is None:
        args = _scalar_args(raw_args)
        ops = _run_tier(runner, runner.run_range, args, gsz, lsz)
    row_items = 1
    for s in gsz[:-1]:
        row_items *= s
    slice_items = row_items * lsz[-1]  # items per outermost work-group row
    out: list[Optional[tuple[tuple[int, ...], int, float]]] = []
    group_base = 0
    for spec, share in zip(specs, shares):
        if share == 0:
            out.append(None)
            continue
        lo = group_base * slice_items
        hi = (group_base + share) * slice_items
        sub_gsz = tuple(gsz[:-1]) + (share * lsz[-1],)
        warps = _npc.fold_group_warps(
            ops[lo:hi], sub_gsz, lsz, spec.simd_width
        )
        ns = spec.kernel_ns_from_group_warps(warps)
        out.append((sub_gsz, hi - lo, ns))
        group_base += share
    return out
