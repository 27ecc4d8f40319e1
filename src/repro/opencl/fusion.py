"""Graph-level dispatch optimisation: producer->consumer kernel fusion.

Opt-in via ``with repro.configure(fusion=True)`` (default off — with
fusion disabled every priced figure is byte-identical to the
unoptimised substrate).  When enabled, each in-order queue holds the
most recent kernel dispatch *pending* instead of executing it
immediately; when the next kernel arrives on the same queue, this
module decides whether the pair may legally execute as one composed
kernel (leaving the block while a queue holds a pending kernel is safe:
the next command on that queue flushes it as an ordinary launch):

* **legality** — both kernels item-parallel (no barriers / ``__local``
  storage), the producer has no early ``return``, neither kernel binds
  one buffer under two parameters with a write (aliasing), the producer
  writes at least one buffer the consumer reads (there must be a fused
  dataflow edge to justify rewriting the launch), and the NDRanges are
  compatible: either identical rank-1 ranges whose shared written
  buffers are accessed purely at ``get_global_id(0)`` (*equal-range*
  fusion), or a single-work-item producer that never queries the launch
  geometry (*prologue* fusion — the producer body runs guarded to work
  item 0 of the consumer's range).  Any violation demotes the pair to
  two ordinary launches and is counted as
  ``dispatch.fuse.reject.<reason>``.
* **composition** — :func:`repro.kir.fuse.compose_module` builds a
  fresh validated module whose parameter list is the deduplicated union
  of both kernels' actual bindings (one fused parameter per distinct
  buffer / scalar value), so the fused launch binds each argument once.
* **pricing** — the fused module is content-addressed through
  :func:`repro.kcache.module_fingerprint`; the first build on a device
  spec charges a full ``compile_ns`` (``build_fused_program``) into the
  context's binary registry, every later launch of the same composition
  charges one ``api_call_ns`` (``load_fused_binary``).  The fused
  dispatch itself is priced exactly like any kernel — through
  :func:`repro.opencl.dispatch.dispatch_kernel_ns` on the composed
  body — so the saving is structural and honest: one
  ``kernel_launch_ns`` fewer per fused pair, visible in the ledger's
  ``kernel_launches`` and in ``SimClock.timeline``'s ``elapsed_ns``.

The second pass of the optimiser — redundant host->device transfer
elimination — lives in the queue layer
(:meth:`repro.opencl.queue.CommandQueue.enqueue_write_buffer`) gated on
the same setting and the ``Buffer._h2d_clean`` residency marker; this
module only owns its counters (``dispatch.xfer_elim`` /
``dispatch.xfer_elim.bytes``).  See docs/ARCHITECTURE.md
("Graph-level optimisation") for the full legality and determinism
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .. import kcache, kir
from ..kir import fuse as kfuse
from ..trace import current_tracer
from .memory import Buffer


# -- counters ---------------------------------------------------------------


def _count(name: str, delta: float = 1) -> None:
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count(name, delta)


def count_fused() -> None:
    """One fused pair dispatched (one launch eliminated)."""
    _count("dispatch.fuse")
    _count("dispatch.fuse.launches_saved")


def count_reject(reason: str) -> None:
    """A pending kernel flushed as an ordinary launch; *reason* is the
    legality rule that failed, or the flush trigger (``host-read``,
    ``sync``, ``device-lost``, ...)."""
    _count("dispatch.fuse.reject")
    _count(f"dispatch.fuse.reject.{reason}")


def count_xfer_elim(nbytes: int) -> None:
    """One host->device transfer elided (device copy already clean)."""
    _count("dispatch.xfer_elim")
    _count("dispatch.xfer_elim.bytes", nbytes)


# -- fusion decision --------------------------------------------------------


@dataclass
class FusedPlan:
    """A legal, compiled fusion of two pending dispatches."""

    name: str
    runner: "kir.KernelRunner"
    entries: list
    reads: list[int]
    writes: list[int]


class _Reject(Exception):
    """Internal control flow: carries the reject-reason string."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _total(sizes: Sequence[int]) -> int:
    total = 1
    for s in sizes:
        total *= s
    return total


def _buffer_params(fn: kir.Function, entries: Sequence) -> dict[int, list[str]]:
    """Buffer id -> parameter names it is bound under."""
    out: dict[int, list[str]] = {}
    for param, entry in zip(fn.params, entries):
        if isinstance(entry, Buffer):
            out.setdefault(entry.id, []).append(param.name)
    return out


def _has_write_alias(kernel, entries: Sequence) -> bool:
    """Whether one buffer is bound under two parameters of *kernel*
    with at least one of them written (fusing would reorder the
    aliased accesses, so such dispatches never fuse)."""
    by_buffer = _buffer_params(kernel.fn, entries)
    written = kernel.written_params
    for names in by_buffer.values():
        if len(names) > 1 and any(name in written for name in names):
            return True
    return False


def _dedupe_params(
    fn_a: kir.Function,
    entries_a: Sequence,
    fn_b: kir.Function,
    entries_b: Sequence,
) -> tuple[list[kir.Param], list, dict[str, str], dict[str, str]]:
    """The fused parameter list: one parameter per distinct binding.

    Buffers deduplicate by identity, scalars by (type, value) — both
    kernels' views of a shared buffer or equal scalar (e.g. the
    iteration index both LUD kernels take) collapse onto one fused
    parameter.  Returns (params, entries, rename_a, rename_b) where the
    rename maps send each source kernel's parameter names onto the
    fused names.  A buffer bound under *different* parameter types
    (address space drift) rejects: two fused parameters would alias.
    """
    params: list[kir.Param] = []
    entries: list = []
    used: set[str] = set()
    by_key: dict = {}

    def admit(param: kir.Param, entry) -> str:
        if isinstance(entry, Buffer):
            key = ("buf", id(entry))
        else:
            key = ("scalar", type(entry).__name__, entry)
        hit = by_key.get(key)
        if hit is not None:
            name, ptype = hit
            if ptype != param.type:
                raise _Reject("param-type")
            return name
        name, i = param.name, 2
        while name in used:
            name = f"{param.name}_{i}"
            i += 1
        used.add(name)
        by_key[key] = (name, param.type)
        params.append(kir.Param(name, param.type))
        entries.append(entry)
        return name

    rename_a = {p.name: admit(p, e) for p, e in zip(fn_a.params, entries_a)}
    rename_b = {p.name: admit(p, e) for p, e in zip(fn_b.params, entries_b)}
    return params, entries, rename_a, rename_b


def _check_legal(
    device,
    pend,
    kernel_b,
    entries_b,
    reads_b: Sequence[int],
    gsz_b: Sequence[int],
    lsz_b: Sequence[int],
) -> int:
    """Raise :class:`_Reject` unless the pair may fuse; returns the
    prologue guard rank (0 for equal-range fusion)."""
    kernel_a = pend.kernel
    fn_a, fn_b = kernel_a.fn, kernel_b.fn
    if kernel_a.runner(device).group_mode or kernel_b.runner(device).group_mode:
        raise _Reject("barrier")
    if kfuse.has_return(fn_a):
        raise _Reject("return")
    if _has_write_alias(kernel_a, pend.entries) or _has_write_alias(
        kernel_b, entries_b
    ):
        raise _Reject("aliasing")
    if not set(pend.writes) & set(reads_b):
        raise _Reject("no-intermediate")
    if (
        tuple(gsz_b) == tuple(pend.gsz)
        and tuple(lsz_b) == tuple(pend.lsz)
        and len(gsz_b) == 1
    ):
        # Equal ranges: work item i runs A's body then B's.  That equals
        # launch-after-launch order only if no item can observe another
        # item's half of the fusion through a shared written buffer.
        by_a = _buffer_params(fn_a, pend.entries)
        by_b = _buffer_params(fn_b, entries_b)
        involved = {
            bid
            for bid in set(by_a) & set(by_b)
            if any(n in kernel_a.written_params for n in by_a[bid])
            or any(n in kernel_b.written_params for n in by_b[bid])
        }
        names_a = {n for bid in involved for n in by_a[bid]}
        names_b = {n for bid in involved for n in by_b[bid]}
        if not kfuse.accesses_elementwise(fn_a, names_a):
            raise _Reject("gather")
        if not kfuse.accesses_elementwise(fn_b, names_b):
            raise _Reject("gather")
        return 0
    if _total(pend.gsz) == 1:
        # Single-item producer: its body runs as a guarded prologue of
        # the consumer's range.  Work item (0, ..., 0) executes first in
        # every tier, so the producer's effects precede every consumer
        # instance exactly as across two launches — unless the producer
        # reads the launch geometry, which the fused range would change.
        if kfuse.uses_geometry_builtins(fn_a):
            raise _Reject("geometry")
        return max(1, len(gsz_b))
    raise _Reject("shape")


def try_fuse(
    context,
    device,
    pend,
    kernel_b,
    entries_b: Sequence,
    gsz_b: Sequence[int],
    lsz_b: Sequence[int],
):
    """Decide whether the queue's *pend*-ing dispatch fuses with the
    incoming *kernel_b* dispatch.

    Returns a :class:`FusedPlan` (composed, compiled and priced) on
    success, or the reject-reason string that should flush the pending
    kernel as an ordinary launch.  Never raises for an illegal pair —
    illegal fusions demote, they do not fail the dispatch.
    """
    kernel_a = pend.kernel
    reads_b, writes_b = kernel_b.buffer_access(entries_b)
    try:
        guard_rank = _check_legal(
            device, pend, kernel_b, entries_b, reads_b, gsz_b, lsz_b
        )
        fn_a, fn_b = kernel_a.fn, kernel_b.fn
        params, entries, rename_a, rename_b = _dedupe_params(
            fn_a, pend.entries, fn_b, entries_b
        )
        module_a = kernel_a.program.compiled_for(device).module
        module_b = kernel_b.program.compiled_for(device).module
        name = f"fuse__{fn_a.name}__{fn_b.name}"
        module = kfuse.compose_module(
            name,
            fn_a,
            module_a,
            rename_a,
            fn_b,
            module_b,
            rename_b,
            params,
            guard_rank=guard_rank,
        )
    except _Reject as reject:
        return reject.reason
    except Exception:  # defensive: composition bugs demote, never crash
        return "compose-error"

    key = kcache.module_fingerprint(module, device.spec, "fused")
    compiled = context.program_binary(key)
    if compiled is None:
        kir.validate(module)
        context.charge(
            "host",
            device.spec.compile_ns,
            name="build_fused_program",
            args={"device": device.name, "kernel": name},
        )
        compiled = kcache.get_or_build_module(module, device.spec, "fused")
        context.store_program_binary(key, compiled)
    else:
        context.charge(
            "host",
            device.spec.api_call_ns,
            name="load_fused_binary",
            args={"device": device.name, "kernel": name},
        )
    reads = list(dict.fromkeys([*pend.reads, *reads_b]))
    writes = list(dict.fromkeys([*pend.writes, *writes_b]))
    return FusedPlan(
        name=name,
        runner=compiled.kernel_runner(name),
        entries=entries,
        reads=reads,
        writes=writes,
    )
