"""Deterministic fault injection for the simulated OpenCL substrate.

The reproduction — like the paper — originally assumed every build,
transfer and dispatch succeeds.  This module supplies the failure path:
a **seeded, schedule-stable fault plan** that can make any chargeable
operation fail, paired with the bounded-retry / failover policies the
substrate recovers with (CAF's OpenCL actors lean on exactly this
supervision-style containment; see docs/RELIABILITY.md).

Operations a plan can fail (the ``op`` vocabulary):

===========  =======================================================
``build``    runtime program compilation (``clBuildProgram``)
``h2d``      host-to-device buffer writes
``d2h``      device-to-host buffer reads
``kernel``   NDRange kernel dispatch
``api``      host API calls charged via ``Context.charge_api_call``
             (names no device: ``device-lost`` raises, marks nothing)
``vec``      the vectorised execution tier (degrades to scalar tiers)
``native``   VM ``invokenative`` host calls (``fault.vm.native``)
``vm``       VM-driven kernel-actor dispatch (``fault.vm.dispatch``)
``handoff``  ensemble stage hand-offs — VM channel sends and
             :class:`~repro.actors.kernel_actor.KernelActor` result
             forwards (``fault.ensemble.handoff``)
===========  =======================================================

Fault kinds map to :mod:`repro.errors` subclasses: ``transient``
(recoverable by retry), ``permanent`` (every attempt fails) and
``device-lost`` (the device is marked lost; work fails over to
survivors).

**Determinism.**  A decision never consults wall clock, thread identity
or global arrival order.  Each chargeable operation carries a stable
*key* (``<kernel>@<device>`` for dispatches, ``buf<n>`` for transfers
where *n* is the buffer's creation ordinal within its context, the API
call name, the device name for builds); the plan keeps one occurrence
counter per ``(op, key)`` pair and decides occurrence *n* of a key by
hashing ``(seed, op, key, n)``.  Operations on one key are ordered by
program logic, so the decision sequence is identical run to run even
when unrelated actor threads interleave differently —
*schedule-stable*.  Explicit :class:`FaultSpec` entries select the same
``(op, key, n)`` coordinates directly.  One caveat: seeded *transfer*
faults are reproducible only when buffer creation order is itself
program-determined (true for host-driven workloads; actor pipelines
that race buffer creation should pin faults with explicit specs on the
name-based kernel/build/api keys instead).

**One gate.**  Every site that retries — queue transfers and
dispatches, multi-device split shares, API calls, builds, and the
VM/Ensemble sites — calls :func:`gate`, which owns the whole failure
contract: decide, charge the aborted attempt, mark a lost device,
retry a transient with backoff, then raise.  Only the ``vec`` tier
decides on its own, because it degrades instead of retrying.  The
failed attempts and the simulated backoff are charged to the cost
model (``fault.<op>`` / ``fault.backoff`` charge names on the
substrate; ``fault.vm.native`` / ``fault.vm.dispatch`` /
``fault.ensemble.handoff`` on the VM/Ensemble path — every fault
charge keeps the ``fault.`` span-name prefix, which is what the chaos
harness's recovery-cost oracle keys on), so priced totals of a faulted
run are reproducible bit-for-bit under a fixed seed.  With no plan
installed every gate is a single ``None`` check — golden figures are
byte-identical.

A plan carries its :class:`RetryPolicy` and is installed for a block
with :func:`repro.configure`::

    with repro.configure(faults=FaultPlan(
        [FaultSpec("h2d", kind="transient", times=2)],
        retry=RetryPolicy(max_attempts=3, backoff_ns=500.0),
    )):
        ...

Observability: every injection counts ``fault.injected`` and
``fault.injected.<kind>`` on the active tracer, every retry counts
``fault.retry``, and every recovery by re-dispatch or tier degradation
counts ``fault.failover``.
"""

from __future__ import annotations

import fnmatch
import hashlib
import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..config import current_config
from ..errors import (
    CLBuildProgramFailure,
    CLDeviceLost,
    CLError,
    CLInvalidValue,
    CLOutOfHostMemory,
    CLOutOfResources,
    CLTransferFailure,
)
from ..trace import current_tracer

#: Operations a fault plan may fail.
OPS = ("build", "h2d", "d2h", "kernel", "api", "vec",
       "native", "vm", "handoff")

#: Fault kinds, in increasing severity.
TRANSIENT = "transient"
PERMANENT = "permanent"
DEVICE_LOST = "device-lost"
KINDS = (TRANSIENT, PERMANENT, DEVICE_LOST)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *which* occurrences of *what* fail, and *how*.

    ``op`` is one of :data:`OPS`; ``key`` is an ``fnmatch`` pattern over
    operation keys (``None`` matches every key); the spec fires on
    occurrences ``index <= n < index + times`` of each matching
    ``(op, key)`` stream.  ``times > 1`` with ``kind="transient"``
    models a fault that persists across that many retry attempts.
    """

    op: str
    kind: str = TRANSIENT
    key: Optional[str] = None
    index: int = 0
    times: int = 1

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise CLInvalidValue(f"unknown fault op {self.op!r}")
        if self.kind not in KINDS:
            raise CLInvalidValue(f"unknown fault kind {self.kind!r}")
        if self.index < 0 or self.times < 1:
            raise CLInvalidValue("fault index must be >= 0 and times >= 1")

    def matches(self, op: str, key: str, occurrence: int) -> bool:
        """Whether this spec fires for occurrence *occurrence* of (op, key)."""
        if op != self.op:
            return False
        if self.key is not None and not fnmatch.fnmatchcase(key, self.key):
            return False
        return self.index <= occurrence < self.index + self.times


@dataclass(frozen=True)
class Fault:
    """One decided injection: the coordinates and kind of a failure."""

    op: str
    kind: str
    key: str
    occurrence: int

    @property
    def transient(self) -> bool:
        """Whether a bounded retry of the operation may succeed."""
        return self.kind == TRANSIENT


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-simulated-backoff for transient faults.

    ``max_attempts`` bounds the *total* tries of one operation (first
    attempt included).  Each retry charges ``backoff_ns * attempt`` of
    simulated host time before trying again, so faulted runs price their
    recovery deterministically.
    """

    max_attempts: int = 3
    backoff_ns: float = 1_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise CLInvalidValue("max_attempts must be >= 1")
        if self.backoff_ns < 0:
            raise CLInvalidValue("backoff_ns must be >= 0")


def _unit_interval(seed: int, op: str, key: str, occurrence: int) -> float:
    """Deterministic hash of one decision coordinate onto [0, 1)."""
    digest = hashlib.sha256(
        f"{seed}|{op}|{key}|{occurrence}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _pick_kind(
    seed: int, op: str, key: str, occurrence: int, kinds: Sequence[str]
) -> str:
    """Deterministically choose a kind for a seeded injection."""
    digest = hashlib.sha256(
        f"kind|{seed}|{op}|{key}|{occurrence}".encode()
    ).digest()
    return kinds[int.from_bytes(digest[8:16], "big") % len(kinds)]


class FaultPlan:
    """A deterministic schedule of failures for one measured run.

    Two (combinable) sources of faults:

    * **explicit** :class:`FaultSpec` entries — fire at exact
      ``(op, key, occurrence)`` coordinates;
    * **seeded random** — with ``rate > 0``, each occurrence of an op in
      ``ops`` fails with probability *rate*, decided by hashing
      ``(seed, op, key, occurrence)``; the kind is drawn (same hash
      family) from ``kinds``.

    The plan is stateful: it keeps one occurrence counter per
    ``(op, key)`` pair, advanced by every :meth:`decide` call (retries
    included).  :meth:`reset` rewinds the counters so the same plan
    object replays identically — two runs under one seed produce the
    same injections, hence bit-identical priced totals.  ``retry``
    bounds how :func:`gate` retries the transient faults it decides.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        seed: int = 0,
        rate: float = 0.0,
        kinds: Sequence[str] = (TRANSIENT,),
        ops: Sequence[str] = ("h2d", "d2h", "kernel", "api"),
        retry: RetryPolicy = RetryPolicy(),
    ) -> None:
        if not isinstance(retry, RetryPolicy):
            raise CLInvalidValue(f"retry must be a RetryPolicy: {retry!r}")
        if not 0.0 <= rate <= 1.0:
            raise CLInvalidValue(f"fault rate must be in [0, 1], got {rate!r}")
        for kind in kinds:
            if kind not in KINDS:
                raise CLInvalidValue(f"unknown fault kind {kind!r}")
        for op in ops:
            if op not in OPS:
                raise CLInvalidValue(f"unknown fault op {op!r}")
        self.specs = tuple(specs)
        self.seed = int(seed)
        self.rate = float(rate)
        self.kinds = tuple(kinds)
        self.ops = tuple(ops)
        self.retry = retry
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, str], int] = {}
        self._injected = 0

    @property
    def injected(self) -> int:
        """How many faults this plan has fired since the last reset."""
        with self._lock:
            return self._injected

    def reset(self) -> "FaultPlan":
        """Rewind the occurrence counters (replay the same schedule)."""
        with self._lock:
            self._counts.clear()
            self._injected = 0
        return self

    def decide(self, op: str, key: str) -> Optional[Fault]:
        """Advance the ``(op, key)`` stream one occurrence and decide it.

        Returns the :class:`Fault` to inject, or ``None`` when this
        occurrence succeeds.  Explicit specs win over the seeded draw
        (first matching spec decides the kind).
        """
        with self._lock:
            occurrence = self._counts.get((op, key), 0)
            self._counts[(op, key)] = occurrence + 1
            fault = self._decide_at(op, key, occurrence)
            if fault is not None:
                self._injected += 1
            return fault

    def _decide_at(self, op: str, key: str, occurrence: int) -> Optional[Fault]:
        for spec in self.specs:
            if spec.matches(op, key, occurrence):
                return Fault(op, spec.kind, key, occurrence)
        if (
            self.rate > 0.0
            and op in self.ops
            and _unit_interval(self.seed, op, key, occurrence) < self.rate
        ):
            kind = _pick_kind(self.seed, op, key, occurrence, self.kinds)
            return Fault(op, kind, key, occurrence)
        return None

    def __repr__(self) -> str:
        return (
            f"<FaultPlan specs={len(self.specs)} seed={self.seed} "
            f"rate={self.rate}>"
        )


# -- exception mapping / counters -------------------------------------------

_EXC_OF_OP = {
    "h2d": CLTransferFailure,
    "d2h": CLTransferFailure,
    "kernel": CLOutOfResources,
    "api": CLOutOfHostMemory,
    "vec": CLOutOfResources,
    "native": CLOutOfHostMemory,
    "vm": CLOutOfResources,
    "handoff": CLOutOfHostMemory,
}


def exception_for(fault: Fault, detail: str = "") -> CLError:
    """The :mod:`repro.errors` instance matching an injected *fault*.

    ``device-lost`` maps to :class:`CLDeviceLost` for every op; builds
    map to :class:`CLBuildProgramFailure` whose build log reads
    ``injected <kind> build fault on <device> (occurrence <n>)``;
    other ops map per :data:`_EXC_OF_OP`.  The instance carries the
    fault on ``.fault`` and its retryability on ``.transient``.
    """
    if fault.op == "build":
        message = (
            f"injected {fault.kind} build fault on {fault.key} "
            f"(occurrence {fault.occurrence})"
        )
    else:
        message = (
            f"injected {fault.kind} fault on {fault.op} "
            f"[{fault.key} #{fault.occurrence}]"
        )
    if detail:
        message = f"{message}: {detail}"
    if fault.kind == DEVICE_LOST:
        exc: CLError = CLDeviceLost(message)
    elif fault.op == "build":
        exc = CLBuildProgramFailure(message, build_log=message)
    else:
        exc = _EXC_OF_OP[fault.op](message)
    exc.fault = fault
    exc.transient = fault.transient
    return exc


def count_injection(fault: Fault) -> None:
    """Record one injection on the active tracer
    (``fault.injected`` + ``fault.injected.<kind>``)."""
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count("fault.injected")
        tracer.count(f"fault.injected.{fault.kind}")


def count_retry() -> None:
    """Record one bounded-retry attempt (``fault.retry``)."""
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count("fault.retry")


def count_failover() -> None:
    """Record one recovery by re-dispatch or tier degradation
    (``fault.failover``)."""
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count("fault.failover")


def gate(
    op: str,
    key: str,
    attempt_ns: float,
    charge,
    *,
    category: str = "host",
    track: Optional[str] = None,
    span_name: Optional[str] = None,
    device=None,
) -> None:
    """The fault gate every retrying injection site calls.

    Returns normally when occurrence *key* of *op* may proceed.  Each
    injected failure counts the injection and charges the aborted
    attempt, ``charge(category, attempt_ns, name=..., track=track,
    args={"key": key, "kind": kind})``, where *charge* has
    :meth:`repro.opencl.context.Context.charge`'s signature and the
    span name is *span_name* (default ``fault.<op>``).  A
    ``device-lost`` fault marks *device* lost (when given) and raises
    :class:`~repro.errors.CLDeviceLost`; a transient one retries up to
    the plan's :class:`RetryPolicy` bound, charging ``fault.backoff``
    as ``"host"`` time on *charge*'s default track before each retry;
    anything else raises per :func:`exception_for`.  With no plan
    installed the gate is a single ``None`` check.
    """
    plan = current_config().faults
    if plan is None:
        return
    policy = plan.retry
    name = span_name or f"fault.{op}"
    attempt = 1
    while True:
        fault = plan.decide(op, key)
        if fault is None:
            return
        count_injection(fault)
        if attempt_ns > 0.0:
            charge(
                category,
                attempt_ns,
                name=name,
                track=track,
                args={"key": key, "kind": fault.kind},
            )
        if fault.kind == DEVICE_LOST and device is not None:
            device.mark_lost()
            raise exception_for(fault, f"device {device.name!r}")
        if fault.transient and attempt < policy.max_attempts:
            if policy.backoff_ns > 0.0:
                charge(
                    "host", policy.backoff_ns * attempt, name="fault.backoff"
                )
            count_retry()
            attempt += 1
            continue
        raise exception_for(fault)
