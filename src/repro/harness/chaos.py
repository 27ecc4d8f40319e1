"""End-to-end chaos sweeps: figure regeneration under injected faults.

PR 7 made fault injection deterministic per gate; this module checks
recovery *end to end*: every Figure 3 chart and the Figure-4 pipeline
is regenerated under a matrix of fault plans (kind x injection site x
fusion on/off) and held to three invariants against its fault-free
twin:

(a) **bit-identical buffers** — the result payload of the faulted
    regeneration equals the fault-free one exactly (recovery is
    invisible in the data);
(b) **delta == priced recovery cost** — the faulted priced total minus
    the clean priced total equals *exactly* the sum of the run's
    ``fault.*`` charges (aborted attempts plus backoff), checked with
    :class:`fractions.Fraction` arithmetic over the raw trace spans so
    no float-tolerance band can hide a mispriced retry;
(c) **seed-stable replay** — resetting the plan and rerunning
    reproduces the faulted ledger bit-for-bit.

Invariant (b) holds when recovery happens *in place*: transient faults
(retry on the same device) and ``vec``-tier degradation (priced
identically by the tier-agreement invariant, so its delta is zero).
Device-loss failover re-prices the re-issued work on the surviving
device's spec, so the default matrix pairs the ``permanent`` and
``device-lost`` kinds with the ``vec`` site only; cross-device
failover is exercised by the chaos test suites, which assert (a) and
(c) but not the exact delta.

Each cell runs in a ``repro.configure`` block.  With no plan installed
every gate is a single ``None`` check, so the golden figures stay
byte-identical — the golden-figure suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ..config import configure
from ..opencl.context import current_clock
from ..opencl.faults import (
    DEVICE_LOST,
    PERMANENT,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
)
from ..trace import Tracer, tracing
from .figures import build_figure, figure_spec, scaled_devices

#: Figure targets a chaos cell may regenerate.
FIGURE_TARGETS = ("3a", "3b", "3c", "3d", "3e")

#: All chaos targets: the Figure 3 series plus the Figure-4 pipeline
#: (actor form and flat-API form, run back to back).
TARGETS = FIGURE_TARGETS + ("fig4",)

#: CI-sized parameter overrides per figure (the chaos invariants are
#: size-independent, so the test suites sweep at these).
SMOKE_PARAMS = {
    "3a": {"n": 16},
    "3b": {"w": 12, "h": 12, "max_iter": 24},
    "3c": {"n": 16},
    "3d": {"n": 512},
    "3e": {"ndocs": 24, "v": 12, "repeats": 3},
}

#: Figure-4 matrix sizes per sweep mode.
FIG4_N = {"full": 32, "smoke": 8}

#: The Figure-4 device scaling (matches
#: :func:`repro.harness.regenerate.regenerate_figure4`).
_FIG4_COMPUTE_SCALE = 0.08


@dataclass(frozen=True)
class ChaosPlan:
    """One cell of the chaos matrix: a fault plan aimed at one target.

    ``specs`` are the :class:`~repro.opencl.faults.FaultSpec` entries;
    :meth:`make_plan` builds a fresh plan so cells never share
    occurrence counters.
    """

    name: str
    target: str
    fusion: bool
    specs: tuple

    def make_plan(self) -> FaultPlan:
        """A fresh :class:`FaultPlan` for this cell."""
        return FaultPlan(self.specs)


@dataclass
class ChaosRun:
    """One measured regeneration (fault-free, faulted, or replay).

    ``priced`` and ``fault_charges`` are exact Fraction sums over the
    run's cost spans (``fault_charges`` keys on the ``fault.`` span-name
    prefix); ``signature`` is the replay-comparable fingerprint.
    """

    result: object
    priced: Fraction
    fault_charges: Fraction
    injected: int
    signature: tuple


@dataclass
class ChaosCell:
    """Outcome of one verified matrix cell."""

    plan: ChaosPlan
    injected: int
    recovery_ns: float
    delta_ns: float


@dataclass
class ChaosReport:
    """The verified sweep: one :class:`ChaosCell` per matrix cell."""

    cells: list

    @property
    def injected(self) -> int:
        """Total faults injected across the sweep."""
        return sum(cell.injected for cell in self.cells)


#: Transient injection sites and the target exercising each: the five
#: substrate ops plus the three VM/Ensemble ops of this PR.  ``native``,
#: ``vm`` and VM ``handoff`` fire inside the figures' Ensemble
#: variants; the runtime (KernelActor) ``handoff`` fires in the
#: Figure-4 actor pipeline.
_SITE_TARGETS = (
    ("h2d", "3a"),
    ("d2h", "3b"),
    ("kernel", "3c"),
    ("api", "3d"),
    ("build", "3e"),
    ("native", "3a"),
    ("vm", "3c"),
    ("handoff", "3c"),
    ("handoff", "fig4"),
)


def default_matrix() -> tuple:
    """The default chaos matrix (24 cells).

    Transient faults at every injection site and all three kinds at the
    ``vec`` site (whose degradation prices identically), each swept
    with fusion off and on.  Permanent/device-lost faults at the other
    sites abort or re-price the run, so they live in the chaos test
    suites rather than the exact-delta sweep (module docstring).
    """
    cells = []
    for fusion in (False, True):
        tag = "fused" if fusion else "plain"
        for op, target in _SITE_TARGETS:
            cells.append(
                ChaosPlan(
                    f"{op}-transient-{target}-{tag}",
                    target,
                    fusion,
                    (FaultSpec(op, kind=TRANSIENT),),
                )
            )
        for kind, target in (
            (TRANSIENT, "3a"),
            (PERMANENT, "3d"),
            (DEVICE_LOST, "3c"),
        ):
            cells.append(
                ChaosPlan(
                    f"vec-{kind}-{target}-{tag}",
                    target,
                    fusion,
                    (FaultSpec("vec", kind=kind),),
                )
            )
    return tuple(cells)


def priced_totals(tracers: Iterable[Tracer]) -> tuple:
    """Exact ``(priced_total, fault_part)`` over *tracers*' cost spans.

    Both are Fractions; ``fault_part`` sums the spans whose name starts
    with ``fault.`` — aborted attempts (``fault.h2d``, ``fault.build``,
    ``fault.<api-call>``, ``fault.vm.*``, ``fault.ensemble.*``, ...)
    plus retry backoff (``fault.backoff``).
    """
    total = Fraction(0)
    fault_part = Fraction(0)
    for tracer in tracers:
        for span in tracer.spans:
            if not span.cost:
                continue
            dur = Fraction(span.dur_ns)
            total += dur
            if span.name.startswith("fault."):
                fault_part += dur
    return total, fault_part


def run_target(
    target: str,
    plan: Optional[FaultPlan] = None,
    fusion: bool = False,
    sizes: str = "full",
    fig4_n: Optional[int] = None,
) -> ChaosRun:
    """Regenerate one chaos target under an optional fault plan.

    Runs under ``repro.configure(faults=plan, fusion=fusion)`` with
    *plan* reset first; the caller's configuration is back afterwards.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown chaos target {target!r}")
    if plan is not None:
        plan.reset()
    with configure(faults=plan, fusion=fusion):
        if target == "fig4":
            run = _run_fig4(fig4_n if fig4_n is not None else FIG4_N[sizes])
        else:
            run = _run_figure(target, sizes)
    run.injected = plan.injected if plan is not None else 0
    return run


def _run_figure(target: str, sizes: str) -> ChaosRun:
    spec = figure_spec(target)
    if sizes == "smoke":
        spec = replace(spec, params=dict(SMOKE_PARAMS[target]))
    sink: dict = {}
    fig = build_figure(spec, tracer_sink=sink)
    priced, fault_part = priced_totals(sink.values())
    bars = tuple((bar.label, bar.raw_total_ns) for bar in fig.bars)
    return ChaosRun(
        fig.result,
        priced,
        fault_part,
        0,
        (repr(fig.result), bars, priced, fault_part),
    )


def _run_fig4(n: int) -> ChaosRun:
    from ..apps.lud import runners as lud

    with scaled_devices(_FIG4_COMPUTE_SCALE, 2048 / n):
        tracer = Tracer()
        current_clock().timeline.reset()
        with tracing(tracer):
            actors = lud.run_actors(n, "GPU", movable=True)
            api = lud.run_api(n, "GPU")
    priced, fault_part = priced_totals((tracer,))
    result = (
        actors.result,
        tuple(actors.meta["m"]),
        api.result,
        tuple(api.meta["m"]),
    )
    return ChaosRun(
        result, priced, fault_part, 0, (result, priced, fault_part)
    )


def chaos_sweep(
    matrix: Optional[Sequence[ChaosPlan]] = None,
    sizes: str = "full",
    replay: bool = True,
    fig4_n: Optional[int] = None,
) -> ChaosReport:
    """Run the chaos matrix, enforcing the three invariants per cell.

    Each cell's target is regenerated fault-free once per
    ``(target, fusion)`` pair (cached), then under the cell's plan, and
    — with *replay* on — a third time after ``plan.reset()``.  Raises
    :class:`AssertionError` naming the offending cell on any violation;
    returns the verified :class:`ChaosReport` otherwise.
    """
    if matrix is None:
        matrix = default_matrix()
    clean: dict = {}
    cells = []
    for cell in matrix:
        ckey = (cell.target, cell.fusion)
        if ckey not in clean:
            base = run_target(
                cell.target, fusion=cell.fusion, sizes=sizes, fig4_n=fig4_n
            )
            if base.fault_charges != 0:
                raise AssertionError(
                    f"{cell.target}: fault-free run charged "
                    f"{float(base.fault_charges)} ns of fault.* spans"
                )
            clean[ckey] = base
        base = clean[ckey]
        plan = cell.make_plan()
        faulted = run_target(
            cell.target,
            plan=plan,
            fusion=cell.fusion,
            sizes=sizes,
            fig4_n=fig4_n,
        )
        if faulted.result != base.result:
            raise AssertionError(
                f"{cell.name}: faulted result diverged from the "
                f"fault-free run"
            )
        delta = faulted.priced - base.priced
        if delta != faulted.fault_charges:
            raise AssertionError(
                f"{cell.name}: priced delta {float(delta)} ns != summed "
                f"fault.* charges {float(faulted.fault_charges)} ns"
            )
        if replay:
            again = run_target(
                cell.target,
                plan=plan,
                fusion=cell.fusion,
                sizes=sizes,
                fig4_n=fig4_n,
            )
            if (
                again.signature != faulted.signature
                or again.injected != faulted.injected
            ):
                raise AssertionError(
                    f"{cell.name}: faulted ledger did not replay "
                    f"bit-for-bit under the same seed"
                )
        cells.append(
            ChaosCell(
                cell,
                faulted.injected,
                float(faulted.fault_charges),
                float(delta),
            )
        )
    return ChaosReport(cells)
