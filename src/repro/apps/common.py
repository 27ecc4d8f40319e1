"""Shared infrastructure for the five evaluation applications.

Every application (Section 7.1) ships in five runnable variants:

=================  ==========================================================
``run_python``     plain single-threaded Python — the correctness oracle and
                   the API approach's single-threaded counterpart for Table 1
``run_single_c``   single-threaded kernel-C, interpreted at host speed —
                   the pragma approach's baseline for Table 1
``run_api``        C-OpenCL style: verbose flat ``cl*`` host code + kernel
                   source strings
``run_actors``     Ensemble-OpenCL via the Pythonic actor API (kernel actors,
                   channels, movability)
``run_ensemble``   Ensemble-OpenCL from actual Ensemble source through the
                   compiler and VM
``run_openacc``    pragma-annotated kernel-C through the OpenACC baseline
=================  ==========================================================

All runners return a :class:`RunOutcome` with the Figure-3 breakdown
segments computed from the cost ledgers.  Both Ensemble variants
(``run_ensemble`` and Table 1's ``run_ensemble_single``) are one call to
:func:`run_ensemble_program`, which runs the source through
:func:`repro.ensemble.run_source` and reads the value the program
prints; the single-threaded C variants report :func:`host_only`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .. import kcache
from ..opencl import CostLedger
from ..opencl.context import current_clock
from ..openacc.runtime import HOST_OPS_PER_NS
from ..runtime.oclenv import device_matrix

@dataclass
class RunOutcome:
    """Result + cost breakdown of one application run."""

    result: Any
    breakdown: dict[str, float]
    meta: dict = field(default_factory=dict)

    @property
    def total_ns(self) -> float:
        return sum(self.breakdown.values())

    def segment(self, name: str) -> float:
        return self.breakdown.get(name, 0.0)


def merge_ledgers(*ledgers: Optional[CostLedger]) -> dict[str, float]:
    """Sum Figure-3 segments across ledgers (an app may span contexts)."""
    out = {"to_device": 0.0, "from_device": 0.0, "kernel": 0.0, "overhead": 0.0}
    for ledger in ledgers:
        if ledger is None:
            continue
        for key, value in ledger.breakdown().items():
            out[key] += value
    return out


def reset_runtime_ledgers() -> None:
    """Fresh ledgers on every runtime OpenCL environment.

    Also restarts the clock's composed end-to-end timeline directly:
    after a platform swap the device matrix holds no environments yet,
    so no context reset would reach the timeline, and the upcoming
    run's ``elapsed_ns`` would accumulate on top of the previous one.
    """
    current_clock().timeline.reset()
    device_matrix().reset_ledgers()


def collect_runtime_ledger() -> CostLedger:
    return device_matrix().combined_ledger()


def host_only(host_ns: float) -> dict[str, float]:
    """The Figure-3 breakdown of a run that never touches a device."""
    return {"to_device": 0.0, "from_device": 0.0, "kernel": 0.0,
            "overhead": host_ns}


def rounded(text: str) -> float:
    """Parse a printed real at :func:`checksum`'s precision."""
    return round(float(text), 6)


def run_ensemble_program(
    source: str, label: str, parse: Callable[[str], Any] = float
) -> RunOutcome:
    """Run Ensemble *source* and read the value it prints after *label*.

    The runtime ledgers are reset first and the breakdown sums them with
    the VM's own ledger, so a program that never touches a device
    reports only the VM's host time.
    """
    from .. import ensemble  # only the Ensemble variants load the compiler

    reset_runtime_ledgers()
    run = ensemble.run_source(source, timeout=600.0)
    output = run.output
    for i, line in enumerate(output):
        if line.startswith(label):
            value = parse(output[i + 1])
            break
    else:
        raise AssertionError(f"no {label} in program output: {output!r}")
    return RunOutcome(
        value, merge_ledgers(collect_runtime_ledger(), run.vm.ledger)
    )


def run_host_c(source: str, function: str, args: list) -> tuple[Any, float]:
    """Run single-threaded kernel-C at sequential host speed.

    Returns ``(value, simulated_ns)``.  Array arguments are mutated in
    place, exactly like C pointers.
    """
    compiled = kcache.get_or_build(source, None, options="host")
    value, ops = compiled.call(function, args)
    return value, ops / HOST_OPS_PER_NS


def checksum(values) -> float:
    """Order-sensitive digest used to compare variant outputs."""
    total = 0.0
    for i, v in enumerate(values):
        total += (i % 97 + 1) * float(v)
    return round(total, 6)

