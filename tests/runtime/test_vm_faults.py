"""Chaos coverage of the VM/Ensemble fault sites.

The tentpole's new injection sites driven end to end through the
Figure-4 Ensemble pipeline: ``invokenative`` host calls (``native``),
VM-driven kernel-actor dispatch (``vm``), and stage hand-offs
(``handoff``).  Each site is held to the chaos invariants — transient
recovery is invisible in the data and priced exactly (the Fraction
delta equals the summed ``fault.*`` charges), permanent faults surface
the injected error, device loss fails the VM actor over to a surviving
device, and every faulted run replays bit-for-bit under the same plan.
"""

import re

import pytest

from repro import configure
from repro import opencl as cl
from repro.apps.lud import runners as lud
from repro.errors import ActorError, CLOutOfHostMemory, CLOutOfResources
from repro.harness.chaos import priced_totals
from repro.opencl.context import current_clock
from repro.opencl.faults import (
    DEVICE_LOST,
    PERMANENT,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
)
from repro.runtime import reset_device_matrix
from repro.trace import Tracer, tracing

pytestmark = pytest.mark.chaos

N = 8


@pytest.fixture(autouse=True)
def _clean():
    cl.reset_platforms()
    reset_device_matrix()
    yield
    cl.reset_platforms()
    reset_device_matrix()


def run_ensemble_traced(plan=None):
    """One fresh-platform Ensemble LUD run under an optional plan.

    Returns ``(outcome, priced, fault_part, tracer)`` with the priced
    totals as exact Fractions over the tracer's cost spans.
    """
    cl.reset_platforms()
    reset_device_matrix()
    if plan is not None:
        plan.reset()
    tracer = Tracer()
    current_clock().timeline.reset()
    with configure(faults=plan), tracing(tracer):
        outcome = lud.run_ensemble(N, "GPU", movable=True)
    priced, fault_part = priced_totals((tracer,))
    return outcome, priced, fault_part, tracer


def capture(plan):
    """Run under *plan* and fingerprint the outcome, crash included.

    Actor names embed a global spawn counter that is not stable across
    runs, so crash messages are normalised before comparison.
    """
    try:
        outcome, priced, fault_part, _ = run_ensemble_traced(plan)
        return ("ok", outcome.result, priced, fault_part, plan.injected)
    except Exception as exc:  # noqa: BLE001 - fingerprinting the crash
        message = re.sub(r"(\w)-\d+", r"\1-N", str(exc))
        return ("raise", type(exc).__name__, message, plan.injected)


class TestNativeSite:
    def test_transient_recovers_and_prices_exactly(self):
        _, clean_priced, clean_fault, _ = run_ensemble_traced()
        assert clean_fault == 0
        clean, clean_priced, _, _ = run_ensemble_traced()
        plan = FaultPlan([FaultSpec("native", kind=TRANSIENT)])
        faulted, priced, fault_part, tracer = run_ensemble_traced(plan)
        assert plan.injected >= 1
        assert faulted.result == clean.result
        assert priced - clean_priced == fault_part
        names = {s.name for s in tracer.spans}
        assert "fault.vm.native" in names
        assert "fault.backoff" in names
        counters = tracer.counters()
        assert counters["fault.injected"] == plan.injected
        assert counters["fault.retry"] == plan.injected

    def test_permanent_aborts_with_injected_error(self):
        plan = FaultPlan([FaultSpec("native", kind=PERMANENT)])
        with pytest.raises(
            (ActorError, CLOutOfHostMemory),
            match="injected permanent fault on native",
        ):
            run_ensemble_traced(plan)
        assert plan.injected >= 1


class TestVmDispatchSite:
    def test_transient_recovers_and_prices_exactly(self):
        clean, clean_priced, _, _ = run_ensemble_traced()
        plan = FaultPlan([FaultSpec("vm", kind=TRANSIENT)])
        faulted, priced, fault_part, tracer = run_ensemble_traced(plan)
        # One injection per kernel stream (pivot/scale/update) at
        # occurrence 0.
        assert plan.injected == 3
        assert faulted.result == clean.result
        assert priced - clean_priced == fault_part
        assert fault_part > 0
        assert any(s.name == "fault.vm.dispatch" for s in tracer.spans)

    def test_permanent_aborts_with_injected_error(self):
        plan = FaultPlan(
            [FaultSpec("vm", kind=PERMANENT, key="scale_kernel")]
        )
        with pytest.raises(
            (ActorError, CLOutOfResources),
            match="injected permanent fault on vm",
        ):
            run_ensemble_traced(plan)
        assert plan.injected >= 1

    def test_device_lost_fails_over_with_identical_result(self):
        clean, _, _, _ = run_ensemble_traced()
        plan = FaultPlan(
            [FaultSpec("vm", kind=DEVICE_LOST, key="scale_kernel")]
        )
        faulted, priced, fault_part, tracer = run_ensemble_traced(plan)
        assert plan.injected == 1
        # (a) recovery is invisible in the data, even across devices.
        assert faulted.result == clean.result
        counters = tracer.counters()
        assert counters["fault.failover"] >= 1
        assert counters["actor.failover"] >= 1
        # (c) the failover run replays bit-for-bit under the same plan.
        again, again_priced, again_fault, _ = run_ensemble_traced(plan)
        assert again.result == faulted.result
        assert again_priced == priced
        assert again_fault == fault_part
        assert plan.injected == 1


class TestHandoffSite:
    def test_transient_recovers_and_prices_exactly(self):
        clean, clean_priced, _, _ = run_ensemble_traced()
        plan = FaultPlan([FaultSpec("handoff", kind=TRANSIENT)])
        faulted, priced, fault_part, tracer = run_ensemble_traced(plan)
        assert plan.injected >= 1
        assert faulted.result == clean.result
        assert priced - clean_priced == fault_part
        assert any(
            s.name == "fault.ensemble.handoff" for s in tracer.spans
        )

    def test_permanent_kills_the_pipeline(self):
        plan = FaultPlan([FaultSpec("handoff", kind=PERMANENT)])
        with pytest.raises(
            (ActorError, CLOutOfHostMemory),
            match="injected permanent fault on handoff",
        ):
            run_ensemble_traced(plan)
        assert plan.injected >= 1

    def test_handoff_keys_are_run_stable(self):
        """The same explicit key hits the same send in every run."""
        plan = FaultPlan(
            [FaultSpec("handoff", kind=TRANSIENT, key="Control.*")]
        )
        first = capture(plan)
        second = capture(plan)
        assert first == second
        assert first[0] == "ok" and plan.injected >= 1


class TestDeterminism:
    def test_empty_plan_is_identity(self):
        clean, clean_priced, _, _ = run_ensemble_traced()
        plan = FaultPlan()
        faulted, priced, fault_part, _ = run_ensemble_traced(plan)
        assert plan.injected == 0
        assert fault_part == 0
        assert faulted.result == clean.result
        assert priced == clean_priced

    def test_seeded_vm_plan_replays_bit_for_bit(self):
        plan = FaultPlan(
            seed=7,
            rate=0.05,
            kinds=(TRANSIENT,),
            ops=("native", "vm", "handoff"),
        )
        first = capture(plan)
        second = capture(plan)
        assert first == second
        assert first[0] == "ok"
        assert plan.injected >= 1
