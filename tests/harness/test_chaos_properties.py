"""Property tests: random fault plans against the recovery-cost oracle.

Hypothesis sweeps random :class:`FaultPlan`\\s over a flat-API LUD
workload and holds every run to the chaos oracle: either the run
completes — in which case the result is bit-identical to the fault-free
run and the priced delta equals *exactly* the summed ``fault.*``
charges (Fraction arithmetic) — or it raises an error carrying the
injected fault.  Either way, resetting the plan and rerunning
reproduces the outcome bit-for-bit.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import configure  # noqa: E402
from repro import opencl as cl  # noqa: E402
from repro.apps.lud import runners as lud  # noqa: E402
from repro.errors import CLError  # noqa: E402
from repro.harness.chaos import priced_totals  # noqa: E402
from repro.opencl.context import current_clock  # noqa: E402
from repro.opencl.faults import (  # noqa: E402
    DEVICE_LOST,
    PERMANENT,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
)
from repro.trace import Tracer, tracing  # noqa: E402

pytestmark = pytest.mark.chaos

N = 8

SUBSTRATE_OPS = ("h2d", "d2h", "kernel", "api", "build")

spec_st = st.builds(
    FaultSpec,
    op=st.sampled_from(SUBSTRATE_OPS),
    kind=st.sampled_from((TRANSIENT, PERMANENT, DEVICE_LOST)),
    index=st.integers(0, 3),
    times=st.integers(1, 3),
)

# times <= 2 stays under the default RetryPolicy's 3 attempts and one
# spec per op keeps faulted windows from tiling 3+ consecutive
# occurrences of one stream, so these plans always recover in place.
recoverable_spec_st = st.builds(
    FaultSpec,
    op=st.sampled_from(SUBSTRATE_OPS),
    kind=st.just(TRANSIENT),
    index=st.integers(0, 3),
    times=st.integers(1, 2),
)


def run_once(plan=None):
    """One fresh flat-API LUD run; exact priced totals via the tracer."""
    cl.reset_platforms()
    if plan is not None:
        plan.reset()
    tracer = Tracer()
    current_clock().timeline.reset()
    with configure(faults=plan), tracing(tracer):
        out = lud.run_api(N, "GPU")
    priced, fault_part = priced_totals((tracer,))
    return tuple(out.meta["m"]), out.result, priced, fault_part


def capture(plan):
    """Fingerprint a faulted run, injected-error crash included."""
    try:
        return ("ok",) + run_once(plan) + (plan.injected,)
    except CLError as exc:
        fault = getattr(exc, "fault", None)
        assert fault is not None, f"non-injected error escaped: {exc!r}"
        return ("raise", type(exc).__name__, str(exc), plan.injected)


@pytest.fixture(scope="module")
def clean():
    m, result, priced, fault_part = run_once()
    assert fault_part == 0
    return m, result, priced


@settings(max_examples=15, deadline=None)
@given(
    specs=st.lists(
        recoverable_spec_st,
        min_size=1,
        max_size=3,
        unique_by=lambda s: s.op,
    )
)
def test_recoverable_plans_complete_with_exact_delta(specs, clean):
    clean_m, clean_result, clean_priced = clean
    plan = FaultPlan(specs)
    m, result, priced, fault_part = run_once(plan)
    # (a) recovery is invisible in the data.
    assert m == clean_m
    assert result == clean_result
    # (b) the priced delta is exactly the recovery charge.
    assert priced - clean_priced == fault_part
    if plan.injected:
        assert fault_part > 0


@settings(max_examples=15, deadline=None)
@given(specs=st.lists(spec_st, min_size=1, max_size=3))
def test_any_plan_recovers_exactly_or_surfaces_the_fault(specs, clean):
    clean_m, clean_result, clean_priced = clean
    plan = FaultPlan(specs)
    first = capture(plan)
    if first[0] == "ok":
        _, m, result, priced, fault_part, _ = first
        assert m == clean_m
        assert result == clean_result
        assert priced - clean_priced == fault_part
    # (c) replay is bit-for-bit either way: same outcome, same priced
    # totals, same injected count — crash messages included.
    assert capture(plan) == first


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rate=st.floats(0.0, 0.15, allow_nan=False),
)
def test_seeded_plans_replay_bit_for_bit(seed, rate, clean):
    plan = FaultPlan(seed=seed, rate=rate, kinds=(TRANSIENT, PERMANENT))
    assert capture(plan) == capture(plan)
