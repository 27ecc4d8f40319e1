"""Out-of-order queue ablation (docs/ARCHITECTURE.md section 2).

The Figure-4 LUD actor pipeline in shared-nothing mode re-uploads and
downloads between hops, so consecutive iterations carry commands with
no hazards between them.  An out-of-order queue overlaps those
transfers with the kernels of the previous iteration; an in-order queue
drains them serially.  The ablation asserts the scheduling contract:
identical checksum and identical ledger segments in both modes, with a
strictly shorter out-of-order makespan — on the queue-local axis *and*
on the composed end-to-end timeline, whose elapsed time attributes
every wall nanosecond to transfer / compute / api / overlap / idle.
"""

from fractions import Fraction

from repro import configure
from repro.apps import lud
from repro.harness import scaled_devices
from repro.opencl import TIMELINE_SEGMENTS
from repro.opencl.context import current_clock
from repro.runtime import device_matrix

N = 24
SCALE_ARGS = (0.08, 1.0, 2048 / N)


def _run(out_of_order: bool):
    with scaled_devices(*SCALE_ARGS), configure(out_of_order=out_of_order):
        outcome = lud.run_actors(N, "GPU", movable=False)
        (env,) = device_matrix().environments()
        queue = env.queue
        makespans = (
            queue.makespan_ns,
            queue.serial_makespan_ns,
            queue.overlap_ns,
        )
        timeline = current_clock().timeline
        e2e = dict(timeline.attribution(), elapsed_ns=timeline.elapsed_ns)
        exact = timeline.attribution_exact()
        exact_elapsed = Fraction(timeline.elapsed_ns)
    return outcome, makespans, e2e, exact, exact_elapsed


def test_overlap_ablation(benchmark, artefacts):
    ooo, (ooo_makespan, ooo_serial, overlap), ooo_e2e, ooo_exact, ooo_exact_elapsed = (
        benchmark.pedantic(_run, args=(True,), rounds=1, iterations=1)
    )
    base, (in_makespan, in_serial, in_overlap), in_e2e, in_exact, in_exact_elapsed = (
        _run(False)
    )

    # The scheduling contract: mode changes the schedule, nothing else.
    assert ooo.result == base.result
    assert ooo.breakdown == base.breakdown
    assert in_overlap == 0.0
    assert in_makespan == in_serial
    assert ooo_serial == in_makespan  # same command stream, same drain

    # End-to-end accounting contract: the attribution covers the whole
    # elapsed interval exactly — no nanosecond double-counted or dropped
    # (checked in exact rational arithmetic, not approximately).
    for exact, exact_elapsed in ((ooo_exact, ooo_exact_elapsed),
                                 (in_exact, in_exact_elapsed)):
        assert sum(exact.values(), Fraction(0)) == exact_elapsed
        assert set(exact) == set(TIMELINE_SEGMENTS)

    saved = 1.0 - ooo_makespan / in_makespan
    e2e_saved = 1.0 - ooo_e2e["elapsed_ns"] / in_e2e["elapsed_ns"]
    artefacts["ablation_overlap"] = (
        f"Out-of-order ablation (LUD n={N}, shared-nothing): makespan "
        f"{in_makespan:.0f} ns in-order vs {ooo_makespan:.0f} ns "
        f"out-of-order ({saved:.1%} shorter, {overlap:.0f} ns overlapped); "
        f"end-to-end elapsed {in_e2e['elapsed_ns']:.0f} ns in-order vs "
        f"{ooo_e2e['elapsed_ns']:.0f} ns out-of-order "
        f"({e2e_saved:.1%} shorter end to end, "
        f"{ooo_e2e['overlap']:.0f} ns of it with multiple kinds in flight)"
    )
    print()
    print(artefacts["ablation_overlap"])

    # Strict win: the pipeline has real independence to exploit, and it
    # shows up end to end, not just on the queue-local axis.
    assert ooo_makespan < in_makespan
    assert overlap > 0.0
    assert ooo_e2e["elapsed_ns"] < in_e2e["elapsed_ns"]
