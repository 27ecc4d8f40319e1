"""Chaos x supervision: a stage hand-off killed twice in a row.

A chaos plan that fires the ``handoff`` site twice against one
supervised kernel actor walks the whole restart-budget exhaustion path:
first crash -> non-fatal notice -> in-place restart; second crash ->
budget exhausted -> fatal notice, finalized ports, dead-lettered
requests, and closed reply channels downstream.  The tests pin the
notice ordering, the dead-letter capture, and the counter vocabulary.
"""

import pytest

from repro import configure
from repro import opencl as cl
from repro.actors import (
    DeadLetter,
    InPort,
    KernelActor,
    KernelRequest,
    OutPort,
    RestartPolicy,
    Stage,
    connect,
)
from repro.errors import ChannelClosed, ChannelError, CLOutOfHostMemory
from repro.opencl.faults import PERMANENT, FaultPlan, FaultSpec
from repro.runtime import reset_device_matrix
from repro.trace import tracing

pytestmark = pytest.mark.chaos

SQUARE = """
__kernel void square(__global int *a, __global int *out, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = a[i] * a[i]; }
}
"""

N = 4


@pytest.fixture(autouse=True)
def _clean():
    cl.reset_platforms()
    reset_device_matrix()
    yield
    cl.reset_platforms()
    reset_device_matrix()


def make_request():
    """A KernelRequest plus the host-side ends of its data channels."""
    request = KernelRequest([N])
    dout = OutPort(name="host.dout")
    din = InPort(buffer=2, name="host.din")
    connect(dout, request.input)
    connect(request.output, din)
    return request, dout, din


def payload():
    return {"a": list(range(N)), "out": [0] * N, "n": N}


def test_double_handoff_kill_exhausts_the_restart_budget():
    # Fire the hand-off gate on the actor's first two result forwards.
    with configure(
        faults=FaultPlan(
            [FaultSpec("handoff", PERMANENT, key="square.output", times=2)]
        )
    ):
        notices = []
        stage = Stage("chaos", supervisor=notices.append)
        worker = stage.spawn(
            KernelActor(SQUARE, "square"),
            policy=RestartPolicy(max_restarts=1, backoff_s=0.0),
        )
        reqs = OutPort(name="host.reqs")
        connect(reqs, worker.requests)

        with tracing() as tracer:
            stage.start()
            # First kill: the dispatch succeeds, the hand-off crashes the
            # actor, supervision restarts it in place.
            req1, dout1, din1 = make_request()
            reqs.send(req1, timeout=5.0)
            dout1.send(payload(), timeout=5.0)
            with pytest.raises(ChannelClosed):
                din1.receive(timeout=5.0)
            # Second kill: the restarted actor crashes again and the
            # restart budget (1) is exhausted -> fatal, ports finalized.
            req2, dout2, din2 = make_request()
            reqs.send(req2, timeout=5.0)
            dout2.send(payload(), timeout=5.0)
            with pytest.raises(ChannelClosed):
                din2.receive(timeout=5.0)
            stage.join(10.0)  # fatal notice delivered: join stays clean

            # Supervisor-notice ordering: one non-fatal restart notice,
            # then the fatal budget-exhaustion notice, both carrying the
            # injected error.
            kinds = [(n.fatal, n.restarts) for n in notices]
            assert kinds == [(False, 1), (True, 1)]
            assert kinds == [
                (f.fatal, f.restarts) for f in stage.supervised_failures
            ]
            for notice in notices:
                assert notice.actor_name == worker.name
                assert isinstance(notice.error, CLOutOfHostMemory)
                assert notice.error.fault is not None

            # A third request hits the finalized actor's closed port: the
            # send fails loudly and the message is dead-lettered.
            req3, _, _ = make_request()
            with pytest.raises(ChannelError, match="closed"):
                reqs.send(req3, timeout=1.0)

        assert len(stage.dead_letters) == 1
        letter = stage.dead_letters[0]
        assert isinstance(letter, DeadLetter)
        assert letter.item is req3
        assert letter.reason == "closed"

        counters = tracer.counters()
        assert counters["fault.injected"] == 2
        assert counters["actor.failure"] == 2
        assert counters["actor.restart"] == 1
        assert counters["actor.dead_letter"] == 1
        assert "fault.failover" not in counters  # crashes, not device loss


def test_budget_of_two_survives_a_double_kill():
    """With one more restart in the budget the same double-kill plan is
    absorbed: the third attempt succeeds and delivers the result."""
    with configure(
        faults=FaultPlan(
            [FaultSpec("handoff", PERMANENT, key="square.output", times=2)]
        )
    ):
        notices = []
        stage = Stage("chaos", supervisor=notices.append)
        stage.spawn(
            KernelActor(SQUARE, "square"),
            policy=RestartPolicy(max_restarts=2, backoff_s=0.0),
        )
        worker = stage.actors[0]
        reqs = OutPort(name="host.reqs")
        connect(reqs, worker.requests)

        with tracing() as tracer:
            stage.start()
            result = None
            for _ in range(3):
                req, dout, din = make_request()
                reqs.send(req, timeout=5.0)
                dout.send(payload(), timeout=5.0)
                try:
                    result = din.receive(timeout=5.0)
                except ChannelClosed:
                    continue
            assert result is not None
            # The payload's arrays were promoted to managed arrays by the
            # actor; compare the host copies.
            assert list(result["out"].host()) == [i * i for i in range(N)]
            stage.stop_all()
            stage.join(10.0)

        assert [(n.fatal, n.restarts) for n in notices] == [
            (False, 1),
            (False, 2),
        ]
        counters = tracer.counters()
        assert counters["fault.injected"] == 2
        assert counters["actor.restart"] == 2
        assert stage.dead_letters == []
