"""Actor supervision: restarts, dead letters, failover, pipeline survival.

The actor-runtime half of the reliability tentpole: restart-with-backoff
policies, crash notices to a supervisor instead of silent thread death,
dead-letter capture on undeliverable messages, kernel-actor device
failover, and the acceptance scenario — the Figure-4 LUD pipeline
surviving a mid-pipeline kernel-actor device loss with correct output.
"""

import pytest

from repro import configure
from repro import opencl as cl
from repro.actors import (
    Actor,
    ActorFailure,
    DeadLetter,
    InPort,
    OutPort,
    RestartPolicy,
    Stage,
    connect,
    run_kernel,
)
from repro.apps.lud import runners as lud
from repro.errors import ActorError, ChannelError
from repro.opencl.faults import DEVICE_LOST, FaultPlan, FaultSpec
from repro.runtime import reset_device_matrix
from repro.trace import tracing

pytestmark = pytest.mark.faults

SQUARE = """
__kernel void square(__global int *a, __global int *out, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = a[i] * a[i]; }
}
"""


@pytest.fixture(autouse=True)
def _clean():
    cl.reset_platforms()
    reset_device_matrix()
    yield
    cl.reset_platforms()
    reset_device_matrix()


class Flaky(Actor):
    """Crashes on chosen iterations; sends its counter otherwise."""

    output = OutPort(int)

    def __init__(self, crash_on=(2,), stop_after=4):
        super().__init__()
        self.n = 0
        self.crash_on = set(crash_on)
        self.stop_after = stop_after

    def behaviour(self):
        self.n += 1
        if self.n in self.crash_on:
            raise ValueError(f"iteration {self.n} crashed")
        if self.n > self.stop_after:
            self.stop()
        self.output.send(self.n)


class Sink(Actor):
    input = InPort(int, buffer=64)

    def __init__(self):
        super().__init__()
        self.got = []

    def behaviour(self):
        self.got.append(self.input.receive())


class TestRestart:
    def test_restart_absorbs_crash_and_keeps_channels_wired(self):
        stage = Stage("t")
        flaky = stage.spawn(Flaky(), policy=RestartPolicy(max_restarts=2))
        sink = stage.spawn(Sink())
        connect(flaky.output, sink.input)
        with tracing() as tracer:
            stage.run(20)
        assert sink.got == [1, 3, 4]  # iteration 2 crashed, rest flowed
        counters = tracer.counters()
        assert counters["actor.failure"] == 1
        assert counters["actor.restart"] == 1

    def test_restart_budget_exhaustion_is_fatal(self):
        stage = Stage("t")
        stage.spawn(
            Flaky(crash_on=(1, 2, 3, 4, 5)),
            policy=RestartPolicy(max_restarts=2),
        )
        with pytest.raises(ActorError, match="iteration 3 crashed"):
            stage.run(20)
        kinds = [(f.fatal, f.restarts) for f in stage.supervised_failures]
        assert kinds == [(False, 1), (False, 2), (True, 2)]

    def test_unsupervised_crash_still_raises_from_join(self):
        stage = Stage("t")
        stage.spawn(Flaky(crash_on=(1,)))
        with pytest.raises(ActorError, match="iteration 1 crashed"):
            stage.run(20)

    def test_policy_validation(self):
        from repro.errors import CLInvalidValue

        with pytest.raises(CLInvalidValue):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(CLInvalidValue):
            RestartPolicy(backoff_s=-0.5)


class TestSupervisor:
    def test_callable_supervisor_handles_fatal_crash(self):
        notices = []
        stage = Stage("t", supervisor=notices.append)
        stage.spawn(Flaky(crash_on=(1,)))
        stage.run(20)  # supervised: join() does not raise
        assert len(notices) == 1
        notice = notices[0]
        assert isinstance(notice, ActorFailure)
        assert notice.fatal and notice.restarts == 0
        assert isinstance(notice.error, ValueError)

    def test_inport_supervisor_receives_failures_as_messages(self):
        class Supervisor(Actor):
            failures = InPort(buffer=8)

            def __init__(self):
                super().__init__()
                self.seen = []

            def behaviour(self):
                # One crash is expected in this scenario; stop after it
                # so the stage can join (nothing closes this port).
                self.seen.append(self.failures.receive())
                self.stop()

        supervisor = Supervisor()
        stage = Stage("t")
        stage.spawn(supervisor)
        stage.supervisor = supervisor.failures
        stage.spawn(Flaky(crash_on=(2,)),
                    policy=RestartPolicy(max_restarts=1))
        sink = stage.spawn(Sink())
        flaky = stage.actors[1]
        connect(flaky.output, sink.input)
        stage.run(20)
        assert sink.got == [1, 3, 4]
        assert [n.fatal for n in supervisor.seen] == [False]
        assert supervisor.seen[0].actor_name == flaky.name

    def test_raising_supervisor_falls_back_to_join_propagation(self):
        def broken(_notice):
            raise RuntimeError("supervisor is broken too")

        stage = Stage("t", supervisor=broken)
        stage.spawn(Flaky(crash_on=(1,)))
        with pytest.raises(ActorError, match="iteration 1 crashed"):
            stage.run(20)


class TestDeadLetters:
    def test_send_to_closed_port_is_captured(self):
        class Quitter(Actor):
            input = InPort(int)

            def behaviour(self):
                self.stop()

        stage = Stage("t")
        quitter = stage.spawn(Quitter())
        out = OutPort(int)
        connect(out, quitter.input)
        stage.run(20)
        with pytest.raises(ChannelError, match="owner=Quitter"):
            out.send(42, timeout=1.0)
        assert len(stage.dead_letters) == 1
        letter = stage.dead_letters[0]
        assert isinstance(letter, DeadLetter)
        assert letter.item == 42 and letter.reason == "closed"

    def test_rendezvous_timeout_withdraws_the_message(self):
        class Owner:
            name = "lonely-owner"
            stage = None

        port = InPort(int, name="lonely")
        port.owner = Owner()
        out = OutPort(int)
        connect(out, port)
        with pytest.raises(ChannelError) as info:
            out.send(7, timeout=0.05)
        message = str(info.value)
        assert "owner=lonely-owner" in message
        assert "queued=" in message and "capacity=rendezvous" in message
        # The withdrawn message must not be deliverable afterwards.
        assert not port.poll()

    def test_buffer_full_timeout_reports_depth_and_owner(self):
        class Owner:
            name = "busy-owner"
            stage = None

        port = InPort(int, buffer=2, name="busy")
        port.owner = Owner()
        out = OutPort(int)
        connect(out, port)
        out.send(1)
        out.send(2)
        with pytest.raises(
            ChannelError,
            match=r"owner=busy-owner, queued=2, capacity=2",
        ):
            out.send(3, timeout=0.05)


class TestKernelActorFailover:
    def test_device_loss_fails_over_with_identical_output(self):
        n = 64
        data = {"a": list(range(n)), "out": [0] * n, "n": n}
        clean = run_kernel(SQUARE, "square", dict(data), worksize=[n])
        clean_out = clean["out"].tolist()

        reset_device_matrix()
        cl.reset_platforms()
        with configure(faults=FaultPlan([
            FaultSpec("kernel", kind=DEVICE_LOST, key="square@*R9*")
        ])):
            with tracing() as tracer:
                got = run_kernel(SQUARE, "square", dict(data), worksize=[n])
            assert got["out"].tolist() == clean_out
            counters = tracer.counters()
            assert counters["fault.failover"] == 1
            assert counters["actor.failover"] == 1
            assert counters["fault.injected.device-lost"] == 1


class TestFigure4PipelineSurvival:
    def test_lud_pipeline_survives_mid_pipeline_device_loss(self):
        n = 16
        clean = lud.run_actors(n)

        cl.reset_platforms()
        reset_device_matrix()
        # Kill the GPU on the 6th dispatch of the *middle* kernel actor
        # (lud_scale) — pivot and update lose their device too and all
        # three fail over; the factorisation must still be correct.
        with configure(faults=FaultPlan([
            FaultSpec("kernel", kind=DEVICE_LOST,
                      key="lud_scale@*R9*", index=5)
        ])):
            with tracing() as tracer:
                faulted = lud.run_actors(n)
            assert faulted.result == pytest.approx(clean.result)
            assert faulted.meta["m"] == pytest.approx(clean.meta["m"])
            counters = tracer.counters()
            assert counters["fault.injected.device-lost"] == 1
            assert counters["actor.failover"] >= 3  # all three actors moved

    def test_lud_pipeline_recovers_transient_kernel_faults_in_place(self):
        n = 16
        clean = lud.run_actors(n)

        cl.reset_platforms()
        reset_device_matrix()
        with configure(faults=FaultPlan([
            FaultSpec("kernel", kind="transient", key="lud_update@*",
                      index=3, times=2)
        ])):
            with tracing() as tracer:
                faulted = lud.run_actors(n)
            assert faulted.result == pytest.approx(clean.result)
            counters = tracer.counters()
            assert counters["fault.retry"] == 2
            assert "fault.failover" not in counters  # recovered in place
