"""Actor lifecycle, stages and behaviour-loop semantics."""

import time

import pytest

from repro.actors import Actor, InPort, OutPort, Stage, connect
from repro.errors import ActorError, RuntimeFault


class Producer(Actor):
    output = OutPort(int)

    def __init__(self, count: int) -> None:
        super().__init__()
        self.count = count
        self.sent = 0

    def behaviour(self) -> None:
        if self.sent >= self.count:
            self.stop()
        self.output.send(self.sent)
        self.sent += 1


class Collector(Actor):
    input = InPort(int)

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[int] = []

    def behaviour(self) -> None:
        self.seen.append(self.input.receive())


class TestBehaviourLoop:
    def test_behaviour_repeats_until_stop(self):
        stage = Stage()
        producer = stage.spawn(Producer(5))
        collector = stage.spawn(Collector())
        connect(producer.output, collector.input)
        stage.run(10)
        assert collector.seen == [0, 1, 2, 3, 4]

    def test_channel_close_cascades_shutdown(self):
        # Collector stops via ChannelClosed when the producer finishes.
        stage = Stage()
        producer = stage.spawn(Producer(1))
        collector = stage.spawn(Collector())
        connect(producer.output, collector.input)
        stage.run(10)
        assert collector.stopped and producer.stopped

    def test_actor_error_propagates_to_join(self):
        class Exploder(Actor):
            def behaviour(self) -> None:
                raise ValueError("boom")

        stage = Stage()
        stage.spawn(Exploder())
        with pytest.raises(ActorError, match="boom"):
            stage.run(10)

    def test_behaviour_must_be_overridden(self):
        stage = Stage()
        stage.spawn(Actor())
        with pytest.raises(ActorError, match="behaviour"):
            stage.run(10)


class TestPortTemplates:
    def test_instances_get_fresh_ports(self):
        a = Producer(1)
        b = Producer(1)
        assert a.output is not b.output
        assert a.output is not Producer.output

    def test_port_names_identify_owner(self):
        actor = Producer(1)
        assert "Producer.output" in actor.output.name

    def test_ports_listing(self):
        actor = Collector()
        assert set(actor.ports()) == {"input"}


class TestStageLifecycle:
    def test_spawn_after_start_rejected(self):
        stage = Stage()
        stage.spawn(Producer(0))
        stage.start()
        with pytest.raises(RuntimeFault):
            stage.spawn(Producer(0))
        stage.join(10)

    def test_double_spawn_rejected(self):
        stage_a = Stage()
        stage_b = Stage()
        actor = Producer(0)
        stage_a.spawn(actor)
        with pytest.raises(RuntimeFault):
            stage_b.spawn(actor)

    def test_double_start_rejected(self):
        stage = Stage()
        stage.start()
        with pytest.raises(RuntimeFault):
            stage.start()

    def test_join_times_out_on_deadlock(self):
        class Forever(Actor):
            input = InPort()

            def behaviour(self) -> None:
                self.input.receive()  # never connected; blocks

        stage = Stage()
        stage.spawn(Forever())
        stage.start()
        with pytest.raises(ActorError, match="did not stop"):
            stage.join(0.2)
        stage.stop_all()

    def test_join_timeout_bounds_the_whole_wait(self):
        class Slow(Actor):
            def behaviour(self) -> None:
                time.sleep(0.4)
                self.stop()

        class Forever(Actor):
            input = InPort()

            def behaviour(self) -> None:
                self.input.receive()  # never connected; blocks

        stage = Stage()
        stage.spawn(Slow())
        stage.spawn(Forever())
        stage.start()
        started = time.monotonic()
        with pytest.raises(ActorError, match="within 0.5s"):
            stage.join(0.5)
        waited = time.monotonic() - started
        stage.stop_all()
        stage.join(5.0)
        # One deadline for the stage, not 0.5 s more per actor (which
        # would wait 0.4 s for Slow, then 0.5 s for Forever).
        assert waited < 0.8

    def test_context_manager_runs_stage(self):
        with Stage() as stage:
            producer = stage.spawn(Producer(2))
            collector = stage.spawn(Collector())
            connect(producer.output, collector.input)
        assert collector.seen == [0, 1]


class TestPipelines:
    def test_three_stage_pipeline(self):
        class Doubler(Actor):
            input = InPort(int)
            output = OutPort(int)

            def behaviour(self) -> None:
                self.output.send(self.input.receive() * 2)

        stage = Stage()
        producer = stage.spawn(Producer(4))
        doubler = stage.spawn(Doubler())
        collector = stage.spawn(Collector())
        connect(producer.output, doubler.input)
        connect(doubler.output, collector.input)
        stage.run(10)
        assert collector.seen == [0, 2, 4, 6]

    def test_fan_in_pipeline(self):
        stage = Stage()
        producers = [stage.spawn(Producer(3)) for _ in range(2)]
        collector = stage.spawn(Collector())
        for producer in producers:
            connect(producer.output, collector.input)
        stage.run(10)
        assert sorted(collector.seen) == [0, 0, 1, 1, 2, 2]
