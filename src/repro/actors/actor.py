"""Actors and stages: the Pythonic face of the Ensemble model.

This is the "plain Java" path from paper Section 4 — applications need
not be written in the Ensemble language; they can target the runtime's
actor abstractions directly.  An actor has private state and a single
thread of control whose ``behaviour`` is repeated until the actor stops;
all actors execute within a :class:`Stage` (one memory space).

Port declaration is declarative::

    class Sender(Actor):
        output = OutPort(int)

        def __init__(self) -> None:
            super().__init__()
            self.value = 1

        def behaviour(self) -> None:
            self.output.send(self.value)
            self.value += 1

Class-level ports are templates; each instance receives fresh clones, so
two instances of an actor class never share a channel end.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..errors import ActorError, ChannelClosed, RuntimeFault
from ..trace import current_tracer, thread_track
from .channel import DeadLetter, InPort, OutPort, connect  # noqa: F401
from ..errors import CLInvalidValue

_actor_ids = itertools.count(1)

#: How long Stage.join waits before declaring the application hung.
DEFAULT_JOIN_TIMEOUT = 60.0


@dataclass(frozen=True)
class RestartPolicy:
    """Supervision: restart a crashed actor's behaviour loop in place.

    A crashed actor (behaviour raised something other than
    :class:`StopBehaviour` / :class:`~repro.errors.ChannelClosed`) is
    restarted on its own thread with its ports still wired, up to
    ``max_restarts`` times, sleeping ``backoff_s * restart_number``
    wall-clock seconds before each attempt.  Exhausting the budget makes
    the failure fatal: ports close and the stage records the error.
    """

    max_restarts: int = 3
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise CLInvalidValue("max_restarts must be >= 0")
        if self.backoff_s < 0:
            raise CLInvalidValue("backoff_s must be >= 0")


@dataclass
class ActorFailure:
    """One crash notice delivered to a stage's supervisor.

    ``fatal`` distinguishes a crash absorbed by a restart (the actor is
    running again) from one that exhausted its restart budget (the
    actor is gone).  Travels by reference over supervisor channels.
    """

    __by_reference__ = True

    actor_name: str
    error: BaseException
    restarts: int
    fatal: bool


class StopBehaviour(Exception):
    """Raised (via :meth:`Actor.stop`) to leave the behaviour loop."""


class Actor:
    """Base class: private state + a repeated ``behaviour`` clause."""

    def __init__(self) -> None:
        self.actor_id = next(_actor_ids)
        self.name = f"{type(self).__name__}-{self.actor_id}"
        self.stage: Optional["Stage"] = None
        self._stopped = threading.Event()
        self._instantiate_ports()

    def _instantiate_ports(self) -> None:
        """Clone class-level port templates into instance ports."""
        seen: set[str] = set()
        for klass in type(self).__mro__:
            for attr, template in vars(klass).items():
                if attr in seen:
                    continue
                if isinstance(template, InPort):
                    seen.add(attr)
                    port = InPort(
                        template.typ,
                        buffer=template.capacity,
                        name=f"{type(self).__name__}.{attr}",
                        owner=self,
                    )
                    setattr(self, attr, port)
                elif isinstance(template, OutPort):
                    seen.add(attr)
                    port = OutPort(
                        template.typ,
                        name=f"{type(self).__name__}.{attr}",
                        owner=self,
                    )
                    setattr(self, attr, port)

    # -- behaviour ---------------------------------------------------------

    def behaviour(self) -> None:
        """One iteration of the actor's behaviour clause.  Subclasses
        must override; the runtime repeats it until :meth:`stop`."""
        raise NotImplementedError(
            f"{type(self).__name__} must define behaviour()"
        )

    def stop(self) -> None:
        """Stop this actor after the current behaviour iteration."""
        raise StopBehaviour()

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()

    # -- internals ---------------------------------------------------------

    def _run(self) -> Optional[BaseException]:
        """One life of the behaviour loop; returns the crash, if any.

        Deliberately does *not* close ports or mark the actor stopped —
        that is :meth:`_finalize`, which the stage calls only when the
        actor will not be restarted (supervision keeps channels wired
        across restarts).
        """
        error: Optional[BaseException] = None
        iteration = 0
        try:
            while True:
                tracer = current_tracer()
                if tracer.enabled:
                    with tracer.span(
                        f"behaviour:{self.name}",
                        track=thread_track(),
                        category="actor",
                        iteration=iteration,
                    ):
                        self.behaviour()
                else:
                    self.behaviour()
                iteration += 1
        except StopBehaviour:
            pass
        except ChannelClosed:
            # Upstream finished: draining actors stop cleanly.
            pass
        except BaseException as exc:  # noqa: BLE001 - reported via stage
            error = exc
        return error

    def _finalize(self) -> None:
        """Close the ports and mark the actor stopped (end of last life)."""
        self._close_ports()
        self._stopped.set()

    def _close_ports(self) -> None:
        for value in vars(self).values():
            if isinstance(value, (InPort, OutPort)):
                value.close()

    def ports(self) -> dict[str, object]:
        return {
            attr: value
            for attr, value in vars(self).items()
            if isinstance(value, (InPort, OutPort))
        }

    def __repr__(self) -> str:
        return f"<Actor {self.name}>"


class Stage:
    """A memory space in which actors execute (paper Section 4).

    Typical use mirrors an Ensemble ``boot`` block::

        stage = Stage("home")
        s = stage.spawn(Sender())
        r = stage.spawn(Receiver())
        connect(s.output, r.input)
        stage.run()
    """

    def __init__(
        self,
        name: str = "home",
        supervisor: Union[InPort, Callable[[ActorFailure], None], None] = None,
    ) -> None:
        self.name = name
        self.actors: list[Actor] = []
        #: Crash notices (:class:`ActorFailure`), fatal and absorbed alike.
        self.supervised_failures: list[ActorFailure] = []
        #: Messages that could not be delivered (see channel.DeadLetter).
        self.dead_letters: list[DeadLetter] = []
        #: Where fatal/absorbed crash notices go: an :class:`InPort`
        #: (supervision as a message stream) or a plain callable.  With a
        #: supervisor installed, a fatal crash is *handled* — join() does
        #: not re-raise it; without one it propagates as before.
        self.supervisor = supervisor
        self._threads: dict[int, threading.Thread] = {}
        self._errors: list[tuple[Actor, BaseException]] = []
        self._policies: dict[int, RestartPolicy] = {}
        self._started = False

    def spawn(
        self, actor: Actor, policy: Optional[RestartPolicy] = None
    ) -> Actor:
        """Register *actor* on this stage (threads start at :meth:`start`).

        An optional :class:`RestartPolicy` puts the actor under
        supervision: crashes restart the behaviour loop in place instead
        of killing the thread.
        """
        if self._started:
            raise RuntimeFault("cannot spawn after the stage has started")
        if actor.stage is not None:
            raise RuntimeFault(f"{actor.name} already belongs to a stage")
        actor.stage = self
        self.actors.append(actor)
        if policy is not None:
            self._policies[actor.actor_id] = policy
        return actor

    def start(self) -> None:
        """Create one thread per actor, each running its behaviours in a
        copy of the caller's context (and so its ``current_config``)."""
        if self._started:
            raise RuntimeFault("stage already started")
        self._started = True
        for actor in self.actors:
            # One copy per thread: two threads cannot enter one Context.
            thread = threading.Thread(
                target=contextvars.copy_context().run,
                args=(self._actor_main, actor),
                name=f"{self.name}/{actor.name}",
                daemon=True,
            )
            self._threads[actor.actor_id] = thread
            thread.start()

    def _actor_main(self, actor: Actor) -> None:
        policy = self._policies.get(actor.actor_id)
        restarts = 0
        while True:
            error = actor._run()
            if error is None:
                actor._finalize()
                return
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count("actor.failure")
            if policy is not None and restarts < policy.max_restarts:
                restarts += 1
                if tracer.enabled:
                    tracer.count("actor.restart")
                self._notify_supervisor(
                    ActorFailure(actor.name, error, restarts, fatal=False)
                )
                if policy.backoff_s > 0.0:
                    time.sleep(policy.backoff_s * restarts)
                continue
            actor._finalize()
            notice = ActorFailure(actor.name, error, restarts, fatal=True)
            delivered = self._notify_supervisor(notice)
            if not delivered:
                # No supervisor: the crash propagates through join(), as
                # it always did — never a silent thread death.
                self._errors.append((actor, error))
            return

    def _notify_supervisor(self, notice: ActorFailure) -> bool:
        """Record *notice*; deliver it to the supervisor if one is set.

        Returns whether a supervisor took responsibility for it.  A
        supervisor that is itself gone (closed port, raising callable)
        does not take responsibility — the failure falls back to
        :meth:`join` propagation.
        """
        self.supervised_failures.append(notice)
        target = self.supervisor
        if target is None:
            return False
        try:
            if isinstance(target, InPort):
                target._put(notice, timeout=1.0)
            else:
                target(notice)
        except BaseException:  # noqa: BLE001 - supervisor itself is gone
            return False
        return True

    def join(self, timeout: float = DEFAULT_JOIN_TIMEOUT) -> None:
        """Wait at most *timeout* seconds in all for every actor to stop;
        re-raise the first actor error."""
        deadline = time.monotonic() + timeout
        for actor in self.actors:
            thread = self._threads.get(actor.actor_id)
            if thread is None:
                continue
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                raise ActorError(
                    f"stage {self.name!r}: actor {actor.name} did not stop "
                    f"within {timeout}s (deadlock?)"
                )
        if self._errors:
            actor, error = self._errors[0]
            detail = "".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            )
            raise ActorError(f"actor {actor.name} failed:\n{detail}") from error

    def run(self, timeout: float = DEFAULT_JOIN_TIMEOUT) -> None:
        """start() + join() — the whole application lifecycle."""
        self.start()
        self.join(timeout)

    def stop_all(self) -> None:
        """Close every port, unblocking and terminating all actors."""
        for actor in self.actors:
            actor._close_ports()

    def __enter__(self) -> "Stage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if not self._started:
                self.run()
            else:
                self.join()
        else:
            self.stop_all()

    def __repr__(self) -> str:
        return f"<Stage {self.name!r} actors={len(self.actors)}>"
