"""OpenCL kernels represented as actors (paper Section 6).

A :class:`KernelActor` is the runtime analogue of an Ensemble ``opencl``
actor: it presents a single ``requests`` channel conveying an
:class:`KernelRequest` (the paper's ``opencl struct`` — worksize,
groupsize, and the data in/out channels), receives the data, dispatches
the kernel on its declared device, and sends the result onward.  All
OpenCL boilerplate — environment lookup, buffer creation, data movement,
argument binding, NDRange dispatch — is automated here; compare with the
hand-written ceremony in the :mod:`repro.apps` ``api_ocl`` variants.

Movability integration (Section 6.2.3): when the incoming data message
is movable, buffers written by the kernel stay device-resident and only
a reference travels onward — repeated or chained kernels touch the host
link zero times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..errors import CLDeviceLost, CLInvalidKernelArgs, RuntimeFault
from .. import kir
from ..trace import current_tracer, thread_track
from ..opencl import faults
from ..opencl.program import Program
from ..runtime.mov import Movable, is_movable
from ..runtime.oclenv import OpenCLEnvironment, get_environment
from ..runtime.residency import ManagedArray
from .actor import Actor
from .channel import InPort, OutPort


@dataclass
class KernelRequest:
    """The ``opencl struct`` a host sends to a kernel actor.

    ``input`` is the port the kernel actor receives the data on;
    ``output`` is the port it sends results to.  The host keeps the
    matching opposite ends.  A groupsize of ``None`` (or zeros, as in
    the paper's Listing 3) lets the device choose.
    """

    worksize: Sequence[int]
    groupsize: Optional[Sequence[int]] = None
    input: InPort = field(default_factory=InPort)
    output: OutPort = field(default_factory=OutPort)

    __by_reference__ = True

    def effective_groupsize(self) -> Optional[tuple[int, ...]]:
        if self.groupsize is None:
            return None
        gs = tuple(int(g) for g in self.groupsize)
        if all(g == 0 for g in gs):
            return None
        return gs


class KernelActor(Actor):
    """An actor whose behaviour body is an OpenCL kernel."""

    requests = InPort()

    def __init__(
        self,
        source: str,
        kernel_name: str,
        device_type: str = "GPU",
        device_index: int = 0,
        platform_index: int = 0,
    ) -> None:
        super().__init__()
        self.source = source
        self.kernel_name = kernel_name
        self.device_type = device_type
        self.device_index = device_index
        self.platform_index = platform_index
        self._env: Optional[OpenCLEnvironment] = None
        self._program: Optional[Program] = None
        self._fn: Optional[kir.Function] = None

    # -- lazy OpenCL environment ------------------------------------------

    @property
    def env(self) -> OpenCLEnvironment:
        """The actor's OpenCLEnvironment from the runtime device matrix."""
        if self._env is None:
            self._env = get_environment(
                self.device_type, self.device_index, self.platform_index
            )
        return self._env

    def _ensure_program(self) -> Program:
        if self._program is None:
            # Shared acquisition: actors with identical source reuse the
            # context's program binary (compile once, binary-load after).
            program = Program.shared(
                self.env.context, self.source, self.env.device
            )
            self._program = program
            module = program.compiled_for(self.env.device).module
            fn = module.functions.get(self.kernel_name)
            if fn is None or not fn.is_kernel:
                raise RuntimeFault(
                    f"{self.name}: no kernel {self.kernel_name!r} in source"
                )
            self._fn = fn
        return self._program

    # -- behaviour ---------------------------------------------------------

    def behaviour(self) -> None:
        request = self.requests.receive()
        if not isinstance(request, KernelRequest):
            raise RuntimeFault(
                f"{self.name}: expected a KernelRequest, got "
                f"{type(request).__name__}"
            )
        message = request.input.receive()
        movable = is_movable(message)
        payload = message.value if movable else message
        try:
            try:
                self._dispatch(request, payload)
            except CLDeviceLost:
                # The actor's device dropped off the bus: re-target a
                # surviving device and re-issue.  Managed arrays carry
                # their own residency, so inputs re-upload from the host
                # copy (or drain the lost device's buffers) on the new
                # context — outputs are identical to the fault-free run.
                self._failover()
                self._dispatch(request, payload)
            self._gate_handoff()
        except Exception:
            # A failed dispatch must not leave downstream receivers
            # blocked on the reply channel.
            request.output.close()
            raise
        if movable:
            # Forward the same movable reference: written buffers stay on
            # the device (lazy evaluation).
            request.output.send(message)
        else:
            # Shared-nothing: read everything back and send a duplicate.
            for value in payload.values():
                if isinstance(value, ManagedArray):
                    value.sync_host()
            request.output.send(payload)

    def _gate_handoff(self) -> None:
        """The stage hand-off fault site: the result forward to the
        requester's output port.

        Keyed ``<kernel>.output`` (actor ids are not run-stable; kernel
        names are — pipelines running several actors of one kernel
        should pin hand-off faults with explicit specs).  Each failed
        attempt charges one wrapper call (``api_call_ns``) as
        ``fault.ensemble.handoff`` host time on the actor's context,
        with backoff/retry exactly as the substrate gates.
        """
        env = self.env
        faults.gate(
            "handoff",
            f"{self.kernel_name}.output",
            env.device.spec.api_call_ns,
            env.context.charge,
            span_name="fault.ensemble.handoff",
        )

    def _failover(self) -> None:
        """Re-target the actor at a surviving device (device loss)."""
        from ..runtime.oclenv import device_matrix

        failed = self.env.device
        self._env = device_matrix().failover_environment(failed)
        self._program = None
        self._fn = None
        faults.count_failover()
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("actor.failover")

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, request: KernelRequest, payload: Any) -> None:
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span(
                f"kernel_actor.dispatch:{self.kernel_name}",
                track=thread_track(),
                category="actor",
                kernel=self.kernel_name,
                device_type=self.device_type,
                worksize=list(request.worksize),
            ):
                self._dispatch_inner(request, payload)
            return
        self._dispatch_inner(request, payload)

    def _dispatch_inner(self, request: KernelRequest, payload: Any) -> None:
        if not isinstance(payload, dict):
            raise RuntimeFault(
                f"{self.name}: kernel data must be a dict of "
                "parameter name -> array/scalar"
            )
        program = self._ensure_program()
        assert self._fn is not None
        kernel = program.create_kernel(self.kernel_name)
        queue = self.env.queue

        managed: dict[str, ManagedArray] = {}
        for index, param in enumerate(self._fn.params):
            try:
                value = payload[param.name]
            except KeyError:
                raise CLInvalidKernelArgs(
                    f"{self.name}: kernel parameter {param.name!r} missing "
                    f"from the data message (has {sorted(payload)})"
                ) from None
            if isinstance(param.type, kir.ArrayType):
                array = self._as_managed(value, param.type.element.kind)
                if array is not value:
                    # Promote the raw list to a managed array inside the
                    # payload so residency survives past this dispatch.
                    payload[param.name] = array
                managed[param.name] = array
                copy = param.name in kernel.read_params
                kernel.set_arg(index, array.to_device(queue, copy=copy))
            else:
                kernel.set_arg(index, value)

        queue.enqueue_nd_range_kernel(
            kernel, request.worksize, request.effective_groupsize()
        )
        for name in kernel.written_params:
            if name in managed:
                managed[name].mark_device_written()

    @staticmethod
    def _as_managed(value: Any, dtype: str) -> ManagedArray:
        if isinstance(value, ManagedArray):
            if value.dtype != dtype:
                raise CLInvalidKernelArgs(
                    f"array dtype {value.dtype} != kernel param {dtype}"
                )
            return value
        if isinstance(value, list):
            return ManagedArray(value, (len(value),), dtype)
        raise CLInvalidKernelArgs(
            f"kernel array argument must be a ManagedArray or list, "
            f"got {type(value).__name__}"
        )
