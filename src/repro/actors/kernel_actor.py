"""OpenCL kernels represented as actors (paper Section 6).

A :class:`KernelActor` is the runtime analogue of an Ensemble ``opencl``
actor: it presents a single ``requests`` channel conveying an
:class:`KernelRequest` (the paper's ``opencl struct`` — worksize,
groupsize, and the data in/out channels), receives the data, dispatches
the kernel on its declared device, and sends the result onward.

All OpenCL boilerplate — environment lookup, program build, buffer
creation, data movement, argument binding, NDRange dispatch and
device-loss failover — lives in one :class:`KernelTarget`.  Both front
ends bind through it: :class:`KernelActor` for the Pythonic API, and
the Ensemble VM's ``DISPATCH`` (:mod:`repro.runtime.vm`), which
flattens its data value into the same ``{parameter: value}`` dict.
Compare with the hand-written ceremony in the :mod:`repro.apps`
``api_ocl`` variants.

Movability integration (Section 6.2.3): when the incoming data message
is movable, buffers written by the kernel stay device-resident and only
a reference travels onward — repeated or chained kernels touch the host
link zero times.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..errors import CLDeviceLost, CLInvalidKernelArgs, RuntimeFault
from .. import kir
from ..trace import current_tracer, thread_track
from ..opencl import faults
from ..opencl.program import Kernel, Program
from ..runtime.mov import is_movable
from ..runtime.oclenv import OpenCLEnvironment, device_matrix, get_environment
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


class KernelTarget:
    """One OpenCL actor's binding to its device (Sections 6.2.1-6.2.3).

    The environment is resolved once from the device matrix and the
    context's shared program acquired once; :meth:`bind` and
    :meth:`launch` then do one dispatch's argument binding and NDRange
    launch, and :meth:`run` re-issues a dispatch on a surviving device
    after a device loss.
    """

    def __init__(
        self,
        source: str,
        kernel_name: str,
        device_type: str = "GPU",
        device_index: int = 0,
        platform_index: int = 0,
    ) -> None:
        self.source = source
        self.kernel_name = kernel_name
        self.device_type = device_type
        self.device_index = device_index
        self.platform_index = platform_index
        self._env: Optional[OpenCLEnvironment] = None
        self._program: Optional[Program] = None

    @property
    def env(self) -> OpenCLEnvironment:
        """The environment dispatches use: the declared device's from
        the runtime device matrix, or the survivor after a failover."""
        if self._env is None:
            self._env = get_environment(
                self.device_type, self.device_index, self.platform_index
            )
        return self._env

    def bind(self, args: dict) -> tuple[Kernel, dict[str, ManagedArray]]:
        """Create the kernel and bind each parameter by name from *args*.

        Array arguments become :class:`ManagedArray` objects (a raw list
        is promoted in place in *args*, so its residency outlives this
        dispatch) and are copied to the device only when the kernel
        reads them.  Returns the kernel and its arrays by parameter.
        """
        env = self.env
        if self._program is None:
            # Shared acquisition: targets with identical source reuse the
            # context's program binary (compile once, binary-load after).
            self._program = Program.shared(
                env.context, self.source, env.device
            )
        kernel = self._program.create_kernel(self.kernel_name)
        arrays: dict[str, ManagedArray] = {}
        for index, param in enumerate(kernel.fn.params):
            try:
                value = args[param.name]
            except KeyError:
                raise CLInvalidKernelArgs(
                    f"{self.kernel_name}: kernel parameter {param.name!r} "
                    f"missing from the data message (has {sorted(args)})"
                ) from None
            if isinstance(param.type, kir.ArrayType):
                array = _as_managed(value, param.type.element.kind)
                args[param.name] = arrays[param.name] = array
                copy = param.name in kernel.read_params
                kernel.set_arg(index, array.to_device(env.queue, copy=copy))
            else:
                kernel.set_arg(index, value)
        return kernel, arrays

    def launch(
        self,
        kernel: Kernel,
        arrays: dict[str, ManagedArray],
        worksize: Sequence[int],
        groupsize: Optional[Sequence[int]],
    ) -> None:
        """Enqueue *kernel* over *worksize*; an absent or all-zero
        *groupsize* means the device default.  Arrays the kernel writes
        become device-only (no read-back is scheduled)."""
        if groupsize is not None and not any(groupsize):
            groupsize = None
        self.env.queue.enqueue_nd_range_kernel(kernel, worksize, groupsize)
        for name in kernel.written_params:
            if name in arrays:
                arrays[name].mark_device_written()

    def run(self, attempt: Callable[[], None]) -> None:
        """Call *attempt*; after a :class:`~repro.errors.CLDeviceLost`,
        re-target a surviving device and call it once more.

        Managed arrays carry their own residency, so inputs re-upload
        from the host copy (or drain the lost device's buffers) on the
        new context — outputs are identical to the fault-free run.
        Counts ``fault.failover`` and ``actor.failover``.
        """
        try:
            attempt()
        except CLDeviceLost:
            self._env = device_matrix().failover_environment(self.env.device)
            self._program = None
            faults.count_failover()
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count("actor.failover")
            attempt()


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
        self.target = KernelTarget(
            source, kernel_name, device_type, device_index, platform_index
        )

    @property
    def env(self) -> OpenCLEnvironment:
        """The actor's OpenCLEnvironment from the runtime device matrix."""
        return self.target.env

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
            if not isinstance(payload, dict):
                raise RuntimeFault(
                    f"{self.name}: kernel data must be a dict of "
                    "parameter name -> array/scalar"
                )
            self.target.run(lambda: self._dispatch(request, payload))
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

    def _dispatch(self, request: KernelRequest, payload: dict) -> None:
        """One dispatch attempt, spanned on the actor's thread track."""
        target = self.target
        tracer = current_tracer()
        span = nullcontext()
        if tracer.enabled:
            span = tracer.span(
                f"kernel_actor.dispatch:{target.kernel_name}",
                track=thread_track(),
                category="actor",
                kernel=target.kernel_name,
                device_type=target.device_type,
                worksize=list(request.worksize),
            )
        with span:
            kernel, arrays = target.bind(payload)
            target.launch(kernel, arrays, request.worksize, request.groupsize)

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
            f"{self.target.kernel_name}.output",
            env.device.spec.api_call_ns,
            env.context.charge,
            span_name="fault.ensemble.handoff",
        )
