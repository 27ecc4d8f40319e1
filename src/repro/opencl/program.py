"""Programs: runtime compilation of kernel-C source.

A program is created from source text, built (compiled) per device at
runtime, and then mined for kernel objects — the same lifecycle as
``clCreateProgramWithSource`` / ``clBuildProgram`` / ``clCreateKernel``.
Build failures carry a build log, which the Ensemble language improves
upon by reporting kernel errors at compile time instead (Section 6.1.1);
here the baseline path keeps the delayed-error behaviour.
"""

from __future__ import annotations

import itertools
import threading
from typing import Optional, Sequence

from ..errors import CLBuildProgramFailure, CLInvalidKernelArgs, CLInvalidValue
from .. import kcache, kir
from . import faults
from .context import Context
from .memory import Buffer
from .platform import Device

_program_ids = itertools.count(1)


class Program:
    """A runtime-compiled program, mirroring ``cl_program``."""

    def __init__(self, context: Context, source: str) -> None:
        if not source.strip():
            raise CLInvalidValue("empty program source")
        self.id = next(_program_ids)
        self.context = context
        self.source = source
        self.build_log = ""
        self.refcount = 1
        self._built: dict[int, kir.CompiledModule] = {}
        self._build_lock = threading.Lock()

    @property
    def is_built(self) -> bool:
        return bool(self._built)

    @classmethod
    def shared(cls, context: Context, source: str, device: Device) -> "Program":
        """Acquire the context's program for *source*, built for *device*.

        Concurrent acquirers (actor threads) share one Program object.
        The first build for a (source, device-spec) pair in the context
        pays the full compile cost; later acquisitions find the program
        binary already registered and pay only a cheap API charge — the
        ``clCreateProgramWithBinary`` fast path of a real runtime.
        """
        with context._registry_lock:
            program = context._program_registry.get(source)
            if program is None:
                program = cls(context, source)
                context._program_registry[source] = program
            else:
                program.retain()
        with program._build_lock:
            if device.id in program._built:
                context.charge(
                    "host",
                    device.spec.api_call_ns,
                    name="load_program_binary",
                    args={"device": device.name},
                )
                return program
        return program.build([device])

    def build(self, devices: Optional[list[Device]] = None) -> "Program":
        """Compile the source for *devices* (default: every context device).

        The first build for a (source, device-spec) pair in this context
        charges the device's one-off compile cost; rebuilding the same
        pair through a different Program object charges only an API call
        ("load_program_binary") and reuses the registered binary.
        Raises :class:`CLBuildProgramFailure` with a build log on error.
        An injected ``build`` fault (:func:`~repro.opencl.faults.gate`)
        charges the failed compile in full and retries transients; a
        ``device-lost`` one marks the device lost and raises
        :class:`~repro.errors.CLDeviceLost`.
        """
        targets = devices if devices is not None else self.context.devices
        for device in targets:
            if not self.context.has_device(device):
                raise CLInvalidValue(
                    f"device {device.name!r} is not in the context"
                )
            with self._build_lock:
                if device.id in self._built:
                    continue
                key = kcache.fingerprint(self.source, device.spec)
                cached = self.context.program_binary(key)
                if cached is not None:
                    self.context.charge(
                        "host",
                        device.spec.api_call_ns,
                        name="load_program_binary",
                        args={"device": device.name},
                    )
                    self._built[device.id] = cached
                    self.build_log = "build succeeded"
                    continue
                try:
                    faults.gate(
                        "build",
                        device.name,
                        device.spec.compile_ns,
                        self.context.charge,
                        device=device,
                    )
                    compiled = device.compile_source(self.source)
                except CLBuildProgramFailure as exc:
                    self.build_log = exc.build_log
                    raise
                self.context.charge(
                    "host",
                    device.spec.compile_ns,
                    name="build_program",
                    args={"device": device.name},
                )
                self.context.store_program_binary(key, compiled)
                self._built[device.id] = compiled
                self.build_log = "build succeeded"
        return self

    def retain(self) -> None:
        """Increment the reference count (a shared acquirer)."""
        self.refcount += 1

    def compiled_for(self, device: Device) -> kir.CompiledModule:
        try:
            return self._built[device.id]
        except KeyError:
            raise CLInvalidValue(
                f"program {self.id} not built for device {device.name!r}"
            ) from None

    def create_kernel(self, name: str) -> "Kernel":
        if not self._built:
            raise CLInvalidValue("program must be built before kernel creation")
        compiled = next(iter(self._built.values()))
        fn = compiled.module.functions.get(name)
        if fn is None or not fn.is_kernel:
            raise CLInvalidValue(f"no kernel {name!r} in program")
        return Kernel(self, fn, compiled.kernel_runner(name))

    def kernel_names(self) -> list[str]:
        if not self._built:
            raise CLInvalidValue("program is not built")
        module = next(iter(self._built.values())).module
        return [f.name for f in module.kernels()]

    def release(self) -> None:
        """Drop one reference; the last release frees the build state
        and unregisters the program from the context."""
        if self.refcount > 0:
            self.refcount -= 1
        if self.refcount > 0:
            return
        self._built.clear()
        with self.context._registry_lock:
            if self.context._program_registry.get(self.source) is self:
                del self.context._program_registry[self.source]


class Kernel:
    """An argument-holding kernel object, mirroring ``cl_kernel``."""

    def __init__(
        self, program: Program, fn: kir.Function, runner: kir.KernelRunner
    ) -> None:
        self.program = program
        self.fn = fn
        self.name = fn.name
        self._args: list = [_UNSET] * len(fn.params)
        #: array parameter names the kernel body reads / writes, shared
        #: with the compiled runner; the out-of-order queue scheduler
        #: infers buffer hazards from them.
        self.read_params = runner.read_params
        self.written_params = runner.written_params

    @property
    def num_args(self) -> int:
        return len(self.fn.params)

    def set_arg(self, index: int, value) -> None:
        """Bind argument *index*; buffers for array params, scalars else."""
        if not 0 <= index < len(self.fn.params):
            raise CLInvalidValue(
                f"kernel {self.name}: argument index {index} out of range"
            )
        param = self.fn.params[index]
        if isinstance(param.type, kir.ArrayType):
            if not isinstance(value, Buffer):
                raise CLInvalidValue(
                    f"kernel {self.name}: argument {param.name!r} needs a Buffer"
                )
            if value.dtype != param.type.element.kind:
                raise CLInvalidValue(
                    f"kernel {self.name}: buffer dtype {value.dtype} != "
                    f"param element {param.type.element.kind}"
                )
        else:
            if isinstance(value, Buffer):
                raise CLInvalidValue(
                    f"kernel {self.name}: argument {param.name!r} is a scalar"
                )
            want = param.type.kind
            ok = (
                (want == "int" and isinstance(value, int)
                 and not isinstance(value, bool))
                or (want == "float" and isinstance(value, (int, float))
                    and not isinstance(value, bool))
                or (want == "bool" and isinstance(value, bool))
            )
            if not ok:
                raise CLInvalidValue(
                    f"kernel {self.name}: argument {param.name!r} expects "
                    f"{want}, got {type(value).__name__}"
                )
            if want == "float":
                value = float(value)
        self._args[index] = value

    def bound_entries(self, context: Context) -> list:
        """Validated argument list with :class:`Buffer` objects left
        as-is, so the dispatch tier can choose each buffer's storage."""
        out = []
        for i, (param, value) in enumerate(zip(self.fn.params, self._args)):
            if value is _UNSET:
                raise CLInvalidKernelArgs(
                    f"kernel {self.name}: argument {i} ({param.name}) not set"
                )
            if isinstance(value, Buffer):
                value.check_alive()
                if value.context is not context:
                    raise CLInvalidKernelArgs(
                        f"kernel {self.name}: buffer for {param.name!r} "
                        "belongs to a different context"
                    )
            out.append(value)
        return out

    def buffer_access(
        self, entries: Sequence
    ) -> tuple[list[int], list[int]]:
        """The (read, written) buffer ids among bound *entries*.

        Derived from the kernel body's static array accesses; a buffer
        bound to a parameter the body neither reads nor writes is
        conservatively treated as read (it still orders behind writers).
        """
        reads: list[int] = []
        writes: list[int] = []
        for param, value in zip(self.fn.params, entries):
            if not isinstance(value, Buffer):
                continue
            touched = False
            if param.name in self.read_params:
                reads.append(value.id)
                touched = True
            if param.name in self.written_params:
                writes.append(value.id)
                touched = True
            if not touched:
                reads.append(value.id)
        return reads, writes

    def runner(self, device: Device) -> kir.KernelRunner:
        """The executable runner of this kernel compiled for *device*."""
        return self.program.compiled_for(device).kernel_runner(self.name)

    def release(self) -> None:
        self._args = [_UNSET] * len(self.fn.params)

    def __repr__(self) -> str:
        return f"<Kernel {self.name} args={self.num_args}>"


class _Unset:
    def __repr__(self) -> str:  # pragma: no cover
        return "<unset>"


_UNSET = _Unset()
