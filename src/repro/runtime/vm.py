"""The Ensemble virtual machine.

Executes :class:`~repro.ensemble.bytecode.CompiledProgram` objects: one
thread per actor interpreting that actor's behaviour bytecode in a loop
(paper Section 5), channels mapped onto the runtime's typed ports, and
``invokenative``-style operations for printing, math, and the OpenCL
wrappers (Section 6.2.2).  ``/``, ``%`` and the math natives mean what
they mean in kernels (:mod:`repro.kir.semantics`): C ``int`` division,
and IEEE ``real`` division, which is also what the paper's JVM-derived
interpreter computes for ``double``.

An ``opencl`` actor's ``DISPATCH`` flattens the received data value into
a ``{parameter: value}`` dict (scalar fields as one-element carriers)
and binds, launches and fails over through the same
:class:`~repro.actors.kernel_actor.KernelTarget` as the Pythonic
:class:`~repro.actors.kernel_actor.KernelActor`; around it the VM keeps
its own ``vm`` fault gate, ``vm.dispatch_setup`` charge and scalar
write-back.

Every executed bytecode charges ``BYTECODE_NS`` of simulated host time —
this is the paper's interpreter overhead, visible as the larger
"overhead" segment of the Ensemble bars in Figure 3.
"""

from __future__ import annotations

import random
import threading
from contextlib import nullcontext
from typing import Any, Optional

from ..config import current_config
from ..errors import VMError
from ..ensemble.bytecode import (
    Code,
    CompiledActor,
    CompiledProgram,
    KernelPlan,
)
from ..kir import semantics
from ..opencl import CostLedger
from ..opencl import faults
from ..opencl.context import current_clock
from ..trace import current_tracer
from ..actors.actor import Actor, Stage, StopBehaviour
from ..actors.channel import InPort, OutPort, connect
from ..actors.kernel_actor import KernelTarget
from .mov import is_movable, mov
from .residency import ManagedArray
from .values import StructValue, index_value, length_of, store_value

#: Simulated cost of interpreting one bytecode.  Calibrated (see
#: EXPERIMENTS.md) so the VM-interpretation overhead fraction at the
#: benchmark sizes matches the proportions the paper reports at full
#: size; the paper's modified-JVM interpreter ran simple quickened
#: bytecodes considerably faster than a naive switch interpreter.
BYTECODE_NS = 4.0

#: Simulated cost per element of a bulk data native (fill, min,
#: checksum): optimised-C host speed, the rate the interpreted
#: single-threaded/OpenACC hosts are priced at (~6 simple ops per
#: element at 10 ops/ns).
FILL_NS = 0.6


def _close_reachable_ports(values: list) -> None:
    """Close every channel end reachable from *values*.

    Used when a VM actor exits abnormally: the ports wired into the
    messages it was holding (struct fields, movable payloads, lists)
    would otherwise keep blocked peers waiting forever.  Closing is
    idempotent, so sweeping an already-finalized port is harmless.
    """
    seen: set[int] = set()
    stack = list(values)
    while stack:
        value = stack.pop()
        if value is None or id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, (InPort, OutPort)):
            value.close()
        elif isinstance(value, StructValue):
            stack.extend(value.fields.values())
        elif is_movable(value):
            stack.append(value.value)
        elif isinstance(value, (list, tuple)):
            stack.extend(value)


class VMActor(Actor):
    """An actor whose behaviour interprets Ensemble bytecode."""

    def __init__(self, vm: "EnsembleVM", compiled: CompiledActor, args: list):
        super().__init__()
        self.vm = vm
        self.compiled = compiled
        self.name = f"{compiled.name}-{self.actor_id}"
        self.state: dict[str, Any] = {}
        self.channels: dict[str, Any] = {}
        for cname, direction, _movable, buffer in compiled.channel_specs:
            if direction == "in":
                port: Any = InPort(buffer=buffer,
                                   name=f"{self.name}.{cname}",
                                   owner=self)
            else:
                port = OutPort(name=f"{self.name}.{cname}", owner=self)
            # Run-stable fault coordinate: the port's display name embeds
            # the global actor id, which is not stable across runs, so
            # fault plans key hand-offs on `<ActorType>.<channel>`.
            port.stable_key = f"{compiled.name}.{cname}"
            self.channels[cname] = port
        plan = compiled.kernel_plan
        self.target = None if plan is None else KernelTarget(
            plan.kernel_source,
            plan.kernel_name,
            plan.device_type,
            plan.device_index,
            plan.platform_index,
        )
        self._chan_seq = 0
        vm.execute(self.compiled.state_init, [], actor=self)
        ctor = self.compiled.constructor
        frame = [None] * max(ctor.nlocals, len(args))
        for slot, value in zip(ctor.param_slots, args):
            frame[slot] = value
        vm.execute(ctor, frame, actor=self)

    def behaviour(self) -> None:
        code = self.compiled.behaviour
        if not code.instrs:
            raise StopBehaviour()
        frame = [None] * code.nlocals
        try:
            self.vm.execute(code, frame, actor=self)
        except StopBehaviour:
            raise
        except BaseException:
            # An abnormal exit (crash, or a mid-pipeline ChannelClosed)
            # must not leave peers blocked on channels whose ends this
            # actor received inside messages — the req structs of the
            # paper's pipelines.  :meth:`_close_ports` only covers the
            # presented interface, so close every port reachable from
            # the live frame and actor state too (for an OpenCL actor,
            # the request's reply port after a failed DISPATCH);
            # downstream receivers observe the closure and the shutdown
            # cascades, exactly as KernelActor closes
            # ``request.output`` on a failed dispatch.
            _close_reachable_ports(frame)
            _close_reachable_ports(list(self.state.values()))
            raise

    def _close_ports(self) -> None:
        super()._close_ports()
        for port in self.channels.values():
            port.close()

    def port(self, name: str):
        try:
            return self.channels[name]
        except KeyError:
            raise VMError(
                f"{self.compiled.name} has no channel {name!r}"
            ) from None


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class EnsembleVM:
    """Executes one compiled program on a stage."""

    def __init__(self, program: CompiledProgram, echo: bool = False) -> None:
        self.program = program
        self.stage = Stage(program.stage_name)
        self.ledger = CostLedger()
        self.clock = current_clock()
        self.echo = echo
        self.output: list[str] = []
        self.rng = random.Random(0xEA5EB1E)
        self._out_lock = threading.Lock()
        self._booted = False
        self._boot_chan_seq = 0

    # -- lifecycle -----------------------------------------------------------

    def boot(self) -> None:
        """Run the boot block (creates and wires the actors)."""
        if self._booted:
            raise VMError("program already booted")
        self._booted = True
        code = self.program.boot
        self.execute(code, [None] * code.nlocals, actor=None)

    def run(self, timeout: float = 120.0) -> None:
        """boot + start every actor thread + wait for completion."""
        if not self._booted:
            self.boot()
        self.stage.run(timeout)

    # -- cost accounting ---------------------------------------------------

    def charge(
        self,
        ns: float,
        name: str,
        actor: Optional[VMActor] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Price *ns* of VM work as simulated host time: on the VM
        ledger, serial on the composed timeline, and as a cost span
        named *name* on the actor's track (the stage's when *actor* is
        ``None``).  Bytecode, bulk natives and fault attempts and
        backoff all charge through here."""
        now = self.clock.advance(ns)
        self.ledger.charge("host", ns)
        self.clock.timeline.serial_advance("api", ns)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.cost_span(
                "host",
                ns,
                name=name,
                track=self._track(actor),
                ts_ns=now - ns,
                args=args,
            )

    def _track(self, actor: Optional[VMActor]) -> str:
        return f"vm/{actor.name if actor is not None else self.stage.name}"

    # -- fault injection (the VM-side gates) -------------------------------

    def _fault_gate(
        self,
        op: str,
        key: str,
        attempt_ns: float,
        span_name: str,
        actor: Optional[VMActor],
        device=None,
    ) -> None:
        """Consult the fault plan before a VM-side operation
        (:func:`faults.gate`), pricing attempts and backoff as VM host
        time on the actor's track."""
        faults.gate(
            op,
            key,
            attempt_ns,
            lambda category, ns, name, track=None, args=None: self.charge(
                ns, name, actor, args
            ),
            span_name=span_name,
            device=device,
        )

    @staticmethod
    def _handoff_key(chan: OutPort) -> Optional[str]:
        """The run-stable fault coordinate of a hand-off, or ``None``
        when neither end of the channel is addressable."""
        key = getattr(chan, "stable_key", None)
        if key is not None:
            return key
        for target in getattr(chan, "_targets", ()):
            tkey = getattr(target, "stable_key", None)
            if tkey is not None:
                return tkey
        return None

    # -- the interpreter -----------------------------------------------------

    def execute(
        self, code: Code, frame: list, actor: Optional[VMActor]
    ) -> Any:
        try:
            return self._execute(code, frame, actor)
        except _Return as ret:
            return ret.value

    def _execute(
        self, code: Code, frame: list, actor: Optional[VMActor]
    ) -> Any:
        instrs = code.instrs
        stack: list = []
        pc = 0
        executed = 0
        n = len(instrs)
        try:
            while pc < n:
                op, arg = instrs[pc]
                pc += 1
                executed += 1
                if op == "CONST":
                    stack.append(arg)
                elif op == "LOADL":
                    stack.append(frame[arg])
                elif op == "STOREL":
                    frame[arg] = stack.pop()
                elif op == "LOADSTATE":
                    assert actor is not None
                    stack.append(actor.state[arg])
                elif op == "STORESTATE":
                    assert actor is not None
                    actor.state[arg] = stack.pop()
                elif op == "LOADCHAN":
                    assert actor is not None
                    stack.append(actor.port(arg))
                elif op == "GETFIELD":
                    obj = stack.pop()
                    stack.append(self._get_field(obj, arg))
                elif op == "SETFIELD":
                    obj = stack.pop()
                    value = stack.pop()
                    if not isinstance(obj, StructValue):
                        raise VMError(
                            f"field assignment into {type(obj).__name__}"
                        )
                    obj.set(arg, value)
                elif op == "GETINDEX":
                    idx = stack.pop()
                    obj = stack.pop()
                    stack.append(index_value(obj, idx))
                elif op == "SETINDEX":
                    idx = stack.pop()
                    obj = stack.pop()
                    value = stack.pop()
                    store_value(obj, idx, value)
                elif op == "BINOP":
                    right = stack.pop()
                    left = stack.pop()
                    stack.append(_binop(arg, left, right))
                elif op == "UNOP":
                    value = stack.pop()
                    stack.append(-value if arg == "-" else (not value))
                elif op == "JUMP":
                    pc = arg
                elif op == "JUMPF":
                    if not stack.pop():
                        pc = arg
                elif op == "NEWARRAY":
                    ndims, dtype = arg
                    fill = stack.pop()
                    dims = [stack.pop() for _ in range(ndims)]
                    dims.reverse()
                    size = 1
                    for d in dims:
                        size *= d
                    stack.append(
                        ManagedArray([fill] * size, tuple(dims), dtype)
                    )
                elif op == "NEWSTRUCT":
                    name, argc = arg
                    values = [stack.pop() for _ in range(argc)]
                    values.reverse()
                    stack.append(self._new_struct(name, values))
                elif op == "NEWCHAN":
                    direction, _movable = arg
                    port = InPort() if direction == "in" else OutPort()
                    # Bytecode order is program-determined, so a per-actor
                    # channel sequence number is a run-stable fault
                    # coordinate for anonymous (behaviour-local) ports.
                    if actor is not None:
                        seq = actor._chan_seq
                        actor._chan_seq = seq + 1
                        port.stable_key = (
                            f"{actor.compiled.name}.chan{seq}"
                        )
                    else:
                        seq = self._boot_chan_seq
                        self._boot_chan_seq = seq + 1
                        port.stable_key = f"{self.stage.name}.chan{seq}"
                    stack.append(port)
                elif op == "NEWACTOR":
                    name, argc = arg
                    values = [stack.pop() for _ in range(argc)]
                    values.reverse()
                    stack.append(self._new_actor(name, values))
                elif op == "SEND":
                    chan = stack.pop()
                    value = stack.pop()
                    if not isinstance(chan, OutPort):
                        raise VMError("send on a non-out channel value")
                    if current_config().faults is not None:
                        key = self._handoff_key(chan)
                        if key is not None:
                            self._fault_gate(
                                "handoff", key, BYTECODE_NS,
                                "fault.ensemble.handoff", actor,
                            )
                    chan.send(mov(value) if arg else value)
                elif op == "RECEIVE":
                    chan = stack.pop()
                    if not isinstance(chan, InPort):
                        raise VMError("receive on a non-in channel value")
                    item = chan.receive()
                    stack.append(item.value if is_movable(item) else item)
                elif op == "CONNECT":
                    target = stack.pop()
                    source = stack.pop()
                    connect(source, target)
                elif op == "CALL":
                    name, argc = arg
                    values = [stack.pop() for _ in range(argc)]
                    values.reverse()
                    stack.append(self._call_function(name, values, actor))
                elif op == "NATIVE":
                    name, argc = arg
                    values = [stack.pop() for _ in range(argc)]
                    values.reverse()
                    stack.append(self._native(name, values, actor))
                elif op == "DISPATCH":
                    assert actor is not None
                    self._dispatch_kernel(actor, frame)
                elif op == "POP":
                    stack.pop()
                elif op == "STOP":
                    raise StopBehaviour()
                elif op == "RET":
                    raise _Return(stack.pop())
                else:
                    raise VMError(f"unknown opcode {op!r}")
        finally:
            self.charge(
                executed * BYTECODE_NS, "vm.bytecode", actor,
                {"instructions": executed},
            )
        return None

    # -- operations ----------------------------------------------------------

    @staticmethod
    def _get_field(obj: Any, name: str) -> Any:
        if isinstance(obj, StructValue):
            return obj.get(name)
        if isinstance(obj, VMActor):
            return obj.port(name)
        raise VMError(f"field access on {type(obj).__name__}")

    def _new_struct(self, name: str, values: list) -> StructValue:
        fields: dict[str, Any] = {}
        # field order comes from the compiled program's source table via
        # struct construction order — positional, as in `new settings_t(..)`
        names = self._struct_field_names(name)
        if len(values) != len(names):
            raise VMError(
                f"struct {name} expects {len(names)} fields, "
                f"got {len(values)}"
            )
        for fname, value in zip(names, values):
            fields[fname] = value
        return StructValue(name, fields)

    def _struct_field_names(self, name: str) -> list[str]:
        names = self.program.struct_fields.get(name)
        if names is None:
            raise VMError(f"unknown struct {name!r}")
        return names

    def _new_actor(self, name: str, args: list) -> VMActor:
        compiled = self.program.actors.get(name)
        if compiled is None:
            raise VMError(f"unknown actor {name!r}")
        actor = VMActor(self, compiled, args)
        self.stage.spawn(actor)
        return actor

    def _call_function(
        self, name: str, args: list, actor: Optional[VMActor]
    ) -> Any:
        fn = self.program.functions.get(name)
        if fn is None:
            raise VMError(f"unknown function {name!r}")
        frame = [None] * fn.code.nlocals
        for slot, value in zip(fn.code.param_slots, args):
            frame[slot] = value
        return self.execute(fn.code, frame, actor)

    def _native(
        self, name: str, args: list, actor: Optional[VMActor] = None
    ) -> Any:
        # `invokenative` host calls are a fault site: one aborted
        # interpreter issue (BYTECODE_NS) per failed attempt.
        self._fault_gate("native", name, BYTECODE_NS, "fault.vm.native", actor)
        if name == "printString":
            return self._print(args[0])
        if name == "printInt":
            return self._print(str(int(args[0])))
        if name == "printReal":
            return self._print(repr(float(args[0])))
        if name == "printBool":
            return self._print("true" if args[0] else "false")
        if name == "intToReal":
            return float(args[0])
        if name == "realToInt":
            return semantics.ftoi(args[0])
        if name == "length":
            return length_of(args[0])
        if name == "fillPattern1D":
            arr, mul, inc, mod, off, divisor = args
            flat = arr.host()
            is_real = arr.dtype == "float"
            for i in range(len(flat)):
                value = (i * mul + inc) % mod + off
                flat[i] = float(value) / divisor if is_real else value
            self.charge(FILL_NS * len(flat), "vm.native_fill", actor,
                        {"elements": len(flat)})
            return None
        if name == "fillPattern2D":
            arr, rm, cm, inc, mod, off, divisor = args
            rows, cols = arr.shape
            flat = arr.host()
            is_real = arr.dtype == "float"
            for i in range(rows):
                base = i * cols
                for j in range(cols):
                    value = (i * rm + j * cm + inc) % mod + off
                    flat[base + j] = (
                        float(value) / divisor if is_real else value
                    )
            self.charge(FILL_NS * len(flat), "vm.native_fill", actor,
                        {"elements": len(flat)})
            return None
        if name == "fillPatternCond2D":
            arr, rm, cm, mod, rm2, cm2, mod2, off2 = args
            rows, cols = arr.shape
            flat = arr.host()
            for i in range(rows):
                base = i * cols
                for j in range(cols):
                    if (i * rm + j * cm) % mod == 0:
                        flat[base + j] = (i * rm2 + j * cm2) % mod2 + off2
                    else:
                        flat[base + j] = 0
            self.charge(FILL_NS * len(flat), "vm.native_fill", actor,
                        {"elements": len(flat)})
            return None
        if name == "minElement":
            array = args[0]
            if not isinstance(array, ManagedArray):
                raise VMError("minElement expects an array")
            flat = array.host()
            self.charge(FILL_NS * len(flat), "vm.native_fill", actor,
                        {"elements": len(flat)})
            return min(flat)
        if name == "checksumWeighted":
            # Verification apparatus (not part of the paper's apps): a
            # runtime native, priced at sequential host speed.
            array = args[0]
            if not isinstance(array, ManagedArray):
                raise VMError("checksumWeighted expects an array")
            flat = array.host()
            total = 0.0
            for i, value in enumerate(flat):
                total += (i % 97 + 1) * value
            self.charge(FILL_NS * len(flat), "vm.native_fill", actor,
                        {"elements": len(flat)})
            if array.dtype == "int":
                return int(total)
            return total
        if name == "random":
            return self.rng.random()
        if name == "randomInt":
            return self.rng.randrange(max(1, args[0]))
        if name == "clockMillis":
            return int(self.clock.now_ns // 1_000_000)
        fn = semantics.SCALAR_BUILTINS.get(name)
        if fn is None:
            raise VMError(f"unknown native {name!r}")
        return fn(*args)

    def _print(self, text: str) -> None:
        with self._out_lock:
            self.output.append(text)
        if self.echo:
            print(text, end="")

    # -- OpenCL dispatch (the invokenative wrappers) ---------------------

    def _dispatch_kernel(self, actor: VMActor, frame: list) -> None:
        """Run *actor*'s kernel on the received data through the actor's
        :class:`KernelTarget` (which re-issues once after a device
        loss), then write the scalar fields back."""
        plan = actor.compiled.kernel_plan
        request = frame[plan.req_slot]
        data = frame[plan.data_slot]
        if not isinstance(request, StructValue):
            raise VMError("kernel request is not a struct")
        target = actor.target

        def attempt() -> None:
            env = target.env
            # The VM dispatch wrapper itself is a fault site: one aborted
            # wrapper call (api_call_ns) per failed attempt.
            self._fault_gate(
                "vm",
                plan.kernel_name,
                env.device.spec.api_call_ns,
                "fault.vm.dispatch",
                actor,
                device=env.device,
            )
            args, carriers = _kernel_args(plan, data)
            kernel, arrays = target.bind(args)
            worksize = self._int_list(request.get(plan.worksize_field))
            groupsize = self._int_list(request.get(plan.groupsize_field))
            # Host-side wrapper overhead for the automated setup calls,
            # priced between binding and launch: its place on the
            # composed timeline sets the dispatch's elapsed time.
            env.context.charge(
                "host",
                env.device.spec.api_call_ns * (1 + len(plan.params)),
                name="vm.dispatch_setup",
                args={"kernel": plan.kernel_name, "params": len(plan.params)},
            )
            target.launch(kernel, arrays, worksize, groupsize)
            # Primitives are always read back (they are 1-element arrays).
            for fname, carrier in carriers:
                data.set(fname, carrier[0])
            if not plan.in_movable:
                # Without mov the compiler generates the read-back code.
                for pspec in plan.params:
                    if pspec.kind == "array":
                        arrays[pspec.name].sync_host()

        tracer = current_tracer()
        span = nullcontext()
        if tracer.enabled:
            span = tracer.span(
                f"vm.dispatch:{plan.kernel_name}",
                track=self._track(actor),
                category="vm",
                kernel=plan.kernel_name,
                device_type=plan.device_type,
            )
        with span:
            target.run(attempt)

    @staticmethod
    def _int_list(value: Any) -> list[int]:
        if isinstance(value, ManagedArray):
            return [int(v) for v in value.host()]
        raise VMError("worksize/groupsize must be integer arrays")


def _kernel_args(plan: KernelPlan, data: Any) -> tuple[dict, list]:
    """Flatten the received data value into the ``{parameter: value}``
    dict :meth:`KernelTarget.bind` takes (paper Section 6.1.2): arrays
    as they are, inner dimensions as ints and scalar fields as
    one-element carriers, also returned as ``(field, carrier)`` pairs
    for the write-back."""
    args: dict[str, Any] = {}
    carriers: list[tuple[str, ManagedArray]] = []
    for pspec in plan.params:
        value = data.get(pspec.fname) if plan.data_is_struct else data
        if pspec.kind == "dim":
            value = value.shape[pspec.axis]
        elif pspec.kind == "scalar":
            value = ManagedArray([value], (1,), pspec.dtype)
            carriers.append((pspec.fname, value))
        args[pspec.name] = value
    return args, carriers


#: The VM's binary operators: kernel arithmetic plus Ensemble's
#: ``and`` and ``or``.
_BINOPS = {
    **semantics.BINOPS,
    "and": lambda left, right: bool(left) and bool(right),
    "or": lambda left, right: bool(left) or bool(right),
}


def _binop(op: str, left: Any, right: Any) -> Any:
    fn = _BINOPS.get(op)
    if fn is None:
        raise VMError(f"unknown operator {op!r}")
    return fn(left, right)
