"""Bytecode definitions for the Ensemble VM.

A simple stack machine, analogous to the paper's modified-JVM class
files (Figure 1): each constructor, behaviour, function and the boot
block compiles to a :class:`Code` object; OpenCL actors additionally
carry a :class:`KernelPlan` with the generated kernel-C source string
stored alongside the bytecode — exactly where the paper's compiler puts
its generated C string (Section 6.1.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

# Opcode reference (stack effects; TOS = top of stack):
#  CONST c          -> push c
#  LOADL slot       -> push locals[slot]
#  STOREL slot      -> locals[slot] = pop
#  LOADSTATE name   -> push actor state field
#  STORESTATE name  -> state[name] = pop
#  LOADCHAN name    -> push own interface port
#  GETFIELD name    -> obj = pop; push obj.field
#  SETFIELD name    -> obj = pop; value = pop; obj.field = value
#  GETINDEX         -> idx = pop; obj = pop; push obj[idx]
#  SETINDEX         -> idx = pop; obj = pop; value = pop; obj[idx] = value
#  BINOP op         -> r = pop; l = pop; push l op r
#  UNOP op          -> v = pop; push op v
#  JUMP t / JUMPF t -> unconditional / if-false jump to instruction t
#  NEWARRAY (ndims, dtype) -> fill = pop; dims = pop*ndims (reversed)
#  NEWSTRUCT (name, argc)  -> args popped (reversed); push StructValue
#  NEWCHAN (dir, movable)  -> push fresh channel end
#  NEWACTOR (name, argc)   -> args popped; spawn actor; push handle
#  SEND movable     -> chan = pop; value = pop; send
#  RECEIVE          -> chan = pop; push received value
#  CONNECT          -> target = pop; source = pop; connect source->target
#  CALL (name, argc)   -> user function call
#  NATIVE (name, argc) -> runtime native call
#  DISPATCH         -> OpenCL kernel dispatch (plan attached to actor)
#  POP / STOP / RET

Instr = tuple[str, Any]


@dataclass
class Code:
    """One compiled code object."""

    name: str
    instrs: list[Instr] = field(default_factory=list)
    nlocals: int = 0
    param_slots: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instrs)


@dataclass
class ParamSpec:
    """How to build one kernel argument from the received data value:
    from struct field *fname* when the plan's data is a struct, else
    from the data value itself (a bare array).

    kind:
      'array'  — ManagedArray -> device buffer
      'dim'    — int: shape[axis] of the array (flattening)
      'scalar' — scalar struct field, passed as a 1-element array
                 (paper Section 6.1.2) and written back after
    """

    kind: str
    name: str  # kernel parameter name
    fname: str = ""  # struct field it derives from
    axis: int = 0
    dtype: str = "float"


@dataclass
class KernelPlan:
    """Everything the VM needs to dispatch an OpenCL actor's kernel."""

    kernel_name: str
    kernel_source: str
    device_type: str
    device_index: int
    platform_index: int
    req_slot: int
    data_slot: int
    data_is_struct: bool
    params: list[ParamSpec]
    worksize_field: str
    groupsize_field: str
    in_movable: bool


@dataclass
class CompiledActor:
    name: str
    interface: str
    channel_specs: list[tuple[str, str, bool, int]]  # (name, dir, mov, buffer)
    state_names: list[str]
    state_init: Code
    constructor: Code
    behaviour: Code
    kernel_plan: Optional[KernelPlan] = None


@dataclass
class CompiledFunction:
    name: str
    code: Code
    nparams: int


@dataclass
class CompiledProgram:
    stage_name: str
    actors: dict[str, CompiledActor]
    functions: dict[str, CompiledFunction]
    boot: Code
    struct_fields: dict[str, list[str]] = field(default_factory=dict)
    source: str = ""
