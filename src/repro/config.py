"""One scoped runtime configuration.

The settings that change what a run computes or how it is scheduled
live in one frozen :class:`RuntimeConfig`.  Code reads it with
:func:`current_config` and changes it only for a block::

    with repro.configure(fusion=True, faults=FaultPlan([...])):
        ...

The block restores the configuration it found, exception or not.  The
value lives in a :class:`contextvars.ContextVar`, so one thread's block
changes nothing for another, and :meth:`repro.actors.Stage.start` runs
each actor thread in a copy of the starting thread's context.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
from typing import TYPE_CHECKING, Iterator, Optional

from .errors import CLInvalidValue

if TYPE_CHECKING:
    from .opencl.faults import FaultPlan


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """The fault plan every gate consults (``None``: no injection), the
    graph-level optimiser (:mod:`repro.opencl.fusion`) and the device
    matrix's queue mode (:mod:`repro.runtime.oclenv`).  The defaults
    reproduce every golden figure; ill-typed values raise
    :class:`~repro.errors.CLInvalidValue`."""

    faults: Optional["FaultPlan"] = None
    fusion: bool = False
    out_of_order: bool = False

    def __post_init__(self) -> None:
        if self.faults is not None:
            from .opencl.faults import FaultPlan

            if not isinstance(self.faults, FaultPlan):
                raise CLInvalidValue(
                    f"faults must be a FaultPlan or None, got {self.faults!r}"
                )
        for name in ("fusion", "out_of_order"):
            if not isinstance(getattr(self, name), bool):
                raise CLInvalidValue(f"{name} must be a bool")


_current = contextvars.ContextVar("repro_config", default=RuntimeConfig())


def current_config() -> RuntimeConfig:
    """The configuration in effect in the calling thread's context."""
    return _current.get()


@contextlib.contextmanager
def configure(**changes) -> Iterator[RuntimeConfig]:
    """Run the block under the current configuration with *changes*
    applied (an unknown name raises :class:`TypeError`), then restore
    the previous one."""
    token = _current.set(dataclasses.replace(_current.get(), **changes))
    try:
        yield _current.get()
    finally:
        _current.reset(token)
