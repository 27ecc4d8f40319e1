"""Movable (`mov`) values: ownership transfer instead of deep copy.

In an actor language, data sent along a channel must normally be
duplicated to preserve shared-nothing semantics.  Ensemble's ``mov``
qualifier (paper Section 4) instead transfers a *reference*, and the
compiler proves the sender never touches the value again until it is
reassigned.  The reproduction enforces the same property two ways:

* statically, in the Ensemble type checker's movability analysis; and
* dynamically, here: a :class:`Movable` wrapper raises
  :class:`~repro.errors.MovedValueError` on any access after its
  ownership was surrendered to a channel.

Movability is also what makes the paper's key OpenCL optimisation
possible — leaving data on the device between kernels — because only a
reference (which may point at device-resident data) travels.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, TypeVar

from ..errors import MovedValueError

_move_counter = itertools.count(1)

T = TypeVar("T")


class Movable:
    """A single-owner box around a payload.

    ``value`` reads the payload (raising after a move); ``surrender()``
    is called by the channel machinery on send and invalidates this box;
    the receiving side re-wraps the payload in a fresh box.
    """

    __slots__ = ("_payload", "_moved", "move_id")

    def __init__(self, payload: Any) -> None:
        self._payload = payload
        self._moved = False
        self.move_id = next(_move_counter)

    @property
    def moved(self) -> bool:
        return self._moved

    @property
    def value(self) -> Any:
        if self._moved:
            raise MovedValueError(
                "movable value accessed after being sent on a channel"
            )
        return self._payload

    def surrender(self) -> Any:
        """Give up ownership; returns the payload for re-wrapping."""
        if self._moved:
            raise MovedValueError("movable value sent twice")
        payload = self._payload
        self._moved = True
        self._payload = None
        return payload

    def reassign(self, payload: Any) -> None:
        """Assigning to a moved variable makes it usable again (paper:
        'not accessed again until it is assigned to')."""
        self._payload = payload
        self._moved = False

    def __repr__(self) -> str:
        if self._moved:
            return f"<Movable #{self.move_id} (moved)>"
        return f"<Movable #{self.move_id} {type(self._payload).__name__}>"


def mov(payload: Any) -> Movable:
    """Mark *payload* as movable (the ``mov`` qualifier)."""
    if isinstance(payload, Movable):
        return payload
    return Movable(payload)


def is_movable(value: Any) -> bool:
    """Whether *value* is a :class:`Movable` (``mov``) message box."""
    return isinstance(value, Movable)


def copy_message(value: Any) -> Any:
    """Duplicate a non-movable message to preserve shared-nothing
    semantics.  Movables are not handled here — channels route them
    through :meth:`Movable.surrender` instead."""
    if getattr(value, "__by_reference__", False):
        # Channel ends (and structs carrying them) are runtime entities,
        # not data: they travel by reference so receivers can use them.
        return value
    if hasattr(value, "clone") and callable(value.clone):
        return value.clone()
    if isinstance(value, (int, float, bool, str, bytes, type(None))):
        return value
    if isinstance(value, dict):
        return {k: copy_message(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(copy_message(v) for v in value)
    if isinstance(value, list):
        return [copy_message(v) for v in value]
    return copy.deepcopy(value)
