"""Runtime value representations for the Ensemble VM.

* Arrays are :class:`~repro.runtime.residency.ManagedArray` (flat store
  + shape + optional device residency).  Multi-dimensional indexing is
  performed through lightweight :class:`ArrayView` windows so that
  ``d.a[y][i]`` works without materialising row objects.
* Structs are :class:`StructValue` (ordered field dict).  Copying a
  struct for a channel send duplicates data fields but passes channel
  ends by reference.
"""

from __future__ import annotations

from typing import Any

from ..errors import RuntimeFault
from .mov import copy_message
from .residency import ManagedArray


class ArrayView:
    """A window into a ManagedArray fixed on a prefix of indices."""

    __slots__ = ("array", "prefix")

    def __init__(self, array: ManagedArray, prefix: tuple[int, ...]) -> None:
        self.array = array
        self.prefix = prefix

    @property
    def ndim(self) -> int:
        return self.array.ndim - len(self.prefix)

    def __len__(self) -> int:
        return self.array.shape[len(self.prefix)]

    def index(self, i: int):
        """One more index applied; returns a scalar or a deeper view."""
        full = self.prefix + (i,)
        if len(full) == self.array.ndim:
            return self.array[full]
        return ArrayView(self.array, full)

    def set(self, i: int, value: Any) -> None:
        full = self.prefix + (i,)
        if len(full) != self.array.ndim:
            raise RuntimeFault(
                f"assignment into a partial {self.ndim}-D array view"
            )
        self.array[full] = value

    def __repr__(self) -> str:
        return f"<ArrayView {self.array!r} prefix={self.prefix}>"


def index_value(obj: Any, i: int):
    """Runtime dispatch for GETINDEX."""
    if isinstance(obj, ManagedArray):
        if obj.ndim == 1:
            return obj[i]
        return ArrayView(obj, (i,))
    if isinstance(obj, ArrayView):
        return obj.index(i)
    raise RuntimeFault(f"cannot index into {type(obj).__name__}")


def store_value(obj: Any, i: int, value: Any) -> None:
    """Runtime dispatch for SETINDEX."""
    if isinstance(obj, ManagedArray):
        if obj.ndim != 1:
            raise RuntimeFault("assignment into a partial multi-D array")
        obj[i] = value
        return
    if isinstance(obj, ArrayView):
        obj.set(i, value)
        return
    raise RuntimeFault(f"cannot index-assign into {type(obj).__name__}")


def length_of(obj: Any) -> int:
    """The Ensemble ``length()`` of an array or array view."""
    if isinstance(obj, (ManagedArray, ArrayView)):
        return len(obj)
    raise RuntimeFault(f"length() of {type(obj).__name__}")


class StructValue:
    """An Ensemble struct instance."""

    __slots__ = ("type_name", "fields")

    def __init__(self, type_name: str, fields: dict[str, Any]) -> None:
        self.type_name = type_name
        self.fields = fields

    def get(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise RuntimeFault(
                f"struct {self.type_name} has no field {name!r}"
            ) from None

    def set(self, name: str, value: Any) -> None:
        if name not in self.fields:
            raise RuntimeFault(
                f"struct {self.type_name} has no field {name!r}"
            )
        self.fields[name] = value

    def clone(self) -> "StructValue":
        return StructValue(
            self.type_name,
            {name: copy_message(value) for name, value in self.fields.items()},
        )

    def __repr__(self) -> str:
        return f"<{self.type_name} {list(self.fields)}>"
