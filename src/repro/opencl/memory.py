"""Device memory objects.

Buffers are typed (float / int / bool elements) rather than raw bytes —
a deliberate simplification that keeps the simulated kernels directly
executable — but all paper-relevant behaviour is preserved: buffers
live on the device side of a modelled host link, moving data across it
costs simulated time proportional to the byte size, and host code can
only observe kernel writes after an explicit read-back.

Storage is two-tiered for host-path speed: the canonical Python list
(every legacy consumer reads/writes ``buf.data``) plus a lazily
materialised NumPy mirror used by the vectorised kernel execution path.
Whichever tier was written last is authoritative; the other is synced
on demand.  The tiers are a wall-clock optimisation only — simulated
costs never depend on which tier executed an access.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as _np

from ..errors import CLInvalidValue, CLMemObjectReleased
from .context import Context
from .costmodel import ELEMENT_BYTES

_buffer_ids = itertools.count(1)

# Memory flags (subset of the OpenCL CL_MEM_* flags).
READ_WRITE = "READ_WRITE"
READ_ONLY = "READ_ONLY"
WRITE_ONLY = "WRITE_ONLY"
COPY_HOST_PTR = "COPY_HOST_PTR"

_ZERO = {"float": 0.0, "int": 0, "bool": False}


def np_dtype(dtype: str):
    """NumPy dtype for a buffer element type."""
    return {"float": _np.float64, "int": _np.int64, "bool": _np.bool_}[dtype]


class Buffer:
    """A device-resident 1-D array of scalars.

    Only the caller's references keep a buffer alive: its context
    tracks it weakly, released or not.
    """

    def __init__(
        self,
        context: Context,
        n_elements: int,
        dtype: str = "float",
        flags: Sequence[str] = (READ_WRITE,),
        host_data: Optional[Sequence] = None,
    ) -> None:
        if dtype not in ELEMENT_BYTES:
            raise CLInvalidValue(f"bad buffer dtype {dtype!r}")
        if n_elements < 0:
            raise CLInvalidValue("buffer size must be non-negative")
        self.id = next(_buffer_ids)
        #: Creation index within the owning context.  Unlike ``id``
        #: (process-global, monotonic), the ordinal restarts at 0 for
        #: every context, which makes it a run-stable identity — the
        #: fault-injection layer keys transfer decisions on it so a
        #: replayed run reproduces the same injections (faults.py).
        self.ordinal = next(context._buffer_ordinals)
        self.context = context
        self.dtype = dtype
        self.n_elements = n_elements
        self.flags = tuple(flags)
        self.released = False
        self._np = None
        self._np_fresh = False
        self._list_fresh = True
        #: Transfer-elimination marker: ``(residency_epoch, device_id)``
        #: of the last clean transfer that certified host and device
        #: copies equal, or None once a kernel (or device-side copy) has
        #: written the buffer.  Maintained by the queue layer; consulted
        #: only when the graph-level optimiser is enabled.
        self._h2d_clean: Optional[tuple] = None
        if COPY_HOST_PTR in self.flags:
            if host_data is None:
                raise CLInvalidValue("COPY_HOST_PTR without host data")
            if len(host_data) != n_elements:
                raise CLInvalidValue(
                    f"host data length {len(host_data)} != {n_elements}"
                )
            self._list = list(host_data)
        else:
            self._list = [_ZERO[dtype]] * n_elements
        context._buffers[self.ordinal] = self

    # -- two-tier storage --------------------------------------------------

    @property
    def data(self) -> list:
        """The buffer contents as the canonical Python list.

        Callers may mutate the returned list in place (the substrate
        itself does), so any still-fresh NumPy mirror is conservatively
        invalidated here.  Observing contents is also a flush point for
        the graph-level optimiser: a kernel deferred for fusion must
        execute before its output can be read.
        """
        if self.context._fusion_pending:
            self.context.flush_pending()
        if not self._list_fresh:
            self._list[:] = self._np.tolist()
            self._list_fresh = True
        self._np_fresh = False
        return self._list

    @data.setter
    def data(self, values: list) -> None:
        if self.context._fusion_pending:
            self.context.flush_pending()
        self._list = values
        self._list_fresh = True
        self._np = None
        self._np_fresh = False

    def contents_equal(self, values) -> bool:
        """Whether the buffer currently holds exactly *values*.

        A read-only probe for the transfer-elimination pass: unlike the
        ``data`` property it does not invalidate the NumPy mirror, so
        checking an upload for redundancy never deoptimises a chain of
        vectorised dispatches.
        """
        if not self._list_fresh:
            self._list[:] = self._np.tolist()
            self._list_fresh = True
        if len(values) != len(self._list):
            return False
        return list(values) == self._list

    def np_view(self):
        """The contents as a NumPy array (authoritative until the list
        tier is touched).  Callers that write through the view must call
        :meth:`mark_np_written`."""
        if self.context._fusion_pending:
            self.context.flush_pending()
        if not self._np_fresh:
            self._np = _np.asarray(self._list, dtype=np_dtype(self.dtype))
            self._np_fresh = True
        return self._np

    def mark_np_written(self) -> None:
        """A vectorised kernel stored through the NumPy mirror: the list
        tier is stale until the next ``.data`` access."""
        self._list_fresh = False

    # -- geometry / lifecycle ----------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.n_elements * ELEMENT_BYTES[self.dtype]

    def check_alive(self) -> None:
        if self.released:
            raise CLMemObjectReleased(f"buffer {self.id} was released")

    def release(self) -> None:
        """Return the device memory.  Double release is an error."""
        self.check_alive()
        self.released = True
        self.data = []
        self.context._buffers.pop(self.ordinal, None)

    def __len__(self) -> int:
        return self.n_elements

    def __repr__(self) -> str:
        state = "released" if self.released else f"{self.n_elements}x{self.dtype}"
        return f"<Buffer {self.id} {state}>"
