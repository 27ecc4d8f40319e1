"""Device memory objects.

Buffers are typed (float / int / bool elements) rather than raw bytes —
a deliberate simplification that keeps the simulated kernels directly
executable — but all paper-relevant behaviour is preserved: buffers
live on the device side of a modelled host link, moving data across it
costs simulated time proportional to the byte size, and host code can
only observe kernel writes after an explicit read-back.

Each buffer stores its contents in one NumPy array and nowhere else.
The vectorised kernel tier operates on that array directly, and the
scalar tier indexes a ``memoryview`` of it.  Host data is converted
only when a transfer is enqueued: a write slice-assigns into the array,
and a read calls ``tolist()``.  An ``int`` or ``bool`` write into a
buffer that no kernel, copy or split has written since its last
transfer first asks :meth:`Buffer.contents_equal` whether the array
already holds the host values, and skips the conversion when it does;
a ``float`` write converts at once, since comparing costs as much.
``Buffer.data`` is a read-only snapshot.  Storage is a wall-clock
concern only; simulated costs never depend on it.
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

#: NumPy dtype of each buffer element type.
_NP_DTYPES = {"float": _np.float64, "int": _np.int64, "bool": _np.bool_}


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
        #: The buffer's one store (see :meth:`np_view`).
        self._np = _np.zeros(n_elements, dtype=_NP_DTYPES[dtype])
        #: Residency marker: ``(residency_epoch, device_id)`` of the
        #: last transfer that certified host and device copies equal,
        #: or None once a kernel, device-side copy or split has written
        #: the buffer.  Maintained by the queue layer.  A host write
        #: into a marked ``int`` or ``bool`` buffer probes
        #: :meth:`contents_equal` before it converts; the graph-level
        #: optimiser elides the transfer when the marker also matches
        #: its epoch and device.
        self._h2d_clean: Optional[tuple] = None
        if COPY_HOST_PTR in self.flags:
            if host_data is None:
                raise CLInvalidValue("COPY_HOST_PTR without host data")
            if len(host_data) != n_elements:
                raise CLInvalidValue(
                    f"host data length {len(host_data)} != {n_elements}"
                )
            self._np[:] = host_data
        context._buffers[self.ordinal] = self

    # -- storage -----------------------------------------------------------

    @property
    def data(self) -> list:
        """A snapshot of the contents as a new Python list.

        Mutating the list leaves the buffer unchanged.  Observing
        contents is a flush point for the graph-level optimiser: a
        kernel deferred for fusion executes before its output is read.
        """
        return self.np_view().tolist()

    def contents_equal(self, values) -> bool:
        """Whether the array already holds *values* bit for bit, so
        writing them would change nothing: the queue's redundant-write
        probe and the transfer-elimination pass's.

        Reads the array itself, so the answer holds whatever wrote it
        last.  A ``float`` buffer converts *values* once, as a write
        would, and compares the bits, so signed zeros, NaN payloads and
        NumPy float32 scalars all count exactly.  Other elements compare
        by Python ``==`` with ``tolist()``, which for Python numbers and
        NumPy 64-bit scalars means equal stored values (``1.0`` over an
        ``int`` 1 stores 1 again); a list is compared in place, an
        ndarray through its own ``tolist()``.
        """
        if len(values) != self.n_elements:
            return False
        if self.dtype == "float":
            host = _np.asarray(values, _np.float64).view(_np.int64)
            return bool((host == self._np.view(_np.int64)).all())
        if isinstance(values, _np.ndarray):
            values = values.tolist()
        elif type(values) is not list:
            values = list(values)
        return self._np.tolist() == values

    def np_view(self):
        """The buffer's one NumPy array, not a copy: kernels and
        transfers read and write it in place.  Flushes a kernel deferred
        for fusion first."""
        if self.context._fusion_pending:
            self.context.flush_pending()
        return self._np

    # -- geometry / lifecycle ----------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.n_elements * ELEMENT_BYTES[self.dtype]

    def check_alive(self) -> None:
        if self.released:
            raise CLMemObjectReleased(f"buffer {self.id} was released")

    def release(self) -> None:
        """Return the device memory, first running any kernel deferred
        for fusion.  Double release is an error."""
        self.check_alive()
        if self.context._fusion_pending:
            self.context.flush_pending()
        self.released = True
        self._np = _np.zeros(0, dtype=self._np.dtype)
        self.context._buffers.pop(self.ordinal, None)

    def __len__(self) -> int:
        return self.n_elements

    def __repr__(self) -> str:
        state = "released" if self.released else f"{self.n_elements}x{self.dtype}"
        return f"<Buffer {self.id} {state}>"
