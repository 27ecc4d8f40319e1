"""Managed arrays with lazy device residency (paper Section 6.2.3).

A :class:`ManagedArray` is the runtime representation of an Ensemble
array: a flat host store plus an optional device-resident buffer.  The
coherence protocol reproduces the paper's lazy evaluation:

* sending a *movable* array into a kernel actor moves only a reference;
  if the data is already resident on the target device's context, no
  transfer happens at all;
* after a kernel writes a buffer, the device copy becomes authoritative
  (``host_valid = False``) and **no read-back is generated** — exactly
  the effect of marking the kernel's in channel ``mov``;
* the data is only read back (and the device memory returned) when host
  code actually touches it, or when it arrives at an OpenCL actor bound
  to a *different* context.

Multi-dimensional arrays are stored flat in row-major order with the
shape kept alongside — the same flattening the Ensemble compiler applies
when passing arrays to kernels (Section 6.1.2).
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from ..errors import RuntimeFault
from ..opencl import fusion
from ..opencl.memory import Buffer
from ..opencl.queue import CommandQueue
from ..trace import current_tracer

_array_ids = itertools.count(1)

_ZERO = {"float": 0.0, "int": 0, "bool": False}


class ManagedArray:
    """A host array that may transparently live on an OpenCL device."""

    def __init__(
        self,
        flat: list,
        shape: Sequence[int],
        dtype: str = "float",
    ) -> None:
        expected = 1
        for dim in shape:
            expected *= dim
        if len(flat) != expected:
            raise RuntimeFault(
                f"flat length {len(flat)} does not match shape {tuple(shape)}"
            )
        self.id = next(_array_ids)
        self._flat = flat
        self.shape = tuple(shape)
        self.dtype = dtype
        self._buffer: Optional[Buffer] = None
        self._queue: Optional[CommandQueue] = None
        self._host_valid = True
        self._device_valid = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, shape: Sequence[int] | int, dtype: str = "float") -> "ManagedArray":
        if isinstance(shape, int):
            shape = (shape,)
        n = 1
        for dim in shape:
            n *= dim
        return cls([_ZERO[dtype]] * n, shape, dtype)

    @classmethod
    def from_nested(cls, nested: Sequence, dtype: str = "float") -> "ManagedArray":
        """Build from a (possibly nested) Python list, row-major."""
        shape: list[int] = []
        probe = nested
        while isinstance(probe, (list, tuple)):
            shape.append(len(probe))
            probe = probe[0] if probe else None
        flat: list = []

        def _flatten(node, depth):
            if depth == len(shape):
                flat.append(node)
                return
            if len(node) != shape[depth]:
                raise RuntimeFault("ragged nested array")
            for child in node:
                _flatten(child, depth + 1)

        _flatten(nested, 0)
        return cls(flat, shape, dtype)

    # -- geometry ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._flat) if self._host_valid else (
            self._buffer.n_elements if self._buffer else len(self._flat)
        )

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def _flat_index(self, key) -> int:
        if isinstance(key, int):
            if self.ndim != 1:
                raise RuntimeFault(
                    f"scalar index into {self.ndim}-D array; use a tuple"
                )
            if not 0 <= key < self.shape[0]:
                raise RuntimeFault(
                    f"index {key} out of range for length {self.shape[0]}"
                )
            return key
        if len(key) != self.ndim:
            raise RuntimeFault(f"index {key} rank != array rank {self.ndim}")
        idx = 0
        for dim, k in zip(self.shape, key):
            if not 0 <= k < dim:
                raise RuntimeFault(f"index {key} out of bounds for {self.shape}")
            idx = idx * dim + k
        return idx

    # -- residency protocol -------------------------------------------------

    @property
    def on_device(self) -> bool:
        return self._device_valid

    @property
    def host_valid(self) -> bool:
        return self._host_valid

    def to_device(self, queue: CommandQueue, copy: bool = True) -> Buffer:
        """Ensure the data is resident on *queue*'s context; return the
        buffer.  Already-resident data in the same context moves nothing
        (the lazy-evaluation win).  ``copy=False`` allocates without the
        host->device transfer — used for buffers the kernel only writes,
        matching what hand-written OpenCL host code does."""
        tracer = current_tracer()
        if self._device_valid and self._buffer is not None:
            if self._buffer.context is queue.context:
                if tracer.enabled:
                    tracer.count("residency.hit")
                self._queue = queue
                return self._buffer
            # Different context: pull back through the old link first
            # (OpenCL moves data within one context, not across contexts —
            # paper Section 6.2.3).
            if tracer.enabled:
                tracer.count("residency.cross_context")
            self._sync_host_from_device()
            self._release_buffer()
        if not self._host_valid:
            raise RuntimeFault("array has neither a valid host nor device copy")
        if self._buffer is not None:
            # A device copy kept warm across an earlier host read (the
            # graph-level optimiser's round-trip collapse).  Reusable
            # only in the same context at the right size; the re-upload
            # below is elided by the queue layer when the contents are
            # still the ones the read-back certified.
            if (
                not self._buffer.released
                and self._buffer.context is queue.context
                and self._buffer.n_elements == len(self._flat)
            ):
                if tracer.enabled:
                    tracer.count("residency.warm")
                if copy:
                    queue.enqueue_write_buffer(self._buffer, self._flat)
                else:
                    self._buffer.data[:] = self._flat
                    self._buffer._h2d_clean = None
                self._queue = queue
                self._device_valid = True
                return self._buffer
            self._release_buffer()
        buf = Buffer(queue.context, len(self._flat), self.dtype)
        if copy:
            if tracer.enabled:
                tracer.count("residency.miss")
            queue.enqueue_write_buffer(buf, self._flat)
        else:
            if tracer.enabled:
                tracer.count("residency.alloc")
            buf.data[:] = self._flat  # contents land with the kernel write
        self._buffer = buf
        self._queue = queue
        self._device_valid = True
        return buf

    def mark_device_written(self) -> None:
        """A kernel stored into the buffer: the device copy is now the
        only truth, and no read-back is scheduled (lazy)."""
        if not self._device_valid:
            raise RuntimeFault("mark_device_written without a device copy")
        self._host_valid = False

    def sync_host(self, release_device: bool = True) -> None:
        """Materialise the host copy (reading back if required).

        Host access returns the device memory per the paper's protocol,
        so ``release_device`` defaults to True.  With the graph-level
        optimiser enabled the device copy is kept *warm* instead of
        freed (host stays authoritative): if the array travels back to
        the same context unmodified, the read-back -> re-upload round
        trip collapses — the queue layer elides the redundant h2d
        transfer against the copy the read-back certified.  A copy on a
        lost device is never kept (its queue cannot accept the
        re-upload), so device-loss failover always re-prices the full
        transfer on the surviving device.
        """
        if not self._host_valid:
            self._sync_host_from_device()
        if release_device:
            if (
                fusion.enabled()
                and self._buffer is not None
                and not self._buffer.released
                and self._queue is not None
                and not self._queue.device.lost
            ):
                self._device_valid = False
            else:
                self._release_buffer()

    def _sync_host_from_device(self) -> None:
        if self._buffer is None or self._queue is None:
            if not self._host_valid:
                raise RuntimeFault("lost both host and device copies")
            return
        if not self._host_valid:
            if len(self._flat) != self._buffer.n_elements:
                self._flat = [_ZERO[self.dtype]] * self._buffer.n_elements
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count("residency.readback")
            self._queue.enqueue_read_buffer(self._buffer, self._flat)
            self._host_valid = True

    def _release_buffer(self) -> None:
        if self._buffer is not None and not self._buffer.released:
            self._buffer.release()
        self._buffer = None
        self._device_valid = False

    def release_device(self) -> None:
        """Read back (if the device copy is the truth) and free it."""
        self.sync_host(release_device=True)

    # -- host access (triggers read-back) -------------------------------

    def host(self) -> list:
        """The flat host list (synchronising first)."""
        self.sync_host()
        return self._flat

    def __getitem__(self, key):
        self.sync_host()
        return self._flat[self._flat_index(key)]

    def __setitem__(self, key, value) -> None:
        self.sync_host()
        self._flat[self._flat_index(key)] = value

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        self.sync_host()
        if self.ndim == 1:
            return iter(self._flat)
        raise RuntimeFault("iterate multi-D arrays via explicit indices")

    def tolist(self):
        """The data as (nested) Python lists."""
        self.sync_host()
        if self.ndim == 1:
            return list(self._flat)

        def build(depth: int, base: int, stride: int):
            dim = self.shape[depth]
            inner = stride // dim
            if depth == self.ndim - 1:
                return self._flat[base : base + dim]
            return [
                build(depth + 1, base + i * inner, inner) for i in range(dim)
            ]

        total = len(self._flat)
        return build(0, 0, total)

    def clone(self) -> "ManagedArray":
        """Deep host-side copy (used for non-movable channel sends)."""
        self.sync_host(release_device=False)
        return ManagedArray(list(self._flat), self.shape, self.dtype)

    def __repr__(self) -> str:
        where = []
        if self._host_valid:
            where.append("host")
        if self._device_valid:
            where.append("device")
        return (
            f"<ManagedArray #{self.id} shape={self.shape} {self.dtype} "
            f"on={'+'.join(where) or 'nowhere'}>"
        )
