"""The runtime's platform/device matrix and per-actor OpenCL environments.

Paper Section 6.2.1: during runtime initialisation a single matrix is
created holding the platforms and devices available on the system, so
that there is exactly **one command queue per device** (the authors
observed read races with more).  An OpenCL actor's declaration
(``<device_index=0, device_type=CPU>``) indexes into this matrix; the
resulting :class:`OpenCLEnvironment` carries the device, context and
command queue the actor's dispatches use (Section 6.2.2).

The matrix stays process-wide, whatever configuration a thread runs
under.  A lookup gives the device's queue the mode of
``repro.current_config().out_of_order``, replacing a queue of the other
mode on the same context (buffers, programs and ledger carry over).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from ..config import current_config
from ..errors import CLInvalidDevice
from ..opencl import (
    CommandQueue,
    Context,
    CostLedger,
    Device,
    Platform,
    get_platforms,
)

DEFAULT_DEVICE_TYPE = "GPU"


@dataclass
class OpenCLEnvironment:
    """Runtime metadata attached to each OpenCL actor (Section 6.2.2)."""

    device: Device
    context: Context
    queue: CommandQueue


class DeviceMatrix:
    """Lazily-populated (platform x device) matrix of environments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._platforms: Optional[list[Platform]] = None
        self._envs: dict[tuple[int, int], OpenCLEnvironment] = {}

    def _ensure_platforms(self) -> list[Platform]:
        if self._platforms is None:
            self._platforms = get_platforms()
        return self._platforms

    def environment(
        self,
        device_type: Optional[str] = None,
        device_index: int = 0,
        platform_index: int = 0,
    ) -> OpenCLEnvironment:
        """The environment for the declared (type, index) — creating the
        context and the device's single queue on first use."""
        with self._lock:
            platforms = self._ensure_platforms()
            if not 0 <= platform_index < len(platforms):
                raise CLInvalidDevice(
                    f"platform index {platform_index} out of range"
                )
            platform = platforms[platform_index]
            wanted = device_type or DEFAULT_DEVICE_TYPE
            devices = [
                d for d in platform.devices if d.device_type == wanted
            ]
            if not devices:
                # Fall back to any device, as OpenCL runtimes commonly do
                # when the preferred type is absent.
                devices = platform.devices
            if not 0 <= device_index < len(devices):
                raise CLInvalidDevice(
                    f"device index {device_index} out of range for "
                    f"{wanted} devices on {platform.name!r}"
                )
            return self._env_locked(
                platform_index, platform, devices[device_index]
            )

    def _env_locked(
        self, platform_index: int, platform: Platform, device: Device
    ) -> OpenCLEnvironment:
        """Find or create *device*'s environment (``self._lock`` held)."""
        key = (platform_index, device.id)
        env = self._envs.get(key)
        out_of_order = current_config().out_of_order
        if env is None:
            context = Context([device], platform)
            queue = CommandQueue(context, device, out_of_order=out_of_order)
            env = OpenCLEnvironment(device, context, queue)
            self._envs[key] = env
        elif env.queue.out_of_order != out_of_order:
            env.queue.release()
            env.queue = CommandQueue(
                env.context, device, out_of_order=out_of_order
            )
        return env

    def failover_environment(self, failed: Device) -> OpenCLEnvironment:
        """An environment on a surviving device after *failed* was lost.

        :class:`~repro.actors.kernel_actor.KernelTarget` calls this when
        a dispatch raises :class:`~repro.errors.CLDeviceLost`: it
        re-targets its program and buffers at the returned environment
        and re-issues the request (see docs/RELIABILITY.md).  Prefers a
        surviving device of the same type; otherwise takes any available
        device.  Raises :class:`CLInvalidDevice` when nothing survived.
        """
        with self._lock:
            platforms = self._ensure_platforms()
            candidates: list[tuple[int, Platform, Device]] = []
            for p_index, platform in enumerate(platforms):
                for device in platform.devices:
                    if device is failed or device.lost:
                        continue
                    candidates.append((p_index, platform, device))
            candidates.sort(
                key=lambda c: c[2].device_type != failed.device_type
            )
            if not candidates:
                raise CLInvalidDevice(
                    f"no surviving device to fail over to from "
                    f"{failed.name!r}"
                )
            return self._env_locked(*candidates[0])

    def environments(self) -> list[OpenCLEnvironment]:
        with self._lock:
            return list(self._envs.values())

    def reset_ledgers(self) -> None:
        """Fresh ledgers on every environment (harness: between runs)."""
        with self._lock:
            for env in self._envs.values():
                env.context.reset_ledger()

    def combined_ledger(self) -> CostLedger:
        """Sum of all environments' ledgers (an app may span devices)."""
        total = CostLedger()
        with self._lock:
            for env in self._envs.values():
                led = env.context.ledger
                total.h2d_ns += led.h2d_ns
                total.d2h_ns += led.d2h_ns
                total.kernel_ns += led.kernel_ns
                total.host_ns += led.host_ns
                total.api_calls += led.api_calls
                total.kernel_launches += led.kernel_launches
                total.bytes_to_device += led.bytes_to_device
                total.bytes_from_device += led.bytes_from_device
        return total

    def reset(self) -> None:
        """Drop every environment (tests / platform swaps)."""
        with self._lock:
            for env in self._envs.values():
                env.queue.release()
                env.context.release()
            self._envs.clear()
            self._platforms = None


_matrix = DeviceMatrix()


def device_matrix() -> DeviceMatrix:
    """The process-wide matrix (initialised lazily)."""
    return _matrix


def get_environment(
    device_type: Optional[str] = None,
    device_index: int = 0,
    platform_index: int = 0,
) -> OpenCLEnvironment:
    """The declared device's environment, as a
    :class:`~repro.actors.kernel_actor.KernelTarget` resolves it."""
    return _matrix.environment(device_type, device_index, platform_index)


def reset_device_matrix() -> None:
    """Release and drop every environment of the runtime device matrix."""
    _matrix.reset()
