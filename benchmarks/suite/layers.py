"""Outside-in layer tracing: timing wrappers around each layer's public
functions, installed for the traced pass and removed afterwards.

Nothing under ``src/`` is edited.  A wrapper replaces a function at every
place it is looked up: a method on its class, a module-level function in
every ``repro`` module that holds it (``from .dispatch import
dispatch_kernel_ns`` in ``repro.opencl.queue`` makes a second binding
that must be patched too).  Each call becomes a span

    (id, layer, function, start_ns, end_ns, parent id, thread, request)

kept in memory.  The parent is the innermost wrapped call still open on
the same thread, so a layer's self time is its spans' durations minus
their children's, summed over threads.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple, Optional

#: Layer name -> the functions it owns, as ``module:qualname`` (a
#: trailing ``*`` matches every method with that prefix).
LAYERS: dict[str, tuple[str, ...]] = {
    "kernelc": ("repro.kernelc:build",),
    "ensemble": ("repro.ensemble:compile_source",),
    "kcache": ("repro.kcache:get_or_build", "repro.kcache:get_or_build_module"),
    "vm": ("repro.runtime.vm:EnsembleVM.execute",),
    "actors": (
        "repro.actors.channel:InPort.receive",
        "repro.actors.channel:OutPort.send",
    ),
    "residency": (
        "repro.runtime.residency:ManagedArray.to_device",
        "repro.runtime.residency:ManagedArray.sync_host",
        "repro.runtime.residency:ManagedArray.host",
    ),
    "program": (
        "repro.opencl.program:Program.shared",
        "repro.opencl.program:Program.build",
        "repro.opencl.program:Program.create_kernel",
    ),
    "queue": (
        "repro.opencl.queue:CommandQueue.enqueue_*",
        "repro.opencl.queue:CommandQueue.finish",
        "repro.opencl.context:Context.enqueue_nd_range",
    ),
    "dispatch": (
        "repro.opencl.dispatch:dispatch_kernel_ns",
        "repro.opencl.dispatch:multi_device_kernel_ns",
    ),
    "costmodel": (
        "repro.opencl.costmodel:DeviceSpec.kernel_ns_from_group_warps",
        "repro.opencl.costmodel:DeviceSpec.kernel_ns",
        "repro.opencl.costmodel:group_warp_costs",
    ),
}

#: Layers whose time is blocked waiting, not work: reported inclusive
#: and left out of the self-time sum.
WAIT_LAYERS = ("actors",)


class Span(NamedTuple):
    id: int
    layer: str
    function: str
    start_ns: int
    end_ns: int
    parent: int  # 0 for a span with no wrapped caller on its thread
    thread: str
    request: Optional[int]


def _repro_modules() -> list[Any]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def _module_bindings(value: Any) -> list[tuple[Any, str]]:
    """Every ``(module, attribute)`` in ``repro`` bound to *value*."""
    return [(module, attr) for module in _repro_modules()
            for attr, bound in list(vars(module).items()) if bound is value]


def _resolve(target: str) -> list[tuple[Any, str]]:
    """``module:qualname`` -> the ``(owner, attribute)`` pairs to patch."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in qualname:
        return _module_bindings(getattr(module, qualname))
    cls_name, _, pattern = qualname.partition(".")
    cls = getattr(module, cls_name)
    return [(cls, attr) for attr in sorted(vars(cls))
            if fnmatch.fnmatchcase(attr, pattern)]


class SpanRecorder:
    """Installs the layer wrappers and collects their spans."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        #: Request id stamped on spans; set by the single client loop.
        self.request: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (owner, attribute, original, wrapper) per patched binding.
        self._patches: list[tuple[Any, str, Any, Any]] = []

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """A timing wrapper around *fn* recording spans as *layer*."""
        spans, ids, local, clock = self.spans, self._ids, self._local, self.clock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, layer, name, start, end, parent,
                                  threading.current_thread().name,
                                  self.request))

        return wrapper

    def _wrap_attr(self, layer: str, raw: Any, name: str) -> Any:
        """Wrap a class or module attribute, keeping method kinds."""
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self.wrap(layer, name, raw.__func__))
        return self.wrap(layer, name, raw)

    def install(self) -> None:
        """Wrap every function named in :data:`LAYERS`."""
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        for layer, targets in LAYERS.items():
            for target in targets:
                sites = _resolve(target)
                if not sites:
                    raise LookupError(f"{target} matches nothing to wrap")
                wrapped: dict[int, Any] = {}
                for owner, attr in sites:
                    raw = vars(owner)[attr]
                    if id(raw) not in wrapped:
                        name = getattr(raw, "__func__", raw).__name__
                        wrapped[id(raw)] = self._wrap_attr(layer, raw, name)
                    self._patches.append((owner, attr, raw, wrapped[id(raw)]))
                    setattr(owner, attr, wrapped[id(raw)])

    def uninstall(self) -> None:
        """Put every original back, including bindings a module made of
        a wrapper while it was installed."""
        # _patches keeps every wrapper alive until the scan below is done,
        # so no id in `originals` can be reused by another object.
        originals = {}
        for owner, attr, raw, wrapper in reversed(self._patches):
            originals[id(wrapper)] = raw
            setattr(owner, attr, raw)
        for module in _repro_modules():
            for attr, bound in list(vars(module).items()):
                if id(bound) in originals:
                    setattr(module, attr, originals[id(bound)])
        self._patches.clear()

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()


# -- arithmetic over spans --------------------------------------------------


def self_ns(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> its duration minus the durations of its children."""
    spans = list(spans)
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent:
            child_ns[span.parent] += span.end_ns - span.start_ns
    return {s.id: s.end_ns - s.start_ns - child_ns[s.id] for s in spans}


def function_totals(spans: Iterable[Span]) -> dict[str, dict[str, int]]:
    """``layer.function`` -> summed self ns, inclusive ns and calls."""
    spans = list(spans)
    own = self_ns(spans)
    out: dict[str, dict[str, int]] = {}
    for span in spans:
        row = out.setdefault(f"{span.layer}.{span.function}",
                             {"self_ns": 0, "incl_ns": 0, "calls": 0})
        row["self_ns"] += own[span.id]
        row["incl_ns"] += span.end_ns - span.start_ns
        row["calls"] += 1
    return out


def layer_totals(functions: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    """Fold :func:`function_totals` rows into one row per layer."""
    out = {layer: {"self_ns": 0, "incl_ns": 0, "calls": 0} for layer in LAYERS}
    for key, row in functions.items():
        layer = key.split(".", 1)[0]
        for field, value in row.items():
            out[layer][field] += value
    return out


def chrome_trace(spans: Iterable[Span]) -> dict:
    """Chrome trace-event JSON (load in Perfetto or chrome://tracing)."""
    spans = sorted(spans, key=lambda s: s.start_ns)
    origin = spans[0].start_ns if spans else 0
    tids: dict[str, int] = {}
    events = []
    for span in spans:
        tid = tids.setdefault(span.thread, len(tids) + 1)
        events.append({
            "name": span.function, "cat": span.layer, "ph": "X",
            "ts": (span.start_ns - origin) / 1e3,
            "dur": (span.end_ns - span.start_ns) / 1e3,
            "pid": 1, "tid": tid,
            "args": {"span": span.id, "parent": span.parent,
                     "request": span.request},
        })
    for thread, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "ts": 0, "pid": 1,
                       "tid": tid, "args": {"name": thread}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
