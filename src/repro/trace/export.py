"""Chrome trace-event JSON export.

Produces the ``traceEvents`` format understood by Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing``: complete events
(``ph: "X"``) for spans, counter events (``ph: "C"``) for counter
samples, and metadata events (``ph: "M"``) naming processes and
threads.

Track names of the form ``"group/detail"`` map to one *process* per
group (``device``, ``vm``, ``actor``, ...) and one *thread* per full
track, so e.g. every device gets its own named row under the "device"
process.  Timestamps are microseconds (the format's unit), converted
from the tracer's simulated nanoseconds.
"""

from __future__ import annotations

import json
from typing import Union

from .tracer import NullTracer, Tracer


def _split_track(track: str) -> tuple[str, str]:
    group, sep, detail = track.partition("/")
    if not sep:
        return track, track
    return group, detail or track


def chrome_trace_events(tracer: Union[Tracer, NullTracer]) -> list[dict]:
    """The run as a list of Chrome trace-event dicts."""
    pids: dict[str, int] = {}
    tids: dict[str, int] = {}
    events: list[dict] = []

    def ids_for(track: str) -> tuple[int, int]:
        group, detail = _split_track(track)
        if group not in pids:
            pids[group] = len(pids) + 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pids[group],
                    "tid": 0,
                    "args": {"name": group},
                }
            )
        if track not in tids:
            tids[track] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pids[group],
                    "tid": tids[track],
                    "args": {"name": detail},
                }
            )
        return pids[group], tids[track]

    for span in list(tracer.spans):
        pid, tid = ids_for(span.track)
        event = {
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": span.ts_ns / 1000.0,
            "dur": span.dur_ns / 1000.0,
            "pid": pid,
            "tid": tid,
            "args": dict(span.args, cost=span.cost),
        }
        events.append(event)
    for sample in list(tracer.counter_samples):
        pid, tid = ids_for(sample.track)
        events.append(
            {
                "name": sample.name,
                "cat": "counter",
                "ph": "C",
                "ts": sample.ts_ns / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": {"value": sample.value},
            }
        )
    return events


def chrome_trace(tracer: Union[Tracer, NullTracer]) -> dict:
    """The full JSON-object form (Perfetto accepts both forms);
    ``otherData["config"]`` is the configuration the tracer was created
    under, with the fault plan as its ``repr``."""
    config = tracer.config
    plan = None if config.faults is None else repr(config.faults)
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.trace",
            "summary_ns": tracer.summary(),
            "counters": tracer.counters(),
            "config": dict(vars(config), faults=plan),
        },
    }


def write_chrome_trace(
    tracer: Union[Tracer, NullTracer], path
) -> None:
    """Serialise the run to *path* as Perfetto-loadable JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer), fh, indent=1)
        fh.write("\n")
