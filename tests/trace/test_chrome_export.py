"""Chrome trace-event export: schema shape and file round-trip."""

import json

import pytest

from repro import configure
from repro.opencl.faults import FaultPlan, FaultSpec
from repro.trace import Tracer, chrome_trace, chrome_trace_events, tracing
from repro.trace.export import write_chrome_trace


def make_tracer():
    now = [0.0]
    tr = Tracer(clock_fn=lambda: now[0])
    tr.cost_span("h2d", 100.0, name="WRITE_BUFFER", track="device/gpu",
                 ts_ns=0.0, args={"nbytes": 64})
    tr.cost_span("kernel", 1000.0, name="NDRANGE_KERNEL",
                 track="device/gpu", ts_ns=100.0)
    now[0] = 1100.0
    with tr.span("behaviour:a-1", track="thread/home/a-1",
                 category="actor"):
        now[0] = 1150.0
    tr.count("residency.hit", track="counters")
    return tr


class TestEventSchema:
    def test_every_event_has_required_keys(self):
        events = chrome_trace_events(make_tracer())
        assert events
        for event in events:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in event, f"{event} missing {key!r}"

    def test_span_events_are_complete_events_in_microseconds(self):
        events = chrome_trace_events(make_tracer())
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        kernel = next(e for e in xs if e["name"] == "NDRANGE_KERNEL")
        assert kernel["ts"] == pytest.approx(0.1)   # 100 ns -> 0.1 us
        assert kernel["dur"] == pytest.approx(1.0)  # 1000 ns -> 1 us
        assert kernel["cat"] == "kernel"
        assert kernel["args"]["cost"] is True

    def test_counter_events(self):
        events = chrome_trace_events(make_tracer())
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "residency.hit"
        assert counters[0]["args"]["value"] == 1.0

    def test_metadata_names_processes_and_threads(self):
        events = chrome_trace_events(make_tracer())
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"device", "thread", "counters"} <= names
        assert "gpu" in names          # thread_name of device/gpu
        assert "home/a-1" in names     # thread_name of thread/home/a-1

    def test_tracks_sharing_a_group_share_a_pid(self):
        tr = Tracer(clock_fn=lambda: 0.0)
        tr.cost_span("h2d", 1.0, track="device/gpu")
        tr.cost_span("d2h", 1.0, track="device/cpu")
        tr.cost_span("host", 1.0, track="host/api")
        xs = [e for e in chrome_trace_events(tr) if e["ph"] == "X"]
        by_track = {e["name"]: e for e in xs}
        assert by_track["h2d"]["pid"] == by_track["d2h"]["pid"]
        assert by_track["h2d"]["tid"] != by_track["d2h"]["tid"]
        assert by_track["host"]["pid"] != by_track["h2d"]["pid"]


class TestFileRoundTrip:
    def test_write_and_reload(self, tmp_path):
        tr = make_tracer()
        path = tmp_path / "run.trace.json"
        write_chrome_trace(tr, path)
        data = json.loads(path.read_text())
        assert isinstance(data["traceEvents"], list)
        assert data["otherData"]["summary_ns"] == tr.summary()
        assert data["otherData"]["counters"] == {"residency.hit": 1.0}
        for event in data["traceEvents"]:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in event

    def test_full_object_form(self):
        doc = chrome_trace(make_tracer())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["generator"] == "repro.trace"


class TestConfigHeader:
    def test_default_tracer_names_the_default_configuration(self):
        doc = json.loads(json.dumps(chrome_trace(Tracer())))
        assert doc["otherData"]["config"] == {
            "faults": None, "fusion": False, "out_of_order": False,
        }

    def test_tracer_names_the_configuration_it_was_created_under(self):
        plan = FaultPlan([FaultSpec("h2d")], seed=7)
        with configure(fusion=True, faults=plan):
            tr = Tracer()
        doc = json.loads(json.dumps(chrome_trace(tr)))
        assert doc["otherData"]["config"] == {
            "faults": repr(plan), "fusion": True, "out_of_order": False,
        }


class TestLiveRunExport:
    def test_traced_kernel_run_exports_valid_json(self, tmp_path):
        """End to end: a real actor-API kernel run produces a loadable
        Chrome trace with device, vm/thread and counter rows."""
        from repro.apps import matmul

        with tracing() as tr:
            matmul.run_actors(n=8)
        path = tmp_path / "matmul.trace.json"
        write_chrome_trace(tr, path)
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "NDRANGE_KERNEL"
                   for e in events)
        assert any(e["ph"] == "C" for e in events)
        for event in events:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in event
