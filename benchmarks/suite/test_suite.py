"""Self-tests of the benchmark (not part of the tier-1 suite):

    python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import types
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(SUITE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _prefix(name: str, seed: int, count: int = 30) -> list[int]:
    return list(itertools.islice(
        workloads.request_sizes(WORKLOADS[name], seed), count))


def test_same_seed_same_sequence_other_seed_other_sequence():
    for name in WORKLOADS:
        assert _prefix(name, 0) == _prefix(name, 0)
        assert _prefix(name, 0) != _prefix(name, 1)


def test_every_prefix_is_balanced_over_sizes():
    sizes = _prefix("docrank_api", 7, 100)
    counts = [sizes.count(s) for s in WORKLOADS["docrank_api"].sizes]
    assert max(counts) - min(counts) <= 1


class FakeClock:
    """A clock that moves only when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_self_time_on_nested_two_thread_call_tree():
    clock = FakeClock()
    rec = layers.SpanRecorder(clock=clock)

    def leaf():
        clock.advance(4)

    def inner():
        clock.advance(2)
        leaf_w()
        clock.advance(1)

    def outer():
        clock.advance(5)
        inner_w()
        clock.advance(3)

    def spawner():
        clock.advance(1)
        worker = threading.Thread(target=outer_w, name="second")
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        clock.advance(1)

    leaf_w = rec.wrap("b", "leaf", leaf)
    inner_w = rec.wrap("b", "inner", inner)
    outer_w = rec.wrap("a", "outer", outer)
    rec.wrap("c", "spawner", spawner)()
    outer_w()

    # outer: 5 + 3 own; inner: 2 + 1 own; leaf: 4 — on each thread.  The
    # spawner waits 15 on the other thread, which is not its child.
    rows = layers.function_totals(rec.spans)
    assert rows["a.outer"] == {"self_ns": 16, "incl_ns": 30, "calls": 2}
    assert rows["b.inner"] == {"self_ns": 6, "incl_ns": 14, "calls": 2}
    assert rows["b.leaf"] == {"self_ns": 8, "incl_ns": 8, "calls": 2}
    assert rows["c.spawner"] == {"self_ns": 17, "incl_ns": 17, "calls": 1}

    by_id = {s.id: s for s in rec.spans}
    for span in rec.spans:
        if span.function == "outer" or span.function == "spawner":
            assert span.parent == 0  # a new thread starts a new tree
        else:
            assert by_id[span.parent].thread == span.thread
    assert {s.thread for s in rec.spans} == {"MainThread", "second"}


_FUNCTION_KINDS = (types.FunctionType, classmethod, staticmethod)


def _bindings() -> dict[tuple[str, str], object]:
    """Every function bound in a repro module or on a repro class (other
    module globals, such as the installed platform, change per request)."""
    out = {}
    for module in layers._repro_modules():
        for attr, value in vars(module).items():
            if isinstance(value, _FUNCTION_KINDS):
                out[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    if isinstance(cvalue, _FUNCTION_KINDS):
                        out[(f"{module.__name__}:{value.__name__}", cattr)] = cvalue
    return out


def test_wrappers_patch_every_lookup_and_are_restored_by_identity():
    workloads.import_program()
    from repro.opencl import dispatch, queue

    before = _bindings()
    original = dispatch.dispatch_kernel_ns
    expected = workloads.load_expected()["mandelbrot_deep"]
    recorder = layers.SpanRecorder()
    with recorder:
        assert queue.dispatch_kernel_ns is dispatch.dispatch_kernel_ns
        assert queue.dispatch_kernel_ns is not original
        log = workloads.RequestLog(WORKLOADS["mandelbrot_deep"], expected)
        log.issue(500)
    assert log.failed == 0
    assert {s.layer for s in recorder.spans} >= {"dispatch", "queue", "program"}

    after = _bindings()
    assert [key for key in before if after.get(key) is not before[key]] == []
    wrapper_code = recorder.wrap("x", "y", lambda: None).__code__
    assert [key for key, value in after.items()
            if getattr(value, "__func__", value).__code__ is wrapper_code] == []


def test_corrupted_checksum_raises_failed_frac_not_an_exception():
    workload = WORKLOADS["mandelbrot_deep"]
    expected = dict(workloads.load_expected()[workload.name])
    expected[500] += 1
    timed = workloads.timed_loop(workload, 0, 60.0, expected, max_requests=3)
    timed["peak_rss_mb"] = 1.0
    cold = {"setup_s": 0.1, "attempted": 1, "failed": 0, "failures": []}
    measured = run.end_to_end_metrics(timed, [cold])
    # One warm-up and one timed request of size 500 fail, out of 3 + 3 + 1.
    assert measured.failed == 2
    assert measured.metrics["failed_frac"] == 2 / 7
    assert all("checksum" in f for f in timed["failures"])


def _result(**e2e) -> dict:
    base = {m.name: 10.0 for m in run.END_TO_END + run.EXACT}
    base["failed_frac"] = 0.0
    base.update(e2e)
    return {"meta": {}, "workloads": {"w": {"end_to_end": base}}}


def test_compare_exits_1_only_beyond_a_bound(tmp_path, capsys):
    bound = {m.name: m.bound for m in run.END_TO_END}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result()))
    b.write_text(json.dumps(_result(
        run_ms_p50=10.0 * (1 + bound["run_ms_p50"] / 2),
        requests_per_s=10.0 * (1 + bound["requests_per_s"] * 1.5))))
    assert run.compare(str(a), str(b)) == 0
    assert "better" in capsys.readouterr().out
    b.write_text(json.dumps(_result(
        requests_per_s=10.0 * (1 - bound["requests_per_s"] * 1.5))))
    assert run.compare(str(a), str(b)) == 1
    b.write_text(json.dumps(_result(failed_frac=0.01)))
    assert run.compare(str(a), str(b)) == 1


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/suite"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [tuple(m) for m in run.PER_LAYER]
