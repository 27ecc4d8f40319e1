"""Golden regression test: every simulated nanosecond in the paper
figures is frozen.

``golden_figures.json`` captures the per-bar totals and segment
nanoseconds of Figures 3a-3e plus both ablation studies (A-mov
movability, A-vm interpreter cost).  The fixture was captured *before*
the host-path performance overhaul (kernel cache, batched/vectorised
NDRange execution) landed and is compared exactly — no tolerance — so
any execution-tier or caching change that perturbs priced results fails
here immediately.

The one intended cost-model change of the overhaul — re-acquiring an
already-built (source, device) program in the same run charges a cheap
``load_program_binary`` API call instead of a full recompile — is not
visible in any figure: the Ensemble compiler emits distinct kernel
source per OpenCL actor, and the figure workloads build each distinct
source once per run.  ``test_program_sharing.py`` covers the paths
where the new rule does apply.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import configure
from repro.apps import lud, matmul
from repro.harness import scaled_devices
from repro.harness.figures import build_figure_by_id
from repro.runtime import device_matrix
from repro.runtime import vm as vm_module

GOLDEN_PATH = Path(__file__).parent / "golden_figures.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("figure_id", ["3a", "3b", "3c", "3d", "3e"])
def test_figure_bars_unchanged(golden: dict, figure_id: str) -> None:
    result = build_figure_by_id(figure_id)
    want = golden["figures"][figure_id]
    assert result.baseline_ns == want["baseline_ns"]
    got_labels = [bar.label for bar in result.bars]
    # The fixture was dumped with sort_keys=True, so compare as sets.
    assert len(got_labels) == len(want["bars"])
    assert set(got_labels) == set(want["bars"])
    for bar in result.bars:
        expected = want["bars"][bar.label]
        if bar.failed:
            assert expected == {"note": bar.note}
            continue
        assert bar.raw_total_ns == expected["raw_total_ns"], bar.label
        segments_ns = {
            seg: frac * result.baseline_ns
            for seg, frac in bar.segments.items()
        }
        assert segments_ns == expected["segments_ns"], bar.label


def test_movability_ablation_unchanged(golden: dict) -> None:
    n = 32
    want = golden["ablations"]["movability"]
    for movable, key in ((True, "mov"), (False, "nomov")):
        with scaled_devices(0.08, 1.0, 2048 / n):
            outcome = lud.run_ensemble(n, "GPU", movable=movable)
            ledger = device_matrix().combined_ledger()
        assert outcome.total_ns == want[key]["total_ns"]
        assert outcome.breakdown == want[key]["breakdown"]
        assert ledger.bytes_to_device == want[key]["bytes_to_device"]
        assert ledger.bytes_from_device == want[key]["bytes_from_device"]


def test_overlap_e2e_ablation_unchanged(golden: dict) -> None:
    """The end-to-end variant of the out-of-order ablation is frozen:
    queue makespans, composed elapsed time and its exact wall-time
    attribution, per mode.  The run uses actor threads, so this also
    pins down that composed-timeline placement is schedule-determined,
    not thread-timing-determined."""
    from repro.opencl.context import current_clock

    want = golden["ablations"]["overlap_e2e"]
    n = want["n"]
    for key, out_of_order in (("in_order", False),
                              ("out_of_order", True)):
        with (
            scaled_devices(0.08, 1.0, 2048 / n),
            configure(out_of_order=out_of_order),
        ):
            lud.run_actors(n, "GPU", movable=False)
            (env,) = device_matrix().environments()
            timeline = current_clock().timeline
            expected = want[key]
            assert env.queue.makespan_ns == expected["makespan_ns"]
            assert env.queue.overlap_ns == expected["overlap_ns"]
            assert timeline.elapsed_ns == expected["elapsed_ns"]
            assert timeline.attribution() == expected["attribution"]


def test_vm_cost_ablation_unchanged(golden: dict) -> None:
    want = golden["ablations"]["vm_cost"]
    for bytecode_ns in (1.0, 4.0, 16.0):
        original = vm_module.BYTECODE_NS
        vm_module.BYTECODE_NS = bytecode_ns
        try:
            with scaled_devices(0.08, 16.0):
                ens = matmul.run_ensemble(32, "GPU")
                api = matmul.run_api(32, "GPU")
        finally:
            vm_module.BYTECODE_NS = original
        entry = want[str(bytecode_ns)]
        assert ens.total_ns == entry["ensemble_total_ns"]
        assert api.total_ns == entry["api_total_ns"]
        assert ens.breakdown == entry["ensemble_breakdown"]
        assert api.breakdown == entry["api_breakdown"]
        assert ens.total_ns / api.total_ns == entry["ratio"]
