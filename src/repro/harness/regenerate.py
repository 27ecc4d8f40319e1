"""Regenerate the paper's entire evaluation section as one text report.

Run as::

    python -m repro.harness.regenerate [--trace-dir DIR]

This is the same code path the benchmark suite uses; the output is the
source of EXPERIMENTS.md's measured numbers.  Everything is priced by
the deterministic cost model, so the report is byte-identical across
machines and runs.  With ``--trace-dir`` every figure variant's Chrome
trace (Perfetto-loadable JSON) is written next to the report data, and
each figure's segment totals are cross-checked against the raw spans.
"""

from __future__ import annotations

import argparse
import os
from typing import Optional

from ..apps import lud
from ..config import configure
from ..metrics import render_table1
from ..runtime.oclenv import device_matrix
from .figures import build_figure_by_id, scaled_devices
from .report import render_figure

FIGURES = ("3a", "3b", "3c", "3d", "3e")


def regenerate_table1() -> str:
    return render_table1()


def regenerate_figures(trace_dir: Optional[str] = None) -> list[str]:
    return [
        render_figure(build_figure_by_id(figure, trace_dir=trace_dir))
        for figure in FIGURES
    ]


def regenerate_figure4(n: int = 32) -> str:
    with scaled_devices(0.08, 2048 / n):
        actor = lud.run_actors(n, "GPU", movable=True)
        ledger = device_matrix().combined_ledger()
        api = lud.run_api(n, "GPU")
    ratio = actor.total_ns / api.total_ns
    return (
        f"Figure 4 (LUD pipeline topology, n={n}): kernel-actor pipeline "
        f"vs sequential C dispatch = {ratio:.2f}x total; "
        f"{ledger.kernel_launches} launches, "
        f"{ledger.bytes_to_device} B to device, "
        f"{ledger.bytes_from_device} B back (the matrix crosses once in "
        "each direction — movability keeps it resident between kernels)"
    )


def regenerate_movability_ablation(n: int = 32) -> str:
    with scaled_devices(0.08, 1.0, 2048 / n):
        with_mov = lud.run_ensemble(n, "GPU", movable=True)
        mov_ledger = device_matrix().combined_ledger()
    with scaled_devices(0.08, 1.0, 2048 / n):
        without_mov = lud.run_ensemble(n, "GPU", movable=False)
        nomov_ledger = device_matrix().combined_ledger()
    speedup = without_mov.total_ns / with_mov.total_ns
    return (
        f"Movability ablation (LUD n={n}): {speedup:.1f}x slower without "
        f"mov (paper: ~36x at n=2048); bytes transferred "
        f"{nomov_ledger.bytes_to_device + nomov_ledger.bytes_from_device} "
        f"vs {mov_ledger.bytes_to_device + mov_ledger.bytes_from_device}"
    )


def regenerate_overlap_ablation(n: int = 16) -> str:
    """Out-of-order queue ablation on the Figure-4 LUD pipeline.

    Shared-nothing mode (movable=False) re-transfers between pipeline
    hops, so consecutive iterations carry independent commands; the
    out-of-order scheduler overlaps them while every priced total stays
    identical (docs/ARCHITECTURE.md section 2).  Reported on two axes:
    the queue-local makespan (origin 0 at the first command) and the
    composed end-to-end timeline, whose ``elapsed`` is critical-path
    wall time for the whole run — host API work included — with every
    elapsed nanosecond attributed to transfer / compute / api / overlap
    / idle.
    """
    from ..opencl.context import current_clock

    with scaled_devices(0.08, 1.0, 2048 / n), configure(out_of_order=False):
        base = lud.run_actors(n, "GPU", movable=False)
        (env,) = device_matrix().environments()
        in_order_makespan = env.queue.makespan_ns
        in_order_elapsed = current_clock().timeline.elapsed_ns
    with scaled_devices(0.08, 1.0, 2048 / n), configure(out_of_order=True):
        ooo = lud.run_actors(n, "GPU", movable=False)
        (env,) = device_matrix().environments()
        ooo_makespan = env.queue.makespan_ns
        overlap = env.queue.overlap_ns
        ooo_elapsed = current_clock().timeline.elapsed_ns
        attribution = current_clock().timeline.attribution()
    assert ooo.result == base.result
    assert ooo.breakdown == base.breakdown
    saved = 1.0 - ooo_makespan / in_order_makespan
    e2e_saved = 1.0 - ooo_elapsed / in_order_elapsed
    attributed = ", ".join(
        f"{kind} {attribution[kind]:.0f}"
        for kind in ("transfer", "compute", "api", "overlap", "idle")
    )
    return (
        f"Out-of-order ablation (LUD pipeline n={n}, shared-nothing): "
        f"queue makespan {in_order_makespan:.0f} ns in-order vs "
        f"{ooo_makespan:.0f} ns out-of-order ({saved:.1%} shorter, "
        f"{overlap:.0f} ns overlapped); end-to-end elapsed "
        f"{in_order_elapsed:.0f} ns in-order vs {ooo_elapsed:.0f} ns "
        f"out-of-order ({e2e_saved:.1%} shorter end to end; out-of-order "
        f"elapsed attributed as {attributed} ns); checksum and all "
        "ledger segments identical in both modes"
    )


def regenerate_all(trace_dir: Optional[str] = None) -> str:
    parts = [
        "=" * 72,
        "Table 1: difference between single-threaded and concurrent code",
        "=" * 72,
        regenerate_table1(),
        "",
    ]
    for text in regenerate_figures(trace_dir):
        parts += ["=" * 72, text, ""]
    parts += ["=" * 72, regenerate_figure4(), ""]
    parts += ["=" * 72, regenerate_movability_ablation(), ""]
    parts += ["=" * 72, regenerate_overlap_ablation(), ""]
    return "\n".join(parts)


def main() -> None:  # pragma: no cover - exercised via CLI
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation section"
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="also write per-variant Chrome trace JSON files here "
        "(load them at https://ui.perfetto.dev)",
    )
    args = parser.parse_args()
    if args.trace_dir is not None and (
        os.path.exists(args.trace_dir) and not os.path.isdir(args.trace_dir)
    ):
        parser.error(f"--trace-dir {args.trace_dir!r} is not a directory")
    print(regenerate_all(trace_dir=args.trace_dir))


if __name__ == "__main__":  # pragma: no cover
    main()
