#!/usr/bin/env python
"""Priced ablation of the graph-level dispatch optimiser.

Runs the Figure-4 LUD pipeline (flat-API form) and the docrank corpus
twice — fusion off, then on (``repro.configure(fusion=True)``) —
entirely in simulated time, and gates the optimiser's contract:

* **bit-identical outputs** — checksum and full buffer contents agree
  between the runs;
* **strictly fewer priced kernel launches** on the fused LUD pipeline
  (pivot fuses into scale every iteration: 2 launches per step instead
  of 3);
* **lower priced totals and lower end-to-end ``elapsed_ns``** on both
  workloads (docrank's win is the transfer-elimination pass: repeats
  2..R re-upload the unchanged corpus and weights).

Every number here is simulated and deterministic, so the committed
``BENCH_fusion.json`` is machine-independent and the assertions gate
CI without a tolerance band.

Usage::

    python benchmarks/bench_fusion.py           # full sizes
    python benchmarks/bench_fusion.py --smoke   # CI-sized
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import configure  # noqa: E402
from repro import opencl as cl  # noqa: E402
from repro.apps.docrank import runners as docrank  # noqa: E402
from repro.apps.lud.runners import generate  # noqa: E402
from repro.apps.lud.sources import KERNEL_SOURCE  # noqa: E402
from repro.opencl.context import fresh_clock  # noqa: E402
from repro.trace import tracing  # noqa: E402

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_fusion.json"

SIZES = {
    "full": {"lud_n": 64, "docrank": {"ndocs": 256, "v": 48, "repeats": 8}},
    "smoke": {"lud_n": 32, "docrank": {"ndocs": 64, "v": 16, "repeats": 4}},
}


def lud_api(n: int) -> dict:
    """The Figure-4 factorisation through the object layer, keeping the
    context alive so the raw ledger (priced launch count) is visible."""
    device = cl.find_device("GPU")
    context = cl.Context([device])
    queue = cl.CommandQueue(context, device)
    program = cl.Program(context, KERNEL_SOURCE).build()
    k_pivot = program.create_kernel("lud_pivot")
    k_scale = program.create_kernel("lud_scale")
    k_update = program.create_kernel("lud_update")

    m = generate(n)
    buf_m = cl.Buffer(context, n * n)
    buf_piv = cl.Buffer(context, 1)
    queue.enqueue_write_buffer(buf_m, m)
    local = [8, 8] if n % 8 == 0 else None
    for k in range(n):
        for kernel in (k_pivot, k_scale):
            kernel.set_arg(0, buf_m)
            kernel.set_arg(1, buf_piv)
            kernel.set_arg(2, k)
            kernel.set_arg(3, n)
        k_update.set_arg(0, buf_m)
        k_update.set_arg(1, k)
        k_update.set_arg(2, n)
        queue.enqueue_nd_range_kernel(k_pivot, [1], [1])
        queue.enqueue_nd_range_kernel(k_scale, [n])
        queue.enqueue_nd_range_kernel(k_update, [n, n], local)
    out = [0.0] * (n * n)
    queue.enqueue_read_buffer(buf_m, out)
    queue.finish()
    ledger = context.ledger
    return {
        "m": out,
        "kernel_launches": ledger.kernel_launches,
        "priced_ns": (
            ledger.h2d_ns + ledger.d2h_ns + ledger.kernel_ns
            + ledger.host_ns
        ),
    }


def measure(run, fused: bool) -> dict:
    cl.reset_platforms()
    with configure(fusion=fused), fresh_clock() as clock, tracing() as tracer:
        out = run()
        out["elapsed_ns"] = clock.timeline.elapsed_ns
        out["counters"] = {
            name: tracer.counter(name)
            for name in (
                "dispatch.fuse",
                "dispatch.fuse.reject",
                "dispatch.xfer_elim",
            )
        }
    return out


def bench_lud(n: int) -> dict:
    base = measure(lambda: lud_api(n), fused=False)
    fused = measure(lambda: lud_api(n), fused=True)
    assert fused["m"] == base["m"], "fused LUD output diverged"
    assert fused["kernel_launches"] < base["kernel_launches"], (
        f"fused LUD did not reduce priced launches "
        f"({fused['kernel_launches']} vs {base['kernel_launches']})"
    )
    assert fused["elapsed_ns"] < base["elapsed_ns"], (
        "fused LUD did not lower elapsed_ns"
    )
    assert fused["priced_ns"] < base["priced_ns"], (
        "fused LUD did not lower the priced total"
    )
    return {
        "n": n,
        "unfused": _public(base),
        "fused": _public(fused),
        "launches_saved": base["kernel_launches"] - fused["kernel_launches"],
    }


def bench_docrank(params: dict) -> dict:
    base = measure(lambda: {"outcome": docrank.run_api(**params)},
                   fused=False)
    fused = measure(lambda: {"outcome": docrank.run_api(**params)},
                    fused=True)
    assert fused["outcome"].result == base["outcome"].result, (
        "fused docrank output diverged"
    )
    assert fused["outcome"].total_ns < base["outcome"].total_ns, (
        "fused docrank did not lower the priced total"
    )
    assert fused["counters"]["dispatch.xfer_elim"] > 0, (
        "docrank repeats did not elide any redundant upload"
    )
    return {
        "params": params,
        "unfused": {"total_ns": round(base["outcome"].total_ns, 1),
                    "elapsed_ns": round(base["elapsed_ns"], 1)},
        "fused": {"total_ns": round(fused["outcome"].total_ns, 1),
                  "elapsed_ns": round(fused["elapsed_ns"], 1),
                  "counters": fused["counters"]},
    }


def _public(entry: dict) -> dict:
    return {
        "kernel_launches": entry["kernel_launches"],
        "priced_ns": round(entry["priced_ns"], 1),
        "elapsed_ns": round(entry["elapsed_ns"], 1),
        "counters": entry["counters"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized problems")
    parser.add_argument("--output", default=str(RESULTS_PATH),
                        help="result file (default: %(default)s)")
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    sizes = SIZES[mode]

    lud_entry = bench_lud(sizes["lud_n"])
    print(f"lud n={lud_entry['n']}: launches "
          f"{lud_entry['unfused']['kernel_launches']} -> "
          f"{lud_entry['fused']['kernel_launches']}, elapsed "
          f"{lud_entry['unfused']['elapsed_ns']} -> "
          f"{lud_entry['fused']['elapsed_ns']} ns")

    docrank_entry = bench_docrank(sizes["docrank"])
    print(f"docrank {docrank_entry['params']}: priced total "
          f"{docrank_entry['unfused']['total_ns']} -> "
          f"{docrank_entry['fused']['total_ns']} ns "
          f"({docrank_entry['fused']['counters']['dispatch.xfer_elim']} "
          f"transfers elided)")

    results = {"schema": 1, "modes": {}}
    if Path(args.output).exists():
        with open(args.output) as fh:
            results = json.load(fh)
    results.setdefault("modes", {})[mode] = {
        "lud_pipeline": lud_entry,
        "docrank": docrank_entry,
    }
    with open(args.output, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    print("fusion gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
