#!/usr/bin/env python3
"""Layered wall-clock benchmark of the reproduction.

Five seeded closed-loop workloads (see workloads.py), each measured in
fresh interpreters: end-to-end metrics with tracing off, then a separate
traced pass that reports per-layer self time and call counts from
wrappers installed around each layer's public functions (layers.py).

    python3 benchmarks/suite/run.py                      # all workloads, both passes
    python3 benchmarks/suite/run.py --smoke              # 5 requests each, < 30 s
    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/suite/run.py compare A.json B.json
    python3 benchmarks/suite/run.py --regen-expected

With ``--workload`` the last line of output is one JSON object holding
``correct``, ``attempted``, ``failed`` and the end-to-end (``--trace 0``)
or per-layer (``--trace 1``) metrics.  Without it every workload runs
and a result file is written (``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SUITE))

import layers  # noqa: E402
from workloads import WORKLOADS, regen_expected  # noqa: E402


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float  # worst allowed relative change against a baseline


#: End-to-end metrics, measured with tracing off (BENCHMARK.json lists
#: these with the same units and bounds).  The timing bounds are as wide
#: as the noise of a shared 2-vCPU virtual machine needs: its speed
#: drifts by tens of percent over an hour (see README.md).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_ms_p50", "ms", "lower", 0.25),
    Metric("run_ms_p90", "ms", "lower", 0.25),
    Metric("requests_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: End-to-end metrics kept in result files and checked by ``compare``
#: only: both are 0 or constant by design, so they are correctness gates
#: rather than measurements.
EXACT = (
    Metric("failed_frac", "fraction", "lower", 0.0),
    Metric("sim_elapsed_us_p50", "sim_us", "lower", 1e-6),
)


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str


_HIGHER = ("kcache.hit_ratio", "dispatch.vec_frac", "dispatch.compact",
           "dispatch.cse_hits")

#: Per-layer metrics of the traced pass, all per-request means.
PER_LAYER = tuple(
    LayerMetric(name, unit, "higher" if name in _HIGHER else "lower")
    for name, unit in (
        [(f"{layer}.wait_ms" if layer in layers.WAIT_LAYERS else f"{layer}.self_ms", "ms")
         for layer in layers.LAYERS]
        + [(f"{layer}.calls", "count") for layer in layers.LAYERS]
        + [("kcache.hit_ratio", "fraction"), ("dispatch.vec_frac", "fraction"),
           ("dispatch.compact", "count"), ("dispatch.cse_hits", "count"),
           ("unattributed_ms", "ms"), ("trace_overhead_frac", "fraction")]
    )
)

DEFAULT_SECONDS = 20
#: Cold starts per run, half before and half after the timed loop, so
#: that a few seconds of machine noise hit few of them.
COLD_STARTS = 6
TRACED_REQUESTS = 40
SMOKE_REQUESTS = 5
#: Wall-clock budget of one single-workload run, below the 180 s a
#: caller may wait for it.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A worker process failed or ran out of time."""


def worker_env() -> dict[str, str]:
    """The environment of every worker: ``src/`` importable, no on-disk
    compile cache, and bytecode cached inside the checkout."""
    env = dict(os.environ)
    env.pop("REPRO_KCACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; returns its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for worker {' '.join(args)}")
    try:
        proc = subprocess.run(
            [sys.executable, str(SUITE / "worker.py"), *args],
            capture_output=True, text=True, env=worker_env(), cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Measured(NamedTuple):
    metrics: dict[str, float]
    attempted: int
    failed: int
    detail: dict


def measure_end_to_end(name: str, seed: int, seconds: float,
                       cold_starts: int = COLD_STARTS,
                       max_requests: Optional[int] = None) -> Measured:
    """The timed loop in one worker, between *cold_starts* fresh ones."""
    deadline = time.monotonic() + RUN_BUDGET_S
    args = ["timed", name, str(seed), str(seconds)]
    if max_requests is not None:
        args.append(str(max_requests))
    colds = [run_worker(["cold", name], deadline)
             for _ in range(cold_starts // 2)]
    timed = run_worker(args, deadline)
    colds += [run_worker(["cold", name], deadline)
              for _ in range(cold_starts - cold_starts // 2)]
    return end_to_end_metrics(timed, colds)


def end_to_end_metrics(timed: dict, colds: list[dict]) -> Measured:
    """Fold the timed worker's and the cold starts' outputs."""
    attempted = timed["attempted"] + sum(c["attempted"] for c in colds)
    failed = timed["failed"] + sum(c["failed"] for c in colds)
    walls = timed["wall_ms"] or [float("nan")]
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in colds),
        "run_ms_p50": statistics.median(walls),
        "run_ms_p90": p90(walls) if len(walls) > 1 else walls[0],
        "requests_per_s": len(timed["wall_ms"]) / timed["loop_s"],
        "peak_rss_mb": timed["peak_rss_mb"],
        "failed_frac": failed / attempted,
        "sim_elapsed_us_p50": statistics.median(timed["sim_us"] or [float("nan")]),
    }
    detail = {
        "requests": len(timed["wall_ms"]),
        "numpy": timed.get("numpy"),
        "failures": timed["failures"] + [f for c in colds for f in c["failures"]],
    }
    return Measured(metrics, attempted, failed, detail)


def per_layer_metrics(replay: dict) -> dict[str, float]:
    """Per-request means of the traced replay (see README.md)."""
    traced, untraced = replay["traced"]["wall_ms"], replay["untraced"]["wall_ms"]
    n = max(len(traced), 1)
    functions = replay["functions"]
    totals = layers.layer_totals(functions)
    out: dict[str, float] = {}
    work_ms = 0.0
    for layer, row in totals.items():
        if layer in layers.WAIT_LAYERS:
            out[f"{layer}.wait_ms"] = row["incl_ns"] / 1e6 / n
        else:
            out[f"{layer}.self_ms"] = row["self_ns"] / 1e6 / n
            work_ms += out[f"{layer}.self_ms"]
        out[f"{layer}.calls"] = row["calls"] / n
    kc = replay["kcache"]
    lookups = kc["hits"] + kc["misses"]
    out["kcache.hit_ratio"] = kc["hits"] / lookups if lookups else 0.0
    # The multi-device path always runs the per-item engine, so only
    # single-device dispatches that were not demoted count as vectorised.
    counters = replay["counters"]
    calls = totals["dispatch"]["calls"]
    single = functions.get("dispatch.dispatch_kernel_ns", {}).get("calls", 0)
    vectorised = single - counters.get("dispatch.fallback", 0.0)
    out["dispatch.vec_frac"] = vectorised / calls if calls else 0.0
    out["dispatch.compact"] = counters.get("dispatch.compact", 0.0) / n
    out["dispatch.cse_hits"] = counters.get("dispatch.cse.hits", 0.0) / n
    traced_ms = statistics.fmean(traced) if traced else 0.0
    untraced_ms = statistics.fmean(untraced) if untraced else 0.0
    out["unattributed_ms"] = traced_ms - work_ms
    out["trace_overhead_frac"] = traced_ms / untraced_ms - 1 if untraced_ms else 0.0
    return out


def measure_per_layer(name: str, seed: int,
                      trace_out: Optional[Path] = None) -> Measured:
    """The traced replay of the first requests, in a fresh interpreter."""
    args = ["traced", name, str(seed), str(TRACED_REQUESTS)]
    if trace_out is not None:
        args.append(str(trace_out))
    out = run_worker(args, time.monotonic() + RUN_BUDGET_S)
    passes = (out["traced"], out["untraced"])
    return Measured(
        per_layer_metrics(out),
        sum(p["attempted"] for p in passes),
        sum(p["failed"] for p in passes),
        {"failures": [f for p in passes for f in p["failures"]]},
    )


# -- output -----------------------------------------------------------------

UNITS = {m.name: m.unit for m in END_TO_END + EXACT + PER_LAYER}


def print_metrics(title: str, metrics: dict[str, float]) -> None:
    print(title)
    for key, value in metrics.items():
        print(f"  {key:<22} {value:>14.6g} {UNITS[key]}")


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def trace_path(args: argparse.Namespace, name: str) -> Optional[Path]:
    """Where the traced pass of *name* writes its Chrome trace, if asked."""
    if not args.trace_out:
        return None
    out_dir = Path(args.trace_out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / f"{name}.trace.json"


def run_single(args: argparse.Namespace) -> int:
    """The single-workload form: one JSON result line."""
    if args.trace:
        measured = measure_per_layer(args.workload, args.seed,
                                     trace_path(args, args.workload))
        names = [m.name for m in PER_LAYER]
    else:
        measured = measure_end_to_end(args.workload, args.seed, args.seconds)
        names = [m.name for m in END_TO_END]
    for failure in measured.detail["failures"]:
        print(f"FAILED {args.workload}: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": measured.metrics[name], "unit": UNITS[name]}
                    for name in names},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, both passes (or the smoke form); writes --out."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    meta = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit()}
    results: dict[str, dict] = {}
    failed = 0
    for name in names:
        if args.smoke:
            e2e = measure_end_to_end(name, args.seed, args.seconds, cold_starts=1,
                                     max_requests=SMOKE_REQUESTS)
        else:
            e2e = measure_end_to_end(name, args.seed, args.seconds)
        meta["numpy"] = e2e.detail["numpy"]
        entry = {"end_to_end": e2e.metrics, "requests": e2e.detail["requests"],
                 "attempted": e2e.attempted, "failed": e2e.failed,
                 "failures": e2e.detail["failures"]}
        print_metrics(f"{name}: end to end ({e2e.detail['requests']} timed "
                      f"requests, seed {args.seed})", e2e.metrics)
        if not args.smoke:
            traced = measure_per_layer(name, args.seed, trace_path(args, name))
            entry["per_layer"] = traced.metrics
            entry["attempted"] += traced.attempted
            entry["failed"] += traced.failed
            entry["failures"] += traced.detail["failures"]
            print_metrics(f"{name}: per layer (traced replay of "
                          f"{TRACED_REQUESTS} requests)", traced.metrics)
        for failure in entry["failures"]:
            print(f"  FAILED: {failure}")
        failed += entry["failed"]
        results[name] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"meta": meta, "workloads": results}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return 1 if failed else 0


# -- compare ----------------------------------------------------------------


def verdict(metric: Metric, old: float, new: float) -> str:
    """``within``, ``worse`` or ``better`` than *old* by *metric*'s bound."""
    change = new - old if metric.better == "lower" else old - new
    limit = metric.bound * abs(old)
    if change > limit:
        return "worse"
    if change < -limit:
        return "better"
    return "within"


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric); exit 1 if any is worse."""
    with open(path_a) as fh:
        a = json.load(fh)["workloads"]
    with open(path_b) as fh:
        b = json.load(fh)["workloads"]
    worse = 0
    print(f"{'workload':<16} {'metric':<20} {'A':>12} {'B':>12} "
          f"{'delta':>9} {'bound':>8}  verdict")
    for name in a:
        if name not in b:
            print(f"{name:<16} missing from {path_b}")
            worse += 1
            continue
        for metric in END_TO_END + EXACT:
            old = a[name]["end_to_end"][metric.name]
            new = b[name]["end_to_end"][metric.name]
            result = verdict(metric, old, new)
            worse += result == "worse"
            delta = f"{(new - old) / old:+.1%}" if old else f"{new - old:+.3g}"
            print(f"{name:<16} {metric.name:<20} {old:>12.6g} {new:>12.6g} "
                  f"{delta:>9} {metric.bound * 100:>7.4g}%  {result}")
    return 1 if worse else 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 0 end-to-end, 1 per-layer metrics")
    parser.add_argument("--trace-out", help="directory for Chrome-trace JSON "
                        "of the traced pass, one file per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="1 cold start, 5 requests per workload, no traced pass")
    parser.add_argument("--out", default=str(SUITE / "results" / "latest.json"),
                        help="result file of a multi-workload run")
    parser.add_argument("--regen-expected", action="store_true",
                        help="recompute expected.json from the run_python oracles")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the program is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    try:
        if args.regen_expected:
            sys.path.insert(0, str(SRC))
            print(json.dumps(regen_expected(), indent=2))
            return 0
        if args.workload and args.trace is not None and not args.smoke:
            return run_single(args)
        return run_all(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
