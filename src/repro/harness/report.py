"""Text rendering of figures and tables (the paper's charts as ASCII)."""

from __future__ import annotations

from .figures import SEGMENTS, FigureResult

_SEGMENT_LABEL = {
    "to_device": "to device",
    "from_device": "from device",
    "kernel": "kernel",
    "overhead": "overhead",
}


def render_figure(result: FigureResult, width: int = 46) -> str:
    """One figure as a table of normalised stacked segments plus a bar."""
    lines = [
        f"Figure {result.figure}: {result.title}",
        f"(normalised to Ensemble GPU = 1.00; params {result.params})",
        "",
        f"{'variant':<16}" + "".join(
            f"{_SEGMENT_LABEL[s]:>12}" for s in SEGMENTS
        ) + f"{'total':>10}",
    ]
    peak = max((bar.total for bar in result.bars), default=1.0) or 1.0
    for bar in result.bars:
        if bar.failed:
            lines.append(f"{bar.label:<16}  -- {bar.note}")
            continue
        cells = "".join(
            f"{bar.segments.get(s, 0.0):>12.3f}" for s in SEGMENTS
        )
        lines.append(f"{bar.label:<16}{cells}{bar.total:>10.2f}")
    lines.append("")
    for bar in result.bars:
        if bar.failed:
            lines.append(f"{bar.label:<16}|  (no result: {bar.note})")
            continue
        filled = max(1, round(width * bar.total / peak))
        lines.append(f"{bar.label:<16}|{'#' * filled} {bar.total:.2f}x")
    if result.elapsed:
        lines.append("")
        lines.append(render_elapsed(result))
    if result.trace_summaries:
        lines.append("")
        lines.append(render_trace_check(result))
    return "\n".join(lines)


#: Composed-timeline attribution kinds, in rendering order.
_ELAPSED_KINDS = ("transfer", "compute", "api", "overlap", "idle")


def render_elapsed(result: FigureResult) -> str:
    """Per-variant end-to-end time on the composed schedule timeline.

    ``elapsed`` is critical-path wall time: unlike the priced totals
    above (which sum busy nanoseconds and are identical whatever the
    schedule), it credits overlapped work once.  Each variant's elapsed
    nanoseconds are attributed exactly — every instant is transfer,
    compute, api, overlap (more than one kind in flight) or idle.
    """
    lines = [
        "end-to-end schedule (elapsed ns, attributed; overlap counted "
        "once):",
        f"{'variant':<16}{'elapsed':>12}" + "".join(
            f"{kind:>10}" for kind in _ELAPSED_KINDS
        ),
    ]
    for bar in result.bars:
        section = result.elapsed.get(bar.label)
        if section is None:
            lines.append(f"{bar.label:<16}  -- {bar.note}")
            continue
        cells = "".join(
            f"{section.get(kind, 0.0):>10.0f}" for kind in _ELAPSED_KINDS
        )
        lines.append(
            f"{bar.label:<16}{section.get('elapsed_ns', 0.0):>12.0f}{cells}"
        )
    return "\n".join(lines)


def render_trace_check(result: FigureResult) -> str:
    """One line per variant confirming the trace/ledger cross-check.

    The segment totals shown in the figure come from the cost ledgers;
    at build time each variant is re-summed from its raw trace spans
    (:meth:`repro.trace.Tracer.summary`) and the two must agree — this
    renders the deviation so the report carries the evidence.
    """
    if not result.trace_summaries:
        return "trace cross-check: no traces recorded"
    worst = 0.0
    for label, summary in result.trace_summaries.items():
        bar = result.bar(label)
        ledger_total = bar.raw_total_ns
        trace_total = sum(summary.values())
        worst = max(worst, abs(ledger_total - trace_total))
    lines = [
        f"trace cross-check: {len(result.trace_summaries)} variants, "
        f"segment totals re-derived from raw spans agree with the "
        f"ledgers (max |delta| = {worst:.6f} ns)"
    ]
    for label, path in sorted(result.trace_files.items()):
        lines.append(f"  trace file: {label} -> {path}")
    return "\n".join(lines)
