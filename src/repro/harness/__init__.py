"""Evaluation harness: regenerates every table and figure of Section 7."""

from .figures import (  # noqa: F401
    Bar,
    FigureResult,
    FigureSpec,
    SEGMENTS,
    bench_platform,
    build_figure,
    build_figure_by_id,
    figure_spec,
    scaled_devices,
)
from .chaos import (  # noqa: F401
    ChaosCell,
    ChaosPlan,
    ChaosReport,
    ChaosRun,
    chaos_sweep,
    default_matrix,
    priced_totals,
    run_target,
)
from .report import (  # noqa: F401
    render_figure,
    render_trace_check,
)
