"""Experiment harness: one module per figure family of Section 5."""

from .chaos_sweep import (
    ChaosPoint,
    ChaosReport,
    chaos_suite,
    loss_curve,
    run_chaos_point,
)
from .config import DEFAULT, PAPER, SMOKE, ExperimentScale, get_scale
from .continuous_sweep import (
    CONTINUOUS_SMOKE_SEEDS,
    ContinuousPoint,
    ContinuousReport,
    continuous_suite,
    maintenance_curve,
    run_continuous_point,
)
from .executor import RunCache, configure, resolve_workers, run_points
from .local_processing import figure_5a, figure_5b, measure_local_time
from .manet_common import ManetPoint, clear_run_cache, run_manet_point
from .manet_drr import (
    figure_8a,
    figure_8b,
    figure_8c,
    figure_9a,
    figure_9b,
    figure_9c,
    manet_panel,
)
from .message_count import figure_12
from .response_time import (
    figure_10a,
    figure_10b,
    figure_10c,
    figure_11a,
    figure_11b,
    figure_11c,
)
from .plotting import ascii_plot
from .report import markdown_report, markdown_table
from .runner import FigureResult, Series, render_table
from .sensitivity import (
    cpu_sweep,
    fault_churn_sweep,
    fault_loss_sweep,
    radio_range_sweep,
    speed_sweep,
)
from .static_drr import (
    figure_6a,
    figure_6b,
    figure_6c,
    figure_7a,
    figure_7b,
    figure_7c,
    static_drr_series,
    static_panel,
)

__all__ = [
    "CONTINUOUS_SMOKE_SEEDS",
    "ChaosPoint",
    "ChaosReport",
    "ContinuousPoint",
    "ContinuousReport",
    "DEFAULT",
    "ExperimentScale",
    "FigureResult",
    "ManetPoint",
    "PAPER",
    "RunCache",
    "SMOKE",
    "Series",
    "ascii_plot",
    "clear_run_cache",
    "configure",
    "chaos_suite",
    "continuous_suite",
    "cpu_sweep",
    "fault_churn_sweep",
    "fault_loss_sweep",
    "figure_5a",
    "figure_5b",
    "figure_6a",
    "figure_6b",
    "figure_6c",
    "figure_7a",
    "figure_7b",
    "figure_7c",
    "figure_8a",
    "figure_8b",
    "figure_8c",
    "figure_9a",
    "figure_9b",
    "figure_9c",
    "figure_10a",
    "figure_10b",
    "figure_10c",
    "figure_11a",
    "figure_11b",
    "figure_11c",
    "figure_12",
    "get_scale",
    "loss_curve",
    "maintenance_curve",
    "manet_panel",
    "markdown_report",
    "markdown_table",
    "measure_local_time",
    "radio_range_sweep",
    "render_table",
    "resolve_workers",
    "run_chaos_point",
    "run_continuous_point",
    "run_manet_point",
    "run_points",
    "speed_sweep",
    "static_drr_series",
    "static_panel",
]
