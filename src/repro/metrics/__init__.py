"""Metrics: DRR (Formula 1), response time, messages, result coverage."""

from .collector import RunMetrics, collect_metrics
from .coverage import mean_coverage, query_coverage
from .drr import data_reduction_rate, drr_of_pairs
from .messages import MessageCounts, messages_per_query
from .response import bf_response_time, df_response_time, mean_response_time

__all__ = [
    "MessageCounts",
    "RunMetrics",
    "bf_response_time",
    "collect_metrics",
    "data_reduction_rate",
    "df_response_time",
    "drr_of_pairs",
    "mean_coverage",
    "mean_response_time",
    "messages_per_query",
    "query_coverage",
]
