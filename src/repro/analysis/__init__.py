"""Report formatting shared by experiments and benchmarks."""

from repro.analysis.reporting import (
    format_run_comparison,
    format_series,
    format_table,
    format_weights,
)

__all__ = [
    "format_run_comparison",
    "format_series",
    "format_table",
    "format_weights",
]
