"""Text rendering: ASCII plots and paper-style tables.

matplotlib is intentionally not a dependency — every figure of the paper is
regenerated as a data series plus an ASCII rendering, so benchmarks and
examples work in any terminal.
"""

from repro.viz.ascii import ascii_plot, render_region
from repro.viz.tables import axis_sort_token, format_curve_pivot, format_table

__all__ = [
    "ascii_plot",
    "render_region",
    "axis_sort_token",
    "format_curve_pivot",
    "format_table",
]
