"""ASCII line plots for region curves."""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np


def ascii_plot(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    *,
    width: int = 90,
    height: int = 24,
    x_label: str = "x",
    y_label: str = "y",
    markers: str = "*o+x#@",
    hline: float | None = None,
) -> str:
    """Plot named ``(x, y)`` series on a shared character canvas.

    Each series gets the next marker character, cycling when there are more
    series than markers so none are dropped; overlapping cells keep the
    first series' marker. ``hline`` draws a horizontal reference (e.g.
    ``O_tot``) with ``-``.
    """
    if not series:
        raise ValueError("no series to plot")
    if not markers:
        raise ValueError("markers must be a non-empty string")
    xs_all = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    ys_all = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    if hline is not None:
        ys_all = np.append(ys_all, hline)
    x_min, x_max = float(xs_all.min()), float(xs_all.max())
    y_min, y_max = float(ys_all.min()), float(ys_all.max())
    if x_max <= x_min:
        x_max = x_min + 1.0
    if y_max <= y_min:
        y_max = y_min + 1.0
    grid = [[" "] * width for _ in range(height)]

    def cell(x: float, y: float) -> tuple[int, int]:
        cx = int((x - x_min) / (x_max - x_min) * (width - 1))
        cy = int((y - y_min) / (y_max - y_min) * (height - 1))
        return height - 1 - cy, cx

    if hline is not None:
        r, _ = cell(x_min, hline)
        for c in range(width):
            grid[r][c] = "-"
    # Zero axis, if it is in range.
    if y_min < 0 < y_max:
        r, _ = cell(x_min, 0.0)
        for c in range(width):
            if grid[r][c] == " ":
                grid[r][c] = "."
    for (name, (xs, ys)), marker in zip(series.items(), itertools.cycle(markers)):
        for x, y in zip(xs, ys):
            r, c = cell(float(x), float(y))
            if grid[r][c] in (" ", ".", "-"):
                grid[r][c] = marker
    lines = [f"{y_label} in [{y_min:.3f}, {y_max:.3f}]"]
    lines.extend("|" + "".join(row) + "|" for row in grid)
    lines.append(f"{x_label} in [{x_min:.3f}, {x_max:.3f}]")
    legend = "  ".join(
        f"{marker}={name}"
        for (name, _), marker in zip(series.items(), itertools.cycle(markers))
    )
    if hline is not None:
        legend += f"  -=ref({hline:g})"
    lines.append(legend)
    return "\n".join(lines)


def render_region(
    ps: Sequence[float],
    curves: Mapping[str, Sequence[float]],
    *,
    otot: float | None = None,
    width: int = 90,
    height: int = 24,
) -> str:
    """Figure-4-style rendering: Eq. 15 LHS vs period for several algorithms."""
    series = {name: (ps, ys) for name, ys in curves.items()}
    return ascii_plot(
        series,
        width=width,
        height=height,
        x_label="P (period)",
        y_label="lhs of Eq. (15)",
        hline=otot,
    )
