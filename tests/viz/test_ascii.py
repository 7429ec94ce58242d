"""ASCII rendering tests."""

import numpy as np
import pytest

from repro.viz import ascii_plot, render_region


class TestAsciiPlot:
    def test_basic_plot_dimensions(self):
        xs = np.linspace(0, 1, 50)
        out = ascii_plot({"s": (xs, xs**2)}, width=40, height=10)
        lines = out.splitlines()
        plot_rows = [l for l in lines if l.startswith("|")]
        assert len(plot_rows) == 10
        assert all(len(l) == 42 for l in plot_rows)

    def test_marker_appears(self):
        xs = np.linspace(0, 1, 50)
        out = ascii_plot({"s": (xs, xs)}, width=40, height=10)
        assert "*" in out

    def test_legend_names_series(self):
        xs = np.linspace(0, 1, 10)
        out = ascii_plot({"alpha": (xs, xs), "beta": (xs, 1 - xs)})
        assert "*=alpha" in out and "o=beta" in out

    def test_hline_rendered(self):
        xs = np.linspace(0, 1, 10)
        out = ascii_plot({"s": (xs, xs)}, hline=0.5)
        assert "-" in out and "ref(0.5)" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({})

    def test_empty_markers_rejected(self):
        xs = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="markers"):
            ascii_plot({"s": (xs, xs)}, markers="")

    def test_more_series_than_markers_all_render(self):
        """Markers cycle: series 7+ used to be silently dropped from both
        the canvas and the legend."""
        xs = np.linspace(0, 1, 10)
        series = {f"s{i}": (xs, xs * 0 + i) for i in range(8)}
        out = ascii_plot(series, width=40, height=20)
        legend = out.splitlines()[-1]
        for i in range(8):
            assert f"=s{i}" in legend
        # the 7th series reuses the first marker and still hits the canvas
        assert "*=s0" in legend and "*=s6" in legend
        rows = [l for l in out.splitlines() if l.startswith("|")]
        marked = sum(1 for row in rows if any(c != " " for c in row[1:-1]))
        assert marked >= 8

    def test_flat_series_does_not_crash(self):
        xs = np.linspace(0, 1, 10)
        out = ascii_plot({"flat": (xs, np.zeros_like(xs))})
        assert "flat" in out


class TestRenders:
    def test_render_region(self):
        ps = np.linspace(0.1, 3.0, 60)
        out = render_region(
            ps, {"EDF": 0.2 - 0.1 * ps, "RM": 0.1 - 0.1 * ps}, otot=0.05
        )
        assert "P (period)" in out and "Eq. (15)" in out
