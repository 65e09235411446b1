"""CSV and SVG writers: byte parity with the per-cell and per-point code
that the block formatters replaced, and no partial file on a failure."""

import re
from pathlib import Path

import numpy as np
import pytest

import dopplerlab.cli as cli_mod
import dopplerlab.svgplot as svgplot_mod
from dopplerlab.cli import CSV_BLOCK, main, write_csv
from dopplerlab.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, line_plot

SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e-320,
           1.7976931348623157e308, 2.0 ** 60]


def loop_csv(header, columns):
    """The cell-by-cell writer that block formatting replaced."""
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        lines.append(",".join(f"{float(col[i]):.17g}" for col in columns))
    return ("\n".join(lines) + "\n").encode()


def loop_polylines(xdata, series):
    """The per-point polyline loop that the array format replaced."""
    x = np.asarray(xdata, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y, _ in series]
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo = min(float(y.min()) for y in ys)
    y_hi = max(float(y.max()) for y in ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.04 * (y_hi - y_lo) if y_hi > y_lo else 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    return [" ".join(f"{sx(float(xv)):.2f},{sy(float(yv)):.2f}" for xv, yv in zip(x, y))
            for y in ys]


def polylines(path):
    return re.findall(r'<polyline points="([^"]*)"', path.read_text())


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK, CSV_BLOCK + 1])
    @pytest.mark.parametrize("ncols", [1, 6])
    def test_matches_cell_loop(self, tmp_path, rng, rows, ncols):
        columns = [rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
                   for _ in range(ncols)]
        for k, col in enumerate(columns):
            m = min(rows, len(SPECIAL))
            col[:m] = np.roll(SPECIAL, k)[:m]
        header = [f"c{k}" for k in range(ncols)]
        path = tmp_path / "out.csv"
        write_csv(str(path), header, columns)
        assert path.read_bytes() == loop_csv(header, columns)

    def test_special_values(self, tmp_path):
        columns = [np.array(SPECIAL), -np.array(SPECIAL)]
        path = tmp_path / "out.csv"
        write_csv(str(path), ["a", "b"], columns)
        raw = path.read_bytes()
        assert raw == loop_csv(["a", "b"], columns)
        assert raw.startswith(b"a,b\nnan,nan\ninf,-inf\n-inf,inf\n-0,0\n"
                              b"4.9406564584124654e-324,-4.9406564584124654e-324\n")

    def test_integer_and_list_inputs(self, tmp_path):
        columns = [np.arange(-3, 4), [0.1, 2, -7, 1e16, 3, 2 ** 60, 5],
                   np.arange(7, dtype=np.int64) * 2 ** 58]
        path = tmp_path / "out.csv"
        write_csv(str(path), ["i", "l", "big"], columns)
        assert path.read_bytes() == loop_csv(["i", "l", "big"], columns)

    def test_empty_tuple_columns(self, tmp_path):
        # spectrum writes its peak table this way when no peak is found.
        path = tmp_path / "out.csv"
        write_csv(str(path), ["bin_center", "magnitude"], [np.asarray(()), np.asarray(())])
        assert path.read_bytes() == b"bin_center,magnitude\n"


class TestLinePlot:
    @pytest.mark.parametrize("fig", ["1", "2", "3", "4"])
    def test_figure_polylines_match_point_loop(self, tmp_path, monkeypatch, fig):
        calls = []

        def recording(path, title, xlabel, ylabel, xdata, series):
            calls.append((path, xdata, series))
            line_plot(path, title, xlabel, ylabel, xdata, series)

        monkeypatch.setattr(cli_mod, "line_plot", recording)
        assert main(["figure", fig, "--out", str(tmp_path)]) == 0
        assert calls
        for path, xdata, series in calls:
            assert polylines(Path(path)) == loop_polylines(xdata, series)

    @pytest.mark.parametrize("xdata", [[0.0, 1.0, 2.5, 4.0], [3.0, 3.0, 3.0, 3.0]])
    def test_constant_series(self, tmp_path, xdata):
        series = [("flat", [2.0, 2.0, 2.0, 2.0], "solid"), (None, [2.0] * 4, "dotted")]
        path = tmp_path / "flat.svg"
        line_plot(str(path), "t", "x", "y", xdata, series)
        assert polylines(path) == loop_polylines(xdata, series)


class TestNoPartialFile:
    def test_csv_failing_mid_write(self, tmp_path):
        # The header fails to format once the output file is open.
        with pytest.raises(TypeError):
            write_csv(str(tmp_path / "out.csv"), ["t", None], [np.zeros(3), np.zeros(3)])
        assert list(tmp_path.iterdir()) == []

    def test_svg_failing_rename(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(svgplot_mod.os, "replace", fail)
        with pytest.raises(OSError):
            line_plot(str(tmp_path / "out.svg"), "t", "x", "y", [0.0, 1.0],
                      [("a", [0.0, 1.0], "solid")])
        assert list(tmp_path.iterdir()) == []
