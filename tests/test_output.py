"""CSV and SVG writers: byte parity with the per-cell and per-point code
that the block formatters replaced, and no partial file or file set on a
failure."""

import hashlib
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import dopplerlab.cli as cli_mod
import dopplerlab.svgplot as svgplot_mod
from dopplerlab.cli import CSV_BLOCK, main, write_csv
from dopplerlab.svgplot import (FAST_MAX, HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T,
                                WIDTH, _points, line_plot)

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


def percent_points(x, y):
    """The single ``%`` operation that :func:`_points` replaced."""
    return (" ".join(["%.2f,%.2f"] * len(x))
            % tuple(np.column_stack((x, y)).ravel().tolist()))


#: SHA-256 of each figure's SVG files, recorded from the per-point ``%``
#: writer: ticks, labels and legends as well as polylines.
SVG_DIGESTS = dict(line.split()[::-1] for line in
                   (Path(__file__).parent / "golden" / "figures_svg.sha256")
                   .read_text().splitlines())


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


class TestPoints:
    """:func:`_points` against ``%``, byte for byte, x and y swapped too."""

    @pytest.mark.parametrize("values", [
        [k / 8 for k in range(-40, 41)],                  # exact ties: 0.125 -> 0.12
        [9.995, 99.999, 999.995, 0.995, -9.995, 99.995],  # carries
        [-0.0, -0.004, 0.004, -0.005, 0.0, -0.001],       # negative zero
        [float("nan"), float("inf"), -float("inf"), 1.0],
        [FAST_MAX, -FAST_MAX, np.nextafter(FAST_MAX, 0), 9999999.995, 9999999.994,
         1e8, -1.5e12, 1e300, 5e-324, 2.0 ** 60],
    ], ids=["ties", "carries", "negative-zero", "non-finite", "fast-bound"])
    def test_special_values(self, values):
        v = np.array(values, dtype=float)
        for x, y in ((v, v[::-1]), (v[::-1], v)):
            assert _points(x, y) == percent_points(x, y)

    @pytest.mark.parametrize("n", [0, 1, 2, 5000])
    def test_random_pixel_grids(self, rng, n):
        for _ in range(5):
            x = rng.uniform(-50, WIDTH + 50, size=n)
            y = rng.uniform(-50, HEIGHT + 50, size=n)
            ties = rng.random(n) < 0.1
            y[ties] = rng.integers(-400, 8000, size=int(ties.sum())) / 8
            assert _points(x, y) == percent_points(x, y)

    def test_random_magnitudes(self, rng):
        v = rng.normal(size=4000) * 10.0 ** rng.integers(-4, 10, size=4000)
        assert _points(v[:2000], v[2000:]) == percent_points(v[:2000], v[2000:])


class TestSvgMarkup:
    def test_figure_svgs_match_recorded_digests(self, tmp_path):
        for fig in ("1", "2", "3", "4"):
            assert main(["figure", fig, "--out", str(tmp_path)]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.glob("*.svg")}
        assert written == SVG_DIGESTS

    def test_text_is_escaped(self, tmp_path):
        path = tmp_path / "marks.svg"
        line_plot(str(path), "a<b & c>d", "x < 1", "y > 0", [0.0, 1.0],
                  [("p&q", [0.0, 1.0], "solid"), ("<none>", [1.0, 0.0], "dashed")])
        texts = [el.text for el in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
        for label in ("a<b & c>d", "x < 1", "y > 0", "p&q", "<none>"):
            assert label in texts


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


#: Commands that write several files, and the last file each writes.
FILE_SETS = {
    "spectrum": (["spectrum", "--profile", "oscillatory", "--delta", "0.2", "--eps", "0.1",
                  "--x", "5", "--t-min", "5", "--t-max", "319.2", "--samples", "256",
                  "--source", "oracle"],
                 "spectrum_peaks.csv"),
    "figure 2": (["figure", "2"], "fig2_far.svg"),
}


class TestAllOrNone:
    @pytest.mark.parametrize("command", FILE_SETS)
    def test_failed_last_file_leaves_no_file(self, tmp_path, monkeypatch, capsys, command):
        argv, last = FILE_SETS[command]

        def failing_on_last(writer):
            def write(path, *args):
                if Path(path).name == last:
                    raise OSError(f"cannot write {last}")
                writer(path, *args)
            return write

        monkeypatch.setattr(cli_mod, "write_csv", failing_on_last(write_csv))
        monkeypatch.setattr(cli_mod, "line_plot", failing_on_last(line_plot))
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: IO: cannot write {last}" in captured.err
        assert list(out.iterdir()) == []

    def test_failed_rerun_removes_the_files_it_replaced(self, tmp_path):
        out = tmp_path / "out"
        assert main(["figure", "2", "--out", str(out)]) == 0
        (out / "notes.txt").write_text("not the command's")
        (out / "fig2_far.svg").unlink()
        (out / "fig2_far.svg").mkdir()  # the last rename fails
        assert main(["figure", "2", "--out", str(out)]) == 4
        assert sorted(p.name for p in out.iterdir()) == ["fig2_far.svg", "notes.txt"]
