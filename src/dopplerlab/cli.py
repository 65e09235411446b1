"""Command-line front end.

Subcommands: ``fm``, ``am``, ``field``, ``compare``, ``figure``,
``spectrum``, ``appendix-check``.  Parameters (``figure``'s are fixed)
come from an optional JSON config (see :mod:`dopplerlab.config`) with
command-line flags overriding individual fields; each command takes only
the flags it reads (:data:`COMMANDS`).  A command computes its whole
output first and :func:`_land` writes the set, all or none.  All numeric
output is CSV with 17 significant digits and LF line endings so repeated
runs are byte-identical; plots are self-contained SVG.  Exit codes:
0 success, 2 validation error, 3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from dataclasses import fields, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import signal as signal_mod
from .asymptotics import (am_dimensionless, am_factor, fm_dimensionless, fm_factor,
                          moving_frame_field)
from .characteristics import transport_amplitude
from .config import SCHEMA, SPECTRUM_WINDOWS, RunConfig, load_config, override
from .errors import ConfigError, DopplerLabError, IdentityMismatch
from .motion import MotionProfile, boundary_position, sample_grid, validate
from .oracle import compare_fields
from .svgplot import line_plot, write_text

#: Environment variable naming the output directory (flag --out wins).
OUT_ENV_VAR = "DOPPLER_LAB_OUT"

#: Fixed parameters of the reproduced plots: eps, beta, the per-plot delta
#: sets, and the far receiver's dimensionless position omega*x/c.
FIGURE_EPS = 0.1
FIGURE_BETA = 0.0
FIGURE_AM_X = 10.0
FIGURE_DELTAS = {1: (-0.2, -0.1, -0.05), 3: (0.2, 0.1, 0.05)}
FIGURE_WAVE_DELTA = {2: -0.2, 4: 0.2}
FIGURE_WAVE_X = (0.1, 10.0)
FIGURE_STYLES = ("solid", "dashed", "dotted")

#: Largest gap ``appendix-check`` accepts between envelope and AM factor.
APPENDIX_TOL = 1e-10


#: Cells formatted by one :func:`~dopplerlab._csvfmt.format_rows` call in
#: :func:`write_csv`.  A block of cells, not of rows, lets narrow tables
#: (a spectrum's two columns) share NumPy's per-call cost as wide ones do.
#: Of 2,048 to 16,384 cells, 4,096 formatted fastest (a block's 32-byte
#: cell fields stay in cache), and its transient arrays, about 0.6 MB,
#: stay small next to the arrays being written.
CSV_BLOCK = 4096


def write_csv(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write columns as CSV: header row, ``%.17g`` per cell, LF endings.

    The columns are stacked once and formatted about ``CSV_BLOCK`` cells
    (whole rows) at a time by :func:`~dopplerlab._csvfmt.format_rows`,
    which computes each cell's 17 digits exactly in vectorised NumPy and
    hands the few cells it cannot settle (zeros, NaN, infinities,
    magnitudes beyond 1e-280..1e280 and near ties) to Python's ``%``, cell
    by cell.  The bytes are those of ``"%.17g" % v`` per cell, written
    whole or not at all.
    """
    from ._csvfmt import format_rows  # imported on first write: start-up does not pay for it

    table = np.column_stack([np.asarray(col, dtype=float) for col in columns])
    rows = max(1, CSV_BLOCK // table.shape[1])

    def text():
        yield ",".join(header) + "\n"
        for start in range(0, len(table), rows):
            yield format_rows(table[start:start + rows]).decode("ascii")

    write_text(path, text())


def _build_config(args) -> RunConfig:
    """The config file (or defaults), overridden by every flag that was given.

    A command has a flag for each :class:`RunConfig` field it reads
    (:data:`COMMANDS`), named after the field; the config file may also set
    fields the command ignores.  ``compare --eps`` takes a comma list: the
    whole list is ``eps_list`` (so it replaces a config's ``eps_list`` even
    when it is one value) and its first value ``eps``.  Every float of the
    result, from a flag or from JSON (which admits ``NaN`` and
    ``Infinity``), must be finite.
    """
    cfg = load_config(args.config) if args.config else RunConfig()
    updates = {f.name: getattr(args, f.name) for f in fields(RunConfig)
               if getattr(args, f.name, None) is not None}
    if "eps_list" in updates:
        updates["eps_list"] = _parse_eps(updates["eps_list"])
        updates["eps"] = updates["eps_list"][0]
    cfg = override(cfg, updates)
    for name in (f.name for f in fields(RunConfig)):
        value = getattr(cfg, name)
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{name} must be a finite number, got {v!r}")
    return cfg


def _parse_eps(text: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--eps expects a number or comma list, got {text!r}") from exc
    if not values:
        raise ConfigError("--eps got an empty list")
    return values


def _require(cfg: RunConfig, field: str, default=None):
    val = getattr(cfg, field)
    if val is None and default is None:
        flag = "--" + field.replace("_", "-")
        raise ConfigError(f"{field} is required for this command (set {flag} or config)")
    return default if val is None else val


def _window(cfg: RunConfig, t_min: Optional[float] = None,
            t_max: Optional[float] = None) -> Tuple[float, float, int]:
    """``(t_min, t_max, samples)`` of the run: the one window rule of every command.

    A bound unset in ``cfg`` takes the command's default given here and is
    required when there is none; then ``t_max > t_min`` and ``samples >= 2``.
    Each failure raises :class:`ConfigError` (``BAD_CONFIG``, exit 2).
    """
    t_lo = _require(cfg, "t_min", t_min)
    t_hi = _require(cfg, "t_max", t_max)
    if not (t_hi > t_lo):
        raise ConfigError(f"need t_max > t_min, got [{t_lo}, {t_hi}]")
    if cfg.samples < 2:
        raise ConfigError(f"need samples >= 2, got {cfg.samples}")
    return t_lo, t_hi, cfg.samples


def _grid(cfg: RunConfig) -> np.ndarray:
    """The run's uniform time grid over :func:`_window`, through :func:`sample_grid`."""
    t_lo, t_hi, n = _window(cfg)
    return sample_grid(n, lambda k: np.linspace(t_lo, t_hi, k))


def _land(args, rows) -> List[str]:
    """Write a command's whole file set, all or none; the paths in row order.

    ``rows`` are ``(name, writer, *writer_args)``, each written in order as
    ``writer(path, *writer_args)`` at its final path under ``--out``, else
    ``$DOPPLER_LAB_OUT``, else ``./out`` (made here, so a command that
    fails before writing leaves no directory).  If a write fails, the files
    already written are removed, a same-named file they had replaced
    included, and the error propagates (an :class:`OSError` exits 4).
    """
    out = args.out or os.environ.get(OUT_ENV_VAR) or "./out"
    os.makedirs(out, exist_ok=True)
    written = []
    try:
        for name, writer, *writer_args in rows:
            path = os.path.join(out, name)
            writer(path, *writer_args)
            written.append(path)
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return written


# ---------------------------------------------------------------------------
# Commands: each computes its whole output, then hands it to _land.
# ---------------------------------------------------------------------------

def cmd_fm(args, cfg, medium, motion) -> None:
    ts = _grid(cfg)
    fm = fm_factor(motion, medium, ts)
    path, = _land(args, [("fm.csv", write_csv, ["t", "fm"], [ts, fm])])
    print(f"fm: {len(ts)} samples, range [{np.min(fm):.6g}, {np.max(fm):.6g}] -> {path}")


def cmd_am(args, cfg, medium, motion) -> None:
    x = _require(cfg, "x")
    ts = _grid(cfg)
    am = am_factor(motion, medium, x, ts)
    path, = _land(args, [("am.csv", write_csv, ["t", "am"], [ts, am])])
    print(f"am: {len(ts)} samples, range [{np.min(am):.6g}, {np.max(am):.6g}] -> {path}")


def cmd_field(args, cfg, medium, motion) -> None:
    x = _require(cfg, "x")
    ts = _grid(cfg)
    omega = medium.omega

    if cfg.frame == "moving":
        if cfg.source == "oracle":
            raise ConfigError("the exact field is lab-frame only; use --frame lab")
        # x is the offset ahead of the boundary; times are lab times.
        eta = omega * x / medium.c
        tau = omega * ts
        values = moving_frame_field(motion, medium, eta, tau)
        fm = fm_factor(motion, medium, ts)
        reference = np.cos(tau - eta)
    else:
        values, fm = signal_mod.sample_on_grid(cfg.source, motion, medium, x, ts,
                                               cfg.phase_shift, with_fm=True)
        reference = np.cos(omega * (ts - x / medium.c))

    path, = _land(args, [("field.csv", write_csv,
                          ["t", "re", "im", "am", "fm", "reference"],
                          [ts, values.real, values.imag, np.abs(values), fm, reference])])
    print(f"field ({cfg.frame} frame, {cfg.source} source): "
          f"{len(ts)} samples -> {path}")


def cmd_compare(args, cfg, medium, _) -> None:
    # Each eps of the sweep has its own motion.
    eps_list = cfg.eps_list or [cfg.eps]
    slow_x = cfg.x if cfg.x is not None else 0.1
    omega = medium.omega

    rows = []
    for eps in eps_list:
        motion = replace(cfg, eps=eps).boundary_motion()
        x = slow_x * medium.c / (eps * omega)
        # 20 carrier periods from arrival, only when neither bound is set.
        default = ((x / medium.c, x / medium.c + 20.0 * 2.0 * np.pi / omega)
                   if cfg.t_min is None and cfg.t_max is None else ())
        t_lo, t_hi, n = _window(cfg, *default)
        report = compare_fields(motion, medium, x, (t_lo, t_hi), n,
                                include_phase_shift=cfg.phase_shift)
        rows.append((eps, report.max_phase_error, report.max_freq_rel_error,
                     report.max_modulus_error))

    path, = _land(args, [("compare.csv", write_csv,
                          ["eps", "max_phase_err", "max_freq_rel_err", "max_modulus_err"],
                          list(zip(*rows)))])
    print(f"{'eps':>8} {'max_phase_err':>16} {'max_freq_rel_err':>18} "
          f"{'max_modulus_err':>17}")
    for eps, ph, fr, mo in rows:
        print(f"{eps:>8.4g} {ph:>16.6e} {fr:>18.6e} {mo:>17.6e}")
    print(f"-> {path}")


def _figure_modulation(fig_id: int) -> list:
    """FM/AM curve families (plots 1 and 3): the rows of their three files."""
    profile = MotionProfile.decelerating() if fig_id == 1 else MotionProfile.oscillatory()
    deltas = FIGURE_DELTAS[fig_id]
    wt = np.linspace(0.0, 300.0, 601)
    fm_curves = [fm_dimensionless(profile, FIGURE_BETA, d, FIGURE_EPS, wt)
                 for d in deltas]
    am_curves = [am_dimensionless(profile, FIGURE_BETA, d, FIGURE_EPS, FIGURE_AM_X, wt)
                 for d in deltas]
    header = (["omega_t"]
              + [f"fm({d:g})" for d in deltas]
              + [f"am({d:g})" for d in deltas])
    def plot(tag, title, curves):
        return (f"fig{fig_id}_{tag}.svg", line_plot, title, "omega t", tag.upper(), wt,
                [(f"delta = {d:g}", curve, style)
                 for d, curve, style in zip(deltas, curves, FIGURE_STYLES)])

    return [(f"fig{fig_id}.csv", write_csv, header, [wt] + fm_curves + am_curves),
            plot("fm", "Frequency modulation factor", fm_curves),
            plot("am", f"Amplitude modulation factor at omega x/c = {FIGURE_AM_X:g}",
                 am_curves)]


def _figure_waveform(fig_id: int) -> list:
    """Waveform + envelope + stationary reference (plots 2 and 4): near and far rows."""
    profile = (MotionProfile.decelerating() if fig_id == 2
               else MotionProfile.oscillatory())
    delta = FIGURE_WAVE_DELTA[fig_id]
    rows = []
    for x_c, tag in zip(FIGURE_WAVE_X, ("near", "far")):
        wt = np.linspace(x_c, x_c + 60.0, 1201)
        fm = np.asarray(fm_dimensionless(profile, FIGURE_BETA, delta, FIGURE_EPS, wt))
        am = np.asarray(am_dimensionless(profile, FIGURE_BETA, delta, FIGURE_EPS,
                                         x_c, wt))
        # Plotting convention: slowly varying phase shift neglected.
        waveform = am * np.cos(fm * (wt - x_c))
        reference = np.cos(wt - x_c)
        name = f"fig{fig_id}_{tag}"
        rows.append((f"{name}.csv", write_csv, ["omega_t", "waveform", "envelope", "reference"],
                     [wt, waveform, am, reference]))
        rows.append((f"{name}.svg", line_plot, f"Received waveform at omega x/c = {x_c:g}",
                     "omega t", "Re U", wt,
                     [("waveform", waveform, "solid"),
                      ("envelope", am, "dashed"),
                      (None, -am, "dashed"),
                      ("stationary reference", reference, "dotted")]))
    return rows


def cmd_figure(args) -> None:
    rows = (_figure_modulation if args.id in (1, 3) else _figure_waveform)(args.id)
    for path in _land(args, rows):
        print(f"figure {args.id}: wrote {path}")


def cmd_spectrum(args, cfg, medium, motion) -> None:
    x = _require(cfg, "x")
    t_lo, t_hi, n = _window(cfg, t_min=x / medium.c)
    dt = (t_hi - t_lo) / n
    series = signal_mod.sample_receiver(cfg.source, motion, medium, x, t_lo, dt, n,
                                        include_phase_shift=cfg.phase_shift)
    # Aliasing guard: the frequency estimate validates the sampling rate.
    signal_mod.instantaneous_frequency(series)
    spec = signal_mod.spectrum(series, SPECTRUM_WINDOWS[cfg.window])

    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    order = np.argsort(freqs)
    header = ["bin_center", "magnitude"]
    path, peaks_path = _land(args, [
        ("spectrum.csv", write_csv, header, [freqs[order], spec.magnitudes[order]]),
        ("spectrum_peaks.csv", write_csv, header, list(zip(*spec.peaks)) or [(), ()])])
    print(f"spectrum: {n} samples, bin width {spec.bin_width:.6g}, "
          f"{len(spec.peaks)} peaks -> {path}")
    print(f"{'bin_center':>14} {'magnitude':>14}")
    for freq, mag in spec.peaks[:12]:
        print(f"{freq:>14.6g} {mag:>14.6g}")
    print(f"-> {peaks_path}")


def cmd_appendix_check(args, cfg, medium, motion) -> None:
    beta, delta, eps = validate(motion, medium)
    omega = medium.omega

    grid = np.linspace(0.0, 2.0, 100)
    eta1, tau1 = np.meshgrid(grid, grid, indexing="ij")
    envelope = transport_amplitude(eta1, tau1, motion, medium)

    # Matched lab-frame evaluation: t = tau1/Omega, x = X_s(t) + eta1*c/Omega.
    t = tau1 / motion.Omega
    xs = np.asarray(boundary_position(motion, t))
    omega_x_c = omega * (xs + eta1 * medium.c / motion.Omega) / medium.c
    am = am_dimensionless(motion.profile, beta, delta, eps, omega_x_c, omega * t)

    max_diff = float(np.max(np.abs(np.asarray(envelope) - np.asarray(am))))
    summary = (f"max |envelope - am| = {max_diff:.3e} over "
               f"{grid.size}x{grid.size} grid")
    if not max_diff < APPENDIX_TOL:
        raise IdentityMismatch(f"{summary} exceeds {APPENDIX_TOL:g}")
    print(f"appendix-check: {summary} -> PASS")


# ---------------------------------------------------------------------------
# Parser: one table says which flags each command takes.
# ---------------------------------------------------------------------------

#: ``add_argument`` keywords of every flag, keyed by its spelling.  argparse
#: derives each destination from the spelling, so every flag but
#: ``--config``, ``--out`` and ``figure``'s ``id`` sets the
#: :class:`RunConfig` field of its name; choices are :data:`SCHEMA`'s.
FLAGS = {
    "--config": dict(help="JSON config file (it may hold keys this command does not read)"),
    "--profile": dict(choices=SCHEMA["motion"]["profile"]),
    "--beta": dict(type=float, help="mean velocity / wave speed"),
    "--delta": dict(type=float, help="acceleration ratio a*Omega/c"),
    "--eps": dict(type=float, help="frequency ratio Omega/omega"),
    "--x": dict(type=float, help="receiver position"),
    "--t-min": dict(type=float),
    "--t-max": dict(type=float),
    "--samples": dict(type=int),
    "--phase-shift": dict(choices=SCHEMA["flags"]["phase_shift"],
                          help="include the slowly varying phase shift (default off)"),
    "--frame": dict(choices=SCHEMA["flags"]["frame"]),
    "--source": dict(choices=SCHEMA["flags"]["source"]),
    "--window": dict(choices=SCHEMA["flags"]["window"], help="spectral window"),
    "--out": dict(help=f"output directory (default ${OUT_ENV_VAR} or ./out)"),
    "id": dict(type=int, choices=(1, 2, 3, 4), metavar="id", help="plot number, 1-4"),
}

#: Keywords that replace :data:`FLAGS`' for one command's flag.
FLAG_OVERRIDES = {
    ("field", "--x"): dict(help="receiver position (moving frame: offset from the boundary)"),
    ("compare", "--x"): dict(help="slow receiver coordinate eps*omega*x/c (default 0.1)"),
    ("compare", "--eps"): dict(type=str, dest="eps_list", metavar="EPS[,EPS...]",
                               help="frequency ratios Omega/omega to sweep"),
}

_RUN = ("--config", "--profile", "--beta", "--delta", "--eps")
_WINDOW = ("--t-min", "--t-max", "--samples")
_AM = _RUN + ("--x",) + _WINDOW

#: Subcommand -> (handler, help, the flags of the fields it reads).  A
#: command that takes ``--config`` is called with the run's ``(cfg, medium,
#: motion)``, built once by :func:`main`.  Every command also takes
#: ``--out``; ``appendix-check`` accepts it but writes nothing.
COMMANDS = {
    "fm": (cmd_fm, "frequency modulation factor over a time window", _RUN + _WINDOW),
    "am": (cmd_am, "amplitude modulation factor at a receiver", _AM),
    "field": (cmd_field, "complex waveform at a receiver",
              _AM + ("--phase-shift", "--frame", "--source")),
    "compare": (cmd_compare, "asymptotic-vs-exact error table over eps",
                _AM + ("--phase-shift",)),
    "spectrum": (cmd_spectrum, "DFT spectrum of a receiver series",
                 _AM + ("--phase-shift", "--source", "--window")),
    "appendix-check": (cmd_appendix_check, "verify the transport envelope identity", _RUN),
    "figure": (cmd_figure, "reproduce a published plot (1-4)", ("id",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per :data:`COMMANDS` row; argparse refuses any other flag (exit 2).

    Built once per process and shared by every :func:`main` call: parsing
    leaves the parser as it was, and it holds no handler, only each
    subparser (so ``main`` can report leftovers with the command's usage).
    """
    parser = argparse.ArgumentParser(
        prog="dopplerlab",
        description="Waves radiated by a moving boundary: modulation factors, "
                    "exact comparisons, figures, and spectra.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=desc)
        for flag in flags + ("--out",):
            p.add_argument(flag, **{**FLAGS[flag], **FLAG_OVERRIDES.get((name, flag), {})})
        p.set_defaults(parser=p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:  # reported with the command's own usage line
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        handler, _, flags = COMMANDS[args.command]
        run = ()
        if "--config" in flags:
            cfg = _build_config(args)
            run = (cfg, cfg.medium(), cfg.boundary_motion())
        handler(args, *run)
        return 0
    except DopplerLabError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: IO: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
