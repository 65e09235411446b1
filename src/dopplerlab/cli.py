"""Command-line front end.

Subcommands: ``fm``, ``am``, ``field``, ``compare``, ``figure``,
``spectrum``, ``appendix-check``.  Parameters come from an optional JSON
config (see :mod:`dopplerlab.config`) with command-line flags overriding
individual fields.  All numeric output is CSV with 17 significant digits
and LF line endings so repeated runs are byte-identical; plots are
self-contained SVG.  Exit codes: 0 success, 2 validation error,
3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import signal as signal_mod
from .asymptotics import (
    am_dimensionless,
    fm_dimensionless,
    lab_phase,
    leading_order_field,
    moving_frame_field,
)
from .characteristics import transport_amplitude
from .config import RunConfig, load_config
from .errors import (ConfigError, DopplerLabError, IdentityMismatch, NotYetReached,
                     ObserverInsideBoundary)
from .motion import boundary_position, validate
from .oracle import compare_fields, exact_instantaneous_frequency
from .svgplot import line_plot

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


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def write_csv(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write columns as CSV: header row, 17 significant digits, LF endings."""
    n = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(_fmt(col[i]) for col in columns) + "\n")


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUT_ENV_VAR) or "./out"
    os.makedirs(out, exist_ok=True)
    return out


def _build_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    updates = {}
    if getattr(args, "profile", None) is not None:
        updates["profile"] = args.profile
    if getattr(args, "beta", None) is not None:
        updates["beta"] = args.beta
    if getattr(args, "delta", None) is not None:
        updates["delta"] = args.delta
    eps_arg = getattr(args, "eps", None)
    if eps_arg is not None:
        values = _parse_eps(eps_arg)
        updates["eps"] = values[0]
        if len(values) > 1:
            updates["eps_list"] = values
    if getattr(args, "x", None) is not None:
        updates["x"] = args.x
    if getattr(args, "t_min", None) is not None:
        updates["t_min"] = args.t_min
    if getattr(args, "t_max", None) is not None:
        updates["t_max"] = args.t_max
    if getattr(args, "samples", None) is not None:
        updates["samples"] = args.samples
    if getattr(args, "phase_shift", None) is not None:
        updates["phase_shift"] = args.phase_shift == "on"
    if getattr(args, "frame", None) is not None:
        updates["frame"] = args.frame
    if getattr(args, "source", None) is not None:
        updates["source"] = args.source
    if getattr(args, "window", None) is not None:
        updates["window"] = args.window
    from dataclasses import replace
    return replace(cfg, **updates) if updates else cfg


def _parse_eps(text: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--eps expects a number or comma list, got {text!r}") from exc
    if not values:
        raise ConfigError("--eps got an empty list")
    return values


def _require(cfg: RunConfig, field: str):
    val = getattr(cfg, field)
    if val is None:
        flag = "--" + field.replace("_", "-")
        raise ConfigError(f"{field} is required for this command (set {flag} or config)")
    return val


def _time_grid(cfg: RunConfig) -> np.ndarray:
    t_lo = _require(cfg, "t_min")
    t_hi = _require(cfg, "t_max")
    if not (t_hi > t_lo):
        raise ConfigError(f"need t_max > t_min, got [{t_lo}, {t_hi}]")
    if cfg.samples < 2:
        raise ConfigError(f"need samples >= 2, got {cfg.samples}")
    return np.linspace(t_lo, t_hi, cfg.samples)


def _check_lab_window(motion, medium, x: float, ts: np.ndarray) -> None:
    if ts[0] < 0.0:
        raise ConfigError(f"window starts at negative time {ts[0]}")
    if ts[0] - x / medium.c < 0.0:
        raise NotYetReached(
            f"window starts at t={ts[0]} before the arrival time x/c={x / medium.c}")
    xs = np.asarray(boundary_position(motion, ts))
    if np.any(xs > x):
        raise ObserverInsideBoundary(
            f"boundary overtakes the receiver at x={x} inside the window")


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_fm(args) -> int:
    cfg = _build_config(args)
    medium = cfg.medium()
    motion = cfg.boundary_motion()
    beta, delta, eps = validate(motion, medium)
    ts = _time_grid(cfg)
    if ts[0] < 0.0:
        raise ConfigError(f"window starts at negative time {ts[0]}")
    fm = fm_dimensionless(motion.profile, beta, delta, eps, medium.omega * ts)
    out = _out_dir(args)
    path = os.path.join(out, "fm.csv")
    write_csv(path, ["t", "fm"], [ts, fm])
    print(f"fm: {len(ts)} samples, range [{np.min(fm):.6g}, {np.max(fm):.6g}] -> {path}")
    return 0


def cmd_am(args) -> int:
    cfg = _build_config(args)
    medium = cfg.medium()
    motion = cfg.boundary_motion()
    beta, delta, eps = validate(motion, medium)
    x = _require(cfg, "x")
    ts = _time_grid(cfg)
    if ts[0] < 0.0:
        raise ConfigError(f"window starts at negative time {ts[0]}")
    xs = np.asarray(boundary_position(motion, ts))
    if np.any(xs > x):
        raise ObserverInsideBoundary(
            f"boundary overtakes the receiver at x={x} inside the window")
    am = am_dimensionless(motion.profile, beta, delta, eps,
                          medium.omega * x / medium.c, medium.omega * ts)
    out = _out_dir(args)
    path = os.path.join(out, "am.csv")
    write_csv(path, ["t", "am"], [ts, am])
    print(f"am: {len(ts)} samples, range [{np.min(am):.6g}, {np.max(am):.6g}] -> {path}")
    return 0


def cmd_field(args) -> int:
    cfg = _build_config(args)
    medium = cfg.medium()
    motion = cfg.boundary_motion()
    beta, delta, eps = validate(motion, medium)
    x = _require(cfg, "x")
    ts = _time_grid(cfg)
    omega = medium.omega

    if cfg.frame == "moving":
        if cfg.source == "oracle":
            raise ConfigError("the exact field is lab-frame only; use --frame lab")
        # x is the offset ahead of the boundary; times are lab times.
        eta = omega * x / medium.c
        tau = omega * ts
        if np.any(tau < 0.0):
            raise ConfigError("moving-frame window needs t >= 0")
        values = moving_frame_field(motion, medium, eta, tau)
        fm = fm_dimensionless(motion.profile, beta, delta, eps, tau)
        reference = np.cos(tau - eta)
    else:
        _check_lab_window(motion, medium, x, ts)
        if cfg.source == "oracle":
            from .oracle import _retarded_times_grid
            te = _retarded_times_grid(motion, medium, x, ts)
            values = np.exp(1j * omega * te)
            _, ap_e, _ = motion.profile.eval(motion.Omega * te)
            fm = 1.0 / (1.0 - beta - delta * np.asarray(ap_e))
        else:
            am = am_dimensionless(motion.profile, beta, delta, eps,
                                  omega * x / medium.c, omega * ts)
            phase = lab_phase(motion, medium, x, ts, cfg.phase_shift)
            values = np.asarray(am) * np.exp(1j * np.asarray(phase))
            fm = fm_dimensionless(motion.profile, beta, delta, eps, omega * ts)
        reference = np.cos(omega * (ts - x / medium.c))

    out = _out_dir(args)
    path = os.path.join(out, "field.csv")
    write_csv(path, ["t", "re", "im", "am", "fm", "reference"],
              [ts, values.real, values.imag, np.abs(values), fm, reference])
    print(f"field ({cfg.frame} frame, {cfg.source} source): "
          f"{len(ts)} samples -> {path}")
    return 0


def cmd_compare(args) -> int:
    cfg = _build_config(args)
    medium = cfg.medium()
    eps_list = cfg.eps_list or [cfg.eps]
    slow_x = cfg.x if cfg.x is not None else 0.1
    omega = medium.omega

    rows = []
    for eps in eps_list:
        from dataclasses import replace
        motion = replace(cfg, eps=eps).boundary_motion()
        x = slow_x * medium.c / (eps * omega)
        if cfg.t_min is not None and cfg.t_max is not None:
            window = (cfg.t_min, cfg.t_max)
        else:
            window = (x / medium.c, x / medium.c + 20.0 * 2.0 * np.pi / omega)
        report = compare_fields(motion, medium, x, window, cfg.samples,
                                include_phase_shift=cfg.phase_shift)
        rows.append((eps, report.max_phase_error, report.max_freq_rel_error,
                     report.max_modulus_error))

    out = _out_dir(args)
    path = os.path.join(out, "compare.csv")
    cols = list(zip(*rows))
    write_csv(path, ["eps", "max_phase_err", "max_freq_rel_err", "max_modulus_err"],
              [np.asarray(c) for c in cols])
    print(f"{'eps':>8} {'max_phase_err':>16} {'max_freq_rel_err':>18} "
          f"{'max_modulus_err':>17}")
    for eps, ph, fr, mo in rows:
        print(f"{eps:>8.4g} {ph:>16.6e} {fr:>18.6e} {mo:>17.6e}")
    print(f"-> {path}")
    return 0


def _figure_modulation(fig_id: int, out: str) -> List[str]:
    """FM/AM curve families (plots 1 and 3)."""
    from .motion import MotionProfile
    profile = MotionProfile.decelerating() if fig_id == 1 else MotionProfile.oscillatory()
    deltas = FIGURE_DELTAS[fig_id]
    wt = np.linspace(0.0, 300.0, 601)
    fm_curves = [fm_dimensionless(profile, FIGURE_BETA, d, FIGURE_EPS, wt)
                 for d in deltas]
    am_curves = [am_dimensionless(profile, FIGURE_BETA, d, FIGURE_EPS, FIGURE_AM_X, wt)
                 for d in deltas]
    name = f"fig{fig_id}"
    csv_path = os.path.join(out, f"{name}.csv")
    header = (["omega_t"]
              + [f"fm({d:g})" for d in deltas]
              + [f"am({d:g})" for d in deltas])
    write_csv(csv_path, header, [wt] + fm_curves + am_curves)
    fm_svg = os.path.join(out, f"{name}_fm.svg")
    am_svg = os.path.join(out, f"{name}_am.svg")
    line_plot(fm_svg, "Frequency modulation factor", "omega t", "FM", wt,
              [(f"delta = {d:g}", curve, style)
               for d, curve, style in zip(deltas, fm_curves, FIGURE_STYLES)])
    line_plot(am_svg, f"Amplitude modulation factor at omega x/c = {FIGURE_AM_X:g}",
              "omega t", "AM", wt,
              [(f"delta = {d:g}", curve, style)
               for d, curve, style in zip(deltas, am_curves, FIGURE_STYLES)])
    return [csv_path, fm_svg, am_svg]


def _figure_waveform(fig_id: int, out: str) -> List[str]:
    """Waveform + envelope + stationary reference (plots 2 and 4)."""
    from .motion import MotionProfile
    profile = (MotionProfile.decelerating() if fig_id == 2
               else MotionProfile.oscillatory())
    delta = FIGURE_WAVE_DELTA[fig_id]
    written = []
    for x_c, tag in zip(FIGURE_WAVE_X, ("near", "far")):
        wt = np.linspace(x_c, x_c + 60.0, 1201)
        fm = np.asarray(fm_dimensionless(profile, FIGURE_BETA, delta, FIGURE_EPS, wt))
        am = np.asarray(am_dimensionless(profile, FIGURE_BETA, delta, FIGURE_EPS,
                                         x_c, wt))
        # Plotting convention: slowly varying phase shift neglected.
        waveform = am * np.cos(fm * (wt - x_c))
        reference = np.cos(wt - x_c)
        name = f"fig{fig_id}_{tag}"
        csv_path = os.path.join(out, f"{name}.csv")
        write_csv(csv_path, ["omega_t", "waveform", "envelope", "reference"],
                  [wt, waveform, am, reference])
        svg_path = os.path.join(out, f"{name}.svg")
        line_plot(svg_path, f"Received waveform at omega x/c = {x_c:g}",
                  "omega t", "Re U",
                  wt,
                  [("waveform", waveform, "solid"),
                   ("envelope", am, "dashed"),
                   (None, -am, "dashed"),
                   ("stationary reference", reference, "dotted")])
        written.extend([csv_path, svg_path])
    return written


def cmd_figure(args) -> int:
    out = _out_dir(args)
    fig_id = args.id
    if fig_id in (1, 3):
        written = _figure_modulation(fig_id, out)
    else:
        written = _figure_waveform(fig_id, out)
    for path in written:
        print(f"figure {fig_id}: wrote {path}")
    return 0


def cmd_spectrum(args) -> int:
    cfg = _build_config(args)
    medium = cfg.medium()
    motion = cfg.boundary_motion()
    validate(motion, medium)
    x = _require(cfg, "x")
    t_lo = cfg.t_min if cfg.t_min is not None else x / medium.c
    t_hi = _require(cfg, "t_max")
    if not (t_hi > t_lo):
        raise ConfigError(f"need t_max > t_min, got [{t_lo}, {t_hi}]")
    n = cfg.samples
    dt = (t_hi - t_lo) / n
    series = signal_mod.sample_receiver(cfg.source, motion, medium, x, t_lo, dt, n,
                                        include_phase_shift=cfg.phase_shift)
    # Aliasing guard: the frequency estimate validates the sampling rate.
    signal_mod.instantaneous_frequency(series)
    window = "hann" if cfg.window == "hann" else "rectangular"
    spec = signal_mod.spectrum(series, window)

    order = np.argsort(2.0 * np.pi * np.fft.fftfreq(n, d=dt))
    centers = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)[order]
    mags = spec.magnitudes[order]

    out = _out_dir(args)
    path = os.path.join(out, "spectrum.csv")
    write_csv(path, ["bin_center", "magnitude"], [centers, mags])
    peaks_path = os.path.join(out, "spectrum_peaks.csv")
    if spec.peaks:
        pk_f, pk_m = zip(*spec.peaks)
    else:
        pk_f, pk_m = (), ()
    write_csv(peaks_path, ["bin_center", "magnitude"],
              [np.asarray(pk_f), np.asarray(pk_m)])
    print(f"spectrum: {n} samples, bin width {spec.bin_width:.6g}, "
          f"{len(spec.peaks)} peaks -> {path}")
    print(f"{'bin_center':>14} {'magnitude':>14}")
    for freq, mag in spec.peaks[:12]:
        print(f"{freq:>14.6g} {mag:>14.6g}")
    print(f"-> {peaks_path}")
    return 0


def cmd_appendix_check(args) -> int:
    cfg = _build_config(args)
    medium = cfg.medium()
    motion = cfg.boundary_motion()
    beta, delta, eps = validate(motion, medium)
    omega = medium.omega

    grid = np.linspace(0.0, 2.0, 100)
    eta1, tau1 = np.meshgrid(grid, grid, indexing="ij")
    envelope = transport_amplitude("minus", eta1, tau1, motion, medium)

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
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--profile", choices=("constant", "decelerating", "oscillatory"))
    parser.add_argument("--beta", type=float, help="mean velocity / wave speed")
    parser.add_argument("--delta", type=float, help="acceleration ratio a*Omega/c")
    parser.add_argument("--eps", help="frequency ratio Omega/omega (comma list for compare)")
    parser.add_argument("--x", type=float,
                        help="receiver position (compare: slow coordinate eps*omega*x/c)")
    parser.add_argument("--t-min", dest="t_min", type=float)
    parser.add_argument("--t-max", dest="t_max", type=float)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--phase-shift", dest="phase_shift", choices=("on", "off"),
                        help="include the slowly varying phase shift (default off)")
    parser.add_argument("--frame", choices=("lab", "moving"))
    parser.add_argument("--source", choices=("asymptotic", "oracle"))
    parser.add_argument("--window", choices=("rect", "hann"),
                        help="spectral window")
    parser.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or ./out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dopplerlab",
        description="Waves radiated by a moving boundary: modulation factors, "
                    "exact comparisons, figures, and spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, desc in (
            ("fm", cmd_fm, "frequency modulation factor over a time window"),
            ("am", cmd_am, "amplitude modulation factor at a receiver"),
            ("field", cmd_field, "complex waveform at a receiver"),
            ("compare", cmd_compare, "asymptotic-vs-exact error table over eps"),
            ("spectrum", cmd_spectrum, "DFT spectrum of a receiver series"),
            ("appendix-check", cmd_appendix_check,
             "verify the transport envelope identity")):
        p = sub.add_parser(name, help=desc)
        _add_common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("figure", help="reproduce a published plot (1-4)")
    p.add_argument("id", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--config", help="JSON config file (unused; parameters are baked)")
    p.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or ./out)")
    p.set_defaults(handler=cmd_figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DopplerLabError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: IO: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
