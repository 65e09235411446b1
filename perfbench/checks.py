"""Output checks that do not trust the package's own solver.

Figure CSVs must match ``tests/golden/`` byte for byte.  Oracle outputs
are compared with the fixed-point emission times of
:mod:`perfbench.reference`; asymptotic outputs with its closed forms.
Spectra are recomputed from the reference series with NumPy's FFT, must
satisfy Parseval for a unit-modulus signal, and for periodic motion their
peaks must sit on the ``omega + k*Omega`` comb.  ``compare`` norms must be
finite with ``max_freq_rel_err <= 5*eps``.

Each check returns an error message, or None when the output is correct.
"""

from __future__ import annotations

import json
import os
import xml.etree.ElementTree as ET
from typing import Optional

import numpy as np

from . import reference as ref
from .workloads import Op

#: Agreement required between an output and its reference.  Phases reach
#: ~1.2e4 rad, where one float step is ~2e-12, and the solver's tolerance
#: is 1e-12 rad; 1e-8 leaves room for rounding without hiding real errors.
VALUE_TOL = 1e-8
#: Closed forms evaluated on the same grid agree to rounding.
CLOSED_FORM_RTOL = 1e-12
#: Rows compared against the reference for large field outputs.
SUBSAMPLE_ROWS = 500


def _load_csv(path: str, header: list) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n").split(",")
    if first != header:
        raise ValueError(f"{os.path.basename(path)}: header {first}, expected {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _worst(actual, expected) -> float:
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))


def _rel_worst(actual, expected) -> float:
    expected = np.asarray(expected)
    return float(np.max(np.abs(np.asarray(actual) - expected) / np.abs(expected)))


def _grid(p: dict) -> np.ndarray:
    return np.linspace(p["t_min"], p["t_max"], p["n"])


def check_figure(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    fig = op.params["id"]
    tags = [""] if fig in (1, 3) else ["_near", "_far"]
    for tag in tags:
        name = f"fig{fig}{tag}.csv"
        with open(os.path.join(out, name), "rb") as fh, \
                open(os.path.join(golden, name), "rb") as gh:
            if fh.read() != gh.read():
                return f"{name} differs from tests/golden/{name}"
    svgs = ([f"fig{fig}_fm.svg", f"fig{fig}_am.svg"] if fig in (1, 3)
            else [f"fig{fig}{tag}.svg" for tag in tags])
    curves, points = (3, 601) if fig in (1, 3) else (4, 1201)
    for name in svgs:
        lines = ET.parse(os.path.join(out, name)).getroot().iter(
            "{http://www.w3.org/2000/svg}polyline")
        counts = [len(line.get("points").split()) for line in lines]
        if counts != [points] * curves:
            return f"{name}: polyline points {counts}, expected {curves} x {points}"
    return None


def check_fm(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    p = op.params
    data = _load_csv(os.path.join(out, "fm.csv"), ["t", "fm"])
    t = _grid(p)
    if _worst(data[:, 0], t) > 0.0:
        return "fm.csv: time grid differs from linspace(t_min, t_max, n)"
    err = _rel_worst(data[:, 1], ref.fm(p["profile"], 0.0, p["delta"], p["eps"], t))
    return f"fm.csv: fm off by {err:.3g} (rel)" if err > CLOSED_FORM_RTOL else None


def check_am(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    p = op.params
    data = _load_csv(os.path.join(out, "am.csv"), ["t", "am"])
    t = _grid(p)
    err = _rel_worst(data[:, 1], ref.am(p["profile"], 0.0, p["delta"], p["eps"], p["x"], t))
    return f"am.csv: am off by {err:.3g} (rel)" if err > CLOSED_FORM_RTOL else None


def check_compare(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    eps = np.asarray(op.params["eps_list"])
    data = _load_csv(os.path.join(out, "compare.csv"),
                     ["eps", "max_phase_err", "max_freq_rel_err", "max_modulus_err"])
    if len(data) != len(eps) or _worst(data[:, 0], eps) > 0.0:
        return f"compare.csv: eps column {list(data[:, 0])}, expected {list(eps)}"
    return _compare_norms(data[:, 1:], data[:, 2], eps)


def _compare_norms(norms, freq_err, eps) -> Optional[str]:
    if not np.all(np.isfinite(norms)):
        return "compare norms are not finite"
    if np.any(np.asarray(freq_err) > 5.0 * eps):
        return f"max_freq_rel_err {np.atleast_1d(freq_err).tolist()} exceeds 5*eps"
    return None


def check_appendix(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    return None if stdout.rstrip().endswith("PASS") else f"appendix-check said {stdout!r}"


def _check_field(op: Op, out: str, expected_values, unit_modulus=False) -> Optional[str]:
    p = op.params
    data = _load_csv(os.path.join(out, "field.csv"),
                     ["t", "re", "im", "am", "fm", "reference"])
    t = _grid(p)
    if len(data) != p["n"] or _worst(data[:, 0], t) > 0.0:
        return "field.csv: time grid differs from linspace(t_min, t_max, n)"
    values = data[:, 1] + 1j * data[:, 2]
    if _worst(data[:, 3], np.abs(values)) > CLOSED_FORM_RTOL:
        return "field.csv: am column is not |re + i im|"
    if unit_modulus and _worst(data[:, 3], 1.0) > CLOSED_FORM_RTOL:
        return f"field.csv: oracle modulus off 1 by {_worst(data[:, 3], 1.0):.3g}"
    rows = np.unique(np.linspace(0, len(t) - 1, SUBSAMPLE_ROWS).astype(int))
    value_ref, fm_ref, reference = expected_values(t[rows])
    err = _worst(values[rows], value_ref)
    if err > VALUE_TOL:
        return f"field.csv: values off by {err:.3g}"
    err = _rel_worst(data[rows, 4], fm_ref)
    if err > VALUE_TOL:
        return f"field.csv: fm off by {err:.3g} (rel)"
    err = _worst(data[rows, 5], reference)
    return f"field.csv: reference off by {err:.3g}" if err > VALUE_TOL else None


def check_field_lab_oracle(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    p = op.params

    def expected(t):
        s = ref.emission_times(p["profile"], 0.0, p["delta"], p["eps"], p["x"], t)
        return (np.exp(1j * s), ref.fm(p["profile"], 0.0, p["delta"], p["eps"], s),
                np.cos(t - p["x"]))
    return _check_field(op, out, expected, unit_modulus=True)


def check_field_lab_asymptotic(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    p = op.params

    def expected(t):
        return (ref.asymptotic_lab_field(p["profile"], 0.0, p["delta"], p["eps"], p["x"], t),
                ref.fm(p["profile"], 0.0, p["delta"], p["eps"], t), np.cos(t - p["x"]))
    return _check_field(op, out, expected)


def check_field_moving(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    p = op.params

    def expected(t):
        return (ref.moving_frame_field(p["profile"], 0.0, p["delta"], p["eps"], p["x"], t),
                ref.fm(p["profile"], 0.0, p["delta"], p["eps"], t), np.cos(t - p["x"]))
    return _check_field(op, out, expected)


def check_spectrum(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    p = op.params
    n = p["n"]
    dt = (p["t_max"] - p["t_min"]) / n
    t = p["t_min"] + dt * np.arange(n)
    series = np.exp(1j * ref.emission_times(p["profile"], 0.0, p["delta"], p["eps"],
                                            p["x"], t))
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    order = np.argsort(freqs)
    centers, mags = freqs[order], np.abs(np.fft.fft(series))[order]

    data = _load_csv(os.path.join(out, "spectrum.csv"), ["bin_center", "magnitude"])
    if len(data) != n or _worst(data[:, 0], centers) > 1e-12:
        return "spectrum.csv: bin centers differ from the DFT grid"
    err = _worst(data[:, 1], mags)
    if err > VALUE_TOL * n:
        return f"spectrum.csv: magnitudes off by {err:.3g} (reference max {mags.max():.3g})"
    parseval = abs(float(np.sum(data[:, 1] ** 2)) / n ** 2 - 1.0)
    if parseval > 1e-9:
        return f"spectrum.csv: sum |X|^2 / n^2 = 1 {parseval:+.3g}: modulus is not 1"

    peaks = _load_csv(os.path.join(out, "spectrum_peaks.csv"), ["bin_center", "magnitude"])
    if len(peaks) == 0:
        return "spectrum_peaks.csv: no peaks"
    bin_width = 2.0 * np.pi / (n * dt)
    for freq, mag in peaks:
        k = int(np.argmin(np.abs(centers - freq)))
        if abs(centers[k] - freq) > 1e-9 or abs(mags[k] - mag) > VALUE_TOL * n:
            return f"peak ({freq:.6g}, {mag:.6g}) is not a reference bin"
        if not (0 < k < n - 1 and mags[k] >= mags[k - 1] and mags[k] >= mags[k + 1]):
            return f"peak at {freq:.6g} is not a local maximum of the reference"
        if p["comb"]:
            sideband = (freq - 1.0) / p["eps"]
            if abs(sideband - round(sideband)) * p["eps"] > 0.5 * bin_width:
                return f"peak at {freq:.6g} is off the omega + k*Omega comb"
    return None


def _api_times(p: dict) -> np.ndarray:
    return p["t0"] + p["dt"] * np.arange(p["n"])


def check_api_oracle(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    p = op.params
    values = np.load(os.path.join(out, "values.npy"))
    if values.shape != (p["n"],):
        return f"values.npy: shape {values.shape}, expected ({p['n']},)"
    modulus = float(np.max(np.abs(np.abs(values) - 1.0)))
    if modulus > CLOSED_FORM_RTOL:
        return f"oracle modulus off 1 by {modulus:.3g}"
    s = ref.emission_times(p["profile"], 0.0, p["delta"], p["eps"], p["x"], _api_times(p))
    err = _worst(values, np.exp(1j * s))
    return f"oracle values off by {err:.3g}" if err > VALUE_TOL else None


def check_api_asymptotic(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    p = op.params
    values = np.load(os.path.join(out, "values.npy"))
    if values.shape != (p["n"],):
        return f"values.npy: shape {values.shape}, expected ({p['n']},)"
    expected = ref.asymptotic_lab_field(p["profile"], 0.0, p["delta"], p["eps"], p["x"],
                                        _api_times(p))
    err = _worst(values, expected)
    return f"asymptotic values off by {err:.3g}" if err > VALUE_TOL else None


def check_api_compare(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    with open(os.path.join(out, "report.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    norms = [report["max_modulus_error"], report["max_phase_error"],
             report["max_freq_rel_error"]]
    return _compare_norms(np.asarray(norms), report["max_freq_rel_error"], op.params["eps"])


CHECKS = {
    "figure": check_figure,
    "fm": check_fm,
    "am": check_am,
    "compare": check_compare,
    "appendix": check_appendix,
    "field-lab-oracle": check_field_lab_oracle,
    "field-lab-asymptotic": check_field_lab_asymptotic,
    "field-moving-asymptotic": check_field_moving,
    "spectrum": check_spectrum,
    "api-oracle": check_api_oracle,
    "api-asymptotic": check_api_asymptotic,
    "api-compare": check_api_compare,
}


def check(op: Op, out: str, stdout: str, golden: str) -> Optional[str]:
    """Error message for a successful op's outputs, or None when correct."""
    try:
        return CHECKS[op.check](op, out, stdout, golden)
    except (OSError, ValueError, KeyError, ET.ParseError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
