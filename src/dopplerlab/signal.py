"""Receiver time series, instantaneous frequency, and spectra.

A receiver fixed at ``x`` records the complex field at uniform intervals.
Instantaneous frequency is the derivative of the unwrapped phase;
spectra are plain discrete Fourier transforms with simple peak picking,
enough to show the sideband comb and its asymmetry for periodic boundary
motion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import AliasingSuspected, ArgumentOutOfRange
from .motion import BoundaryMotion, MediumParams, receiver_window, sample_grid, validate
from .oracle import _field_blocks

SOURCES = ("asymptotic", "oracle")
WINDOWS = ("rectangular", "hann")

#: Adjacent raw phase steps at or beyond this fraction of pi trip the
#: aliasing guard: unwrapping is no longer trustworthy.
ALIASING_FRACTION = 0.95

#: Peaks must clear this fraction of the global spectral maximum.
PEAK_THRESHOLD = 0.01


@dataclass(frozen=True)
class ReceiverSeries:
    """Uniformly sampled complex field at one receiver position."""

    x: float
    t0: float
    dt: float
    values: np.ndarray
    source: str = "asymptotic"

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ArgumentOutOfRange(f"dt must be positive, got {self.dt}")
        # A view: freezing it leaves the caller's own array writable.
        values = np.asarray(self.values, dtype=complex).view()
        if values.ndim != 1 or values.size < 2:
            raise ArgumentOutOfRange(
                f"a series needs at least 2 samples, got shape {values.shape}"
            )
        if self.source not in SOURCES:
            raise ArgumentOutOfRange(f"source must be one of {SOURCES}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Spectrum:
    """DFT magnitudes with detected peaks, largest magnitude first."""

    bin_width: float
    magnitudes: np.ndarray
    peaks: List[Tuple[float, float]] = field(default_factory=list)


def sample_on_grid(source: str, motion: BoundaryMotion, medium: MediumParams, x: float,
                   ts, include_phase_shift: bool = False, with_fm: bool = False):
    """Field values at a receiver at ``x`` over the time grid ``ts``, and its FM.

    The one path that samples a receiver.  The whole grid must pass
    :func:`~dopplerlab.motion.receiver_window`: inside the causal cone and
    ahead of the boundary, with no acausal zero-padding.  Returns
    ``(values, fm)`` in the shape of ``ts``, ``fm`` only when ``with_fm``
    is set (None otherwise).  The oracle gives ``exp(i*omega*t_e)`` with FM
    at the emission time (the exact received frequency over ``omega``); the
    asymptotic source gives ``AM * exp(i*phase)`` with FM at the reception
    time, and ``include_phase_shift`` only affects it.  Both fill the
    outputs from :func:`~dopplerlab.oracle._field_blocks`, one block of the
    grid at a time, so memory beyond the grid and the outputs does not grow
    with its length.
    """
    if source not in SOURCES:
        raise ArgumentOutOfRange(f"source must be one of {SOURCES}, got {source!r}")
    group = validate(motion, medium)
    ts = np.asarray(ts, dtype=float)
    receiver_window(motion, medium, x, ts)
    flat = ts.ravel()
    values = np.empty(flat.shape, dtype=complex)
    fm = np.empty(flat.shape) if with_fm else None
    for block, phase, am, fm_block, _ in _field_blocks(source, motion, medium, group, x, flat,
                                                       include_phase_shift):
        np.multiply(am, np.exp(1j * phase), out=values[block])
        if with_fm:
            fm[block] = fm_block
    return values.reshape(ts.shape), None if fm is None else fm.reshape(ts.shape)


def sample_receiver(source: str, motion: BoundaryMotion, medium: MediumParams,
                    x: float, t0: float, dt: float, n: int,
                    include_phase_shift: bool = False) -> ReceiverSeries:
    """Record ``n`` field samples at ``t0 + j*dt`` for a receiver at ``x``.

    :func:`sample_on_grid` on that grid; ``include_phase_shift`` only
    affects the asymptotic source.
    """
    if not (dt > 0.0):
        raise ArgumentOutOfRange(f"dt must be positive, got {dt}")
    ts = sample_grid(n, lambda k: t0 + dt * np.arange(k))
    values, _ = sample_on_grid(source, motion, medium, x, ts, include_phase_shift)
    return ReceiverSeries(x=x, t0=float(t0), dt=float(dt), values=values,
                          source=source)


def instantaneous_frequency(series: ReceiverSeries) -> np.ndarray:
    """Per-sample angular frequency from the unwrapped phase.

    Central differences in the interior, one-sided second-order stencils at
    the endpoints.  Raises :class:`AliasingSuspected` when any adjacent raw
    phase step reaches ``0.95 * pi``.
    """
    if len(series) < 3:
        raise ArgumentOutOfRange(
            f"instantaneous frequency needs >= 3 samples, got {len(series)}"
        )
    values = series.values
    steps = np.angle(values[1:] * np.conj(values[:-1]))
    worst = float(np.max(np.abs(steps)))
    if worst >= ALIASING_FRACTION * np.pi:
        raise AliasingSuspected(
            f"adjacent phase step {worst:.4f} rad >= "
            f"{ALIASING_FRACTION:.2f}*pi: decrease dt"
        )
    phase = np.unwrap(np.angle(values))
    return np.gradient(phase, series.dt, edge_order=2)


def spectrum(series: ReceiverSeries, window: str = "rectangular") -> Spectrum:
    """DFT magnitude spectrum with peak detection.

    ``bin_width = 2*pi / (n*dt)``; peaks are interior local maxima above
    1% of the global maximum (strictly above the left neighbour, at least
    the right one), reported as ``(bin center, magnitude)`` pairs sorted by
    descending magnitude, ties in bin order.  No two peaks are adjacent:
    bin ``k`` is a peak only if ``mags[k] >= mags[k+1]``, and then bin
    ``k+1`` is not strictly above its left neighbour.  Bin centers are
    signed angular frequencies in natural DFT order.
    """
    if window not in WINDOWS:
        raise ArgumentOutOfRange(f"window must be one of {WINDOWS}, got {window!r}")
    n = len(series)
    if n < 8:
        raise ArgumentOutOfRange(f"spectrum needs >= 8 samples, got {n}")
    values = series.values
    if window == "hann":
        values = values * np.hanning(n)
    mags = np.abs(np.fft.fft(values))
    bin_width = 2.0 * np.pi / (n * series.dt)
    centers = 2.0 * np.pi * np.fft.fftfreq(n, d=series.dt)

    inner = mags[1:-1]
    candidates = 1 + np.flatnonzero((inner > PEAK_THRESHOLD * float(np.max(mags)))
                                    & (inner > mags[:-2]) & (inner >= mags[2:]))
    candidates = candidates[np.argsort(-mags[candidates], kind="stable")]
    peaks = [(float(centers[k]), float(mags[k])) for k in candidates]
    return Spectrum(bin_width=float(bin_width), magnitudes=mags, peaks=peaks)


def parseval_mismatch(series: ReceiverSeries) -> float:
    """Relative gap between spectral and sample energy (rectangular window).

    ``sum |X_k|^2`` must equal ``n * sum |v_j|^2`` for the plain DFT; the
    returned value is the relative difference (0 up to roundoff).
    """
    mags = np.abs(np.fft.fft(series.values))
    lhs = float(np.sum(mags ** 2))
    rhs = float(len(series) * np.sum(np.abs(series.values) ** 2))
    return abs(lhs - rhs) / rhs
