"""Exact outgoing-wave solution via the retarded-time equation.

For subsonic boundary motion the outgoing half-line solution is
``U(x, t) = exp(i * omega * t_e)`` where the emission time ``t_e`` solves
``g(t_e) = t_e - X_s(t_e)/c - (t - x/c) = 0``.  ``g`` is strictly
increasing (``g' = 1 - Xdot_s/c > 0``), so the root is unique and
bracketed by ``[0, t]``.  This module is the independent check against
which the multiple-scales approximation is measured.

One vectorised solver, :func:`_solve_retarded`, serves every profile,
built-in or custom.  Its inverse, ``t(S) = x/c + S - X_s(S)/c``, is
explicit and strictly increasing with the exact slope ``dS/dt = FM``, so the
solver tabulates ``(t, S, FM)`` over the bracket ``[0, max t]``, known before
any solve (:func:`_start_table`: ``TABLE_ROWS_PER_SLOW_TIME`` rows per unit
of slow time ``Omega*S``, at most a quarter of the grid's points and at most
``motion.BLOCK``, never fewer than two), and starts every point at the
cubic-Hermite inverse of that table: ``np.interp``'s linear interpolate plus
one cubic bend per interval.  On the compare sweep's grids that start is
already within tolerance, so no Newton step is taken.  Where it is not (a
coarse table, a one- or two-point grid) the solver takes Newton steps, each
from one :meth:`MotionProfile.eval` call giving ``g`` and ``g'`` together
from ``alpha`` and ``alpha'``.  The ``[0, t]`` bracket shrinks around the
root as it goes, and a step that would leave it falls back to the bracket
midpoint (``rtsafe`` in *Numerical Recipes*).  Only points not yet within
tolerance keep iterating.  A point's last pass evaluated ``alpha'`` at its
emission time, so the exact FM reuses it.

A long grid is solved one block of ``motion.BLOCK`` points at a time
(:func:`_solved_blocks`), every block starting from the one table built for
the whole grid, so each emission time is the one a whole-grid solve gives.
Both sources' fields are built block by block on top (:func:`_field_blocks`),
so no intermediate array is larger than a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .asymptotics import _fm, _lab_field
from .errors import ArgumentOutOfRange, NoConvergence
from .motion import (BLOCK, BoundaryMotion, MediumParams, _blocks, _first_peak, _scalars,
                     before_arrival, receiver_window, sample_grid, validate)

#: Default solver tolerance scale: |residual| <= 1e-12 / omega keeps the
#: oracle phase accurate to 1e-12 radians.
DEFAULT_TOL_SCALE = 1e-12

#: Newton-step budget per point of the retarded-time solve.
MAX_ITERATIONS = 200

#: Rows per unit of slow time (``Omega*t_e``) in the table of the inverse
#: map that starts the solve.  The cubic-Hermite start's error falls as the
#: fourth power of the row spacing: at 1024 rows the compare sweep's worst
#: start residual is under a tenth of the tolerance, at 512 it is 0.97 of
#: it.  A table has at least two rows, and at most a quarter as many rows as
#: the grid has points and at most ``motion.BLOCK``, so building it never
#: costs more than a small share of the solve.
TABLE_ROWS_PER_SLOW_TIME = 1024


@dataclass(frozen=True)
class RetardedTimeResult:
    """Emission time with its achieved residual and iteration count.

    ``iterations`` counts the Newton steps from the tabulated start.
    """

    t_e: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class ComparisonReport:
    """Error norms between the asymptotic and exact fields on one window."""

    max_modulus_error: float
    max_phase_error: float
    max_freq_rel_error: float


def _solve_retarded(motion: BoundaryMotion, medium: MediumParams, x: float,
                    ts: np.ndarray, tol: float, table=None, slope=None):
    """Safeguarded Newton solve of the retarded-time equation on a grid.

    ``ts`` is a non-empty 1-D grid with ``t - x/c >= 0`` (caller-checked).
    Every point starts from the cubic-Hermite inverse of the map ``t(S)``
    tabulated over the bracket ``[0, max t]`` (module docstring): ``table``
    when given, as :func:`_start_table` builds it for a whole grid of which
    ``ts`` is a block, else a table built for ``ts`` alone.  Each pass takes
    ``g`` and ``g'`` from one :meth:`MotionProfile.eval` of ``(alpha,
    alpha')``; only points with ``|g| > tol`` take a Newton step, inside the
    bracket ``[0, t]``, for at most ``MAX_ITERATIONS`` steps.  Returns
    ``(t_e, residual, iterations)`` arrays, ``iterations`` counting the
    Newton steps from each point's start (0 when the start is within
    ``tol``); callers decide whether ``residual > tol`` is fatal.  ``slope``,
    an optional float array shaped like ``ts``, receives the ``alpha'`` of
    each point's last evaluation, which is ``alpha'(Omega*t_e)`` to the bit:
    the FM factor at ``t_e`` needs no evaluation of its own.
    """
    c, v, a, Omega = medium.c, motion.v, motion.a, motion.Omega
    t = np.asarray(ts, dtype=float)
    if table is None:
        table = _start_table(motion, medium, x, float(np.max(t)), t.size)
    reception, emission, rows_per_s, left, bend = table
    del table  # a table built here dies before the first step
    # The linear interpolate plus its interval's cubic bend (_start_table).
    # A NaN interpolate (a NaN receiver) casts to a garbage row, which take
    # clips; the bend stays NaN and the point stalls.
    s = np.interp(t, reception, emission)
    pos = s * rows_per_s
    with np.errstate(invalid="ignore"):
        row = pos.astype(np.intp)
    u = pos - row
    s += u * (1.0 - u) * (left.take(row, mode="clip") - u * bend.take(row, mode="clip"))
    del pos, row, u, reception, emission, left, bend
    s = np.clip(s, 0.0, t, out=s)

    idx = None  # the points still iterating, once the working set is compacted
    rhs = t - x / c
    lo, hi = np.zeros_like(t), t
    # Each array is dropped as soon as it is dead and the working set is
    # compacted one array at a time: peak memory stays at about a dozen
    # arrays the size of ts, which _solved_blocks keeps at BLOCK points.
    for it in range(MAX_ITERATIONS + 1):
        alpha, ap = motion.profile.eval(Omega * s, order=(0, 1))
        g = s - (v * s + a * alpha) / c - rhs
        del alpha
        done = np.abs(g) <= tol
        if it == MAX_ITERATIONS:
            done[:] = True
        if done.all():
            # From the tabulated start every point usually finishes at
            # once, and with nothing compacted the working arrays are the
            # results; masked copies here would each be the size of ts.
            if idx is None:
                if slope is not None:
                    slope[:] = ap
                return s, np.abs(g, out=g), np.full(t.shape, it, dtype=np.int64)
            te[idx], resid[idx], iters[idx] = s, np.abs(g, out=g), it
            if slope is not None:
                slope[idx] = ap
            break
        if done.any():
            if idx is None:
                idx = np.arange(t.size)
                te, resid = np.empty_like(t), np.empty_like(t)
                iters = np.empty(t.shape, dtype=np.int64)
            finished = idx[done]
            te[finished] = s[done]
            resid[finished] = np.abs(g[done])
            iters[finished] = it
            if slope is not None:
                slope[finished] = ap[done]
            keep = ~done
            idx = idx[keep]
            rhs = rhs[keep]
            s = s[keep]
            g = g[keep]
            ap = ap[keep]
            lo = lo[keep]
            hi = hi[keep]
        del done
        lo = np.where(g < 0.0, s, lo)
        hi = np.where(g > 0.0, s, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = s - g / (1.0 - (v + a * Omega * ap) / c)
        del g, ap
        # Closed bracket: a Newton step may land exactly on an endpoint
        # (that IS the root when g is locally linear).
        bad = ~np.isfinite(s) | (s < lo) | (s > hi)
        s[bad] = 0.5 * (lo[bad] + hi[bad])
        del bad
    return te, resid, iters


def _start_table(motion: BoundaryMotion, medium: MediumParams, x: float, s_hi: float,
                 size: int):
    """The cubic-Hermite inverse of ``t(S)`` over the bracket ``[0, s_hi]``, as a table.

    ``s_hi`` is the grid's latest time and ``size`` its point count.  The
    rows are ``TABLE_ROWS_PER_SLOW_TIME`` per unit of ``Omega*s_hi``, at
    most ``size // 4`` and ``motion.BLOCK``, at least two.  One evaluation
    of ``(alpha, alpha')`` at the rows gives ``t(S)`` and its exact inverse
    slope ``dS/dt = FM``.  Returns ``(reception, emission, rows_per_s,
    left, bend)``: ``np.interp`` of the first two gives the linear
    interpolate, and ``rows_per_s`` turns it into a row position, whose
    integer part is the row ``i`` and whose fraction ``u`` is where it lies
    between rows ``i`` and ``i+1``.  The Hermite cubic through both rows
    with slopes ``FM_i`` and ``FM_(i+1)`` is the linear interpolate plus
    ``u*(1-u)*(left_i - u*bend_i)``, where, for the interval's widths ``h``
    in ``t`` and ``dS`` in ``S``, ``left_i = h*FM_i - dS`` and ``bend_i =
    left_i + h*FM_(i+1) - dS``.
    """
    c, v, a, Omega = medium.c, motion.v, motion.a, motion.Omega
    rows = max(2, min(size // 4, BLOCK, 2 + int(TABLE_ROWS_PER_SLOW_TIME * Omega * s_hi)))
    emission = np.linspace(0.0, s_hi, rows)
    alpha, ap = motion.profile.eval(Omega * emission, order=(0, 1))
    reception = x / c + emission - (v * emission + a * alpha) / c
    fm = 1.0 / (1.0 - (v + a * Omega * ap) / c)
    h, ds = np.diff(reception), np.diff(emission)
    left = h * fm[:-1] - ds
    bend = left + (h * fm[1:] - ds)
    # A grid at t = 0 alone tabulates one point twice; its start is S = 0.
    rows_per_s = (rows - 1) / s_hi if s_hi > 0.0 else 0.0
    return reception, emission, rows_per_s, left, bend


def _solved_blocks(motion: BoundaryMotion, medium: MediumParams, x: float, flat):
    """:func:`_solve_retarded` to ``1e-12/omega`` over a 1-D grid, one block at a time.

    Yields ``(block, t_e, residual, iterations, slope)`` for each
    :func:`_blocks` slice of ``flat`` in order, ``slope`` being
    ``alpha'(Omega*t_e)`` from the solve's last evaluation.  One start
    table serves the whole grid, so each point starts, and ends, exactly
    where a whole-grid solve puts it.  After a block stalls no further
    block is yielded, but every block is still solved:
    :class:`NoConvergence` then names the worst residual of the whole
    grid.  Consumers must run the generator to its end.
    """
    tol = DEFAULT_TOL_SCALE / medium.omega
    table = _start_table(motion, medium, x, float(np.max(flat)), flat.size)
    peaks, stalled = [], False
    for block in _blocks(flat.size):
        slope = np.empty(block.stop - block.start)
        te, resid, iters = _solve_retarded(motion, medium, x, flat[block], tol, table, slope)
        worst = int(np.argmax(resid))
        peaks.append((resid[worst], iters[worst], block.start + worst))
        stalled = stalled or not resid[worst] <= tol  # a NaN residual stalls too
        if not stalled:
            yield block, te, resid, iters, slope
    if stalled:
        residual, steps, worst = _first_peak(peaks)
        raise NoConvergence(
            f"retarded-time solve stalled at residual {residual:.3g} "
            f"(> {tol:.3g}) after {steps} iterations for "
            f"(x={x}, t={flat[worst]})"
        )


def _solve_checked(motion: BoundaryMotion, medium: MediumParams, x: float, ts):
    """:func:`_solve_retarded` to ``1e-12/omega`` that raises :class:`NoConvergence` on a stall.

    ``ts`` may have any shape: the solve runs on blocks of its flattened
    grid (views when ``ts`` is contiguous) and the results take the shape
    of ``ts``.
    """
    ts = np.asarray(ts, dtype=float)
    flat = ts.ravel()
    te, resid = np.empty_like(flat), np.empty_like(flat)
    iters = np.empty(flat.shape, dtype=np.int64)
    for block, *solved, _ in _solved_blocks(motion, medium, x, flat):
        te[block], resid[block], iters[block] = solved
    return te.reshape(ts.shape), resid.reshape(ts.shape), iters.reshape(ts.shape)


def _field_blocks(source: str, motion: BoundaryMotion, medium: MediumParams, group,
                  x: float, flat, include_phase_shift: bool = False, with_rate: bool = False):
    """``(block, phase, am, fm, rate)`` of either source's field ``am*exp(i*phase)`` at ``x``.

    The one place both sources are built, block by block over the guarded
    1-D grid ``flat``.  The oracle gives ``(omega*t_e, 1, FM at t_e,
    omega*FM)``, FM from the last ``alpha'`` of :func:`_solved_blocks`; the
    asymptotic source gives :func:`_lab_field`'s, at the reception time.
    ``rate`` is None unless ``with_rate`` is set.
    """
    if source == "oracle":
        for block, te, _, _, slope in _solved_blocks(motion, medium, x, flat):
            fm = _fm(group.beta, group.delta, slope)
            yield block, medium.omega * te, 1.0, fm, medium.omega * fm if with_rate else None
    else:
        for block in _blocks(flat.size):
            yield (block, *_lab_field(motion, medium, group, x, flat[block],
                                      include_phase_shift, with_rate))


def retarded_time(motion: BoundaryMotion, medium: MediumParams, x: float,
                  t: float) -> RetardedTimeResult:
    """Solve ``t_e - X_s(t_e)/c = t - x/c`` for the emission time.

    Safeguarded Newton iteration (see the module docstring) to
    ``|residual| <= 1e-12 / omega`` at one point ``(x, t)``.
    """
    validate(motion, medium)
    _scalars(x=x, t=t)
    receiver_window(motion, medium, x, [t])
    te, resid, iters = _solve_checked(motion, medium, x, [t])
    return RetardedTimeResult(t_e=float(te[0]), residual=float(resid[0]),
                              iterations=int(iters[0]))


def exact_field(motion: BoundaryMotion, medium: MediumParams, x: float,
                t: float) -> complex:
    """``exp(i*omega*t_e)`` inside the causal cone, 0 outside it.

    The exact outgoing field at one point has unit modulus where it is nonzero.
    """
    group = validate(motion, medium)
    _scalars(x=x, t=t)
    if before_arrival(medium, x, t):
        return 0.0j
    receiver_window(motion, medium, x, [t])
    (_, phase, _, _, _), = _field_blocks("oracle", motion, medium, group, x, np.array([t], float))
    return complex(np.exp(1j * phase)[0])


def exact_instantaneous_frequency(motion: BoundaryMotion, medium: MediumParams,
                                  x: float, t: float) -> float:
    """Received frequency ``omega / (1 - beta - delta*alpha'(Omega*t_e))``.

    The classical shift formula evaluated at the emission time; on the
    boundary itself (``x = X_s(t)``, so ``t_e = t``) this is exactly
    ``omega * fm_factor(t)``.  ``(x, t)`` is one point.
    """
    group = validate(motion, medium)
    _scalars(x=x, t=t)
    receiver_window(motion, medium, x, [t])
    (_, _, _, fm, _), = _field_blocks("oracle", motion, medium, group, x, np.array([t], float))
    return medium.omega * float(fm[0])


def compare_fields(motion: BoundaryMotion, medium: MediumParams, x: float,
                   t_window: Tuple[float, float], n_samples: int,
                   include_phase_shift: bool = True) -> ComparisonReport:
    """Sample both solutions on a uniform time grid and report error norms.

    Moduli come from the sampled field values; phases and instantaneous
    frequencies are evaluated analytically on both sides (the asymptotic
    side by differentiating its closed-form phase, the exact side through
    the emission time), so the reported errors carry no finite-difference
    noise.  The whole window must lie inside the causal cone and ahead of
    the boundary.  Both sides are evaluated one block of the grid at a time
    (:func:`~dopplerlab.motion._blocks`) into three running maxima, so
    memory beyond the time grid itself does not grow with ``n_samples``;
    the norms equal those of a whole-grid evaluation exactly.
    """
    group = validate(motion, medium)
    t_lo, t_hi = float(t_window[0]), float(t_window[1])
    if not (t_hi > t_lo):
        raise ArgumentOutOfRange(f"empty comparison window {t_window}")
    ts = sample_grid(n_samples, lambda n: np.linspace(t_lo, t_hi, n))
    receiver_window(motion, medium, x, ts)

    # (phase, freq, modulus); np.maximum keeps a NaN, as np.max over the grid does.
    maxima = np.full(3, -np.inf)
    exact = _field_blocks("oracle", motion, medium, group, x, ts, with_rate=True)
    lab = _field_blocks("asymptotic", motion, medium, group, x, ts, include_phase_shift,
                        with_rate=True)
    for (_, phase_exact, _, _, freq_exact), (_, phase, am, _, freq_asym) in zip(exact, lab):
        np.maximum(maxima, [np.max(np.abs(phase - phase_exact)),
                            np.max(np.abs(freq_asym - freq_exact) / freq_exact),
                            np.max(np.abs(np.abs(am) - 1.0))], out=maxima)
    max_phase, max_freq, max_modulus = map(float, maxima)

    return ComparisonReport(max_modulus_error=max_modulus,
                            max_phase_error=max_phase,
                            max_freq_rel_error=max_freq)
