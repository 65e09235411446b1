"""Exact outgoing-wave solution via the retarded-time equation.

For subsonic boundary motion the outgoing half-line solution is
``U(x, t) = exp(i * omega * t_e)`` where the emission time ``t_e`` solves
``g(t_e) = t_e - X_s(t_e)/c - (t - x/c) = 0``.  ``g`` is strictly
increasing (``g' = 1 - Xdot_s/c > 0``), so the root is unique and
bracketed by ``[0, t]``.  This module is the independent check against
which the multiple-scales approximation is measured.

One vectorised solver, :func:`_solve_retarded`, serves every profile,
built-in or custom.  Its inverse, ``t(S) = x/c + S - X_s(S)/c``, is
explicit and strictly increasing, so the solver tabulates ``t(S)`` over the
bracket ``[0, max t]``, known before any solve
(``TABLE_ROWS_PER_SLOW_TIME`` rows per unit of slow time ``Omega*S``, never
more rows than the grid has points, never fewer than two), and starts every
point at ``np.interp`` of that table.  A one- or two-point grid gets the
secant through ``S = 0`` and ``S = max t``, which for uniform motion is the
root itself up to rounding.  From there it takes Newton steps, each from one
:meth:`MotionProfile.eval` call giving ``g`` and ``g'`` together from
``alpha`` and ``alpha'``.  The ``[0, t]`` bracket shrinks around the root as
it goes, and a step that would leave it falls back to the bracket midpoint
(``rtsafe`` in *Numerical Recipes*).  Only points not yet within tolerance
keep iterating; from the table most need one step.  A point's last pass
evaluated ``alpha'`` at its emission time, so the exact FM reuses it.

A long grid is solved one block of ``motion.BLOCK`` points at a time
(:func:`_solved_blocks`), every block starting from the one table built for
the whole grid, so each emission time is the one a whole-grid solve gives.
The exact field, and :func:`compare_fields`' error norms, are built block by
block on top, so no intermediate array is larger than a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .asymptotics import _fm, _lab_field
from .errors import ArgumentOutOfRange, NoConvergence
from .motion import (BoundaryMotion, MediumParams, _blocks, _first_peak, before_arrival,
                     receiver_window, sample_grid, validate)

#: Default solver tolerance scale: |residual| <= 1e-12 / omega keeps the
#: oracle phase accurate to 1e-12 radians.
DEFAULT_TOL_SCALE = 1e-12

#: Newton-step budget per point of the retarded-time solve.
MAX_ITERATIONS = 200

#: Rows per unit of slow time (``Omega*t_e``) in the table of the inverse
#: map that starts the solve; a table has at least two rows and never more
#: rows than a larger grid has points.
TABLE_ROWS_PER_SLOW_TIME = 512


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
    Every point starts from the inverse of the map ``t(S)`` tabulated over
    the bracket ``[0, max t]`` (module docstring): ``table`` when given, as
    :func:`_start_table` builds it for a whole grid of which ``ts`` is a
    block, else a table built for ``ts`` alone.  Each step takes ``g`` and
    ``g'`` from one :meth:`MotionProfile.eval` of ``(alpha, alpha')``,
    inside the bracket ``[0, t]``; only points with ``|g| > tol`` keep
    iterating, for at most ``MAX_ITERATIONS`` steps.  Returns ``(t_e,
    residual, iterations)`` arrays, ``iterations`` counting the Newton steps
    from each point's start; callers decide whether ``residual > tol`` is
    fatal.  ``slope``, an optional float array shaped like ``ts``, receives
    the ``alpha'`` of each point's last evaluation, which is
    ``alpha'(Omega*t_e)`` to the bit: the FM factor at ``t_e`` needs no
    evaluation of its own.
    """
    c, v, a, Omega = medium.c, motion.v, motion.a, motion.Omega
    t = np.asarray(ts, dtype=float)
    if table is None:
        table = _start_table(motion, medium, x, float(np.max(t)), t.size)
    s = np.clip(np.interp(t, *table), 0.0, t)
    del table  # a table built here dies before the first step

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
    """``(reception, emission)``: ``t(S)`` tabulated over the bracket ``[0, s_hi]``.

    ``s_hi`` is the grid's latest time and ``size`` its point count, which
    caps the rows; ``np.interp`` of the table starts each point.
    """
    c, v, a, Omega = medium.c, motion.v, motion.a, motion.Omega
    rows = max(2, min(size, 2 + int(TABLE_ROWS_PER_SLOW_TIME * Omega * s_hi)))
    emission = np.linspace(0.0, s_hi, rows)
    alpha, = motion.profile.eval(Omega * emission, order=(0,))
    return x / c + emission - (v * emission + a * alpha) / c, emission


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


def _exact_blocks(motion: BoundaryMotion, medium: MediumParams, group, x: float, flat,
                  with_fm: bool):
    """``(block, phase, fm)`` of the exact field ``exp(i*phase)`` at ``x``, block by block.

    ``flat`` is a guarded 1-D grid, solved by :func:`_solved_blocks`.
    ``phase = omega*t_e``; ``fm`` is the FM factor at ``t_e`` (the exact
    received frequency over ``omega``), or None unless ``with_fm`` is set.
    ``fm`` is built from the ``alpha'(Omega*t_e)`` of the solve's last
    Newton pass, so it costs no profile evaluation of its own.
    """
    for block, te, _, _, slope in _solved_blocks(motion, medium, x, flat):
        fm = _fm(group.beta, group.delta, slope) if with_fm else None
        yield block, medium.omega * te, fm


def retarded_time(motion: BoundaryMotion, medium: MediumParams, x: float,
                  t: float) -> RetardedTimeResult:
    """Solve ``t_e - X_s(t_e)/c = t - x/c`` for the emission time.

    Safeguarded Newton iteration (see the module docstring) to
    ``|residual| <= 1e-12 / omega``.
    """
    validate(motion, medium)
    receiver_window(motion, medium, x, [t])
    te, resid, iters = _solve_checked(motion, medium, x, [t])
    return RetardedTimeResult(t_e=float(te[0]), residual=float(resid[0]),
                              iterations=int(iters[0]))


def exact_field(motion: BoundaryMotion, medium: MediumParams, x: float,
                t: float) -> complex:
    """``exp(i*omega*t_e)`` inside the causal cone, 0 outside it.

    The exact outgoing field has unit modulus wherever it is nonzero.
    """
    group = validate(motion, medium)
    if before_arrival(medium, x, t):
        return 0.0j
    receiver_window(motion, medium, x, [t])
    (_, phase, _), = _exact_blocks(motion, medium, group, x, np.array([t], dtype=float),
                                   False)
    return complex(np.exp(1j * phase)[0])


def exact_instantaneous_frequency(motion: BoundaryMotion, medium: MediumParams,
                                  x: float, t: float) -> float:
    """Received frequency ``omega / (1 - beta - delta*alpha'(Omega*t_e))``.

    The classical shift formula evaluated at the emission time; on the
    boundary itself (``x = X_s(t)``, so ``t_e = t``) this is exactly
    ``omega * fm_factor(t)``.
    """
    group = validate(motion, medium)
    receiver_window(motion, medium, x, [t])
    (_, _, fm), = _exact_blocks(motion, medium, group, x, np.array([t], dtype=float), True)
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
    for block, phase_exact, fm_exact in _exact_blocks(motion, medium, group, x, ts, True):
        freq_exact = medium.omega * fm_exact
        phase, am, _, freq_asym = _lab_field(motion, medium, group, x, ts[block],
                                             include_phase_shift, with_rate=True)
        np.maximum(maxima, [np.max(np.abs(phase - phase_exact)),
                            np.max(np.abs(freq_asym - freq_exact) / freq_exact),
                            np.max(np.abs(np.abs(am) - 1.0))], out=maxima)
    max_phase, max_freq, max_modulus = map(float, maxima)

    return ComparisonReport(max_modulus_error=max_modulus,
                            max_phase_error=max_phase,
                            max_freq_rel_error=max_freq)
