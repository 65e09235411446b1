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
keep iterating; from the table most need one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .asymptotics import _fm, _lab_field
from .errors import ArgumentOutOfRange, NoConvergence
from .motion import BoundaryMotion, MediumParams, before_arrival, receiver_window, validate

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
                    ts: np.ndarray, tol: float):
    """Safeguarded Newton solve of the retarded-time equation on a grid.

    ``ts`` is a non-empty 1-D grid with ``t - x/c >= 0`` (caller-checked).
    Every point starts from the inverse of the map ``t(S)`` tabulated over
    the bracket ``[0, max t]`` (module docstring).  Each step takes ``g``
    and ``g'`` from one :meth:`MotionProfile.eval` of ``(alpha, alpha')``,
    inside the bracket ``[0, t]``; only points with ``|g| > tol`` keep
    iterating, for at most ``MAX_ITERATIONS`` steps.  Returns ``(t_e,
    residual, iterations)`` arrays, ``iterations`` counting the Newton steps
    from each point's start; callers decide whether ``residual > tol`` is
    fatal.
    """
    c, v, a, Omega = medium.c, motion.v, motion.a, motion.Omega
    t = np.asarray(ts, dtype=float)
    # Only the start is kept, not its table; it is freed by the first step.
    s = _tabulated_start(motion, medium, x, t)
    te = np.empty_like(t)
    resid = np.empty_like(t)
    iters = np.zeros(t.shape, dtype=np.int64)

    idx = np.arange(t.size)
    rhs = t - x / c
    lo, hi = np.zeros_like(t), t
    # Grids run to 10^5-10^6 points, so each array is dropped as soon as it
    # is dead and the working set is compacted one array at a time: peak
    # memory stays at about a dozen grid-sized arrays.
    for it in range(MAX_ITERATIONS + 1):
        alpha, ap = motion.profile.eval(Omega * s, order=(0, 1))
        g = s - (v * s + a * alpha) / c - rhs
        del alpha
        done = np.abs(g) <= tol
        if it == MAX_ITERATIONS:
            done[:] = True
        if done.all():
            # From the tabulated start every point usually finishes at
            # once; masked copies here would each be grid-sized.
            te[idx], resid[idx], iters[idx] = s, np.abs(g, out=g), it
            break
        if done.any():
            finished = idx[done]
            te[finished] = s[done]
            resid[finished] = np.abs(g[done])
            iters[finished] = it
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


def _tabulated_start(motion: BoundaryMotion, medium: MediumParams, x: float,
                     t: np.ndarray) -> np.ndarray:
    """Each point's start: ``t(S)`` tabulated over the bracket ``[0, max t]``, inverted.

    The table dies on return, so only the start array reaches the solve.
    """
    c, v, a, Omega = medium.c, motion.v, motion.a, motion.Omega
    s_hi = float(np.max(t))
    rows = max(2, min(t.size, 2 + int(TABLE_ROWS_PER_SLOW_TIME * Omega * s_hi)))
    emission = np.linspace(0.0, s_hi, rows)
    alpha, = motion.profile.eval(Omega * emission, order=(0,))
    reception = x / c + emission - (v * emission + a * alpha) / c
    del alpha
    return np.clip(np.interp(t, reception, emission), 0.0, t)


def _solve_checked(motion: BoundaryMotion, medium: MediumParams, x: float, ts):
    """:func:`_solve_retarded` to ``1e-12/omega`` that raises :class:`NoConvergence` on a stall.

    ``ts`` may have any shape: the solve runs on its flattened grid (a view
    when ``ts`` is contiguous) and the results take the shape of ``ts``.
    """
    tol = DEFAULT_TOL_SCALE / medium.omega
    ts = np.asarray(ts, dtype=float)
    flat = ts.ravel()
    te, resid, iters = _solve_retarded(motion, medium, x, flat, tol)
    worst = int(np.argmax(resid))
    if not resid[worst] <= tol:  # a NaN residual stalls too
        raise NoConvergence(
            f"retarded-time solve stalled at residual {resid[worst]:.3g} "
            f"(> {tol:.3g}) after {iters[worst]} iterations for "
            f"(x={x}, t={flat[worst]})"
        )
    return te.reshape(ts.shape), resid.reshape(ts.shape), iters.reshape(ts.shape)


def _exact_field(motion: BoundaryMotion, medium: MediumParams, group, x: float, ts,
                 with_fm: bool):
    """``(phase, fm)`` of the exact field ``exp(i*phase)`` at ``x`` over a guarded grid.

    ``phase = omega*t_e``; ``fm`` is the FM factor at ``t_e`` (the exact
    received frequency over ``omega``), or None unless ``with_fm`` is set.
    """
    te = _solve_checked(motion, medium, x, ts)[0]
    fm = (_fm(group.beta, group.delta, motion.profile.eval(motion.Omega * te, order=(1,))[0])
          if with_fm else None)
    return medium.omega * te, fm


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
    phase, _ = _exact_field(motion, medium, group, x, [t], False)
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
    _, fm = _exact_field(motion, medium, group, x, [t], True)
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
    the boundary.
    """
    group = validate(motion, medium)
    t_lo, t_hi = float(t_window[0]), float(t_window[1])
    if not (t_hi > t_lo):
        raise ArgumentOutOfRange(f"empty comparison window {t_window}")
    if not 2 <= n_samples < np.inf:  # NaN fails both
        raise ArgumentOutOfRange(f"need a finite count of at least 2 samples, got {n_samples}")
    ts = np.linspace(t_lo, t_hi, int(n_samples))
    receiver_window(motion, medium, x, ts)

    # The exact side goes first, so its emission times are dropped before
    # the asymptotic side evaluates the profile: peak memory stays at the
    # solver's.
    phase_exact, fm_exact = _exact_field(motion, medium, group, x, ts, True)
    freq_exact = medium.omega * fm_exact
    del fm_exact
    phase, am, fm, freq_asym = _lab_field(motion, medium, group, x, ts, include_phase_shift,
                                          with_rate=True)
    max_phase = float(np.max(np.abs(phase - phase_exact)))
    del phase, phase_exact, fm
    max_modulus = float(np.max(np.abs(np.abs(am) - 1.0)))
    del am
    max_freq = float(np.max(np.abs(freq_asym - freq_exact) / freq_exact))

    return ComparisonReport(max_modulus_error=max_modulus,
                            max_phase_error=max_phase,
                            max_freq_rel_error=max_freq)
