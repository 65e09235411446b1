"""Exact outgoing-wave solution via the retarded-time equation.

For subsonic boundary motion the outgoing half-line solution is
``U(x, t) = exp(i * omega * t_e)`` where the emission time ``t_e`` solves
``g(t_e) = t_e - X_s(t_e)/c - (t - x/c) = 0``.  ``g`` is strictly
increasing (``g' = 1 - Xdot_s/c > 0``), so the root is unique and
bracketed by ``[0, t]``.  This module is the independent check against
which the multiple-scales approximation is measured.

One vectorised solver, :func:`_solve_retarded`, serves every profile,
built-in or custom.  It starts from the uniform-motion guess
``(t - x/c)/(1 - beta)`` and takes Newton steps, each from one
:meth:`MotionProfile.eval` call giving ``g`` and ``g'`` together.  The
``[0, t]`` bracket shrinks around the root as it goes, and a step that
would leave it falls back to the bracket midpoint (``rtsafe`` in
*Numerical Recipes*).  Only points not yet within tolerance keep iterating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .asymptotics import _am, _kinematics, _phase_bracket, _phase_rate
from .errors import ArgumentOutOfRange, NoConvergence
from .motion import BoundaryMotion, MediumParams, receiver_window, validate

#: Default solver tolerance scale: |residual| <= 1e-12 / omega keeps the
#: oracle phase accurate to 1e-12 radians.
DEFAULT_TOL_SCALE = 1e-12

#: Newton-step budget per point of the retarded-time solve.
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class RetardedTimeResult:
    """Emission time with its achieved residual and iteration count."""

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

    ``ts`` is a 1-D grid with ``t - x/c >= 0`` (caller-checked).  Returns
    ``(t_e, residual, iterations)`` arrays; callers decide whether
    ``residual > tol`` is fatal.
    """
    c, v, a, Omega = medium.c, motion.v, motion.a, motion.Omega
    t = np.asarray(ts, dtype=float)
    te = np.empty_like(t)
    resid = np.empty_like(t)
    iters = np.zeros(t.shape, dtype=np.int64)

    idx = np.arange(t.size)
    rhs = t - x / c
    s = np.clip(rhs / (1.0 - v / c), 0.0, t)
    lo, hi = np.zeros_like(t), t
    # Grids run to 10^5-10^6 points, so each array is dropped as soon as it
    # is dead and the working set is compacted one array at a time: peak
    # memory stays at about a dozen grid-sized arrays.
    for it in range(MAX_ITERATIONS + 1):
        alpha, ap = motion.profile.eval(Omega * s)[:2]
        g = s - (v * s + a * alpha) / c - rhs
        del alpha
        done = np.abs(g) <= tol
        if it == MAX_ITERATIONS:
            done[:] = True
        finished = idx[done]
        te[finished] = s[done]
        resid[finished] = np.abs(g[done])
        iters[finished] = it
        if finished.size == idx.size:
            break
        if finished.size:
            keep = ~done
            idx = idx[keep]
            rhs = rhs[keep]
            s = s[keep]
            g = g[keep]
            ap = ap[keep]
            lo = lo[keep]
            hi = hi[keep]
        lo = np.where(g < 0.0, s, lo)
        hi = np.where(g > 0.0, s, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = s - g / (1.0 - (v + a * Omega * ap) / c)
        del g, ap
        # Closed bracket: a Newton step may land exactly on an endpoint
        # (that IS the root when g is locally linear).
        bad = ~np.isfinite(s) | (s < lo) | (s > hi)
        s[bad] = 0.5 * (lo[bad] + hi[bad])
    return te, resid, iters


def _solve_checked(motion: BoundaryMotion, medium: MediumParams, x: float,
                   ts, tol: float = None):
    """:func:`_solve_retarded` that raises :class:`NoConvergence` on a stall."""
    if tol is None:
        tol = DEFAULT_TOL_SCALE / medium.omega
    ts = np.asarray(ts, dtype=float)
    te, resid, iters = _solve_retarded(motion, medium, x, ts, tol)
    worst = int(np.argmax(resid))
    if resid[worst] > tol:
        raise NoConvergence(
            f"retarded-time solve stalled at residual {resid[worst]:.3g} "
            f"(> {tol:.3g}) after {iters[worst]} iterations for "
            f"(x={x}, t={ts[worst]})"
        )
    return te, resid, iters


def retarded_time(motion: BoundaryMotion, medium: MediumParams, x: float,
                  t: float, tol: float = None) -> RetardedTimeResult:
    """Solve ``t_e - X_s(t_e)/c = t - x/c`` for the emission time.

    Safeguarded Newton iteration (see the module docstring) to
    ``|residual| <= tol`` (default ``1e-12 / omega``).
    """
    validate(motion, medium)
    receiver_window(motion, medium, x, [t])
    te, resid, iters = _solve_checked(motion, medium, x, [t], tol)
    return RetardedTimeResult(t_e=float(te[0]), residual=float(resid[0]),
                              iterations=int(iters[0]))


def _retarded_times_grid(motion: BoundaryMotion, medium: MediumParams, x: float,
                         ts: np.ndarray, tol: float = None) -> np.ndarray:
    """Vectorized emission times for a validated in-cone, in-domain grid."""
    return _solve_checked(motion, medium, x, ts, tol)[0]


def exact_field(motion: BoundaryMotion, medium: MediumParams, x: float,
                t: float) -> complex:
    """``exp(i*omega*t_e)`` inside the causal cone, 0 outside it.

    The exact outgoing field has unit modulus wherever it is nonzero.
    """
    validate(motion, medium)
    if t < 0.0 or t - x / medium.c < 0.0:
        return 0.0j
    res = retarded_time(motion, medium, x, t)
    return complex(np.exp(1j * medium.omega * res.t_e))


def exact_instantaneous_frequency(motion: BoundaryMotion, medium: MediumParams,
                                  x: float, t: float) -> float:
    """Received frequency ``omega / (1 - beta - delta*alpha'(Omega*t_e))``.

    The classical shift formula evaluated at the emission time; on the
    boundary itself (``x = X_s(t)``, so ``t_e = t``) this is exactly
    ``omega * fm_factor(t)``.
    """
    beta, delta, _ = validate(motion, medium)
    res = retarded_time(motion, medium, x, t)
    return medium.omega * float(_kinematics(motion.profile, beta, delta,
                                            motion.Omega * res.t_e)[3])


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
    beta, delta, eps = validate(motion, medium)
    t_lo, t_hi = float(t_window[0]), float(t_window[1])
    if not (t_hi > t_lo):
        raise ArgumentOutOfRange(f"empty comparison window {t_window}")
    if n_samples < 2:
        raise ArgumentOutOfRange(f"need at least 2 samples, got {n_samples}")
    ts = np.linspace(t_lo, t_hi, int(n_samples))
    receiver_window(motion, medium, x, ts)

    # The exact side goes first, so the emission times are dropped before
    # the asymptotic side builds its kinematics: peak memory stays at the
    # solver's.
    omega, profile = medium.omega, motion.profile
    te = _retarded_times_grid(motion, medium, x, ts)
    phase_exact = omega * te
    freq_exact = omega * _kinematics(profile, beta, delta, motion.Omega * te)[3]
    del te

    # The asymptotic side: one profile evaluation on the grid feeds the
    # phase, the AM factor (the modulus of the sampled field) and the phase
    # rate, each array dropped once its last use is done.
    slow_t = motion.Omega * ts
    alpha, ap, app, fm = _kinematics(profile, beta, delta, slow_t)
    bracket = _phase_bracket(motion, medium, delta, x, ts, alpha, ap, include_phase_shift)
    del ap
    max_phase = float(np.max(np.abs(fm * omega * bracket - phase_exact)))
    del phase_exact
    am = _am(profile, beta, delta, eps, omega * x / medium.c, slow_t, alpha)
    del slow_t, alpha
    max_modulus = float(np.max(np.abs(np.abs(am) - 1.0)))
    del am
    freq_asym = _phase_rate(motion, medium, delta, ts, app, fm, bracket, include_phase_shift)
    max_freq = float(np.max(np.abs(freq_asym - freq_exact) / freq_exact))

    return ComparisonReport(max_modulus_error=max_modulus,
                            max_phase_error=max_phase,
                            max_freq_rel_error=max_freq)
