"""Leading-order wave field radiated by a moving boundary.

Everything here evaluates closed-form expressions: the classical Doppler
shift, the outgoing dispersion root, the frequency-modulation (FM) and
amplitude-modulation (AM) factors, the lab-frame leading-order field with
its optional slowly varying phase shift, and the same solution written in
the frame attached to the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ArgumentOutOfRange, DegenerateRatio
from .motion import (
    BoundaryMotion,
    MediumParams,
    MotionProfile,
    _match,
    before_arrival,
    snap_to_boundary,
    time_window,
    validate,
)


@dataclass(frozen=True)
class ModulationFactors:
    """FM/AM decomposition of the leading-order field at one event.

    ``phase_shift`` is the slowly varying phase offset in radians, i.e. the
    time-dependent shift multiplied by the same ``FM * omega`` prefactor
    that multiplies it inside the field's exponent.
    """

    fm: float
    am: float
    phase_shift: float


@dataclass(frozen=True)
class FieldSample:
    """Complex field value at ``(x, t)`` plus its FM/AM decomposition.

    ``value`` is 0 outside the causal region (``x > c*t`` or ``t < 0``),
    where ``factors`` is None.
    """

    x: float
    t: float
    value: complex
    factors: Optional[ModulationFactors]


def classical_doppler(omega: float, beta: float) -> float:
    """Shifted frequency ``omega / (1 - beta)`` for uniform motion."""
    if beta >= 1.0:
        raise DegenerateRatio(f"beta={beta} >= 1 has no subsonic Doppler shift")
    return omega / (1.0 - beta)


def wavenumber(beta_tilde):
    """Outgoing root ``k = 1/(1 - beta_tilde)`` of the dispersion quadratic.

    ``k`` satisfies ``-1 - 2*b*k + (1 - b**2)*k**2 = 0`` to machine
    precision, with the sign choice that keeps the wave outgoing.
    """
    b = np.asarray(beta_tilde, dtype=float)
    if np.any(b >= 1.0):
        raise DegenerateRatio(f"beta_tilde={beta_tilde} >= 1 is not subsonic")
    return _match(1.0 / (1.0 - b))


# ---------------------------------------------------------------------------
# Kinematics on one time grid: one profile evaluation at Omega*t feeds FM,
# AM, the lab phase and its rate.
# ---------------------------------------------------------------------------

def _fm(beta, delta, ap):
    """FM factor ``1 / (1 - beta - delta*alpha')``."""
    return 1.0 / (1.0 - beta - delta * ap)


def _am(profile: MotionProfile, beta, delta, eps, omega_x_c, slow_t, alpha):
    """AM factor from the slow time and ``alpha`` there (two more evaluations of ``alpha'``)."""
    ap_far, = profile.eval((1.0 - 2.0 * beta) * slow_t + eps * np.asarray(omega_x_c)
                           - 2.0 * delta * alpha, order=(1,))
    ap_src, = profile.eval((1.0 - beta) * slow_t - delta * alpha, order=(1,))
    return np.exp(-0.5 * delta * (np.asarray(ap_far) - np.asarray(ap_src)))


def _phase_shift(delta, eps, omega_t, alpha, ap, fm):
    """Slow phase shift in radians: ``FM * (delta*alpha'*omega*t - (delta/eps)*alpha)``."""
    return fm * (delta * ap * omega_t - (delta / eps) * alpha)


def _lab_field(motion: BoundaryMotion, medium: MediumParams, group, x, t,
               include_phase_shift: bool, with_rate: bool = False):
    """``(phase, am, fm, rate)`` of the field ``am*exp(i*phase)`` at ``x`` over ``t``.

    ``phase = FM*omega*[t - x/c - shift(t)]``, the slow shift
    ``delta*alpha'*t - (delta/Omega)*alpha`` zeroed unless the flag is set;
    ``rate`` is its analytic time derivative, computed (with ``alpha''``)
    only when ``with_rate`` is set and None otherwise.  No checks.  AM is
    evaluated while only the one profile evaluation is alive, so grids peak
    no higher than the solver does.
    """
    beta, delta, eps = group
    omega, Omega = medium.omega, motion.Omega
    t = np.asarray(t, dtype=float)
    slow_t = Omega * t
    alpha, ap, *app = (np.asarray(v) for v in motion.profile.eval(
        slow_t, order=(0, 1, 2) if with_rate else (0, 1)))
    am = _am(motion.profile, beta, delta, eps, omega * x / medium.c, slow_t, alpha)
    del slow_t
    fm = _fm(beta, delta, ap)
    bracket = t - x / medium.c
    if include_phase_shift:
        bracket = bracket - (delta * ap * t - (delta / Omega) * alpha)
    del alpha, ap
    rate = None
    if with_rate:
        anchor = t if include_phase_shift else 0.0
        rate = omega * fm + omega * (delta * Omega * app[0]) * fm * (fm * bracket - anchor)
    return fm * omega * bracket, am, fm, rate


# ---------------------------------------------------------------------------
# Dimensionless closed forms.
#
# These take the validated group (beta, delta, eps) plus dimensionless
# observation coordinates, accept scalars or arrays, and perform no domain
# checking.  The dimensional wrappers below and the CLI figure commands
# (which reproduce published parameter sets verbatim, including receivers
# that an oscillating boundary sweeps past) both route through them.
# ---------------------------------------------------------------------------

def fm_dimensionless(profile: MotionProfile, beta, delta, eps, omega_t):
    """FM factor ``1 / (1 - beta - delta*alpha'(eps*omega*t))``."""
    ap, = profile.eval(eps * np.asarray(omega_t, dtype=float), order=(1,))
    return _match(_fm(beta, delta, np.asarray(ap)))


def am_dimensionless(profile: MotionProfile, beta, delta, eps, omega_x_c, omega_t):
    """AM factor as a function of ``omega*x/c`` and ``omega*t``."""
    st = eps * np.asarray(omega_t, dtype=float)
    alpha, = profile.eval(st, order=(0,))
    return _match(_am(profile, beta, delta, eps, omega_x_c, st, alpha))


def phase_shift_dimensionless(profile: MotionProfile, beta, delta, eps, omega_t):
    """Slow phase shift in radians: ``FM * (delta*alpha'*omega*t - (delta/eps)*alpha)``."""
    wt = np.asarray(omega_t, dtype=float)
    alpha, ap = (np.asarray(v) for v in profile.eval(eps * wt, order=(0, 1)))
    return _match(_phase_shift(delta, eps, wt, alpha, ap, _fm(beta, delta, ap)))


# ---------------------------------------------------------------------------
# Dimensional operations.
# ---------------------------------------------------------------------------

def fm_factor(motion: BoundaryMotion, medium: MediumParams, t) -> float:
    """FM ``1/(1 - beta - delta*alpha'(Omega t))`` at times that pass :func:`time_window`."""
    beta, delta, eps = validate(motion, medium)
    time_window(motion, medium, t)
    return fm_dimensionless(motion.profile, beta, delta, eps,
                            medium.omega * np.asarray(t, dtype=float))


def am_factor(motion: BoundaryMotion, medium: MediumParams, x, t) -> float:
    """Real envelope of the leading-order field at ``(x, t)``.

    Requires ``x >= X_s(t)`` under the boundary rule of
    :func:`~dopplerlab.motion.snap_to_boundary`; there is no causal-cone
    check.  Equals 1 exactly on the boundary.
    """
    beta, delta, eps = validate(motion, medium)
    x = snap_to_boundary(motion, medium, x, t)
    return am_dimensionless(motion.profile, beta, delta, eps,
                            medium.omega * np.asarray(x, dtype=float) / medium.c,
                            medium.omega * np.asarray(t, dtype=float))


def lab_phase(motion: BoundaryMotion, medium: MediumParams, x, t,
              include_phase_shift: bool):
    """Exact (continuous, un-wrapped) phase of the leading-order field.

    ``FM(t) * omega * [t - x/c - shift(t)]`` with the slow shift
    ``delta*alpha'(Omega t)*t - (delta/Omega)*alpha(Omega t)`` included or
    zeroed according to the flag.  The rules of :func:`am_factor` apply.
    """
    group = validate(motion, medium)
    x = snap_to_boundary(motion, medium, x, t)
    return _match(_lab_field(motion, medium, group, x, t, include_phase_shift)[0])


def lab_phase_rate(motion: BoundaryMotion, medium: MediumParams, x, t,
                   include_phase_shift: bool):
    """Analytic time derivative of :func:`lab_phase` (instantaneous frequency).

    With the shift included this equals ``omega*FM(t)`` exactly on the
    boundary ``x = X_s(t)``.  The rules of :func:`am_factor` apply.
    """
    group = validate(motion, medium)
    x = snap_to_boundary(motion, medium, x, t)
    return _match(_lab_field(motion, medium, group, x, t, include_phase_shift,
                             with_rate=True)[3])


def leading_order_field(motion: BoundaryMotion, medium: MediumParams, x, t,
                        include_phase_shift: bool = False) -> FieldSample:
    """Leading-order complex field at one event ``(x, t)``.

    Returns 0 outside the causal cone of
    :func:`~dopplerlab.motion.before_arrival` (the wavefront itself is
    attached to the field) and raises :class:`ObserverInsideBoundary` for
    points behind the boundary.  By default the slowly varying phase shift
    is left out, matching the published plotting convention; pass
    ``include_phase_shift=True`` for the full solution.
    """
    group = validate(motion, medium)
    x, t = float(x), float(t)
    if before_arrival(medium, x, t):
        return FieldSample(x=x, t=t, value=0.0j, factors=None)
    x = snap_to_boundary(motion, medium, x, t)
    phase, am, fm, _ = _lab_field(motion, medium, group, x, t, include_phase_shift)
    alpha, ap = motion.profile.eval(motion.Omega * t, order=(0, 1))
    shift = _phase_shift(group.delta, group.eps, medium.omega * t, alpha, ap, fm)
    factors = ModulationFactors(fm=float(fm), am=float(am), phase_shift=float(shift))
    return FieldSample(x=x, t=t, value=complex(am * np.exp(1j * phase)), factors=factors)


def moving_frame_field(motion: BoundaryMotion, medium: MediumParams,
                       eta, tau) -> complex:
    """Leading-order field in boundary-attached coordinates.

    ``eta`` is the dimensionless distance from the boundary, ``tau`` the
    dimensionless time; at ``eta = 0`` this is exactly the boundary
    excitation ``e^{i tau}``.  At ``eta = (x - X_s(t)) * omega / c``,
    ``tau = omega*t`` it agrees with :func:`leading_order_field` (phase
    shift included) to machine precision.  ``eta`` must be >= 0 and the
    times ``tau/omega`` must pass :func:`~dopplerlab.motion.time_window`.
    """
    beta, delta, eps = validate(motion, medium)
    eta = np.asarray(eta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    time_window(motion, medium, tau / medium.omega)
    if not np.all(eta >= 0.0):  # a NaN distance fails too
        raise ArgumentOutOfRange("moving-frame distance eta must be >= 0")
    st = eps * tau
    alpha, ap = motion.profile.eval(st, order=(0, 1))
    base = (1.0 - beta) * st - delta * np.asarray(alpha)
    ap_far, = motion.profile.eval(base + eps * eta, order=(1,))
    ap_src, = motion.profile.eval(base, order=(1,))
    env = np.exp(-0.5 * delta * (np.asarray(ap_far) - np.asarray(ap_src)))
    beta_tilde = beta + delta * np.asarray(ap)
    phase = tau - eta / (1.0 - beta_tilde)
    out = env * np.exp(1j * phase)
    if np.ndim(eta) == 0 and np.ndim(tau) == 0:
        return complex(out)
    return out
