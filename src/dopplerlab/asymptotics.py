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
    snap_to_boundary,
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
    return _match(beta_tilde, 1.0 / (1.0 - b))


# ---------------------------------------------------------------------------
# Kinematics on one time grid.
#
# ``_kinematics`` is the one profile evaluation at the slow time Omega*t;
# FM, the lab phase and its rate, the slow phase shift and the AM factor's
# ``alpha`` are all derived from its result, so a caller that needs several
# of them on one grid evaluates the profile there once.
# ---------------------------------------------------------------------------

def _kinematics(profile: MotionProfile, beta, delta, slow_t):
    """``(alpha, alpha', alpha'', FM)`` at slow time ``slow_t = Omega*t``."""
    alpha, ap, app = (np.asarray(v) for v in profile.eval(slow_t))
    return alpha, ap, app, 1.0 / (1.0 - beta - delta * ap)


def _am(profile: MotionProfile, beta, delta, eps, omega_x_c, slow_t, alpha):
    """AM factor from the slow time and ``alpha`` there (two more evaluations)."""
    _, ap_far, _ = profile.eval((1.0 - 2.0 * beta) * slow_t + eps * np.asarray(omega_x_c)
                                - 2.0 * delta * alpha)
    _, ap_src, _ = profile.eval((1.0 - beta) * slow_t - delta * alpha)
    return np.exp(-0.5 * delta * (np.asarray(ap_far) - np.asarray(ap_src)))


def _phase_shift(delta, eps, omega_t, alpha, ap, fm):
    """Slow phase shift in radians: ``FM * (delta*alpha'*omega*t - (delta/eps)*alpha)``."""
    return fm * (delta * ap * omega_t - (delta / eps) * alpha)


def _phase_bracket(motion: BoundaryMotion, medium: MediumParams, delta, x, t, alpha, ap,
                   include_phase_shift: bool):
    """``t - x/c - shift(t)``: the lab phase is ``FM * omega`` times this."""
    bracket = t - np.asarray(x, dtype=float) / medium.c
    if include_phase_shift:
        bracket = bracket - (delta * ap * t - (delta / motion.Omega) * alpha)
    return bracket


def _phase_rate(motion: BoundaryMotion, medium: MediumParams, delta, t, app, fm, bracket,
                include_phase_shift: bool):
    """Analytic time derivative of the lab phase ``FM * omega * bracket``."""
    omega = medium.omega
    anchor = t if include_phase_shift else 0.0
    df = delta * motion.Omega * app
    return omega * fm + omega * df * fm * (fm * bracket - anchor)


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
    fm = _kinematics(profile, beta, delta, eps * np.asarray(omega_t, dtype=float))[3]
    return _match(omega_t, fm)


def am_dimensionless(profile: MotionProfile, beta, delta, eps, omega_x_c, omega_t):
    """AM factor as a function of ``omega*x/c`` and ``omega*t``."""
    st = eps * np.asarray(omega_t, dtype=float)
    alpha = np.asarray(profile.eval(st)[0])
    return _match(omega_t, _am(profile, beta, delta, eps, omega_x_c, st, alpha))


def phase_shift_dimensionless(profile: MotionProfile, beta, delta, eps, omega_t):
    """Slow phase shift in radians: ``FM * (delta*alpha'*omega*t - (delta/eps)*alpha)``."""
    wt = np.asarray(omega_t, dtype=float)
    alpha, ap, _, fm = _kinematics(profile, beta, delta, eps * wt)
    return _match(omega_t, _phase_shift(delta, eps, wt, alpha, ap, fm))


# ---------------------------------------------------------------------------
# Dimensional operations.
# ---------------------------------------------------------------------------

def fm_factor(motion: BoundaryMotion, medium: MediumParams, t) -> float:
    """Instantaneous frequency magnification ``1/(1 - beta - delta*alpha'(Omega t))``."""
    beta, delta, eps = validate(motion, medium)
    if np.any(np.asarray(t) < 0.0):
        raise ArgumentOutOfRange(f"time must be >= 0, got {t}")
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
    zeroed according to the flag.
    """
    beta, delta, _ = validate(motion, medium)
    tt = np.asarray(t, dtype=float)
    alpha, ap, _, fm = _kinematics(motion.profile, beta, delta, motion.Omega * tt)
    bracket = _phase_bracket(motion, medium, delta, x, tt, alpha, ap, include_phase_shift)
    return _match(t, fm * medium.omega * bracket)


def lab_phase_rate(motion: BoundaryMotion, medium: MediumParams, x, t,
                   include_phase_shift: bool):
    """Analytic time derivative of :func:`lab_phase` (instantaneous frequency).

    With the shift included this equals ``omega*FM(t)`` exactly on the
    boundary ``x = X_s(t)``.
    """
    beta, delta, _ = validate(motion, medium)
    tt = np.asarray(t, dtype=float)
    alpha, ap, app, fm = _kinematics(motion.profile, beta, delta, motion.Omega * tt)
    bracket = _phase_bracket(motion, medium, delta, x, tt, alpha, ap, include_phase_shift)
    return _match(t, _phase_rate(motion, medium, delta, tt, app, fm, bracket,
                                 include_phase_shift))


def leading_order_field(motion: BoundaryMotion, medium: MediumParams, x, t,
                        include_phase_shift: bool = False) -> FieldSample:
    """Leading-order complex field at one event ``(x, t)``.

    Returns 0 outside the causal region ``x <= c*t`` (the wavefront itself
    is attached to the field) and raises :class:`ObserverInsideBoundary`
    for points behind the boundary.  By default the slowly varying phase
    shift is left out, matching the published plotting convention; pass
    ``include_phase_shift=True`` for the full solution.
    """
    beta, delta, eps = validate(motion, medium)
    x = float(x)
    t = float(t)
    if t < 0.0 or x > medium.c * t:
        return FieldSample(x=x, t=t, value=0.0j, factors=None)
    x = snap_to_boundary(motion, medium, x, t)
    omega = medium.omega
    slow_t = motion.Omega * t
    alpha, ap, _, fm = _kinematics(motion.profile, beta, delta, slow_t)
    am = float(_am(motion.profile, beta, delta, eps, omega * x / medium.c, slow_t, alpha))
    phase = fm * omega * _phase_bracket(motion, medium, delta, x, t, alpha, ap,
                                        include_phase_shift)
    factors = ModulationFactors(
        fm=float(fm), am=am,
        phase_shift=float(_phase_shift(delta, eps, omega * t, alpha, ap, fm)))
    return FieldSample(x=x, t=t, value=complex(am * np.exp(1j * phase)), factors=factors)


def moving_frame_field(motion: BoundaryMotion, medium: MediumParams,
                       eta, tau) -> complex:
    """Leading-order field in boundary-attached coordinates.

    ``eta`` is the dimensionless distance from the boundary, ``tau`` the
    dimensionless time; at ``eta = 0`` this is exactly the boundary
    excitation ``e^{i tau}``.  At ``eta = (x - X_s(t)) * omega / c``,
    ``tau = omega*t`` it agrees with :func:`leading_order_field` (phase
    shift included) to machine precision.
    """
    beta, delta, eps = validate(motion, medium)
    eta = np.asarray(eta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(eta < 0.0) or np.any(tau < 0.0):
        raise ArgumentOutOfRange("moving-frame coordinates must be >= 0")
    st = eps * tau
    alpha, ap, _ = motion.profile.eval(st)
    base = (1.0 - beta) * st - delta * np.asarray(alpha)
    _, ap_far, _ = motion.profile.eval(base + eps * eta)
    _, ap_src, _ = motion.profile.eval(base)
    env = np.exp(-0.5 * delta * (np.asarray(ap_far) - np.asarray(ap_src)))
    beta_tilde = beta + delta * np.asarray(ap)
    phase = tau - eta / (1.0 - beta_tilde)
    out = env * np.exp(1j * phase)
    if np.ndim(eta) == 0 and np.ndim(tau) == 0:
        return complex(out)
    return out
