"""Characteristic-coordinate form of the leading-order solution.

The moving-frame wave operator factors into two characteristic families,
but on the half-line ``x > X_s(t)`` the moving boundary is the only
source, so only the outgoing (right-running) family carries a wave.  It
carries the whole boundary excitation along its characteristic, modulated
by a real envelope obtained from the slow transport equation.  That
envelope coincides with the AM factor of the lab-frame solution — an
identity this module exists to make testable through an independent code
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Tuple

import numpy as np

from .errors import ArgumentOutOfRange
from .motion import BoundaryMotion, MediumParams, MotionProfile, _match, validate


@dataclass(frozen=True)
class CharacteristicCoords:
    """Fast characteristic pair plus the slow coordinates they ride on."""

    theta1: float
    theta2: float
    tau1: float
    eta1: float


@dataclass(frozen=True)
class TransportSolution:
    """The outgoing family's characteristic parameter and envelope value."""

    #: The one family that carries a wave: the outgoing one, whose fast
    #: coordinate is ``theta2``.
    family: ClassVar[str] = "minus"
    s_value: float
    amplitude: float


def _require_coords(message: str, *coords) -> None:
    """Raise :class:`ArgumentOutOfRange` unless every coordinate is finite and >= 0."""
    for c in coords:
        c = np.asarray(c, dtype=float)
        if not np.all((c >= 0.0) & (c < np.inf)):  # NaN fails both
            raise ArgumentOutOfRange(message)


def _point(message: str, *coords) -> tuple:
    """One point's coordinates as floats; :class:`ArgumentOutOfRange` unless each is finite, >= 0."""
    if any(np.ndim(c) != 0 for c in coords):
        raise ArgumentOutOfRange(f"{message}; got an array, not one point")
    _require_coords(message, *coords)
    return tuple(float(c) for c in coords)


def to_characteristic_coords(eta, tau, motion: BoundaryMotion,
                             medium: MediumParams) -> CharacteristicCoords:
    """Map ``(eta, tau)`` to ``(theta1, theta2, tau1, eta1)``.

    The fast coordinates use the instantaneous velocity ratio frozen at the
    slow time of the evaluation point:
    ``theta_{1,2} = eta + (beta_tilde(eps*tau) +- 1) * tau``.  ``eta`` and
    ``tau`` are one point.
    """
    return _coords(eta, tau, motion.profile, *validate(motion, medium))[0]


def _coords(eta, tau, profile: MotionProfile, beta: float, delta: float, eps: float):
    """:func:`to_characteristic_coords` for a validated group, with ``beta_tilde`` there."""
    eta, tau = _point("characteristic coordinates need finite eta, tau >= 0", eta, tau)
    ap, = profile.eval(eps * tau, order=(1,))
    beta_tilde = beta + delta * ap
    return CharacteristicCoords(
        theta1=eta + (beta_tilde + 1.0) * tau,
        theta2=eta + (beta_tilde - 1.0) * tau,
        tau1=eps * tau,
        eta1=eps * eta,
    ), beta_tilde


def slow_characteristic(eta1, tau1, motion: BoundaryMotion, medium: MediumParams):
    """Characteristic parameter ``s = (1 - beta)*tau1 - delta*alpha(tau1) + eta1``.

    This is the emission label of the outgoing wave: ``Omega`` times the
    time at which the boundary launched the characteristic that reaches
    ``(eta1, tau1)``.  The motion goes through :func:`validate` first.
    """
    beta, delta, _ = validate(motion, medium)
    return _slow_label(eta1, tau1, motion.profile, beta, delta)


def _slow_label(eta1, tau1, profile: MotionProfile, beta: float, delta: float):
    """:func:`slow_characteristic` for ``(beta, delta)`` already validated.

    ``(1 - beta)*tau1 - delta*alpha(tau1)`` is exactly >= 0 for subsonic
    motion but can round below 0 at tiny ``tau1``, so the label is clamped
    at 0; every non-negative label is left bit for bit.
    """
    t1 = np.asarray(tau1, dtype=float)
    e1 = np.asarray(eta1, dtype=float)
    _require_coords("slow coordinates must be finite and >= 0", t1, e1)
    alpha, = profile.eval(t1, order=(0,))
    return _match(np.maximum((1.0 - beta) * t1 - delta * np.asarray(alpha) + e1, 0.0))


def transport_amplitude(eta1, tau1, motion: BoundaryMotion, medium: MediumParams):
    """Real envelope ``exp{-(delta/2)[alpha'(s(eta1,tau1)) - alpha'(s(0,tau1))]}``."""
    beta, delta, _ = validate(motion, medium)
    return _amplitude(eta1, tau1, motion.profile, beta, delta)


def _amplitude(eta1, tau1, profile: MotionProfile, beta: float, delta: float):
    """:func:`transport_amplitude` for ``(beta, delta)`` already validated."""
    ap_here, = profile.eval(_slow_label(eta1, tau1, profile, beta, delta), order=(1,))
    ap_src, = profile.eval(_slow_label(0.0, tau1, profile, beta, delta), order=(1,))
    return _match(np.exp(-0.5 * delta * (np.asarray(ap_here) - np.asarray(ap_src))))


def transport_solution(eta1: float, tau1: float, motion: BoundaryMotion,
                       medium: MediumParams) -> TransportSolution:
    """Bundle ``slow_characteristic`` and ``transport_amplitude`` for one point."""
    beta, delta, _ = validate(motion, medium)
    eta1, tau1 = _point("slow coordinates must be finite and >= 0", eta1, tau1)
    return TransportSolution(
        s_value=float(_slow_label(eta1, tau1, motion.profile, beta, delta)),
        amplitude=float(_amplitude(eta1, tau1, motion.profile, beta, delta)),
    )


def general_excitation_field(excitation: Callable[[float], complex], eta, tau,
                             motion: BoundaryMotion, medium: MediumParams,
                             domain: Optional[Tuple[float, float]] = None) -> complex:
    """Leading-order outgoing field for an arbitrary boundary excitation.

    The whole excitation rides the outgoing family: it is evaluated at the
    fast argument ``theta2/(beta_tilde-1)`` and scaled by the transport
    envelope.  At ``eta = 0`` this is the excitation itself; for
    ``excitation(s) = e^{is}`` it is :func:`~dopplerlab.asymptotics.moving_frame_field`,
    and for a boundary at rest it is ``excitation(tau - eta)``.  ``eta`` and
    ``tau`` are one point.

    ``domain``, when given, declares the interval on which the excitation
    is defined; probing outside it raises :class:`ArgumentOutOfRange`.
    """
    beta, delta, eps = validate(motion, medium)
    coords, beta_tilde = _coords(eta, tau, motion.profile, beta, delta, eps)
    arg = coords.theta2 / (beta_tilde - 1.0)
    if domain is not None and not (domain[0] <= arg <= domain[1]):
        raise ArgumentOutOfRange(
            f"excitation argument {arg:.6g} outside its declared domain "
            f"[{domain[0]:.6g}, {domain[1]:.6g}]"
        )
    env = _amplitude(coords.eta1, coords.tau1, motion.profile, beta, delta)
    return complex(env * excitation(arg))
