"""Characteristic-coordinate form of the leading-order solution.

The moving-frame wave operator factors into two transport families
("plus": left-running, "minus": right-running relative to the boundary).
Each family carries half of an arbitrary boundary excitation along its
characteristic and is modulated by a real envelope obtained from the slow
transport equations.  The minus family's envelope coincides with the AM
factor of the lab-frame solution — an identity this module exists to make
testable through an independent code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ArgumentOutOfRange
from .motion import BoundaryMotion, MediumParams, MotionProfile, _match, validate

FAMILIES = ("plus", "minus")


@dataclass(frozen=True)
class CharacteristicCoords:
    """Fast characteristic pair plus the slow coordinates they ride on."""

    theta1: float
    theta2: float
    tau1: float
    eta1: float


@dataclass(frozen=True)
class TransportSolution:
    """One family's characteristic parameter and envelope value."""

    family: str
    s_value: float
    amplitude: float


def _require_family(family: str) -> None:
    if family not in FAMILIES:
        raise ArgumentOutOfRange(f"family must be one of {FAMILIES}, got {family!r}")


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


def slow_characteristic(family: str, eta1, tau1, motion: BoundaryMotion,
                        medium: MediumParams):
    """Characteristic parameter ``s = (1 +- beta)*tau1 +- delta*alpha(tau1) -+ eta1``.

    Upper signs belong to the plus family, lower signs to the minus family.
    The motion goes through :func:`validate` first.
    """
    _require_family(family)
    beta, delta, _ = validate(motion, medium)
    return _slow_label(family, eta1, tau1, motion.profile, beta, delta)


def _slow_label(family: str, eta1, tau1, profile: MotionProfile, beta: float,
                delta: float):
    """:func:`slow_characteristic` for a family and ``(beta, delta)`` already validated."""
    t1 = np.asarray(tau1, dtype=float)
    e1 = np.asarray(eta1, dtype=float)
    _require_coords("slow coordinates must be finite and >= 0", t1, e1)
    alpha, = profile.eval(t1, order=(0,))
    sign = 1.0 if family == "plus" else -1.0
    s = (1.0 + sign * beta) * t1 + sign * delta * np.asarray(alpha) - sign * e1
    return _match(s)


def transport_amplitude(family: str, eta1, tau1, motion: BoundaryMotion,
                        medium: MediumParams):
    """Real envelope ``exp{-(delta/2)[alpha'(s(eta1,tau1)) - alpha'(s(0,tau1))]}``."""
    _require_family(family)
    beta, delta, _ = validate(motion, medium)
    return _amplitude(family, eta1, tau1, motion.profile, beta, delta)


def _amplitude(family: str, eta1, tau1, profile: MotionProfile, beta: float,
               delta: float):
    """:func:`transport_amplitude` for a family and ``(beta, delta)`` already validated."""
    s_here = _slow_label(family, eta1, tau1, profile, beta, delta)
    s_src = _slow_label(family, 0.0, tau1, profile, beta, delta)
    # Plus-family labels can be negative ahead of the boundary-launched
    # characteristics, so evaluate the profile formulas without the
    # trajectory-time gate.
    ap_here, = profile.eval_unchecked(s_here, order=(1,))
    ap_src, = profile.eval_unchecked(s_src, order=(1,))
    return _match(np.exp(-0.5 * delta * (np.asarray(ap_here) - np.asarray(ap_src))))


def transport_solution(family: str, eta1: float, tau1: float,
                       motion: BoundaryMotion, medium: MediumParams) -> TransportSolution:
    """Bundle ``slow_characteristic`` and ``transport_amplitude`` for one point."""
    _require_family(family)
    beta, delta, _ = validate(motion, medium)
    eta1, tau1 = _point("slow coordinates must be finite and >= 0", eta1, tau1)
    return TransportSolution(
        family=family,
        s_value=float(_slow_label(family, eta1, tau1, motion.profile, beta, delta)),
        amplitude=float(_amplitude(family, eta1, tau1, motion.profile, beta, delta)),
    )


def general_excitation_field(excitation: Callable[[float], complex], eta, tau,
                             motion: BoundaryMotion, medium: MediumParams,
                             domain: Optional[Tuple[float, float]] = None) -> complex:
    """Leading-order field for an arbitrary boundary excitation.

    The excitation splits into equal halves carried by the two families;
    each half is evaluated at its family's fast argument
    (``theta1/(beta_tilde+1)`` and ``theta2/(beta_tilde-1)``) and scaled by
    that family's transport envelope.  At ``eta = 0`` the sum reconstructs
    the excitation exactly.  ``eta`` and ``tau`` are one point.

    ``domain``, when given, declares the interval on which the excitation
    is defined; probing outside it raises :class:`ArgumentOutOfRange`.
    """
    beta, delta, eps = validate(motion, medium)
    coords, beta_tilde = _coords(eta, tau, motion.profile, beta, delta, eps)

    arg_plus = coords.theta1 / (beta_tilde + 1.0)
    arg_minus = coords.theta2 / (beta_tilde - 1.0)

    total = 0.0 + 0.0j
    for family, arg in (("plus", arg_plus), ("minus", arg_minus)):
        if domain is not None and not (domain[0] <= arg <= domain[1]):
            raise ArgumentOutOfRange(
                f"{family}-family argument {arg:.6g} outside declared "
                f"excitation domain [{domain[0]:.6g}, {domain[1]:.6g}]"
            )
        env = _amplitude(family, coords.eta1, coords.tau1, motion.profile, beta, delta)
        total += 0.5 * env * excitation(arg)
    return complex(total)
