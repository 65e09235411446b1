"""Boundary motion: profiles, trajectory, and subsonic validation.

The boundary trajectory is ``X_s(t) = v*t + a*alpha(Omega*t)`` where the
dimensionless profile ``alpha`` is normalized so that ``alpha(0) = 0`` and
``max |alpha'| = 1``.  Three profiles are built in (constant, decelerating,
oscillatory) and arbitrary user profiles are accepted as explicit
``(alpha, alpha', alpha'')`` evaluator triples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    InvalidNormalization,
    ProfileEvaluationError,
    SupersonicMotion,
)

#: Number of sample points used for custom-profile normalization and
#: subsonic-sup checks over the declared horizon.
NORMALIZATION_SAMPLES = 10_000

#: Tolerance on max|alpha'| = 1 for custom profiles.
NORMALIZATION_TOL = 1e-6

#: Above this value of eps = Omega/omega the scale separation is dubious;
#: a warning (not an error) is emitted.  At eps >= 1 validation fails hard.
EPS_WARN_THRESHOLD = 0.3


@dataclass(frozen=True)
class MediumParams:
    """Emitted angular frequency ``omega`` and wave phase speed ``c``."""

    omega: float
    c: float

    def __post_init__(self):
        if not (self.omega > 0.0):
            raise ArgumentOutOfRange(f"omega must be positive, got {self.omega}")
        if not (self.c > 0.0):
            raise ArgumentOutOfRange(f"c must be positive, got {self.c}")


@dataclass(frozen=True)
class MotionProfile:
    """Normalized acceleration profile ``alpha`` with two derivatives.

    Use the classmethod constructors: :meth:`constant`, :meth:`decelerating`,
    :meth:`oscillatory`, :meth:`custom`.
    """

    kind: str
    alpha: Optional[Callable[[float], float]] = field(default=None, repr=False)
    alpha_prime: Optional[Callable[[float], float]] = field(default=None, repr=False)
    alpha_pprime: Optional[Callable[[float], float]] = field(default=None, repr=False)
    horizon: Optional[float] = None
    #: (min, max) of alpha' sampled over [0, horizon]; filled in by
    #: :meth:`custom` so later validation never re-samples the callables.
    slope_range: Optional[tuple] = field(default=None, repr=False)

    @classmethod
    def constant(cls) -> "MotionProfile":
        """alpha == 0: uniformly translating (classical) boundary."""
        return cls(kind="constant")

    @classmethod
    def decelerating(cls) -> "MotionProfile":
        """alpha(u) = 1 - exp(-u): motion that decays to uniform translation."""
        return cls(kind="decelerating")

    @classmethod
    def oscillatory(cls) -> "MotionProfile":
        """alpha(u) = sin(u): periodic boundary motion."""
        return cls(kind="oscillatory")

    @classmethod
    def custom(cls, alpha, alpha_prime, alpha_pprime, horizon: float) -> "MotionProfile":
        """User-supplied evaluator triple, checked numerically at construction.

        ``alpha(0) = 0`` must hold and ``max |alpha'|`` over ``[0, horizon]``
        must equal 1 within 1e-6 (sampled on 10^4 uniform points).
        ``alpha''`` is trusted to be continuous.
        """
        if not (horizon > 0.0):
            raise ArgumentOutOfRange(
                f"custom profiles need a positive sampling horizon, got {horizon}"
            )
        prof = cls(kind="custom", alpha=alpha, alpha_prime=alpha_prime,
                   alpha_pprime=alpha_pprime, horizon=float(horizon))
        a0 = prof.eval(0.0)[0]
        if abs(a0) > 1e-12:
            raise InvalidNormalization(f"alpha(0) must be 0, got {a0!r}")
        slopes = prof.eval(np.linspace(0.0, horizon, NORMALIZATION_SAMPLES))[1]
        if not np.all(np.isfinite(slopes)):
            raise InvalidNormalization(f"alpha' is not finite everywhere on [0, {horizon}]")
        sup = float(np.max(np.abs(slopes)))
        if abs(sup - 1.0) > NORMALIZATION_TOL:
            raise InvalidNormalization(
                f"max|alpha'| over [0, {horizon}] is {sup:.8g}, expected 1 "
                f"within {NORMALIZATION_TOL}"
            )
        return cls(kind="custom", alpha=alpha, alpha_prime=alpha_prime,
                   alpha_pprime=alpha_pprime, horizon=float(horizon),
                   slope_range=(float(np.min(slopes)), float(np.max(slopes))))

    def eval(self, arg):
        """Return ``(alpha, alpha', alpha'')`` at ``arg >= 0``.

        Accepts a scalar or an ndarray for the built-in profiles; custom
        evaluators are called pointwise with scalars.
        """
        arr = np.asarray(arg, dtype=float)
        if np.any(arr < 0.0):
            raise ArgumentOutOfRange(f"profile argument must be >= 0, got {arg}")
        return self._eval_core(arg, arr)

    def _eval_core(self, arg, arr):
        if self.kind == "constant":
            z = np.zeros_like(arr)
            return _match(arg, z), _match(arg, z), _match(arg, z)
        if self.kind == "decelerating":
            e = np.exp(-arr)
            return _match(arg, 1.0 - e), _match(arg, e), _match(arg, -e)
        if self.kind == "oscillatory":
            sin = np.sin(arr)
            return _match(arg, sin), _match(arg, np.cos(arr)), _match(arg, -sin)
        # custom
        if arr.ndim == 0:
            return self._eval_custom_scalar(float(arr))
        out = np.empty((3, arr.size))
        for i, u in enumerate(arr.ravel()):
            out[:, i] = self._eval_custom_scalar(float(u))
        return tuple(out.reshape((3,) + arr.shape))

    def _eval_custom_scalar(self, u: float):
        try:
            return float(self.alpha(u)), float(self.alpha_prime(u)), float(self.alpha_pprime(u))
        except Exception as exc:
            raise ProfileEvaluationError(
                f"custom profile evaluator failed at argument {u!r}: {exc}",
                argument=u,
            ) from exc


def eval_profile(profile: MotionProfile, arg):
    """Functional form of :meth:`MotionProfile.eval`."""
    return profile.eval(arg)


def eval_profile_extended(profile: MotionProfile, arg):
    """Evaluate the profile formulas without the trajectory's ``arg >= 0`` gate.

    Characteristic labels can be negative even when every time involved is
    valid; the built-in closed forms continue naturally, and custom evaluator
    triples are called as supplied (callers own the domain there).
    """
    return profile._eval_core(arg, np.asarray(arg, dtype=float))


@dataclass(frozen=True)
class BoundaryMotion:
    """Trajectory parameters: ``X_s(t) = v*t + a*alpha(Omega*t)``."""

    v: float
    a: float
    Omega: float
    profile: MotionProfile

    def __post_init__(self):
        if not (self.Omega > 0.0):
            raise ArgumentOutOfRange(f"Omega must be positive, got {self.Omega}")


class DimensionlessGroup(NamedTuple):
    """Validated dimensionless parameters of a motion/medium pair."""

    beta: float   # v / c
    delta: float  # a * Omega / c
    eps: float    # Omega / omega


def _require_nonnegative_time(t) -> None:
    if np.any(np.asarray(t) < 0.0):
        raise ArgumentOutOfRange(f"time must be >= 0, got {t}")


def boundary_position(motion: BoundaryMotion, t):
    """``X_s(t) = v*t + a*alpha(Omega*t)``; zero at ``t = 0``."""
    _require_nonnegative_time(t)
    alpha, _, _ = motion.profile.eval(motion.Omega * np.asarray(t, dtype=float))
    return _match(t, motion.v * np.asarray(t, dtype=float) + motion.a * np.asarray(alpha))


def boundary_velocity(motion: BoundaryMotion, t):
    """``dX_s/dt = v + a*Omega*alpha'(Omega*t)``."""
    _require_nonnegative_time(t)
    _, ap, _ = motion.profile.eval(motion.Omega * np.asarray(t, dtype=float))
    return _match(t, motion.v + motion.a * motion.Omega * np.asarray(ap))


def _profile_speed_sup(profile: MotionProfile, beta: float, delta: float) -> float:
    """sup over t of |beta + delta*alpha'(Omega t)|.

    Closed forms for built-ins (alpha' ranges are known exactly); the range
    sampled at construction time for custom profiles.  |beta + delta*s| is
    affine in the slope s, so its sup sits at an endpoint of the range.
    """
    if profile.kind == "constant":
        return abs(beta)
    if profile.kind == "decelerating":
        # alpha' decays from 1 to 0, so the extremes are at the ends.
        return max(abs(beta), abs(beta + delta))
    if profile.kind == "oscillatory":
        # alpha' covers [-1, 1].
        return abs(beta) + abs(delta)
    lo, hi = profile.slope_range
    return max(abs(beta + delta * lo), abs(beta + delta * hi))


def validate(motion: BoundaryMotion, medium: MediumParams) -> DimensionlessGroup:
    """Check subsonic validity and return ``(beta, delta, eps)``.

    Raises :class:`SupersonicMotion` when ``delta >= 1 - beta`` (necessary
    condition) or when the instantaneous boundary speed reaches the wave
    speed; raises :class:`ArgumentOutOfRange` when ``eps >= 1``.  Emits a
    warning when ``eps > 0.3`` (scale separation becoming marginal).
    """
    beta = motion.v / medium.c
    delta = motion.a * motion.Omega / medium.c
    eps = motion.Omega / medium.omega

    if delta >= 1.0 - beta:
        raise SupersonicMotion(
            f"delta={delta:.6g} >= 1-beta={1.0 - beta:.6g}: boundary outruns the wave"
        )
    sup = _profile_speed_sup(motion.profile, beta, delta)
    if sup >= 1.0:
        raise SupersonicMotion(
            f"sup|beta + delta*alpha'| = {sup:.6g} >= 1: instantaneous speed reaches c"
        )
    if eps >= 1.0:
        raise ArgumentOutOfRange(
            f"eps=Omega/omega={eps:.6g} >= 1: mechanical motion is not slow"
        )
    if eps > EPS_WARN_THRESHOLD:
        warnings.warn(
            f"eps={eps:.6g} > {EPS_WARN_THRESHOLD}: leading-order accuracy degrades",
            stacklevel=2,
        )
    return DimensionlessGroup(beta, delta, eps)


def _match(template, value):
    """Return ``value`` as a scalar when ``template`` is scalar-like."""
    if np.ndim(template) == 0:
        return float(np.asarray(value))
    return np.asarray(value)
