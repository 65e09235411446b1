"""Boundary motion: profiles, trajectory, subsonic validation, receiver window.

The boundary trajectory is ``X_s(t) = v*t + a*alpha(Omega*t)`` where the
dimensionless profile ``alpha`` is normalized so that ``alpha(0) = 0`` and
``max |alpha'| = 1``.  Three profiles are built in (constant, decelerating,
oscillatory) and arbitrary user profiles are accepted as explicit
``(alpha, alpha', alpha'')`` evaluator triples.  :func:`time_window` is the
one guard on the times of every sampled window; :func:`receiver_window`
adds the causal cone and :func:`boundary_rule` for a receiver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    InvalidNormalization,
    NotYetReached,
    ObserverInsideBoundary,
    ProfileEvaluationError,
    SupersonicMotion,
)

#: The built-in profile kinds; ``custom`` (:meth:`MotionProfile.custom`) is
#: the only other kind.
PROFILES = ("constant", "decelerating", "oscillatory")

#: Number of sample points used for custom-profile normalization and
#: subsonic-sup checks over the declared horizon.
NORMALIZATION_SAMPLES = 10_000

#: Tolerance on max|alpha'| = 1 for custom profiles.
NORMALIZATION_TOL = 1e-6

#: Above this value of eps = Omega/omega the scale separation is dubious;
#: a warning (not an error) is emitted.  At eps >= 1 validation fails hard.
EPS_WARN_THRESHOLD = 0.3

#: Sampled times must keep ``omega*t`` below this.  One ulp of the phase
#: here is 2**-20 (about 9.5e-7 rad), still far below the phase changes the
#: boundary motion causes; past it the shift rounds away (at ``omega*t``
#: near 1e17 one ulp is 16 rad).
MAX_OMEGA_T = 2**32

#: Receivers at most this far behind the boundary, in units of c/omega,
#: count as sitting on it, so grids that touch the boundary survive
#: roundoff in X_s.
BOUNDARY_CLAMP = 1e-12

#: Points per block of a long grid.  The window guard, the retarded-time
#: solve and the field built on it run block by block (:func:`_blocks`), so
#: their intermediate arrays are block-sized, not grid-sized, and stay in
#: the cache and in pages the process already holds.
BLOCK = 16384

#: Points per slice that :func:`_map_custom` turns into Python floats with
#: ``ndarray.tolist()``, so no list as long as the grid is ever built.
_CUSTOM_SLICE = 1024


@dataclass(frozen=True)
class MediumParams:
    """Emitted angular frequency ``omega`` and wave phase speed ``c``, both finite and positive."""

    omega: float
    c: float

    def __post_init__(self):
        if not 0.0 < self.omega < np.inf:
            raise ArgumentOutOfRange(f"omega must be finite and positive, got {self.omega}")
        if not 0.0 < self.c < np.inf:
            raise ArgumentOutOfRange(f"c must be finite and positive, got {self.c}")


@dataclass(frozen=True)
class MotionProfile:
    """Normalized acceleration profile ``alpha`` with two derivatives.

    Use the classmethod constructors: :meth:`constant`, :meth:`decelerating`,
    :meth:`oscillatory`, :meth:`custom`.  Construction raises
    :class:`ArgumentOutOfRange` for a kind that is neither one of
    :data:`PROFILES` nor ``custom``, for a ``custom`` profile built
    without the ``slope_range`` that only :meth:`custom` computes, and for a
    built-in profile given any of the custom fields, which it would ignore.
    """

    kind: str
    alpha: Optional[Callable[[float], float]] = field(default=None, repr=False)
    alpha_prime: Optional[Callable[[float], float]] = field(default=None, repr=False)
    alpha_pprime: Optional[Callable[[float], float]] = field(default=None, repr=False)
    horizon: Optional[float] = None
    #: (min, max) of alpha' sampled over [0, horizon]; filled in by
    #: :meth:`custom` so later validation never re-samples the callables.
    slope_range: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in PROFILES + ("custom",):
            raise ArgumentOutOfRange(
                f"unknown profile kind {self.kind!r}; choose from {PROFILES + ('custom',)}")
        if self.kind == "custom" and self.slope_range is None:
            raise ArgumentOutOfRange(
                "build custom profiles with MotionProfile.custom(), which checks "
                "their normalization")
        custom_fields = (self.alpha, self.alpha_prime, self.alpha_pprime, self.horizon,
                         self.slope_range)
        if self.kind != "custom" and any(v is not None for v in custom_fields):
            raise ArgumentOutOfRange(
                f"the built-in {self.kind!r} profile takes no callables, horizon or "
                f"slope range")

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

        All three callables are evaluated at 0, where ``alpha(0) = 0`` must
        hold.  Only ``alpha'`` is sampled beyond that: ``max |alpha'|`` on
        10^4 uniform points of ``[0, horizon]`` must equal 1 within 1e-6.
        ``alpha`` and ``alpha''`` are trusted to be continuous.  Receiver
        windows must keep ``Omega*t <= horizon`` (:func:`time_window`).
        """
        if not (horizon > 0.0):
            raise ArgumentOutOfRange(
                f"custom profiles need a positive sampling horizon, got {horizon}"
            )
        at_zero = _call_custom((alpha, alpha_prime, alpha_pprime), 0.0)
        if not np.all(np.isfinite(at_zero)):
            raise ProfileEvaluationError("custom profile is not finite at argument 0.0",
                                         argument=0.0)
        a0 = at_zero[0]
        if abs(a0) > 1e-12:
            raise InvalidNormalization(f"alpha(0) must be 0, got {a0!r}")
        grid = np.linspace(0.0, horizon, NORMALIZATION_SAMPLES)
        slopes, = _map_custom((alpha_prime,), grid)
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

    def eval(self, arg, order=(0, 1, 2)):
        """Return the derivatives of ``alpha`` named in ``order`` at ``arg >= 0``.

        ``order`` lists derivative orders from ``(0, 1, 2)``; the default
        returns ``(alpha, alpha', alpha'')`` and ``order=(1,)`` returns
        ``(alpha',)``.  Only the requested derivatives are computed, so a
        custom profile calls only the callables named.  Accepts a scalar or
        an ndarray.  A negative argument raises :class:`ArgumentOutOfRange`
        naming the most negative one.  Custom evaluators receive one Python
        float at a time and must return a finite value that ``float()``
        accepts; only the values returned are checked, and a failure raises
        :class:`ProfileEvaluationError` naming the first failing argument
        in ravel order.
        """
        arr = np.asarray(arg, dtype=float)
        # One reduction and no temporary; NaN and an empty grid pass.
        if arr.min(initial=0.0) < 0.0:
            raise ArgumentOutOfRange(f"profile argument must be >= 0, got "
                                     f"{float(np.min(arr))!r} (the most negative of {arr.size})")
        if self.kind == "custom":
            triple = (self.alpha, self.alpha_prime, self.alpha_pprime)
            callables = tuple(triple[k] for k in order)
            values = (_call_custom(callables, float(arr)) if arr.ndim == 0
                      else _map_custom(callables, arr))
            finite = np.ones(arr.shape, dtype=bool)
            for v in values:
                finite &= np.isfinite(v)
            if not np.all(finite):
                u = float(arr.ravel()[np.argmin(np.ravel(finite))])
                raise ProfileEvaluationError(
                    f"custom profile is not finite at argument {u!r}", argument=u)
            return values
        if self.kind == "constant":
            z = _match(np.zeros_like(arr))
            return tuple(z for _ in order)
        if self.kind == "decelerating":
            e = np.exp(-arr)
            forms = (lambda: 1.0 - e, lambda: e, lambda: -e)
        else:  # oscillatory
            sin = np.sin(arr) if 0 in order or 2 in order else None
            forms = (lambda: sin, lambda: np.cos(arr), lambda: -sin)
        return tuple(_match(forms[k]()) for k in order)


def _call_custom(callables, u: float) -> tuple:
    """Each custom evaluator at the one point ``u``, as Python floats."""
    try:
        return tuple([float(f(u)) for f in callables])
    except Exception as exc:
        raise ProfileEvaluationError(
            f"custom profile evaluator failed at argument {u!r}: {exc}",
            argument=u,
        ) from exc


def _map_custom(callables, arr: np.ndarray) -> tuple:
    """Each custom evaluator mapped over ``arr`` in one pass, one array each.

    Every call receives and returns a Python float, exactly as
    :func:`_call_custom` does, so the values are bit-identical to a
    point-by-point loop.  Each evaluator runs over the whole grid in ravel
    order, one slice of at most ``_CUSTOM_SLICE`` points at a time: the
    slice's ``tolist()`` gives the floats without a NumPy scalar per point,
    and no list of the whole grid is built.  On a failure the grid is rerun
    point by point to name the first failing argument in ravel order.
    """
    flat = arr.ravel()
    try:
        values = []
        for f in callables:
            out = np.empty(flat.size)
            for start in range(0, flat.size, _CUSTOM_SLICE):
                us = flat[start:start + _CUSTOM_SLICE].tolist()
                out[start:start + _CUSTOM_SLICE] = np.fromiter(map(float, map(f, us)),
                                                               float, len(us))
            values.append(out.reshape(arr.shape))
        return tuple(values)
    except Exception as exc:
        for u in flat:
            _call_custom(callables, float(u))
        raise ProfileEvaluationError(
            f"custom profile evaluator failed on an array of shape {arr.shape}, "
            f"but not when rerun point by point: {exc}"
        ) from exc


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


def boundary_position(motion: BoundaryMotion, t):
    """``X_s(t) = v*t + a*alpha(Omega*t)``; zero at ``t = 0``."""
    alpha, = motion.profile.eval(motion.Omega * np.asarray(t, dtype=float), order=(0,))
    return _match(motion.v * np.asarray(t, dtype=float) + motion.a * np.asarray(alpha))


def boundary_velocity(motion: BoundaryMotion, t):
    """``dX_s/dt = v + a*Omega*alpha'(Omega*t)``."""
    ap, = motion.profile.eval(motion.Omega * np.asarray(t, dtype=float), order=(1,))
    return _match(motion.v + motion.a * motion.Omega * np.asarray(ap))


def time_window(motion: BoundaryMotion, medium: MediumParams, ts) -> None:
    """The time rules of every sampled window, whatever samples it.

    :class:`ArgumentOutOfRange` rejects an empty grid, a negative or NaN
    earliest time, and a latest time with ``Omega*t`` past a custom
    profile's validated horizon or with ``omega*t >= MAX_OMEGA_T``.  ``ts``
    is a scalar or an array.
    """
    if np.size(ts) == 0:
        raise ArgumentOutOfRange("the time grid is empty")
    first, last = float(np.min(ts)), float(np.max(ts))
    if not first >= 0.0:  # NaN propagates through np.min and fails too
        raise ArgumentOutOfRange(f"time must be >= 0, got {first}")
    if motion.profile.kind == "custom" and motion.Omega * last > motion.profile.horizon:
        raise ArgumentOutOfRange(
            f"t={last} puts Omega*t={motion.Omega * last:.6g} past the custom "
            f"profile's validated horizon {motion.profile.horizon}")
    if medium.omega * last >= MAX_OMEGA_T:
        raise ArgumentOutOfRange(
            f"t={last} puts omega*t={medium.omega * last:.6g} at or past "
            f"MAX_OMEGA_T=2**32: float phase resolution is lost")


def sample_grid(n, grid) -> np.ndarray:
    """``grid(int(n))``: the time grid of ``n`` samples, built once ``n`` passes.

    :class:`ArgumentOutOfRange` rejects a count that is not finite or below
    2 (NaN fails too), and one whose grid NumPy refuses to allocate: larger
    than the address space (``ValueError``) or than the allocator can
    provide (``MemoryError``), before any sample is computed.
    """
    if not 2 <= n < np.inf:  # NaN fails both
        raise ArgumentOutOfRange(f"need a finite count of at least 2 samples, got {n}")
    try:
        return grid(int(n))
    except (MemoryError, ValueError) as exc:
        raise ArgumentOutOfRange(f"a grid of {int(n)} samples does not fit in memory "
                                 f"({exc})") from None


def before_arrival(medium: MediumParams, x: float, t: float) -> bool:
    """The causal cone, ``t < 0`` or ``t < x/c`` with no slack; a NaN ``x`` passes."""
    return t < 0.0 or t < x / medium.c


def _scalars(**coords) -> None:
    """:class:`ArgumentOutOfRange` naming the first of ``coords`` that is not a scalar."""
    for name, value in coords.items():
        if np.ndim(value) != 0:
            raise ArgumentOutOfRange(f"{name} must be one point, got shape {np.shape(value)}")


def receiver_window(motion: BoundaryMotion, medium: MediumParams, x: float, ts) -> None:
    """The receiver-window guard: a receiver at one point ``x`` hears the wave at every ``ts``.

    In order: :class:`ArgumentOutOfRange` for a non-scalar ``x``, the time
    rules of :func:`time_window`, the causal cone of :func:`before_arrival`
    (:class:`NotYetReached`), then the boundary rule of :func:`boundary_rule`.
    """
    _scalars(x=x)
    time_window(motion, medium, ts)
    first = float(np.min(ts))
    if before_arrival(medium, x, first):
        raise NotYetReached(
            f"(x={x}, t={first}) is outside the causal cone: no signal has "
            f"arrived before x/c={x / medium.c}")
    _boundary_pass(motion, medium, x, ts)


def boundary_rule(motion: BoundaryMotion, medium: MediumParams, x, t) -> None:
    """The time rules of :func:`time_window`, then the boundary rule ``x >= X_s(t)``.

    ``x`` must be finite (:class:`ArgumentOutOfRange`).  A receiver at most
    ``BOUNDARY_CLAMP*c/omega`` behind ``X_s(t)`` counts as on the boundary
    and keeps its own position; one further behind raises
    :class:`ObserverInsideBoundary`.  ``x`` and ``t`` broadcast to at least
    one point, else :class:`ArgumentOutOfRange`.
    """
    time_window(motion, medium, t)
    _boundary_pass(motion, medium, x, t)


def _boundary_pass(motion: BoundaryMotion, medium: MediumParams, x, t) -> None:
    """The boundary rule over the broadcast of ``x`` and ``t``, which must not be empty.

    A built-in profile first compares ``min(x)`` with the farthest the
    boundary reaches over the window, ``max(v*t_min, v*t_max) + max(a*lo,
    a*hi)`` for ``alpha``'s value range ``(lo, hi)`` (:data:`_VALUE_RANGES`).
    Float products, sums and differences are monotone in each argument, so
    no lag computed below can exceed ``reach - min(x)``: within the clamp,
    the rule holds at every point and ``X_s`` is never evaluated.
    Otherwise, and always for a custom profile, whose values are never
    sampled, ``X_s`` is evaluated one :func:`_blocks` slice at a time.  That
    pass raises only after the whole grid, naming the point ``np.argmax``
    of the whole lag would.  A scalar ``x`` stays a zero-stride view.
    """
    xa, ta = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ArgumentOutOfRange(f"receiver position must be finite, got {x}")
    try:
        size = int(np.prod(np.broadcast_shapes(xa.shape, ta.shape)))
    except ValueError:
        raise ArgumentOutOfRange(f"receiver positions of shape {xa.shape} do not broadcast "
                                 f"with times of shape {ta.shape}") from None
    if size == 0:
        raise ArgumentOutOfRange("no receiver position to check: x is empty")
    clamp = BOUNDARY_CLAMP * medium.c / medium.omega
    if motion.profile.kind != "custom":
        v, a = motion.v, motion.a
        lo, hi = _VALUE_RANGES[motion.profile.kind]
        reach = max(v * float(ta.min()), v * float(ta.max())) + max(a * lo, a * hi)
        if reach - float(xa.min()) <= clamp:
            return
    xs, ts = (arr.reshape(-1) for arr in np.broadcast_arrays(xa, ta))
    peaks = []
    for block in _blocks(ts.size):
        lag = boundary_position(motion, ts[block]) - xs[block]
        worst = int(np.argmax(lag))
        peaks.append((lag[worst], block.start + worst))
    lag, worst = _first_peak(peaks)
    if lag > clamp:
        raise ObserverInsideBoundary(
            f"x={float(xs[worst])} lies {lag:.3g} behind the boundary at t={float(ts[worst])}")


def _blocks(size: int):
    """Slices covering ``range(size)`` in order, ``BLOCK`` points each but the last."""
    return (slice(start, min(start + BLOCK, size)) for start in range(0, size, BLOCK))


def _first_peak(peaks):
    """The peak a whole-grid ``np.argmax`` picks, from each block's ``(value, ...)`` peak.

    Each block's peak is its first largest value (or its first NaN), so the
    first block whose peak wins holds the whole grid's.
    """
    return peaks[int(np.argmax([peak[0] for peak in peaks]))]


#: The exact range ``(min, max)`` of ``alpha'`` for each built-in profile.
_SLOPE_RANGES = {"constant": (0.0, 0.0), "decelerating": (0.0, 1.0),
                 "oscillatory": (-1.0, 1.0)}

#: Bounds ``(lo, hi)`` on every value :meth:`MotionProfile.eval` computes for
#: ``alpha`` of each built-in profile: ``1 - exp(-u)`` and ``sin(u)`` round
#: to no value outside them.
_VALUE_RANGES = {"constant": (0.0, 0.0), "decelerating": (0.0, 1.0),
                 "oscillatory": (-1.0, 1.0)}


def _profile_speed_sup(profile: MotionProfile, beta: float, delta: float) -> float:
    """sup over t of |beta + delta*alpha'(Omega t)|.

    ``|beta + delta*s|`` is affine in the slope ``s``, so its sup sits at an
    end of the slope range: exact for built-ins, sampled at construction
    for custom profiles.
    """
    lo, hi = profile.slope_range if profile.kind == "custom" else _SLOPE_RANGES[profile.kind]
    return max(abs(beta + delta * lo), abs(beta + delta * hi))


def validate(motion: BoundaryMotion, medium: MediumParams) -> DimensionlessGroup:
    """Check subsonic validity and return ``(beta, delta, eps)``.

    Raises :class:`ArgumentOutOfRange` for a non-finite ``beta`` or ``delta``
    or ``eps >= 1``, and :class:`SupersonicMotion` when ``delta >= 1 - beta``
    or the instantaneous boundary speed reaches the wave speed.  Warns when
    ``eps > 0.3`` (scale separation becoming marginal).
    """
    beta = motion.v / medium.c
    delta = motion.a * motion.Omega / medium.c
    eps = motion.Omega / medium.omega

    if not (np.isfinite(beta) and np.isfinite(delta)):
        raise ArgumentOutOfRange(f"beta={beta} and delta={delta} must be finite")
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
        # Issued from this line, not the caller's: the default filter shows it once per eps.
        warnings.warn(
            f"eps={eps:.6g} > {EPS_WARN_THRESHOLD}: leading-order accuracy degrades")
    return DimensionlessGroup(beta, delta, eps)


def _match(value):
    """``value`` as a float when it is 0-d, else as an array of its shape."""
    value = np.asarray(value)
    return float(value) if value.ndim == 0 else value
