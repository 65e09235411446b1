"""Property tests over the subsonic ``(beta, delta, eps)`` domain of each built-in profile.

Runs derandomized, so every run draws the same examples, and keeps no
example database.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dopplerlab.asymptotics import am_factor, moving_frame_field  # noqa: E402
from dopplerlab.characteristics import (  # noqa: E402
    general_excitation_field,
    transport_amplitude,
)
from dopplerlab.errors import ObserverInsideBoundary  # noqa: E402
from dopplerlab.motion import (  # noqa: E402
    BLOCK,
    BOUNDARY_CLAMP,
    PROFILES,
    MediumParams,
    boundary_position,
    boundary_rule,
)

from conftest import make_motion  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)
MEDIUM = MediumParams(omega=1.0, c=1.0)

#: The nonzero ends of each profile's range of ``alpha'``.
SLOPE_ENDS = {"constant": (), "decelerating": (1.0,), "oscillatory": (-1.0, 1.0)}

#: Largest ``|beta + delta*alpha'|`` drawn.  The moving-frame phase
#: ``eta/(1 - beta_tilde)`` is computed in two orders by the two paths, so
#: their gap grows like one ulp of it; at this margin it stays near 1e-13.
MAX_SPEED = 0.98


def _delta_range(kind: str, beta: float) -> tuple:
    """The ``delta`` interval that keeps the boundary below ``MAX_SPEED``."""
    lo, hi = -1.0, min(MAX_SPEED - beta, 1.0 - beta)
    for s in SLOPE_ENDS[kind]:
        a, b = sorted(((-MAX_SPEED - beta) / s, (MAX_SPEED - beta) / s))
        lo, hi = max(lo, a), min(hi, b)
    return lo, hi


@st.composite
def motions(draw, kinds=PROFILES):
    """A built-in profile's motion anywhere in its subsonic region."""
    kind = draw(st.sampled_from(kinds))
    beta = draw(st.floats(-MAX_SPEED, MAX_SPEED))
    lo, hi = _delta_range(kind, beta)
    delta = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    eps = draw(st.floats(0.01, 0.5))
    return make_motion(kind, beta=beta, delta=delta, eps=eps)


pytestmark = [
    pytest.mark.filterwarnings("ignore:eps="),  # eps > 0.3 warns by design
    # On a failure Hypothesis imports libcst, when it is installed, to print
    # a patch; libcst's import of mypy_extensions.TypedDict then warns.
    pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict:DeprecationWarning"),
]


@SETTINGS
@given(motions(), st.floats(0.0, 20.0), st.floats(0.0, 200.0))
def test_harmonic_excitation_is_the_moving_frame_field(motion, eta, tau):
    got = general_excitation_field(lambda s: complex(math.cos(s), math.sin(s)),
                                   eta, tau, motion, MEDIUM)
    assert abs(got - moving_frame_field(motion, MEDIUM, eta, tau)) < 1e-12


@SETTINGS
@given(motions(), st.floats(0.0, 200.0))
def test_transport_amplitude_is_one_on_the_boundary(motion, tau):
    tau1 = motion.Omega * tau  # omega = 1
    assert transport_amplitude(0.0, tau1, motion, MEDIUM) == 1.0


#: Every decade of ``[0, 1e-9]`` at 1% steps.  Emission labels at slow times
#: near 1e-16 round to about -1e-16 on the decelerating profile at
#: ``delta >= 0.5``.
TINY_TIMES = np.concatenate([[0.0], np.geomspace(1e-18, 1e-9, 2000)])


@SETTINGS
@given(motions())
def test_am_on_the_boundary_at_tiny_times(motion):
    am = am_factor(motion, MEDIUM, boundary_position(motion, TINY_TIMES), TINY_TIMES)
    assert np.max(np.abs(np.asarray(am) - 1.0)) < 1e-12


@SETTINGS
@given(motions(), st.floats(0.0, 100.0), st.floats(1e-3, 400.0), st.integers(1, BLOCK),
       st.data())
def test_boundary_rule_raises_exactly_past_the_clamp(motion, t0, span, extra, data):
    # Windows longer than one block; receivers on the boundary, at the
    # clamp's edge, and anywhere from its lowest point to beyond its reach.
    # The reference is the whole-grid lag, whose first largest value names
    # the point.
    ts = np.linspace(t0, t0 + span, BLOCK + extra)
    position = np.asarray(boundary_position(motion, ts))
    clamp = BOUNDARY_CLAMP * MEDIUM.c / MEDIUM.omega
    top = float(np.max(position))
    beyond = abs(motion.v) * (t0 + span) + abs(motion.a) + 1.0
    x = data.draw(st.one_of(
        st.sampled_from([top, top - clamp, float(np.nextafter(top - clamp, -np.inf)),
                         top - 1.001 * clamp, top - 3.0 * clamp]),
        st.sampled_from(position.tolist()),
        st.floats(float(np.min(position)), beyond)))
    lag = position - x
    worst = int(np.argmax(lag))
    if lag[worst] > clamp:
        with pytest.raises(ObserverInsideBoundary) as excinfo:
            boundary_rule(motion, MEDIUM, x, ts)
        assert str(excinfo.value) == (
            f"x={x} lies {lag[worst]:.3g} behind the boundary at t={ts[worst]}")
    else:
        boundary_rule(motion, MEDIUM, x, ts)
