"""One window guard behind every entry point that samples a time window.

The boundary moves at half the wave speed (``X_s(t) = t/2``, ``c = 1``).
Each case is a window, and the time that pointwise entry points use.
Every entry point applies the time rules of ``motion.time_window`` first:
it rejects an empty grid, a window that starts before ``t = 0``, one that
ends at ``omega*t >= MAX_OMEGA_T`` and, for a custom profile, one that ends
past its validated horizon in ``Omega*t``, with ``ARG_OUT_OF_RANGE``
(``exact_field`` and ``leading_order_field`` return 0 before ``t = 0``,
as outside the cone).  Entry points that check the causal cone reject
windows before arrival with ``NOT_YET_REACHED``; ``exact_field`` and
``leading_order_field`` return 0 there instead, and the AM factor, the lab
phase and its rate have no cone at all.  Those entry points snap a
receiver within ``BOUNDARY_CLAMP*c/omega`` behind the boundary onto it, and
reject one further behind with ``INSIDE_BOUNDARY``.  The FM factor and the
moving-frame field (where ``x`` is the offset ahead of the boundary) have
only the time rules.
"""

import math

import numpy as np
import pytest

from dopplerlab.asymptotics import (
    am_factor,
    fm_factor,
    lab_phase,
    lab_phase_rate,
    leading_order_field,
    moving_frame_field,
)
from dopplerlab.cli import main
from dopplerlab.errors import ArgumentOutOfRange, DopplerLabError
from dopplerlab.motion import (
    MAX_OMEGA_T,
    BoundaryMotion,
    MediumParams,
    MotionProfile,
    receiver_window,
    snap_to_boundary,
    time_window,
)
from dopplerlab.oracle import (
    compare_fields,
    exact_field,
    exact_instantaneous_frequency,
    retarded_time,
)
from dopplerlab.signal import sample_on_grid, sample_receiver

from conftest import make_motion

MOTION = make_motion("constant", beta=0.5, delta=0.0, eps=0.1)
MEDIUM = MediumParams(omega=1.0, c=1.0)
#: The same trajectory (a = 0) through a custom profile validated on
#: Omega*t in [0, 1], that is t <= 10.
CUSTOM = make_motion(MotionProfile.custom(math.sin, math.cos, lambda u: -math.sin(u),
                                          horizon=1.0),
                     beta=0.5, delta=0.0, eps=0.1)

#: name -> (x, t_min, t_max, t)
CASES = {
    # 1e-13 behind the boundary at t = 10, inside the snap tolerance.
    "roundoff-behind": (5.0 - 1e-13, 6.0, 10.0, 10.0),
    # The boundary overtakes x = 4 at t = 8.
    "overtaken": (4.0, 6.0, 10.0, 10.0),
    # The wave reaches x = 5 at t = 5.
    "before-arrival": (5.0, 2.0, 4.0, 2.0),
    # Starts 4e-12 before arrival at x = 5000: there is no arrival slack.
    "just-before-arrival": (5000.0, 5000.0 - 4e-12, 5004.0 - 4e-12, 5000.0 - 4e-12),
    # Ahead of the boundary and inside the cone, but ends at omega*t = 2**32.
    "phase-resolution": (3e9, MAX_OMEGA_T - 8.0, MAX_OMEGA_T, MAX_OMEGA_T),
    # Starts before the boundary does.
    "negative-start": (1.0, -1.0, 4.0, -1.0),
}

CONE = {"roundoff-behind": "ok", "overtaken": "INSIDE_BOUNDARY",
        "before-arrival": "NOT_YET_REACHED", "just-before-arrival": "NOT_YET_REACHED",
        "phase-resolution": "ARG_OUT_OF_RANGE", "negative-start": "ARG_OUT_OF_RANGE"}
ZERO_OUTSIDE_CONE = {**CONE, "before-arrival": "zero", "just-before-arrival": "zero",
                     "negative-start": "zero"}
NO_CONE = {**CONE, "before-arrival": "ok", "just-before-arrival": "ok"}
TIME_ONLY = {**{case: "ok" for case in CASES},
             "phase-resolution": "ARG_OUT_OF_RANGE", "negative-start": "ARG_OUT_OF_RANGE"}


#: name -> ((x, t_min, t_max, t), expected) on CUSTOM, for every API entry point.
HORIZON_CASES = {
    "ends-on-horizon": ((6.0, 7.0, 10.0, 10.0), "ok"),
    "past-horizon": ((6.0, 7.0, 11.0, 11.0), "ARG_OUT_OF_RANGE"),
}


def _api(call):
    def run(motion, window, out, capsys):
        try:
            return call(motion, *window)
        except DopplerLabError as exc:
            return exc.code
    return run


def _cli(*argv, receiver=True):
    """A command line on the window; ``--x`` only for a command that takes a receiver."""
    def run(motion, window, out, capsys):
        assert motion is MOTION  # the flags below build MOTION
        x, t_min, t_max, _ = window
        code = main([*argv, "--profile", "constant", "--beta", "0.5", "--delta", "0",
                     "--eps", "0.1", *(["--x", repr(x)] if receiver else []),
                     "--t-min", repr(t_min), "--t-max", repr(t_max), "--samples", "9",
                     "--out", str(out)])
        if code == 0:
            assert any(out.iterdir())
            return "ok"
        assert code == 2 and not out.exists()
        return capsys.readouterr().err.split(":")[1].strip()
    return run


def _sample(source):
    def call(motion, x, t_min, t_max, t):
        sample_receiver(source, motion, MEDIUM, x, t_min, (t_max - t_min) / 8, 9)
        return "ok"
    return call


def _retarded_time(motion, x, t_min, t_max, t):
    retarded_time(motion, MEDIUM, x, t)
    return "ok"


def _exact_field(motion, x, t_min, t_max, t):
    return "zero" if exact_field(motion, MEDIUM, x, t) == 0.0 else "ok"


def _am_factor(motion, x, t_min, t_max, t):
    am_factor(motion, MEDIUM, x, [t_min, t, t_max])
    return "ok"


def _lab_phase(motion, x, t_min, t_max, t):
    lab_phase(motion, MEDIUM, x, [t_min, t, t_max], True)
    return "ok"


def _lab_phase_rate(motion, x, t_min, t_max, t):
    lab_phase_rate(motion, MEDIUM, x, [t_min, t, t_max], True)
    return "ok"


def _leading_order_field(motion, x, t_min, t_max, t):
    return "zero" if leading_order_field(motion, MEDIUM, x, t).value == 0.0 else "ok"


def _exact_instantaneous_frequency(motion, x, t_min, t_max, t):
    exact_instantaneous_frequency(motion, MEDIUM, x, t)
    return "ok"


def _compare_fields(motion, x, t_min, t_max, t):
    compare_fields(motion, MEDIUM, x, (t_min, t_max), 9)
    return "ok"


def _fm_factor(motion, x, t_min, t_max, t):
    fm_factor(motion, MEDIUM, [t_min, t, t_max])
    return "ok"


def _moving_frame_field(motion, x, t_min, t_max, t):
    # omega = c = 1: eta is x and tau is t.
    moving_frame_field(motion, MEDIUM, x, [t_min, t, t_max])
    return "ok"


ENTRY_POINTS = {
    "retarded_time": (_api(_retarded_time), CONE),
    "exact_field": (_api(_exact_field), ZERO_OUTSIDE_CONE),
    "am_factor": (_api(_am_factor), NO_CONE),
    "lab_phase": (_api(_lab_phase), NO_CONE),
    "lab_phase_rate": (_api(_lab_phase_rate), NO_CONE),
    "leading_order_field": (_api(_leading_order_field), ZERO_OUTSIDE_CONE),
    "exact_instantaneous_frequency": (_api(_exact_instantaneous_frequency), CONE),
    "compare_fields": (_api(_compare_fields), CONE),
    "fm_factor": (_api(_fm_factor), TIME_ONLY),
    "moving_frame_field": (_api(_moving_frame_field), TIME_ONLY),
    "sample_receiver-asymptotic": (_api(_sample("asymptotic")), CONE),
    "sample_receiver-oracle": (_api(_sample("oracle")), CONE),
    "cli-field-lab-asymptotic": (_cli("field", "--source", "asymptotic"), CONE),
    "cli-field-lab-oracle": (_cli("field", "--source", "oracle"), CONE),
    "cli-am": (_cli("am"), NO_CONE),
    "cli-fm": (_cli("fm", receiver=False), TIME_ONLY),
    "cli-field-moving": (_cli("field", "--frame", "moving"), TIME_ONLY),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_receiver_window_guard(entry, case, tmp_path, capsys):
    run, expected = ENTRY_POINTS[entry]
    assert run(MOTION, CASES[case], tmp_path / "out", capsys) == expected[case]


API_ENTRY_POINTS = [e for e in ENTRY_POINTS if not e.startswith("cli-")]


@pytest.mark.parametrize("case", HORIZON_CASES)
@pytest.mark.parametrize("entry", API_ENTRY_POINTS)
def test_custom_horizon_guard(entry, case, tmp_path, capsys):
    run, _ = ENTRY_POINTS[entry]
    window, expected = HORIZON_CASES[case]
    assert run(CUSTOM, window, tmp_path / "out", capsys) == expected


@pytest.mark.parametrize("entry", API_ENTRY_POINTS)
def test_nan_time_rejected(entry, tmp_path, capsys):
    # NaN fails t >= 0.  The CLI rejects non-finite flags before any guard.
    run, _ = ENTRY_POINTS[entry]
    window = (6.0, 7.0, math.nan, math.nan)
    assert run(MOTION, window, tmp_path / "out", capsys) == "ARG_OUT_OF_RANGE"


#: Every API entry point that takes a time grid, as a call on the grid ``ts``.
GRID_ENTRY_POINTS = {
    "time_window": lambda ts: time_window(MOTION, MEDIUM, ts),
    "snap_to_boundary": lambda ts: snap_to_boundary(MOTION, MEDIUM, 6.0, ts),
    "receiver_window": lambda ts: receiver_window(MOTION, MEDIUM, 6.0, ts),
    "fm_factor": lambda ts: fm_factor(MOTION, MEDIUM, ts),
    "am_factor": lambda ts: am_factor(MOTION, MEDIUM, 6.0, ts),
    "lab_phase": lambda ts: lab_phase(MOTION, MEDIUM, 6.0, ts, True),
    "lab_phase_rate": lambda ts: lab_phase_rate(MOTION, MEDIUM, 6.0, ts, True),
    "moving_frame_field": lambda ts: moving_frame_field(MOTION, MEDIUM, 1.0, ts),
    "sample_on_grid-asymptotic": lambda ts: sample_on_grid("asymptotic", MOTION, MEDIUM, 6.0, ts),
    "sample_on_grid-oracle": lambda ts: sample_on_grid("oracle", MOTION, MEDIUM, 6.0, ts),
}


@pytest.mark.parametrize("grid", [[], np.empty(0)], ids=["list", "array"])
@pytest.mark.parametrize("entry", GRID_ENTRY_POINTS)
def test_empty_time_grid_rejected(entry, grid):
    with pytest.raises(ArgumentOutOfRange):
        GRID_ENTRY_POINTS[entry](grid)


#: Every API entry point that takes a receiver (``fm_factor`` takes none).
RECEIVER_ENTRY_POINTS = [e for e in API_ENTRY_POINTS if e != "fm_factor"]


@pytest.mark.parametrize("entry", RECEIVER_ENTRY_POINTS)
def test_nan_receiver_rejected(entry, tmp_path, capsys):
    # NaN fails every comparison, so the cone and the boundary lag let it
    # through; the boundary rule (and moving_frame_field's eta >= 0) reject it.
    run, _ = ENTRY_POINTS[entry]
    window = (math.nan, 7.0, 10.0, 10.0)
    assert run(MOTION, window, tmp_path / "out", capsys) == "ARG_OUT_OF_RANGE"


def test_wavefront_has_one_verdict():
    # One ulp inside the front: t >= x/c although x > c*t in floats.  The
    # scalar fields and the guard all use motion.before_arrival.
    medium = MediumParams(omega=1.0, c=343.0)
    motion = BoundaryMotion(v=0.0, a=0.0, Omega=0.1, profile=MotionProfile.constant())
    x, t = 185878.47734689302, 541.9197590288426
    assert x > medium.c * t and t >= x / medium.c
    assert leading_order_field(motion, medium, x, t).value != 0.0
    assert exact_field(motion, medium, x, t) != 0.0
    assert retarded_time(motion, medium, x, t).t_e == 0.0
