"""One receiver-window guard behind every entry point that samples a receiver.

The boundary moves at half the wave speed (``X_s(t) = t/2``, ``c = 1``).
Each case is a window, and the time that pointwise entry points use.
Entry points that check the causal cone reject windows before arrival with
``NOT_YET_REACHED``; ``exact_field`` returns 0 there instead, and the AM
factor has no cone at all.  Every entry point snaps a receiver within
``BOUNDARY_CLAMP*c/omega`` behind the boundary onto it, and rejects one
further behind with ``INSIDE_BOUNDARY``.  Every entry point also rejects a
window that ends at ``omega*t >= MAX_OMEGA_T`` and, for a custom profile,
one that ends past its validated horizon in ``Omega*t``, with
``ARG_OUT_OF_RANGE``.
"""

import math

import pytest

from dopplerlab.asymptotics import am_factor
from dopplerlab.cli import main
from dopplerlab.errors import DopplerLabError
from dopplerlab.motion import MAX_OMEGA_T, MediumParams, MotionProfile
from dopplerlab.oracle import compare_fields, exact_field, retarded_time
from dopplerlab.signal import sample_receiver

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
}

CONE = {"roundoff-behind": "ok", "overtaken": "INSIDE_BOUNDARY",
        "before-arrival": "NOT_YET_REACHED", "just-before-arrival": "NOT_YET_REACHED",
        "phase-resolution": "ARG_OUT_OF_RANGE"}
ZERO_OUTSIDE_CONE = {**CONE, "before-arrival": "zero", "just-before-arrival": "zero"}
NO_CONE = {**CONE, "before-arrival": "ok", "just-before-arrival": "ok"}


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


def _cli(*argv):
    def run(motion, window, out, capsys):
        assert motion is MOTION  # the flags below build MOTION
        x, t_min, t_max, _ = window
        code = main([*argv, "--profile", "constant", "--beta", "0.5", "--delta", "0",
                     "--eps", "0.1", "--x", repr(x), "--t-min", repr(t_min),
                     "--t-max", repr(t_max), "--samples", "9", "--out", str(out)])
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


def _compare_fields(motion, x, t_min, t_max, t):
    compare_fields(motion, MEDIUM, x, (t_min, t_max), 9)
    return "ok"


ENTRY_POINTS = {
    "retarded_time": (_api(_retarded_time), CONE),
    "exact_field": (_api(_exact_field), ZERO_OUTSIDE_CONE),
    "am_factor": (_api(_am_factor), NO_CONE),
    "compare_fields": (_api(_compare_fields), CONE),
    "sample_receiver-asymptotic": (_api(_sample("asymptotic")), CONE),
    "sample_receiver-oracle": (_api(_sample("oracle")), CONE),
    "cli-field-lab-asymptotic": (_cli("field", "--source", "asymptotic"), CONE),
    "cli-field-lab-oracle": (_cli("field", "--source", "oracle"), CONE),
    "cli-am": (_cli("am"), NO_CONE),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_receiver_window_guard(entry, case, tmp_path, capsys):
    run, expected = ENTRY_POINTS[entry]
    assert run(MOTION, CASES[case], tmp_path / "out", capsys) == expected[case]


@pytest.mark.parametrize("case", HORIZON_CASES)
@pytest.mark.parametrize("entry", [e for e in ENTRY_POINTS if not e.startswith("cli-")])
def test_custom_horizon_guard(entry, case, tmp_path, capsys):
    run, _ = ENTRY_POINTS[entry]
    window, expected = HORIZON_CASES[case]
    assert run(CUSTOM, window, tmp_path / "out", capsys) == expected
