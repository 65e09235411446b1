"""One receiver-window guard behind every entry point that samples a receiver.

The boundary moves at half the wave speed (``X_s(t) = t/2``, ``c = 1``).
Each case is a window, and the time that pointwise entry points use.
Entry points that check the causal cone reject windows before arrival with
``NOT_YET_REACHED``; ``exact_field`` returns 0 there instead, and the AM
factor has no cone at all.  Every entry point snaps a receiver within
``BOUNDARY_CLAMP*c/omega`` behind the boundary onto it, and rejects one
further behind with ``INSIDE_BOUNDARY``.
"""

import pytest

from dopplerlab.asymptotics import am_factor
from dopplerlab.cli import main
from dopplerlab.errors import DopplerLabError
from dopplerlab.motion import MediumParams
from dopplerlab.oracle import compare_fields, exact_field, retarded_time
from dopplerlab.signal import sample_receiver

from conftest import make_motion

MOTION = make_motion("constant", beta=0.5, delta=0.0, eps=0.1)
MEDIUM = MediumParams(omega=1.0, c=1.0)

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
}

CONE = {"roundoff-behind": "ok", "overtaken": "INSIDE_BOUNDARY",
        "before-arrival": "NOT_YET_REACHED", "just-before-arrival": "NOT_YET_REACHED"}
ZERO_OUTSIDE_CONE = {**CONE, "before-arrival": "zero", "just-before-arrival": "zero"}
NO_CONE = {**CONE, "before-arrival": "ok", "just-before-arrival": "ok"}


def _api(call):
    def run(case, out, capsys):
        try:
            return call(*CASES[case])
        except DopplerLabError as exc:
            return exc.code
    return run


def _cli(*argv):
    def run(case, out, capsys):
        x, t_min, t_max, _ = CASES[case]
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
    def call(x, t_min, t_max, t):
        sample_receiver(source, MOTION, MEDIUM, x, t_min, (t_max - t_min) / 8, 9)
        return "ok"
    return call


def _retarded_time(x, t_min, t_max, t):
    retarded_time(MOTION, MEDIUM, x, t)
    return "ok"


def _exact_field(x, t_min, t_max, t):
    return "zero" if exact_field(MOTION, MEDIUM, x, t) == 0.0 else "ok"


def _am_factor(x, t_min, t_max, t):
    am_factor(MOTION, MEDIUM, x, [t_min, t, t_max])
    return "ok"


def _compare_fields(x, t_min, t_max, t):
    compare_fields(MOTION, MEDIUM, x, (t_min, t_max), 9)
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
    assert run(case, tmp_path / "out", capsys) == expected[case]
