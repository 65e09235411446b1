"""A sample count whose time grid cannot be allocated is refused as
``ArgumentOutOfRange`` (exit 2, no output), never an untyped NumPy error.

Only counts that fail before any memory is touched are used: 2**62
samples NumPy refuses outright (more bytes than an ``intp`` holds), and
10**14 float64 samples need 800 TB, more than the address space.
"""

import numpy as np
import pytest

from dopplerlab.cli import main
from dopplerlab.errors import ArgumentOutOfRange
from dopplerlab.motion import sample_grid
from dopplerlab.oracle import compare_fields
from dopplerlab.signal import sample_receiver

from conftest import make_motion

HUGE = [10 ** 14, 1e14, 2 ** 62]


@pytest.mark.parametrize("n", HUGE)
def test_sample_grid_refuses_unallocatable_counts(n):
    with pytest.raises(ArgumentOutOfRange, match="does not fit in memory"):
        sample_grid(n, lambda k: np.linspace(0.0, 1.0, k))


@pytest.mark.parametrize("n", [1, 0, -3, float("nan"), float("inf")])
def test_sample_grid_refuses_bad_counts(n):
    with pytest.raises(ArgumentOutOfRange, match="finite count of at least 2"):
        sample_grid(n, lambda k: np.linspace(0.0, 1.0, k))


def test_sample_grid_builds_the_grid():
    assert np.array_equal(sample_grid(5.0, lambda k: np.arange(k)), np.arange(5))


@pytest.mark.parametrize("n", HUGE)
def test_compare_fields_refuses(medium, n):
    motion = make_motion("oscillatory", 0.0, 0.2, 0.1)
    with pytest.raises(ArgumentOutOfRange):
        compare_fields(motion, medium, 5.0, (6.0, 60.0), n)


@pytest.mark.parametrize("n", HUGE)
@pytest.mark.parametrize("source", ["asymptotic", "oracle"])
def test_sample_receiver_refuses(medium, source, n):
    motion = make_motion("oscillatory", 0.0, 0.2, 0.1)
    with pytest.raises(ArgumentOutOfRange):
        sample_receiver(source, motion, medium, 5.0, 6.0, 0.5, n)


MOTION = ["--profile", "oscillatory", "--delta", "0.2", "--eps", "0.1"]
COMMANDS = [
    ["fm", *MOTION, "--t-min", "0", "--t-max", "60"],
    ["am", *MOTION, "--x", "5", "--t-min", "5", "--t-max", "60"],
    ["field", *MOTION, "--x", "5", "--t-min", "5", "--t-max", "60"],
    ["field", *MOTION, "--x", "5", "--t-min", "5", "--t-max", "60", "--source", "oracle"],
    ["compare", *MOTION, "--x", "0.5", "--t-min", "6", "--t-max", "60"],
    ["spectrum", *MOTION, "--x", "5", "--t-min", "5", "--t-max", "60"],
]


@pytest.mark.parametrize("n", [10 ** 14, 2 ** 62])
@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: "-".join(a[:1] + a[-1:]))
def test_cli_exit_2_no_output(tmp_path, capsys, argv, n):
    out = tmp_path / "never"
    assert main([*argv, "--samples", str(n), "--out", str(out)]) == 2
    assert not out.exists()
    assert "ARG_OUT_OF_RANGE" in capsys.readouterr().err
