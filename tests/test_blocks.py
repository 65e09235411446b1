"""Long grids are evaluated in blocks of ``motion.BLOCK`` points, with the results of one pass.

Every test runs with ``BLOCK`` set to 7, so grids split into many blocks
with a short last one, and to the grid size, so the grid is one block; the
two must agree exactly.  The memory tests measure, under ``tracemalloc``,
how the peak grows with the grid at the default ``BLOCK``.
"""

import math
import tracemalloc

import numpy as np
import pytest

import dopplerlab.motion as motion_mod
import dopplerlab.oracle as oracle_mod
from dopplerlab.errors import NoConvergence, ObserverInsideBoundary
from dopplerlab.motion import MotionProfile, receiver_window
from dopplerlab.oracle import compare_fields
from dopplerlab.signal import sample_on_grid

from conftest import make_motion

#: name -> (profile, beta, delta); the receiver at x = 100 stays ahead of each.
PROFILES = {
    "constant": (MotionProfile.constant(), 0.4, 0.0),
    "decelerating": (MotionProfile.decelerating(), 0.1, -0.3),
    "oscillatory": (MotionProfile.oscillatory(), 0.0, 0.2),
    "custom": (MotionProfile.custom(lambda u: 1.0 - math.cos(u), math.sin, math.cos,
                                    horizon=30.0), 0.0, 0.3),
}


def _in_blocks(monkeypatch, n, call):
    """``call()`` with ``BLOCK = 7`` and with ``BLOCK = n``, as a pair."""
    results = []
    for block in (7, n):
        monkeypatch.setattr(motion_mod, "BLOCK", block)
        results.append(call())
    return results


@pytest.mark.parametrize("name", PROFILES)
def test_compare_fields_is_block_invariant(name, medium, monkeypatch):
    profile, beta, delta = PROFILES[name]
    m = make_motion(profile, beta=beta, delta=delta, eps=0.1)
    n = 1001
    small, whole = _in_blocks(monkeypatch, n,
                              lambda: compare_fields(m, medium, 100.0, (100.0, 200.0), n))
    assert small == whole


@pytest.mark.parametrize("source", ["asymptotic", "oracle"])
@pytest.mark.parametrize("name", PROFILES)
def test_sample_on_grid_is_block_invariant(name, source, medium, monkeypatch):
    profile, beta, delta = PROFILES[name]
    m = make_motion(profile, beta=beta, delta=delta, eps=0.1)
    ts = np.linspace(100.0, 200.0, 1001)
    small, whole = _in_blocks(monkeypatch, ts.size, lambda: sample_on_grid(
        source, m, medium, 100.0, ts, True, with_fm=True))
    assert np.array_equal(small[0], whole[0])
    assert np.array_equal(small[1], whole[1])


def _inside_boundary_message(motion, medium, x, ts):
    with pytest.raises(ObserverInsideBoundary) as excinfo:
        receiver_window(motion, medium, x, ts)
    return str(excinfo.value)


def test_worst_lag_in_a_later_block(medium, monkeypatch):
    # X_s = t/2 overtakes x = 4 at t = 8; the lag is largest at the last point.
    m = make_motion("constant", beta=0.5, delta=0.0, eps=0.1)
    ts = np.linspace(6.0, 10.0, 40)
    small, whole = _in_blocks(monkeypatch, ts.size,
                              lambda: _inside_boundary_message(m, medium, 4.0, ts))
    assert small == whole
    assert f"t={ts[-1]}" in small


def test_worst_lag_tied_across_blocks(medium, monkeypatch):
    # alpha = min(u, 1) holds X_s at exactly a = 5 from t = 10 on, so every
    # later point lags x = 4 by exactly 1; the first of them is named.
    plateau = MotionProfile.custom(lambda u: min(u, 1.0), lambda u: float(u < 1.0),
                                   lambda u: 0.0, horizon=3.0)
    m = make_motion(plateau, beta=0.0, delta=0.5, eps=0.1)
    ts = np.linspace(5.0, 30.0, 40)
    first = int(np.argmax(ts >= 10.0))
    assert first // 7 < (ts.size - 1) // 7  # the tie spans several blocks of 7
    small, whole = _in_blocks(monkeypatch, ts.size,
                              lambda: _inside_boundary_message(m, medium, 4.0, ts))
    assert small == whole
    assert f"t={ts[first]}" in small


def test_stall_names_the_same_worst_point(medium, monkeypatch):
    # The grid of test_oracle's long window, whose solve stalls past t = 8192.
    m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
    x = 5.0
    ts = np.linspace(x + 0.5, x + 0.5 + 135 * 20.0 * math.pi, 40_000)

    def message():
        with pytest.raises(NoConvergence) as excinfo:
            oracle_mod._solve_checked(m, medium, x, ts)
        return str(excinfo.value)

    small, whole = _in_blocks(monkeypatch, ts.size, message)
    assert small == whole


def _peak_growth(call):
    """Growth of ``call(n)``'s traced peak from 100,001 to 400,001 points, per point added."""
    tracemalloc.start()
    try:
        small, large = (call(n) for n in (100_001, 400_001))
    finally:
        tracemalloc.stop()
    return (large - small) / 300_000


def _traced_peak(call, *args, **kwargs):
    """Peak traced memory of ``call(*args, **kwargs)`` above what was traced before it."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    call(*args, **kwargs)
    return tracemalloc.get_traced_memory()[1] - before


#: The oscillatory grid of the compare sweep at eps = 0.1: 20 carrier
#: periods from arrival at the slow receiver coordinate 0.28.
SWEEP_MOTION = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
SWEEP_X = 2.8
SWEEP_WINDOW = (SWEEP_X, SWEEP_X + 20.0 * 2.0 * math.pi)


def test_compare_memory_grows_by_the_time_grid_alone(medium):
    # The time grid is 8 bytes a point; a whole-grid evaluation holds about
    # a dozen grid-sized arrays at its peak.
    growth = _peak_growth(lambda n: _traced_peak(compare_fields, SWEEP_MOTION, medium,
                                                 SWEEP_X, SWEEP_WINDOW, n))
    assert growth <= 1.5 * 8


def test_oracle_sample_memory_grows_by_its_outputs_alone(medium):
    # The outputs are values (16 bytes a point) and fm (8); the time grid
    # is the caller's.
    growth = _peak_growth(lambda n: _traced_peak(
        sample_on_grid, "oracle", SWEEP_MOTION, medium, SWEEP_X,
        np.linspace(*SWEEP_WINDOW, n), with_fm=True))
    assert growth <= 16 + 8 + 1.5 * 8
