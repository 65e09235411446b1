"""Exact retarded-time reference solution and asymptotic comparison."""

import math
from collections import Counter

import numpy as np
import pytest

import dopplerlab.oracle as oracle_mod
from dopplerlab.asymptotics import _fm, _lab_field, fm_factor
from dopplerlab.errors import (
    ArgumentOutOfRange,
    NoConvergence,
    NotYetReached,
    ObserverInsideBoundary,
)
from dopplerlab.motion import (BLOCK, MotionProfile, _profile_speed_sup, boundary_position,
                               validate)
from dopplerlab.oracle import (
    compare_fields,
    exact_field,
    exact_instantaneous_frequency,
    retarded_time,
)
from dopplerlab.signal import sample_receiver

from conftest import make_motion


class TestRetardedTime:
    def test_constant_velocity_linear_solution(self, medium):
        m = make_motion("constant", beta=0.5, delta=0.0, eps=0.1)
        res = retarded_time(m, medium, 2.0, 3.0)
        assert res.t_e == pytest.approx(2.0, abs=1e-12)
        assert res.residual <= 1e-12

    def test_stationary_boundary(self, medium):
        m = make_motion("constant", beta=0.0, delta=0.0, eps=0.1)
        res = retarded_time(m, medium, 1.0, 4.0)
        assert res.t_e == pytest.approx(3.0, abs=1e-12)

    def test_oscillatory_reference_point(self, medium):
        # Frozen from an independent bisection-only solve at 1e-14.
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        res = retarded_time(m, medium, 5.0, 9.0)
        assert res.t_e == pytest.approx(4.950076822855712, abs=1e-11)
        assert res.residual < 1e-12
        # Uniform motion would emit at t - x/c = 4, so the solve takes steps.
        assert res.iterations >= 1

    def test_residual_definition(self, medium):
        m = make_motion("oscillatory", beta=0.1, delta=0.2, eps=0.1)
        res = retarded_time(m, medium, 4.0, 11.0)
        g = res.t_e - boundary_position(m, res.t_e) - (11.0 - 4.0)  # c = 1
        assert abs(g) == pytest.approx(res.residual, abs=1e-15)

    def test_custom_profile_solves(self, medium):
        prof = MotionProfile.custom(
            lambda u: 1.0 - math.cos(u),
            lambda u: math.sin(u),
            lambda u: math.cos(u),
            horizon=4.0 * math.pi,
        )
        m = make_motion(prof, beta=0.0, delta=0.3, eps=0.1)
        res = retarded_time(m, medium, 3.0, 8.0)
        assert res.residual < 1e-12
        g = res.t_e - boundary_position(m, res.t_e) - (8.0 - 3.0)
        assert abs(g) < 1e-12

    def test_before_arrival_rejected(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        with pytest.raises(NotYetReached):
            retarded_time(m, medium, 5.0, 3.0)

    def test_negative_time_rejected(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        with pytest.raises(ArgumentOutOfRange):
            retarded_time(m, medium, 1.0, -1.0)

    def test_receiver_behind_boundary_rejected(self, medium):
        m = make_motion("constant", beta=0.5, delta=0.0, eps=0.1)
        with pytest.raises(ObserverInsideBoundary):
            retarded_time(m, medium, 0.5, 8.0)

    def test_exhausted_budget_raises(self, medium, monkeypatch):
        # With a one-step budget the solve takes one Newton step from the
        # secant start 4.84; that leaves a residual of about 5e-5, far above
        # tolerance.
        monkeypatch.setattr(oracle_mod, "MAX_ITERATIONS", 1)
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        with pytest.raises(NoConvergence):
            retarded_time(m, medium, 5.0, 9.0)

    def test_nan_residual_raises(self, medium):
        # A NaN receiver makes every residual NaN: a stall, not a solve.
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        with pytest.raises(NoConvergence):
            oracle_mod._solve_checked(m, medium, math.nan, [9.0])

    def test_strictly_increasing_in_reception_time(self, medium):
        m = make_motion("oscillatory", beta=0.1, delta=0.4, eps=0.1)
        ts = np.linspace(21.0, 120.0, 400)
        tes = [retarded_time(m, medium, 20.0, float(t)).t_e for t in ts]
        assert np.all(np.diff(tes) > 0.0)


def _fixed_point_emission(motion, medium, x, ts):
    """Iterate ``s <- (t - x/c) + X_s(s)/c``, a contraction for subsonic motion."""
    rhs = np.asarray(ts, dtype=float) - x / medium.c
    s = rhs.copy()
    for _ in range(200):
        s = rhs + np.asarray(boundary_position(motion, s)) / medium.c
    return s


class TestSolver:
    @pytest.mark.parametrize("profile,beta,delta", [
        ("constant", 0.4, 0.0),
        ("decelerating", 0.1, -0.3),
        ("oscillatory", -0.2, 0.4),
        ("custom", 0.0, 0.3),
    ])
    def test_matches_fixed_point(self, profile, beta, delta, medium):
        if profile == "custom":
            profile = MotionProfile.custom(
                lambda u: 1.0 - math.cos(u), math.sin, math.cos, horizon=30.0)
        m = make_motion(profile, beta=beta, delta=delta, eps=0.1)
        x = 100.0  # stays ahead of the boundary over the whole window
        ts = np.linspace(x, x + 150.0, 301)
        want = _fixed_point_emission(m, medium, x, ts)
        grid = oracle_mod._solve_checked(m, medium, x, ts)[0]
        assert np.max(np.abs(grid - want)) < 1e-11
        for t, w in zip(ts[::30], want[::30]):
            assert abs(retarded_time(m, medium, x, float(t)).t_e - w) < 1e-11

    def test_iteration_budget(self, medium):
        tol = oracle_mod.DEFAULT_TOL_SCALE
        for profile in ("decelerating", "oscillatory"):
            for delta in (-0.2, 0.2):
                for eps in (0.1, 0.0125):
                    m = make_motion(profile, beta=0.0, delta=delta, eps=eps)
                    x = 0.28 / eps
                    ts = np.linspace(x, x + 4.0 * 2.0 * math.pi / eps, 2000)
                    _, resid, iters = oracle_mod._solve_retarded(m, medium, x, ts, tol)
                    assert np.max(resid) <= tol
                    assert np.max(iters) <= 6, (profile, delta, eps)

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.025, 0.0125])
    @pytest.mark.parametrize("profile,delta,x_slow", [
        ("decelerating", -0.2, 0.1),
        ("oscillatory", 0.2, 0.28),
    ])
    def test_tabulated_start_budget(self, profile, delta, x_slow, eps, medium):
        # The grids of the compare sweep: 20 carrier periods from arrival at
        # the slow receiver coordinate x_slow, 200,001 samples.
        m = make_motion(profile, beta=0.0, delta=delta, eps=eps)
        x = x_slow / eps
        ts = np.linspace(x, x + 20.0 * 2.0 * math.pi, 200_001)
        tol = oracle_mod.DEFAULT_TOL_SCALE
        _, resid, iters = oracle_mod._solve_retarded(m, medium, x, ts, tol)
        assert np.max(resid) <= tol
        assert np.max(iters) <= 2
        assert np.mean(iters) <= 1.1

    def test_one_newton_loop_per_solve(self, medium, monkeypatch):
        # One profile evaluation builds the start table; each pass of the
        # loop makes one more, and the last pass finds every point done.
        # Nothing else evaluates the profile: no window end is solved first.
        calls = []
        real = MotionProfile.eval

        def counted(profile, arg, order=(0, 1, 2)):
            calls.append(order)
            return real(profile, arg, order)

        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        x = 2.8
        ts = np.linspace(x, x + 20.0 * 2.0 * math.pi, 200_001)
        monkeypatch.setattr(MotionProfile, "eval", counted)
        _, resid, iters = oracle_mod._solve_retarded(m, medium, x, ts,
                                                     oracle_mod.DEFAULT_TOL_SCALE)
        assert np.max(resid) <= oracle_mod.DEFAULT_TOL_SCALE
        assert calls == [(0,)] + [(0, 1)] * (int(np.max(iters)) + 1)

    @pytest.mark.parametrize("profile,beta,delta", [
        ("constant", 0.4, 0.0),
        ("decelerating", 0.1, -0.3),
        ("oscillatory", -0.2, 0.4),
    ])
    def test_small_grids_match_the_large_grid(self, profile, beta, delta, medium):
        # A one- or two-point grid starts from a two-row table, a large grid
        # from a fine one; both solve to |g| <= tol, and g' = 1/FM.
        m = make_motion(profile, beta=beta, delta=delta, eps=0.1)
        group = validate(m, medium)
        fm_max = 1.0 / (1.0 - _profile_speed_sup(m.profile, group.beta, group.delta))
        tol = oracle_mod.DEFAULT_TOL_SCALE
        x = 10.0
        ts = np.linspace(x, x + 150.0, 20_001)
        grid = oracle_mod._solve_retarded(m, medium, x, ts, tol)[0]
        for k in (0, 1, 7_777, 20_000):
            one = oracle_mod._solve_retarded(m, medium, x, ts[k:k + 1], tol)[0]
            assert abs(one[0] - grid[k]) <= 2.0 * fm_max * tol
        for j, k in ((0, 20_000), (3_000, 3_001), (12_345, 19_999)):
            two = oracle_mod._solve_retarded(m, medium, x, ts[[j, k]], tol)[0]
            assert np.all(np.abs(two - grid[[j, k]]) <= 2.0 * fm_max * tol)

    def test_long_window_still_stalls(self, medium):
        # Past t = 8192/omega one float step in t exceeds the 1e-12/omega
        # stop rule, so some points stall however good their start is: the
        # stop rule, not the start, has to change to mend it.
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        x = 5.0
        ts = np.linspace(x + 0.5, x + 0.5 + 135 * 20.0 * math.pi, 40_000)
        with pytest.raises(NoConvergence):
            oracle_mod._solve_checked(m, medium, x, ts)

    def test_custom_twin_matches_builtin(self, medium):
        builtin = make_motion("oscillatory", beta=0.1, delta=0.3, eps=0.1)
        sine = MotionProfile.custom(math.sin, math.cos, lambda u: -math.sin(u),
                                    horizon=60.0)
        twin = make_motion(sine, beta=0.1, delta=0.3, eps=0.1)
        ts = np.linspace(100.0, 600.0, 2000)
        te_builtin = oracle_mod._solve_checked(builtin, medium, 100.0, ts)[0]
        te_twin = oracle_mod._solve_checked(twin, medium, 100.0, ts)[0]
        assert np.max(np.abs(te_twin - te_builtin)) <= 1e-12


    def test_one_dimensional_grid_reaches_the_solver_uncopied(self, medium, monkeypatch):
        m = make_motion("oscillatory", beta=0.1, delta=0.2, eps=0.1)
        ts = np.linspace(6.0, 40.0, 101)
        seen = []
        real = oracle_mod._solve_retarded

        def spy(motion, medium, x, grid, *rest):
            seen.append(grid)
            return real(motion, medium, x, grid, *rest)

        monkeypatch.setattr(oracle_mod, "_solve_retarded", spy)
        te = oracle_mod._solve_checked(m, medium, 6.0, ts)[0]
        assert te.shape == ts.shape
        (grid,) = seen
        assert np.shares_memory(grid, ts)


class TestRoundTrip:
    """Emission grids through the explicit map ``t(S)`` and back, no solver as reference.

    ``|g(t_e)| <= tol`` and ``g' = 1/FM``, so the solve returns ``S`` within
    ``tol`` times the largest FM of the motion, plus the few ulps of ``t``
    that building ``t`` and evaluating ``g`` round away.
    """

    @pytest.mark.parametrize("n", [200_001, 1])
    @pytest.mark.parametrize("eps", [0.1, 0.0125])
    @pytest.mark.parametrize("profile,beta,delta", [
        ("constant", 0.4, 0.0),
        ("decelerating", 0.1, -0.3),
        ("oscillatory", -0.2, 0.4),
        ("custom", 0.0, 0.3),
    ])
    def test_emission_grid_recovered(self, profile, beta, delta, eps, n, medium):
        if profile == "custom":
            profile = MotionProfile.custom(
                lambda u: 1.0 - math.cos(u), math.sin, math.cos, horizon=30.0)
        m = make_motion(profile, beta=beta, delta=delta, eps=eps)
        group = validate(m, medium)
        fm_bound = 1.0 / (1.0 - _profile_speed_sup(m.profile, group.beta, group.delta))
        x = 1.0 / eps
        emission = np.linspace(0.0, 2.5 / eps, n) if n > 1 else np.array([1.25 / eps])
        ts = x / medium.c + emission - np.asarray(boundary_position(m, emission)) / medium.c
        te = oracle_mod._solve_checked(m, medium, x, ts)[0]
        tol = oracle_mod.DEFAULT_TOL_SCALE / medium.omega
        assert np.all(np.abs(te - emission) <= fm_bound * (tol + 4.0 * np.spacing(ts)))


def counting_profile(calls: Counter) -> MotionProfile:
    """``1 - cos`` as a custom profile whose callables count their calls in ``calls``."""
    def counted(name, f):
        def call(u):
            calls[name] += 1
            return f(u)
        return call

    return MotionProfile.custom(counted("alpha", lambda u: 1.0 - math.cos(u)),
                                counted("alpha'", math.sin),
                                counted("alpha''", math.cos), horizon=60.0)


class TestProfileCalls:
    def test_oracle_never_calls_alpha_pprime(self, medium):
        calls = Counter()
        m = make_motion(counting_profile(calls), beta=0.0, delta=0.3, eps=0.1)
        calls.clear()
        sample_receiver("oracle", m, medium, 10.0, 10.5, 0.5, 1000)
        assert calls["alpha''"] == 0
        assert calls["alpha"] > 0 and calls["alpha'"] > 0

    def test_asymptotic_samples_never_call_alpha_pprime(self, medium):
        calls = Counter()
        m = make_motion(counting_profile(calls), beta=0.0, delta=0.3, eps=0.1)
        calls.clear()
        sample_receiver("asymptotic", m, medium, 10.0, 10.5, 0.1, 2000)
        assert calls["alpha''"] == 0
        assert calls["alpha"] > 0 and calls["alpha'"] > 0


    def test_compare_takes_fm_from_the_solve(self, medium):
        # Beyond the solve and the asymptotic side, compare_fields calls
        # alpha' nowhere: an FM evaluation of its own would add n calls.
        calls = Counter()
        m = make_motion(counting_profile(calls), beta=0.0, delta=0.3, eps=0.1)
        x, n = 10.0, 3000
        ts = np.linspace(10.5, 500.0, n)
        calls.clear()
        compare_fields(m, medium, x, (10.5, 500.0), n)
        in_compare = calls["alpha'"]
        calls.clear()
        oracle_mod._solve_checked(m, medium, x, ts)
        _lab_field(m, medium, validate(m, medium), x, ts, True, with_rate=True)
        assert in_compare == calls["alpha'"]

    def test_compare_evaluates_alpha_prime_alone_twice_per_block(self, medium,
                                                                   monkeypatch):
        # Per block the asymptotic AM takes alpha' at its two emission
        # labels; the exact FM takes none.
        calls = Counter()
        real = MotionProfile.eval

        def counted(profile, arg, order=(0, 1, 2)):
            calls[order] += 1
            return real(profile, arg, order)

        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        monkeypatch.setattr(MotionProfile, "eval", counted)
        compare_fields(m, medium, 2.8, (2.8, 100.0), 2 * BLOCK + 1)
        assert calls[(1,)] == 2 * 3


def _exp_twin() -> MotionProfile:
    return MotionProfile.custom(lambda u: 1.0 - math.exp(-u), lambda u: math.exp(-u),
                                lambda u: -math.exp(-u), horizon=120.0)


class TestFmFromTheSolve:
    """The exact FM is built from the solve's last ``alpha'``, to the bit."""

    @pytest.mark.parametrize("profile,beta,delta,ts", [
        ("oscillatory", 0.0, 0.2, np.linspace(1000.0, 1010.0, 1001)),
        ("sine", 0.0, 0.3, np.linspace(1000.0, 1010.0, 1001)),
        ("oscillatory", 0.0, 0.2, np.linspace(100.0, 250.0, 2 * BLOCK + 5)),
        ("decelerating", -0.1, -0.2, np.linspace(100.0, 250.0, 2 * BLOCK + 5)),
        ("constant", -0.2, 0.0, np.linspace(100.0, 250.0, 2 * BLOCK + 5)),
        ("exp", 0.0, 0.3, np.linspace(100.0, 250.0, 2 * BLOCK + 5)),
    ], ids=["oscillatory-window", "sine-window", "oscillatory-long", "decelerating-long",
            "constant-long", "exp-long"])
    def test_equals_a_separate_evaluation(self, profile, beta, delta, ts, medium):
        if profile == "sine":
            profile = MotionProfile.custom(math.sin, math.cos, lambda u: -math.sin(u),
                                           horizon=120.0)
        elif profile == "exp":
            profile = _exp_twin()
        m = make_motion(profile, beta=beta, delta=delta, eps=0.1)
        group = validate(m, medium)
        x = 5.0
        te, _, iters = oracle_mod._solve_checked(m, medium, x, ts)
        fm = np.concatenate([fm for _, _, fm in
                             oracle_mod._exact_blocks(m, medium, group, x, ts, True)])
        want = _fm(group.beta, group.delta, m.profile.eval(m.Omega * te, order=(1,))[0])
        assert np.array_equal(fm, want)
        if ts.size == 1001 and m.profile.kind != "constant":
            # The window where points finish on different passes: the
            # solve's compacted working set carries the slopes too.
            assert set(np.unique(iters)) == {1, 2}

    def test_single_time(self, medium):
        m = make_motion(_exp_twin(), beta=0.0, delta=0.3, eps=0.1)
        te = retarded_time(m, medium, 5.0, 1005.0).t_e
        ap, = m.profile.eval(m.Omega * te, order=(1,))
        want = medium.omega / (1.0 - 0.0 - 0.3 * ap)
        assert exact_instantaneous_frequency(m, medium, 5.0, 1005.0) == want


class TestExactField:
    def test_classical_reduction(self, medium, rng):
        for beta in (-0.5, 0.0, 0.5):
            m = make_motion("constant", beta=beta, delta=0.0, eps=0.1)
            for _ in range(50):
                t = rng.uniform(0.0, 40.0)
                x = rng.uniform(max(0.0, beta * t), t)
                got = exact_field(m, medium, x, t)
                want = np.exp(1j * (t - x) / (1.0 - beta))
                assert abs(got - want) < 1e-12

    def test_outside_cone_is_zero(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        assert exact_field(m, medium, 8.0, 4.0) == 0.0

    def test_unit_modulus_inside_cone(self, medium, rng):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        for _ in range(200):
            t = rng.uniform(0.1, 80.0)
            x = rng.uniform(0.0, t)
            x = max(x, boundary_position(m, t))
            val = exact_field(m, medium, x, t)
            assert abs(abs(val) - 1.0) < 1e-14


class TestExactFrequency:
    def test_boundary_matches_fm(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        for t in (0.5, 3.0, 9.0, 31.0):
            xs = boundary_position(m, t)
            got = exact_instantaneous_frequency(m, medium, xs, t)
            assert abs(got - fm_factor(m, medium, t)) < 1e-10  # omega = 1

    def test_classical_value(self, medium):
        m = make_motion("constant", beta=0.25, delta=0.0, eps=0.1)
        got = exact_instantaneous_frequency(m, medium, 2.0, 7.0)
        assert got == pytest.approx(1.0 / 0.75, rel=1e-14)

    def test_oscillatory_range(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        vals = [exact_instantaneous_frequency(m, medium, 5.0, float(t))
                for t in np.linspace(5.0, 5.0 + 4.0 * 2.0 * math.pi / 0.1, 500)]
        assert min(vals) >= 1.0 / 1.2 - 1e-12
        assert max(vals) <= 1.25 + 1e-12
        assert min(vals) == pytest.approx(1.0 / 1.2, abs=1e-3)
        assert max(vals) == pytest.approx(1.25, abs=1e-3)


class TestCompareFields:
    def test_classical_errors_vanish(self, medium):
        m = make_motion("constant", beta=0.3, delta=0.0, eps=0.1)
        report = compare_fields(m, medium, 10.0, (10.0, 30.0), 500)
        assert report.max_phase_error < 1e-12
        assert report.max_freq_rel_error < 1e-12
        assert report.max_modulus_error < 1e-12

    def test_decelerating_reference_window(self, medium):
        # Frozen diagnostic values for the canonical comparison setup.
        m = make_motion("decelerating", beta=0.0, delta=-0.2, eps=0.1)
        report = compare_fields(m, medium, 1.0, (1.0, 1.0 + 20.0 * 2.0 * math.pi),
                                2001, include_phase_shift=True)
        assert report.max_freq_rel_error == pytest.approx(2.418064e-3, rel=1e-4)
        assert report.max_freq_rel_error <= 5.0 * 0.1
        assert report.max_phase_error == pytest.approx(1.6199e-2, rel=1e-3)
        assert report.max_modulus_error == pytest.approx(1.0011e-2, rel=1e-3)

    def test_window_before_arrival_rejected(self, medium):
        m = make_motion("decelerating", beta=0.0, delta=-0.2, eps=0.1)
        with pytest.raises(NotYetReached):
            compare_fields(m, medium, 5.0, (2.0, 30.0), 100)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_non_finite_sample_count_rejected(self, n, medium):
        m = make_motion("decelerating", beta=0.0, delta=-0.2, eps=0.1)
        with pytest.raises(ArgumentOutOfRange) as excinfo:
            compare_fields(m, medium, 5.0, (5.0, 30.0), n)
        assert excinfo.value.code == "ARG_OUT_OF_RANGE"
