"""Modulation factors, leading-order fields, and the dispersion relation."""

import math

import numpy as np
import pytest

from dopplerlab.asymptotics import (
    am_factor,
    classical_doppler,
    fm_factor,
    lab_phase,
    lab_phase_rate,
    leading_order_field,
    moving_frame_field,
    wavenumber,
)
from dopplerlab.errors import DegenerateRatio, ObserverInsideBoundary
from dopplerlab.motion import MediumParams, boundary_position

from conftest import make_motion


#: Entry points that take a receiver ``x`` and times ``t`` that broadcast.
RECEIVER_CALLS = {
    "am_factor": am_factor,
    "lab_phase": lambda m, medium, x, t: lab_phase(m, medium, x, t, True),
    "lab_phase_rate": lambda m, medium, x, t: lab_phase_rate(m, medium, x, t, True),
}


class TestArrayReceiverScalarTime:
    @pytest.mark.parametrize("x", [[5.0], [5.0, 6.5, 9.0], np.array([4.0, 7.0])],
                             ids=["one", "list", "array"])
    @pytest.mark.parametrize("name", RECEIVER_CALLS)
    def test_matches_pointwise_scalar_calls(self, medium, name, x):
        m = make_motion("oscillatory", beta=0.1, delta=0.2, eps=0.1)
        call = RECEIVER_CALLS[name]
        got = call(m, medium, x, 8.0)
        assert isinstance(got, np.ndarray) and got.shape == (len(x),)
        want = [call(m, medium, float(xi), 8.0) for xi in x]
        assert all(isinstance(w, float) for w in want)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


class TestClassicalDoppler:
    def test_approaching_at_half_speed(self):
        assert classical_doppler(1000.0, 0.5) == 2000.0

    def test_stationary(self):
        assert classical_doppler(1000.0, 0.0) == 1000.0

    def test_receding_at_wave_speed(self):
        assert classical_doppler(1000.0, -1.0) == 500.0

    def test_sonic_source_rejected(self):
        with pytest.raises(DegenerateRatio):
            classical_doppler(1000.0, 1.0)


class TestWavenumber:
    def test_unshifted(self):
        assert wavenumber(0.0) == 1.0

    def test_approaching(self):
        assert wavenumber(0.5) == 2.0

    def test_receding(self):
        assert wavenumber(-1.0) == 0.5

    def test_quadratic_residual(self, rng):
        bt = rng.uniform(-0.9, 0.9, 1000)
        k = wavenumber(bt)
        resid = -1.0 - 2.0 * bt * k + (1.0 - bt ** 2) * k ** 2
        assert np.max(np.abs(resid)) < 1e-12

    def test_sonic_rejected(self):
        with pytest.raises(DegenerateRatio):
            wavenumber(1.0)


class TestFmFactor:
    def test_oscillatory_at_zero(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        assert fm_factor(m, medium, 0.0) == 1.25

    def test_decelerating_at_zero(self, medium):
        m = make_motion("decelerating", beta=0.0, delta=-0.2, eps=0.1)
        assert fm_factor(m, medium, 0.0) == pytest.approx(1.0 / 1.2, abs=1e-15)

    def test_decelerating_long_time_limit(self, medium):
        m = make_motion("decelerating", beta=0.25, delta=-0.2, eps=0.1)
        t = 30.0 / m.Omega
        assert abs(fm_factor(m, medium, t) - 1.0 / 0.75) < 1e-6

    def test_constant_profile(self, medium):
        m = make_motion("constant", beta=0.5, delta=0.0, eps=0.1)
        assert fm_factor(m, medium, 3.0) == 2.0


class TestAmFactor:
    def test_unity_on_boundary(self, medium):
        m = make_motion("oscillatory", beta=0.1, delta=0.3, eps=0.1)
        for t in (0.0, 3.0, 17.0):
            xs = boundary_position(m, t)
            assert am_factor(m, medium, xs, t) == pytest.approx(1.0, abs=1e-12)

    def test_decelerating_far_receiver_initial_value(self, medium):
        m = make_motion("decelerating", beta=0.0, delta=-0.2, eps=0.1)
        expected = math.exp(-0.1 * (1.0 - math.exp(-1.0)))
        assert am_factor(m, medium, 10.0, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_decelerating_long_time_limit(self, medium):
        m = make_motion("decelerating", beta=0.0, delta=-0.2, eps=0.1)
        t = 30.0 / m.Omega
        assert abs(am_factor(m, medium, t, t) - 1.0) < 1e-6

    def test_receiver_behind_boundary_rejected(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.3, eps=0.1)
        t = math.pi / (2.0 * m.Omega)  # boundary at its maximum excursion
        x = 0.5 * boundary_position(m, t)
        with pytest.raises(ObserverInsideBoundary):
            am_factor(m, medium, x, t)


class TestLeadingOrderField:
    def test_constant_profile_reduces_to_shifted_harmonic(self, medium, rng):
        for beta in (-0.5, 0.0, 0.5):
            m = make_motion("constant", beta=beta, delta=0.0, eps=0.1)
            ts = rng.uniform(0.0, 50.0, 64)
            for t in ts:
                x = rng.uniform(max(0.0, beta * t), t)
                got = leading_order_field(m, medium, x, t).value
                want = np.exp(1j * (t - x) / (1.0 - beta))
                assert abs(got - want) < 1e-12

    def test_outside_cone_is_zero(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        sample = leading_order_field(m, medium, 2.0 * 5.0, 5.0)
        assert sample.value == 0.0

    def test_boundary_condition_recovered(self, medium):
        m = make_motion("constant", beta=0.0, delta=0.0, eps=0.1)
        for t in (0.0, 1.0, 2.5):
            got = leading_order_field(m, medium, 0.0, t).value
            assert abs(got - np.exp(1j * t)) < 1e-15

    def test_factors_attached_inside_cone(self, medium):
        m = make_motion("decelerating", beta=0.0, delta=-0.2, eps=0.1)
        sample = leading_order_field(m, medium, 1.0, 5.0)
        assert sample.factors is not None
        assert abs(sample.value) == pytest.approx(sample.factors.am, abs=1e-15)


class TestTinySlowTimes:
    """Emission labels ``(1-beta)*S - delta*alpha(S)`` at tiny slow times ``S``.

    They are exactly >= 0 for subsonic motion, but on the decelerating
    profile with ``delta >= 0.5`` they round to about -1e-16 (``1 -
    exp(-S)`` rounds up), which the profile's ``arg >= 0`` gate rejected.
    """

    @pytest.mark.parametrize("delta,t_max", [(0.5, 1e-15), (0.6, 1e-14), (0.9, 1e-13),
                                             (0.999999, 1e-9)])
    def test_am_on_boundary(self, medium, delta, t_max):
        m = make_motion("decelerating", beta=0.0, delta=delta, eps=0.1)
        t = np.linspace(0.0, t_max, 1001)
        am = am_factor(m, medium, boundary_position(m, t), t)
        assert np.max(np.abs(am - 1.0)) < 1e-12

    @pytest.mark.parametrize("delta,t_max", [(0.5, 1e-15), (0.6, 1e-14), (0.999999, 1e-9)])
    def test_moving_frame_on_boundary(self, medium, delta, t_max):
        m = make_motion("decelerating", beta=0.0, delta=delta, eps=0.1)
        tau = np.linspace(0.0, t_max, 1001)  # omega = 1
        got = moving_frame_field(m, medium, 0.0, tau)
        assert np.max(np.abs(got - np.exp(1j * tau))) < 1e-15


class TestMovingFrameField:
    def test_boundary_condition(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        for tau in (0.0, 1.0, 4.0, 9.0):
            got = moving_frame_field(m, medium, 0.0, tau)
            assert abs(got - np.exp(1j * tau)) < 1e-12

    def test_plane_wave_limit(self, medium):
        m = make_motion("constant", beta=0.0, delta=0.0, eps=0.1)
        for eta, tau in ((0.5, 2.0), (3.0, 7.0)):
            got = moving_frame_field(m, medium, eta, tau)
            assert abs(got - np.exp(1j * (tau - eta))) < 1e-15

    def test_matches_lab_frame_at_mapped_coordinates(self, medium, rng):
        for profile, delta in (("oscillatory", 0.2), ("decelerating", -0.2)):
            m = make_motion(profile, beta=0.1, delta=delta, eps=0.1)
            for _ in range(200):
                t = rng.uniform(0.0, 60.0)
                xs = boundary_position(m, t)
                x = rng.uniform(xs, t) if t > xs else xs
                eta = (x - xs)  # omega = c = 1
                lab = leading_order_field(m, medium, x, t,
                                          include_phase_shift=True).value
                mov = moving_frame_field(m, medium, eta, t)
                assert abs(lab - mov) < 1e-12


class TestLabPhase:
    def test_phase_rate_matches_finite_differences(self, medium):
        m = make_motion("oscillatory", beta=0.1, delta=0.2, eps=0.1)
        x = 6.0  # X_s(t) < 3.9 up to t = 23: the receiver stays ahead
        for shift in (False, True):
            for t in (4.0, 11.0, 23.0):
                h = 1e-5
                fd = (lab_phase(m, medium, x, t + h, shift)
                      - lab_phase(m, medium, x, t - h, shift)) / (2.0 * h)
                an = lab_phase_rate(m, medium, x, t, shift)
                assert an == pytest.approx(fd, rel=1e-7)

    def test_shift_vanishes_for_constant_profile(self, medium):
        m = make_motion("constant", beta=0.4, delta=0.0, eps=0.1)
        a = lab_phase(m, medium, 3.0, 6.0, include_phase_shift=True)  # X_s(6) = 2.4
        b = lab_phase(m, medium, 3.0, 6.0, include_phase_shift=False)
        assert a == b

    def test_boundary_phase_rate_is_doppler_frequency(self, medium):
        # With the slow phase shift retained, the phase rate taken along a
        # fixed receiver sitting exactly on the boundary equals omega * FM.
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        for t in (2.0, 9.0, 31.0):
            xs = boundary_position(m, t)
            rate = lab_phase_rate(m, medium, xs, t, include_phase_shift=True)
            assert rate == pytest.approx(fm_factor(m, medium, t), rel=1e-12)


class TestMediumScaling:
    def test_dimensional_invariance(self):
        # The same dimensionless triple must give the same factors in any units.
        medium_a = MediumParams(omega=1.0, c=1.0)
        medium_b = MediumParams(omega=250.0, c=343.0)
        m_a = make_motion("decelerating", beta=0.1, delta=-0.2, eps=0.1,
                          omega=1.0, c=1.0)
        m_b = make_motion("decelerating", beta=0.1, delta=-0.2, eps=0.1,
                          omega=250.0, c=343.0)
        wt = 7.3
        fm_a = fm_factor(m_a, medium_a, wt)
        fm_b = fm_factor(m_b, medium_b, wt / 250.0)
        assert fm_a == pytest.approx(fm_b, rel=1e-14)
        wx = 4.0
        am_a = am_factor(m_a, medium_a, wx, wt)
        am_b = am_factor(m_b, medium_b, wx * 343.0 / 250.0, wt / 250.0)
        assert am_a == pytest.approx(am_b, rel=1e-14)
