"""Characteristic coordinates, transport amplitudes, and general excitations."""

import math

import numpy as np
import pytest

import dopplerlab.characteristics as characteristics_mod
from dopplerlab.asymptotics import am_factor, classical_doppler, moving_frame_field, wavenumber
from dopplerlab.characteristics import (
    general_excitation_field,
    slow_characteristic,
    to_characteristic_coords,
    transport_amplitude,
    transport_solution,
)
from dopplerlab.errors import ArgumentOutOfRange, SupersonicMotion
from dopplerlab.motion import MotionProfile, boundary_position, validate

from conftest import make_motion


class TestCoordinates:
    def test_unit_speeds(self, medium):
        m = make_motion("constant", beta=0.0, delta=0.0, eps=0.1)
        coords = to_characteristic_coords(1.0, 1.0, m, medium)
        assert coords.theta1 == 2.0
        assert coords.theta2 == 0.0

    def test_origin(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        coords = to_characteristic_coords(0.0, 0.0, m, medium)
        assert (coords.theta1, coords.theta2) == (0.0, 0.0)
        assert (coords.tau1, coords.eta1) == (0.0, 0.0)

    def test_constant_drift(self, medium):
        m = make_motion("constant", beta=0.5, delta=0.0, eps=0.1)
        coords = to_characteristic_coords(0.0, 2.0, m, medium)
        assert coords.theta1 == 3.0
        assert coords.theta2 == -1.0

    def test_slow_coordinates_scale(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        coords = to_characteristic_coords(4.0, 30.0, m, medium)
        assert coords.tau1 == pytest.approx(3.0, rel=1e-15)
        assert coords.eta1 == pytest.approx(0.4, rel=1e-15)


class TestSlowCharacteristic:
    def test_origin_minus(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        assert slow_characteristic(0.0, 0.0, m, medium) == 0.0

    def test_classical_minus(self, medium):
        m = make_motion("constant", beta=0.0, delta=0.0, eps=0.1)
        assert slow_characteristic(0.5, 1.0, m, medium) == 1.5

    def test_label_clamped_at_tiny_slow_time(self, medium):
        # (1 - 0.6) * 6e-17 - 0.6 * (1 - exp(-6e-17)) rounds to -6.6e-18.
        m = make_motion("decelerating", beta=0.0, delta=0.6, eps=0.1)
        assert slow_characteristic(0.0, 6e-17, m, medium) == 0.0
        assert transport_amplitude(0.0, 6e-17, m, medium) == 1.0
        grid = np.linspace(0.0, 1e-15, 101)
        assert np.all(np.asarray(slow_characteristic(0.0, grid, m, medium)) >= 0.0)

    def test_supersonic_motion_rejected(self, medium):
        # delta = 1.2 reaches the wave speed; the label used to be computed
        # (0.4902) while transport_amplitude raised for the same motion.
        m = make_motion("oscillatory", beta=0.0, delta=1.2, eps=0.1)
        for call in (slow_characteristic, transport_amplitude):
            with pytest.raises(SupersonicMotion):
                call(0.5, 1.0, m, medium)

    @pytest.mark.parametrize("call", [slow_characteristic, transport_amplitude])
    def test_validates_once(self, call, medium, monkeypatch):
        calls = []
        real = characteristics_mod.validate

        def counted(motion, medium):
            calls.append(motion)
            return real(motion, medium)

        monkeypatch.setattr(characteristics_mod, "validate", counted)
        m = make_motion("oscillatory", beta=0.1, delta=0.3, eps=0.1)
        call(0.5, 1.0, m, medium)
        assert len(calls) == 1


class TestTransportAmplitude:
    def test_boundary_is_unity(self, medium):
        m = make_motion("oscillatory", beta=0.1, delta=0.3, eps=0.1)
        for tau1 in (0.0, 0.7, 1.9):
            assert transport_amplitude(0.0, tau1, m, medium) == pytest.approx(1.0, abs=1e-15)

    def test_no_acceleration_is_unity(self, medium):
        m = make_motion("constant", beta=0.4, delta=0.0, eps=0.1)
        grid = np.linspace(0.0, 2.0, 13)
        vals = transport_amplitude(grid, 1.3, m, medium)
        assert np.all(np.asarray(vals) == 1.0)

    @pytest.mark.parametrize("profile,delta", [("oscillatory", 0.2),
                                               ("decelerating", -0.2)])
    def test_minus_family_equals_am_factor(self, medium, profile, delta):
        m = make_motion(profile, beta=0.0, delta=delta, eps=0.1)
        grid = np.linspace(0.0, 2.0, 100)
        eta1, tau1 = np.meshgrid(grid, grid, indexing="ij")
        env = np.asarray(transport_amplitude(eta1, tau1, m, medium))
        t = tau1 / m.Omega
        x = np.asarray(boundary_position(m, t)) + eta1 / m.Omega  # c = 1
        am = np.empty_like(env)
        for i in range(am.shape[0]):
            for j in range(am.shape[1]):
                am[i, j] = am_factor(m, medium, float(x[i, j]), float(t[i, j]))
        assert np.max(np.abs(env - am)) < 1e-10

    def test_custom_profile_identity(self, medium):
        prof = MotionProfile.custom(
            lambda u: 1.0 - math.cos(u),
            lambda u: math.sin(u),
            lambda u: math.cos(u),
            horizon=4.0 * math.pi,
        )
        m = make_motion(prof, beta=0.0, delta=0.25, eps=0.1)
        grid = np.linspace(0.0, 2.0, 40)
        worst = 0.0
        for eta1 in grid:
            for tau1 in grid:
                env = transport_amplitude(float(eta1), float(tau1), m, medium)
                t = tau1 / m.Omega
                x = boundary_position(m, t) + eta1 / m.Omega
                worst = max(worst, abs(env - am_factor(m, medium, x, t)))
        assert worst < 1e-10

    def test_solution_bundles_value_and_amplitude(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        sol = transport_solution(0.8, 1.1, m, medium)
        assert sol.family == "minus"
        assert sol.s_value == slow_characteristic(0.8, 1.1, m, medium)
        assert sol.amplitude == transport_amplitude(0.8, 1.1, m, medium)


class TestGeneralExcitation:
    @staticmethod
    def _gaussian_bump(arg):
        return np.exp(-0.5 * (arg - 6.0) ** 2) * np.exp(1j * arg)

    def test_classical_pulse_travels_outward(self, medium):
        # The half-line has no incoming wave: a boundary at rest sends the
        # whole pulse outward.
        m = make_motion("constant", beta=0.0, delta=0.0, eps=0.1)
        f = self._gaussian_bump
        for eta, tau in ((0.0, 6.0), (0.5, 4.0), (2.0, 9.0), (6.0, 12.0), (3.0, 40.0)):
            got = general_excitation_field(f, eta, tau, m, medium)
            assert abs(got - f(tau - eta)) < 1e-14

    @pytest.mark.parametrize("profile,delta", [("oscillatory", 0.2), ("decelerating", -0.2),
                                               ("constant", 0.0)])
    def test_harmonic_excitation_is_the_moving_frame_field(self, medium, profile, delta):
        m = make_motion(profile, beta=0.1, delta=delta, eps=0.1)
        worst = 0.0
        for eta in np.linspace(0.0, 10.0, 21):
            for tau in np.linspace(0.0, 40.0, 81):
                got = general_excitation_field(_excitation, float(eta), float(tau), m, medium)
                worst = max(worst, abs(got - moving_frame_field(m, medium, eta, tau)))
        assert worst < 1e-13

    def test_boundary_reconstructs_excitation(self, medium):
        f = self._gaussian_bump
        for profile, delta in (("oscillatory", 0.2), ("decelerating", -0.2)):
            m = make_motion(profile, beta=0.1, delta=delta, eps=0.1)
            for tau in (0.0, 3.0, 6.0, 12.0):
                got = general_excitation_field(f, 0.0, tau, m, medium)
                assert abs(got - f(tau)) < 1e-12

    def test_harmonic_excitation_minus_amplitude_matches_am(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        eta, tau = 1.5, 8.0
        t = tau  # omega = 1
        x = boundary_position(m, t) + eta  # c = 1
        coords = to_characteristic_coords(eta, tau, m, medium)
        env = transport_amplitude(coords.eta1, coords.tau1, m, medium)
        assert env == pytest.approx(am_factor(m, medium, x, t), abs=1e-12)

    @pytest.mark.parametrize("profile,beta,delta", [
        ("oscillatory", 0.1, 0.3),
        ("decelerating", 0.0, -0.2),
    ])
    def test_validates_once_with_the_public_values(self, profile, beta, delta, medium,
                                                   monkeypatch):
        # The field is built from to_characteristic_coords and the
        # outgoing transport_amplitude, bit for bit, on a single validate.
        m = make_motion(profile, beta=beta, delta=delta, eps=0.1)
        f = self._gaussian_bump
        group = validate(m, medium)
        for eta, tau in ((0.0, 3.0), (1.5, 8.0), (4.0, 30.0)):
            coords = to_characteristic_coords(eta, tau, m, medium)
            ap, = m.profile.eval(coords.tau1, order=(1,))
            beta_tilde = group.beta + group.delta * ap
            env = transport_amplitude(coords.eta1, coords.tau1, m, medium)
            want = env * f(coords.theta2 / (beta_tilde - 1.0))
            calls = []
            real = characteristics_mod.validate

            def counted(motion, medium):
                calls.append(motion)
                return real(motion, medium)

            with monkeypatch.context() as patch:
                patch.setattr(characteristics_mod, "validate", counted)
                got = general_excitation_field(f, eta, tau, m, medium)
            assert len(calls) == 1
            assert got == complex(want)

    def test_domain_bound_enforced(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        f = self._gaussian_bump
        with pytest.raises(ArgumentOutOfRange):
            general_excitation_field(f, 5.0, 2.0, m, medium, domain=(4.0, 10.0))


def _excitation(u):
    return complex(math.cos(u), math.sin(u))


@pytest.mark.parametrize("call", [
    lambda m, med: moving_frame_field(m, med, math.inf, 1.0),
    lambda m, med: moving_frame_field(m, med, math.nan, 1.0),
    lambda m, med: to_characteristic_coords(math.nan, 1.0, m, med),
    lambda m, med: to_characteristic_coords(1.0, math.nan, m, med),
    lambda m, med: to_characteristic_coords(math.inf, 1.0, m, med),
    lambda m, med: slow_characteristic(math.nan, 1.0, m, med),
    lambda m, med: slow_characteristic(0.5, np.array([1.0, math.nan]), m, med),
    lambda m, med: slow_characteristic(math.inf, 1.0, m, med),
    lambda m, med: transport_amplitude(math.nan, 1.0, m, med),
    lambda m, med: transport_amplitude(0.5, math.inf, m, med),
    lambda m, med: general_excitation_field(_excitation, math.nan, 1.0, m, med),
    lambda m, med: to_characteristic_coords(np.array([1.0, 2.0]), 1.0, m, med),
    lambda m, med: to_characteristic_coords(1.0, np.array([1.0, 2.0]), m, med),
    lambda m, med: general_excitation_field(_excitation, np.array([1.0, 2.0]), 1.0, m, med),
    lambda m, med: general_excitation_field(_excitation, 1.0, np.array([1.0, 2.0]), m, med),
    lambda m, med: transport_solution(np.array([0.1, 0.2]), 1.0, m, med),
    lambda m, med: transport_solution(0.1, np.array([1.0, 2.0]), m, med),
    lambda m, med: wavenumber(math.nan),
    lambda m, med: wavenumber(np.array([0.5, -math.inf])),
    lambda m, med: classical_doppler(1.0, math.nan),
    lambda m, med: classical_doppler(1.0, -math.inf),
], ids=["moving-frame-inf-eta", "moving-frame-nan-eta", "coords-nan-eta", "coords-nan-tau",
        "coords-inf-eta", "slow-nan-eta", "slow-nan-tau", "slow-inf-eta",
        "transport-nan-eta", "transport-inf-tau", "excitation-nan-eta",
        "coords-array-eta", "coords-array-tau", "excitation-array-eta",
        "excitation-array-tau", "solution-array-eta", "solution-array-tau", "wavenumber-nan",
        "wavenumber-minus-inf", "doppler-nan-beta", "doppler-minus-inf-beta"])
def test_non_finite_coordinate_rejected(call, medium):
    # Each of these returned NaN (or a meaningless number), or raised an
    # untyped TypeError for an array point, instead of a typed error.
    m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
    with pytest.raises(ArgumentOutOfRange) as excinfo:
        call(m, medium)
    assert excinfo.value.code == "ARG_OUT_OF_RANGE"
