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
from dopplerlab.motion import MotionProfile, boundary_position

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
        assert slow_characteristic("minus", 0.0, 0.0, m, medium) == 0.0

    def test_classical_minus(self, medium):
        m = make_motion("constant", beta=0.0, delta=0.0, eps=0.1)
        assert slow_characteristic("minus", 0.5, 1.0, m, medium) == 1.5

    def test_classical_plus(self, medium):
        m = make_motion("constant", beta=0.0, delta=0.0, eps=0.1)
        assert slow_characteristic("plus", 0.5, 1.0, m, medium) == 0.5

    def test_unknown_family_rejected(self, medium):
        m = make_motion("constant", beta=0.0, delta=0.0, eps=0.1)
        with pytest.raises(ArgumentOutOfRange):
            slow_characteristic("sideways", 0.0, 0.0, m, medium)


    def test_supersonic_motion_rejected(self, medium):
        # delta = 1.2 reaches the wave speed; the label used to be computed
        # (0.4902) while transport_amplitude raised for the same motion.
        m = make_motion("oscillatory", beta=0.0, delta=1.2, eps=0.1)
        for call in (slow_characteristic, transport_amplitude):
            with pytest.raises(SupersonicMotion):
                call("minus", 0.5, 1.0, m, medium)

    @pytest.mark.parametrize("call", [slow_characteristic, transport_amplitude])
    def test_validates_once(self, call, medium, monkeypatch):
        calls = []
        real = characteristics_mod.validate

        def counted(motion, medium):
            calls.append(motion)
            return real(motion, medium)

        monkeypatch.setattr(characteristics_mod, "validate", counted)
        m = make_motion("oscillatory", beta=0.1, delta=0.3, eps=0.1)
        call("plus", 0.5, 1.0, m, medium)
        assert len(calls) == 1


class TestTransportAmplitude:
    def test_boundary_is_unity(self, medium):
        m = make_motion("oscillatory", beta=0.1, delta=0.3, eps=0.1)
        for family in ("plus", "minus"):
            for tau1 in (0.0, 0.7, 1.9):
                assert transport_amplitude(family, 0.0, tau1, m,
                                           medium) == pytest.approx(1.0, abs=1e-15)

    def test_no_acceleration_is_unity(self, medium):
        m = make_motion("constant", beta=0.4, delta=0.0, eps=0.1)
        grid = np.linspace(0.0, 2.0, 13)
        for family in ("plus", "minus"):
            vals = transport_amplitude(family, grid, 1.3, m, medium)
            assert np.all(np.asarray(vals) == 1.0)

    @pytest.mark.parametrize("profile,delta", [("oscillatory", 0.2),
                                               ("decelerating", -0.2)])
    def test_minus_family_equals_am_factor(self, medium, profile, delta):
        m = make_motion(profile, beta=0.0, delta=delta, eps=0.1)
        grid = np.linspace(0.0, 2.0, 100)
        eta1, tau1 = np.meshgrid(grid, grid, indexing="ij")
        env = np.asarray(transport_amplitude("minus", eta1, tau1, m, medium))
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
                env = transport_amplitude("minus", float(eta1), float(tau1),
                                          m, medium)
                t = tau1 / m.Omega
                x = boundary_position(m, t) + eta1 / m.Omega
                worst = max(worst, abs(env - am_factor(m, medium, x, t)))
        assert worst < 1e-10

    def test_solution_bundles_value_and_amplitude(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        sol = transport_solution("minus", 0.8, 1.1, m, medium)
        assert sol.family == "minus"
        assert sol.s_value == slow_characteristic("minus", 0.8, 1.1, m, medium)
        assert sol.amplitude == transport_amplitude("minus", 0.8, 1.1, m, medium)


class TestGeneralExcitation:
    @staticmethod
    def _gaussian_bump(arg):
        return np.exp(-0.5 * (arg - 6.0) ** 2) * np.exp(1j * arg)

    def test_classical_dalembert_split(self, medium):
        m = make_motion("constant", beta=0.0, delta=0.0, eps=0.1)
        f = self._gaussian_bump
        for eta, tau in ((0.5, 4.0), (2.0, 9.0)):
            got = general_excitation_field(f, eta, tau, m, medium)
            want = 0.5 * f(tau + eta) + 0.5 * f(tau - eta)
            assert abs(got - want) < 1e-14

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
        env = transport_amplitude("minus", coords.eta1, coords.tau1, m, medium)
        assert env == pytest.approx(am_factor(m, medium, x, t), abs=1e-12)

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
    lambda m, med: slow_characteristic("minus", math.nan, 1.0, m, med),
    lambda m, med: slow_characteristic("plus", 0.5, np.array([1.0, math.nan]), m, med),
    lambda m, med: slow_characteristic("minus", math.inf, 1.0, m, med),
    lambda m, med: transport_amplitude("minus", math.nan, 1.0, m, med),
    lambda m, med: transport_amplitude("plus", 0.5, math.inf, m, med),
    lambda m, med: general_excitation_field(_excitation, math.nan, 1.0, m, med),
    lambda m, med: wavenumber(math.nan),
    lambda m, med: wavenumber(np.array([0.5, -math.inf])),
    lambda m, med: classical_doppler(1.0, math.nan),
    lambda m, med: classical_doppler(1.0, -math.inf),
], ids=["moving-frame-inf-eta", "moving-frame-nan-eta", "coords-nan-eta", "coords-nan-tau",
        "coords-inf-eta", "slow-nan-eta", "slow-nan-tau", "slow-inf-eta",
        "transport-nan-eta", "transport-inf-tau", "excitation-nan-eta", "wavenumber-nan",
        "wavenumber-minus-inf", "doppler-nan-beta", "doppler-minus-inf-beta"])
def test_non_finite_coordinate_rejected(call, medium):
    # Each of these returned NaN (or a meaningless number) instead of raising.
    m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
    with pytest.raises(ArgumentOutOfRange) as excinfo:
        call(m, medium)
    assert excinfo.value.code == "ARG_OUT_OF_RANGE"
