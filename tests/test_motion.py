"""Trajectory profiles, boundary kinematics, and parameter validation."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import dopplerlab.config as config_mod
import dopplerlab.motion as motion_mod
from dopplerlab.asymptotics import am_factor, lab_phase, leading_order_field
from dopplerlab.errors import (
    ArgumentOutOfRange,
    InvalidNormalization,
    ProfileEvaluationError,
    SupersonicMotion,
)
from dopplerlab.motion import (
    NORMALIZATION_SAMPLES,
    BoundaryMotion,
    DimensionlessGroup,
    MediumParams,
    MotionProfile,
    boundary_position,
    boundary_velocity,
    validate,
)
from dopplerlab.oracle import retarded_time
from dopplerlab.signal import sample_receiver

from conftest import make_motion


class TestProfileEval:
    def test_decelerating_at_zero(self):
        a, ap, app = MotionProfile.decelerating().eval(0.0)
        assert (a, ap, app) == (0.0, 1.0, -1.0)

    def test_oscillatory_at_pi(self):
        a, ap, app = MotionProfile.oscillatory().eval(math.pi)
        assert a == pytest.approx(0.0, abs=1e-15)
        assert ap == pytest.approx(-1.0, abs=1e-15)
        assert app == pytest.approx(0.0, abs=1e-15)

    def test_constant_anywhere(self):
        assert MotionProfile.constant().eval(5.0) == (0.0, 0.0, 0.0)

    def test_vectorized_matches_scalar(self):
        prof = MotionProfile.oscillatory()
        args = np.linspace(0.0, 12.0, 25)
        a, ap, app = prof.eval(args)
        for i, u in enumerate(args):
            sa, sap, sapp = prof.eval(float(u))
            assert a[i] == sa and ap[i] == sap and app[i] == sapp

    def test_negative_argument_rejected(self):
        with pytest.raises(ArgumentOutOfRange):
            MotionProfile.decelerating().eval(-0.5)

    def test_negative_argument_message_names_the_most_negative(self):
        args = np.linspace(0.0, 10.0, 10**4)
        args[[17, 5000, 9000]] = (-1e-3, -0.25, -2e-16)
        with pytest.raises(ArgumentOutOfRange) as excinfo:
            MotionProfile.oscillatory().eval(args)
        message = str(excinfo.value)
        assert "got -0.25 " in message
        assert len(message) < 100

    def test_nan_and_empty_pass_the_sign_gate(self):
        a, ap = MotionProfile.oscillatory().eval(np.array([np.nan, -0.0, 1.0]), order=(0, 1))
        assert np.isnan(a[0]) and np.isnan(ap[0]) and ap[1] == 1.0
        assert math.isnan(MotionProfile.decelerating().eval(math.nan, order=(1,))[0])
        for empty in (np.empty(0), np.empty((3, 0))):
            values = MotionProfile.oscillatory().eval(empty)
            assert [v.shape for v in values] == [empty.shape] * 3

    @pytest.mark.parametrize("order", [(0,), (1,), (2,), (0, 1), (0, 2), (2, 1)])
    @pytest.mark.parametrize("kind", ["constant", "decelerating", "oscillatory", "custom"])
    def test_order_selects_derivatives(self, kind, order):
        prof = _sine_twin() if kind == "custom" else getattr(MotionProfile, kind)()
        for args in (2.5, np.linspace(0.0, 12.0, 7)):
            full = prof.eval(args)
            got = prof.eval(args, order=order)
            assert len(got) == len(order)
            for k, value in zip(order, got):
                assert type(value) is type(full[k])
                assert np.asarray(value).tobytes() == np.asarray(full[k]).tobytes()


class TestCustomProfile:
    def test_normalized_custom_accepted(self):
        # alpha = 1 - cos(u): alpha(0)=0 and max |alpha'| = max |sin| = 1.
        prof = MotionProfile.custom(
            lambda u: 1.0 - math.cos(u),
            lambda u: math.sin(u),
            lambda u: math.cos(u),
            horizon=4.0 * math.pi,
        )
        a, ap, app = prof.eval(0.0)
        assert (a, ap, app) == (0.0, 0.0, 1.0)

    def test_unnormalized_slope_rejected(self):
        with pytest.raises(InvalidNormalization):
            MotionProfile.custom(
                lambda u: 2.0 * math.sin(u),
                lambda u: 2.0 * math.cos(u),
                lambda u: -2.0 * math.sin(u),
                horizon=2.0 * math.pi,
            )

    def test_nonzero_origin_rejected(self):
        with pytest.raises(InvalidNormalization):
            MotionProfile.custom(
                lambda u: 1.0 + u, lambda u: 1.0, lambda u: 0.0, horizon=1.0)

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_nan_slope_rejected(self, scale):
        # NaN on [3, 3.001) hits at least one of the 10^4 samples on [0, 2 pi].
        def alpha_prime(u):
            return math.nan if 3.0 <= u < 3.001 else scale * math.cos(u)

        with pytest.raises(InvalidNormalization):
            MotionProfile.custom(
                lambda u: scale * math.sin(u), alpha_prime,
                lambda u: -scale * math.sin(u), horizon=2.0 * math.pi)

    def test_raising_callable_wrapped(self):
        def alpha(u):
            if u > 7.0:
                raise ValueError("boom")
            return math.sin(u)

        prof = MotionProfile.custom(
            alpha, math.cos, lambda u: -math.sin(u), horizon=2.0 * math.pi)
        with pytest.raises(ProfileEvaluationError) as excinfo:
            prof.eval(7.5)
        assert excinfo.value.argument == 7.5

    @pytest.mark.parametrize("call", [
        lambda m, med: sample_receiver("asymptotic", m, med, 5.0, 6.0, 0.1, 4),
        lambda m, med: sample_receiver("oracle", m, med, 5.0, 6.0, 0.1, 4),
        lambda m, med: retarded_time(m, med, 5.0, 6.0),
        lambda m, med: am_factor(m, med, 5.0, 6.0),
        lambda m, med: lab_phase(m, med, 5.0, 6.0, False),
        lambda m, med: boundary_position(m, 6.0),
        lambda m, med: leading_order_field(m, med, 5.0, 6.0),
    ], ids=["sample-asymptotic", "sample-oracle", "retarded_time", "am_factor",
            "lab_phase", "boundary_position", "leading_order_field"])
    def test_non_finite_value_rejected(self, medium, call):
        # Construction samples only alpha', so an alpha that is NaN past 0
        # gets that far; the first evaluation past 0 must refuse it.
        prof = MotionProfile.custom(lambda u: 0.0 if u == 0.0 else math.nan, math.cos,
                                    lambda u: -math.sin(u), horizon=10.0)
        with pytest.raises(ProfileEvaluationError) as excinfo:
            call(make_motion(prof, beta=0.0, delta=0.2, eps=0.1), medium)
        assert excinfo.value.argument > 0.0

    def test_first_non_finite_argument_named(self):
        prof = _sine_twin(alpha_pprime=lambda u: math.inf if u >= 2.0 else math.cos(u))
        with pytest.raises(ProfileEvaluationError) as excinfo:
            prof.eval(np.array([[1.0, 2.5], [3.0, 0.5]]))
        assert excinfo.value.argument == 2.5

    def test_only_requested_values_checked(self):
        # alpha'' is infinite from 2 on, but a caller that asks for alpha
        # and alpha' never calls it.
        prof = _sine_twin(alpha_pprime=lambda u: math.inf if u >= 2.0 else math.cos(u))
        alpha, ap = prof.eval(np.arange(4.0), order=(0, 1))
        assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(ap))
        with pytest.raises(ProfileEvaluationError):
            prof.eval(np.arange(4.0), order=(2,))


def _sine_twin(alpha=lambda u: 1.0 - math.cos(u), alpha_prime=math.sin,
               alpha_pprime=math.cos, horizon=4.0 * math.pi):
    return MotionProfile.custom(alpha, alpha_prime, alpha_pprime, horizon=horizon)


def _fails_from(start, f):
    def call(u):
        if u >= start:
            raise ValueError(f"fails from {start}")
        return f(u)
    return call


class TestCustomArrayEvaluation:
    @pytest.mark.parametrize("shape", [(), (7,), (3, 4), (0,), (2, 0)])
    def test_array_bit_identical_to_pointwise(self, shape):
        prof = _sine_twin()
        args = np.random.default_rng(3).uniform(0.0, 12.0, size=shape)
        got = prof.eval(args)
        want = np.array([prof.eval(float(u)) for u in np.ravel(args)]).reshape(-1, 3)
        for k in range(3):
            assert np.shape(got[k]) == np.shape(args)
            assert np.asarray(got[k]).tobytes() == want[:, k].tobytes()

    def test_construction_samples_only_alpha_prime(self):
        calls = Counter()

        def counted(name, f):
            def call(u):
                calls[name] += 1
                return f(u)
            return call

        _sine_twin(counted("alpha", lambda u: 1.0 - math.cos(u)),
                   counted("alpha'", math.sin), counted("alpha''", math.cos))
        assert calls == {"alpha": 1, "alpha'": NORMALIZATION_SAMPLES + 1, "alpha''": 1}

    def test_first_failing_point_named(self):
        # alpha' fails from u = 3 and alpha from u = 5: the array pass meets
        # alpha's failure first, but the first failing point is 3.
        prof = _sine_twin(_fails_from(5.0, lambda u: 1.0 - math.cos(u)),
                          _fails_from(3.0, math.sin), horizon=2.0)
        with pytest.raises(ProfileEvaluationError) as excinfo:
            prof.eval(np.arange(8.0).reshape(2, 4))
        assert excinfo.value.argument == 3.0

    def test_non_float_result_named(self):
        prof = _sine_twin(alpha_pprime=lambda u: "abc" if u >= 4.0 else math.cos(u))
        with pytest.raises(ProfileEvaluationError) as excinfo:
            prof.eval(np.arange(8.0))
        assert excinfo.value.argument == 4.0
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_failure_not_reproduced_pointwise(self):
        armed = []

        def flaky(u):
            if armed:
                armed.pop()
                raise ValueError("first call only")
            return 1.0 - math.cos(u)

        prof = _sine_twin(flaky)
        armed.append(True)
        with pytest.raises(ProfileEvaluationError) as excinfo:
            prof.eval(np.arange(8.0))
        assert excinfo.value.argument is None
        assert str(excinfo.value.__cause__) == "first call only"

    @pytest.mark.parametrize("layout", ["flat", "2-D", "transposed"])
    def test_callables_receive_python_floats_in_ravel_order(self, layout):
        # 2,500 points cross the boundaries of the 1,024-point slices.
        seen = []

        def recorded(u):
            seen.append(u)
            return math.sin(u)

        prof = _sine_twin(alpha_prime=recorded)
        args = np.random.default_rng(5).uniform(0.0, 12.0, size=2500)
        args = {"flat": args, "2-D": args.reshape(50, 50),
                "transposed": args.reshape(25, 100).T}[layout]
        seen.clear()
        ap, = prof.eval(args, order=(1,))
        assert all(type(u) is float for u in seen)
        assert np.array_equal(np.array(seen), args.ravel())
        assert ap.tobytes() == np.array([math.sin(u) for u in args.ravel()]).tobytes()

    def test_failure_past_the_first_slice_named(self):
        args = np.linspace(0.0, 12.0, 2500).reshape(50, 50)
        first = float(args.ravel()[2100])
        prof = _sine_twin(_fails_from(float(args.ravel()[2300]), lambda u: 1.0 - math.cos(u)),
                          _fails_from(first, math.sin), horizon=2.0)
        with pytest.raises(ProfileEvaluationError) as excinfo:
            prof.eval(args)
        assert excinfo.value.argument == first

    def test_alpha_prime_failure_at_construction_named(self):
        with pytest.raises(ProfileEvaluationError) as excinfo:
            _sine_twin(alpha_prime=_fails_from(1.0, math.sin))
        grid = np.linspace(0.0, 4.0 * math.pi, NORMALIZATION_SAMPLES)
        assert excinfo.value.argument == float(grid[grid >= 1.0][0])


class TestBoundaryKinematics:
    def test_oscillatory_position_vanishes_at_pi(self):
        m = BoundaryMotion(v=0.0, a=1.0, Omega=1.0,
                           profile=MotionProfile.oscillatory())
        assert boundary_position(m, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_pure_translation(self):
        m = BoundaryMotion(v=1.0, a=0.0, Omega=1.0,
                           profile=MotionProfile.constant())
        assert boundary_position(m, 2.0) == 2.0

    def test_decelerating_position_saturates(self):
        m = BoundaryMotion(v=0.0, a=1.0, Omega=1.0,
                           profile=MotionProfile.decelerating())
        assert boundary_position(m, 40.0) == pytest.approx(1.0, abs=1e-12)

    def test_oscillatory_velocity_at_zero(self):
        m = BoundaryMotion(v=0.0, a=1.0, Omega=1.0,
                           profile=MotionProfile.oscillatory())
        assert boundary_velocity(m, 0.0) == 1.0

    def test_constant_velocity(self):
        m = BoundaryMotion(v=0.7, a=0.0, Omega=1.0,
                           profile=MotionProfile.constant())
        ts = np.linspace(0.0, 9.0, 7)
        assert np.all(np.asarray(boundary_velocity(m, ts)) == 0.7)

    def test_decelerating_velocity_decays(self):
        m = BoundaryMotion(v=0.0, a=1.0, Omega=1.0,
                           profile=MotionProfile.decelerating())
        assert boundary_velocity(m, 40.0) == pytest.approx(0.0, abs=1e-12)

    def test_negative_time_rejected(self):
        m = BoundaryMotion(v=0.0, a=1.0, Omega=1.0,
                           profile=MotionProfile.oscillatory())
        with pytest.raises(ArgumentOutOfRange):
            boundary_position(m, -1.0)


class TestValidate:
    def test_supersonic_mean_motion_rejected(self, medium):
        with pytest.raises(SupersonicMotion):
            validate(make_motion("decelerating", beta=0.5, delta=0.6, eps=0.1),
                     medium)

    def test_oscillatory_reference_parameters(self, medium):
        group = validate(make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1),
                         medium)
        assert group == DimensionlessGroup(0.0, 0.2, 0.1)

    def test_decelerating_reference_parameters(self, medium):
        group = validate(make_motion("decelerating", beta=0.0, delta=-0.2, eps=0.1),
                         medium)
        assert group.beta == 0.0
        assert group.delta == pytest.approx(-0.2, rel=1e-15)
        assert group.eps == pytest.approx(0.1, rel=1e-15)

    def test_instantaneous_supersonic_oscillation_rejected(self, medium):
        # Mean motion is fine but beta + delta reaches 1 on the peaks.
        with pytest.raises(SupersonicMotion):
            validate(make_motion("oscillatory", beta=0.6, delta=0.5, eps=0.1),
                     medium)

    def test_fast_oscillation_rejected(self, medium):
        with pytest.raises(ArgumentOutOfRange):
            validate(make_motion("oscillatory", beta=0.0, delta=0.2, eps=1.5),
                     medium)

    @pytest.mark.parametrize("name,value", [("v", math.nan), ("a", math.nan),
                                            ("a", -math.inf)])
    def test_non_finite_motion_rejected(self, name, value, medium):
        # NaN fails every comparison, and a constant profile never looks at
        # delta's size, so the subsonic checks alone let these through.
        m = replace(make_motion("constant", beta=0.1, delta=0.0, eps=0.1), **{name: value})
        with pytest.raises(ArgumentOutOfRange):
            validate(m, medium)

    def test_moderate_eps_warns(self, medium):
        with pytest.warns(UserWarning):
            validate(make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.5),
                     medium)

    def test_custom_profile_sampled_supersonic(self, medium):
        prof = MotionProfile.custom(
            lambda u: 1.0 - math.cos(u),
            lambda u: math.sin(u),
            lambda u: math.cos(u),
            horizon=4.0 * math.pi,
        )
        with pytest.raises(SupersonicMotion):
            validate(make_motion(prof, beta=0.3, delta=0.8, eps=0.1), medium)
        group = validate(make_motion(prof, beta=0.1, delta=0.3, eps=0.1), medium)
        assert group.beta == pytest.approx(0.1)


class TestConstruction:
    def test_medium_requires_positive_parameters(self):
        with pytest.raises(ArgumentOutOfRange):
            MediumParams(omega=0.0, c=1.0)
        with pytest.raises(ArgumentOutOfRange):
            MediumParams(omega=1.0, c=-2.0)

    @pytest.mark.parametrize("omega,c", [
        (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)])
    def test_medium_requires_finite_parameters(self, omega, c):
        # An infinite omega used to be accepted, and exact_field then
        # returned nan+nanj.
        with pytest.raises(ArgumentOutOfRange) as excinfo:
            MediumParams(omega=omega, c=c)
        assert excinfo.value.code == "ARG_OUT_OF_RANGE"

    def test_unknown_profile_kind_rejected(self):
        with pytest.raises(ArgumentOutOfRange, match="unknown profile kind 'bogus'"):
            MotionProfile(kind="bogus")

    def test_custom_kind_needs_the_custom_constructor(self):
        # Built directly, the callables would skip custom()'s normalization.
        with pytest.raises(ArgumentOutOfRange, match=r"MotionProfile\.custom\(\)"):
            MotionProfile(kind="custom", alpha=math.sin, alpha_prime=math.cos,
                          alpha_pprime=lambda u: -math.sin(u), horizon=1.0)

    @pytest.mark.parametrize("kind", motion_mod.PROFILES)
    def test_builtin_kind_refuses_custom_fields(self, kind):
        with pytest.raises(ArgumentOutOfRange, match="takes no callables"):
            MotionProfile(kind=kind, alpha=math.sin)
        with pytest.raises(ArgumentOutOfRange, match="takes no callables"):
            MotionProfile(kind=kind, horizon=5.0)

    @pytest.mark.parametrize("alpha_pprime", [lambda u: math.nan, None],
                             ids=["non-finite", "not-callable"])
    def test_custom_checks_every_callable_at_zero_first(self, alpha_pprime):
        with pytest.raises(ProfileEvaluationError) as excinfo:
            MotionProfile.custom(math.sin, math.cos, alpha_pprime, horizon=1.0)
        assert excinfo.value.argument == 0.0

    def test_config_takes_the_kinds_from_motion(self):
        assert config_mod.PROFILES is motion_mod.PROFILES
        for kind in motion_mod.PROFILES:
            assert getattr(MotionProfile, kind)().kind == kind

    def test_motion_requires_positive_rate(self):
        with pytest.raises(ArgumentOutOfRange):
            BoundaryMotion(v=0.0, a=1.0, Omega=0.0,
                           profile=MotionProfile.constant())
