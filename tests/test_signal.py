"""Receiver series, instantaneous frequency, and spectra."""

import math

import numpy as np
import pytest

from dopplerlab.errors import (
    AliasingSuspected,
    ArgumentOutOfRange,
    NotYetReached,
    ObserverInsideBoundary,
)
from dopplerlab.motion import boundary_position
from dopplerlab.oracle import exact_field, exact_instantaneous_frequency
from dopplerlab.asymptotics import fm_factor, leading_order_field
from dopplerlab.signal import (
    ReceiverSeries,
    instantaneous_frequency,
    parseval_mismatch,
    sample_on_grid,
    sample_receiver,
    spectrum,
)

from conftest import make_motion


class TestReceiverSeries:
    def test_quarter_period_samples(self, medium):
        m = make_motion("constant", beta=0.0, delta=0.0, eps=0.1)
        series = sample_receiver("asymptotic", m, medium, 0.0, 0.0,
                                 math.pi / 2.0, 4)
        want = np.array([1.0, 1.0j, -1.0, -1.0j])
        assert np.max(np.abs(series.values - want)) < 1e-12

    def test_oracle_source_unit_modulus(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        series = sample_receiver("oracle", m, medium, 5.0, 5.0, 0.25, 200)
        assert np.max(np.abs(np.abs(series.values) - 1.0)) < 1e-14

    def test_times_grid(self):
        series = ReceiverSeries(x=1.0, t0=2.0, dt=0.5,
                                values=np.ones(4, dtype=complex))
        assert np.allclose(series.times(), [2.0, 2.5, 3.0, 3.5])
        assert len(series) == 4

    def test_values_are_frozen(self):
        series = ReceiverSeries(x=0.0, t0=0.0, dt=1.0,
                                values=np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            series.values[0] = 2.0

    def test_bad_shapes_rejected(self):
        with pytest.raises(ArgumentOutOfRange):
            ReceiverSeries(x=0.0, t0=0.0, dt=0.0, values=np.ones(4, complex))
        with pytest.raises(ArgumentOutOfRange):
            ReceiverSeries(x=0.0, t0=0.0, dt=1.0, values=np.ones(1, complex))

    def test_window_before_arrival_rejected(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        with pytest.raises(NotYetReached):
            sample_receiver("asymptotic", m, medium, 5.0, 1.0, 0.1, 16)

    def test_boundary_overtakes_rejected(self, medium):
        m = make_motion("constant", beta=0.5, delta=0.0, eps=0.1)
        with pytest.raises(ObserverInsideBoundary):
            sample_receiver("asymptotic", m, medium, 2.0, 2.0, 0.5, 16)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    @pytest.mark.parametrize("source", ["asymptotic", "oracle"])
    def test_non_finite_sample_count_rejected(self, source, n, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        with pytest.raises(ArgumentOutOfRange) as excinfo:
            sample_receiver(source, m, medium, 5.0, 5.0, 0.25, n)
        assert excinfo.value.code == "ARG_OUT_OF_RANGE"


class TestOnePath:
    @pytest.mark.parametrize("profile,beta,delta", [("oscillatory", 0.1, 0.2),
                                                    ("decelerating", 0.0, -0.2)])
    def test_scalar_entry_points_match_grid(self, profile, beta, delta, medium):
        # Receivers ahead of the boundary (X_s(t) < 3.9) and inside the cone.
        m = make_motion(profile, beta=beta, delta=delta, eps=0.1)
        for x, t in ((6.0, 9.0), (10.0, 23.5), (12.0, 40.0)):
            for shift in (False, True):
                grid, _ = sample_on_grid("asymptotic", m, medium, x, [t], shift)
                assert leading_order_field(m, medium, x, t, shift).value == grid[0]
            grid, fm = sample_on_grid("oracle", m, medium, x, [t], with_fm=True)
            assert exact_field(m, medium, x, t) == grid[0]
            assert exact_instantaneous_frequency(m, medium, x, t) == medium.omega * fm[0]


    @pytest.mark.parametrize("source", ["asymptotic", "oracle"])
    def test_two_dimensional_grid_is_the_flat_grid_reshaped(self, source, medium):
        m = make_motion("oscillatory", beta=0.1, delta=0.2, eps=0.1)
        ts = np.linspace(6.0, 40.0, 6)
        flat, flat_fm = sample_on_grid(source, m, medium, 6.0, ts, True, with_fm=True)
        grid, fm = sample_on_grid(source, m, medium, 6.0, ts.reshape(2, 3), True,
                                  with_fm=True)
        assert grid.shape == fm.shape == (2, 3)
        np.testing.assert_array_equal(grid, flat.reshape(2, 3))
        np.testing.assert_array_equal(fm, flat_fm.reshape(2, 3))


class TestInstantaneousFrequency:
    def test_pure_tone(self):
        w0, dt = 0.7, 0.3
        ts = np.arange(64) * dt
        series = ReceiverSeries(x=0.0, t0=0.0, dt=dt,
                                values=np.exp(1j * w0 * ts))
        freqs = instantaneous_frequency(series)
        assert np.max(np.abs(freqs[1:-1] - w0)) < 1e-10 * w0

    def test_conjugate_negates(self):
        w0, dt = 0.9, 0.25
        ts = np.arange(32) * dt
        vals = np.exp(1j * w0 * ts)
        f_pos = instantaneous_frequency(
            ReceiverSeries(x=0.0, t0=0.0, dt=dt, values=vals))
        f_neg = instantaneous_frequency(
            ReceiverSeries(x=0.0, t0=0.0, dt=dt, values=np.conj(vals)))
        assert np.allclose(f_neg, -f_pos, atol=1e-12)

    def test_oracle_series_matches_exact_frequency(self, medium):
        # Second-order finite differences against the closed-form rate.
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        x, t0 = 5.0, 5.0

        def max_rel_err(dt, n):
            series = sample_receiver("oracle", m, medium, x, t0, dt, n)
            est = instantaneous_frequency(series)
            ts = series.times()
            exact = np.array([exact_instantaneous_frequency(m, medium, x, float(t))
                              for t in ts])
            return np.max(np.abs(est[1:-1] - exact[1:-1]) / exact[1:-1])

        err_coarse = max_rel_err(0.1, 200)
        err_fine = max_rel_err(0.05, 400)
        assert err_coarse == pytest.approx(6.5086e-6, rel=1e-3)
        ratio = err_coarse / err_fine
        assert 3.2 < ratio < 4.8  # h^2 convergence

    def test_boundary_launch_frequency(self, medium):
        # A fixed receiver whose first sample sits exactly on the boundary:
        # the one-sided estimate at that sample converges at second order to
        # omega * FM(t0).
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        t0 = math.pi / m.Omega  # boundary back at the origin
        assert boundary_position(m, t0) == pytest.approx(0.0, abs=1e-12)
        target = fm_factor(m, medium, t0)  # omega = 1

        def first_sample_err(dt):
            series = sample_receiver("asymptotic", m, medium, 0.0, t0, dt, 64,
                                     include_phase_shift=True)
            est = instantaneous_frequency(series)
            return abs(est[0] - target)

        errs = [first_sample_err(dt) for dt in (0.2, 0.1, 0.05)]
        assert errs[0] == pytest.approx(1.1113e-5, rel=1e-3)
        for a, b in zip(errs, errs[1:]):
            assert 3.2 < a / b < 4.8

    def test_aliasing_guard(self):
        dt = 3.0  # phase step 3.0 rad >= 0.95*pi
        ts = np.arange(16) * dt
        series = ReceiverSeries(x=0.0, t0=0.0, dt=dt, values=np.exp(1j * ts))
        with pytest.raises(AliasingSuspected):
            instantaneous_frequency(series)

    def test_peaks_match_thinning_loop_on_tied_spectra(self, monkeypatch, rng):
        # The spectrum once thinned its peaks to 2 bins apart; local maxima
        # are never adjacent, so the thinning never dropped one.  Small
        # integer magnitudes, planted as the DFT, tie often.
        def thinned(mags, centers):
            inner = mags[1:-1]
            candidates = 1 + np.flatnonzero((inner > 0.01 * float(np.max(mags)))
                                            & (inner > mags[:-2]) & (inner >= mags[2:]))
            candidates = candidates[np.argsort(-mags[candidates], kind="stable")]
            kept = []
            for k in candidates:
                if all(abs(k - j) >= 2 for j in kept):
                    kept.append(k)
            return [(float(centers[k]), float(mags[k])) for k in kept]

        planted = []
        monkeypatch.setattr(np.fft, "fft", lambda values: planted[-1])
        for _ in range(3000):
            n = int(rng.integers(8, 40))
            planted.append(rng.integers(0, int(rng.integers(1, 6)), size=n).astype(float))
            series = ReceiverSeries(x=0.0, t0=0.0, dt=0.5, values=np.ones(n, complex))
            centers = 2.0 * np.pi * np.fft.fftfreq(n, d=0.5)
            assert spectrum(series).peaks == thinned(planted[-1], centers)

    def test_too_short_rejected(self):
        series = ReceiverSeries(x=0.0, t0=0.0, dt=1.0,
                                values=np.ones(2, complex))
        with pytest.raises(ArgumentOutOfRange):
            instantaneous_frequency(series)


class TestSpectrum:
    def test_bin_aligned_tone_is_single_line(self):
        n, dt = 64, 0.5
        k0 = 7
        w0 = 2.0 * math.pi * k0 / (n * dt)
        ts = np.arange(n) * dt
        series = ReceiverSeries(x=0.0, t0=0.0, dt=dt, values=np.exp(1j * w0 * ts))
        spec = spectrum(series)
        mags = spec.magnitudes
        assert mags[k0] == pytest.approx(float(n), rel=1e-12)
        others = np.delete(mags, k0)
        assert np.max(others) < 1e-9 * mags[k0]
        assert len(spec.peaks) == 1
        assert spec.peaks[0][0] == pytest.approx(w0, rel=1e-12)

    def test_constant_velocity_dominant_peak(self, medium):
        m = make_motion("constant", beta=0.5, delta=0.0, eps=0.1)
        n, dt = 240, 0.2  # window ends before the boundary reaches x
        series = sample_receiver("oracle", m, medium, 60.0, 60.0, dt, n)
        spec = spectrum(series)
        assert spec.peaks, "expected at least one detected peak"
        top_freq = spec.peaks[0][0]
        assert abs(top_freq - 1.0 / 0.5) <= spec.bin_width

    def test_hann_window_suppresses_leakage(self):
        n, dt = 128, 0.4
        w0 = 2.0 * math.pi * 10.5 / (n * dt)  # deliberately off-bin
        ts = np.arange(n) * dt
        series = ReceiverSeries(x=0.0, t0=0.0, dt=dt, values=np.exp(1j * w0 * ts))
        rect = spectrum(series, "rectangular").magnitudes
        hann = spectrum(series, "hann").magnitudes
        # Remote-bin leakage must drop by orders of magnitude under hann.
        far = np.arange(n)[np.abs(np.arange(n) - 10) > 6]
        assert np.max(hann[far]) < 0.05 * np.max(rect[far])

    def test_peaks_sorted_and_separated(self, medium):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        n = 2048
        t_total = 5.0 * 2.0 * math.pi / m.Omega
        series = sample_receiver("oracle", m, medium, 5.0, 5.0, t_total / n, n)
        spec = spectrum(series)
        mags = [mag for _, mag in spec.peaks]
        assert mags == sorted(mags, reverse=True)
        idx = sorted(int(round(f / spec.bin_width)) % n for f, _ in spec.peaks)
        assert all(b - a >= 2 for a, b in zip(idx, idx[1:]))

    def test_peaks_match_loop_reference(self, medium, rng):
        # The per-bin loop that the vectorised peak picking replaced.
        def loop_peaks(series):
            n = len(series)
            mags = np.abs(np.fft.fft(series.values))
            centers = 2.0 * np.pi * np.fft.fftfreq(n, d=series.dt)
            threshold = 0.01 * float(np.max(mags))
            candidates = [k for k in range(1, n - 1)
                          if mags[k] > threshold and mags[k] > mags[k - 1]
                          and mags[k] >= mags[k + 1]]
            candidates.sort(key=lambda k: (-mags[k], k))
            kept = []
            for k in candidates:
                if all(abs(k - j) >= 2 for j in kept):
                    kept.append(k)
            return [(float(centers[k]), float(mags[k])) for k in kept]

        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        comb = sample_receiver("oracle", m, medium, 5.0, 5.0, 0.15, 2048)
        noise = ReceiverSeries(x=0.0, t0=0.0, dt=0.1,
                               values=rng.normal(size=512) + 1j * rng.normal(size=512))
        plateau = ReceiverSeries(x=0.0, t0=0.0, dt=1.0,
                                 values=np.fft.ifft([0, 3, 3, 1, 5, 5, 5, 0, 2, 0, 0, 4]))
        for series in (comb, noise, plateau):
            assert spectrum(series).peaks == loop_peaks(series)

    def test_too_short_rejected(self):
        series = ReceiverSeries(x=0.0, t0=0.0, dt=1.0,
                                values=np.ones(4, complex))
        with pytest.raises(ArgumentOutOfRange):
            spectrum(series)

    def test_unknown_window_rejected(self):
        series = ReceiverSeries(x=0.0, t0=0.0, dt=1.0,
                                values=np.ones(16, complex))
        with pytest.raises(ArgumentOutOfRange):
            spectrum(series, "blackman")


class TestParseval:
    def test_energy_identity(self, medium, rng):
        m = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        series = sample_receiver("oracle", m, medium, 5.0, 5.0, 0.3, 128)
        assert parseval_mismatch(series) < 1e-9

    def test_random_series(self, rng):
        vals = rng.normal(size=64) + 1j * rng.normal(size=64)
        series = ReceiverSeries(x=0.0, t0=0.0, dt=0.1, values=vals)
        assert parseval_mismatch(series) < 1e-9
