"""Tests for the core DSP primitives against naive-summation oracles."""

import numpy as np
import pytest
from scipy.signal import lfilter

from voicing.dsp import (
    AudioBuffer,
    UnstableFilterError,
    all_pole_filter,
    cross_correlate,
    dft,
    inverse_odft,
    make_sqrt_shifted_hanning,
    odft,
    pole_radii,
    sine_window_spectrum,
    stabilize_all_pole,
    window_norms,
)


def naive_dft(x):
    """O(P^2) reference DFT."""
    x = np.asarray(x, dtype=np.float64)
    p = x.size
    n = np.arange(p)
    return np.array([np.sum(x * np.exp(-2j * np.pi * k * n / p)) for k in range(p)])


def naive_odft(x):
    """O(N^2) reference odd-frequency DFT."""
    x = np.asarray(x, dtype=np.float64)
    n_len = x.size
    n = np.arange(n_len)
    return np.array([np.sum(x * np.exp(-2j * np.pi * (k + 0.5) * n / n_len)) for k in range(n_len)])


class TestAudioBuffer:
    def test_basic(self):
        buf = AudioBuffer(np.zeros(10), 22050)
        assert len(buf) == 10
        assert buf.duration == pytest.approx(10 / 22050)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([0.0, np.nan]), 22050)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(4), 0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((2, 4)), 8000)


class TestWindow:
    def test_n4_closed_form(self):
        w = make_sqrt_shifted_hanning(4)
        expected = [np.sin(np.pi / 8), np.sin(3 * np.pi / 8), np.sin(5 * np.pi / 8), np.sin(7 * np.pi / 8)]
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-15)

    def test_power_complementarity_n1024(self):
        w = make_sqrt_shifted_hanning(1024)
        assert abs(w[0] ** 2 + w[512] ** 2 - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [4, 8, 64, 510, 1024])
    def test_power_complementarity_all_samples(self, n):
        w = make_sqrt_shifted_hanning(n)
        s = w[: n // 2] ** 2 + w[n // 2 :] ** 2
        np.testing.assert_allclose(s, 1.0, rtol=0, atol=1e-12)

    def test_energy_n8(self):
        # direct summation oracle: sum of w^2 over a full window is N/2
        w = make_sqrt_shifted_hanning(8)
        assert np.sum(w**2) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 2, 0, -4])
    def test_rejects_bad_length(self, n):
        with pytest.raises(ValueError):
            make_sqrt_shifted_hanning(n)


class TestDft:
    def test_impulse(self):
        np.testing.assert_allclose(dft([1.0, 0.0, 0.0, 0.0]), np.ones(4), atol=1e-12)

    def test_sine_bin1(self):
        x = np.sin(2 * np.pi * np.arange(8) / 8)
        spec = dft(x)
        assert spec[1] == pytest.approx(-4j, abs=1e-12)
        assert abs(spec[1]) == pytest.approx(4.0, abs=1e-12)
        assert np.angle(spec[1]) == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(16)
        np.testing.assert_allclose(dft(x), naive_dft(x), atol=1e-10)

    @pytest.mark.parametrize("p", [5, 12, 17, 31, 200])
    def test_matches_naive_oracle_arbitrary_length(self, p):
        rng = np.random.default_rng(p)
        x = rng.standard_normal(p)
        np.testing.assert_allclose(dft(x), naive_dft(x), atol=1e-9)

    def test_conjugate_symmetry_real_input(self):
        rng = np.random.default_rng(3)
        for p in (6, 7, 50, 128):
            x = rng.standard_normal(p)
            spec = dft(x)
            np.testing.assert_allclose(spec[1:], np.conj(spec[1:][::-1]), atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dft([])


class TestOdft:
    def test_impulse_flat(self):
        np.testing.assert_allclose(odft([1.0] + [0.0] * 7), np.ones(8), atol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(1024)
        err = np.max(np.abs(inverse_odft(odft(x)) - x))
        assert err <= 1e-10

    def test_half_integer_tone_concentration(self):
        # cos at bin 4.5 of a 16-point transform lands exactly on ODFT bin 4
        n = 16
        x = np.cos(2 * np.pi * 4.5 * np.arange(n) / n)
        spec = odft(x)
        oracle = naive_odft(x)
        np.testing.assert_allclose(spec, oracle, atol=1e-10)
        mags = np.abs(spec)
        assert np.argmax(mags[: n // 2]) == 4
        # all energy in bin 4 and its conjugate mirror
        others = np.delete(mags, [4, n - 1 - 4])
        assert np.all(others < 1e-9 * mags[4])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(32)
        np.testing.assert_allclose(odft(x), naive_odft(x), atol=1e-9)

    def test_conjugate_mirror_structure(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(64)
        spec = odft(x)
        np.testing.assert_allclose(spec, np.conj(spec[::-1]), atol=1e-10)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            odft(np.zeros(7))
        with pytest.raises(ValueError):
            inverse_odft(np.zeros(7, dtype=complex))

    def test_linearity(self):
        rng = np.random.default_rng(19)
        x, y = rng.standard_normal((2, 64))
        np.testing.assert_allclose(odft(2.5 * x - 1.5 * y), 2.5 * odft(x) - 1.5 * odft(y), atol=1e-9)


class TestSineWindowSpectrum:
    def test_matches_direct_summation(self):
        rng = np.random.default_rng(29)
        for n in (64, 1024):
            w = make_sqrt_shifted_hanning(n)
            idx = np.arange(n)
            # the kernel's singular points +-pi/n + 2 pi m: on-grid lines sit
            # on them, and the harmonic solve's negative images reach nu near 2 pi
            singular = [s * np.pi / n + 2 * np.pi * m for s in (-1, 1) for m in (-1, 0, 1)]
            for nu in np.concatenate([rng.uniform(-np.pi, np.pi, 16), [0.0, 2 * np.pi * 5 / n], singular]):
                direct = np.sum(w * np.exp(-1j * nu * idx))
                assert sine_window_spectrum(n, nu)[0] == pytest.approx(direct, abs=1e-9 * n)

    def test_peak_at_zero(self):
        n = 1024
        grid = np.linspace(-np.pi / 8, np.pi / 8, 1001)
        mags = np.abs(sine_window_spectrum(n, grid))
        assert abs(grid[np.argmax(mags)]) < 2 * (np.pi / 4) / 1000


class TestCrossCorrelate:
    def test_self_match_peak(self):
        rng = np.random.default_rng(31)
        signal = rng.standard_normal(400)
        template = signal[17:80].copy()
        r = cross_correlate(template, signal, (0, 299))
        assert r.size == 300
        assert np.argmax(r) == 17

    def test_periodic_maxima_near_multiples(self):
        # synthetic periodic signal oracle: maxima of the correlation of one
        # period against the signal sit at integer multiples of the period
        p = 50
        n = np.arange(6 * p)
        signal = np.sin(2 * np.pi * n / p) + 0.4 * np.sin(4 * np.pi * n / p + 0.9)
        template = signal[:p]
        r = cross_correlate(template, signal, (0, 3 * p - 1))
        interior = np.flatnonzero((r[1:-1] > r[:-2]) & (r[1:-1] > r[2:])) + 1
        assert any(abs(s - p) <= 1 for s in interior)
        assert any(abs(s - 2 * p) <= 1 for s in interior)

    def test_orthogonal_sinusoids(self):
        n = np.arange(128)
        a = np.sin(2 * np.pi * 4 * n / 128)
        b = np.sin(2 * np.pi * 8 * n / 128)
        r = cross_correlate(a, np.concatenate([b, b]), (0, 0))
        assert abs(r[0]) < 1e-9 * 128

    def test_out_of_range(self):
        for lags in [(0, 11), (-1, 5), (3, 2)]:  # past the end, before the start, empty
            with pytest.raises(ValueError):
                cross_correlate(np.ones(10), np.ones(20), lags)

    def test_normalized_bounds(self):
        rng = np.random.default_rng(37)
        signal = rng.standard_normal(500)
        template = signal[100:200].copy()
        r = cross_correlate(template, signal, (0, 399), normalized=True)
        assert np.max(r) <= 1.0 + 1e-12
        assert r[100] == pytest.approx(1.0, abs=1e-12)
        # any sub-range, down to a single lag, reads the full range's values
        raw = cross_correlate(template, signal, (0, 399))
        for first, last in [(3, 3), (100, 100), (17, 251), (250, 399), (0, 399)]:
            np.testing.assert_allclose(
                cross_correlate(template, signal, (first, last)), raw[first : last + 1], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                cross_correlate(template, signal, (first, last), normalized=True),
                r[first : last + 1],
                rtol=0,
                atol=1e-15,
            )

    def test_normalized_reads_only_the_shifted_windows(self):
        # samples outside [first, last + template length) take no part in
        # the result, not even in the window norms
        rng = np.random.default_rng(41)
        signal = rng.standard_normal(500)
        template = signal[100:200].copy()
        lags = (90, 220)
        clean = cross_correlate(template, signal, lags, normalized=True)
        poisoned = signal.copy()
        poisoned[:90] = np.nan
        poisoned[320:] = np.nan
        r = cross_correlate(template, poisoned, lags, normalized=True)
        assert np.all(np.isfinite(r)) and np.all(r != 0.0)
        np.testing.assert_allclose(r, clean, rtol=1e-12, atol=0)

    def test_silent_windows_read_zero(self):
        signal = np.concatenate([np.zeros(50), np.ones(50)])
        r = cross_correlate(np.ones(10), signal, (0, 90), normalized=True)
        np.testing.assert_array_equal(r[:41], 0.0)
        np.testing.assert_allclose(r[50:], 1.0, rtol=0, atol=1e-12)


class TestWindowNorms:
    @pytest.mark.parametrize("length", [5, 50, 110, 367])
    def test_matches_linalg_norm_of_each_window(self, length):
        # period-long windows of a tone, from the shortest period tracked
        # to a 60 Hz one
        n = np.arange(2000)
        f = 1.0 / (length + 0.3)
        signal = np.sin(2 * np.pi * f * n) + 0.5 * np.sin(4 * np.pi * f * n + 1.0)
        windows = np.lib.stride_tricks.sliding_window_view(signal, length)
        np.testing.assert_allclose(window_norms(signal, length), np.linalg.norm(windows, axis=1), rtol=1e-12, atol=0)

    def test_error_bounded_by_the_running_sum(self):
        # the norms are differences of one running sum of squares, so each
        # squared norm is exact to n * eps of the signal's energy, not of
        # its own: short noise windows, and windows 40 dB quieter than a
        # loud stretch before them, read worse than 1e-12 relative
        rng = np.random.default_rng(43)
        noise = rng.standard_normal(600)
        for signal in (noise, np.concatenate([100.0 * noise[:300], noise[300:]])):
            bound = signal.size * np.finfo(float).eps * np.sum(signal**2)
            for length in (2, 7, 100, 300):
                exact = np.linalg.norm(np.lib.stride_tricks.sliding_window_view(signal, length), axis=1)
                np.testing.assert_allclose(window_norms(signal, length) ** 2, exact**2, rtol=0, atol=bound)


    @pytest.mark.parametrize("db", [60, 100, 140])
    def test_quiet_tail_after_loud_noise(self, db):
        # a template cut from a tail far below 20,000 samples of unit noise
        # matches itself at 1, as a cosine similarity must; the one running
        # sum read 0.99999992, 1.00102 and 0.0 there
        rng = np.random.default_rng(59)
        signal = np.concatenate([rng.standard_normal(20000), 10 ** (-db / 20) * rng.standard_normal(1000)])
        start = 20400
        r = cross_correlate(signal[start : start + 100], signal, (0, signal.size - 100), normalized=True)
        assert abs(r[start] - 1.0) <= 1e-9
        assert r.max() <= 1.0 + 1e-12  # above 1 by rounding at most

    def test_norms_outside_a_quiet_run_keep_the_running_sum(self):
        # only the windows far under the running sum are summed again
        rng = np.random.default_rng(61)
        signal = np.concatenate([rng.standard_normal(20000), 1e-5 * rng.standard_normal(1000), rng.standard_normal(3000)])
        length = 100
        sq = np.concatenate([[0.0], np.cumsum(signal**2)])
        running = np.sqrt(sq[length:] - sq[:-length])
        got = window_norms(signal, length)
        quiet = slice(20000, 20901)
        np.testing.assert_array_equal(np.delete(got, np.r_[quiet]), np.delete(running, np.r_[quiet]))
        exact = np.linalg.norm(np.lib.stride_tricks.sliding_window_view(signal, length), axis=1)
        np.testing.assert_allclose(got[quiet], exact[quiet], rtol=1e-12, atol=0)


class TestAllPoleFilter:
    def test_order_zero_is_gain(self):
        x = np.arange(6, dtype=float)
        np.testing.assert_allclose(all_pole_filter(x, [], gain=2.0), 2.0 * x)

    def test_single_pole_geometric_impulse_response(self):
        x = np.zeros(8)
        x[0] = 1.0
        y = all_pole_filter(x, [0.5])
        np.testing.assert_allclose(y, 0.5 ** np.arange(8), atol=1e-12)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableFilterError):
            all_pole_filter(np.ones(4), [1.5])

    def test_marginal_pole_rejected(self):
        with pytest.raises(UnstableFilterError):
            all_pole_filter(np.ones(4), [1.0])  # pole on the unit circle

    def test_poles_not_closed_under_conjugation_rejected(self):
        with pytest.raises(ValueError):
            all_pole_filter(np.ones(4), [0.5 + 0.3j])
        with pytest.raises(ValueError):
            all_pole_filter(np.ones(4), [0.5 + 0.3j, 0.5 - 0.2j])

    def test_sections_match_direct_form(self):
        # conjugate pairs, an even and an odd number of real poles
        rng = np.random.default_rng(3)
        x = rng.standard_normal(300)
        pair = 0.9 * np.exp(1j * 0.7)
        for reals in ([], [0.6, -0.4], [0.6, -0.4, 0.2]):
            poles = [pair, np.conj(pair)] + reals
            expected = lfilter([0.7], np.real(np.poly(poles)), x)
            np.testing.assert_allclose(all_pole_filter(x, poles, 0.7), expected, rtol=1e-10, atol=1e-12)

    def test_noise_spectrum_matches_response(self):
        # periodogram-average oracle: long white-noise run through an
        # order-12 model must show the model's magnitude response
        rng = np.random.default_rng(41)
        poles = np.array(
            [0.95 * np.exp(1j * 0.3), 0.9 * np.exp(1j * 1.1), 0.85 * np.exp(1j * 2.0)]
        )
        poles = np.concatenate([poles, np.conj(poles), [0.7, -0.6, 0.5, -0.4, 0.3, -0.2]])
        a = np.real(np.poly(poles))[1:]
        gain = 1.0
        n_fft = 4096
        n_seg = 400
        x = rng.standard_normal(n_fft * n_seg)
        y = all_pole_filter(x, poles, gain)
        segs = y[: n_fft * n_seg].reshape(n_seg, n_fft) * np.hanning(n_fft)
        psd = np.mean(np.abs(np.fft.rfft(segs, axis=1)) ** 2, axis=0) / n_fft
        omega = np.pi * np.arange(n_fft // 2 + 1) / (n_fft // 2)
        # evaluate 1 + sum a_i e^{-j w i} directly
        acc = np.ones_like(omega, dtype=complex)
        for i, ai in enumerate(a, start=1):
            acc += ai * np.exp(-1j * omega * i)
        model_db = 20 * np.log10(gain / np.abs(acc))
        meas_db = 10 * np.log10(psd)
        # compare band averages (~3 harmonics wide at 110 Hz / 22050 Hz scale)
        width = n_fft // 64
        diffs = []
        for lo in range(width, len(omega) - width, width):
            diffs.append(np.mean(meas_db[lo : lo + width]) - np.mean(model_db[lo : lo + width]))
        diffs = np.array(diffs)
        diffs -= np.mean(diffs)  # overall level set by noise variance
        assert np.max(np.abs(diffs)) < 1.0

    def test_stabilize_all_pole(self):
        a = np.real(np.poly([1.05, 0.5]))[1:]
        assert pole_radii(a).max() > 1.0
        fixed = stabilize_all_pole(a, max_radius=0.995)
        assert pole_radii(fixed).max() <= 0.995 + 1e-9
        # stable sets come back unchanged
        a_ok = np.real(np.poly([0.5, -0.3]))[1:]
        np.testing.assert_allclose(stabilize_all_pole(a_ok), a_ok)
