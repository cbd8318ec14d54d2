"""Tests for phase-based pitch-period segmentation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voicing.analysis import wrap_cycles
from voicing.dsp import AudioBuffer
from voicing.segmentation import (
    PeriodTrack,
    SeedRegion,
    SegmentationLost,
    _local_maxima,
    align_onset,
    auto_seed,
    extract_period_params,
    harmonic_count,
    refine_period,
    segment_track,
)

RATE = 22050


def harmonic_wave(f0, amps, nrd, n_samples, rate=RATE, phi0=0.0):
    n = np.arange(n_samples)
    omega0 = 2 * np.pi * f0 / rate
    x = np.zeros(n_samples)
    for ell, (a, d) in enumerate(zip(amps, nrd)):
        x += a * np.sin((ell + 1) * omega0 * n + 2 * np.pi * d + (ell + 1) * phi0)
    return x


def loop_local_maxima(values):
    """Strict local maxima by a plateau-walking loop, the midpoint of each
    flat maximum: the reference for `_local_maxima`."""
    out = []
    n = values.size
    i = 1
    while i < n - 1:
        if values[i] > values[i - 1]:
            j = i
            while j + 1 < n and values[j + 1] == values[i]:
                j += 1
            if j < n - 1 and values[j + 1] < values[i]:
                out.append((i + j) // 2)
            i = j + 1
        else:
            i += 1
    return out


class TestHarmonicCount:
    def test_even_small(self):
        assert harmonic_count(6) == 2  # usable bins 1..2

    def test_odd_small(self):
        assert harmonic_count(5) == 2

    def test_large(self):
        assert harmonic_count(200) == 99

    def test_too_small(self):
        with pytest.raises(ValueError):
            harmonic_count(4)


class TestSeedRegion:
    def test_valid(self):
        assert SeedRegion(100, 300).period == 200

    def test_invalid(self):
        with pytest.raises(ValueError):
            SeedRegion(10, 10)
        with pytest.raises(ValueError):
            SeedRegion(-1, 100)
        with pytest.raises(ValueError):
            SeedRegion(0, 4)


class TestLocalMaxima:
    @given(values=st.lists(st.integers(0, 3), max_size=40))
    @example(values=[0, 2, 2, 2, 2, 1, 3, 3, 0, 3, 3])  # maxima at 2 and 6, none at the end
    def test_matches_the_plateau_loop(self, values):
        values = np.asarray(values, dtype=np.float64)
        assert _local_maxima(values) == loop_local_maxima(values)


class TestRefinePeriod:
    def test_pure_110hz(self):
        # true period 22050 / 110 = 200.4545...
        x = np.sin(2 * np.pi * 110.0 * np.arange(RATE) / RATE)
        p = refine_period(AudioBuffer(x, RATE), 0, 210)
        assert p in (200, 201)

    def test_exact_periodic_recovers_from_bad_guess(self):
        rng = np.random.default_rng(2)
        one = rng.standard_normal(160)
        one -= one.mean()
        x = np.tile(one, 30)
        p = refine_period(AudioBuffer(x, RATE), 0, 150)
        assert p == 160

    def test_white_noise_lost(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4000)
        with pytest.raises(SegmentationLost):
            refine_period(AudioBuffer(x, RATE), 0, 200)

    def test_dc_lost(self):
        x = np.ones(4000) * 0.3
        with pytest.raises(SegmentationLost):
            refine_period(AudioBuffer(x, RATE), 0, 200)

    def test_out_of_range(self):
        x = np.sin(2 * np.pi * np.arange(500) / 100)
        with pytest.raises(ValueError):
            refine_period(AudioBuffer(x, RATE), 200, 200)


class TestAlignOnset:
    def test_known_onset_sine(self):
        x = np.sin(2 * np.pi * np.arange(2000) / 100.0)
        s, aligned = align_onset(AudioBuffer(x, RATE), 125, 100)
        assert s == -25
        assert aligned == 100
        spec = np.fft.fft(x[aligned : aligned + 100])
        assert abs(np.angle(spec[1]) + np.pi / 2) <= 1e-9

    def test_phase_crossing_oracle(self):
        # analytic oracle: phase 2*pi*n/100 + pi/3 crosses zero (mod 2pi)
        # nearest to integer n = -17 (residual 0.021 rad vs 0.042 at -16)
        x = np.sin(2 * np.pi * np.arange(2000) / 100.0 + np.pi / 3)
        s, aligned = align_onset(AudioBuffer(x, RATE), 60, 100)
        phase_at = (2 * np.pi * aligned / 100.0 + np.pi / 3) % (2 * np.pi)
        phase_at = min(phase_at, 2 * np.pi - phase_at)
        assert phase_at <= np.pi / 100.0 + 1e-9
        assert (60 + s) == aligned

    def test_harmonic_rich_random_offset(self):
        rng = np.random.default_rng(6)
        amps = [1.0, 0.6, 0.4, 0.25, 0.15]
        x = harmonic_wave(110.25, amps, np.zeros(5), RATE, phi0=rng.uniform(0, 2 * np.pi))
        p = 200
        for start in rng.integers(p, 8000, 4):
            _, aligned = align_onset(AudioBuffer(x, RATE), int(start), p)
            spec = np.fft.fft(x[aligned : aligned + p])
            resid = abs((np.angle(spec[1]) + np.pi / 2 + np.pi) % (2 * np.pi) - np.pi)
            assert resid <= 2 * np.pi / p

    def test_out_of_bounds(self):
        x = np.sin(2 * np.pi * np.arange(300) / 100.0)
        with pytest.raises(ValueError):
            align_onset(AudioBuffer(x, RATE), 10, 100)

    def test_matches_a_dft_of_every_window(self):
        # brute force: the FFT of each candidate window, the least phase
        # residual, ties to the smallest |S|
        rng = np.random.default_rng(8)
        for p in range(5, 401):
            x = rng.standard_normal(3 * p)
            shifts = np.arange(-(p // 2), p // 2 + 1)
            windows = x[p + shifts[:, None] + np.arange(p)[None, :]]
            err = np.angle(np.fft.fft(windows, axis=1)[:, 1]) + np.pi / 2
            residual = np.abs((err + np.pi) % (2 * np.pi) - np.pi)
            s = int(shifts[np.lexsort((np.abs(shifts), residual))[0]])
            assert align_onset(AudioBuffer(x, RATE), p, p) == (s, p + s)


class TestExtractPeriodParams:
    def test_single_harmonic(self):
        x = np.sin(2 * np.pi * np.arange(640) / 64.0)
        period = extract_period_params(AudioBuffer(x, RATE), 0, 64)
        assert period.magnitudes[0] == pytest.approx(1.0, abs=1e-9)
        assert period.phases[0] == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(period.nrd, 0.0, atol=1e-9)
        assert period.f0 == pytest.approx(RATE / 64.0)

    def test_two_harmonics_known_nrd(self):
        p = 80
        n = np.arange(800)
        x = np.sin(2 * np.pi * n / p) + np.sin(2 * np.pi * 2 * n / p + np.pi / 2)
        period = extract_period_params(AudioBuffer(x, RATE), 0, p)
        np.testing.assert_allclose(period.nrd[:2], [0.0, 0.25], atol=1e-9)

    def test_amplitudes_recovered(self):
        p = 120
        amps = [1.0, 0.5, 0.25]
        x = harmonic_wave(RATE / p, amps, np.zeros(3), 1200)
        period = extract_period_params(AudioBuffer(x, RATE), 0, p)
        np.testing.assert_allclose(period.magnitudes[:3], amps, atol=1e-9)


class TestSegmentTrack:
    def test_sustained_110hz_staircase(self):
        amps = [1.0, 0.7, 0.5, 0.35, 0.25, 0.18, 0.12, 0.1, 0.06, 0.05]
        x = harmonic_wave(110.0, amps, np.linspace(0, 0.9, 10), RATE, phi0=1.1)
        track = segment_track(AudioBuffer(x, RATE), SeedRegion(400, 600))
        assert not track.lost
        assert len(track) >= 100
        assert set(np.unique(track.period_lengths)) <= {200, 201}
        # onset criterion holds for every emitted period
        for p in track.periods[:20]:
            spec = np.fft.fft(x[p.start_sample : p.start_sample + p.length])
            resid = abs((np.angle(spec[1]) + np.pi / 2 + np.pi) % (2 * np.pi) - np.pi)
            assert resid <= 2 * np.pi / p.length

    def test_contiguity_invariant(self):
        x = harmonic_wave(147.0, [1.0, 0.5, 0.3], np.zeros(3), RATE // 2)
        track = segment_track(AudioBuffer(x, RATE), SeedRegion(100, 250))
        starts = np.array([p.start_sample for p in track.periods])
        lengths = track.period_lengths
        np.testing.assert_array_equal(starts[1:], starts[:-1] + lengths[:-1])

    @settings(max_examples=30)
    @given(
        f0=st.floats(80.0, 400.0),
        nrd=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
        phi0=st.floats(0.0, 2 * np.pi),
    )
    def test_contiguity_property(self, f0, nrd, phi0):
        amps = 0.8 ** np.arange(len(nrd))
        x = harmonic_wave(f0, amps, nrd, RATE // 4, phi0=phi0)
        period = int(round(RATE / f0))
        track = segment_track(AudioBuffer(x, RATE), SeedRegion(100, 100 + period))
        assert len(track) >= 2
        starts = np.array([p.start_sample for p in track.periods])
        np.testing.assert_array_equal(starts[1:], starts[:-1] + track.period_lengths[:-1])

    def test_glide_monotone(self):
        # 220 -> 180 Hz linear glide over 0.5 s
        dur = RATE // 2
        n = np.arange(dur)
        f = 220.0 + (180.0 - 220.0) * n / dur
        phase = 2 * np.pi * np.cumsum(f) / RATE
        x = np.sin(phase) + 0.4 * np.sin(2 * phase + 0.7)
        track = segment_track(AudioBuffer(x, RATE), SeedRegion(0, 100))
        assert len(track) >= 80
        lengths = track.period_lengths.astype(float)
        # monotone decreasing f0 trend (compare block means to ride out the
        # +-1 sample staircase quantization)
        blocks = [np.mean(lengths[i : i + 8]) for i in range(0, len(lengths) - 7, 8)]
        assert all(b2 > b1 for b1, b2 in zip(blocks, blocks[1:]))
        # per-period f0 follows the commanded glide within quantization
        for p in track.periods:
            f_cmd = f[min(p.start_sample, dur - 1)]
            assert abs(p.f0 - f_cmd) <= f_cmd**2 / RATE + 1.0

    def test_dc_lost_immediately(self):
        x = np.full(8000, 0.25)
        track = segment_track(AudioBuffer(x, RATE), SeedRegion(0, 200))
        assert track.lost
        assert len(track) == 0

    def test_noise_tail_sets_lost_flag(self):
        rng = np.random.default_rng(11)
        voiced = harmonic_wave(130.0, [1.0, 0.5, 0.3], np.zeros(3), 6000)
        x = np.concatenate([voiced, 0.02 * rng.standard_normal(4000)])
        track = segment_track(AudioBuffer(x, RATE), SeedRegion(50, 220))
        assert track.lost
        assert len(track) >= 25

    def test_shift_invariance_exact(self):
        amps = [1.0, 0.6, 0.4, 0.2]
        nrd = [0.0, 0.31, 0.62, 0.17]
        d = 137
        base = harmonic_wave(121.0, amps, nrd, RATE // 2 + d, phi0=0.4)
        buf_a = AudioBuffer(base[:-d] if d else base, RATE)
        buf_b = AudioBuffer(base[d:], RATE)
        seed_b = SeedRegion(300, 480)
        seed_a = SeedRegion(300 + d, 480 + d)
        periods_a = segment_track(buf_a, seed_a).periods[:30]
        periods_b = segment_track(buf_b, seed_b).periods[:30]
        assert len(periods_a) == len(periods_b) == 30
        for pa, pb in zip(periods_a, periods_b):
            assert pa.length == pb.length
            assert pa.start_sample == pb.start_sample + d
            diff = np.abs(wrap_cycles(pa.nrd) - wrap_cycles(pb.nrd))
            diff = np.minimum(diff, 1.0 - diff)
            assert np.max(diff) <= 1e-6

    def test_auto_seed_finds_period(self):
        x = harmonic_wave(110.0, [1.0, 0.5], np.zeros(2), 8000)
        seed = auto_seed(AudioBuffer(x, RATE))
        assert abs(seed.period - 200) <= 2

    def test_auto_seed_not_a_multiple_of_the_period(self):
        # the autocorrelation peaks nearly equally at P, 2P and 3P; the seed
        # must be one period wherever the f0 sits on the lag grid, down to
        # the lag range's ends (499 Hz lies on the 500 Hz bound's lag)
        for f0 in np.arange(61.0, 500.0, 7.3):
            seed = auto_seed(AudioBuffer(harmonic_wave(f0, [1.0, 0.5, 0.3], np.zeros(3), RATE // 2), RATE))
            assert abs(seed.period - RATE / f0) <= 1, f0

    def test_auto_seed_233hz_tracks_to_the_end(self):
        # seeded at three periods, this tone used to emit no period and end lost
        buf = AudioBuffer(harmonic_wave(233.0, [1.0, 0.5, 0.3], np.zeros(3), RATE // 2), RATE)
        track = segment_track(buf, auto_seed(buf))
        assert not track.lost
        assert len(track) >= 110

    def test_auto_seed_noise_rejected(self):
        rng = np.random.default_rng(13)
        with pytest.raises(SegmentationLost):
            auto_seed(AudioBuffer(rng.standard_normal(8000), RATE))
