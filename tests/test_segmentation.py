"""Tests for phase-based pitch-period segmentation."""

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voicing.analysis import average_nrd, nrd_from_phases, wrap_cycles
from voicing.dsp import AudioBuffer
from voicing.segmentation import (
    _LOST_THRESHOLD,
    PitchPeriod,
    SeedRegion,
    SegmentationLost,
    _extract_periods,
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


def reference_extract_period_params(signal, start, period):
    """`extract_period_params` as it stood when `segment_track` called it
    for each period inside its walk: one P-point DFT, and the NRD floor
    under the period's own strongest harmonic.  The reference the batched
    extractor must reproduce exactly."""
    x = signal.samples
    p = int(period)
    start = int(start)
    count = harmonic_count(p)
    if start < 0 or start + p > x.size:
        raise ValueError("period window exceeds the signal")
    spec = np.fft.fft(x[start : start + p])
    bins = spec[1 : 1 + count]
    phases = np.angle(bins) + np.pi / 2
    magnitudes = 2.0 * np.abs(bins) / p
    nrd = nrd_from_phases(phases)
    # harmonics at the numerical floor carry no phase information
    nrd[magnitudes < 1e-9 * magnitudes.max()] = 0.0
    return PitchPeriod(
        start_sample=start,
        length=p,
        phases=phases,
        nrd=nrd,
        magnitudes=magnitudes,
        sample_rate=signal.sample_rate,
    )


def assert_same_period(got, want):
    assert (got.start_sample, got.length, got.sample_rate) == (want.start_sample, want.length, want.sample_rate)
    for name in ("phases", "magnitudes", "nrd"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def reference_segment_track(signal, seed):
    """`segment_track` as it stood with two correlations per refinement and
    an onset search over an array of starts: a raw correlation over
    [0, s_max], a second one at its maxima normalized by window norms from a
    running sum over the maxima's span, and the onset's cos and sin
    correlations at every candidate start, with each period's record
    extracted inside the walk.  Returns (periods, lost): the reference one
    correlation per refinement, and the extraction after the walk, must
    reproduce exactly."""
    x = signal.samples

    def correlate(template, starts):
        # the old `cross_correlate(template, x, starts)`: one correlation
        # over [min(starts), max(starts) + P], read at each start
        starts = np.asarray(starts)
        lo, hi = int(starts.min()), int(starts.max())
        return np.correlate(x[lo : hi + template.size], template, mode="valid")[starts - lo]

    def refine(start, p):
        if start + 2 * p > x.size:
            raise ValueError("window exceeds the signal")
        s_max = min(2 * p + p // 2 + 2, x.size - start - p)
        template = x[start : start + p]
        r = correlate(template, start + np.arange(s_max + 1))
        maxima = loop_local_maxima(r)
        if not maxima:
            raise SegmentationLost("no maximum")
        at = np.array(maxima)
        lo, hi = int(at.min()), int(at.max())
        span = x[start + lo : start + hi + p]
        sq = np.concatenate([[0.0], np.cumsum(span**2)])
        denom = np.linalg.norm(template) * np.sqrt(sq[at - lo + p] - sq[at - lo])
        raw = correlate(template, start + at)
        r_norm = np.where(denom > 0, raw / np.where(denom > 0, denom, 1.0), 0.0)
        best = float(np.max(r_norm))
        if best < _LOST_THRESHOLD:
            raise SegmentationLost("lost")
        credible = [m for m, v in zip(maxima, r_norm) if v >= max(_LOST_THRESHOLD, 0.5 * best)]
        top = sorted(sorted(credible, key=lambda s: r[s], reverse=True)[:2])
        updated = top[1] - top[0] if len(top) == 2 else top[0]
        if updated < 5:
            raise SegmentationLost("collapsed")
        return updated

    def align(start, p, lo, hi):
        shifts = np.arange(lo, hi + 1)
        cycle = 2 * np.pi * np.arange(p) / p
        bin1 = correlate(np.cos(cycle), start + shifts) - 1j * correlate(np.sin(cycle), start + shifts)
        err = np.angle(bin1) + np.pi / 2
        residual = np.abs((err + np.pi) % (2 * np.pi) - np.pi)
        return start + int(shifts[np.lexsort((np.abs(shifts), residual))[0]])

    periods, lost = [], False
    est, cursor, prev_onset = seed.period, seed.start_sample, None
    while True:
        try:
            est = refine(cursor, est)
        except SegmentationLost:
            lost = True
            break
        except ValueError:
            break
        onset = align(cursor, est, max(-(est // 2), -cursor), min(est // 2, x.size - cursor - est))
        if prev_onset is not None:
            emitted = onset - prev_onset
            if emitted < 5 or abs(emitted - est) > max(2, 0.2 * est):
                lost = True
                break
            periods.append(reference_extract_period_params(signal, prev_onset, emitted))
        prev_onset = onset
        cursor = onset + est
    if not lost and prev_onset is not None and prev_onset + est <= x.size:
        periods.append(reference_extract_period_params(signal, prev_onset, est))
    return periods, lost


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
        # near either end the search keeps to the shifts whose period lies
        # in the signal: brute force over the FFT of each of those windows
        x = np.sin(2 * np.pi * np.arange(300) / 100.0)
        assert align_onset(AudioBuffer(x, RATE), 10, 100) == (-10, 0)
        rng = np.random.default_rng(9)
        for p in (5, 6, 100, 101):
            x = rng.standard_normal(3 * p)
            shifts = np.arange(-(p // 2), p // 2 + 1)
            for start in (0, 1, p // 4, 2 * p - p // 4 - 1, 2 * p - 1, 2 * p):
                inside = shifts[(start + shifts >= 0) & (start + shifts + p <= x.size)]
                windows = x[start + inside[:, None] + np.arange(p)[None, :]]
                err = np.angle(np.fft.fft(windows, axis=1)[:, 1]) + np.pi / 2
                residual = np.abs((err + np.pi) % (2 * np.pi) - np.pi)
                s = int(inside[np.lexsort((np.abs(inside), residual))[0]])
                assert align_onset(AudioBuffer(x, RATE), start, p) == (s, start + s)
            # a period that does not fit the signal still raises
            for start in (-1, 2 * p + 1):
                with pytest.raises(ValueError):
                    align_onset(AudioBuffer(x, RATE), start, p)
            with pytest.raises(ValueError):
                align_onset(AudioBuffer(x[: p - 1], RATE), 0, p)

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

    def test_window_and_length_checked(self):
        buf = AudioBuffer(np.ones(100), RATE)
        for start, p in ((-1, 10), (95, 10), (0, 4)):
            with pytest.raises(ValueError):
                extract_period_params(buf, start, p)

    def test_batch_matches_one_period_at_a_time(self):
        # periods of lengths 5, 6, 64, 64, 65 and 367 back to back: the
        # first P = 64 period is loud with upper harmonics under 1e-9 of its
        # own fundamental (their NRD is zeroed); its twin is 1e-5 as loud,
        # with upper harmonics 1e-5 of its fundamental, so a floor taken
        # over the group's or the batch's strongest harmonic would zero them
        rng = np.random.default_rng(14)
        loud, quiet = (
            harmonic_wave(RATE / 64, [a] + [b] * 30, rng.uniform(0, 1, 31), 64)
            for a, b in ((1.0, 1e-12), (1e-5, 1e-10))
        )
        noise = [rng.standard_normal(p) for p in (5, 6, 65, 367)]
        pieces = noise[:2] + [loud, quiet] + noise[2:]
        buf = AudioBuffer(np.concatenate(pieces), RATE)
        bounds = np.concatenate([[0], np.cumsum([piece.size for piece in pieces])]).tolist()
        batch = _extract_periods(buf, bounds)
        assert [p.length for p in batch] == [5, 6, 64, 64, 65, 367]
        for got, start, p in zip(batch, bounds, np.diff(bounds).tolist()):
            want = reference_extract_period_params(buf, start, p)
            assert_same_period(got, want)
            assert_same_period(extract_period_params(buf, start, p), want)
        assert np.all(batch[2].nrd[1:] == 0.0)
        assert np.all(batch[3].nrd[1:] != 0.0)


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
        assert (track.end_sample, track.end_cause) == (0, "aperiodic")

    def test_noise_tail_sets_lost_flag(self):
        rng = np.random.default_rng(11)
        voiced = harmonic_wave(130.0, [1.0, 0.5, 0.3], np.zeros(3), 6000)
        x = np.concatenate([voiced, 0.02 * rng.standard_normal(4000)])
        track = segment_track(AudioBuffer(x, RATE), SeedRegion(50, 220))
        assert track.lost
        assert len(track) >= 25
        # lost in the tail, at most a few periods past the last one emitted
        assert track.end_cause == "aperiodic"
        last = track.periods[-1]
        assert 6000 - 170 <= track.end_sample <= last.start_sample + 3 * last.length

    def test_clean_tone_runs_out_of_signal(self):
        amps = [1.0, 0.7, 0.5, 0.35]
        x = harmonic_wave(110.0, amps, np.linspace(0, 0.9, 4), RATE, phi0=1.1)
        track = segment_track(AudioBuffer(x, RATE), SeedRegion(400, 600))
        assert not track.lost
        assert track.end_cause == "out_of_signal"
        # the last period ends where tracking stopped, too near the end for
        # the next two-period window (this tone does not end on a period
        # boundary; one that does ends "aperiodic", see TestHostileInputs)
        last = track.periods[-1]
        assert track.end_sample == last.start_sample + last.length
        assert track.end_sample + 2 * last.length > x.size

    def test_one_log_record_per_track(self, caplog):
        rng = np.random.default_rng(12)
        tone = harmonic_wave(140.0, [1.0, 0.5], np.zeros(2), 4000, phi0=0.7)
        signals = [tone, np.concatenate([tone, 0.02 * rng.standard_normal(3000)]), np.full(4000, 0.3)]
        with caplog.at_level(logging.INFO, logger="voicing.segmentation"):
            tracks = [segment_track(AudioBuffer(x, RATE), SeedRegion(0, 158)) for x in signals]
        ended = [r.getMessage() for r in caplog.records if r.getMessage().startswith("track ended")]
        assert ended == [
            f"track ended at sample {t.end_sample} ({t.end_cause}) after {len(t)} periods" for t in tracks
        ]
        assert [t.end_cause for t in tracks] == ["out_of_signal", "aperiodic", "aperiodic"]

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

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["tone", "glide", "jitter"]),
        f0=st.floats(60.0, 500.0),
        lines=st.integers(1, 10),
        noisy=st.booleans(),
        tail=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_two_correlation_loop(self, kind, f0, lines, noisy, tail, seed):
        # one correlation per refinement, one lag range per onset search and
        # the extraction after the walk give exactly the old loop's periods
        # and `lost` flag on tones, glides and jittered tones, clean or with
        # white noise 40 dB down, running to the end or into a noise tail
        # that loses the track
        rng = np.random.default_rng(seed)
        n = int(0.12 * RATE)
        if kind == "tone":
            track_hz = np.full(n, f0)
        elif kind == "glide":
            track_hz = np.linspace(f0, np.clip(f0 * rng.uniform(0.8, 1.25), 60.0, 500.0), n)
        else:
            period = int(round(RATE / f0))
            track_hz = np.repeat(f0 * (1.0 + 0.01 * rng.standard_normal(n // period + 1)), period)[:n]
        lines = min(lines, int(0.45 * RATE / track_hz.max()))
        phase = 2 * np.pi * np.cumsum(track_hz) / RATE
        x = sum(0.8**ell * np.sin((ell + 1) * phase + rng.uniform(0, 2 * np.pi)) for ell in range(lines))
        if noisy:
            x += 10 ** (-40 / 20) * np.sqrt(np.mean(x**2)) * rng.standard_normal(n)
        if tail:
            x = np.concatenate([x, 0.05 * rng.standard_normal(n // 3)])
        buf = AudioBuffer(x, RATE)
        p0 = int(round(RATE / f0))
        start = int(rng.integers(0, p0))
        seed_region = SeedRegion(start, start + p0)
        track = segment_track(buf, seed_region)
        periods, lost = reference_segment_track(buf, seed_region)
        assert track.lost == lost
        assert len(track) == len(periods)
        for got, want in zip(track.periods, periods):
            assert_same_period(got, want)

    def test_average_nrd_of_a_track(self):
        # a PeriodTrack averages the NRD vectors of its periods
        x = harmonic_wave(147.0, [1.0, 0.5, 0.3], [0.0, 0.2, 0.7], RATE // 4, phi0=0.4)
        track = segment_track(AudioBuffer(x, RATE), SeedRegion(100, 250))
        assert len(track) >= 10
        np.testing.assert_array_equal(average_nrd(track), average_nrd([p.nrd for p in track.periods]))

    def test_auto_seed_too_short_rejected(self):
        # 100 samples hold fewer than three lags of the shortest period searched
        with pytest.raises(SegmentationLost, match="too short"):
            auto_seed(AudioBuffer(harmonic_wave(300.0, [1.0, 0.5], np.zeros(2), 100), RATE))

    def test_auto_seed_noise_rejected(self):
        rng = np.random.default_rng(13)
        with pytest.raises(SegmentationLost):
            auto_seed(AudioBuffer(rng.standard_normal(8000), RATE))


class TestHostileInputs:
    """Inputs at the edges of what segmentation is given; each gives a
    contiguous track, or the outcome its test states."""

    def assert_contiguous(self, track, lengths):
        starts = np.array([p.start_sample for p in track.periods])
        np.testing.assert_array_equal(starts[1:], starts[:-1] + track.period_lengths[:-1])
        assert set(track.period_lengths.tolist()) <= set(lengths)

    @staticmethod
    def covered_to(track):
        return track.periods[-1].start_sample + track.periods[-1].length

    def test_hard_clipped_470hz(self):
        x = harmonic_wave(470.0, [1.0, 0.5, 0.3], np.zeros(3), RATE // 2)
        limit = 0.3 * np.abs(x).max()
        buf = AudioBuffer(np.clip(x, -limit, limit), RATE)
        track = segment_track(buf, auto_seed(buf))
        self.assert_contiguous(track, {46, 47})
        # the tone ends on a period boundary, where the last window's
        # maximum at S = P sits on its edge: tracking stops within three
        # periods of the end (CHANGES.md, FOUND)
        assert len(track) >= 225
        assert self.covered_to(track) + 3 * 47 >= buf.samples.size

    def test_exactly_two_seed_periods(self):
        p = 200
        buf = AudioBuffer(harmonic_wave(RATE / p, [1.0, 0.5, 0.3], np.zeros(3), 2 * p), RATE)
        # auto_seed needs three lags of its longest period
        with pytest.raises(SegmentationLost):
            auto_seed(buf)
        # the window [0, 2P] holds the maximum at S = P only on its edge,
        # so no period is emitted
        track = segment_track(buf, SeedRegion(0, p))
        assert len(track) == 0
        assert track.end_sample == 0

    def test_16_bit_60hz(self):
        x = np.round(harmonic_wave(60.0, [0.5, 0.25], np.zeros(2), RATE // 2) * 32767) / 32767
        buf = AudioBuffer(x, RATE)
        track = segment_track(buf, auto_seed(buf))
        self.assert_contiguous(track, {367, 368})
        assert len(track) >= 26
        assert self.covered_to(track) + 3 * 368 >= x.size
