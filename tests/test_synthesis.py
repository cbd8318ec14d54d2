"""Tests for the three synthesis engines and the comparison report."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import resample

from voicing.analysis import (
    F0_RANGE_HZ,
    FrameParams,
    LpcModel,
    analyze_frames,
    fit_lpc_envelope,
    harmonic_amplitudes,
    wrap_cycles,
)
from voicing.dsp import (
    AudioBuffer,
    inverse_odft,
    make_sqrt_shifted_hanning,
    odft,
    sine_window_spectrum,
)
from voicing.segmentation import SeedRegion, auto_seed, segment_track
from voicing.synthesis import (
    GlottalPulse,
    LfParams,
    SynthesisPlan,
    _aligned_correlation,
    _inject_harmonic,
    _ParamTrack,
    _period_wave,
    _rendered_line_magnitudes,
    _tilt_compensated_model,
    compare_engines,
    synth_fre,
    synth_glo,
    synth_glottal_pulse,
    synth_tim,
)

RATE = 22050


def stationary_plan(f0, amps, nrd, duration_s=0.8, rate=RATE, frame_len=1024, order=12):
    """Hand-built plan with identical voiced frames."""
    hop = frame_len // 2
    total = int(duration_s * rate)
    n_frames = max(2, (total - frame_len) // hop + 1)
    omega0 = 2 * np.pi * f0 / rate
    env = fit_lpc_envelope(amps, omega0, order)
    frames = [
        FrameParams(
            frame_index=m,
            voiced=True,
            omega0=omega0,
            a0=float(amps[0]),
            phi0=None,
            nrd=np.asarray(nrd, dtype=float),
            magnitudes=np.asarray(amps, dtype=float),
            envelope=env,
        )
        for m in range(n_frames)
    ]
    return SynthesisPlan(frames=frames, sample_rate=rate, frame_len=frame_len, total_length=total)


def glide_plan(f_start, f_stop, duration_s=0.5, rate=RATE, frame_len=1024, order=8):
    hop = frame_len // 2
    total = int(duration_s * rate)
    n_frames = max(2, (total - frame_len) // hop + 1)
    amps = np.array([1.0, 0.6, 0.4, 0.25, 0.15, 0.1])
    frames = []
    for m in range(n_frames):
        center = m * hop + frame_len // 2
        f = f_start + (f_stop - f_start) * min(center / total, 1.0)
        omega0 = 2 * np.pi * f / rate
        frames.append(
            FrameParams(
                frame_index=m,
                voiced=True,
                omega0=omega0,
                a0=1.0,
                phi0=None,
                nrd=np.array([0.0, 0.2, 0.4, 0.1, 0.3, 0.5]),
                magnitudes=amps,
                envelope=fit_lpc_envelope(amps, omega0, order),
            )
        )
    return SynthesisPlan(frames=frames, sample_rate=rate, frame_len=frame_len, total_length=total)


def reference_synth_fre(plan):
    """`synth_fre` as it stood with one injection and one inverse transform
    per rendered frame, and the frame's amplitudes evaluated at every
    render, held frames included: the reference the batched render must
    reproduce bit for bit.  Returns the samples."""
    n, hop = plan.frame_len, plan.hop
    half_width = 4
    w = make_sqrt_shifted_hanning(n)
    last_index = max(fp.frame_index for fp in plan.frames)
    tail_index = (plan.total_length - 1) // hop
    renders = []  # (frame index, parameters, phi0)
    for fp in plan.voiced_frames():
        if fp.phi0 is not None:
            phi0 = float(fp.phi0)
        elif not renders:
            phi0 = 0.0
        else:
            prev_index, prev, prev_phi0 = renders[-1]
            phi0 = prev_phi0 + 0.5 * (prev.omega0 + fp.omega0) * ((fp.frame_index - prev_index) * hop)
        renders.append((fp.frame_index, fp, phi0))
    first_index, first, first_phi0 = renders[0]
    end_index, end, end_phi0 = renders[-1]
    if first_index == 0:
        renders.insert(0, (-1, first, first_phi0 - first.omega0 * hop))
    if end_index == last_index:
        for k in range(end_index + 1, tail_index + 1):
            renders.append((k, end, end_phi0 + end.omega0 * hop * (k - end_index)))

    out = np.zeros((max(last_index, tail_index) + 1) * hop + n)
    for index, fp, phi0 in renders:
        amps = harmonic_amplitudes(fp)
        ell1 = np.arange(1, amps.size + 1)
        omega_l = ell1 * fp.omega0
        phases = 2 * np.pi * fp.nrd[: amps.size] + ell1 * phi0
        c = 0.5 * amps * np.exp(1j * (phases - np.pi / 2))
        k = np.round(omega_l * n / (2 * np.pi) - 0.5).astype(np.int64)[:, None] + np.arange(-half_width, half_width + 1)
        nu = 2 * np.pi * (k + 0.5) / n
        c, omega_l = c[:, None], omega_l[:, None]
        images = c * sine_window_spectrum(n, nu - omega_l) + np.conj(c) * sine_window_spectrum(n, nu + omega_l)
        inside = (k >= 0) & (k < n // 2)
        spec = np.zeros(n, dtype=np.complex128)
        np.add.at(spec, k[inside], images[inside])
        spec[n // 2 :] = np.conj(spec[: n // 2][::-1])
        off = (index + 1) * hop
        out[off : off + n] += w * inverse_odft(spec).real
    return out[hop : hop + plan.total_length]


def reference_synth_tim(plan):
    """`synth_tim` as it stood: every period's parameters interpolated
    from the frames themselves, each side's amplitudes evaluated anew by
    `harmonic_amplitudes`, and every period's wave built anew: the
    reference the render that keeps each frame's amplitudes and reuses a
    repeated period's wave must reproduce bit for bit.  The interpolation
    is its own copy of the rule `_ParamTrack` owns.  Returns the samples."""
    voiced = plan.voiced_frames()
    anchors = np.array([fp.frame_index * plan.hop + plan.frame_len // 2 for fp in voiced], dtype=np.int64)

    def interpolate(left, right, t):
        t = min(max(float(t), 0.0), 1.0)
        if t == 1.0:
            return right.omega0, harmonic_amplitudes(right), right.nrd.copy()
        la, ra = harmonic_amplitudes(left), harmonic_amplitudes(right)
        c, n = min(la.size, ra.size), max(la.size, ra.size)
        amps = np.zeros(n)
        amps[:c] = la[:c] * np.exp(t * (np.log(np.maximum(ra[:c], 1e-300)) - np.log(np.maximum(la[:c], 1e-300))))
        amps[c:] = (la if la.size >= ra.size else ra)[c:]
        nrd = np.zeros(n)
        cn = min(left.nrd.size, right.nrd.size)
        nrd[:cn] = left.nrd[:cn] + t * (right.nrd[:cn] - left.nrd[:cn])
        longer = left.nrd if left.nrd.size >= right.nrd.size else right.nrd
        nrd[cn : longer.size] = longer[cn:]
        return left.omega0 + t * (right.omega0 - left.omega0), amps, nrd

    def at(position):
        if anchors.size == 1:
            return voiced[0].omega0, harmonic_amplitudes(voiced[0]), voiced[0].nrd.copy()
        j = min(max(int(np.searchsorted(anchors, position, side="right")) - 1, 0), anchors.size - 2)
        return interpolate(voiced[j], voiced[j + 1], (position - anchors[j]) / (anchors[j + 1] - anchors[j]))

    total, ext = plan.total_length, 4
    ramp = np.arange(1, 2 * ext + 1) / (2 * ext + 1.0)
    periods = []
    position = 0
    while position < total:
        omega0, amps, nrd = at(position)
        period = int(round(2 * np.pi / omega0))
        periods.append((position, _period_wave(period, amps, nrd)))
        position += period
    last_start, last_wave = periods[-1]
    out = np.zeros(last_start + last_wave.size + 2 * ext)
    for i, (start, x_p) in enumerate(periods):
        p = x_p.size
        gain = np.ones(p + 2 * ext)
        if i > 0:
            gain[: 2 * ext] = ramp
        if i + 1 < len(periods):
            gain[-2 * ext :] = 1.0 - ramp
        out[start : start + p + 2 * ext] += gain * np.take(x_p, np.arange(-ext, p + ext), mode="wrap")
    return out[ext : ext + total]


def reference_periods(plan):
    """`_ParamTrack.periods` as it stood: one interpolation per period, each
    a fresh read of the pair around the period's start, yielding (position,
    period, amps, nrd) as the walk goes.  The reference the period table
    must reproduce bit for bit, row by row."""
    voiced = plan.voiced_frames()
    kept = [harmonic_amplitudes(fp) for fp in voiced]
    a = np.array([fp.frame_index * plan.hop + plan.frame_len // 2 for fp in voiced], dtype=np.int64)

    def at(position):
        j = min(max(int(np.searchsorted(a, position, side="right")), 1), a.size - 1)
        t = 1.0 if j == 0 else min(max(float((position - a[j - 1]) / (a[j] - a[j - 1])), 0.0), 1.0)
        right, ra = voiced[j], kept[j]
        if t == 1.0:
            return right.omega0, ra, right.nrd.copy()
        left, la = voiced[j - 1], kept[j - 1]
        omega0 = left.omega0 + t * (right.omega0 - left.omega0)
        c, n = min(la.size, ra.size), max(la.size, ra.size)
        amps = np.zeros(n)
        log_ratio = np.log(np.maximum(ra[:c], 1e-300)) - np.log(np.maximum(la[:c], 1e-300))
        amps[:c] = la[:c] * np.exp(t * log_ratio)
        amps[c:] = (la if la.size >= ra.size else ra)[c:]
        nrd = np.zeros(n)
        cn = min(left.nrd.size, right.nrd.size)
        nrd[:cn] = left.nrd[:cn] + t * (right.nrd[:cn] - left.nrd[:cn])
        longer = left.nrd if left.nrd.size >= right.nrd.size else right.nrd
        nrd[cn : longer.size] = longer[cn:]
        return omega0, amps, nrd

    position = 0
    while position < plan.total_length:
        omega0, amps, nrd = at(position)
        if not omega0 > 0:
            raise ValueError(f"non-positive interpolated omega0 at sample {position}")
        period = int(round(2 * np.pi / omega0))
        yield position, period, amps, nrd
        position += period


def reference_synth_glo(plan):
    """`synth_glo` as it stood: the per-period walk of `reference_periods`,
    a pulse and a response for each new command, built with `np.pad` for
    the cepstrum's edges and the fold, and one slice add per period: the
    reference the table-driven, one-pass render must reproduce bit for bit.
    Returns the samples."""

    def line_magnitudes(response, period, count):
        folded = np.pad(response, (0, -response.size % period)).reshape(-1, period).sum(axis=0)
        return 2.0 * np.abs(np.fft.fft(folded)[1 : 1 + count]) / period

    def tract(amps, pulse, period):
        lines = (period - 1) // 2
        count = min(len(amps), lines)
        target = np.asarray(amps[:count], dtype=np.float64)
        if count == 0 or not np.all(target > 0):
            raise ValueError("GLO needs at least one commanded line, every one of positive amplitude")
        log_target = np.log(target)
        db = np.log(10.0) / 20.0
        stop = min(log_target[-1], log_target.max() - 60.0 * db)
        rolled = log_target[-1] - 6.0 * db * np.arange(1, lines - count + 1)
        log_level = np.concatenate([log_target, np.maximum(rolled, stop)])
        log_response = log_level - np.log(line_magnitudes(pulse, period, lines))
        cepstrum = np.fft.irfft(np.pad(log_response, (1, 1 - period % 2), mode="edge"), period)
        cepstrum[1 : (period + 1) // 2] *= 2.0
        cepstrum[period // 2 + 1 :] = 0.0
        return np.fft.irfft(np.exp(np.fft.rfft(cepstrum)), period)

    total = plan.total_length
    out = np.zeros(total)
    command = None
    for position, period, amps, _ in reference_periods(plan):
        if command is None or command[0] != period or not np.array_equal(command[1], amps):
            pulse = synth_glottal_pulse(period).samples
            response = np.convolve(pulse, tract(amps, pulse, period))
            command = (period, amps)
        out[position : position + response.size] += response[: total - position]
    return out


@st.composite
def random_plans(draw):
    """Plans of 1-7 frames at a frame length of 256 or 512: unvoiced gaps,
    voiced first and last frames (which FRE holds past the grid), phi0
    measured or None, f0 in [60, 500] Hz and amplitudes moving from frame
    to frame or repeated, with or without the NRD, frames with and without
    an envelope, and a length at, under or past the grid's."""
    frame_len = draw(st.sampled_from([256, 512]))
    count = draw(st.integers(1, 7))
    voiced = draw(st.lists(st.booleans(), min_size=count, max_size=count).filter(any))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames, prev = [], None
    for m, is_voiced in enumerate(voiced):
        if not is_voiced:
            frames.append(FrameParams(frame_index=m, voiced=False))
            continue
        step = "new" if prev is None else draw(st.sampled_from(["new", "repeat", "new nrd"]))
        if step == "new nrd":
            prev = dict(prev, nrd=rng.uniform(0.0, 1.0, prev["nrd"].size))
        elif step == "new":
            lines = int(rng.integers(1, 9))
            envelope = None
            if draw(st.booleans()):
                pairs = rng.uniform(0.3, 0.95, 2) * np.exp(1j * rng.uniform(0.1, 3.0, 2))
                envelope = LpcModel(np.concatenate([pairs, np.conj(pairs), [rng.uniform(-0.9, 0.9)]]), 1.0)
            prev = dict(
                omega0=2 * np.pi * 60.0 * (500.0 / 60.0) ** rng.uniform() / RATE,
                a0=float(rng.uniform(0.1, 1.0)),
                phi0=float(rng.uniform(-np.pi, np.pi)) if draw(st.booleans()) else None,
                nrd=rng.uniform(0.0, 1.0, lines),
                magnitudes=rng.uniform(0.05, 1.0, lines),
                envelope=envelope,
            )
        frames.append(FrameParams(frame_index=m, voiced=True, **prev))
    grid = (count - 1) * (frame_len // 2) + frame_len
    total = grid + draw(st.integers(-(frame_len // 2) + 1, frame_len))
    return SynthesisPlan(frames=frames, sample_rate=RATE, frame_len=frame_len, total_length=total)


@st.composite
def track_plans(draw):
    """Plans of 1-4 voiced frames, each with its own line count (1-8, no
    two alike), f0 in [60, 500] Hz, amplitudes and NRD, with or without an
    envelope, and an unvoiced gap of 1-2 frames before, between or after
    them; the length is at, under or past the grid's."""
    frame_len = draw(st.sampled_from([256, 512, 1024]))
    voiced = draw(st.integers(1, 4))
    gap_at = draw(st.integers(0, voiced))
    gap = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    line_counts = rng.choice(np.arange(1, 9), voiced, replace=False)
    frames = []
    for k, lines in enumerate(line_counts.tolist() + [None]):
        if k == gap_at:
            frames += [FrameParams(frame_index=len(frames) + g, voiced=False) for g in range(gap)]
        if lines is None:
            break
        envelope = None
        if draw(st.booleans()):
            pairs = rng.uniform(0.3, 0.95, 2) * np.exp(1j * rng.uniform(0.1, 3.0, 2))
            envelope = LpcModel(np.concatenate([pairs, np.conj(pairs), [rng.uniform(-0.9, 0.9)]]), 1.0)
        frames.append(
            FrameParams(
                frame_index=len(frames),
                voiced=True,
                omega0=2 * np.pi * 60.0 * (500.0 / 60.0) ** rng.uniform() / RATE,
                a0=float(rng.uniform(0.1, 1.0)),
                nrd=rng.uniform(0.0, 1.0, lines),
                magnitudes=rng.uniform(0.05, 1.0, lines),
                envelope=envelope,
            )
        )
    grid = (len(frames) - 1) * (frame_len // 2) + frame_len
    total = grid + draw(st.integers(-(frame_len // 2) + 1, frame_len))
    return SynthesisPlan(frames=frames, sample_rate=RATE, frame_len=frame_len, total_length=total)


def harmonic_wave(f0, amps, nrd, n_samples, rate=RATE, phi0=0.0):
    n = np.arange(n_samples)
    omega0 = 2 * np.pi * f0 / rate
    x = np.zeros(n_samples)
    for ell, (a, d) in enumerate(zip(amps, nrd)):
        x += a * np.sin((ell + 1) * omega0 * n + 2 * np.pi * d + (ell + 1) * phi0)
    return x


class TestGlottalPulse:
    def test_modal_structure(self):
        pulse = synth_glottal_pulse(200)
        g = pulse.samples
        assert g.size == 200
        assert abs(g.mean()) <= 1e-6 * np.abs(g).max()
        closure = np.argmin(g)
        assert closure == pytest.approx(0.6 * 200, abs=3)
        assert g.min() == pytest.approx(-1.0, abs=1e-6)
        assert g.max() < -g.min()  # single dominant negative peak

    def test_shape_invariant_under_period(self):
        # resampling oracle: a P=200 pulse resampled 2:1 (exact decimation of
        # the shared continuous-time waveform) matches a directly
        # synthesized P=100 pulse within 1% of peak
        long_p = synth_glottal_pulse(200).samples
        short_p = synth_glottal_pulse(100).samples
        assert np.max(np.abs(long_p[::2] - short_p)) <= 0.01

    def test_spectral_tilt_monotone(self):
        pulse = synth_glottal_pulse(256)
        mags = np.abs(np.fft.fft(pulse.samples))[1:128]
        smooth = np.convolve(mags, np.ones(3) / 3, mode="valid")
        peak = int(np.argmax(smooth))
        tail = smooth[peak:]
        # monotone decrease holds down to the sampling-alias floor
        above_floor = tail >= tail[0] * 10 ** (-50 / 20)
        core = tail[above_floor]
        assert core.size >= 30
        assert np.all(np.diff(core) <= 1e-12)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            synth_glottal_pulse(100, LfParams(open_quotient=1.5))
        with pytest.raises(ValueError):
            synth_glottal_pulse(100, LfParams(asymmetry=0.4))
        with pytest.raises(ValueError):
            synth_glottal_pulse(100, LfParams(return_quotient=0.9))
        with pytest.raises(ValueError):
            synth_glottal_pulse(8)

    @pytest.mark.parametrize(
        "shape",
        [{"open_quotient": 1.5}, {"asymmetry": 0.4}, {"return_quotient": 0.9}, {"return_quotient": 0.0}],
    )
    def test_invalid_shape_cannot_be_built(self, shape):
        with pytest.raises(ValueError, match=next(iter(shape))):
            LfParams(**shape)


class TestTim:
    def test_period_wave_dc_free(self):
        rng = np.random.default_rng(3)
        for period in (64, 127, 200):
            amps = rng.uniform(0.1, 1.0, 8)
            nrd = rng.uniform(0, 1, 8)
            x_p = _period_wave(period, amps, nrd)
            assert abs(np.sum(x_p)) <= 1e-9 * period * amps.max()

    def test_stationary_single_harmonic_is_contiguous_sine(self):
        plan = stationary_plan(RATE / 200.0, [1.0], [0.0], duration_s=0.4, order=1)
        out = synth_tim(plan)
        n = np.arange(out.samples.size)
        ideal = np.sin(2 * np.pi * n / 200.0)
        core = slice(0, out.samples.size - 250)
        assert np.max(np.abs(out.samples[core] - ideal[core])) <= 1e-6

    def test_contour_roundtrip(self):
        plan = stationary_plan(110.0, [1.0, 0.6, 0.4, 0.25], [0.0, 0.2, 0.4, 0.1], duration_s=0.7)
        out = synth_tim(plan)
        track = segment_track(out, auto_seed(out))
        assert len(track) >= 60
        assert set(np.unique(track.period_lengths)) <= {200, 201}

    def test_nrd_passthrough(self):
        nrd = [0.0, 0.24, 0.61, 0.13]
        plan = stationary_plan(RATE / 147.0, [1.0, 0.7, 0.5, 0.3], nrd, duration_s=0.6, order=8)
        out = synth_tim(plan)
        track = segment_track(out, SeedRegion(300, 300 + 147))
        got = np.median([wrap_cycles(p.nrd[:4]) for p in track.periods[5:-5]], axis=0)
        diff = np.abs(got - wrap_cycles(np.array(nrd)))
        diff = np.minimum(diff, 1.0 - diff)
        assert np.max(diff) <= 0.02

    def test_junction_steps_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f0 = rng.uniform(90, 320)
            count = rng.integers(2, 8)
            amps = rng.uniform(0.2, 1.0, count)
            nrd = rng.uniform(0, 1, count)
            nrd[0] = 0.0
            plan = stationary_plan(f0, amps, nrd, duration_s=0.25, order=min(2 * count, 8))
            out = synth_tim(plan).samples
            period = int(round(RATE / f0))
            junctions = np.arange(period, out.size - period, period)
            steps = np.abs(np.diff(out))
            interior = steps.max()
            for j in junctions:
                assert steps[j - 6 : j + 6].max() <= 5 * interior

    def test_junction_crossfade_matches_reference(self):
        # each sample from the one or two periods it lies in: over
        # [start - 4, start + 4) of every junction, ramp * next +
        # (1 - ramp) * previous with both circularly extended; elsewhere the
        # period alone, the first from sample 0 and the last up to the end
        plan = glide_plan(100.0, 250.0, duration_s=0.1)
        total = plan.total_length
        walk = list(_ParamTrack(plan).periods(total))
        assert len(walk) >= 3
        starts = [position for position, _, _, _ in walk]
        waves = [_period_wave(period, amps, nrd) for _, period, amps, nrd in walk]
        expected = np.empty(total)
        for start, wave in zip(starts, waves):
            for j in range(start, min(start + wave.size, total)):
                expected[j] = wave[j - start]
        for i in range(1, len(walk)):
            start, wave = starts[i], waves[i]
            prev_start, prev = starts[i - 1], waves[i - 1]
            for j in range(start - 4, min(start + 4, total)):
                ramp = (j - start + 5) / 9.0
                expected[j] = ramp * wave[(j - start) % wave.size] + (1.0 - ramp) * prev[(j - prev_start) % prev.size]
        np.testing.assert_array_equal(synth_tim(plan).samples, expected)

    def test_one_wave_per_command(self, monkeypatch):
        # identical frames command one wave, built once and added at every period
        import voicing.synthesis as synthesis_module

        calls = []

        def recording(*args):
            calls.append(args)
            return _period_wave(*args)

        monkeypatch.setattr(synthesis_module, "_period_wave", recording)
        plan = stationary_plan(200.0, [1.0, 0.5, 0.25], [0.0, 0.3, 0.6], duration_s=0.2, order=4)
        synth_tim(plan)
        assert len(calls) == 1

    def test_zero_omega_rejected(self):
        plan = stationary_plan(110.0, [1.0], [0.0], duration_s=0.2, order=1)
        plan.frames[0].omega0 = -0.1
        for fp in plan.frames[1:]:
            fp.omega0 = -0.1
        with pytest.raises(ValueError):
            synth_tim(plan)


    def test_too_short_period_rejected(self):
        plan = stationary_plan(RATE / 4.0, [1.0], [0.0], duration_s=0.1, order=1)
        with pytest.raises(ValueError, match="at least 5 samples"):
            synth_tim(plan)


class TestFre:
    def test_ola_completeness(self):
        # constant unit spectra tile to constant gain: sum of squared
        # windows at 50% overlap is exactly one
        n = 1024
        w = make_sqrt_shifted_hanning(n)
        acc = np.zeros(n * 4)
        for off in range(0, acc.size - n + 1, n // 2):
            acc[off : off + n] += w**2
        interior = acc[n : -n]
        assert np.max(np.abs(interior - 1.0)) <= 1e-10

    @given(n=st.integers(2, 1024).map(lambda k: 2 * k), seed=st.integers(0, 2**32 - 1))
    @example(n=1024, seed=5)
    def test_bypass_transform_roundtrip_perfect(self, n, seed):
        # raw ODFT -> inverse -> windowed OLA without any parameters, at
        # even frame lengths from 4 to 2048
        x = np.random.default_rng(seed).standard_normal(4 * n)
        hop = n // 2
        w = make_sqrt_shifted_hanning(n)
        out = np.zeros(x.size)
        for off in range(0, x.size - n + 1, hop):
            out[off : off + n] += w * inverse_odft(odft(x[off : off + n] * w)).real
        core = slice(n, x.size - n)
        err = out[core] - x[core]
        err_db = 10 * np.log10(np.sum(err**2) / np.sum(x[core] ** 2))
        assert err_db <= -100.0

    def test_parametric_roundtrip_snr(self):
        # stationary vowel with an all-pole envelope; f0 on the transform's
        # half-bin grid so the 9-bin injection is essentially exact
        n = 1024
        f0 = 5 * RATE / n  # ~107.7 Hz
        count = 40
        env_poles = [0.96 * np.exp(2j * np.pi * 700 / RATE), 0.94 * np.exp(2j * np.pi * 1900 / RATE)]
        env_poles += [np.conj(p) for p in env_poles] + [0.85]
        from voicing.analysis import LpcModel

        env = LpcModel(env_poles, 1.0)
        omega_l = np.arange(1, count + 1) * 2 * np.pi * f0 / RATE
        amps = env.magnitude(omega_l)
        amps /= amps.max()
        rng = np.random.default_rng(7)
        nrd = np.concatenate([[0.0], rng.uniform(0, 1, count - 1)])
        x = harmonic_wave(f0, amps, nrd, RATE, phi0=0.9)
        buf = AudioBuffer(x, RATE)

        frames = analyze_frames(buf, n)
        plan = SynthesisPlan(frames=frames, sample_rate=RATE, frame_len=n, total_length=x.size)
        out = synth_fre(plan)
        core = slice(2 * n, x.size - 2 * n)
        err = out.samples[core] - x[core]
        snr = 10 * np.log10(np.sum(x[core] ** 2) / np.sum(err**2))
        assert snr >= 40.0

    def test_single_harmonic_ripple(self):
        n = 1024
        f0 = 6 * RATE / n
        plan = stationary_plan(f0, [1.0], [0.0], duration_s=0.5, order=1)
        out = synth_fre(plan).samples
        # analytic envelope of an interior stretch of whole periods (3
        # periods = 512 samples), so that the circular Hilbert transform
        # sees no cut where the stretch wraps around
        seg = out[n : n + 16 * 512]
        analytic = np.abs(seg + 1j * np.imag(np.fft.ifft(np.fft.fft(seg) * _analytic_filter(seg.size))))
        ripple_db = 20 * np.log10(analytic.max() / analytic.min())
        assert ripple_db <= 0.1

    def test_phi0_shift_moves_waveform_not_nrd(self):
        f0 = 5 * RATE / 1024
        amps = [1.0, 0.6, 0.4]
        nrd = [0.0, 0.3, 0.7]
        base = stationary_plan(f0, amps, nrd, duration_s=0.5, order=6)
        shifted = stationary_plan(f0, amps, nrd, duration_s=0.5, order=6)
        shifted.frames[0].phi0 = np.pi
        out_a = synth_fre(base)
        out_b = synth_fre(shifted)
        # time-shifted copy: best aligned correlation ~ 1 at a nonzero lag
        rep = compare_engines(out_a, out_b)
        assert rep["waveform_correlation"] >= 0.999
        assert rep["waveform_lag_samples"] != 0
        # NRD re-analysis unchanged
        fr_a = [f for f in analyze_frames(out_a, 1024) if f.voiced][2:-2]
        fr_b = [f for f in analyze_frames(out_b, 1024) if f.voiced][2:-2]
        nrd_a = np.median([wrap_cycles(f.nrd[:3]) for f in fr_a], axis=0)
        nrd_b = np.median([wrap_cycles(f.nrd[:3]) for f in fr_b], axis=0)
        diff = np.abs(nrd_a - nrd_b)
        diff = np.minimum(diff, 1.0 - diff)
        assert np.max(diff) <= 1e-3

    def test_injection_matches_per_harmonic_sum(self):
        # reference: each harmonic added on its own into its frame's row,
        # bins clipped to [0, n/2); one batched call fills every row
        n, half_width = 1024, 4
        rng = np.random.default_rng(11)
        f0s = (40.0, 61.0, 130.0, 499.0)
        want = np.zeros((len(f0s), n), dtype=np.complex128)
        rows, cs, omegas = [], [], []
        for i, f0 in enumerate(f0s):
            omega0 = 2 * np.pi * f0 / RATE
            count = int(np.floor(0.999 * np.pi / omega0))
            omega = np.arange(1, count + 1) * omega0
            c = rng.uniform(0.01, 1.0, count) * np.exp(2j * np.pi * rng.uniform(0, 1, count))
            for cl, wl in zip(c, omega):
                k_center = int(round(wl * n / (2 * np.pi) - 0.5))
                k = np.arange(max(0, k_center - half_width), min(n // 2 - 1, k_center + half_width) + 1)
                nu = 2 * np.pi * (k + 0.5) / n
                want[i, k] += cl * sine_window_spectrum(n, nu - wl) + np.conj(cl) * sine_window_spectrum(n, nu + wl)
            rows.append(np.full(count, i))
            cs.append(c)
            omegas.append(omega)
        got = np.zeros((len(f0s), n), dtype=np.complex128)
        _inject_harmonic(got, np.concatenate(rows), np.concatenate(cs), np.concatenate(omegas), half_width)
        np.testing.assert_array_equal(got, want)

    def test_frame_without_nrd_rejected(self):
        # every line's phase is built from its NRD value
        plan = stationary_plan(200.0, [1.0, 0.5], [0.0, 0.3], duration_s=0.1, order=2)
        plan.frames[1].nrd = np.zeros(0)
        for engine in (synth_fre, synth_tim):
            with pytest.raises(ValueError, match="NRD"):
                engine(plan)
        # GLO reads no NRD
        out = synth_glo(plan).samples
        assert out.size == plan.total_length
        assert np.all(np.isfinite(out))

    def test_frame_with_fewer_magnitudes_than_nrd(self):
        # without an envelope a frame's amplitudes are its measured lines,
        # a copy of them, however many NRD entries it has
        plan = stationary_plan(200.0, [1.0, 0.5], [0.0, 0.3], duration_s=0.1, order=2)
        frame = plan.frames[1]
        frame.envelope = None
        frame.magnitudes = np.array([0.8])
        amps = harmonic_amplitudes(frame)
        np.testing.assert_array_equal(amps, [0.8])
        assert not np.shares_memory(amps, frame.magnitudes)
        for engine in (synth_fre, synth_tim):
            with pytest.raises(ValueError, match="1 harmonics but 2 NRD values"):
                engine(plan)
        # GLO renders the lines the frame has
        out = synth_glo(plan).samples
        assert out.size == plan.total_length
        assert np.all(np.isfinite(out))

    def test_edges_at_full_gain(self):
        # f0 at 4 periods per hop, so every hop-long stretch of a stationary
        # render has the same RMS; the first and last hop included
        f0 = 4 * RATE / 512
        plan = stationary_plan(f0, [1.0, 0.6, 0.4], [0.0, 0.3, 0.7], duration_s=0.5, order=6)
        out = synth_fre(plan).samples
        hop = plan.hop

        def rms(x):
            return np.sqrt(np.mean(x**2))

        interior = rms(out[4 * hop : 5 * hop])
        assert rms(out[:hop]) == pytest.approx(interior, rel=0.01)
        assert rms(out[-hop:]) == pytest.approx(interior, rel=0.01)

    def test_one_frame_input(self):
        # a single 1,024-sample voiced frame goes through analysis, FRE and TIM
        x = harmonic_wave(200.0, [1.0, 0.6, 0.4, 0.2], [0.0, 0.3, 0.6, 0.1], 1024)
        frames = analyze_frames(AudioBuffer(x, RATE), 1024)
        assert len(frames) == 1 and frames[0].voiced
        plan = SynthesisPlan(frames=frames, sample_rate=RATE, frame_len=1024, total_length=x.size)
        for engine in (synth_fre, synth_tim):
            out = engine(plan).samples
            assert out.size == 1024
            assert np.all(np.isfinite(out))

    def test_overdense_harmonics_rejected(self):
        # more than N/3 harmonics cannot be injected (still below Nyquist)
        f0 = 60.0
        count = 171
        amps = np.ones(count)
        plan = stationary_plan(f0, amps, np.zeros(count), duration_s=0.2, frame_len=512, order=8)
        with pytest.raises(ValueError):
            synth_fre(plan)


def _analytic_filter(size):
    h = np.zeros(size)
    h[0] = 1
    h[1 : size // 2] = 2
    h[size // 2] = 1
    return h


class TestGlo:
    def test_first_period_matches_direct_convolution(self):
        # the per-period path is exactly: pulse convolved with its response,
        # and the first period is the first P samples of that convolution
        from voicing.analysis import harmonic_amplitudes

        amps = np.array([1.0, 0.8, 0.5, 0.3, 0.2, 0.1, 0.05, 0.03])
        plan = stationary_plan(RATE / 200.0, amps, np.zeros(8), duration_s=0.05, order=8)
        out = synth_glo(plan)
        pulse = synth_glottal_pulse(200).samples
        # interpolated amplitudes at position 0 equal the first frame's
        response = _tilt_compensated_model(harmonic_amplitudes(plan.frames[0]), pulse, 200)
        np.testing.assert_array_equal(out.samples[:200], np.convolve(pulse, response)[:200])

    def test_magnitude_match_to_4khz(self):
        # command shaped like a measured vowel envelope: formant resonances
        # times a glottal source spectrum (slightly different shape than the
        # engine's default pulse, so compensation has real work to do)
        from voicing.analysis import LpcModel, harmonic_amplitudes

        f0 = 120.0
        count = 36  # up to 4320 Hz
        period = int(round(RATE / f0))
        formants = [(730, 90), (1090, 110), (2440, 150), (3400, 220)]
        poles = []
        for fc, bw in formants:
            r = np.exp(-np.pi * bw / RATE)
            poles += [r * np.exp(2j * np.pi * fc / RATE), r * np.exp(-2j * np.pi * fc / RATE)]
        tract = LpcModel(poles, 1.0)
        omega_l = np.arange(1, count + 1) * 2 * np.pi * f0 / RATE
        source = synth_glottal_pulse(period, LfParams(open_quotient=0.66, return_quotient=0.03))
        source_mags = 2 * np.abs(np.fft.fft(source.samples))[1 : count + 1] / period
        amps = tract.magnitude(omega_l) * source_mags
        amps /= amps.max()

        plan = stationary_plan(f0, amps, np.zeros(count), duration_s=0.8, order=18)
        out = synth_glo(plan)
        frames = [f for f in analyze_frames(out, 1024) if f.voiced][2:-2]
        assert len(frames) >= 5
        limit = int(4000 // f0)
        measured = np.median([f.magnitudes[:limit] for f in frames if f.magnitudes.size >= limit], axis=0)
        commanded = harmonic_amplitudes(plan.frames[0])[:limit]
        diff_db = np.abs(20 * np.log10(measured / commanded))
        assert np.max(diff_db) <= 0.1

    def test_low_line_valley(self):
        # a vowel with no source tilt: divided by the pulse's falling lines,
        # its target puts lines 1-2 35-39 dB under the peak, a valley that
        # an all-pole tract response rendered 6-8 dB too strong
        from voicing.analysis import LpcModel, harmonic_amplitudes

        f0, count = 110.0, 40
        period = int(round(RATE / f0))
        poles = []
        for fc, bw in [(700, 225), (1200, 225), (2500, 270)]:
            r = np.exp(-np.pi * bw / RATE)
            poles += [r * np.exp(2j * np.pi * fc / RATE), r * np.exp(-2j * np.pi * fc / RATE)]
        tract = LpcModel(poles, 1.0)
        amps = tract.magnitude(np.arange(1, count + 1) * 2 * np.pi * f0 / RATE)
        plan = stationary_plan(f0, amps, np.zeros(count), duration_s=0.8, order=18)
        for frame in plan.frames:
            frame.envelope = tract  # the command is the tract itself, not a fit to it
        commanded = harmonic_amplitudes(plan.frames[0])
        pulse_mags = 2 * np.abs(np.fft.fft(synth_glottal_pulse(period).samples))[1 : count + 1] / period
        target_db = 20 * np.log10(commanded / pulse_mags)
        assert np.all((target_db.max() - target_db[:2] >= 35) & (target_db.max() - target_db[:2] <= 39))

        frames = [f for f in analyze_frames(synth_glo(plan), 1024) if f.voiced][2:-2]
        assert len(frames) >= 5
        measured = np.median([f.magnitudes[:2] for f in frames], axis=0)
        assert np.max(np.abs(20 * np.log10(measured / commanded[:2]))) <= 0.1

    def test_one_fit_per_model(self, monkeypatch):
        # GLO builds its tract responses in closed form: no envelope is fitted
        import voicing.analysis as analysis_module
        import voicing.synthesis as synthesis_module

        def no_fit(*args, **kwargs):
            raise AssertionError("envelope fitted")

        amps = [1.0, 0.7, 0.45, 0.3, 0.2, 0.12, 0.1, 0.08]
        plan = stationary_plan(118.0, amps, np.zeros(8), duration_s=0.3, order=10)
        monkeypatch.setattr(analysis_module, "fit_lpc_envelope", no_fit)
        assert not hasattr(synthesis_module, "fit_lpc_envelope")
        assert np.all(np.isfinite(synth_glo(plan).samples))

    def test_render_is_pulse_lines_times_response(self):
        # overlap-added at period offsets, the pulse convolved with its
        # response renders the pulse's lines times the response's, and those
        # are the commanded lines, whether they stop short of Nyquist or not
        from voicing.analysis import LpcModel

        poles = [0.99 * np.exp(0.3j), 0.99 * np.exp(-0.3j), 0.9 * np.exp(1.2j), 0.9 * np.exp(-1.2j)]
        model = LpcModel(poles, 1.0)
        for period in (88, 184, 368):
            lines = (period - 1) // 2
            pulse = synth_glottal_pulse(period).samples
            for count in (lines // 3, lines):
                amps = model.magnitude(2 * np.pi * np.arange(1, count + 1) / period)
                response = _tilt_compensated_model(amps, pulse, period)
                rendered = _rendered_line_magnitudes(np.convolve(pulse, response), period, lines)
                pulse_mags = 2 * np.abs(np.fft.fft(pulse)[1 : lines + 1]) / period
                np.testing.assert_allclose(rendered, pulse_mags * np.abs(np.fft.fft(response)[1 : lines + 1]), rtol=1e-12)
                np.testing.assert_allclose(rendered[:count], amps, rtol=1e-9, err_msg=str(period))

    @settings(max_examples=40)
    @given(period=st.integers(16, 367), amps=st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=183))
    # the last commanded line already under the floor
    @example(period=40, amps=[1.0, 0.5, 1e-4])
    def test_response_renders_the_command(self, period, amps):
        # every commanded line exactly, also those under the -60 dB floor;
        # past them the level falls 6 dB per line from the last commanded
        # one and stops 60 dB under the strongest, or at once if the last is
        # already lower
        lines = (period - 1) // 2
        amps = np.array(amps[:lines])
        pulse = synth_glottal_pulse(period).samples
        response = _tilt_compensated_model(amps, pulse, period)
        rendered = _rendered_line_magnitudes(np.convolve(pulse, response), period, lines)
        np.testing.assert_allclose(rendered[: amps.size], amps, rtol=1e-9)
        rolled = amps[-1] * 10 ** (-6 * np.arange(1, lines - amps.size + 1) / 20)
        floor = min(amps[-1], amps.max() * 10 ** (-60 / 20))
        np.testing.assert_allclose(rendered[amps.size :], np.maximum(rolled, floor), rtol=1e-9)
        # minimum phase: the response is the one its own magnitude gives
        # through the causal fold of its real cepstrum
        cepstrum = np.fft.ifft(np.log(np.abs(np.fft.fft(response)))).real
        fold = np.zeros(period)
        fold[0] = 1.0
        fold[1 : (period + 1) // 2] = 2.0
        if period % 2 == 0:
            fold[period // 2] = 1.0  # the Nyquist quefrency is its own mirror
        minimum = np.fft.ifft(np.exp(np.fft.fft(fold * cepstrum))).real
        np.testing.assert_allclose(response, minimum, rtol=0, atol=1e-9 * np.abs(response).max())

    def test_non_positive_command_rejected(self):
        pulse = synth_glottal_pulse(200).samples
        for amps in ([], [1.0, 0.0, 0.5], [1.0, np.nan]):
            with pytest.raises(ValueError, match="positive amplitude"):
                _tilt_compensated_model(np.array(amps), pulse, 200)

    def test_stationary_output_is_filtered_pulse_train(self, monkeypatch):
        # with one command, the output is the first response's first period,
        # then that response folded into one period and tiled
        import voicing.synthesis as synthesis_module

        responses = []

        def recording(*args):
            responses.append(_tilt_compensated_model(*args))
            return responses[-1]

        monkeypatch.setattr(synthesis_module, "_tilt_compensated_model", recording)
        amps = [1.0, 0.7, 0.45, 0.3, 0.2, 0.12, 0.1, 0.08]
        plan = stationary_plan(RATE / 200.0, amps, np.zeros(8), duration_s=0.3, order=10)
        out = synth_glo(plan).samples
        assert len(responses) == 1
        pulse = synth_glottal_pulse(200).samples
        response = np.convolve(pulse, responses[0])
        folded = response[:200] + np.append(response[200:], 0.0)
        np.testing.assert_array_equal(out[:200], response[:200])
        np.testing.assert_array_equal(out[200:], np.tile(folded, -(-out.size // 200))[200 : out.size])

    def test_each_fit_is_logged(self, monkeypatch, caplog):
        # one DEBUG record per new command, with how closely it is rendered
        import voicing.synthesis as synthesis_module

        calls = []

        def recording(*args):
            calls.append(args)
            return _tilt_compensated_model(*args)

        monkeypatch.setattr(synthesis_module, "_tilt_compensated_model", recording)
        with caplog.at_level("DEBUG", logger="voicing.synthesis"):
            synth_glo(_two_command_plan())
        records = [r.getMessage() for r in caplog.records if r.name == "voicing.synthesis"]
        assert len(calls) == 4
        assert len(records) == len(calls)
        for message in records:
            assert message.startswith("GLO period 200: 8 commanded lines rendered within ")
            assert float(message.split("within ")[1].removesuffix(" dB")) <= 1e-6

    def test_rendered_lines_read_for_the_record_only_under_debug(self, monkeypatch, caplog):
        # each new command reads the pulse's lines; only the DEBUG record
        # reads the response's too, and the render does not depend on it
        import voicing.synthesis as synthesis_module

        calls = []

        def counting(*args):
            calls.append(args)
            return _rendered_line_magnitudes(*args)

        monkeypatch.setattr(synthesis_module, "_rendered_line_magnitudes", counting)
        renders = []
        for level, per_command in (("INFO", 1), ("DEBUG", 2)):
            calls.clear()
            with caplog.at_level(level, logger="voicing.synthesis"):
                renders.append(synth_glo(_two_command_plan()).samples)
            assert len(calls) == 4 * per_command, level
        np.testing.assert_array_equal(renders[0], renders[1])

    def test_contour_roundtrip(self):
        plan = stationary_plan(110.0, [1.0, 0.7, 0.5, 0.3], np.zeros(4), duration_s=0.6, order=8)
        out = synth_glo(plan)
        track = segment_track(out, auto_seed(out))
        assert len(track) >= 50
        assert set(np.unique(track.period_lengths)) <= {200, 201}


    def test_too_short_period_rejected(self):
        plan = stationary_plan(RATE / 10.0, [1.0, 0.5], [0.0, 0.0], duration_s=0.1, order=2)
        with pytest.raises(ValueError, match="at least 16 samples"):
            synth_glo(plan)

    def test_lf_constants_solved_once_per_shape(self, monkeypatch):
        # a glide gives GLO a new command, and a new pulse, at nearly every
        # period; all of them share one shape, so its two roots are solved once
        import voicing.synthesis as synthesis_module

        roots = []
        pulses = []
        real_brentq = synthesis_module.brentq

        def counting_roots(*args, **kwargs):
            roots.append(args)
            return real_brentq(*args, **kwargs)

        def counting_pulses(*args):
            pulses.append(args)
            return synth_glottal_pulse(*args)

        monkeypatch.setattr(synthesis_module, "brentq", counting_roots)
        monkeypatch.setattr(synthesis_module, "synth_glottal_pulse", counting_pulses)
        monkeypatch.setattr(synthesis_module, "_LF_CACHE", {})
        synth_glo(glide_plan(100.0, 250.0, duration_s=0.25))
        assert len(pulses) > 2
        assert len(roots) == 2

    def test_refits_only_when_the_command_changes(self, monkeypatch):
        # frames 0-3 command A and frames 4-7 command B at one period of 200
        # samples.  Periods start at multiples of 200, and only 2200 and
        # 2400 fall strictly between the anchors of frames 3 and 4 (2048 and
        # 2560), so: one response for A, one per transition command, one for
        # B, each built for a pulse of its own
        import voicing.synthesis as synthesis_module
        from voicing.analysis import harmonic_amplitudes

        calls = []
        pulses = []

        def recording(amps, pulse_samples, period):
            calls.append(np.array(amps))
            return _tilt_compensated_model(amps, pulse_samples, period)

        def counting(*args):
            pulses.append(args)
            return synth_glottal_pulse(*args)

        monkeypatch.setattr(synthesis_module, "_tilt_compensated_model", recording)
        monkeypatch.setattr(synthesis_module, "synth_glottal_pulse", counting)
        plan = _two_command_plan()
        synth_glo(plan)
        assert len(calls) == 4
        assert len(pulses) == len(calls)
        np.testing.assert_array_equal(calls[0], harmonic_amplitudes(plan.frames[0]))
        np.testing.assert_array_equal(calls[-1], harmonic_amplitudes(plan.frames[-1]))


def _two_command_plan():
    """Eight frames at a period of 200 samples: frames 0-3 carry one
    8-line command and frames 4-7 another."""
    omega0 = 2 * np.pi / 200
    commands = [
        np.array([1.0, 0.7, 0.45, 0.3, 0.2, 0.12, 0.1, 0.08]),
        np.array([1.0, 0.5, 0.6, 0.2, 0.25, 0.1, 0.05, 0.04]),
    ]
    envelopes = [fit_lpc_envelope(amps, omega0, 10) for amps in commands]
    frames = [
        FrameParams(
            frame_index=m,
            voiced=True,
            omega0=omega0,
            a0=1.0,
            nrd=np.zeros(8),
            magnitudes=commands[m // 4],
            envelope=envelopes[m // 4],
        )
        for m in range(8)
    ]
    return SynthesisPlan(frames=frames, sample_rate=RATE)


class TestSameRenders:
    @given(plan=random_plans())
    @settings(max_examples=80, deadline=None)
    def test_fre_and_tim_match_the_per_frame_and_per_period_loops(self, plan):
        np.testing.assert_array_equal(synth_fre(plan).samples, reference_synth_fre(plan))
        np.testing.assert_array_equal(synth_tim(plan).samples, reference_synth_tim(plan))

    @given(plan=random_plans())
    @settings(max_examples=80, deadline=None)
    def test_glo_matches_the_per_period_loop(self, plan):
        # where GLO raises, the loop raises the same exception
        try:
            want = reference_synth_glo(plan)
        except Exception as error:
            with pytest.raises(type(error), match=re.escape(str(error))):
                synth_glo(plan)
        else:
            np.testing.assert_array_equal(synth_glo(plan).samples, want)

    @given(plan=track_plans())
    @settings(max_examples=80, deadline=None)
    def test_period_table_is_the_per_period_walk(self, plan):
        got = list(_ParamTrack(plan).periods(plan.total_length))
        want = list(reference_periods(plan))
        assert [row[:2] for row in got] == [row[:2] for row in want]
        for (_, _, amps, nrd), (_, _, want_amps, want_nrd) in zip(got, want):
            for value, expected in ((amps, want_amps), (nrd, want_nrd)):
                assert value.shape == expected.shape and value.dtype == expected.dtype
                assert value.tobytes() == expected.tobytes()

    def test_kept_amplitudes_are_read_only(self):
        # `at` hands the last frame's kept amplitudes out as they are from
        # its anchor on (t = 1)
        plan = glide_plan(100.0, 250.0, duration_s=0.1)
        track = _ParamTrack(plan)
        _, amps, _ = track.at(track.anchors[-1])
        assert amps is track.amps[-1]
        with pytest.raises(ValueError):
            amps[0] = 2.0


class TestParamTrack:
    """`_ParamTrack.at` on two-frame plans: frame 0 anchored at sample 512,
    frame 1 at 1024, so position 512 + 512 t reads the pair at t."""

    @staticmethod
    def _frame(idx, f0, amps, nrd, order=6):
        omega0 = 2 * np.pi * f0 / RATE
        return FrameParams(
            frame_index=idx,
            voiced=True,
            omega0=omega0,
            a0=amps[0],
            phi0=0.1,
            nrd=np.asarray(nrd, dtype=float),
            magnitudes=np.asarray(amps, dtype=float),
            envelope=fit_lpc_envelope(amps, omega0, order),
        )

    @staticmethod
    def _track(*frames):
        return _ParamTrack(SynthesisPlan(frames=list(frames), sample_rate=RATE, frame_len=1024))

    def test_endpoints_exact(self):
        left = self._frame(0, 110, [1.0, 0.5, 0.25, 0.1], [0.0, 0.1, 0.2, 0.3])
        right = self._frame(1, 120, [0.8, 0.6, 0.3, 0.2], [0.0, 0.2, 0.1, 0.4])
        track = self._track(left, right)
        w0, amps, nrd = track.at(512)
        assert w0 == left.omega0
        np.testing.assert_array_equal(nrd, left.nrd)
        np.testing.assert_array_equal(amps, harmonic_amplitudes(left))
        w1, amps1, nrd1 = track.at(1024)
        assert w1 == right.omega0
        np.testing.assert_array_equal(nrd1, right.nrd)
        np.testing.assert_array_equal(amps1, harmonic_amplitudes(right))

    def test_identical_sides_exact(self):
        left = self._frame(0, 110, [1.0, 0.5, 0.25, 0.1], [0.0, 0.1, 0.2, 0.3])
        right = FrameParams(
            frame_index=1,
            voiced=True,
            omega0=left.omega0,
            a0=left.a0,
            nrd=left.nrd.copy(),
            magnitudes=left.magnitudes.copy(),
            envelope=left.envelope,
        )
        track = self._track(left, right)
        for t in (0.0, 0.3, 0.7, 0.999):
            w, amps, nrd = track.at(512 + 512 * t)
            assert w == left.omega0
            np.testing.assert_array_equal(amps, harmonic_amplitudes(left))
            np.testing.assert_array_equal(nrd, left.nrd)

    def test_midpoint_omega(self):
        left = self._frame(0, 110, [1.0, 0.5], [0.0, 0.1], order=2)
        right = self._frame(1, 120, [1.0, 0.5], [0.0, 0.1], order=2)
        left.omega0, right.omega0 = 0.030, 0.034
        w0, _, _ = self._track(left, right).at(768)
        assert w0 == pytest.approx(0.032, abs=1e-15)

    def test_count_mismatch_common_prefix(self):
        left = self._frame(0, 110, [1.0, 0.5, 0.25], [0.0, 0.1, 0.2])
        right = self._frame(1, 110, [1.0, 0.5, 0.25, 0.125, 0.06], [0.0, 0.1, 0.2, 0.3, 0.4])
        _, amps, nrd = self._track(left, right).at(768)
        assert amps.size == 5 and nrd.size == 5
        np.testing.assert_allclose(nrd[:3], 0.5 * (left.nrd + right.nrd[:3]))
        np.testing.assert_array_equal(nrd[3:], right.nrd[3:])
        np.testing.assert_array_equal(amps[3:], harmonic_amplitudes(right)[3:])

    def test_clamped_outside_the_anchors(self):
        left = self._frame(0, 110, [1.0, 0.5, 0.25], [0.0, 0.1, 0.2])
        right = self._frame(1, 130, [0.7, 0.4, 0.3], [0.0, 0.3, 0.5])
        track = self._track(left, right)
        for position in (0, 511.5):
            w, amps, nrd = track.at(position)
            assert w == left.omega0
            np.testing.assert_array_equal(amps, harmonic_amplitudes(left))
            np.testing.assert_array_equal(nrd, left.nrd)
        for position in (1024.5, 5000):
            w, amps, nrd = track.at(position)
            assert w == right.omega0
            np.testing.assert_array_equal(amps, harmonic_amplitudes(right))
            np.testing.assert_array_equal(nrd, right.nrd)
        # a lone voiced frame is read everywhere
        alone = self._track(left, FrameParams(frame_index=1, voiced=False))
        for position in (0, 512, 5000):
            w, amps, nrd = alone.at(position)
            assert w == left.omega0
            np.testing.assert_array_equal(amps, harmonic_amplitudes(left))
            np.testing.assert_array_equal(nrd, left.nrd)


class TestGlide:
    def test_every_engine_renders_a_glide(self):
        # f0 from 100 to 250 Hz with 6 commanded lines: the GLO refit order
        # has to stay within what 6 lines constrain
        plan = glide_plan(100.0, 250.0, duration_s=0.25)
        for engine in (synth_fre, synth_tim, synth_glo):
            out = engine(plan)
            assert out.samples.size == plan.total_length
            assert np.all(np.isfinite(out.samples))
            voiced = [f for f in analyze_frames(out, 1024) if f.voiced]
            assert len(voiced) >= len(plan.frames) - 2
            for f in voiced:
                commanded = plan.frames[min(f.frame_index, len(plan.frames) - 1)].omega0
                assert f.omega0 == pytest.approx(commanded, rel=0.05)


class TestPlan:
    @pytest.mark.parametrize("f0", F0_RANGE_HZ)
    def test_f0_at_the_range_bounds(self, f0):
        # the longest and shortest periods analysis can report (368 and 44 samples)
        plan = stationary_plan(f0, [1.0, 0.6, 0.4, 0.25], np.zeros(4), duration_s=0.3, order=6)
        for engine in (synth_fre, synth_tim, synth_glo):
            out = engine(plan).samples
            assert out.size == plan.total_length
            assert np.all(np.isfinite(out))

    def test_no_frames_rejected(self):
        with pytest.raises(ValueError, match="at least one frame"):
            SynthesisPlan(frames=[], sample_rate=RATE)

    def test_all_unvoiced_rejected(self):
        plan = SynthesisPlan(frames=[FrameParams(frame_index=m, voiced=False) for m in range(3)], sample_rate=RATE)
        for engine in (synth_fre, synth_tim, synth_glo):
            with pytest.raises(ValueError, match="no voiced frames"):
                engine(plan)

    def test_empty_length_rejected(self):
        frames = stationary_plan(110.0, [1.0, 0.5], [0.0, 0.0], duration_s=0.1, order=2).frames
        for total in (0, -5):
            for engine in (synth_fre, synth_tim, synth_glo):
                with pytest.raises(ValueError, match="total_length"):
                    engine(SynthesisPlan(frames=frames, sample_rate=RATE, total_length=total))


class TestCompareEngines:
    def test_identity(self):
        x = harmonic_wave(130.0, [1.0, 0.6, 0.3], [0.0, 0.2, 0.5], RATE // 2)
        buf = AudioBuffer(x, RATE)
        rep = compare_engines(buf, buf)
        assert rep["f0_rms_diff_hz"] == pytest.approx(0.0, abs=1e-12)
        assert rep["magnitude_diff_db_mean"] == pytest.approx(0.0, abs=1e-12)
        assert rep["waveform_correlation"] == pytest.approx(1.0, abs=1e-12)
        assert rep["waveform_lag_samples"] == 0

    def test_fits_no_envelope(self, monkeypatch):
        # the report reads only measured lines, so envelope fitting must not run
        import voicing.analysis as analysis_module

        def no_fit(*args, **kwargs):
            raise AssertionError("envelope fitted")

        monkeypatch.setattr(analysis_module, "fit_lpc_envelope", no_fit)
        plan = stationary_plan(118.0, [1.0, 0.7, 0.45, 0.3], [0.0, 0.2, 0.5, 0.9], duration_s=0.3, order=6)
        out = synth_fre(plan)
        assert all(f.envelope is None for f in analyze_frames(out, 1024))
        rep = compare_engines(out, synth_tim(plan), plan)
        assert rep["magnitude_diff_db_mean"] is not None

    def test_fre_vs_tim_similar_waveforms(self):
        amps = [1.0, 0.7, 0.45, 0.3, 0.2, 0.12]
        nrd = [0.0, 0.15, 0.42, 0.7, 0.05, 0.33]
        f0 = 5 * RATE / 1024
        plan = stationary_plan(f0, amps, nrd, duration_s=0.6, order=10)
        a = synth_fre(plan)
        b = synth_tim(plan)
        rep = compare_engines(a, b, plan)
        assert rep["waveform_correlation"] >= 0.95

    def test_fre_vs_glo_same_envelope_different_shape(self):
        amps = [1.0, 0.7, 0.45, 0.3, 0.2, 0.12, 0.1, 0.08]
        nrd = [0.0, 0.15, 0.42, 0.7, 0.05, 0.33, 0.6, 0.2]
        plan = stationary_plan(118.0, amps, nrd, duration_s=0.6, order=10)
        a = synth_fre(plan)
        b = synth_glo(plan)
        rep = compare_engines(a, b, plan)
        assert rep["magnitude_diff_db_mean"] is not None
        assert rep["magnitude_diff_db_mean"] <= 3.0

    def test_aligned_correlation_matches_per_lag_loop(self):
        def per_lag_loop(a, b, max_lag):
            seg = min(a.size, b.size) - 2 * max_lag
            ref = a[max_lag : max_lag + seg]
            best = (-np.inf, 0)
            for lag in range(-max_lag, max_lag + 1):
                win = b[max_lag + lag : max_lag + lag + seg]
                corr = float(np.dot(ref, win) / (np.linalg.norm(ref) * np.linalg.norm(win)))
                if corr > best[0]:
                    best = (corr, lag)
            return best

        rng = np.random.default_rng(5)
        x = harmonic_wave(130.0, [1.0, 0.6, 0.3, 0.2], [0.0, 0.2, 0.5, 0.9], RATE // 2 + 100)
        x += 0.01 * rng.standard_normal(x.size)
        max_lag = int(round(RATE / 130.0)) + 1
        for shift in (0, 23, 61, 100):
            a, b = x[: RATE // 2], x[shift : shift + RATE // 2]
            corr, lag = _aligned_correlation(a, b, max_lag)
            want_corr, want_lag = per_lag_loop(a, b, max_lag)
            assert lag == want_lag
            assert abs(corr - want_corr) <= 1e-12

    @pytest.mark.parametrize("frame_len", [1024, 2048])
    def test_command_read_at_each_measured_frame_centre(self, frame_len):
        # measured frame i is centred at 512 i + 512, plan frame i at
        # hop i + frame_len / 2: each measured frame is scored against the
        # glide's f0 at its own centre, where the nearest plan frame is voiced
        plan = glide_plan(100.0, 250.0, duration_s=0.5, frame_len=frame_len)
        anchors = [fp.frame_index * plan.hop + frame_len // 2 for fp in plan.frames]
        commanded = [fp.omega0 * RATE / (2 * np.pi) for fp in plan.frames]
        for engine in (synth_fre, synth_tim):
            out = engine(plan)
            voiced = [f for f in analyze_frames(out, 1024) if f.voiced]
            centres = [f.frame_index * 512 + 512 for f in voiced]
            err = [
                np.interp(c, anchors, commanded) - f.omega0 * RATE / (2 * np.pi)
                for f, c in zip(voiced, centres)
                if (c - frame_len // 2 + plan.hop // 2) // plan.hop < len(plan.frames)
            ]
            rep = compare_engines(out, out, plan)
            assert rep["command_f0_rms_hz_a"] == pytest.approx(np.sqrt(np.mean(np.square(err))), rel=1e-9)
            assert rep["command_f0_rms_hz_a"] <= 10.0
            # pairing measured frame i with plan frame i reads about 40 Hz at 2048
            paired = [
                commanded[f.frame_index] - f.omega0 * RATE / (2 * np.pi)
                for f in voiced
                if f.frame_index < len(commanded)
            ]
            if frame_len == 1024:
                assert rep["command_f0_rms_hz_a"] == np.sqrt(np.mean(np.square(paired)))
            else:
                assert np.sqrt(np.mean(np.square(paired))) >= 30.0

    def test_mixed_sample_rates_rejected(self):
        amps, nrd = [1.0, 0.7, 0.45, 0.3, 0.2, 0.12], np.zeros(6)
        a = AudioBuffer(harmonic_wave(150.0, amps, nrd, RATE // 2), RATE)
        b = AudioBuffer(harmonic_wave(150.0, amps, nrd, 8000, rate=16000), 16000)
        with pytest.raises(ValueError, match="audio_a 22050 Hz, audio_b 16000 Hz"):
            compare_engines(a, b)
        plan = stationary_plan(150.0, amps, nrd, duration_s=0.3, rate=16000)
        with pytest.raises(ValueError, match="audio_a 22050 Hz, audio_b 22050 Hz, plan 16000 Hz"):
            compare_engines(a, a, plan)

    def test_unanalyzable_diagnostic(self):
        rng = np.random.default_rng(31)
        noise = AudioBuffer(0.1 * rng.standard_normal(RATE // 2), RATE)
        tone = AudioBuffer(harmonic_wave(150.0, [1.0], [0.0], RATE // 2), RATE)
        rep = compare_engines(tone, noise)
        assert rep["f0_rms_diff_hz"] is None
        assert "diagnostic" in rep
