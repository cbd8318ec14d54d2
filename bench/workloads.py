"""The three benchmark workloads.

A workload is a fixed list of timed calls into the library's public entry
points, built from seeded inputs, plus the accuracy figures computed from
the outputs of one pass over that list.  Calls reach the library through
its module attributes, so the traced run sees them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs as gen
from voicing import analysis, dsp, segmentation, synthesis

RATE = gen.RATE
FRAME_LEN = gen.FRAME_LEN
# A true or commanded line counts as recovered when the output's line is
# within this many dB of it.
RECOVERED_DB = 1.0


class CheckFailed(AssertionError):
    """A call returned, but its output breaks an invariant."""


class MissingInput(RuntimeError):
    """A call's input comes from an earlier call of the pass that failed."""


@dataclass
class Call:
    """One timed call.  `run` takes the pass's earlier outputs (keyed by
    (kind, item)) and returns this call's output; `check` raises
    CheckFailed on a wrong output; exceptions in `expected` are the
    correct answer for this input and count as successes."""

    kind: str
    item: str
    audio_s: float
    run: Callable[[dict], object]
    check: Callable[[object], None] | None = None
    expected: tuple = ()


@dataclass
class Workload:
    calls: list[Call]
    accuracy: Callable[[dict], dict[str, float]]  # first pass's outputs -> figures
    kinds: dict[str, str]  # call kind -> name of its throughput figure


def _need(outputs, key):
    if outputs.get(key) is None:
        raise MissingInput(f"{key[0]} of {key[1]} did not complete")
    return outputs[key]


def check_audio(length):
    def check(audio):
        if audio.samples.size != length:
            raise CheckFailed(f"rendered {audio.samples.size} samples, plan asks for {length}")
        if not np.all(np.isfinite(audio.samples)):
            raise CheckFailed("rendered audio is not finite")

    return check


def _scaled(seconds, scale, minimum):
    return max(seconds * scale, minimum)


# ---------------------------------------------------------------------------
# analyze_vowels
# ---------------------------------------------------------------------------

VOWEL_F0S = (80.0, 140.0, 230.0, 400.0)
# Independent phase draws per f0 and noise condition.  Frames of one
# stationary draw are alike, so the accuracy figures average over draws.
VOWEL_DRAWS = 3


def _check_frames(utt):
    """Clean input: every voiced frame within 1% of the true f0, and at
    least one voiced frame.  Frames wholly inside digital silence are
    unvoiced."""

    def check(frames):
        if utt.clean:
            voiced = [f for f in frames if f.voiced]
            if not voiced:
                raise CheckFailed(f"{utt.name}: no voiced frame")
            for f in voiced:
                f0 = f.omega0 * RATE / gen.TWO_PI
                if abs(f0 / utt.f0 - 1.0) > 0.01:
                    raise CheckFailed(f"{utt.name}: frame {f.frame_index} f0 {f0:.2f} Hz, true {utt.f0:.2f} Hz")
        if utt.silence is not None:
            lo, hi = utt.silence
            for f in frames:
                start = f.frame_index * (FRAME_LEN // 2)
                if lo <= start and start + FRAME_LEN <= hi and f.voiced:
                    raise CheckFailed(f"{utt.name}: silent frame {f.frame_index} analysed as voiced")

    return check


def analyze_vowels(seed: int, scale: float = 1.0) -> Workload:
    utts = [gen.on_grid_vowel(seed, _scaled(0.6, scale, 0.3))]
    for f0 in VOWEL_F0S:
        for snr_db in (None, 40.0):
            for draw in range(VOWEL_DRAWS):
                utts.append(gen.formant_vowel(seed, f0, _scaled(0.2, scale, 0.1), snr_db, draw))
    utts.append(gen.gapped_vowel(seed, _scaled(0.6, scale, 0.4)))

    calls = []
    for utt in utts:
        length = utt.audio.samples.size
        calls.append(
            Call("analyze", utt.name, utt.duration, lambda out, u=utt: analysis.analyze_frames(u.audio, FRAME_LEN), _check_frames(utt))
        )

        def render(out, u=utt):
            frames = _need(out, ("analyze", u.name))
            plan = synthesis.SynthesisPlan(frames=frames, sample_rate=RATE, frame_len=FRAME_LEN, total_length=u.audio.samples.size)
            return synthesis.synth_fre(plan)

        calls.append(Call("fre", utt.name, utt.duration, render, check_audio(length)))

    def accuracy(out):
        # envelope_err_db: mean over voiced frames of clean inputs of the
        # frame's mean |dB| error; phantom_ratio: median over clean inputs
        # of each input's median reported/true harmonic count.
        err, ratio = [], []
        recovered = lines = 0
        for utt in utts:
            frames = out.get(("analyze", utt.name))
            if not utt.clean or frames is None:
                continue
            counts = []
            for f in frames:
                if not f.voiced:
                    continue
                got = analysis.harmonic_amplitudes(f)
                count = min(got.size, utt.amps.size)
                with np.errstate(divide="ignore"):
                    line_err = np.abs(20.0 * np.log10(got[:count] / utt.amps[:count]))
                err.append(float(np.mean(line_err)))
                recovered += int(np.sum(line_err <= RECOVERED_DB))
                lines += utt.amps.size
                counts.append(f.nrd.size / utt.amps.size)
            if counts:
                ratio.append(float(np.median(counts)))
        probe = utts[0]
        rendered = out.get(("fre", probe.name))
        snr = float("nan")
        if rendered is not None:
            x = probe.audio.samples
            core = slice(2 * FRAME_LEN, x.size - 2 * FRAME_LEN)
            e = rendered.samples[core] - x[core]
            snr = float(10.0 * np.log10(np.sum(x[core] ** 2) / np.sum(e**2)))
        return {
            "envelope_err_db": float(np.mean(err)) if err else float("nan"),
            "phantom_ratio": float(np.median(ratio)) if ratio else float("nan"),
            "fre_snr_db": snr,
            "recovered_ratio": recovered / lines if lines else float("nan"),
        }

    return Workload(calls, accuracy, {"analyze": "analyze_xrt", "fre": "fre_xrt"})


# ---------------------------------------------------------------------------
# render_engines
# ---------------------------------------------------------------------------

def render_plans(seed, scale):
    """The four hand-built plans.  Amplitudes are fixed; the seed draws
    only the NRD vectors, which GLO ignores, so GLO gets the same commands
    for every seed."""
    rng = gen.rng_for(seed, 200)
    plans = {}
    amps8 = np.array([1.0, 0.7, 0.45, 0.3, 0.2, 0.12, 0.1, 0.08])
    plans["stationary_118hz_8"] = gen.stationary_plan(118.0, amps8, gen.random_nrd(rng, 8), _scaled(0.3, scale, 0.3), order=10)
    amps6 = np.array([1.0, 0.6, 0.4, 0.25, 0.15, 0.1])
    plans["glide_100_250hz_6"] = gen.glide_plan(100.0, 250.0, amps6, gen.random_nrd(rng, 6), _scaled(0.25, scale, 0.2), order=8)
    amps4 = np.array([1.0, 0.7, 0.5, 0.3])
    plans["stationary_110hz_4"] = gen.stationary_plan(110.0, amps4, gen.random_nrd(rng, 4), _scaled(0.3, scale, 0.2), order=8)
    f0, count = 120.0, 36
    period = int(round(RATE / f0))
    tract = gen.formant_poles([(730, 90), (1090, 110), (2440, 150), (3400, 220)])
    omega_l = np.arange(1, count + 1) * gen.TWO_PI * f0 / RATE
    source = synthesis.synth_glottal_pulse(period, synthesis.LfParams(open_quotient=0.66, return_quotient=0.03))
    source_mags = 2.0 * np.abs(np.fft.fft(source.samples))[1 : count + 1] / period
    amps36 = gen.all_pole_magnitude(tract, omega_l) * source_mags
    amps36 /= amps36.max()
    plans["formant_lf_120hz_36"] = gen.stationary_plan(f0, amps36, gen.random_nrd(rng, count), _scaled(0.4, scale, 0.4), order=18)
    return plans


def _check_report(report):
    if report.get("magnitude_diff_db_mean") is None:
        raise CheckFailed(f"comparison found no common voiced frames: {report.get('diagnostic')}")


def render_engines(seed: int, scale: float = 1.0) -> Workload:
    plans = render_plans(seed, scale)
    calls = []
    for name, plan in plans.items():
        dur = plan.total_length / RATE
        for kind, engine in (("fre", "synth_fre"), ("tim", "synth_tim"), ("glo", "synth_glo")):
            calls.append(
                Call(kind, name, dur, lambda out, p=plan, e=engine: getattr(synthesis, e)(p), check_audio(plan.total_length))
            )
    probe = "stationary_118hz_8"
    probe_plan = plans[probe]
    for other in ("tim", "glo"):
        calls.append(
            Call(
                "compare",
                f"{probe}_fre_vs_{other}",
                probe_plan.total_length / RATE,
                lambda out, o=other: synthesis.compare_engines(_need(out, ("fre", probe)), _need(out, (o, probe)), probe_plan),
                _check_report,
            )
        )

    def accuracy(out):
        result = {"glo_mag_err_db": float("nan"), "engine_mag_diff_db": float("nan"), "recovered_ratio": float("nan")}
        rendered = out.get(("glo", "formant_lf_120hz_36"))
        if rendered is not None:
            plan = plans["formant_lf_120hz_36"]
            f0 = plan.frames[0].omega0 * RATE / gen.TWO_PI
            limit = int(4000 // f0)
            frames = [f for f in analysis.analyze_frames(rendered, FRAME_LEN) if f.voiced][2:-2]
            frames = [f for f in frames if f.magnitudes.size >= limit]
            if frames:
                measured = np.median([f.magnitudes[:limit] for f in frames], axis=0)
                commanded = analysis.harmonic_amplitudes(plan.frames[0])[:limit]
                line_err = np.abs(20.0 * np.log10(measured / commanded))
                result["glo_mag_err_db"] = float(np.max(line_err))
                result["recovered_ratio"] = float(np.mean(line_err <= RECOVERED_DB))
        report = out.get(("compare", f"{probe}_fre_vs_glo"))
        if report is not None:
            result["engine_mag_diff_db"] = float(report["magnitude_diff_db_mean"])
        return result

    kinds = {"fre": "fre_xrt", "tim": "tim_xrt", "glo": "glo_xrt", "compare": "compare_xrt"}
    return Workload(calls, accuracy, kinds)


# ---------------------------------------------------------------------------
# track_periods
# ---------------------------------------------------------------------------

def _check_track(ti):
    def check(track):
        if ti.expect_lost:
            if not track.lost or len(track) != 0:
                raise CheckFailed(f"{ti.name}: tracked {len(track)} periods in a signal with no voicing")
            return
        for prev, cur in zip(track.periods, track.periods[1:]):
            if cur.start_sample != prev.start_sample + prev.length:
                raise CheckFailed(f"{ti.name}: period at {cur.start_sample} does not start where the last ended")

    return check


# Independent draws of each contour shape; auto_seed sees only the first
# ~0.13 s, so several short utterances probe it more than one long one.
# About one jittered draw in five locks auto_seed onto twice the period;
# the track then grows its period estimate before it is lost, and
# align_onset's P-by-P arrays set the run's peak memory.  More draws make
# such a draw likelier but let its cost reach further into the tail, and
# vary more by seed: with 8 draws the quartile spread over 5 seeds was
# 0.08 for xrt_norm and peak_rss_mb, against 0.06 for both with 3.
TRACK_DRAWS = 3


def track_periods(seed: int, scale: float = 1.0) -> Workload:
    items = gen.track_inputs(seed, _scaled(0.45, scale, 0.2), _scaled(0.1, scale, 0.05), TRACK_DRAWS)
    calls = []
    for ti in items:

        def segment(out, t=ti):
            return segmentation.segment_track(t.audio, segmentation.auto_seed(t.audio))

        expected = (segmentation.SegmentationLost,) if ti.expect_lost else ()
        calls.append(Call("segment", ti.name, ti.duration, segment, _check_track(ti), expected))

    def accuracy(out):
        # track_coverage: voiced samples inside the span of tracked periods
        covered = voiced = 0
        for ti in items:
            if ti.expect_lost:
                continue
            voiced += ti.voiced_samples
            track = out.get(("segment", ti.name))
            if track is None or not track.periods:
                continue
            start = track.periods[0].start_sample
            end = track.periods[-1].start_sample + track.periods[-1].length
            covered += max(0, min(end, ti.voiced_samples) - start)
        coverage = covered / voiced if voiced else float("nan")
        return {"track_coverage": coverage, "recovered_ratio": coverage}

    return Workload(calls, accuracy, {"segment": "segment_xrt"})


WORKLOADS = {w.__name__: w for w in (analyze_vowels, render_engines, track_periods)}


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Set-up as a user pays it: empty the library's lazily filled caches,
    build the inputs and plans, then fill the caches again."""
    for cache in (getattr(analysis, "_PEAK_TABLES", None), getattr(synthesis, "_LF_CACHE", None)):
        if isinstance(cache, dict):
            cache.clear()
    workload = WORKLOADS[name](seed, scale)
    window = dsp.make_sqrt_shifted_hanning(FRAME_LEN)
    tone = np.sin(gen.TWO_PI * 5.5 * np.arange(FRAME_LEN) / FRAME_LEN)
    analysis.estimate_pitch_frame(dsp.odft(tone * window), RATE)
    synthesis.synth_glottal_pulse(200)
    return workload
