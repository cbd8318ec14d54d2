"""Seeded signal and plan generators for the benchmark workloads.

These are the benchmark's own copies of the test helpers (harmonic_wave,
stationary_plan, glide_plan), so that an edit to the tests cannot change
what the benchmark measures.  Every generator draws from a generator
seeded by ``(seed, tag)``; the same seed always yields the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from voicing import analysis, synthesis
from voicing.dsp import AudioBuffer

RATE = 22050
FRAME_LEN = 1024
TWO_PI = 2.0 * np.pi

# Formant frequencies and bandwidths (Hz) of the /a/-like vowel used for
# the analysis inputs, plus two real poles for the source's spectral tilt.
VOWEL_FORMANTS = [(700, 110), (1220, 120), (2600, 160), (3300, 200)]
VOWEL_TILT_POLES = [0.98, 0.9]
# Harmonics of the 4-formant vowel run up to this frequency: 130 lines at
# 80 Hz down to 26 lines at 400 Hz.
LINE_CEILING_HZ = 10400.0


def rng_for(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(tag)])


def harmonic_wave(f0, amps, nrd, n_samples, rate=RATE, phi0=0.0):
    """Additive synthesis of a stationary harmonic signal with known NRD."""
    n = np.arange(n_samples)
    omega0 = TWO_PI * f0 / rate
    x = np.zeros(n_samples)
    for ell, (a, d) in enumerate(zip(amps, nrd)):
        x += a * np.sin((ell + 1) * omega0 * n + TWO_PI * d + (ell + 1) * phi0)
    return x


def random_nrd(rng, count):
    return np.concatenate([[0.0], rng.uniform(0.0, 1.0, count - 1)])


def all_pole_magnitude(poles, omega):
    """|1 / prod(1 - p e^-jw)| at angular frequencies `omega`."""
    z = np.exp(-1j * np.asarray(omega, dtype=np.float64))
    den = np.prod(1.0 - np.asarray(poles)[None, :] * z[:, None], axis=1)
    return 1.0 / np.abs(den)


def formant_poles(formants, rate=RATE):
    poles = []
    for fc, bw in formants:
        r = np.exp(-np.pi * bw / rate)
        poles += [r * np.exp(2j * np.pi * fc / rate), r * np.exp(-2j * np.pi * fc / rate)]
    return poles


def vowel_amplitudes(f0, count, rate=RATE):
    """Line amplitudes of the 4-formant vowel, peak 1."""
    omega_l = np.arange(1, count + 1) * TWO_PI * f0 / rate
    amps = all_pole_magnitude(formant_poles(VOWEL_FORMANTS, rate) + VOWEL_TILT_POLES, omega_l)
    return amps / amps.max()


def on_grid_vowel_amplitudes(f0, count, rate=RATE):
    """The 5-pole, 63 dB-range envelope of the FRE round-trip probe."""
    poles = [0.96 * np.exp(2j * np.pi * 700 / rate), 0.94 * np.exp(2j * np.pi * 1900 / rate)]
    poles += [np.conj(p) for p in poles] + [0.85]
    omega_l = np.arange(1, count + 1) * TWO_PI * f0 / rate
    amps = all_pole_magnitude(poles, omega_l)
    return amps / amps.max()


# ---------------------------------------------------------------------------
# Plans for the engines
# ---------------------------------------------------------------------------

def _frame(index, omega0, amps, nrd, envelope):
    return analysis.FrameParams(
        frame_index=index,
        voiced=True,
        omega0=omega0,
        a0=float(amps[0]),
        phi0=None,
        nrd=np.asarray(nrd, dtype=np.float64),
        magnitudes=np.asarray(amps, dtype=np.float64),
        envelope=envelope,
    )


def _frame_count(total, frame_len):
    return max(2, (total - frame_len) // (frame_len // 2) + 1)


def stationary_plan(f0, amps, nrd, duration_s, order, rate=RATE, frame_len=FRAME_LEN):
    """Plan of identical voiced frames; one envelope fit."""
    total = int(duration_s * rate)
    omega0 = TWO_PI * f0 / rate
    env = analysis.fit_lpc_envelope(np.asarray(amps, dtype=np.float64), omega0, order)
    frames = [_frame(m, omega0, amps, nrd, env) for m in range(_frame_count(total, frame_len))]
    return synthesis.SynthesisPlan(frames=frames, sample_rate=rate, frame_len=frame_len, total_length=total)


def glide_plan(f_start, f_stop, amps, nrd, duration_s, order, rate=RATE, frame_len=FRAME_LEN):
    """Plan whose f0 moves linearly from f_start to f_stop; one fit per frame."""
    hop = frame_len // 2
    total = int(duration_s * rate)
    frames = []
    for m in range(_frame_count(total, frame_len)):
        center = m * hop + frame_len // 2
        f = f_start + (f_stop - f_start) * min(center / total, 1.0)
        omega0 = TWO_PI * f / rate
        env = analysis.fit_lpc_envelope(np.asarray(amps, dtype=np.float64), omega0, order)
        frames.append(_frame(m, omega0, amps, nrd, env))
    return synthesis.SynthesisPlan(frames=frames, sample_rate=rate, frame_len=frame_len, total_length=total)


# ---------------------------------------------------------------------------
# Utterances for analysis
# ---------------------------------------------------------------------------

@dataclass
class Utterance:
    """One input signal plus the construction truth the checks need."""

    name: str
    audio: AudioBuffer
    f0: float  # true f0 of the voiced part, Hz
    amps: np.ndarray  # true line amplitudes of the voiced part
    clean: bool  # no added noise, no gap: f0 and envelope checks apply
    silence: tuple[int, int] | None = None  # sample span that is digital silence

    @property
    def duration(self) -> float:
        return self.audio.duration


def on_grid_vowel(seed, duration_s, rate=RATE):
    """Stationary 40-harmonic vowel with f0 on the ODFT half-bin grid."""
    rng = rng_for(seed, 1)
    f0 = 5 * rate / FRAME_LEN
    amps = on_grid_vowel_amplitudes(f0, 40, rate)
    x = harmonic_wave(f0, amps, random_nrd(rng, 40), int(duration_s * rate), rate, phi0=rng.uniform(0, TWO_PI))
    return Utterance("ongrid_5pole", AudioBuffer(x, rate), f0, amps, clean=True)


def formant_vowel(seed, f0, duration_s, snr_db=None, draw=0, rate=RATE):
    """Stationary 4-formant vowel; white noise `snr_db` below it if given.
    Each `draw` has its own harmonic phases (and noise)."""
    rng = rng_for(seed, 1000 + 10 * int(f0) + 2 * draw + (snr_db is not None))
    count = int(LINE_CEILING_HZ // f0)
    amps = 0.3 * vowel_amplitudes(f0, count, rate)
    x = harmonic_wave(f0, amps, random_nrd(rng, count), int(duration_s * rate), rate, phi0=rng.uniform(0, TWO_PI))
    name = f"vowel_{int(f0)}hz_{draw}"
    if snr_db is not None:
        x = x + rng.standard_normal(x.size) * np.sqrt(np.mean(x**2)) * 10 ** (-snr_db / 20)
        name += f"_snr{int(snr_db)}"
    return Utterance(name, AudioBuffer(x, rate), f0, amps, clean=snr_db is None)


def gapped_vowel(seed, duration_s, rate=RATE):
    """Voiced, silence, voiced, then a noise tail, in equal quarters."""
    rng = rng_for(seed, 2)
    f0 = 140.0
    count = int(LINE_CEILING_HZ // f0)
    amps = 0.3 * vowel_amplitudes(f0, count, rate)
    quarter = int(duration_s * rate) // 4
    voiced = harmonic_wave(f0, amps, random_nrd(rng, count), 2 * quarter, rate)
    x = np.concatenate(
        [
            voiced[:quarter],
            np.zeros(quarter),
            voiced[quarter:],
            0.01 * rng.standard_normal(quarter),
        ]
    )
    return Utterance("gap_noise_tail", AudioBuffer(x, rate), f0, amps, clean=False, silence=(quarter, 2 * quarter))


# ---------------------------------------------------------------------------
# Utterances for segmentation
# ---------------------------------------------------------------------------

@dataclass
class TrackInput:
    """A signal for the period tracker and its voiced span by construction."""

    name: str
    audio: AudioBuffer
    voiced_samples: int  # voiced part is [0, voiced_samples); the rest is tail
    expect_lost: bool  # silence and DC must be rejected

    @property
    def duration(self) -> float:
        return self.audio.duration


def phase_integrated(f0_track, amps, nrd, amp_track=None):
    """Harmonic signal from a per-sample f0 contour by phase integration."""
    phase = TWO_PI * np.cumsum(f0_track) / RATE
    env = np.ones_like(phase) if amp_track is None else amp_track
    x = np.zeros(phase.size)
    for ell, (a, d) in enumerate(zip(amps, nrd)):
        x += a * np.sin((ell + 1) * phase + TWO_PI * d)
    return env * x


def jittered_contour(rng, f0, n_samples, jitter, shimmer):
    """Per-period f0 and amplitude perturbations, held over each period."""
    f0_track = np.empty(n_samples)
    amp_track = np.empty(n_samples)
    pos = 0
    while pos < n_samples:
        f = f0 * (1.0 + jitter * rng.standard_normal())
        period = int(round(RATE / f))
        f0_track[pos : pos + period] = f
        amp_track[pos : pos + period] = 1.0 + shimmer * rng.standard_normal()
        pos += period
    return f0_track, amp_track


def track_inputs(seed, voiced_s, tail_s, draws):
    """Voiced utterances (glides, vibrato, jitter/shimmer, f0 near both
    bounds), each with a noise tail, `draws` times with fresh phases and
    noise, plus silence-only and DC-only buffers."""
    n = int(voiced_s * RATE)
    t = np.arange(n) / RATE
    lines = 8
    amps = 0.5 * 0.7 ** np.arange(lines)
    contours = {
        "glide_220_180": lambda rng: (np.linspace(220.0, 180.0, n), None),
        "glide_120_300": lambda rng: (np.linspace(120.0, 300.0, n), None),
        "vibrato_150": lambda rng: (150.0 * (1.0 + 0.03 * np.sin(TWO_PI * 5.5 * t + rng.uniform(0, TWO_PI))), None),
        "near_60": lambda rng: (np.full(n, 64.0), None),
        "near_500": lambda rng: (np.full(n, 470.0), None),
        "jitter_shimmer_130": lambda rng: jittered_contour(rng, 130.0, n, jitter=0.005, shimmer=0.05),
    }
    inputs = []
    for k, (name, contour) in enumerate(contours.items()):
        for draw in range(draws):
            rng = rng_for(seed, 300 + 10 * k + draw)
            f0_track, amp_track = contour(rng)
            voiced = phase_integrated(f0_track, amps, random_nrd(rng, lines), amp_track)
            tail = 0.02 * rng.standard_normal(int(tail_s * RATE))
            audio = AudioBuffer(np.concatenate([voiced, tail]), RATE)
            inputs.append(TrackInput(f"{name}_{draw}", audio, n, expect_lost=False))
    short = max(int(0.25 * voiced_s * RATE), 2048)
    inputs.append(TrackInput("silence", AudioBuffer(np.zeros(short), RATE), 0, expect_lost=True))
    inputs.append(TrackInput("dc", AudioBuffer(np.full(short, 0.25), RATE), 0, expect_lost=True))
    return inputs
