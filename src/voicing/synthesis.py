"""Synthetic-voicing engines.

Three engines consume the same per-frame parameter stream:

* ``synth_fre`` -- frequency-domain: per frame, each harmonic is written
  into 9 ODFT bins through the analysis window's frequency response, the
  frame is inverted, windowed, and overlap-added at 50%.
* ``synth_tim`` -- combined domain: pitch periods are synthesized one at
  a time by additive synthesis and concatenated at cumulative offsets
  with a short circular-extension crossfade.
* ``synth_glo`` -- physiological: each period is a Liljencrants-Fant
  glottal-flow-derivative pulse convolved with its own minimum-phase
  vocal-tract response, built in closed form from the command divided by
  the pulse's line magnitudes, and overlap-added.  No explicit harmonic
  phase model is consumed.

What depends only on the plan is done once per plan, not per period or
frame: each voiced frame's amplitudes are evaluated once (`_ParamTrack`),
FRE injects and inverts all its frames as one stack, TIM and GLO reuse
the last period's wave or response while its command repeats, and the
LF constants are solved once per pulse shape (`_LF_CACHE`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .analysis import FrameParams, harmonic_amplitudes, interpolate_lines, measure_frames
from .dsp import (
    AudioBuffer,
    cross_correlate,
    dft,
    inverse_odft,
    make_sqrt_shifted_hanning,
    sine_window_spectrum,
)
from .segmentation import harmonic_count

log = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi
_FRE_BINS_PER_HARMONIC = 9  # ODFT bins FRE writes around each harmonic's peak
_TIM_EXTENSION = 4  # samples of circular extension on each side of a TIM junction
_GLO_ROLLOFF_DB = 6.0  # fall per line of GLO's rendered level past the commanded lines
_GLO_FLOOR_DB = -60.0  # where that fall stops, under the strongest commanded line
_COMPARE_FRAME_LEN = 1024  # analysis frame of compare_engines
_COMPARE_MAGNITUDE_LIMIT_HZ = 4000.0  # highest line compare_engines' magnitude metrics cover


@dataclass(frozen=True)
class LfParams:
    """Liljencrants-Fant shape constants for one glottal pulse.

    open_quotient: open-phase fraction of the period (te/T0).
    asymmetry: position of the flow peak within the open phase (tp/te).
    return_quotient: exponential return-phase time constant over T0.
    """

    open_quotient: float = 0.6
    asymmetry: float = 2.0 / 3.0
    return_quotient: float = 0.02

    def validate(self):
        if not 0.0 < self.open_quotient < 1.0:
            raise ValueError(f"open_quotient {self.open_quotient} outside (0, 1)")
        if not 0.5 < self.asymmetry < 1.0:
            raise ValueError(f"asymmetry {self.asymmetry} outside (0.5, 1)")
        if not 1e-6 <= self.return_quotient < 1.0 - self.open_quotient:
            raise ValueError(
                f"return_quotient {self.return_quotient} outside [1e-6, 1 - open_quotient)"
            )


@dataclass
class GlottalPulse:
    """One glottal-flow-derivative period, peak-normalized and DC-free."""

    period: int
    samples: np.ndarray
    shape_params: LfParams


@dataclass
class SynthesisPlan:
    """Frame parameters plus framing geometry for the synthesis engines."""

    frames: list[FrameParams]
    sample_rate: int
    frame_len: int = 1024
    total_length: int | None = None

    def __post_init__(self):
        if not self.frames:
            raise ValueError("plan needs at least one frame")
        if self.total_length is None:
            last = max(fp.frame_index for fp in self.frames)
            self.total_length = last * self.hop + self.frame_len
        if self.total_length < 1:
            raise ValueError(f"total_length must be at least 1 sample, got {self.total_length}")

    @property
    def hop(self) -> int:
        """Frame step: half a frame, the only hop at which FRE's windowed
        overlap-add is an identity, and the one `measure_frames` uses."""
        return self.frame_len // 2

    def voiced_frames(self) -> list[FrameParams]:
        return [fp for fp in self.frames if fp.voiced]


# ---------------------------------------------------------------------------
# Parameter interpolation along the sample axis
# ---------------------------------------------------------------------------

class _ParamTrack:
    """Interpolates frame parameters at arbitrary sample positions.

    Frame m's parameters are anchored at its center (m*hop + N/2); between
    anchors the engines see linearly interpolated values, clamped at the
    ends, mirroring how parameters are updated at frame boundaries.

    Each voiced frame's amplitudes are evaluated once, by
    `harmonic_amplitudes`, and kept read-only in `amps`: `at` interpolates
    from them through `interpolate_lines`, the helper `interpolate_params`
    calls, and may hand one out as it is.
    """

    def __init__(self, plan: SynthesisPlan):
        voiced = plan.voiced_frames()
        if not voiced:
            raise ValueError("plan has no voiced frames")
        self.frames = voiced
        self.amps = [harmonic_amplitudes(fp) for fp in voiced]
        for amps in self.amps:
            amps.flags.writeable = False
        self.anchors = np.array(
            [fp.frame_index * plan.hop + plan.frame_len // 2 for fp in voiced], dtype=np.int64
        )

    def at(self, position: float):
        a = self.anchors
        if a.size == 1:
            fp = self.frames[0]
            return fp.omega0, self.amps[0], fp.nrd.copy()
        # outside the anchors t leaves [0, 1], where interpolate_lines clamps
        j = min(max(int(np.searchsorted(a, position, side="right")) - 1, 0), a.size - 2)
        t = (position - a[j]) / (a[j + 1] - a[j])
        return interpolate_lines(self.frames[j], self.frames[j + 1], self.amps[j], self.amps[j + 1], t)

    def periods(self, total: int):
        """Walk [0, total) one period at a time: yields (position, period,
        amps, nrd), with period = round(2 pi / omega0) and the parameters
        interpolated at the period's own start."""
        position = 0
        while position < total:
            omega0, amps, nrd = self.at(position)
            if not omega0 > 0:
                raise ValueError(f"non-positive interpolated omega0 at sample {position}")
            period = int(round(TWO_PI / omega0))
            yield position, period, amps, nrd
            position += period


# ---------------------------------------------------------------------------
# FRE: frequency-domain overlap-add synthesis
# ---------------------------------------------------------------------------

def _inject_harmonic(stack, row, c, omega, half_width):
    """Add every harmonic's windowed images into the lower-half ODFT bins
    of its own row of `stack`, a (frames, n) spectrum array.

    `row`, `c` and `omega` hold one row index, one complex amplitude and
    one angular frequency per harmonic.  Each harmonic writes the
    2 * half_width + 1 bins around its peak that lie in [0, n/2); each bin
    sums its contributions in the order the harmonics are given.
    """
    n = stack.shape[-1]
    k_center = np.round(omega * n / TWO_PI - 0.5).astype(np.int64)
    k = k_center[:, None] + np.arange(-half_width, half_width + 1)
    nu = TWO_PI * (k + 0.5) / n
    c, omega = c[:, None], omega[:, None]
    images = c * sine_window_spectrum(n, nu - omega) + np.conj(c) * sine_window_spectrum(n, nu + omega)
    inside = (k >= 0) & (k < n // 2)
    np.add.at(stack, (np.broadcast_to(row[:, None], k.shape)[inside], k[inside]), images[inside])


def synth_fre(plan: SynthesisPlan) -> AudioBuffer:
    """Frequency-domain synthesis: harmonic bin injection, inverse ODFT,
    windowing, and 50%-overlap-add.

    Each voiced frame contributes `_FRE_BINS_PER_HARMONIC` complex ODFT bins
    per harmonic, built from the analysis window's frequency response
    (magnitude and phase), the harmonic amplitudes implied by a0 and the
    envelope, and phases reassembled from phi0 and the NRD model.  Frames
    with a measured phi0 use it; otherwise phi0 is propagated by
    integrating omega0 across the hops, from 0 when the first voiced frame
    has none.

    The output spans ``[0, total_length)`` at full overlap-add gain: when
    the grid's first or last frame is voiced, its parameters are held over
    one frame before frame 0 and over the frames after the last one that
    reach ``total_length``, with phi0 propagated to them.

    Once per plan: each voiced frame's amplitudes are evaluated once
    (`_ParamTrack`), held frames included; the harmonics of every rendered
    frame go into one (frames, n) stack by one `_inject_harmonic` call,
    and the stack is inverted by one `inverse_odft` along its rows.  Each
    bin still sums its contributions in harmonic order, so every frame
    comes out as it would alone.
    """
    n = plan.frame_len
    hop = plan.hop
    track = _ParamTrack(plan)
    last_index = max(fp.frame_index for fp in plan.frames)
    tail_index = (plan.total_length - 1) // hop

    renders = []  # (frame index, parameters, amplitudes, phi0)
    for fp, amps in zip(track.frames, track.amps):
        if n < 3 * amps.size:
            raise ValueError(
                f"frame {fp.frame_index}: {amps.size} harmonics need a frame of at least "
                f"{3 * amps.size} samples (got {n})"
            )
        if fp.nrd.size != amps.size:
            raise ValueError(f"frame {fp.frame_index}: {amps.size} harmonics but {fp.nrd.size} NRD values")
        if fp.phi0 is not None:
            phi0 = float(fp.phi0)
        elif not renders:
            phi0 = 0.0
        else:
            prev_index, prev, _, prev_phi0 = renders[-1]
            gap = (fp.frame_index - prev_index) * hop
            phi0 = prev_phi0 + 0.5 * (prev.omega0 + fp.omega0) * gap
        renders.append((fp.frame_index, fp, amps, phi0))
    first_index, first, first_amps, first_phi0 = renders[0]
    end_index, end, end_amps, end_phi0 = renders[-1]
    if first_index == 0:
        renders.insert(0, (-1, first, first_amps, first_phi0 - first.omega0 * hop))
    if end_index == last_index:
        for k in range(end_index + 1, tail_index + 1):
            renders.append((k, end, end_amps, end_phi0 + end.omega0 * hop * (k - end_index)))

    # every rendered frame's harmonics, frame after frame
    indices, params, amps, phi0 = zip(*renders)
    counts = np.array([a.size for a in amps])
    ell1 = np.arange(1, counts.sum() + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    omega_l = ell1 * np.repeat(np.array([fp.omega0 for fp in params]), counts)
    phases = TWO_PI * np.concatenate([fp.nrd for fp in params]) + ell1 * np.repeat(np.array(phi0), counts)
    c = 0.5 * np.concatenate(amps) * np.exp(1j * (phases - np.pi / 2))

    stack = np.zeros((counts.size, n), dtype=np.complex128)
    _inject_harmonic(stack, np.repeat(np.arange(counts.size), counts), c, omega_l, _FRE_BINS_PER_HARMONIC // 2)
    stack[:, n // 2 :] = np.conj(stack[:, : n // 2][:, ::-1])
    frames = make_sqrt_shifted_hanning(n) * inverse_odft(stack).real

    # frame k is written at (k + 1) * hop: one hop of room before sample 0
    out = np.zeros((max(last_index, tail_index) + 1) * hop + n)
    for index, frame in zip(indices, frames):
        off = (index + 1) * hop
        out[off : off + n] += frame

    return AudioBuffer(out[hop : hop + plan.total_length], plan.sample_rate)


# ---------------------------------------------------------------------------
# TIM: per-period additive synthesis with crossfaded concatenation
# ---------------------------------------------------------------------------

def _period_wave(period, amps, nrd):
    """One pitch period by additive synthesis: full-cycle harmonics, DC-free."""
    count = min(len(amps), harmonic_count(period))
    omega0 = TWO_PI / period
    n_idx = np.arange(period)
    args = np.outer(n_idx, np.arange(1, count + 1) * omega0) + TWO_PI * np.asarray(nrd[:count])
    return np.sin(args) @ np.asarray(amps[:count])


def synth_tim(plan: SynthesisPlan) -> AudioBuffer:
    """Combined frequency/time-domain synthesis.

    Periods are generated one at a time (length P = round(2 pi / omega0)
    from parameters interpolated at the period's own position), placed at
    cumulative offsets, and joined by circularly extending both sides of
    each junction by `_TIM_EXTENSION` samples and crossfading with a
    piecewise-linear ramp over the overlap.

    One wave is kept: a period whose command (its length, amplitudes and
    NRD) equals the last one's adds that wave again.
    """
    total = plan.total_length
    ext = _TIM_EXTENSION
    ramp = (np.arange(1, 2 * ext + 1)) / (2 * ext + 1.0)
    periods = []  # (start, period circularly extended by ext samples on each side)
    command = None
    for position, period, amps, nrd in _ParamTrack(plan).periods(total):
        same = command is not None and command[0] == period
        if not (same and np.array_equal(command[1], amps) and np.array_equal(command[2], nrd)):
            wave = np.take(_period_wave(period, amps, nrd), np.arange(-ext, period + ext), mode="wrap")
            command = (period, amps, nrd)
        periods.append((position, wave))

    last_start, last_wave = periods[-1]
    # out[ext + j] is output sample j; the last period ends at or past total
    out = np.zeros(last_start + last_wave.size)
    for i, (start, wave) in enumerate(periods):
        # faded at every junction but not at the plan's start or end
        gain = np.ones(wave.size)
        if i > 0:
            gain[: 2 * ext] = ramp
        if i + 1 < len(periods):
            gain[-2 * ext :] = 1.0 - ramp
        out[start : start + wave.size] += gain * wave

    return AudioBuffer(out[ext : ext + total], plan.sample_rate)


# ---------------------------------------------------------------------------
# GLO: glottal-pulse excitation filtered per period
# ---------------------------------------------------------------------------

_LF_CACHE: dict[LfParams, tuple[float, float, float]] = {}  # _lf_constants per pulse shape


def _lf_constants(shape: LfParams):
    """Solve the pulse constants: growth rate, return rate, and onset gain.
    Each shape is solved once; its constants are kept in `_LF_CACHE`."""
    if shape in _LF_CACHE:
        return _LF_CACHE[shape]
    te = shape.open_quotient
    tp = shape.asymmetry * te
    ta = shape.return_quotient
    td = 1.0 - te
    omega_g = np.pi / tp
    sin_e = np.sin(omega_g * te)
    cos_e = np.cos(omega_g * te)

    # return-phase rate: eps * ta = 1 - exp(-eps * td), positive root
    def f_eps(eps):
        return eps * ta - 1.0 + np.exp(-eps * td)

    eps = brentq(f_eps, 1e-9, 2.0 / ta + 1.0 / td, xtol=1e-14, rtol=1e-15)

    area_return = -(1.0 / (eps * ta)) * ((1.0 - np.exp(-eps * td)) / eps - td * np.exp(-eps * td))

    # growth rate from the zero-net-flow condition over the whole period
    def net_area(alpha):
        e0 = -1.0 / (np.exp(alpha * te) * sin_e)
        open_part = e0 * (
            (np.exp(alpha * te) * (alpha * sin_e - omega_g * cos_e) + omega_g)
            / (alpha**2 + omega_g**2)
        )
        return open_part + area_return

    lo, hi = -1.0, 1.0
    for _ in range(80):
        if net_area(lo) * net_area(hi) <= 0:
            break
        lo *= 2.0
        hi *= 2.0
    else:
        raise ValueError(f"no flow balance for shape {shape}")
    alpha = brentq(net_area, lo, hi, xtol=1e-12, rtol=1e-15)
    e0 = -1.0 / (np.exp(alpha * te) * sin_e)
    _LF_CACHE[shape] = alpha, eps, e0
    return alpha, eps, e0


def synth_glottal_pulse(period: int, shape_params: LfParams | None = None) -> GlottalPulse:
    """One Liljencrants-Fant glottal-flow-derivative period of exactly
    `period` samples, peak-normalized (most negative sample = -1) and
    DC-free.  The waveform shape depends only on the shape parameters,
    not the period: pulses of different lengths are time-scaled copies.
    """
    shape = shape_params or LfParams()
    shape.validate()
    p = int(period)
    if p < 16:
        raise ValueError(f"period must be at least 16 samples, got {p}")
    alpha, eps, e0 = _lf_constants(shape)
    te = shape.open_quotient
    tp = shape.asymmetry * te
    ta = shape.return_quotient
    omega_g = np.pi / tp

    t = np.arange(p) / p
    g = np.empty(p)
    open_phase = t < te
    g[open_phase] = e0 * np.exp(alpha * t[open_phase]) * np.sin(omega_g * t[open_phase])
    tr = t[~open_phase] - te
    g[~open_phase] = -(1.0 / (eps * ta)) * (np.exp(-eps * tr) - np.exp(-eps * (1.0 - te)))

    g -= g.mean()
    g /= np.abs(g.min())
    return GlottalPulse(period=p, samples=g, shape_params=shape)


def _rendered_line_magnitudes(response, period, count):
    """Line magnitudes 1..count that a response renders when it is
    overlap-added at period offsets: those of the response folded into one
    period."""
    folded = np.pad(response, (0, -response.size % period)).reshape(-1, period).sum(axis=0)
    return 2.0 * np.abs(dft(folded)[1 : 1 + count]) / period


def _tilt_compensated_model(amps, pulse_samples, period):
    """Vocal-tract response for one command: the P-sample minimum-phase FIR
    whose magnitude at each line is the level to render there divided by
    the pulse's own line magnitude.  Filtered through it and overlap-added
    at period offsets, the pulse renders every commanded line exactly.

    The level is the command at the commanded lines.  Past them it falls
    `_GLO_ROLLOFF_DB` per line from the last commanded line and stops at
    `_GLO_FLOOR_DB` under the strongest one, or at once if the last
    commanded line is already lower.  On the P-point grid, DC and an even
    P's Nyquist bin hold their nearest line's value.  The phase is the
    minimum phase of that log magnitude: its real cepstrum folded onto
    positive quefrencies (homomorphic deconvolution; Oppenheim & Schafer,
    Discrete-Time Signal Processing).
    """
    lines = harmonic_count(period)
    count = min(len(amps), lines)
    target = np.asarray(amps[:count], dtype=np.float64)
    if count == 0 or not np.all(target > 0):
        raise ValueError("GLO needs at least one commanded line, every one of positive amplitude")
    log_target = np.log(target)
    db = np.log(10.0) / 20.0  # natural-log units per dB
    stop = min(log_target[-1], log_target.max() + _GLO_FLOOR_DB * db)
    rolled = log_target[-1] - _GLO_ROLLOFF_DB * db * np.arange(1, lines - count + 1)
    log_level = np.concatenate([log_target, np.maximum(rolled, stop)])
    log_response = log_level - np.log(_rendered_line_magnitudes(pulse_samples, period, lines))
    cepstrum = np.fft.irfft(np.pad(log_response, (1, 1 - period % 2), mode="edge"), period)
    # fold: each negative quefrency onto its positive mirror; 0 and an even
    # P's P/2 are their own mirrors
    cepstrum[1 : (period + 1) // 2] *= 2.0
    cepstrum[period // 2 + 1 :] = 0.0
    return np.fft.irfft(np.exp(np.fft.rfft(cepstrum)), period)


def synth_glo(plan: SynthesisPlan) -> AudioBuffer:
    """Physiologically inspired synthesis.

    Per period: synthesize an LF glottal pulse of the local period
    length, convolve it with a minimum-phase vocal-tract response built
    from the interpolated command divided by the pulse's own line
    magnitudes (`_tilt_compensated_model`), and overlap-add the 2P - 1
    samples at the cumulative period offsets, clipped at the plan's
    length.  Harmonic phase structure comes entirely from the pulse and
    the response, never from an NRD model.

    One response is kept: a period whose command (its length and
    amplitudes) equals the last one adds that response again.  Any other
    command gets its own pulse and response, and a DEBUG record of how
    closely the response renders the commanded lines.
    """
    total = plan.total_length
    out = np.zeros(total)
    command = None
    for position, period, amps, _ in _ParamTrack(plan).periods(total):
        if command is None or command[0] != period or not np.array_equal(command[1], amps):
            pulse = synth_glottal_pulse(period).samples
            response = np.convolve(pulse, _tilt_compensated_model(amps, pulse, period))
            count = min(amps.size, harmonic_count(period))
            rendered = _rendered_line_magnitudes(response, period, count)
            log.debug(
                "GLO period %d: %d commanded lines rendered within %.2e dB",
                period, count, np.max(np.abs(20.0 * np.log10(rendered / amps[:count]))),
            )
            command = (period, amps)
        out[position : position + response.size] += response[: total - position]

    return AudioBuffer(out, plan.sample_rate)


# ---------------------------------------------------------------------------
# Objective comparison
# ---------------------------------------------------------------------------

def _aligned_correlation(a: np.ndarray, b: np.ndarray, max_lag: int):
    """Best normalized correlation of b against a over lags within
    +-max_lag, the first on ties.  Returns (correlation, lag)."""
    seg = min(a.size, b.size) - 2 * max_lag
    if seg <= 16:
        return 0.0, 0
    corr = cross_correlate(
        a[max_lag : max_lag + seg], b[: seg + 2 * max_lag], (0, 2 * max_lag), normalized=True
    )
    best = int(np.argmax(corr))
    return float(corr[best]), best - max_lag


def compare_engines(
    audio_a: AudioBuffer,
    audio_b: AudioBuffer,
    plan: SynthesisPlan | None = None,
) -> dict:
    """Objective comparison report between two rendered signals.

    Both signals' lines come from `measure_frames`; no envelope is fitted.
    Reports the RMS difference of the frame-based f0 contours, the mean
    and max per-harmonic magnitude difference (dB, up to
    `_COMPARE_MAGNITUDE_LIMIT_HZ`), and the best shift-aligned waveform
    correlation over sub-period lags.  With a plan, the magnitude metrics
    cover only the harmonics the plan commands at each frame (lines the
    analysis finds beyond them were rendered by no command), and each
    signal's contour is also scored against the commanded one.  If either
    signal has no analyzable voiced frames the report carries diagnostics
    instead of metrics.
    """
    frame_len = _COMPARE_FRAME_LEN
    frames_a = measure_frames(audio_a, frame_len)
    frames_b = measure_frames(audio_b, frame_len)
    voiced_a = {f.frame_index: f for f in frames_a if f.voiced}
    voiced_b = {f.frame_index: f for f in frames_b if f.voiced}
    report: dict = {
        "voiced_frames_a": len(voiced_a),
        "voiced_frames_b": len(voiced_b),
        "f0_rms_diff_hz": None,
        "magnitude_diff_db_mean": None,
        "magnitude_diff_db_max": None,
        "waveform_correlation": None,
        "waveform_lag_samples": None,
    }
    common = sorted(set(voiced_a) & set(voiced_b))
    if not common:
        report["diagnostic"] = "no common voiced frames"
        return report

    rate = audio_a.sample_rate
    f0a = np.array([voiced_a[i].omega0 for i in common]) * rate / TWO_PI
    f0b = np.array([voiced_b[i].omega0 for i in common]) * rate / TWO_PI
    report["f0_rms_diff_hz"] = float(np.sqrt(np.mean((f0a - f0b) ** 2)))

    track = _ParamTrack(plan) if plan is not None else None
    diffs = []
    for i in common:
        fa, fb = voiced_a[i], voiced_b[i]
        count = min(fa.magnitudes.size, fb.magnitudes.size)
        if track is not None:
            # only the lines the plan commands at this frame's center
            _, commanded, _ = track.at(i * (frame_len // 2) + frame_len // 2)
            count = min(count, commanded.size)
        freqs = (np.arange(1, count + 1)) * fa.omega0 * rate / TWO_PI
        keep = freqs <= _COMPARE_MAGNITUDE_LIMIT_HZ
        with np.errstate(divide="ignore", invalid="ignore"):
            d = 20.0 * np.log10(fa.magnitudes[:count][keep] / fb.magnitudes[:count][keep])
        diffs.append(d[np.isfinite(d)])
    alldiff = np.abs(np.concatenate(diffs))
    if alldiff.size:
        report["magnitude_diff_db_mean"] = float(np.mean(alldiff))
        report["magnitude_diff_db_max"] = float(np.max(alldiff))

    f0_mean = float(np.mean(f0a))
    max_lag = int(round(rate / max(f0_mean, 1.0))) + 1
    corr, lag = _aligned_correlation(audio_a.samples, audio_b.samples, max_lag)
    report["waveform_correlation"] = corr
    report["waveform_lag_samples"] = lag

    if plan is not None:
        anchors = {
            fp.frame_index: fp.omega0 * plan.sample_rate / TWO_PI for fp in plan.voiced_frames()
        }
        for name, measured in (("a", voiced_a), ("b", voiced_b)):
            shared = sorted(set(anchors) & set(measured))
            if shared:
                err = [anchors[i] - measured[i].omega0 * rate / TWO_PI for i in shared]
                report[f"command_f0_rms_hz_{name}"] = float(np.sqrt(np.mean(np.square(err))))
    return report
