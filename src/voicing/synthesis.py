"""Synthetic-voicing engines.

Three engines consume the same per-frame parameter stream:

* ``synth_fre`` -- frequency-domain: per frame, each harmonic is written
  into 9 ODFT bins through the analysis window's frequency response, the
  frame is inverted, windowed, and overlap-added at 50%.
* ``synth_tim`` -- combined domain: pitch periods are synthesized by
  additive synthesis and concatenated at cumulative offsets with a short
  circular-extension crossfade.
* ``synth_glo`` -- physiological: each period is a Liljencrants-Fant
  glottal-flow-derivative pulse convolved with its own minimum-phase
  vocal-tract response, built in closed form from the command divided by
  the pulse's line magnitudes, and overlap-added.  No explicit harmonic
  phase model is consumed.

The engines read the stream through `_ParamTrack`, which owns the rule
between frame centers: omega0 and NRD linear, amplitudes log-linear, and
the nearest frame held outside them.  TIM and GLO read it as one table of
periods per plan (`_ParamTrack.periods`).

What depends only on the plan is done once per plan, not per period or
frame: each voiced frame's amplitudes are evaluated once (`_ParamTrack`),
the period table is one array pass, FRE injects and inverts all its
frames as one stack, TIM and GLO build a wave or response only where the
command changes and overlap-add all their periods in one pass
(`_overlap_add`), and the LF constants are solved once per pulse shape
(`_LF_CACHE`).
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .analysis import FrameParams, analyze_frames, harmonic_amplitudes
from .dsp import (
    AudioBuffer,
    cross_correlate,
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
    A shape outside these ranges raises ValueError at construction.
    """

    open_quotient: float = 0.6
    asymmetry: float = 2.0 / 3.0
    return_quotient: float = 0.02

    def __post_init__(self):
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

    samples: np.ndarray


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
        overlap-add is an identity, and the one `analyze_frames` uses."""
        return self.frame_len // 2

    def voiced_frames(self) -> list[FrameParams]:
        return [fp for fp in self.frames if fp.voiced]


# ---------------------------------------------------------------------------
# Parameter interpolation along the sample axis
# ---------------------------------------------------------------------------

class _ParamTrack:
    """Frame parameters at arbitrary sample positions.

    Frame m is anchored at its center (m*hop + N/2).  Between two anchors
    omega0 and the unwrapped NRD values are interpolated linearly and the
    harmonic amplitudes in the log domain; when harmonic counts differ the
    common prefix is interpolated and the longer side's tail carried over.
    Every value is written as left + t * (right - left), with t clamped to
    [0, 1]: outside the anchors the nearest frame holds, t = 0 and
    identical sides give the left frame bit-exactly, and t = 1 gives the
    right frame as it is.

    Each voiced frame's `harmonic_amplitudes` and NRD are kept read-only in
    `amps` and `nrd`, and a position at t = 1 hands them out as they are.
    One reader serves every caller: the walk over positions is scalar, and
    the amplitudes and NRD of all the positions read are one array
    operation.  `periods` reads the plan as a table of periods, `read` at
    given positions, and `at` at one.
    """

    def __init__(self, plan: SynthesisPlan):
        voiced = plan.voiced_frames()
        if not voiced:
            raise ValueError("plan has no voiced frames")
        self.frames = voiced
        self.amps = [harmonic_amplitudes(fp) for fp in voiced]
        self.nrd = [fp.nrd.copy() for fp in voiced]
        for kept in self.amps + self.nrd:
            kept.flags.writeable = False
        self.anchors = [fp.frame_index * plan.hop + plan.frame_len // 2 for fp in voiced]

    def check_nrd(self):
        """Reject a frame without NRD, for the engines that phase lines by it."""
        for fp, amps, nrd in zip(self.frames, self.amps, self.nrd):
            if nrd.size != amps.size:
                raise ValueError(f"frame {fp.frame_index}: {amps.size} harmonics but {nrd.size} NRD values")

    def _locate(self, position):
        """(j, t, omega0) at a sample position: j is the right frame of the
        pair of anchors around it (a lone frame is its own), t in [0, 1]."""
        a = self.anchors
        j = min(max(bisect_right(a, position), 1), len(a) - 1)
        right = self.frames[j]
        t = 1.0 if j == 0 else min(max(float((position - a[j - 1]) / (a[j] - a[j - 1])), 0.0), 1.0)
        if t == 1.0:
            return j, t, right.omega0
        left = self.frames[j - 1]
        return j, t, left.omega0 + t * (right.omega0 - left.omega0)

    def _rows(self, js, ts):
        """Amplitudes and NRD at each (j, t) of `_locate`, and whether each
        row's amplitudes and NRD differ from the previous row's, as
        `np.array_equal` tells (the first row's do).

        A row at t = 1 is the right frame's kept arrays.  The other rows are
        one array operation on a grid of every frame's lines, amplitudes
        padded with 1 and NRD with 0: a column of t times each pair's log
        ratio and NRD step, each computed once per pair, with each row then
        cut to its pair's line count."""
        width = max(a.size for a in self.amps)
        grid_a, grid_n = np.ones((len(self.amps), width)), np.zeros((len(self.amps), width))
        for row, (a, d) in enumerate(zip(self.amps, self.nrd)):
            grid_a[row, : a.size] = a
            grid_n[row, : d.size] = d
        size_a = np.array([a.size for a in self.amps])
        size_n = np.array([d.size for d in self.nrd])
        held = np.array(ts) == 1.0
        # every row at full width, with its own line counts
        right = np.array(js)
        full_a, full_n = grid_a[right], grid_n[right]
        count_a, count_n = size_a[right], size_n[right]
        between = np.flatnonzero(~held)
        if between.size:
            right = right[between]
            left = right - 1
            t = np.array(ts)[between, None]
            line = np.arange(width)
            log_ratio = np.diff(np.log(np.maximum(grid_a, 1e-300)), axis=0)[left]
            step = np.diff(grid_n, axis=0)[left]
            la, ra, ln, rn = grid_a[left], grid_a[right], grid_n[left], grid_n[right]
            # the common lines interpolated, the longer side's tail carried over
            common = line < np.minimum(size_a[left], size_a[right])[:, None]
            tail = np.where((size_a[left] >= size_a[right])[:, None], la, ra)
            full_a[between] = np.where(common, la * np.exp(t * log_ratio), tail)
            common = line < np.minimum(size_n[left], size_n[right])[:, None]
            tail = np.where((size_n[left] >= size_n[right])[:, None], ln, rn)
            full_n[between] = np.where(common, ln + t * step, tail)
            count_a[between] = count_n[between] = np.maximum(size_a[left], size_a[right])
        amps = [self.amps[k] if h else row[:n] for k, h, row, n in zip(js, held, full_a, count_a.tolist())]
        nrd = [self.nrd[k] if h else row[:n] for k, h, row, n in zip(js, held, full_n, count_n.tolist())]
        return amps, nrd, _moved(full_a, count_a), _moved(full_n, count_n)

    def read(self, positions):
        """(omega0, amplitudes, nrd) at each sample position."""
        js, ts, omegas = zip(*[self._locate(p) for p in positions])
        amps, nrd, _, _ = self._rows(js, ts)
        return list(zip(omegas, amps, nrd))

    def at(self, position):
        """(omega0, amplitudes, nrd) at a sample position: the one-position
        call of `read`."""
        return self.read([position])[0]

    def periods(self, total: int) -> _PeriodTable:
        """The periods that tile [0, total), from sample 0 on, as a table:
        each period is P = round(2 pi / omega0) samples long, with the
        parameters read at its own start."""
        position, rows = 0, []
        while position < total:
            j, t, omega0 = self._locate(position)
            if not omega0 > 0:
                raise ValueError(f"non-positive interpolated omega0 at sample {position}")
            period = int(round(TWO_PI / omega0))
            rows.append((position, period, j, t))
            position += period
        positions, lengths, js, ts = zip(*rows)
        amps, nrd, amps_moved, nrd_moved = self._rows(js, ts)
        return _PeriodTable(np.array(positions), np.array(lengths), amps, nrd, amps_moved, nrd_moved)


def _moved(full, sizes):
    """Whether each row's first `sizes` entries differ from the previous
    row's, as `np.array_equal` tells of the cut rows (the first row's do)."""
    moved = np.ones(sizes.size, dtype=bool)
    inside = np.arange(full.shape[1]) < sizes[1:, None]
    moved[1:] = (sizes[1:] != sizes[:-1]) | ((full[1:] != full[:-1]) & inside).any(axis=1)
    return moved


@dataclass(frozen=True)
class _PeriodTable:
    """A plan's periods, one row each: start `position`, length `period`,
    amplitudes and NRD (rows may share arrays; none is written), and
    whether each row's amplitudes and NRD differ from the previous row's.
    Iterating gives the rows as (position, period, amps, nrd)."""

    position: np.ndarray
    period: np.ndarray
    amps: list[np.ndarray]
    nrd: list[np.ndarray]
    amps_moved: np.ndarray
    nrd_moved: np.ndarray

    def __iter__(self):
        return zip(self.position.tolist(), self.period.tolist(), self.amps, self.nrd)

    def commands(self, with_nrd: bool):
        """The rows that start a new command, and each row's command
        number.  A command is a row's length and amplitudes, and its NRD
        when `with_nrd`; a new one starts wherever they differ from the
        previous row's."""
        new = self.amps_moved | self.nrd_moved if with_nrd else self.amps_moved.copy()
        new[1:] |= self.period[1:] != self.period[:-1]
        return np.flatnonzero(new), np.cumsum(new) - 1


# ---------------------------------------------------------------------------
# FRE: frequency-domain overlap-add synthesis
# ---------------------------------------------------------------------------

def _inject_harmonic(stack, row, c, omega, half_width):
    """Add every harmonic's windowed images into the lower-half ODFT bins
    of its own row of `stack`, a (frames, n) spectrum array.

    `row`, `c` and `omega` hold one row index, one complex amplitude and
    one angular frequency per harmonic.  Each harmonic writes the
    2 * half_width + 1 bins around its peak that lie in [0, n/2); each bin
    sums its contributions in the order the harmonics are given (one
    `np.bincount` per part), then adds the sum to what it holds.
    """
    n = stack.shape[-1]
    k_center = np.round(omega * n / TWO_PI - 0.5).astype(np.int64)
    k = k_center[:, None] + np.arange(-half_width, half_width + 1)
    nu = TWO_PI * (k + 0.5) / n
    c, omega = c[:, None], omega[:, None]
    images = c * sine_window_spectrum(n, nu - omega) + np.conj(c) * sine_window_spectrum(n, nu + omega)
    inside = (k >= 0) & (k < n // 2)
    flat = (row[:, None] * n + k)[inside]
    images = images[inside]
    # real and imaginary parts sum apart, as complex addition does
    stack.real[...] += np.bincount(flat, images.real, stack.size).reshape(stack.shape)
    stack.imag[...] += np.bincount(flat, images.imag, stack.size).reshape(stack.shape)


def synth_fre(plan: SynthesisPlan) -> AudioBuffer:
    """Frequency-domain synthesis: harmonic bin injection, inverse ODFT,
    windowing, and 50%-overlap-add.

    Each voiced frame contributes `_FRE_BINS_PER_HARMONIC` complex ODFT bins
    per harmonic, built from the analysis window's frequency response
    (magnitude and phase), the amplitudes `harmonic_amplitudes` reads off
    the frame, and phases reassembled from phi0 and the NRD model.  Frames
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
    track.check_nrd()
    last_index = max(fp.frame_index for fp in plan.frames)
    tail_index = (plan.total_length - 1) // hop

    renders = []  # (frame index, parameters, amplitudes, phi0)
    for fp, amps in zip(track.frames, track.amps):
        if n < 3 * amps.size:
            raise ValueError(
                f"frame {fp.frame_index}: {amps.size} harmonics need a frame of at least "
                f"{3 * amps.size} samples (got {n})"
            )
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


def _overlap_add(starts, sizes, samples):
    """Add consecutive pieces of `samples`, `sizes[i]` long, each at
    `starts[i]`, in one `np.bincount`: every output sample sums its pieces
    in their order, as slice adds onto zeros would, so the result is
    bitwise theirs."""
    index = np.arange(samples.size) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return np.bincount(index, samples)


def synth_tim(plan: SynthesisPlan) -> AudioBuffer:
    """Combined frequency/time-domain synthesis.

    Periods come from the plan's period table (`_ParamTrack.periods`:
    length P = round(2 pi / omega0) from parameters interpolated at the
    period's own position), are placed at cumulative offsets, and are
    joined by circularly extending both sides of each junction by
    `_TIM_EXTENSION` samples and crossfading with a piecewise-linear ramp
    over the overlap.

    A wave is built only where the command (a period's length, amplitudes
    and NRD) changes; the periods that repeat it add it again.  All periods
    are overlap-added in one pass (`_overlap_add`), each sample summing its
    periods in period order.
    """
    total = plan.total_length
    ext = _TIM_EXTENSION
    ramp = (np.arange(1, 2 * ext + 1)) / (2 * ext + 1.0)
    track = _ParamTrack(plan)
    track.check_nrd()
    table = track.periods(total)
    new, command = table.commands(with_nrd=True)
    waves = []
    for i in new:
        period = int(table.period[i])
        wave = _period_wave(period, table.amps[i], table.nrd[i])
        waves.append(np.take(wave, np.arange(-ext, period + ext), mode="wrap"))
    # each period circularly extended by ext samples on each side, so that
    # out[ext + j] is output sample j; the last period ends at or past total
    sizes = table.period + 2 * ext
    samples = np.concatenate([waves[k] for k in command])
    # faded at every junction but not at the plan's start or end
    gain = np.ones(samples.size)
    ends = np.cumsum(sizes)
    gain[ends[:-1, None] + np.arange(2 * ext)] = ramp
    gain[ends[:-1, None] - np.arange(2 * ext, 0, -1)] = 1.0 - ramp
    out = _overlap_add(table.position, sizes, gain * samples)
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
    return GlottalPulse(samples=g)


def _rendered_line_magnitudes(response, period, count):
    """Line magnitudes 1..count that a response renders when it is
    overlap-added at period offsets: those of the response folded into one
    period."""
    short = -response.size % period
    if short:
        response = np.concatenate([response, np.zeros(short)])
    folded = response.reshape(-1, period).sum(axis=0)
    return 2.0 * np.abs(np.fft.fft(folded)[1 : 1 + count]) / period


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
    nyquist = log_response[-1:] if period % 2 == 0 else log_response[:0]
    cepstrum = np.fft.irfft(np.concatenate([log_response[:1], log_response, nyquist]), period)
    # fold: each negative quefrency onto its positive mirror; 0 and an even
    # P's P/2 are their own mirrors
    cepstrum[1 : (period + 1) // 2] *= 2.0
    cepstrum[period // 2 + 1 :] = 0.0
    return np.fft.irfft(np.exp(np.fft.rfft(cepstrum)), period)


def synth_glo(plan: SynthesisPlan) -> AudioBuffer:
    """Physiologically inspired synthesis.

    Per period of the plan's period table (`_ParamTrack.periods`): an LF
    glottal pulse of the period's length, convolved with a minimum-phase
    vocal-tract response built from the interpolated command divided by the
    pulse's own line magnitudes (`_tilt_compensated_model`), and its 2P - 1
    samples overlap-added at the period's offset, clipped at the plan's
    length.  Harmonic phase structure comes entirely from the pulse and
    the response, never from an NRD model.

    A pulse and response are built only where the command (a period's
    length and amplitudes) changes, each with, when DEBUG is on, a DEBUG
    record of how closely it renders the commanded lines; the periods that
    repeat the command add it again.  All periods are overlap-added in one
    pass (`_overlap_add`), each sample summing its periods in period order.
    """
    total = plan.total_length
    table = _ParamTrack(plan).periods(total)
    new, command = table.commands(with_nrd=False)
    responses = []
    for i in new:
        period, amps = int(table.period[i]), table.amps[i]
        pulse = synth_glottal_pulse(period).samples
        responses.append(np.convolve(pulse, _tilt_compensated_model(amps, pulse, period)))
        if log.isEnabledFor(logging.DEBUG):
            count = min(amps.size, harmonic_count(period))
            rendered = _rendered_line_magnitudes(responses[-1], period, count)
            log.debug(
                "GLO period %d: %d commanded lines rendered within %.2e dB",
                period, count, np.max(np.abs(20.0 * np.log10(rendered / amps[:count]))),
            )
    out = _overlap_add(table.position, 2 * table.period - 1, np.concatenate([responses[k] for k in command]))
    return AudioBuffer(out[:total], plan.sample_rate)


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

    Both signals' lines come from `analyze_frames`, which fits no envelope.
    Reports the RMS difference of the frame-based f0 contours, the mean
    and max per-harmonic magnitude difference (dB, up to
    `_COMPARE_MAGNITUDE_LIMIT_HZ`), and the best shift-aligned waveform
    correlation over sub-period lags.  With a plan, the magnitude metrics
    cover only the harmonics the plan commands at each frame (lines the
    analysis finds beyond them were rendered by no command), and each
    signal's contour is also scored against the commanded one: each
    measured frame against the plan's f0 at that frame's own centre, over
    the measured frames whose nearest plan frame is voiced.  If either
    signal has no analyzable voiced frames the report carries diagnostics
    instead of metrics.  Raises ValueError when the signals (and the plan)
    do not share one sample rate.
    """
    rates = {"audio_a": audio_a.sample_rate, "audio_b": audio_b.sample_rate}
    if plan is not None:
        rates["plan"] = plan.sample_rate
    if len(set(rates.values())) > 1:
        raise ValueError("sample rates differ: " + ", ".join(f"{name} {rate} Hz" for name, rate in rates.items()))
    frame_len = _COMPARE_FRAME_LEN
    frames_a = analyze_frames(audio_a, frame_len)
    frames_b = analyze_frames(audio_b, frame_len)
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

    # the plan at each measured frame's centre
    centre = {i: i * (frame_len // 2) + frame_len // 2 for i in voiced_a.keys() | voiced_b.keys()}
    track = _ParamTrack(plan) if plan is not None else None
    command = dict(zip(centre, track.read(centre.values()))) if track is not None else {}
    diffs = []
    for i in common:
        fa, fb = voiced_a[i], voiced_b[i]
        count = min(fa.magnitudes.size, fb.magnitudes.size)
        if track is not None:
            # only the lines the plan commands at this frame's center
            count = min(count, command[i][1].size)
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
        voiced_plan = {fp.frame_index for fp in plan.voiced_frames()}
        for name, measured in (("a", voiced_a), ("b", voiced_b)):
            # each measured frame against the command at its own centre, where
            # the plan frame nearest that centre (the later one on a tie) is voiced
            err = [
                command[i][0] * plan.sample_rate / TWO_PI - measured[i].omega0 * rate / TWO_PI
                for i in sorted(measured)
                if (centre[i] - plan.frame_len // 2 + plan.hop // 2) // plan.hop in voiced_plan
            ]
            if err:
                report[f"command_f0_rms_hz_{name}"] = float(np.sqrt(np.mean(np.square(err))))
    return report
