"""Phase-based segmentation of voiced speech into consecutive pitch periods.

Segmentation runs in two stages.  The walk alternates correlation-based
period refinement with a phase criterion that pins each period onset where
the fundamental's DFT phase crosses -pi/2, and collects only the onsets:
an exact partition of a voiced region.  The extraction then reads every
period's harmonic phase/magnitude record and NRD from those onsets, with
one DFT per period length.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .analysis import F0_RANGE_HZ, nrd_from_phases
from .dsp import AudioBuffer, cross_correlate, normalize_correlation

log = logging.getLogger(__name__)
_LOST_THRESHOLD = 0.3  # normalized correlation under which periodicity counts as lost


class SegmentationLost(RuntimeError):
    """Periodicity could not be followed (aperiodic or silent region)."""


@dataclass
class SeedRegion:
    """Approximate bounds of the left-most pitch period to track from."""

    start_sample: int
    end_sample: int

    def __post_init__(self):
        if self.start_sample < 0 or self.end_sample <= self.start_sample:
            raise ValueError("seed must satisfy 0 <= start < end")
        if self.end_sample - self.start_sample < 5:
            raise ValueError("seed period must span at least 5 samples")

    @property
    def period(self) -> int:
        return self.end_sample - self.start_sample


@dataclass
class PitchPeriod:
    """One segmented pitch period and its harmonic parameters."""

    start_sample: int
    length: int
    phases: np.ndarray
    nrd: np.ndarray
    magnitudes: np.ndarray
    sample_rate: int

    @property
    def f0(self) -> float:
        return self.sample_rate / self.length


@dataclass
class PeriodTrack:
    """Contiguous pitch periods: each period starts where the previous ends.

    Tracking stopped at `end_sample` for `end_cause`: "aperiodic" (no
    credible period in the window starting there), "onset_jump" (the onset
    found there is too far from the last) or "out_of_signal".
    """

    periods: list[PitchPeriod] = field(default_factory=list)
    sample_rate: int = 0
    end_sample: int = 0
    end_cause: str = "out_of_signal"

    def __len__(self):
        return len(self.periods)

    @property
    def lost(self) -> bool:
        """Periodicity was lost before the signal ran out."""
        return self.end_cause != "out_of_signal"

    @property
    def period_lengths(self) -> np.ndarray:
        return np.array([p.length for p in self.periods], dtype=np.int64)


def harmonic_count(period: int) -> int:
    """Number of usable harmonics for a P-sample period.

    The highest usable DFT bin is (P - 1) // 2: conjugate symmetry claims
    the rest, and the Nyquist bin of an even P; harmonics are l = 0..L-1.
    """
    p = int(period)
    if p < 5:
        raise ValueError(f"period must be at least 5 samples, got {p}")
    return (p - 1) // 2


def _local_maxima(values: np.ndarray) -> list[int]:
    """Strict local maxima: each run of equal values that the values rise
    into and fall out of, reported once at its midpoint."""
    step = values[1:] - values[:-1]
    change = np.flatnonzero(step)
    rise = step[change] > 0
    peak = rise[:-1] & ~rise[1:]
    return ((change[:-1][peak] + 1 + change[1:][peak]) // 2).tolist()


def refine_period(signal: AudioBuffer, period_start: int, period: int) -> int:
    """Update a period estimate from the two largest correlation maxima.

    The current period template is correlated once against shifts S
    covering [0, 2P] (extended by half a period so a maximum near S = 2P
    is still a local maximum); with maxima expected near S ~ P and 2P, the
    refined period is the distance between the two largest credible local
    maxima (or the location of the single one).  A maximum is credible
    when its correlation, normalized by the template's and its window's
    norms (summed over the maxima's span only), reaches half the best one.

    Raises SegmentationLost when no local maximum exists or the best
    normalized correlation falls below `_LOST_THRESHOLD`, and ValueError
    when the signal cannot cover the search window.
    """
    x = signal.samples
    p = int(period)
    start = int(period_start)
    if p < 5:
        raise ValueError(f"period must be at least 5 samples, got {p}")
    if start < 0 or start + 2 * p > x.size:
        raise ValueError("window [period_start, period_start + 2P] exceeds the signal")
    s_max = min(2 * p + p // 2 + 2, x.size - start - p)
    template = x[start : start + p]
    r = cross_correlate(template, x, (start, start + s_max))
    maxima = _local_maxima(r)
    if not maxima:
        raise SegmentationLost(f"no correlation maximum at sample {start}")
    lo, hi = maxima[0], maxima[-1]
    r_norm = normalize_correlation(r[lo : hi + 1], template, x[start + lo : start + hi + p])
    r_norm = r_norm[np.subtract(maxima, lo)].tolist()
    best = max(r_norm)
    if best < _LOST_THRESHOLD:
        raise SegmentationLost(
            f"best normalized correlation {best:.3f} below {_LOST_THRESHOLD} at sample {start}"
        )
    credible = [m for m, v in zip(maxima, r_norm) if v >= max(_LOST_THRESHOLD, 0.5 * best)]
    top = sorted(sorted(credible, key=lambda s: r[s], reverse=True)[:2])
    updated = top[1] - top[0] if len(top) == 2 else top[0]
    if len(top) == 2 and abs(updated - top[0]) > max(2, 0.05 * updated):
        log.info("maxima at S=%d and S=%d imply inconsistent periods; using S2-S1=%d", *top, updated)
    if updated < 5:
        raise SegmentationLost(f"refined period collapsed to {updated} samples")
    return updated


def align_onset(signal: AudioBuffer, period_start: int, period: int):
    """Shift a period start onto the fundamental's onset.

    Searches S in [-P//2, P//2], clamped so every candidate period lies in
    the signal, for the shift whose P-point DFT satisfies
    angle(X[1]) ~ -pi/2; ties break toward the smallest |S|.  X[1] at
    every candidate start is the correlation of the signal with
    cos(2 pi n / P) minus 1j times its correlation with sin(2 pi n / P),
    both read over the one lag range [start + lo, start + hi].  Returns
    (shift, aligned_start); raises ValueError when the period
    [period_start, period_start + P) itself leaves the signal.
    """
    x = signal.samples
    p = int(period)
    start = int(period_start)
    if p < 5:
        raise ValueError(f"period must be at least 5 samples, got {p}")
    if start < 0 or start + p > x.size:
        raise ValueError("period window exceeds the signal")
    lo, hi = max(-(p // 2), -start), min(p // 2, x.size - start - p)
    cycle = 2 * np.pi * np.arange(p) / p
    starts = (start + lo, start + hi)
    bin1 = cross_correlate(np.cos(cycle), x, starts) - 1j * cross_correlate(np.sin(cycle), x, starts)
    shifts = np.arange(lo, hi + 1)
    err = np.angle(bin1) + np.pi / 2
    residual = np.abs((err + np.pi) % (2 * np.pi) - np.pi)
    pick = np.lexsort((np.abs(shifts), residual))[0]
    s = int(shifts[pick])
    return s, start + s


def extract_period_params(signal: AudioBuffer, start: int, period: int) -> PitchPeriod:
    """Harmonic phases, magnitudes, and NRD of one aligned pitch period:
    the one-period call of the extractor `segment_track` runs after its
    walk (see `_extract_periods`).  Raises ValueError when the period is
    shorter than 5 samples or its window exceeds the signal."""
    start = int(start)
    end = start + int(period)
    if start < 0 or end > signal.samples.size:
        raise ValueError("period window exceeds the signal")
    return _extract_periods(signal, [start, end])[0]


def _extract_periods(signal: AudioBuffer, bounds) -> list[PitchPeriod]:
    """Harmonic records of the contiguous periods [bounds[i], bounds[i+1]).

    phi_l = angle(X[1+l]) + pi/2 and A_l = 2|X[1+l]|/P from the P-point
    DFT of each period; the NRD vector subtracts the residual fundamental
    phase, so a sub-sample onset offset does not tilt the result.  The
    periods of each length P are stacked and transformed by one FFT;
    their bins, zero-padded to the longest period's harmonic count, then
    give every period's phases, magnitudes and NRD in one pass, each row
    as it would alone.
    """
    x = signal.samples
    starts = np.asarray(bounds[:-1], dtype=np.int64)
    lengths = np.diff(np.asarray(bounds, dtype=np.int64))
    counts = [harmonic_count(p) for p in lengths.tolist()]
    bins = np.zeros((starts.size, max(counts, default=0)), dtype=np.complex128)
    for p in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == p)
        count = counts[rows[0]]
        bins[rows, :count] = np.fft.fft(x[starts[rows, None] + np.arange(p)])[:, 1 : 1 + count]
    phases = np.angle(bins) + np.pi / 2
    magnitudes = 2.0 * np.abs(bins) / lengths[:, None]
    nrd = nrd_from_phases(phases)
    # harmonics at their own period's numerical floor carry no phase
    # information; the padding's zeros never raise that floor
    nrd[magnitudes < 1e-9 * magnitudes.max(axis=-1, keepdims=True, initial=0.0)] = 0.0
    return [
        PitchPeriod(
            start_sample=start,
            length=p,
            phases=phases[i, :count],
            nrd=nrd[i, :count],
            magnitudes=magnitudes[i, :count],
            sample_rate=signal.sample_rate,
        )
        for i, (start, p, count) in enumerate(zip(starts.tolist(), lengths.tolist(), counts))
    ]


def auto_seed(signal: AudioBuffer) -> SeedRegion:
    """Convenience seed from the autocorrelation of the first 100 ms, at
    lags of the periods in `F0_RANGE_HZ`.

    A periodic signal's autocorrelation peaks nearly equally at every
    multiple of its period, so the seed is the shortest lag whose peak
    reaches 0.9 of the strongest one (`_local_maxima` of the lags padded
    with -inf, so either end counts).  Manual seeds are preferred for precision work."""
    x = signal.samples
    rate = signal.sample_rate
    fmin, fmax = F0_RANGE_HZ
    lag_min = max(5, int(rate / fmax))
    lag_max = min(int(rate / fmin), x.size // 3)
    window = x[: min(x.size, int(0.1 * rate) + 2 * lag_max)]
    if lag_max <= lag_min or window.size < 3 * lag_min:
        raise SegmentationLost("signal too short for automatic seeding")
    seg = window[: window.size - lag_max]
    r = cross_correlate(seg, window, (lag_min, lag_max))
    e0 = np.dot(seg, seg)
    if e0 <= 0 or np.max(r) < 0.3 * e0:
        raise SegmentationLost("no periodicity found for automatic seeding")
    peaks = np.array(_local_maxima(np.concatenate([[-np.inf], r, [-np.inf]]))) - 1
    lag = lag_min + int(peaks[r[peaks] >= 0.9 * r.max()][0])
    return SeedRegion(start_sample=lag, end_sample=2 * lag)


def segment_track(signal: AudioBuffer, seed: SeedRegion) -> PeriodTrack:
    """Partition a voiced region into consecutive pitch periods.

    Two stages.  The walk starts from the seed; each iteration refines the
    period length by correlation, aligns the onset by the
    fundamental-phase criterion, and advances by one period, keeping only
    the accepted onsets.  Every emitted period runs exactly from its
    aligned onset to the next one, so the track is contiguous by
    construction.  After the walk, `_extract_periods` reads every period's
    harmonic record from those onsets at once.  When periodicity is lost,
    the track collected so far is returned with its `lost` flag set;
    either way the track records where and why it ended, and one INFO
    record says so.
    """
    if seed.end_sample > signal.samples.size:
        raise ValueError("seed region exceeds the signal")
    bounds = []  # accepted onsets: each period runs from one to the next
    est = seed.period
    cursor = seed.start_sample

    while True:
        try:
            est = refine_period(signal, cursor, est)
        except SegmentationLost:
            cause = "aperiodic"
            break
        except ValueError:
            cause = "out_of_signal"
            break
        _, onset = align_onset(signal, cursor, est)
        if bounds:
            emitted = onset - bounds[-1]
            if emitted < 5 or abs(emitted - est) > max(2, 0.2 * est):
                cause, cursor = "onset_jump", onset
                break
        bounds.append(onset)
        cursor = onset + est

    # the last onset's period ends at the cursor, which align_onset kept inside the signal
    if cause == "out_of_signal" and bounds:
        bounds.append(cursor)
    periods = _extract_periods(signal, bounds)
    log.info("track ended at sample %d (%s) after %d periods", cursor, cause, len(periods))
    return PeriodTrack(periods, signal.sample_rate, end_sample=cursor, end_cause=cause)
