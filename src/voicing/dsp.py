"""Core DSP primitives: windows, transforms, correlation, all-pole filtering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import sosfilt


_CANCELLED = 1e-6  # squared window norm, relative to the running sum at its end, summed again


class UnstableFilterError(ValueError):
    """All-pole model or filter has poles on or outside the unit circle."""


@dataclass
class AudioBuffer:
    """Mono sampled signal plus sample rate.

    Samples are float64, nominally in [-1, 1], from a source of at most
    16 bits: analysis never puts its noise floor under 16-bit rounding
    noise.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioBuffer expects a 1-D sample array")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite (no NaN/Inf)")

    def __len__(self):
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


def make_sqrt_shifted_hanning(n: int) -> np.ndarray:
    """Square root of a half-sample-shifted Hanning window.

    w[i] = sin(pi * (i + 0.5) / n).  Power-complementary at 50% overlap:
    w[i]**2 + w[i + n//2]**2 == 1, which makes windowed overlap-add with
    hop n/2 an identity when the window is applied at analysis and again
    at synthesis.

    Args:
        n: window length in samples, even, >= 4.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError(f"window length must be even and >= 4, got {n}")
    return np.sin(np.pi * (np.arange(n) + 0.5) / n)


def dft(x: np.ndarray) -> np.ndarray:
    """Plain DFT, X[k] = sum_n x[n] exp(-2j pi k n / P).

    Accepts any length; FFT-based (O(P log P) even for prime P).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 1:
        raise ValueError("dft input must be non-empty")
    return np.fft.fft(x)


def odft(x: np.ndarray) -> np.ndarray:
    """Odd-frequency DFT: bins at half-integer frequencies (k + 0.5).

    X[k] = sum_n x[n] exp(-2j pi (k + 0.5) n / N).  For real input,
    X[N-1-k] = conj(X[k]): the lower half of the spectrum carries all
    information and no bin is self-conjugate.  Works along the last axis,
    so a stack of frames transforms in one call, each row as it would
    alone.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    n = x.shape[-1]
    if n < 2 or n % 2 != 0:
        raise ValueError(f"odft length must be even and >= 2, got {n}")
    pre = np.exp(-1j * np.pi * np.arange(n) / n)
    return np.fft.fft(x * pre, axis=-1)


def inverse_odft(spectrum: np.ndarray) -> np.ndarray:
    """Inverse of :func:`odft`, along the last axis.  Returns a complex
    array; real inputs to the forward transform reconstruct with
    negligible imaginary part."""
    spectrum = np.atleast_1d(np.asarray(spectrum, dtype=np.complex128))
    n = spectrum.shape[-1]
    if n < 2 or n % 2 != 0:
        raise ValueError(f"inverse_odft length must be even and >= 2, got {n}")
    post = np.exp(1j * np.pi * np.arange(n) / n)
    return np.fft.ifft(spectrum, axis=-1) * post


def _sine_ratio(theta: np.ndarray, count: int) -> np.ndarray:
    """sin(count * theta) / sin(theta), with the analytic limit
    count * (-1)**(m * (count - 1)) substituted where theta -> m * pi."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    m = np.round(theta / np.pi)
    singular = np.abs(theta - m * np.pi) < 1e-9
    out = np.empty_like(theta)
    safe = ~singular
    out[safe] = np.sin(count * theta[safe]) / np.sin(theta[safe])
    sign = np.where((m[singular].astype(np.int64) * (count - 1)) % 2 == 0, 1.0, -1.0)
    out[singular] = count * sign
    return out


def sine_window_kernel(n: int, nu) -> np.ndarray:
    """Real transform of the length-n sine window about its centre.

    About i = (n - 1) / 2 the window is cos(pi m / n), so its transform is
    K(nu) = [D(nu - pi/n) + D(nu + pi/n)] / 2 with the Dirichlet kernel
    D(x) = sin(n x / 2) / sin(x / 2) (Harris, Proc. IEEE 66(1), 1978).
    `nu` is in radians per sample; scalar or array.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=np.float64))
    return 0.5 * (_sine_ratio((nu - np.pi / n) / 2.0, n) + _sine_ratio((nu + np.pi / n) / 2.0, n))


def sine_window_spectrum(n: int, nu) -> np.ndarray:
    """Discrete-time Fourier transform of the length-n sine window.

    W(nu) = sum_i sin(pi (i + 0.5) / n) * exp(-1j nu i)
          = exp(-1j nu (n - 1) / 2) * K(nu), with K the real
    `sine_window_kernel`.  `nu` is in radians per sample; scalar or array.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=np.float64))
    return np.exp(-0.5j * (n - 1) * nu) * sine_window_kernel(n, nu)


def window_norms(signal, length: int) -> np.ndarray:
    """|signal[k : k + length]| for k = 0 .. signal.size - length, from one
    running sum of squares over `signal`.  A window whose squared norm is
    under `_CANCELLED` of the sum at its end (a quiet stretch after a loud
    one) would keep little more than the sum's rounding error, so each run
    of such windows is summed again from the run's own start."""
    sq = np.concatenate([[0.0], np.cumsum(signal**2)])
    energy = sq[length:] - sq[:-length]
    # each difference carries an absolute error of about sqrt(length) * eps
    # times the running sum at the window's end, which is at most the whole
    # sum: the quietest window alone tells whether any has lost its digits
    if energy.min(initial=np.inf) < _CANCELLED * sq[-1]:
        lost = energy < _CANCELLED * sq[length:]
        for first, stop in np.flatnonzero(np.diff(np.r_[False, lost, False])).reshape(-1, 2):
            energy[first:stop] = window_norms(signal[first : stop - 1 + length], length) ** 2
    return np.sqrt(energy)


def normalize_correlation(raw, template, span) -> np.ndarray:
    """Cosine similarity: each `raw[k]`, the dot product of `template` with
    span[k : k + t], over |template| times that window's `window_norms`,
    0 where that product is 0."""
    denom = np.linalg.norm(template) * window_norms(span, template.size)
    return np.divide(raw, denom, out=np.zeros(denom.size), where=denom > 0)


def cross_correlate(template, signal, lags, normalized: bool = False) -> np.ndarray:
    """Sliding dot product of `template` against `signal` over the lags
    `lags` = (first, last), both included.

    r[k] = sum_n template[n] * signal[n + first + k], k = 0 .. last - first,
    from one correlation over signal[first : last + t], t the template
    length.  `normalized=True` gives the cosine similarity
    (`normalize_correlation`), useful where the amplitude varies.  Raises
    ValueError when the range is empty or a window leaves the signal.
    """
    template = np.asarray(template, dtype=np.float64)
    signal = np.asarray(signal, dtype=np.float64)
    first, last = map(int, lags)
    t = template.size
    if t < 2:
        raise ValueError("template must have at least 2 samples")
    if first < 0 or last < first or last + t > signal.size:
        raise ValueError(
            f"lag range [{first}, {last}] is empty or places windows outside the signal "
            f"(signal length {signal.size}, template length {t})"
        )
    span = signal[first : last + t]
    r = np.correlate(span, template, mode="valid")
    return normalize_correlation(r, template, span) if normalized else r


def pole_radii(coefficients) -> np.ndarray:
    """Pole magnitudes of the all-pole filter 1 / (1 + sum a_i z^-i)."""
    a = np.asarray(coefficients, dtype=np.float64)
    if a.size == 0:
        return np.zeros(0)
    return np.abs(np.roots(np.concatenate([[1.0], a])))


def stabilize_all_pole(coefficients, max_radius: float = 0.995) -> np.ndarray:
    """Shrink any pole with radius above `max_radius` onto that radius.

    Returns the (possibly unchanged) coefficient array a_1..a_p of the
    monic denominator.
    """
    a = np.asarray(coefficients, dtype=np.float64)
    if a.size == 0:
        return a.copy()
    roots = np.roots(np.concatenate([[1.0], a]))
    mags = np.abs(roots)
    if np.all(mags <= max_radius):
        return a.copy()
    scaled = np.where(mags > max_radius, roots * (max_radius / np.where(mags > 0, mags, 1.0)), roots)
    poly = np.poly(scaled)
    return np.real(poly[1:])


def split_poles(poles):
    """Check the poles of a stable real all-pole filter and split them into
    the upper-half-plane pole of each conjugate pair and the real poles.

    Raises ValueError when a pole is not finite or the non-real poles are
    not closed under conjugation (no real filter has them), and
    UnstableFilterError when a pole lies on or outside the unit circle.
    """
    p = np.atleast_1d(np.asarray(poles, dtype=np.complex128))
    if not np.all(np.isfinite(p)):
        raise ValueError("poles must be finite")
    upper = np.sort(p[p.imag > 0])
    lower = np.sort(np.conj(p[p.imag < 0]))
    if upper.size != lower.size or not np.allclose(upper, lower, rtol=0.0, atol=1e-9):
        raise ValueError("poles must be closed under complex conjugation")
    if p.size and np.abs(p).max() >= 1.0:
        raise UnstableFilterError(f"unstable all-pole filter: max pole radius {np.abs(p).max():.6f} >= 1")
    return upper, p[p.imag == 0].real


def all_pole_filter(excitation, poles, gain: float = 1.0) -> np.ndarray:
    """Filter `excitation` through gain / prod_i (1 - p_i z^-1).

    Zero initial state.  The filter runs as a cascade of second-order
    sections, one per conjugate pair or pair of real poles, so it never
    forms the polynomial whose high-order roots rounding would move.  The
    poles must pass `split_poles`.
    """
    x = np.asarray(excitation, dtype=np.float64)
    upper, reals = split_poles(poles)
    if upper.size + reals.size == 0:
        return float(gain) * x
    # one section 1 - (p + q) z^-1 + p q z^-2 per pair (p, q): a conjugate
    # pair, two real poles, or the odd real pole and 0
    reals = np.append(reals, np.zeros(reals.size % 2))
    sos = np.zeros((upper.size + reals.size // 2, 6))
    sos[:, 0] = sos[:, 3] = 1.0
    sos[0, 0] = float(gain)
    sos[:, 4] = -np.concatenate([2.0 * upper.real, reals[0::2] + reals[1::2]])
    sos[:, 5] = np.concatenate([np.abs(upper) ** 2, reals[0::2] * reals[1::2]])
    return sosfilt(sos, x)
