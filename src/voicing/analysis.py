"""Frame-based harmonic analysis: NRD phase algebra, pitch estimation, the
ODFT line measurement, and LPC magnitude envelopes, fitted only on request."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_toeplitz

from .dsp import (
    AudioBuffer,
    make_sqrt_shifted_hanning,
    odft,
    sine_window_kernel,
    split_poles,
)

log = logging.getLogger(__name__)
TWO_PI = 2.0 * np.pi
_POLE_RMAX = 0.998  # cap on fitted pole radii
_ENVELOPE_GRID = 2048  # points over [0, pi] for the Yule-Walker start
# numerical guard under the strongest line, not a noise floor: lines below
# it (and zeros) are raised onto it, so that their log is finite and the
# Yule-Walker start's Toeplitz system has condition at most 1e10
_ENVELOPE_FLOOR_DB = -100.0
_VOICING_THRESHOLD = 0.35  # share of frame energy a pitch's harmonics must hold
_ANALYSIS_LPC_ORDER = 18  # envelope order of a frame with at least nine lines
_SOLVE_CHUNK = 1 << 15  # kernel entries (frames x lines x lines) per stacked harmonic solve
_PITCH_CHUNK = 8  # frames per stacked pitch search, whose harmonic axis holds up to ~2,000 entries a frame
F0_RANGE_HZ = (60.0, 500.0)  # fundamentals that pitch search and automatic seeding look for


# ---------------------------------------------------------------------------
# NRD algebra
# ---------------------------------------------------------------------------

def wrap_cycles(values):
    """Wrap values (in cycles) to [0, 1)."""
    v = np.asarray(values, dtype=np.float64)
    return v - np.floor(v)


def vertical_unwrap(values) -> np.ndarray:
    """Remove integer-cycle jumps along the harmonic-index (last) axis.

    Successive differences are adjusted by integers so that
    |out[..., l+1] - out[..., l]| <= 0.5; out[..., 0] equals values[..., 0].
    A stack of vectors unwraps in one call, each row as it would alone.
    """
    v = np.asarray(values, dtype=np.float64)
    d = np.diff(v)
    d -= np.round(d)
    first = v[..., :1]
    return np.concatenate([first, first + np.cumsum(d, axis=-1)], axis=-1)


def nrd_from_phases(phases) -> np.ndarray:
    """Normalized relative delay of each harmonic, in cycles.

    nrd[l] = ((phases[l] - (l+1) * phases[0]) / 2pi) mod 1, with nrd[0]
    identically zero, then vertically unwrapped.  The result is invariant
    to any time shift of the underlying harmonic signal.  Works along the
    last axis, so a stack of phase vectors converts in one call, each row
    as it would alone.
    """
    phi = np.asarray(phases, dtype=np.float64)
    v = wrap_cycles((phi - (np.arange(phi.shape[-1]) + 1) * phi[..., :1]) / TWO_PI)
    v[..., :1] = 0.0
    return vertical_unwrap(v)


def average_nrd(track) -> np.ndarray:
    """Circular-aware per-harmonic mean of the NRD vectors in a period track.

    Accepts a PeriodTrack or any iterable of NRD vectors; vectors may have
    different lengths (each harmonic averages over the periods that carry
    it).  The result is wrapped to [0, 1) for reporting.
    """
    if hasattr(track, "periods"):
        vectors = [p.nrd for p in track.periods]
    else:
        vectors = [np.asarray(v, dtype=np.float64) for v in track]
    if not vectors:
        raise ValueError("cannot average an empty track")
    width = max(v.size for v in vectors)
    out = np.zeros(width)
    for ell in range(width):
        vals = np.array([v[ell] for v in vectors if v.size > ell])
        z = np.mean(np.exp(2j * np.pi * vals))
        out[ell] = wrap_cycles(np.angle(z) / TWO_PI)
    out[0] = 0.0
    return out


# ---------------------------------------------------------------------------
# LPC magnitude model
# ---------------------------------------------------------------------------

@dataclass
class LpcModel:
    """All-pole spectral magnitude model |H(w)| = gain / |prod_i (1 - p_i e^-jw)|,
    whose poles must pass `dsp.split_poles`."""

    poles: np.ndarray
    gain: float

    def __post_init__(self):
        self.poles = np.atleast_1d(np.asarray(self.poles, dtype=np.complex128))
        split_poles(self.poles)
        if not self.gain > 0:
            raise ValueError("gain must be positive")

    @property
    def order(self) -> int:
        return self.poles.size

    @property
    def coefficients(self) -> np.ndarray:
        """Direct-form a_1..a_p of 1 + sum a_i z^-i, for readers outside the
        library: at high order its roots are not the poles, so nothing here
        uses it."""
        return np.real(np.poly(self.poles))[1:]

    def magnitude(self, omega) -> np.ndarray:
        """|H(w)| at angular frequencies `omega` (rad/sample)."""
        w = np.atleast_1d(np.asarray(omega, dtype=np.float64))
        return np.abs(self.gain / np.prod(1.0 - self.poles[None, :] * np.exp(-1j * w)[:, None], axis=1))


def fit_lpc_envelope(
    magnitudes,
    omega0: float,
    order: int,
    *,
    warm_start=None,
) -> LpcModel:
    """Fit an all-pole magnitude model to a harmonic line spectrum, as
    `fit_envelopes` does per analysed frame (analysis itself fits none).

    The lines are fitted as given, each weighted equally: `analyze_frames`
    alone decides which lines are measurements.  Lines more than 100 dB
    under the strongest (zeros too) are raised onto that level, a numerical
    guard (`_ENVELOPE_FLOOR_DB`).  A cold fit starts from the Yule-Walker
    solution for the line spectrum (amplitudes at (l+1)*omega0) resampled
    onto a dense log-magnitude grid over [0, pi]; a warm fit starts from
    `warm_start`'s poles.  One Levenberg-Marquardt refinement of the poles
    then fits the dB error at the lines themselves.  `dsp.split_poles` alone
    decides which start poles are real (`_poles_to_params`).  Each fit logs
    one DEBUG record: cold or warm, order, lines, evaluations, RMS line
    error, largest pole radius and whether the budget ran out.

    Args:
        magnitudes: linear amplitude per harmonic, index l = 0..L-1, all
            below Nyquist (L * omega0 < pi, as `FrameParams` requires).
        omega0: fundamental angular frequency, rad/sample.
        order: all-pole model order p (L >= p/2 recommended).
        warm_start: a previously fitted LpcModel for a nearly identical
            target; its poles are the only starting point, which is both
            faster and steadier across a slowly evolving parameter track.
            A model of another order is ignored.

    Every fitted pole radius is at most `_POLE_RMAX`.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0 < omega0 < np.pi:
        raise ValueError("omega0 must lie in (0, pi)")
    mags = np.asarray(magnitudes, dtype=np.float64)
    if mags.size * omega0 >= np.pi:
        raise ValueError("harmonics must stay below Nyquist (L * omega0 < pi)")
    omega_l = (np.arange(mags.size) + 1) * omega0
    if not np.any(mags > 0):
        raise ValueError("cannot fit an envelope to all-zero magnitudes")

    guard = mags.max() * 10.0 ** (_ENVELOPE_FLOOR_DB / 20.0)
    log_target = np.log(np.maximum(mags, guard))

    # stage 1: autocorrelation-method fit of the resampled line spectrum
    # (skipped when a warm start is supplied)
    warm = warm_start is not None and warm_start.order == order
    if warm:
        poles = warm_start.poles
        budget = 300
    else:
        grid = np.arange(_ENVELOPE_GRID + 1) * np.pi / _ENVELOPE_GRID
        power = np.exp(2.0 * np.interp(grid, omega_l, log_target))
        r = np.fft.irfft(power, 2 * _ENVELOPE_GRID)[: order + 1]
        # a principal submatrix of the guarded power's circulant: positive definite, condition <= 1e10
        phi = solve_toeplitz((r[:order], r[:order]), r[1:])
        poles = np.roots(np.concatenate([[1.0], -phi]))
        budget = 400

    # stage 2: pole-domain refinement of the dB error at the lines (the
    # autocorrelation norm tolerates large relative errors in spectral
    # valleys; this stage does not)
    poles, gain, info, ier = _refine_pole_fit(poles, omega_l, log_target, max_nfev=budget)
    if log.isEnabledFor(logging.DEBUG):
        rms_db = 20.0 / np.log(10.0) * np.sqrt(np.mean(info["fvec"][: mags.size] ** 2))
        log.debug("%s envelope fit, order %d on %d lines: %d evaluations, %.3g dB RMS, radius %.6f%s",
                  "warm" if warm else "cold", order, mags.size, info["nfev"], rms_db, np.abs(poles).max(),
                  ", budget used up" if ier == 5 else "")
    return LpcModel(poles, gain)


def _poles_to_params(poles):
    """Pack poles into the (logit radius, angle) vector of the refinement
    stage.  `dsp.split_poles` is the one real-pole rule: each conjugate pair
    stays where it is, at any angle, and the real poles are paired two by
    two, largest first, 0.02 rad off the axis on their own side; at an odd
    order the smallest real is the real parameter."""
    upper, reals = split_poles(poles)
    reals = sorted(reals, key=lambda v: -abs(v))
    pairs = sorted(upper, key=lambda r: -np.abs(r))
    for r1, r2 in zip(reals[0::2], reals[1::2]):
        mag = np.sqrt(max(abs(r1) * abs(r2), 1e-6))
        pairs.append(mag * np.exp(1j * (0.02 if r1 + r2 >= 0 else np.pi - 0.02)))
    params = []
    for p in pairs:
        # a pair packed right at the cap would start where the sigmoid's
        # slope is ~1e-6, and no refit from this start could move it inward
        radius = np.clip(np.abs(p) / _POLE_RMAX, 1e-3, 1.0 - 1e-3)
        params += [np.log(radius / (1.0 - radius)), np.angle(p)]
    if len(reals) % 2:
        params.append(np.arctanh(np.clip(reals[-1] / _POLE_RMAX, -1 + 1e-6, 1 - 1e-6)))
    params.append(0.0)  # log gain, set properly by the caller
    return np.asarray(params, dtype=np.float64)


def _upper_poles(params, npairs, out=None):
    """Each pair's upper pole, radius `_POLE_RMAX` / (1 + e^-logit) at its angle (into `out` if given)."""
    # a logit capped at 30 keeps a pair's radius 1e-13 under the cap, so that rounding
    # in |p| never reads it above the cap; under -709.78, e^-logit overflows to radius 0
    with np.errstate(over="ignore"):
        radius = _POLE_RMAX / (1.0 + np.exp(-np.minimum(params[0 : 2 * npairs : 2], 30.0)))
    return np.multiply(radius, np.exp(1j * params[1 : 2 * npairs : 2]), out=out)


def _params_to_poles(params, order):
    npairs = order // 2
    upper = _upper_poles(params, npairs)
    poles = np.empty(order, dtype=np.complex128)
    poles[0 : 2 * npairs : 2] = upper
    poles[1 : 2 * npairs : 2] = np.conj(upper)
    if order % 2:
        poles[-1] = _POLE_RMAX * np.tanh(params[2 * npairs])
    return poles


def _refine_pole_fit(init_poles, omega_l, log_target, *, max_nfev):
    """Least-squares fit of the log magnitude at the harmonic lines, every
    line weighted equally (the optimal log gain is the mean of log_target +
    log|A|), parameterized by pole radii (through a sigmoid, so stability
    is structural) and angles, starting from `init_poles`.  Returns (poles,
    gain, info, ier): every pole radius at most `_POLE_RMAX`, and MINPACK's
    `infodict` (`nfev`, final residuals `fvec`) and exit code (5: the
    budget ran out).

    Every shape is solved by MINPACK's Levenberg-Marquardt, lmder, called
    through `scipy.optimize.leastsq` with the analytic Jacobian: the routine,
    scaling (`diag=None`), step bound (`factor=100`) and tolerances that
    `least_squares(method="lm", x_scale="jac")` reaches, without its
    per-evaluation wrapper.  When a frame has fewer lines than parameters,
    zero rows pad the residual and the Jacobian (LM needs as many residuals
    as parameters); they leave the least-squares problem unchanged.

    Only upper poles get rows, against the lines at e^-jw and at e^+jw
    (|1 - conj(p) e^-jw| = |1 - p e^+jw|), plus one row at e^-jw for the
    real pole of an odd order.  With g = p e^-+jw / (1 - p e^-+jw) summed
    over a pair's two rows, the pair's columns are Re(g) (1 - sigma) for
    its radius logit and -Im(g) for its angle.  The factors stay complex: as
    1 + r^2 - 2 r cos(theta -+ w), a factor near the radius cap loses about
    3 digits.  The residual callback keeps its point's upper poles, p e^-+jw
    and factors, and returns a copy.  The Jacobian, which lmder asks for at
    the start and at each accepted point, is formed from them only when
    asked at the point evaluated last (compared bytewise, since MINPACK
    overwrites its `x` in place); elsewhere the point is evaluated afresh."""
    from scipy.optimize import leastsq

    order = init_poles.size
    npairs = order // 2
    lines = omega_l.size
    rows = max(lines, order + 1)  # one parameter per pole, plus the log gain
    expw = np.exp(-1j * omega_l)
    # row i of `turns` meets pole i of `column`: each upper pole at e^+jw,
    # then at e^-jw, then the real pole at e^-jw
    turns = np.concatenate([np.tile(np.conj(expw), (npairs, 1)), np.tile(expw, (order - npairs, 1))])
    column = np.empty((order, 1), dtype=np.complex128)
    upper = column[:npairs, 0]
    z = np.empty_like(turns)
    factors = np.empty_like(turns)
    res = np.zeros(rows)
    jac_t = np.zeros((order + 1, rows))  # the Jacobian, transposed
    jac_t[-1, :lines] = 1.0
    key = None  # the bytes of the point evaluated last

    def residual(params):
        nonlocal key
        _upper_poles(params, npairs, out=upper)
        column[npairs : 2 * npairs, 0] = upper
        if order % 2:
            column[-1, 0] = _POLE_RMAX * np.tanh(params[2 * npairs])
        np.multiply(column, turns, out=z)
        np.subtract(1.0, z, out=factors)
        res[:lines] = params[-1] - np.log(np.maximum(np.abs(np.multiply.reduce(factors, axis=0)), 1e-300)) - log_target
        key = params.tobytes()
        return res.copy()

    def jacobian(params):
        if params.tobytes() != key:
            residual(params)
        g = z / factors
        g = g[:npairs] + g[npairs : 2 * npairs]
        shrink = 1.0 - np.abs(upper) / _POLE_RMAX  # 1 - sigma
        np.multiply(g.real, shrink[:, None], out=jac_t[0 : 2 * npairs : 2, :lines])
        np.negative(g.imag, out=jac_t[1 : 2 * npairs : 2, :lines])
        if order % 2:
            dq_dv = _POLE_RMAX * (1.0 - np.tanh(params[2 * npairs]) ** 2)
            jac_t[-2, :lines] = np.real(turns[-1] / factors[-1]) * dq_dv
        return jac_t.T

    start = _poles_to_params(init_poles)
    start[-1] = -np.mean(residual(start)[:lines])  # from the residual at log gain 0
    # leastsq also forms the covariance of the fit, which is discarded here;
    # from a singular Jacobian that product overflows and makes NaNs
    with np.errstate(over="ignore", invalid="ignore"):
        x, _, info, _, ier = leastsq(
            residual,
            start,
            Dfun=jacobian,
            full_output=True,
            ftol=1e-13,
            xtol=1e-13,
            gtol=1e-13,
            maxfev=max_nfev,
        )
    return _params_to_poles(x, order), float(np.exp(x[-1])), info, ier


# ---------------------------------------------------------------------------
# Frame parameters
# ---------------------------------------------------------------------------

@dataclass
class FrameParams:
    """Per-frame parametric record: f0, fundamental magnitude/phase,
    shift-invariant harmonic phase model (NRD), line magnitudes, and an
    envelope (None from `analyze_frames`; `fit_envelopes` adds one).

    An unvoiced frame says which gate made it so in `unvoiced_reason`: "no
    pitch" (the pitch search found none), "no line above the floor" (no
    harmonic passed `analyze_frames`' 12 dB gate) or "envelope fit failed"
    (`fit_envelopes`' fit raised).  It is None on voiced frames.
    """

    frame_index: int
    voiced: bool
    omega0: float = 0.0
    a0: float = 0.0
    phi0: float | None = None
    nrd: np.ndarray = field(default_factory=lambda: np.zeros(0))
    magnitudes: np.ndarray = field(default_factory=lambda: np.zeros(0))
    envelope: LpcModel | None = None
    unvoiced_reason: str | None = None

    def __post_init__(self):
        self.nrd = np.asarray(self.nrd, dtype=np.float64)
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        if self.voiced:
            if not 0 < self.omega0 < np.pi:
                raise ValueError("voiced frame needs 0 < omega0 < pi")
            if max(self.nrd.size, self.magnitudes.size) * self.omega0 >= np.pi:
                raise ValueError("harmonics must stay below Nyquist (L * omega0 < pi)")


def harmonic_amplitudes(params: FrameParams) -> np.ndarray:
    """Harmonic amplitudes A_l a frame commands, one per NRD entry (or per
    measured magnitude when the frame has no NRD: only GLO renders those).

    Without an envelope, as from `analyze_frames`, a copy of the measured
    magnitudes, at most one per NRD entry (FRE and TIM reject a frame with
    fewer).  With one (`fit_envelopes`, or a hand-built plan), the envelope
    is evaluated at (l+1)*omega0, all below Nyquist by `FrameParams`'
    check, and scaled so the fundamental comes out at a0.
    """
    n = params.nrd.size or params.magnitudes.size
    if params.envelope is None:
        return params.magnitudes[:n].copy()
    if n == 0:
        return np.zeros(0)
    mags = params.envelope.magnitude((np.arange(n) + 1) * params.omega0)
    return mags * (params.a0 / mags[0])


# ---------------------------------------------------------------------------
# Pitch estimation
# ---------------------------------------------------------------------------

def _refine_peak(mags: np.ndarray, k, bin_hz: float, rows=Ellipsis):
    """Window-matched fractional-bin refinement of the peaks at interior
    bins `k` (an index or an array of them); with a stack of magnitude
    rows, `rows` names each peak's row.

    Over its mainlobe the sine window's transform at d bins from a line is
    proportional to cos(pi d) / (1 - 4 d^2), so a line d in [0, 1/2] bins
    past the centre of bin k, toward its larger neighbour, gives the ratio
    rho = |X[k +- 1]| / |X[k]| = (1 + 2d) / (3 - 2d).  With rho clamped to
    [1/3, 1]: d = (3 rho - 1) / (2 (rho + 1)), and the line amplitude is
    |X[k]| (1 + 2d) / ((pi/2) sinc(1/2 - d)) (Harris, Proc. IEEE 66(1), 1978).

    Returns (frequency_hz, line_amplitude_in_peak_bin_units), each shaped
    like `k`."""
    side = np.where(mags[rows, k + 1] >= mags[rows, k - 1], 1, -1)
    rho = np.clip(mags[rows, k + side] / mags[rows, k], 1.0 / 3.0, 1.0)
    d = (3.0 * rho - 1.0) / (2.0 * (rho + 1.0))
    freq = (k + 0.5 + side * d) * bin_hz
    amp = mags[rows, k] * (1.0 + 2.0 * d) / (0.5 * np.pi * np.sinc(0.5 - d))
    return freq, amp


def _split_rows(values, row, rows):
    """`values` cut into one array per row, given each value's `row`, in
    order and sorted by row."""
    return np.split(values, np.cumsum(np.bincount(row, minlength=rows))[:-1])


def _sums_in_order(values, row, rows):
    """Each row's sum of its (at most 16) `values` taken left to right, as
    `np.cumsum` adds them, given each value's `row`, sorted by row."""
    table = np.zeros((rows, 16))
    table[row, np.arange(row.size) - np.searchsorted(row, row)] = values
    return np.cumsum(table, axis=1)[:, -1]


def estimate_pitch_frame(spectrum, sample_rate: float) -> float | None:
    """Fundamental frequency of one analysis frame, or None when unvoiced:
    the one-row call of `_pitch_frames`.

    Works on the ODFT of a frame windowed with the square-root shifted
    Hanning window.  Spectral peaks are refined with window-matched
    interpolation, candidate fundamentals (peak frequencies divided by
    small integers) are scored by how much refined-peak amplitude they
    explain (penalizing predicted-but-missing harmonics), and the winner
    is polished by a least-squares fit over its matched harmonics.
    Candidates lie in `F0_RANGE_HZ`; the polished f0 is accepted from half
    the range's low end to 1.5 times its high end.
    """
    f0 = _pitch_frames(np.asarray(spectrum, dtype=np.complex128)[None], sample_rate)[0]
    return None if np.isnan(f0) else float(f0)


def _pitch_frames(spectra, sample_rate: float) -> np.ndarray:
    """`estimate_pitch_frame` of each row of `spectra` (NaN for None), the
    harmonics of every candidate of every row on one axis.  Only a row's
    peak order (its own `np.argsort`, so that ties fall as they would
    alone), its sorted searches, best pick and polish sums go row by row."""
    fmin, fmax = F0_RANGE_HZ
    n = spectra.shape[-1]
    bin_hz = sample_rate / n
    mags = np.abs(spectra[:, : n // 2])
    energy = np.sum(mags**2, axis=1)
    thresh = np.maximum(mags.max(axis=1) * 1e-3, np.median(mags, axis=1) * 6.0)
    core = mags[:, 1:-1]
    peaked = (core > mags[:, :-2]) & (core >= mags[:, 2:]) & (core > thresh[:, None])
    f0 = np.full(spectra.shape[0], np.nan)
    frames = np.flatnonzero((energy > 0.0) & peaked.any(axis=1))
    if frames.size == 0:
        return f0
    mags, energy, rows = mags[frames], energy[frames], np.arange(frames.size)
    # each row's (at most 16) strongest peaks, strongest first, refined into
    # (rows, 16) tables of frequencies (inf past a row's last peak) and amplitudes
    peak_row, k = np.nonzero(peaked[frames])
    top = [p[np.argsort(m[p])[::-1][:16]] for m, p in zip(mags, _split_rows(k + 1, peak_row, frames.size))]
    npk = np.array([p.size for p in top], dtype=int)
    peak_row = np.repeat(rows, npk)
    slot = np.arange(peak_row.size) - np.repeat(np.cumsum(npk) - npk, npk)
    pfreq, pamp = np.full((frames.size, 16), np.inf), np.zeros((frames.size, 16))
    pfreq[peak_row, slot], pamp[peak_row, slot] = _refine_peak(mags, np.concatenate(top + [slot[:0]]), bin_hz, peak_row)

    # candidates: a row's peak frequencies over 1..12 in range, sorted; the
    # lowest, then each next one more than 0.5 % above the last kept
    cand = (pfreq[:, :, None] / np.arange(1, 13)).reshape(frames.size, -1)
    cand = np.sort(np.where((fmin <= cand) & (cand <= fmax), cand, np.inf), axis=1)
    kept = []
    for row_cand in cand:
        row_cand = row_cand[: np.searchsorted(row_cand, np.inf)]
        after = np.searchsorted(row_cand, row_cand * 1.005, side="right").tolist()
        chain = [0] if row_cand.size else []
        while chain and after[chain[-1]] < row_cand.size:
            chain.append(after[chain[-1]])
        kept.append(np.array(chain, dtype=int))
    ncand = np.array([chain.size for chain in kept], dtype=int)
    crow = np.repeat(rows, ncand)  # each kept candidate's row
    cands = cand[crow, np.concatenate(kept + [crow[:0]])]
    top_freq = np.max(pfreq, axis=1, where=pfreq < np.inf, initial=0.0)
    f_cap = np.minimum(min(5000.0, 0.45 * sample_rate), top_freq * 1.3 + bin_hz)
    h_max = np.maximum(1, (f_cap[crow] / cands).astype(int))
    # every harmonic of every candidate, candidate by candidate: harmonic
    # h[e] of candidate c[e], in row r[e]
    c = np.repeat(np.arange(cands.size), h_max)
    r = crow[c]
    h = np.arange(c.size) - np.repeat(np.cumsum(h_max) - h_max - 1, h_max)
    target = h * cands[c]
    # the peak nearest to each (the first in amplitude order on ties): one of
    # the two about it in frequency, since the peaks lie at least two bins apart
    by_freq = np.argsort(pfreq, axis=1)
    ascending = np.take_along_axis(pfreq, by_freq, axis=1)
    above = np.concatenate([np.searchsorted(a, t) for a, t in zip(ascending, _split_rows(target, r, frames.size))])
    above = np.minimum(above, npk[r] - 1)
    below = np.maximum(above - 1, 0)
    lo, hi = by_freq[r, below], by_freq[r, above]
    d_lo, d_hi = np.abs(pfreq[r, lo] - target), np.abs(pfreq[r, hi] - target)
    up = (d_hi < d_lo) | ((d_hi == d_lo) & (hi < lo))
    nearest = np.where(up, hi, lo)
    hit = np.where(up, d_hi, d_lo) <= np.maximum(0.12 * cands, bin_hz)[c]
    # a peak explains at most one harmonic per candidate: the lowest one.  The
    # nearest peak's frequency rank never falls along h, so with each
    # candidate's ranks offset past the last one's, a harmonic's peak was
    # claimed before iff it is the running maximum of the ranks hit so far
    rank = np.where(up, above, below) + 16 * c
    claimed = np.maximum.accumulate(np.where(hit, rank, -1))
    hit[1:] &= claimed[:-1] != rank[1:]
    hits = np.flatnonzero(hit)
    hc = c[hits]
    last = np.append(hc[1:] != hc[:-1], True)[: hc.size]
    n_hit = np.bincount(hc, minlength=cands.size)
    # matched share of the harmonics up to the highest matched one
    top_h = np.ones(cands.size, dtype=int)
    top_h[hc[last]] = h[hits[last]]
    # left-to-right sums, so that near-ties resolve as a per-harmonic loop would
    explained = _sums_in_order(pamp[r[hits], nearest[hits]], hc, cands.size)
    score = np.where(n_hit > 0, explained * (n_hit / top_h), -np.inf)

    # each row's best candidate (the first of its highest scores) and the
    # least-squares f0 over that candidate's matched harmonics
    first = np.cumsum(ncand) - ncand
    best = np.full(frames.size, -1)
    for i in np.flatnonzero(np.bincount(crow, weights=n_hit, minlength=frames.size) > 0):
        best[i] = first[i] + np.argmax(score[first[i] : first[i] + ncand[i]])
    chosen = hits[hc == best[crow[hc]]]
    mr, hs = r[chosen], h[chosen].astype(np.float64)
    fs_, ws = pfreq[mr, nearest[chosen]], pamp[mr, nearest[chosen]]
    nums, dens = _split_rows(ws * hs * fs_, mr, frames.size), _split_rows(ws * hs**2, mr, frames.size)
    for i, num, den in zip(frames, nums, dens):
        if num.size:
            f0[i] = np.sum(num) / np.sum(den)

    # the energy of the 5 bins about each matched peak, summed left to right
    near = np.round(fs_ / bin_hz - 0.5).astype(int)[:, None] + np.arange(-2, 3)
    inside = (near >= 0) & (near < mags.shape[1])
    power = np.cumsum(np.where(inside, mags[mr[:, None], np.clip(near, 0, mags.shape[1] - 1)] ** 2, 0.0), axis=1)
    weak = _sums_in_order(power[:, -1], mr, frames.size) < _VOICING_THRESHOLD * energy
    f0[frames[weak | ~((fmin * 0.5 <= f0[frames]) & (f0[frames] <= fmax * 1.5))]] = np.nan
    return f0


# ---------------------------------------------------------------------------
# Frame-based parametric analysis
# ---------------------------------------------------------------------------

def _image_kernels(omega_l, k_star, n):
    """Real kernels kp[..., i, j], km[..., i, j] of line i's +/- frequency
    image in bin k_star[..., j]: `sine_window_kernel` at nu_j -+ omega_i,
    nu_j = 2 pi (k_star[..., j] + 1/2) / n, filled in factored form.  The
    lines rise and `k_star`, each line's peak bin, never falls along them.
    A stack of line sets (leading axes of `omega_l` and `k_star`) fills in
    one call, each as it would alone.

    The two Dirichlet terms of K at x = nu_j -+ omega_i have x/2 = pi m/n
    -+ omega_i/2 at the edges m = k_star[j] and k_star[j] + 1 of bin j.  So
    each numerator sin(n x/2) is (-1)**m (-+ sin(n omega_i/2)), a per-bin
    sign times a per-line sine, and each denominator sin(x/2) expands into
    outer products of per-bin and per-line sines and cosines, the same four
    products for both images.  For lines in (0, pi) a denominator nears
    zero, where the quotient loses precision, only at the singular limit of
    a +frequency image: line i lies in bin k_star[i], so only bins j with
    |k_star[j] - k_star[i]| <= 1 have an edge within one bin of it.  Those
    entries are `sine_window_kernel` itself, singular limit included; every
    other +frequency denominator has |x/2| >= pi/n, and every -frequency one
    has x/2 in [omega_i/2, pi - (pi - omega_i)/2]."""
    b = 0.5 * omega_l[..., :, None]
    sin_b, cos_b = np.sin(b), np.cos(b)
    bins = k_star[..., None, :]
    lo, hi = np.pi * bins / n, np.pi * (bins + 1) / n
    sin_lo, cos_lo, sin_hi, cos_hi = np.sin(lo), np.cos(lo), np.sin(hi), np.cos(hi)
    sign, sin_nb = np.where(bins % 2, -0.5, 0.5), np.sin(n * b)
    hc, hs, lc, ls = sin_hi * cos_b, cos_hi * sin_b, sin_lo * cos_b, cos_lo * sin_b
    # kp = (1/(hc - hs) - 1/(lc - ls)) sign sin_nb and km = (1/(lc + ls) -
    # 1/(hc + hs)) sign sin_nb, each reciprocal written over a product no
    # longer needed (the sign is a power of two, so the order of the two
    # factors does not change a bit)
    with np.errstate(divide="ignore", invalid="ignore"):  # at the singular limit, replaced below
        kp = np.divide(1.0, hc - hs)
        np.divide(1.0, np.add(hc, hs, out=hc), out=hc)
        kp -= np.divide(1.0, np.subtract(lc, ls, out=hs), out=hs)
        kp *= sign
        kp *= sin_nb
    km = np.divide(1.0, np.add(lc, ls, out=lc), out=lc)
    km -= hc
    km *= sign
    km *= sin_nb
    # those entries are a band: with each line set offset by n the bins of the
    # stack never fall, so one sorted search finds every line's run of bins
    count = k_star.shape[-1]
    ks = (k_star + n * np.arange(k_star.size // count).reshape(k_star.shape[:-1] + (1,))).ravel()
    first = np.searchsorted(ks, ks - 1)
    width = np.searchsorted(ks, ks + 1, side="right") - first
    i = np.repeat(np.arange(ks.size), width)  # line, over the stack
    j = np.arange(i.size) + np.repeat(first + width - np.cumsum(width), width)  # bin, over the stack
    nu = TWO_PI * (k_star.ravel()[j] + 0.5) / n
    kp.reshape(-1, count)[i, j % count] = sine_window_kernel(n, nu - omega_l.ravel()[i])
    return kp, km


def _solve_harmonics(spectrum, omega0, count, n):
    """Joint estimate of the complex harmonic amplitudes from peak bins.

    Models each measured peak bin as the sum of every harmonic's windowed
    positive- and negative-frequency images and solves that model exactly.
    About the frame centre h = (n - 1) / 2 the window's transform is the
    real `sine_window_kernel` K times exp(-1j h nu), so with the bins
    rotated by exp(1j h nu) and the amplitudes by exp(1j h omega) the
    model splits into two real systems, one per real and imaginary part.
    `_image_kernels` fills their matrices from per-line and per-bin factors,
    and from `sine_window_kernel` itself where K reaches its singular limit.
    Returns (C, k_star, own): A_l = 2|C_l| and phi_l = angle(C_l) + pi/2,
    k_star_l is line l's peak bin, and own_l = W(nu_l - omega_l) is its
    +frequency image there.

    A stack of spectra (leading axes of `spectrum`, an `omega0` each) solves
    in one call and one `np.linalg.solve`, each frame as it would alone.
    """
    half = n // 2
    h = 0.5 * (n - 1)
    omega_l = np.arange(1, count + 1) * np.asarray(omega0, dtype=np.float64)[..., None]
    k_star = np.clip(np.round(omega_l * n / TWO_PI - 0.5).astype(int), 0, half - 1)
    nu = TWO_PI * (k_star + 0.5) / n
    y = np.take_along_axis(spectrum, k_star, axis=-1) * np.exp(1j * h * nu)

    kp, km = _image_kernels(omega_l, k_star, n)
    own = np.exp(-1j * h * (nu - omega_l)) * np.diagonal(kp, axis1=-2, axis2=-1)
    systems = np.empty((2,) + kp.shape)
    np.add(kp, km, out=systems[0])
    np.subtract(kp, km, out=systems[1])
    del kp, km  # the kernels' memory is free again for the solve's copies
    d = np.linalg.solve(np.swapaxes(systems, -1, -2), np.stack([y.real, y.imag])[..., None])[..., 0]
    return (d[0] + 1j * d[1]) * np.exp(-1j * h * omega_l), k_star, own


def _noise_floors(mags, k_star):
    """`np.median` of each row of `mags` over its bins away from its lines
    (5 bins about each of the row's `k_star`), 0 where none is left."""
    half = mags.shape[-1]
    rows = np.arange(len(mags))[:, None]
    taken = np.zeros(mags.shape, dtype=bool)
    taken[rows, np.clip(k_star[:, :, None] + np.arange(-2, 3), 0, half - 1).reshape(len(mags), -1)] = True
    rest = np.sort(np.where(taken, np.inf, mags), axis=1)
    left = half - np.count_nonzero(taken, axis=1)
    # the middle one of an odd count, the mean of the middle two of an even one
    mid = (rest[rows[:, 0], (left - 1) // 2] + rest[rows[:, 0], left // 2]) / 2
    return np.where(left > 0, mid, 0.0)


def _quantisation_floor(window) -> float:
    """Median bin magnitude that the rounding noise of a 16-bit source
    (step 2**-15 over [-1, 1], variance step**2 / 12) leaves in a frame
    windowed by `window`: the median of a Rayleigh magnitude with
    E|X|^2 = variance * sum(window**2)."""
    step = 2.0**-15
    return float(np.sqrt(np.log(2.0) * np.sum(window**2) * step**2 / 12.0))


def analyze_frames(signal: AudioBuffer, frame_len: int = 1024) -> list[FrameParams]:
    """Frame-based ODFT parametric analysis: the harmonic lines, measured.

    Splits the signal into `frame_len`-sample frames at 50% overlap,
    windows each with the square-root shifted Hanning window, transforms
    them all in one `odft` call, and for every voiced frame estimates f0
    from that frame alone (`_pitch_frames`, of which `estimate_pitch_frame`
    is the one-row call), then the per-harmonic magnitudes and phases at
    that f0 (solved jointly across harmonics) and the NRD vector.  Unvoiced
    frames are flagged with their reason and carry no parameters.  No
    envelope is fitted: the engines render the measured lines, and
    `fit_envelopes` fits where a command moves f0 off them.

    A frame keeps its harmonics up to the last one whose own image in its
    peak bin, |C_l W(nu_l - omega_l)| with the other lines' leakage solved
    out, stands more than 12 dB above the frame's noise floor.  The floor
    is the median of the bins away from every harmonic, but never below
    the median bin magnitude that the rounding noise of a 16-bit source
    leaves in the frame, so a source of 16 or fewer bits is assumed.

    The measurement is one stacked pass, every frame's numbers bitwise what
    it would get alone.  The pitch search takes `_PITCH_CHUNK` frames at a
    time (`_pitch_frames`).  The voiced frames are grouped by line count,
    and each group is cut into chunks of at most `_SOLVE_CHUNK` kernel
    entries (frames x lines x lines, at least one frame), which bounds the
    pass's memory and keeps the kernels in cache: each chunk fills its
    kernels in one broadcast, solves all its systems in one
    `_solve_harmonics` call, and takes its noise floors, 12 dB gates and
    NRD vectors together.
    """
    n = int(frame_len)
    hop = n // 2
    x = signal.samples
    if x.size < n:
        raise ValueError(f"signal shorter than one frame ({x.size} < {n})")
    w = make_sqrt_shifted_hanning(n)
    half = n // 2
    rate = signal.sample_rate
    quant_floor = _quantisation_floor(w)

    spectra = odft(np.lib.stride_tricks.sliding_window_view(x, n)[::hop] * w)
    parts = np.split(spectra, range(_PITCH_CHUNK, len(spectra), _PITCH_CHUNK))
    f0 = np.concatenate([_pitch_frames(part, rate) for part in parts])
    frames = [FrameParams(frame_index=m, voiced=False, unvoiced_reason="no pitch") for m in range(len(spectra))]
    voiced = np.flatnonzero(~np.isnan(f0))
    w0 = TWO_PI * f0[voiced] / rate
    counts = np.maximum(1, np.minimum(np.floor(0.98 * np.pi / w0).astype(int), n // 3))
    for count in np.unique(counts):
        group = np.flatnonzero(counts == count)
        step = max(1, _SOLVE_CHUNK // count**2)
        for chunk in np.split(group, range(step, group.size, step)):
            spec = spectra[voiced[chunk]]
            c, k_star, own = _solve_harmonics(spec, w0[chunk], count, n)
            amps = 2.0 * np.abs(c)
            phases = np.angle(c) + np.pi / 2
            nrd = nrd_from_phases(phases)
            floors = np.maximum(_noise_floors(np.abs(spec[:, :half]), k_star), quant_floor)
            # each line's own image in its peak bin, the other lines' leakage
            # already solved out
            with np.errstate(divide="ignore"):
                solid = 20.0 * np.log10(np.abs(c * own) / floors[:, None]) > 12.0
            # trailing harmonics at or under the frame's noise floor are not
            # measurements; keep the contiguous run up to the last solid one
            kept = count - np.argmax(solid[:, ::-1], axis=1)
            for row, i in enumerate(chunk):
                m = int(voiced[i])
                if not solid[row].any():
                    frames[m] = FrameParams(frame_index=m, voiced=False, unvoiced_reason="no line above the floor")
                    continue
                k = kept[row]
                frames[m] = FrameParams(
                    frame_index=m,
                    voiced=True,
                    omega0=float(w0[i]),
                    a0=float(amps[row, 0]),
                    phi0=float(phases[row, 0]),
                    nrd=nrd[row, :k],
                    magnitudes=amps[row, :k],
                )
    return frames


def fit_envelopes(frames: list[FrameParams]) -> list[FrameParams]:
    """New records of `frames`, each voiced one with an LPC magnitude
    envelope fitted to its lines; `frames` is left as it is.

    The envelope is fitted at order min(`_ANALYSIS_LPC_ORDER`, 2 * lines),
    at most one conjugate pair per line.  The fit has order + 1 parameters
    (a radius and an angle per pair, plus the gain) and one residual per
    line, so under order + 1 lines (19 at the full order) it has more
    parameters than residuals and `_refine_pole_fit` pads the residual
    with zero rows.  Each voiced frame's fit starts from the previous
    frame's model when that frame is voiced and its model has the same
    order; the first frame of a voiced run, and any frame whose order
    differs from its predecessor's, starts cold.  A frame whose fit fails
    is marked unvoiced, with the reason "envelope fit failed".
    """
    out = []
    warm = None
    for fr in frames:
        if fr.voiced:
            order = min(_ANALYSIS_LPC_ORDER, 2 * fr.magnitudes.size)
            try:
                # a warm start of another order is ignored by the fitter
                fr = replace(fr, envelope=fit_lpc_envelope(fr.magnitudes, fr.omega0, order, warm_start=warm))
            except ValueError:
                fr = FrameParams(frame_index=fr.frame_index, voiced=False, unvoiced_reason="envelope fit failed")
        out.append(fr)
        warm = fr.envelope
    return out
