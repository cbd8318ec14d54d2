"""Frame-based harmonic analysis: NRD phase algebra, pitch estimation,
LPC magnitude envelopes, and the ODFT parametric front-end."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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
F0_RANGE_HZ = (60.0, 500.0)  # fundamentals that pitch search and automatic seeding look for


# ---------------------------------------------------------------------------
# NRD algebra
# ---------------------------------------------------------------------------

def wrap_cycles(values):
    """Wrap values (in cycles) to [0, 1)."""
    v = np.asarray(values, dtype=np.float64)
    return v - np.floor(v)


def vertical_unwrap(values) -> np.ndarray:
    """Remove integer-cycle jumps along the harmonic-index axis.

    Successive differences are adjusted by integers so that
    |out[l+1] - out[l]| <= 0.5; out[0] equals values[0].
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size <= 1:
        return v.copy()
    d = np.diff(v)
    d -= np.round(d)
    return np.concatenate([[v[0]], v[0] + np.cumsum(d)])


def nrd_from_phases(phases) -> np.ndarray:
    """Normalized relative delay of each harmonic, in cycles.

    nrd[l] = ((phases[l] - (l+1) * phases[0]) / 2pi) mod 1, with nrd[0]
    identically zero, then vertically unwrapped.  The result is invariant
    to any time shift of the underlying harmonic signal.
    """
    phi = np.asarray(phases, dtype=np.float64)
    if phi.size == 0:
        return np.zeros(0)
    v = wrap_cycles((phi - (np.arange(phi.size) + 1) * phi[0]) / TWO_PI)
    v[0] = 0.0
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

    def frequency_response(self, omega) -> np.ndarray:
        """Complex response at angular frequencies `omega` (rad/sample)."""
        w = np.atleast_1d(np.asarray(omega, dtype=np.float64))
        return self.gain / np.prod(1.0 - self.poles[None, :] * np.exp(-1j * w)[:, None], axis=1)

    def magnitude(self, omega) -> np.ndarray:
        return np.abs(self.frequency_response(omega))


def fit_lpc_envelope(
    magnitudes,
    omega0: float,
    order: int,
    *,
    warm_start=None,
) -> LpcModel:
    """Fit an all-pole magnitude model to a harmonic line spectrum.

    The lines are fitted as given, each weighted equally: `measure_frames`
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
    grid = np.arange(_ENVELOPE_GRID + 1) * np.pi / _ENVELOPE_GRID
    log_s = np.interp(grid, omega_l, log_target)

    # stage 1: autocorrelation-method fit of the resampled line spectrum
    # (skipped when a warm start is supplied)
    warm = warm_start is not None and warm_start.order == order
    if warm:
        poles = warm_start.poles
        budget = 300
    else:
        power = np.exp(2.0 * log_s)
        r = np.fft.irfft(power, 2 * _ENVELOPE_GRID)[: order + 1]
        # a principal submatrix of the guarded power's circulant: positive definite, condition <= 1e10
        phi = solve_toeplitz((r[:order], r[:order]), r[1:])
        poles = np.roots(np.concatenate([[1.0], -phi]))
        budget = 400

    # stage 2: pole-domain refinement of the dB error at the lines (the
    # autocorrelation norm tolerates large relative errors in spectral
    # valleys; this stage does not)
    poles, gain, info, ier = _refine_pole_fit(poles, omega_l, log_target, max_nfev=budget)
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


def _params_to_poles(params, order):
    npairs = order // 2
    nreal = order % 2
    # a logit capped at 30 keeps a pair's radius 1e-13 under the cap, so that
    # rounding in |p| never reads it above the cap
    with np.errstate(over="ignore"):
        radius = _POLE_RMAX / (1.0 + np.exp(-np.minimum(params[0 : 2 * npairs : 2], 30.0)))
    upper = radius * np.exp(1j * params[1 : 2 * npairs : 2])
    poles = np.empty(order, dtype=np.complex128)
    poles[0 : 2 * npairs : 2] = upper
    poles[1 : 2 * npairs : 2] = np.conj(upper)
    if nreal:
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

    The residual callback evaluates its point once, residual and Jacobian
    together, from the poles `_params_to_poles` returns.  Only upper poles
    get rows, against the lines at e^-jw and at e^+jw (|1 - conj(p) e^-jw| =
    |1 - p e^+jw|), plus one row at e^-jw for the real pole of an odd order.
    With g = p e^-+jw / (1 - p e^-+jw) summed over a pair's two rows, the
    pair's columns are Re(g) (1 - sigma) for its radius logit and -Im(g) for
    its angle.  The factors stay complex: as 1 + r^2 - 2 r cos(theta -+ w),
    a factor near the radius cap loses about 3 digits.  The residual callback
    returns a copy; the Jacobian callback returns the kept Jacobian when
    asked at the point evaluated last (compared bytewise, since MINPACK
    overwrites its `x` in place), and evaluates afresh otherwise."""
    from scipy.optimize import leastsq

    order = init_poles.size
    npairs = order // 2
    lines = omega_l.size
    rows = max(lines, order + 1)  # one parameter per pole, plus the log gain
    expw = np.exp(-1j * omega_l)
    # row i of `turns` meets pole `pick[i]` of `_params_to_poles`: each
    # upper pole at e^+jw, then at e^-jw, then the real pole at e^-jw
    pick = np.r_[0 : 2 * npairs : 2, 0:order:2]
    turns = np.concatenate([np.tile(np.conj(expw), (npairs, 1)), np.tile(expw, (order - npairs, 1))])
    res = np.zeros(rows)
    jac_t = np.zeros((order + 1, rows))  # the Jacobian, transposed
    jac_t[-1, :lines] = 1.0
    key = None  # the bytes of the point evaluated last

    def residual(params):
        nonlocal key
        poles = _params_to_poles(params, order)
        z = poles[pick, None] * turns
        factors = 1.0 - z
        res[:lines] = params[-1] - np.log(np.maximum(np.abs(np.prod(factors, axis=0)), 1e-300)) - log_target
        g = z / factors
        g = g[:npairs] + g[npairs : 2 * npairs]
        shrink = 1.0 - np.abs(poles[0 : 2 * npairs : 2]) / _POLE_RMAX  # 1 - sigma
        np.multiply(g.real, shrink[:, None], out=jac_t[0 : 2 * npairs : 2, :lines])
        np.negative(g.imag, out=jac_t[1 : 2 * npairs : 2, :lines])
        if order % 2:
            dq_dv = _POLE_RMAX * (1.0 - np.tanh(params[2 * npairs]) ** 2)
            jac_t[-2, :lines] = np.real(turns[-1] / factors[-1]) * dq_dv
        key = params.tobytes()
        return res.copy()

    def jacobian(params):
        if params.tobytes() != key:
            residual(params)
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
    shift-invariant harmonic phase model (NRD), and magnitude envelope
    (None on the line records of `measure_frames`)."""

    frame_index: int
    voiced: bool
    omega0: float = 0.0
    a0: float = 0.0
    phi0: float | None = None
    nrd: np.ndarray = field(default_factory=lambda: np.zeros(0))
    magnitudes: np.ndarray = field(default_factory=lambda: np.zeros(0))
    envelope: LpcModel | None = None

    def __post_init__(self):
        self.nrd = np.asarray(self.nrd, dtype=np.float64)
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        if self.voiced:
            if not 0 < self.omega0 < np.pi:
                raise ValueError("voiced frame needs 0 < omega0 < pi")
            if max(self.nrd.size, self.magnitudes.size) * self.omega0 >= np.pi:
                raise ValueError("harmonics must stay below Nyquist (L * omega0 < pi)")


def harmonic_amplitudes(params: FrameParams) -> np.ndarray:
    """Harmonic amplitudes A_l implied by a frame's a0 and envelope, one
    per NRD entry (or per measured magnitude when the frame has no NRD).

    The envelope is evaluated at (l+1)*omega0, all below Nyquist by
    `FrameParams`' check, and scaled so the fundamental comes out at a0.
    Falls back to the measured magnitudes when no envelope is present.
    """
    n = params.nrd.size or params.magnitudes.size
    if n == 0:
        return np.zeros(0)
    if params.envelope is None:
        out = np.zeros(n)
        take = min(n, params.magnitudes.size)
        out[:take] = params.magnitudes[:take]
        return out
    mags = params.envelope.magnitude((np.arange(n) + 1) * params.omega0)
    return mags * (params.a0 / mags[0])


def interpolate_params(left: FrameParams, right: FrameParams, t: float):
    """Linear parameter interpolation between two voiced frames.

    Interpolates omega0 linearly, harmonic magnitudes in the log domain
    (derived from each side's envelope at matched harmonic indices), and
    unwrapped NRD values linearly.  When harmonic counts differ the common
    prefix is interpolated and the longer side's tail is carried over.
    Every value is written as left + t * (right - left), with t clamped to
    [0, 1], so t = 0 and identical sides give the left side bit-exactly;
    t = 1 gives the right side as it is.

    Returns (omega0, amplitudes, nrd).
    """
    if not (left.voiced and right.voiced):
        raise ValueError("both frames must be voiced")
    return interpolate_lines(left, right, harmonic_amplitudes(left), harmonic_amplitudes(right), t)


def interpolate_lines(left: FrameParams, right: FrameParams, la, ra, t: float):
    """`interpolate_params` with each side's amplitudes already evaluated:
    `la` and `ra` are `harmonic_amplitudes` of `left` and `right`.  At
    t = 1 it returns `ra` itself."""
    t = min(max(float(t), 0.0), 1.0)
    if t == 1.0:
        return right.omega0, ra, right.nrd.copy()
    omega0 = left.omega0 + t * (right.omega0 - left.omega0)
    c = min(la.size, ra.size)
    n = max(la.size, ra.size)
    amps = np.zeros(n)
    tiny = 1e-300
    log_ratio = np.log(np.maximum(ra[:c], tiny)) - np.log(np.maximum(la[:c], tiny))
    amps[:c] = la[:c] * np.exp(t * log_ratio)
    longer_a = la if la.size >= ra.size else ra
    amps[c:] = longer_a[c:]
    nrd = np.zeros(n)
    cn = min(left.nrd.size, right.nrd.size)
    nrd[:cn] = left.nrd[:cn] + t * (right.nrd[:cn] - left.nrd[:cn])
    longer_n = left.nrd if left.nrd.size >= right.nrd.size else right.nrd
    nrd[cn : longer_n.size] = longer_n[cn:]
    return omega0, amps, nrd


# ---------------------------------------------------------------------------
# Pitch estimation
# ---------------------------------------------------------------------------

def _refine_peak(mags: np.ndarray, k, bin_hz: float):
    """Window-matched fractional-bin refinement of the peaks at interior
    bins `k` (an index or an array of them).

    Over its mainlobe the sine window's transform at d bins from a line is
    proportional to cos(pi d) / (1 - 4 d^2), so a line d in [0, 1/2] bins
    past the centre of bin k, toward its larger neighbour, gives the ratio
    rho = |X[k +- 1]| / |X[k]| = (1 + 2d) / (3 - 2d).  With rho clamped to
    [1/3, 1]: d = (3 rho - 1) / (2 (rho + 1)), and the line amplitude is
    |X[k]| (1 + 2d) / ((pi/2) sinc(1/2 - d)) (Harris, Proc. IEEE 66(1), 1978).

    Returns (frequency_hz, line_amplitude_in_peak_bin_units), each shaped
    like `k`."""
    side = np.where(mags[k + 1] >= mags[k - 1], 1, -1)
    rho = np.clip(mags[k + side] / mags[k], 1.0 / 3.0, 1.0)
    d = (3.0 * rho - 1.0) / (2.0 * (rho + 1.0))
    freq = (k + 0.5 + side * d) * bin_hz
    amp = mags[k] * (1.0 + 2.0 * d) / (0.5 * np.pi * np.sinc(0.5 - d))
    return freq, amp


def estimate_pitch_frame(spectrum, sample_rate: float) -> float | None:
    """Fundamental frequency of one analysis frame, or None when unvoiced.

    Works on the ODFT of a frame windowed with the square-root shifted
    Hanning window.  Spectral peaks are refined with window-matched
    interpolation, candidate fundamentals (peak frequencies divided by
    small integers) are scored by how much refined-peak amplitude they
    explain (penalizing predicted-but-missing harmonics), and the winner
    is polished by a least-squares fit over its matched harmonics.
    Candidates lie in `F0_RANGE_HZ`; the polished f0 is accepted from half
    the range's low end to 1.5 times its high end.
    """
    fmin, fmax = F0_RANGE_HZ
    spec = np.asarray(spectrum, dtype=np.complex128)
    n = spec.size
    half = n // 2
    mags = np.abs(spec[:half])
    total_energy = float(np.sum(mags**2))
    if total_energy <= 0.0:
        return None
    bin_hz = sample_rate / n

    interior = np.flatnonzero((mags[1:-1] > mags[:-2]) & (mags[1:-1] >= mags[2:])) + 1
    thresh = max(mags.max() * 1e-3, float(np.median(mags)) * 6.0)
    peaks = interior[mags[interior] > thresh]
    if peaks.size == 0:
        return None
    order = np.argsort(mags[peaks])[::-1][:16]
    pfreq, pamp = _refine_peak(mags, peaks[order], bin_hz)

    candidates = (pfreq[:, None] / np.arange(1, 13)).ravel()
    candidates = np.sort(candidates[(fmin <= candidates) & (candidates <= fmax)])
    if candidates.size == 0:
        return None
    # the lowest candidate, then each next one more than 0.5 % above the last kept
    after = np.searchsorted(candidates, candidates * 1.005, side="right")
    kept = [0]
    while after[kept[-1]] < candidates.size:
        kept.append(after[kept[-1]])

    f_cap = min(5000.0, 0.45 * sample_rate, float(pfreq.max()) * 1.3 + bin_hz)
    cands = candidates[kept]
    h_max = np.maximum(1, (f_cap / cands).astype(int))
    h = np.arange(1, int(h_max.max()) + 1)
    # the peak nearest to every harmonic of every candidate (the first on ties)
    dist = np.abs(pfreq[None, None, :] - h[None, :, None] * cands[:, None, None])
    nearest = np.argmin(dist, axis=2)
    near_dist = np.take_along_axis(dist, nearest[:, :, None], axis=2)[:, :, 0]
    tol = np.maximum(0.12 * cands, bin_hz)
    hit = (near_dist <= tol[:, None]) & (h[None, :] <= h_max[:, None])
    # a peak explains at most one harmonic per candidate: the lowest one
    claims = hit[:, :, None] & (nearest[:, :, None] == np.arange(pfreq.size))
    hit &= np.take_along_axis(np.argmax(claims, axis=1), nearest, axis=1) == np.arange(h.size)
    n_hit = hit.sum(axis=1)
    if not n_hit.any():
        return None
    # matched share of the harmonics up to the highest matched one
    top_h = h.size - np.argmax(hit[:, ::-1], axis=1)
    # left-to-right sums, so that near-ties resolve as a per-harmonic loop would
    explained = np.cumsum(np.where(hit, pamp[nearest], 0.0), axis=1)[:, -1]
    score = np.where(n_hit > 0, explained * (n_hit / top_h), -np.inf)
    best = int(np.argmax(score))
    hs = h[hit[best]].astype(np.float64)
    fs_ = pfreq[nearest[best][hit[best]]]
    ws = pamp[nearest[best][hit[best]]]
    f0 = float(np.sum(ws * hs * fs_) / np.sum(ws * hs**2))

    # the energy of the 5 bins about each matched peak, summed left to right
    near = np.round(fs_ / bin_hz - 0.5).astype(int)[:, None] + np.arange(-2, 3)
    inside = (near >= 0) & (near < half)
    power = np.where(inside, mags[np.clip(near, 0, half - 1)] ** 2, 0.0)
    matched_energy = np.cumsum(np.cumsum(power, axis=1)[:, -1])[-1]
    if matched_energy < _VOICING_THRESHOLD * total_energy:
        return None
    if not fmin * 0.5 <= f0 <= fmax * 1.5:
        return None
    return f0


# ---------------------------------------------------------------------------
# Frame-based parametric analysis
# ---------------------------------------------------------------------------

def _image_kernels(omega_l, k_star, n):
    """Real kernels kp[i, j], km[i, j] of line i's +/- frequency image in
    bin k_star[j]: `sine_window_kernel` at nu_j -+ omega_i, nu_j = 2 pi
    (k_star[j] + 1/2) / n, filled in factored form.

    The two Dirichlet terms of K at x = nu_j -+ omega_i have x/2 = pi m/n
    -+ omega_i/2 at the edges m = k_star[j] and k_star[j] + 1 of bin j.  So
    each numerator sin(n x/2) is (-1)**m (-+ sin(n omega_i/2)), a per-bin
    sign times a per-line sine, and each denominator sin(x/2) expands into
    outer products of per-bin and per-line sines and cosines.  For lines in
    (0, pi) a denominator nears zero, where the quotient loses precision,
    only at the singular limit of a +frequency image: line i lies in bin
    k_star[i], so only bins j with |k_star[j] - k_star[i]| <= 1 have an
    edge within one bin of it.  Those entries are `sine_window_kernel`
    itself, singular limit included; every other +frequency denominator has
    |x/2| >= pi/n, and every -frequency one has x/2 in [omega_i/2, pi -
    (pi - omega_i)/2]."""
    b = 0.5 * omega_l[:, None]
    sin_b, cos_b = np.sin(b), np.cos(b)
    lo, hi = np.pi * k_star / n, np.pi * (k_star + 1) / n
    sin_lo, cos_lo, sin_hi, cos_hi = np.sin(lo), np.cos(lo), np.sin(hi), np.cos(hi)
    numer = np.where(k_star % 2, -0.5, 0.5) * np.sin(n * b)
    with np.errstate(divide="ignore", invalid="ignore"):  # at the singular limit, replaced below
        kp = numer * (1.0 / (sin_hi * cos_b - cos_hi * sin_b) - 1.0 / (sin_lo * cos_b - cos_lo * sin_b))
    km = numer * (1.0 / (sin_lo * cos_b + cos_lo * sin_b) - 1.0 / (sin_hi * cos_b + cos_hi * sin_b))
    near = np.abs(k_star[None, :] - k_star[:, None]) <= 1
    nu = TWO_PI * (k_star + 0.5) / n
    kp[near] = sine_window_kernel(n, (nu[None, :] - omega_l[:, None])[near])
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
    """
    half = n // 2
    h = 0.5 * (n - 1)
    omega_l = np.arange(1, count + 1) * omega0
    k_star = np.clip(np.round(omega_l * n / TWO_PI - 0.5).astype(int), 0, half - 1)
    nu = TWO_PI * (k_star + 0.5) / n
    y = spectrum[k_star] * np.exp(1j * h * nu)

    kp, km = _image_kernels(omega_l, k_star, n)
    d = np.linalg.solve((kp + km).T, y.real) + 1j * np.linalg.solve((kp - km).T, y.imag)
    c = d * np.exp(-1j * h * omega_l)
    return c, k_star, np.exp(-1j * h * (nu - omega_l)) * np.diag(kp)


def _estimate_noise_floor(mags, k_star, half):
    mask = np.ones(half, dtype=bool)
    mask[np.clip(k_star[:, None] + np.arange(-2, 3), 0, half - 1)] = False  # 5 bins about each line
    rest = mags[mask]
    if rest.size == 0:
        return 0.0
    return float(np.median(rest))


def _quantisation_floor(window) -> float:
    """Median bin magnitude that the rounding noise of a 16-bit source
    (step 2**-15 over [-1, 1], variance step**2 / 12) leaves in a frame
    windowed by `window`: the median of a Rayleigh magnitude with
    E|X|^2 = variance * sum(window**2)."""
    step = 2.0**-15
    return float(np.sqrt(np.log(2.0) * np.sum(window**2) * step**2 / 12.0))


def measure_frames(signal: AudioBuffer, frame_len: int = 1024) -> list[FrameParams]:
    """Frame-based ODFT measurement of the harmonic lines.

    Splits the signal into `frame_len`-sample frames at 50% overlap,
    windows each with the square-root shifted Hanning window, transforms
    them all in one `odft` call, and for
    every voiced frame estimates f0 from that frame alone
    (`estimate_pitch_frame`), then the per-harmonic magnitudes and phases
    at that f0 (solved jointly across harmonics) and the NRD vector.
    Unvoiced frames are flagged and carry no parameters.  No frame carries
    an envelope: `analyze_frames` fits those.

    A frame keeps its harmonics up to the last one whose own image in its
    peak bin, |C_l W(nu_l - omega_l)| with the other lines' leakage solved
    out, stands more than 12 dB above the frame's noise floor.  The floor
    is the median of the bins away from every harmonic, but never below
    the median bin magnitude that the rounding noise of a 16-bit source
    leaves in the frame, so a source of 16 or fewer bits is assumed.
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

    frames = []
    spectra = odft(np.lib.stride_tricks.sliding_window_view(x, n)[::hop] * w)
    for m, spec in enumerate(spectra):
        f0 = estimate_pitch_frame(spec, rate)
        if f0 is None:
            frames.append(FrameParams(frame_index=m, voiced=False))
            continue
        w0 = TWO_PI * f0 / rate
        count = max(1, min(int(np.floor(0.98 * np.pi / w0)), n // 3))
        c, k_star, own = _solve_harmonics(spec, w0, count, n)
        amps = 2.0 * np.abs(c)
        phases = np.angle(c) + np.pi / 2
        mags_abs = np.abs(spec[:half])
        floor = max(_estimate_noise_floor(mags_abs, k_star, half), quant_floor)
        # each line's own image in its peak bin, the other lines' leakage
        # already solved out
        with np.errstate(divide="ignore"):
            snr_db = 20.0 * np.log10(np.abs(c * own) / floor)
        # trailing harmonics at or under the frame's noise floor are not
        # measurements; keep the contiguous run up to the last solid one
        solid = np.flatnonzero(snr_db > 12.0)
        if solid.size == 0:
            frames.append(FrameParams(frame_index=m, voiced=False))
            continue
        count = int(solid[-1]) + 1
        amps, phases = amps[:count], phases[:count]
        frames.append(
            FrameParams(
                frame_index=m,
                voiced=True,
                omega0=w0,
                a0=float(amps[0]),
                phi0=float(phases[0]),
                nrd=nrd_from_phases(phases),
                magnitudes=amps,
            )
        )
    return frames


def analyze_frames(signal: AudioBuffer, frame_len: int = 1024) -> list[FrameParams]:
    """Frame-based ODFT parametric analysis: the line records of
    `measure_frames`, each voiced one with an LPC magnitude envelope.

    The envelope is fitted at order min(`_ANALYSIS_LPC_ORDER`, 2 * lines):
    poles beyond one pair per line are constrained by nothing.  Each voiced
    frame's fit starts from the previous frame's model when that frame is
    voiced and its model has the same order; the first frame of a voiced
    run, and any frame whose order differs from its predecessor's, starts
    cold.  A frame whose fit fails is marked unvoiced.
    """
    frames = measure_frames(signal, frame_len)
    warm = None
    for m, fr in enumerate(frames):
        if fr.voiced:
            try:
                # a warm start of another order is ignored by the fitter
                fr.envelope = fit_lpc_envelope(
                    fr.magnitudes,
                    fr.omega0,
                    min(_ANALYSIS_LPC_ORDER, 2 * fr.magnitudes.size),
                    warm_start=warm,
                )
            except ValueError:
                frames[m] = FrameParams(frame_index=fr.frame_index, voiced=False)
        warm = frames[m].envelope
    return frames
