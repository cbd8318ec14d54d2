"""Tests for NRD algebra, LPC envelope fitting, pitch estimation, and the
frame-based parametric front-end."""

import copy
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voicing import analysis
from voicing.analysis import (
    _POLE_RMAX,
    FrameParams,
    LpcModel,
    _image_kernels,
    _noise_floors,
    _params_to_poles,
    _poles_to_params,
    _refine_peak,
    _refine_pole_fit,
    _solve_harmonics,
    analyze_frames,
    average_nrd,
    estimate_pitch_frame,
    fit_envelopes,
    fit_lpc_envelope,
    harmonic_amplitudes,
    nrd_from_phases,
    vertical_unwrap,
    wrap_cycles,
)
from voicing.dsp import AudioBuffer, all_pole_filter, make_sqrt_shifted_hanning, odft, sine_window_kernel
from voicing.synthesis import SynthesisPlan, synth_fre

RATE = 22050


def make_harmonic_signal(f0, amps, nrd, n_samples, rate=RATE, phi0=0.0):
    """Additive-synthesis oracle: exact harmonic signal with known NRD."""
    n = np.arange(n_samples)
    omega0 = 2 * np.pi * f0 / rate
    x = np.zeros(n_samples)
    for ell, (a, d) in enumerate(zip(amps, nrd)):
        phase = 2 * np.pi * d + (ell + 1) * phi0
        x += a * np.sin((ell + 1) * omega0 * n + phase)
    return x


def reference_pitch_frame(spectrum, sample_rate, *, fmin=60.0, fmax=500.0):
    """`estimate_pitch_frame` as a per-candidate, per-harmonic loop: the
    reference its vectorised candidate scoring must reproduce exactly."""
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
    peaks = peaks[np.argsort(mags[peaks])[::-1][:16]]
    refined = [_refine_peak(mags, int(k), bin_hz) for k in peaks]
    pfreq = np.array([f for f, _ in refined])
    pamp = np.array([a for _, a in refined])

    candidates = sorted(f / h for f in pfreq for h in range(1, 13) if fmin <= f / h <= fmax)
    if not candidates:
        return None
    deduped = [candidates[0]]
    for c in candidates[1:]:
        if c > deduped[-1] * 1.005:
            deduped.append(c)

    f_cap = min(5000.0, 0.45 * sample_rate, float(pfreq.max()) * 1.3 + bin_hz)
    best = None
    for cand in deduped:
        matched, hit_h, used = [], [], set()
        for h in range(1, max(1, int(f_cap / cand)) + 1):
            dist = np.abs(pfreq - h * cand)
            j = int(np.argmin(dist))
            if dist[j] <= max(0.12 * cand, bin_hz) and j not in used:
                used.add(j)
                matched.append((h, pfreq[j], pamp[j]))
                hit_h.append(h)
        if not matched:
            continue
        misses = sum(1 for h in range(1, max(hit_h) + 1) if h not in hit_h)
        score = sum(a for _, _, a in matched) * (len(matched) / (len(matched) + misses))
        if best is None or score > best[0]:
            best = (score, cand, matched)
    if best is None:
        return None

    matched = best[2]
    hs = np.array([h for h, _, _ in matched], dtype=np.float64)
    fs_ = np.array([f for _, f, _ in matched])
    ws = np.array([a for _, _, a in matched])
    f0 = float(np.sum(ws * hs * fs_) / np.sum(ws * hs**2))
    matched_energy = 0.0
    for _, f, _ in matched:
        k = int(round(f / bin_hz - 0.5))
        matched_energy += float(np.sum(mags[max(0, k - 2) : min(half, k + 3)] ** 2))
    if matched_energy < 0.35 * total_energy:
        return None
    if not fmin * 0.5 <= f0 <= fmax * 1.5:
        return None
    return f0


def reference_image_kernels(omega_l, k_star, n):
    """`_image_kernels` of one frame, as the per-frame measurement filled
    them: the reference of the stacked fill."""
    b = 0.5 * omega_l[:, None]
    sin_b, cos_b = np.sin(b), np.cos(b)
    lo, hi = np.pi * k_star / n, np.pi * (k_star + 1) / n
    sin_lo, cos_lo, sin_hi, cos_hi = np.sin(lo), np.cos(lo), np.sin(hi), np.cos(hi)
    numer = np.where(k_star % 2, -0.5, 0.5) * np.sin(n * b)
    with np.errstate(divide="ignore", invalid="ignore"):  # at the singular limit, replaced below
        kp = numer * (1.0 / (sin_hi * cos_b - cos_hi * sin_b) - 1.0 / (sin_lo * cos_b - cos_lo * sin_b))
    km = numer * (1.0 / (sin_lo * cos_b + cos_lo * sin_b) - 1.0 / (sin_hi * cos_b + cos_hi * sin_b))
    near = np.abs(k_star[None, :] - k_star[:, None]) <= 1
    nu = 2 * np.pi * (k_star + 0.5) / n
    kp[near] = sine_window_kernel(n, (nu[None, :] - omega_l[:, None])[near])
    return kp, km


def reference_solve_harmonics(spectrum, omega0, count, n):
    """`_solve_harmonics` of one frame, two `np.linalg.solve` calls."""
    half = n // 2
    h = 0.5 * (n - 1)
    omega_l = np.arange(1, count + 1) * omega0
    k_star = np.clip(np.round(omega_l * n / (2 * np.pi) - 0.5).astype(int), 0, half - 1)
    nu = 2 * np.pi * (k_star + 0.5) / n
    y = spectrum[k_star] * np.exp(1j * h * nu)

    kp, km = reference_image_kernels(omega_l, k_star, n)
    d = np.linalg.solve((kp + km).T, y.real) + 1j * np.linalg.solve((kp - km).T, y.imag)
    c = d * np.exp(-1j * h * omega_l)
    return c, k_star, np.exp(-1j * h * (nu - omega_l)) * np.diag(kp)


def reference_noise_floor(mags, k_star, half):
    mask = np.ones(half, dtype=bool)
    mask[np.clip(k_star[:, None] + np.arange(-2, 3), 0, half - 1)] = False  # 5 bins about each line
    rest = mags[mask]
    if rest.size == 0:
        return 0.0
    return float(np.median(rest))


def reference_analyze_frames(signal, frame_len=1024):
    """`analyze_frames` as a per-frame loop, with `reference_pitch_frame`,
    `reference_solve_harmonics` and `reference_noise_floor`: the reference
    its stacked pass must reproduce bitwise."""
    n = int(frame_len)
    hop = n // 2
    x = signal.samples
    if x.size < n:
        raise ValueError(f"signal shorter than one frame ({x.size} < {n})")
    w = make_sqrt_shifted_hanning(n)
    half = n // 2
    rate = signal.sample_rate
    quant_floor = analysis._quantisation_floor(w)

    frames = []
    spectra = odft(np.lib.stride_tricks.sliding_window_view(x, n)[::hop] * w)
    for m, spec in enumerate(spectra):
        f0 = reference_pitch_frame(spec, rate)
        if f0 is None:
            frames.append(FrameParams(frame_index=m, voiced=False, unvoiced_reason="no pitch"))
            continue
        w0 = 2 * np.pi * f0 / rate
        count = max(1, min(int(np.floor(0.98 * np.pi / w0)), n // 3))
        c, k_star, own = reference_solve_harmonics(spec, w0, count, n)
        amps = 2.0 * np.abs(c)
        phases = np.angle(c) + np.pi / 2
        mags_abs = np.abs(spec[:half])
        floor = max(reference_noise_floor(mags_abs, k_star, half), quant_floor)
        # each line's own image in its peak bin, the other lines' leakage
        # already solved out
        with np.errstate(divide="ignore"):
            snr_db = 20.0 * np.log10(np.abs(c * own) / floor)
        # trailing harmonics at or under the frame's noise floor are not
        # measurements; keep the contiguous run up to the last solid one
        solid = np.flatnonzero(snr_db > 12.0)
        if solid.size == 0:
            frames.append(FrameParams(frame_index=m, voiced=False, unvoiced_reason="no line above the floor"))
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


def assert_same_frames(got, want):
    """Field for field the same frames: scalars equal and of one type,
    arrays equal and of one dtype."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("frame_index", "voiced", "omega0", "a0", "phi0", "envelope", "unvoiced_reason"):
            assert type(getattr(g, name)) is type(getattr(w, name)), name
            assert getattr(g, name) == getattr(w, name), name
        for name in ("nrd", "magnitudes"):
            assert getattr(g, name).dtype == getattr(w, name).dtype, name
            assert np.array_equal(getattr(g, name), getattr(w, name)), name


def stepped_signal(segments, seed):
    """Segments of (kind, f0, lines, samples) joined: "tone" is `lines`
    harmonics at f0, "noise" white noise and "silence" digital silence,
    all rounded to 16 bits together; "quiet" is the tone 120 dB down,
    under the 16-bit step and left unrounded."""
    rng = np.random.default_rng(seed)
    loud, quiet = [], []
    for kind, f0, lines, size in segments:
        amps = rng.uniform(0.1, 1.0, lines) / np.arange(1, lines + 1)
        tone = make_harmonic_signal(f0, amps, rng.uniform(0, 1, lines), size)
        loud.append({"tone": tone, "noise": 0.1 * rng.standard_normal(size)}.get(kind, np.zeros(size)))
        quiet.append(1e-6 * tone if kind == "quiet" else np.zeros(size))
    x = np.concatenate(loud)
    peak = np.max(np.abs(x))
    if peak > 0:
        x = np.round(x / peak * 32767) / 32767
    return x + np.concatenate(quiet)


def isolated_peaks(n, peaks):
    """An n-bin spectrum, zero but for the bins in `peaks` (bin: magnitude).
    Each such bin is a peak whose refined frequency is exactly its centre,
    (k + 1/2) bins, so that distances between peaks and harmonics tie
    exactly where the bins are placed to make them tie."""
    spec = np.zeros(n, dtype=np.complex128)
    for k, mag in peaks.items():
        spec[k] = mag
    return spec


def capture_solves(monkeypatch):
    """Record (residual, jacobian, x0, MINPACK routine, keyword arguments,
    result) of every `leastsq` call that `fit_lpc_envelope` makes, passing
    each call through."""
    solve = scipy.optimize.leastsq
    calls = []

    def recording(func, x0, *, Dfun=None, **kwargs):
        result = solve(func, x0, Dfun=Dfun, **kwargs)
        # leastsq runs lmder on an analytic Jacobian, lmdif on finite differences
        calls.append((func, Dfun, np.array(x0), "lmdif" if Dfun is None else "lmder", kwargs, result))
        return result

    monkeypatch.setattr(scipy.optimize, "leastsq", recording)
    return calls


def reference_fit_closures(order, omega_l, log_target):
    """`_refine_pole_fit`'s residual and Jacobian as two passes over every
    pole's factor, conjugates included: the reference its own evaluation
    must reproduce to rounding."""
    npairs = order // 2
    nreal = order % 2
    lines = omega_l.size
    rows = max(lines, order + 1)  # one parameter per pole, plus the log gain
    expw = np.exp(-1j * omega_l)
    last = {}  # a copy of the point evaluated last, and its poles and factors

    def log_den(params):
        poles = _params_to_poles(params, order)
        factors = 1.0 - poles[None, :] * expw[:, None]
        last.update(params=params.copy(), poles=poles, factors=factors)
        return np.log(np.maximum(np.abs(np.prod(factors, axis=1)), 1e-300))

    def residual(params):
        out = np.zeros(rows)
        out[:lines] = params[-1] - log_den(params) - log_target
        return out

    def jacobian(params):
        if not np.array_equal(last.get("params"), params):
            log_den(params)
        poles, factors = last["poles"], last["factors"]
        f_all = -expw[:, None] / factors  # d log(1 - p e^-jw) / dp
        jac = np.zeros((rows, params.size))
        if npairs:
            upper = poles[0 : 2 * npairs : 2]
            sig = np.abs(upper) / _POLE_RMAX
            f_up = f_all[:, 0 : 2 * npairs : 2]
            f_dn = f_all[:, 1 : 2 * npairs : 2]
            dp_du = upper * (1.0 - sig)
            jac[:lines, 0 : 2 * npairs : 2] = -np.real(
                f_up * dp_du[None, :] + f_dn * np.conj(dp_du)[None, :]
            )
            jac[:lines, 1 : 2 * npairs : 2] = -np.real(
                f_up * (1j * upper)[None, :] + f_dn * (-1j * np.conj(upper))[None, :]
            )
        if nreal:
            v = params[2 * npairs]
            dq_dv = _POLE_RMAX * (1.0 - np.tanh(v) ** 2)
            jac[:lines, 2 * npairs] = -np.real(f_all[:, -1] * dq_dv)
        jac[:lines, -1] = 1.0
        return jac

    return residual, jacobian


def reference_fused_closures(order, omega_l, log_target):
    """`_refine_pole_fit`'s residual and Jacobian as they were when one
    evaluation formed both, from the full pole array gathered row by row:
    the reference the lean evaluation must reproduce bitwise."""

    def params_to_poles(params):
        npairs = order // 2
        nreal = order % 2
        with np.errstate(over="ignore"):
            radius = _POLE_RMAX / (1.0 + np.exp(-np.minimum(params[0 : 2 * npairs : 2], 30.0)))
        upper = radius * np.exp(1j * params[1 : 2 * npairs : 2])
        poles = np.empty(order, dtype=np.complex128)
        poles[0 : 2 * npairs : 2] = upper
        poles[1 : 2 * npairs : 2] = np.conj(upper)
        if nreal:
            poles[-1] = _POLE_RMAX * np.tanh(params[2 * npairs])
        return poles

    npairs = order // 2
    lines = omega_l.size
    rows = max(lines, order + 1)
    expw = np.exp(-1j * omega_l)
    pick = np.r_[0 : 2 * npairs : 2, 0:order:2]
    turns = np.concatenate([np.tile(np.conj(expw), (npairs, 1)), np.tile(expw, (order - npairs, 1))])
    res = np.zeros(rows)
    jac_t = np.zeros((order + 1, rows))
    jac_t[-1, :lines] = 1.0
    key = None

    def residual(params):
        nonlocal key
        poles = params_to_poles(params)
        z = poles[pick, None] * turns
        factors = 1.0 - z
        res[:lines] = params[-1] - np.log(np.maximum(np.abs(np.prod(factors, axis=0)), 1e-300)) - log_target
        g = z / factors
        g = g[:npairs] + g[npairs : 2 * npairs]
        shrink = 1.0 - np.abs(poles[0 : 2 * npairs : 2]) / _POLE_RMAX
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

    return residual, jacobian


def fit_closures(order, omega_l, log_target, params):
    """`_refine_pole_fit`'s own residual and Jacobian for these lines, taken
    from a `leastsq` stub that returns the start; `params` is the start."""
    got = []

    def stub(func, x0, *, Dfun=None, **kwargs):
        got.append((func, Dfun))
        return x0, None, {"nfev": 1, "fvec": func(x0)}, "", 1

    with mock.patch.object(scipy.optimize, "leastsq", stub):
        _refine_pole_fit(_params_to_poles(params, order), omega_l, log_target, max_nfev=1)
    return got[0]


class TestNrdAlgebra:
    def test_zero_phases(self):
        np.testing.assert_allclose(nrd_from_phases(np.zeros(5)), np.zeros(5))

    def test_pure_time_shift_is_zero(self):
        for phi0 in (0.3, -1.2, 2.9):
            phases = (np.arange(1, 7)) * phi0
            np.testing.assert_allclose(nrd_from_phases(phases), np.zeros(6), atol=1e-12)

    def test_direct_formula(self):
        phases = np.array([0.3, 1.1, 2.0])
        raw = wrap_cycles((phases - np.arange(1, 4) * 0.3) / (2 * np.pi))
        raw[0] = 0.0
        expected = vertical_unwrap(raw)
        np.testing.assert_allclose(nrd_from_phases(phases), expected, atol=1e-15)

    def test_roundtrip_phase_reconstruction(self):
        rng = np.random.default_rng(5)
        phases = rng.uniform(-np.pi, np.pi, 12)
        nrd = nrd_from_phases(phases)
        rebuilt = 2 * np.pi * nrd + np.arange(1, 13) * phases[0]
        diff = (rebuilt - phases) / (2 * np.pi)
        np.testing.assert_allclose(diff - np.round(diff), 0.0, atol=1e-12)

    @settings(max_examples=50)
    @given(
        phases=st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=60),
        tau=st.floats(-2 * np.pi, 2 * np.pi),
    )
    def test_time_shift_invariance(self, phases, tau):
        # a delay of the signal adds (l + 1) * tau to line l's phase
        phases = np.asarray(phases)
        shifted = phases + np.arange(1, phases.size + 1) * tau
        diff = nrd_from_phases(shifted) - nrd_from_phases(phases)
        np.testing.assert_allclose(diff - np.round(diff), 0.0, rtol=0.0, atol=1e-9)

    def test_stack_matches_row_by_row(self):
        # a stack of phase vectors converts each row as it would alone
        rng = np.random.default_rng(24)
        for shape in ((6, 17), (4, 1)):
            phases = rng.uniform(-np.pi, np.pi, shape)
            want = np.array([nrd_from_phases(row) for row in phases])
            np.testing.assert_array_equal(nrd_from_phases(phases), want)

    def test_unwrap_single_correction(self):
        np.testing.assert_allclose(vertical_unwrap([0.0, 0.9, 0.8]), [0.0, -0.1, -0.2], atol=1e-12)

    def test_unwrap_already_smooth(self):
        np.testing.assert_allclose(vertical_unwrap([0.0, 0.2, 0.4]), [0.0, 0.2, 0.4], atol=1e-12)

    def test_unwrap_ramp_property(self):
        # constructed ramp oracle: a monotone ramp wrapped twice unwraps to
        # a piecewise-continuous sequence with steps <= 0.5
        ramp = np.linspace(0.0, 2.3, 40)
        out = vertical_unwrap(wrap_cycles(ramp))
        assert np.max(np.abs(np.diff(out))) <= 0.5 + 1e-12
        np.testing.assert_allclose(np.diff(out), np.diff(ramp), atol=1e-12)

    def test_average_identical(self):
        v = np.array([0.0, 0.2, 0.7])
        np.testing.assert_allclose(average_nrd([v, v, v]), v, atol=1e-12)

    def test_average_arithmetic(self):
        out = average_nrd([np.array([0.0, 0.1]), np.array([0.0, 0.3])])
        np.testing.assert_allclose(out, [0.0, 0.2], atol=1e-12)

    def test_average_across_wrap_point(self):
        out = average_nrd([np.array([0.0, 0.95]), np.array([0.0, 0.05])])
        assert min(out[1], 1.0 - out[1]) == pytest.approx(0.0, abs=1e-12)

    def test_average_empty_rejected(self):
        with pytest.raises(ValueError):
            average_nrd([])

    def test_average_of_empty_vectors_rejected(self):
        # vectors that carry no harmonic leave nothing to average either
        for track in ([np.zeros(0)], [np.zeros(0), np.array([])]):
            with pytest.raises(ValueError, match="empty track"):
                average_nrd(track)


class TestLpcEnvelope:
    def test_flat_magnitudes(self):
        f0 = 110.0
        omega0 = 2 * np.pi * f0 / RATE
        mags = np.ones(80)
        model = fit_lpc_envelope(mags, omega0, 18)
        response = model.magnitude((np.arange(1, 81)) * omega0)
        db = 20 * np.log10(response)
        assert np.max(db) - np.min(db) <= 1.0

    def test_single_resonance_pole_recovery(self):
        # known-pole construction oracle
        omega_res = 2 * np.pi * 900.0 / RATE
        pole = 0.97 * np.exp(1j * omega_res)
        true_model = LpcModel([pole, np.conj(pole)], 1.0)
        omega0 = 2 * np.pi * 110.0 / RATE
        omega_l = np.arange(1, 90) * omega0
        mags = true_model.magnitude(omega_l)
        fit = fit_lpc_envelope(mags, omega0, 4)
        roots = np.roots(np.concatenate([[1.0], fit.coefficients]))
        angles = np.angle(roots[np.imag(roots) > 0])
        best = angles[np.argmin(np.abs(angles - omega_res))]
        assert abs(best - omega_res) / omega_res <= 0.02

    @staticmethod
    def _vowel_model():
        # formant resonator cascade plus glottal-style tilt
        formants = [(700, 110), (1220, 120), (2600, 160), (3300, 200)]
        poles = []
        for fc, bw in formants:
            r = np.exp(-np.pi * bw / RATE)
            poles += [r * np.exp(2j * np.pi * fc / RATE), r * np.exp(-2j * np.pi * fc / RATE)]
        poles += [0.98, 0.9]  # spectral tilt
        return LpcModel(poles, 1.0)

    def test_vowel_like_envelope_median_error(self):
        # vowel-like target measured from a synthesized sustained-vowel period
        rng = np.random.default_rng(9)
        model = self._vowel_model()
        omega0 = 2 * np.pi * 118.0 / RATE
        omega_l = np.arange(1, 85) * omega0
        mags = model.magnitude(omega_l) * np.exp(rng.normal(0, 0.02, omega_l.size))
        # measured line spectra sit on an acoustic noise floor
        mags = np.maximum(mags, mags.max() * 10 ** (-55 / 20))
        fit = fit_lpc_envelope(mags, omega0, 18)
        err_db = np.abs(20 * np.log10(fit.magnitude(omega_l) / mags))
        assert np.median(err_db) <= 3.0

    def test_deep_lines_fitted_as_given(self):
        # the vowel's lines down to 95 dB under the strongest: the fitter
        # raises none of them onto a floor, so every one is fitted
        model = self._vowel_model()
        omega0 = 2 * np.pi * 118.0 / RATE
        omega_l = np.arange(1, 37) * omega0
        db = 20 * np.log10(model.magnitude(omega_l) / model.magnitude(omega_l).max())
        assert db[34] >= -95.0 > db[35]  # line 36 is the first below -95 dB
        omega_l, mags = omega_l[:35], model.magnitude(omega_l[:35])
        fit = fit_lpc_envelope(mags, omega0, 18)
        err_db = np.abs(20 * np.log10(fit.magnitude(omega_l) / mags))
        assert np.max(err_db) <= 1.0

    def test_warm_start_keeps_pair_at_nyquist(self):
        # a pair that a fit leaves at angle pi stays a pair to `split_poles`;
        # this model's exact double real pole at -0.9 is repacked as a
        # near-real pair 0.02 rad from pi, and the warm fit must walk it back
        poles = [0.96 * np.exp(2j * np.pi * 700 / RATE), 0.94 * np.exp(2j * np.pi * 1900 / RATE)]
        poles += [np.conj(p) for p in poles] + [-0.9, -0.9]
        model = LpcModel(poles, 1.0)
        omega0 = 2 * np.pi * 110.0 / RATE
        omega_l = np.arange(1, 100) * omega0
        mags = model.magnitude(omega_l)
        fit = fit_lpc_envelope(mags, omega0, 6, warm_start=model)
        assert np.max(np.abs(20 * np.log10(fit.magnitude(omega_l) / mags))) <= 0.01

    @settings(max_examples=100)
    @given(
        pairs=st.lists(st.tuples(st.floats(1e-3, 1.0 - 1e-3), st.floats(1e-300, np.pi)), min_size=1, max_size=10),
        real=st.none() | st.floats(-1.0 + 1e-6, 1.0 - 1e-6),
    )
    # pairs within 1e-9 of the real axis and exactly at angle pi
    @example(pairs=[(0.5, 1e-12), (0.9, np.pi), (0.2, 2e-9)], real=None)
    @example(pairs=[(0.5, 1e-12), (0.9, np.pi), (0.2, 2e-9)], real=-0.3)
    def test_fitted_poles_survive_a_repack(self, pairs, real):
        # a model the refinement returns, with radii inside the packing clip,
        # packs back onto its own poles: a warm start begins where the
        # previous fit ended
        fraction, angle = np.array(pairs).T
        params = np.column_stack([np.log(fraction / (1.0 - fraction)), angle]).ravel()
        if real is not None:
            params = np.append(params, np.arctanh(real))
        params = np.append(params, 0.0)
        order = 2 * len(pairs) + (real is not None)
        poles = _params_to_poles(params, order)
        back = _params_to_poles(_poles_to_params(poles), order)
        rows, cols = scipy.optimize.linear_sum_assignment(np.abs(poles[:, None] - back[None, :]))
        assert np.abs(poles[rows] - back[cols]).max() <= 1e-12

    def test_each_fit_is_logged(self, monkeypatch, caplog):
        # one DEBUG record per fit: its start, its size and how it ended
        calls = capture_solves(monkeypatch)
        omega0 = 2 * np.pi * 140.0 / RATE
        mags = np.exp(-0.15 * np.arange(20)) * (1.0 + 0.5 * np.cos(np.arange(20)))
        omega_l = np.arange(1, 21) * omega0
        with caplog.at_level("DEBUG", logger="voicing.analysis"):
            cold = fit_lpc_envelope(mags, omega0, 9)
            warm = fit_lpc_envelope(mags, omega0, 9, warm_start=cold)
        records = [r.getMessage() for r in caplog.records if r.name == "voicing.analysis"]
        # the line error is the returned model's, and the radius its largest;
        # MINPACK's exit code 5 means the evaluation budget ran out
        assert records == [
            f"{start} envelope fit, order 9 on 20 lines: {info['nfev']} evaluations, "
            f"{np.sqrt(np.mean(np.log10(fit.magnitude(omega_l) / mags) ** 2)) * 20:.3g} dB RMS, "
            f"radius {np.abs(fit.poles).max():.6f}"
            + (", budget used up" if ier == 5 else "")
            for start, (*_, (_, _, info, _, ier)), fit in zip(["cold", "warm"], calls, [cold, warm], strict=True)
        ]

    @pytest.mark.parametrize("lines, order", [(20, 10), (20, 9), (6, 12)])
    def test_jacobian_matches_finite_differences(self, monkeypatch, lines, order):
        calls = capture_solves(monkeypatch)
        omega0 = 2 * np.pi * 140.0 / RATE
        mags = np.exp(-0.15 * np.arange(lines)) * (1.0 + 0.5 * np.cos(np.arange(lines)))
        fit_lpc_envelope(mags, omega0, order)
        residual, jacobian, x0, *_ = calls[0]
        rng = np.random.default_rng(order)
        x = x0 + rng.normal(0.0, 0.1, x0.size)
        step = 1e-6
        numeric = np.empty((residual(x).size, x.size))
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = step
            numeric[:, i] = (residual(x + e) - residual(x - e)) / (2 * step)
        # the last residual point differs from x: a Jacobian served from a
        # stale evaluation fails here.  MINPACK overwrites its point in place,
        # so the stale point's buffer is the one the Jacobian is asked at
        point = x + 0.05
        residual(point)
        point[:] = x
        jac = jacobian(point)
        rows = max(lines, order + 1)  # zero rows pad an underdetermined fit
        assert jac.shape == (rows, order + 1)
        np.testing.assert_allclose(jac, numeric, rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(jac[lines:], 0.0)
        np.testing.assert_array_equal(residual(x)[lines:], 0.0)

    @pytest.mark.parametrize(
        "f0, order, lines", [(140.0, 9, 40), (140.0, 10, 40), (230.0, 10, 6), (80.0, 17, 100)]
    )
    def test_fit_is_least_squares_lm(self, monkeypatch, f0, order, lines):
        # the model is bitwise the one that least_squares' LM method returns
        # from the same closures, start and budget: one MINPACK routine,
        # scaling, step bound and tolerances.  The lines are those of an
        # all-pole model of the fitted order, so each fit converges, and to
        # one point: fits that use up their budget or stall with saturated
        # parameters can end at different points on identical input, in
        # least_squares as in leastsq
        formants = [
            (700, 110), (1220, 120), (2600, 160), (3300, 200), (4200, 250), (5200, 300), (6400, 350), (7600, 400)
        ]  # fmt: skip
        radii = [np.exp(-np.pi * bw / RATE) for _, bw in formants[: order // 2]]
        upper = [r * np.exp(2j * np.pi * fc / RATE) for r, (fc, _) in zip(radii, formants)]
        truth = LpcModel(upper + [np.conj(p) for p in upper] + [0.9] * (order % 2), 1.0)
        omega0 = 2 * np.pi * f0 / RATE
        omega_l = np.arange(1, lines + 1) * omega0
        mags = truth.magnitude(omega_l)
        lm = scipy.optimize.leastsq
        calls = capture_solves(monkeypatch)
        fit = fit_lpc_envelope(mags, omega0, order)
        residual, jacobian, x0, _, kwargs, (x, _, info, _, ier) = calls[0]
        assert ier in (1, 2, 3, 4)  # converged
        ref = scipy.optimize.least_squares(
            residual,
            x0,
            jac=jacobian,
            method="lm",
            x_scale="jac",
            ftol=1e-13,
            xtol=1e-13,
            gtol=1e-13,
            max_nfev=kwargs["maxfev"],
        )
        assert ref.nfev == info["nfev"]
        np.testing.assert_array_equal(ref.x, x)
        np.testing.assert_array_equal(_params_to_poles(ref.x, order), fit.poles)
        assert float(np.exp(ref.x[-1])) == fit.gain
        # MINPACK fed the two-pass reference closures from the same start
        # stops after as many evaluations, on the same test, at lines within
        # 1e-6 dB: the library's evaluation takes the reference's path
        log_target = np.log(np.maximum(mags, mags.max() * 1e-5))  # fit_lpc_envelope's -100 dB guard
        ref_residual, ref_jacobian = reference_fit_closures(order, omega_l, log_target)
        ref_x, _, ref_info, _, ref_ier = lm(ref_residual, x0, Dfun=ref_jacobian, **kwargs)
        assert (ref_info["nfev"], ref_ier) == (info["nfev"], ier)
        fits = [LpcModel(_params_to_poles(p, order), np.exp(p[-1])) for p in (x, ref_x)]
        assert np.abs(20 * np.log10(fits[0].magnitude(omega_l) / fits[1].magnitude(omega_l))).max() <= 1e-6
        # and fed the fused copy, which formed the Jacobian at every point, it
        # ends bitwise where the lean closures did, after as many evaluations
        fused_residual, fused_jacobian = reference_fused_closures(order, omega_l, log_target)
        fused_x, _, fused_info, _, fused_ier = lm(fused_residual, x0, Dfun=fused_jacobian, **kwargs)
        assert (fused_info["nfev"], fused_ier) == (info["nfev"], ier) and np.array_equal(fused_x, x)

    @settings(max_examples=60)
    @given(data=st.data(), order=st.integers(1, 18), lines=st.integers(1, 130))
    # the shapes of analysis, with more parameters than lines in the second
    @example(data=None, order=18, lines=54)
    @example(data=None, order=18, lines=6)
    def test_fused_evaluation_matches_reference(self, data, order, lines):
        # pointwise, against the two-pass closures: logits out to the
        # radius cap, angles at 0, at pi and on a line, and zero padding
        if data is None:  # an example's point: radii near the cap, angles on lines
            omega0 = np.pi / (lines + 1)
            log_target = -0.1 * np.arange(lines)
            pairs = [(30.0 - 7 * k, (k + 1) * omega0) for k in range(order // 2)]
            real = [5.0] * (order % 2)
        else:
            omega0 = data.draw(st.floats(1e-3, np.pi / (lines + 1)))
            log_target = np.array(data.draw(st.lists(st.floats(-12.0, 3.0), min_size=lines, max_size=lines)))
            logit = st.one_of(st.floats(-30.0, 30.0), st.sampled_from([-30.0, 30.0, 45.0]))
            angle = st.one_of(
                st.floats(-np.pi, np.pi),
                st.sampled_from([0.0, np.pi]),
                st.integers(1, lines).map(lambda ell: ell * omega0),
            )
            pairs = data.draw(st.lists(st.tuples(logit, angle), min_size=order // 2, max_size=order // 2))
            real = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=order % 2, max_size=order % 2))
        x = np.array([v for pair in pairs for v in pair] + real + [0.7])
        omega_l = (np.arange(lines) + 1) * omega0
        residual, jacobian = fit_closures(order, omega_l, log_target, x)
        ref_residual, ref_jacobian = reference_fit_closures(order, omega_l, log_target)
        fresh = np.array(jacobian(x.copy()))  # the last point evaluated is the start
        r = residual(x)
        jac = jacobian(x)  # kept from the residual's evaluation
        np.testing.assert_array_equal(jac, fresh)
        ref_r, ref_jac = ref_residual(x), ref_jacobian(x)
        assert r.shape == ref_r.shape and jac.shape == ref_jac.shape == (max(lines, order + 1), order + 1)
        assert np.abs(r - ref_r).max() <= 1e-12 * np.abs(ref_r).max()
        assert np.abs(jac - ref_jac).max() <= 1e-12 * np.abs(ref_jac).max()
        np.testing.assert_array_equal(r[lines:], 0.0)
        np.testing.assert_array_equal(jac[lines:], 0.0)

    @settings(max_examples=60)
    @given(data=st.data(), order=st.integers(1, 18), lines=st.integers(1, 130))
    def test_lean_evaluation_matches_fused_copy(self, data, order, lines):
        # bitwise, against the closures that formed the Jacobian at every
        # residual: logits out to the radius cap and beyond exp's overflow
        # (-log(DBL_MAX) itself still gives a radius above 0), angles at 0,
        # at pi and on a line, odd orders, zero padding, and a Jacobian asked
        # at another point than the last residual's, in the residual's own
        # buffer as MINPACK does
        omega0 = data.draw(st.floats(1e-3, np.pi / (lines + 1)))
        log_target = np.array(data.draw(st.lists(st.floats(-12.0, 3.0), min_size=lines, max_size=lines)))
        edge = -709.782712893384  # log(DBL_MAX): the last logit whose e^-logit is finite
        logit = st.one_of(
            st.floats(-1000.0, 50.0),
            st.sampled_from([-30.0, 30.0, 45.0, edge, np.nextafter(edge, -np.inf), -1e4]),
        )
        angle = st.one_of(
            st.floats(-np.pi, np.pi), st.sampled_from([0.0, np.pi]), st.integers(1, lines).map(lambda ell: ell * omega0)
        )

        def point():
            pairs = data.draw(st.lists(st.tuples(logit, angle), min_size=order // 2, max_size=order // 2))
            real = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=order % 2, max_size=order % 2))
            return np.array([v for pair in pairs for v in pair] + real + [data.draw(st.floats(-5.0, 5.0))])

        a, b = point(), point()
        omega_l = (np.arange(lines) + 1) * omega0
        residual, jacobian = fit_closures(order, omega_l, log_target, a)
        ref_residual, ref_jacobian = reference_fused_closures(order, omega_l, log_target)
        np.testing.assert_array_equal(residual(a), ref_residual(a))
        np.testing.assert_array_equal(jacobian(a), ref_jacobian(a))
        x = a.copy()
        np.testing.assert_array_equal(residual(x), ref_residual(a))
        x[:] = b
        np.testing.assert_array_equal(jacobian(x), ref_jacobian(b))
        np.testing.assert_array_equal(residual(a), ref_residual(a))

    def test_one_solver_for_every_shape(self, monkeypatch):
        # 6 lines at order 12: more parameters than lines
        calls = capture_solves(monkeypatch)
        omega0 = 2 * np.pi * 140.0 / RATE
        mags = np.array([1.0, 0.7, 0.45, 0.3, 0.2, 0.12])
        fit = fit_lpc_envelope(mags, omega0, 12)
        assert calls and {routine for _, _, _, routine, _, _ in calls} == {"lmder"}
        # bound: the 4.5e-5 dB that scipy's TRF solver reaches on this fit
        err_db = np.abs(20 * np.log10(fit.magnitude(np.arange(1, 7) * omega0) / mags))
        assert np.max(err_db) <= 4.5e-5

    def test_singular_fit_is_quiet(self):
        # a warm fit met in analysis (order 18 on 31 lines at 140 Hz), whose
        # start holds two pairs within 2e-7 rad of pi: the Jacobian where it
        # converges is singular, and the covariance that leastsq forms from
        # it, which the fitter discards, overflows and makes NaNs
        omega0 = 0.039889075563911795
        mags = [
            0.2620819787658773, 0.14655129406658213, 0.117971979742972, 0.14552552759852802,
            0.2999811406753382, 0.09738745040477695, 0.055419266904624044, 0.05889489875889556,
            0.05563730216224335, 0.01398235202853808, 0.00580570468908278, 0.0031795228226778123,
            0.0020202241644780338, 0.0014872429813263832, 0.001214767379789389, 0.0011643952514852312,
            0.0013288493340842, 0.0021565722479127804, 0.0019857066305824693, 0.000825791140638398,
            0.0004884513249555975, 0.0003992939728488033, 0.000427689476698935, 0.0002934703756030328,
            9.721613534765658e-05, 4.18360386042257e-05, 2.0530166047204888e-05, 1.1546069187701201e-05,
            6.768570398831992e-06, 4.275509650410975e-06, 2.772436089596675e-06,
        ]  # fmt: skip
        upper = np.array([
            -0.9944399833699159 + 1.5818931282918259e-10j, -0.9935474876298337 + 2.0803057252226186e-07j,
            0.7118896766543019 + 0.6857283679378922j, 0.825574022045653 + 0.025209786157708948j,
            0.8470724943065462 + 0.3895677498499787j, 0.8516538688222046 + 0.5202764667700597j,
            0.9262129624858545 + 0.0005902636726206896j, 0.9280889977462682 + 0.32664097665312564j,
            0.9637370856924384 + 0.194783093526568j,
        ])  # fmt: skip
        warm = LpcModel(np.concatenate([upper, np.conj(upper)]), 6.179773001439365e-08)
        fit = fit_lpc_envelope(mags, omega0, 18, warm_start=warm)  # a RuntimeWarning fails here
        assert np.abs(fit.poles).max() <= _POLE_RMAX

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            fit_lpc_envelope(np.zeros(10), 0.03, 12)

    def test_lines_at_nyquist_rejected(self):
        omega0 = 2 * np.pi * 500.0 / RATE
        count = int(np.ceil(np.pi / omega0))  # the last line at or above pi
        with pytest.raises(ValueError, match="Nyquist"):
            fit_lpc_envelope(np.ones(count), omega0, 8)
        assert fit_lpc_envelope(np.ones(count - 1), omega0, 8).order == 8

    def test_gain_positive_required(self):
        with pytest.raises(ValueError):
            LpcModel(np.zeros(0), 0.0)

    def test_poles_not_closed_under_conjugation_rejected(self):
        with pytest.raises(ValueError):
            LpcModel([0.5 + 0.3j], 1.0)
        with pytest.raises(ValueError):
            LpcModel([0.5 + 0.3j, 0.5 - 0.2j, 0.4], 1.0)

    def test_clustered_poles_stay_exact(self):
        # nine pairs at radius 0.998 within 0.4 rad: the direct-form
        # coefficients of this model re-root outside the unit circle
        upper = 0.998 * np.exp(1j * np.linspace(0.2, 0.6, 9))
        poles = np.concatenate([upper, np.conj(upper)])
        model = LpcModel(poles, 0.5)
        assert np.abs(np.roots(np.concatenate([[1.0], model.coefficients]))).max() > 1.0
        omega = np.linspace(0.0, np.pi, 257)
        expected = np.full(omega.size, 0.5)
        for p in poles:
            expected /= np.abs(1.0 - p * np.exp(-1j * omega))
        np.testing.assert_allclose(model.magnitude(omega), expected, rtol=1e-9)
        impulse = np.zeros(30000)
        impulse[0] = 1.0
        y = all_pole_filter(impulse, model.poles, model.gain)
        assert np.all(np.isfinite(y))
        assert np.abs(y[-2000:]).max() < 1e-20 * np.abs(y).max()

    @settings(max_examples=30)
    @given(
        mags=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=40),
        f0=st.floats(60.0, 500.0),
        order=st.integers(1, 26),
        start=st.sampled_from(["cold", "warm"]),
    )
    # a pair that saturates its radius sigmoid: |p| rounds one ulp above the
    # cap unless the fitter keeps it under
    @example(mags=[0.125, 0.75, 0.5], f0=62.0, order=3, start="cold")
    # lines alternating between the strongest one and the -100 dB guard (or
    # below it): the Yule-Walker start's normal equations at their worst
    # conditioning
    @example(mags=[1.0, 0.0] * 20, f0=100.0, order=1, start="cold")
    @example(mags=[1.0, 1e-9] * 20, f0=100.0, order=1, start="cold")
    @example(mags=[1.0, 0.0] * 20, f0=100.0, order=18, start="cold")
    @example(mags=[1.0, 1e-9] * 20, f0=100.0, order=18, start="cold")
    @example(mags=[1.0, 0.0] * 20, f0=100.0, order=26, start="cold")
    @example(mags=[1.0, 1e-9] * 20, f0=100.0, order=26, start="cold")
    def test_fitted_poles_stay_under_cap(self, mags, f0, order, start):
        omega0 = 2 * np.pi * f0 / RATE
        mags = np.asarray(mags)
        warm = None
        if start == "warm":
            # a model fitted to a neighbouring target, as along a voiced run
            tilted = mags * np.exp(0.1 * np.cos(np.arange(mags.size)))
            warm = fit_lpc_envelope(tilted, omega0, order)
        fit = fit_lpc_envelope(mags, omega0, order, warm_start=warm)
        assert fit.order == order
        assert np.abs(fit.poles).max() <= _POLE_RMAX
        upper = np.sort(fit.poles[fit.poles.imag > 0])
        np.testing.assert_array_equal(upper, np.sort(np.conj(fit.poles[fit.poles.imag < 0])))


class TestHarmonicAmplitudes:
    @settings(max_examples=30)
    @given(
        pairs=st.lists(
            st.tuples(st.floats(0.0, 0.99), st.floats(0.01, np.pi - 0.01)), min_size=0, max_size=8
        ),
        real=st.one_of(st.none(), st.floats(-0.99, 0.99)),
        gain=st.floats(1e-3, 1e3),
        f0=st.floats(60.0, 500.0),
        lines=st.integers(1, 40),
        a0=st.floats(1e-4, 10.0),
    )
    def test_fundamental_is_a0(self, pairs, real, gain, f0, lines, a0):
        poles = [r * np.exp(s * 1j * theta) for r, theta in pairs for s in (1, -1)]
        if real is not None:
            poles.append(real)
        omega0 = 2 * np.pi * f0 / RATE
        lines = min(lines, int(np.ceil(np.pi / omega0)) - 1)
        fp = FrameParams(
            frame_index=0,
            voiced=True,
            omega0=omega0,
            a0=a0,
            nrd=np.zeros(lines),
            envelope=LpcModel(np.asarray(poles, dtype=np.complex128), gain),
        )
        amps = harmonic_amplitudes(fp)
        assert amps.size == lines
        assert np.all(np.isfinite(amps)) and np.all(amps > 0)
        # a0 / |H(omega0)| * |H(omega0)| rounds to within an ulp of a0
        assert amps[0] == pytest.approx(a0, rel=1e-14)

    def test_lines_at_nyquist_rejected(self):
        omega0 = 2 * np.pi * 500.0 / RATE
        count = int(np.ceil(np.pi / omega0))  # the last line at or above pi
        with pytest.raises(ValueError, match="Nyquist"):
            FrameParams(frame_index=0, voiced=True, omega0=omega0, magnitudes=np.ones(count))
        with pytest.raises(ValueError, match="Nyquist"):
            FrameParams(frame_index=0, voiced=True, omega0=omega0, nrd=np.zeros(count))


class TestPitchEstimation:
    @staticmethod
    def _frame_spectrum(x, n):
        w = make_sqrt_shifted_hanning(n)
        return odft(x[:n] * w)

    def test_pure_tone_512(self):
        n = np.arange(4096)
        x = np.sin(2 * np.pi * 200.0 * n / RATE)
        f0 = estimate_pitch_frame(self._frame_spectrum(x, 512), RATE)
        assert f0 is not None
        assert abs(f0 - 200.0) <= 0.5

    def test_harmonic_110(self):
        amps = 1.0 / np.arange(1, 11)
        x = make_harmonic_signal(110.0, amps, np.zeros(10), 4096)
        f0 = estimate_pitch_frame(self._frame_spectrum(x, 1024), RATE)
        assert f0 is not None
        assert abs(f0 - 110.0) <= 0.2

    def test_no_octave_error_strong_second_harmonic(self):
        amps = np.array([0.3, 1.0, 0.5, 0.4, 0.2])
        x = make_harmonic_signal(140.0, amps, np.zeros(5), 4096)
        f0 = estimate_pitch_frame(self._frame_spectrum(x, 1024), RATE)
        assert f0 is not None
        assert abs(f0 - 140.0) <= 0.5

    def test_white_noise_unvoiced(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(2048)
        assert estimate_pitch_frame(self._frame_spectrum(x, 1024), RATE) is None

    def test_silence_unvoiced(self):
        assert estimate_pitch_frame(np.zeros(1024, dtype=complex), RATE) is None

    @pytest.mark.parametrize("side", [1, -1])
    def test_refine_peak_on_a_windowed_tone(self, side):
        # the ODFT of a complex tone d bins from the centre of bin k toward
        # bin k + side: no negative-frequency image, so only the closed
        # form's own error is left
        n, k = 1024, 100
        idx = np.arange(n)
        w = make_sqrt_shifted_hanning(n)
        peak_bin = abs(np.sum(w))  # a line at the centre of its bin
        for d in np.arange(6) / 10:
            nu = 2 * np.pi * (k + 0.5 + side * d) / n
            mags = np.abs(np.fft.fft(w * np.exp(1j * nu * idx) * np.exp(-1j * np.pi * idx / n)))
            freq, amp = _refine_peak(mags, k, 1.0)
            assert abs(freq - (k + 0.5 + side * d)) <= 1e-5
            assert amp == pytest.approx(peak_bin, rel=1e-5)

    def test_matches_per_candidate_loop(self):
        rng = np.random.default_rng(29)
        vowel = 1.0 / np.arange(1, 41) * (1.0 + 0.6 * np.cos(0.7 * np.arange(40)))
        noisy = make_harmonic_signal(130.0, vowel, rng.uniform(0, 1, 40), RATE // 2)
        noisy += 10 ** (-20 / 20) * np.sqrt(np.mean(noisy**2)) * rng.standard_normal(noisy.size)
        low = make_harmonic_signal(60.0, vowel, rng.uniform(0, 1, 40), RATE // 2)
        inputs = [
            (np.sin(2 * np.pi * 200.0 * np.arange(4096) / RATE), 512),
            (make_harmonic_signal(110.0, 1.0 / np.arange(1, 11), np.zeros(10), 4096), 1024),
            (make_harmonic_signal(140.0, [0.3, 1.0, 0.5, 0.4, 0.2], np.zeros(5), 4096), 1024),
            (np.random.default_rng(17).standard_normal(2048), 1024),
            (np.zeros(2048), 1024),
            (make_harmonic_signal(110.0, vowel, rng.uniform(0, 1, 40), RATE // 2), 1024),
            (noisy, 1024),
            (low, 1024),
            (low, 512),  # lines closer than two bins: the once-per-peak rule decides here
            (make_harmonic_signal(500.0, vowel[:22], rng.uniform(0, 1, 22), RATE // 2), 1024),
        ]
        voiced = 0
        for x, n in inputs:
            w = make_sqrt_shifted_hanning(n)
            for off in range(0, x.size - n + 1, n // 2):
                spec = odft(x[off : off + n] * w)
                want = reference_pitch_frame(spec, RATE)
                assert estimate_pitch_frame(spec, RATE) == want
                voiced += want is not None
        assert voiced >= 60

    @settings(max_examples=40)
    @given(
        f0=st.floats(60.0, 500.0),
        amps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
        noisy=st.booleans(),
        n=st.sampled_from([256, 512, 1024, 2048]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_candidate_loop_on_tones(self, f0, amps, noisy, n, seed):
        # the vectorised peak refinement, candidate generation and scoring
        # give exactly the loop's f0 (or None) on any 1-8-line tone in range,
        # clean or with white noise 40 dB down, at four frame lengths.  At 256
        # and 512 every candidate under two bins (172 and 86 Hz) has a
        # tolerance of at least half of it, so a peak can lie within it of
        # two of its harmonics
        rng = np.random.default_rng(seed)
        x = make_harmonic_signal(f0, amps, rng.uniform(0, 1, len(amps)), 2 * n)
        if noisy:
            x += 10 ** (-40 / 20) * np.sqrt(np.mean(x**2)) * rng.standard_normal(x.size)
        w = make_sqrt_shifted_hanning(n)
        for off in (0, n // 2, n):
            spec = odft(x[off : off + n] * w)
            assert estimate_pitch_frame(spec, RATE) == reference_pitch_frame(spec, RATE)

    def test_refined_isolated_peak_sits_at_its_bin_centre(self):
        bin_hz = RATE / 1024
        freq, amp = _refine_peak(np.abs(isolated_peaks(1024, {40: 0.25}))[:512], np.array([40]), bin_hz)
        assert freq[0] == 40.5 * bin_hz
        assert amp[0] == pytest.approx(0.25, rel=1e-12)

    def test_tie_two_peaks_equidistant_from_a_harmonic(self):
        # the second harmonic of the 13.5-bin candidate falls at 27 bins,
        # exactly 1.5 bins from the peaks at 25.5 and 28.5: the one first in
        # amplitude order is its nearest, whichever side it is on
        for pair in ({25: 0.5, 28: 0.7}, {25: 0.7, 28: 0.5}, {25: 0.6, 28: 0.6}):
            spec = isolated_peaks(1024, {13: 1.0, 40: 0.4, 53: 0.3} | pair)
            want = reference_pitch_frame(spec, RATE)
            assert want is not None
            assert estimate_pitch_frame(spec, RATE) == want

    def test_tie_equal_peak_magnitudes(self):
        # 18 peaks, the last three of equal magnitude across the cut at 16,
        # and two equal peaks inside it
        peaks = {int(round(11.3 * h)): 1.0 / h for h in range(1, 16)}
        peaks |= {int(round(11.3 * h)): 0.05 for h in range(16, 19)}
        peaks[int(round(11.3 * 4))] = peaks[int(round(11.3 * 5))]
        for n in (512, 1024):
            spec = isolated_peaks(n, peaks)
            assert estimate_pitch_frame(spec, RATE) == reference_pitch_frame(spec, RATE)

    def test_tie_one_peak_nearest_to_two_harmonics(self):
        # at n = 512 (43 Hz bins) a 64.6 Hz candidate, a third of the peak
        # at 4.5 bins, has harmonics 1.5 bins apart: the peak at 6.5 bins is
        # nearest to, and within tolerance of, both its 4th and 5th
        # harmonics, and explains only the 4th
        spec = isolated_peaks(512, {4: 1.0, 6: 0.9, 9: 0.5, 11: 0.45, 13: 0.3})
        want = reference_pitch_frame(spec, RATE)
        assert want is not None
        assert estimate_pitch_frame(spec, RATE) == want

    def test_wide_tolerance_hits_off_the_rounded_harmonic(self):
        # at n = 256 a candidate under two bins (172 Hz) has a one-bin
        # tolerance of over half of it, so a peak can hit a harmonic other
        # than round(f/F): for the 107.7 Hz candidate the peak at 58.5 bins
        # lies 46.8 fundamentals up, past the last harmonic searched (46)
        # but within one bin of it, and for the 71.8 Hz one the peak at 2.5
        # bins, its 3rd harmonic, is also within one bin of its 2nd, the
        # lowest it explains
        spec = isolated_peaks(256, {2: 0.9, 58: 0.3})
        want = reference_pitch_frame(spec, RATE)
        assert want is not None
        assert estimate_pitch_frame(spec, RATE) == want


class TestSolveHarmonics:
    @settings(max_examples=50)
    @given(f0=st.floats(60.0, 500.0), n=st.sampled_from([512, 1024]))
    # lines on bin edges, where +frequency entries reach the singular limit:
    # the transform's grid at n = 1024 (every line) and n = 512 (every other)
    @example(f0=5 * RATE / 1024, n=1024)
    @example(f0=5 * RATE / 1024, n=512)
    # every line on a bin edge, and a line on every edge (n = 512: 1 bin apart)
    @example(f0=3 * RATE / 512, n=512)
    @example(f0=2 * RATE / 1024, n=1024)
    def test_factored_kernels_match_sine_window_kernel(self, f0, n):
        # the kernels of analyze_frames' line count, against the kernel
        # evaluated entry by entry
        omega0 = 2 * np.pi * f0 / RATE
        count = max(1, min(int(np.floor(0.98 * np.pi / omega0)), n // 3))
        omega_l = np.arange(1, count + 1) * omega0
        k_star = np.clip(np.round(omega_l * n / (2 * np.pi) - 0.5).astype(int), 0, n // 2 - 1)
        nu = 2 * np.pi * (k_star + 0.5) / n
        kp, km = _image_kernels(omega_l, k_star, n)
        want_p = sine_window_kernel(n, (nu[None, :] - omega_l[:, None]).ravel()).reshape(count, count)
        want_m = sine_window_kernel(n, (nu[None, :] + omega_l[:, None]).ravel()).reshape(count, count)
        scale = max(np.abs(want_p).max(), np.abs(want_m).max())
        assert np.abs(kp - want_p).max() <= 1e-9 * scale
        assert np.abs(km - want_m).max() <= 1e-9 * scale

    @pytest.mark.parametrize("f0", [50.0, 60.0])
    def test_exact_on_windowed_lines(self, f0):
        # lines under 2.3 bins apart (n = 512): every line of the exact
        # windowed model comes back, however much its neighbours leak
        n, count = 512, 170
        rng = np.random.default_rng(int(f0))
        amps = 0.9 ** np.arange(count)
        phases = rng.uniform(0, 2 * np.pi, count)
        omega0 = 2 * np.pi * f0 / RATE
        i = np.arange(n)
        x = np.sum(amps[:, None] * np.sin(np.outer(np.arange(1, count + 1) * omega0, i) + phases[:, None]), axis=0)
        c, _, _ = _solve_harmonics(odft(x * make_sqrt_shifted_hanning(n)), omega0, count, n)
        want = 0.5 * amps * np.exp(1j * (phases - np.pi / 2))
        assert np.max(np.abs(20 * np.log10(2 * np.abs(c) / amps))) <= 1e-3
        assert np.max(np.abs(c - want)) <= 1e-12 * np.max(np.abs(want))

    def test_noise_floors_are_row_medians(self):
        # each row's floor is np.median of its bins away from its lines, with
        # odd and even counts left, and 0 where every bin is taken
        rng = np.random.default_rng(11)
        mags = rng.rayleigh(1.0, (5, 64))
        k_star = np.array([[3, 9, 15], [0, 30, 63], [10, 12, 40], [20, 25, 60], [2, 2, 2]])
        floors = _noise_floors(mags, k_star)
        for row, ks, floor in zip(mags, k_star, floors):
            assert floor == reference_noise_floor(row, ks, 64)
        left = [64 - np.unique(np.clip(ks[:, None] + np.arange(-2, 3), 0, 63)).size for ks in k_star]
        assert {count % 2 for count in left} == {0, 1}
        everywhere = np.arange(2, 64, 5)[None, :]
        assert _noise_floors(mags[:1], everywhere)[0] == reference_noise_floor(mags[0], everywhere[0], 64) == 0.0


class TestAnalyzeFrames:
    def test_periods_per_frame(self):
        # ~5 fundamental periods fit in a 1024-sample frame at 110 Hz,
        # ~10 at 220 Hz
        for f0, expected in ((110.0, 5), (220.0, 10)):
            x = make_harmonic_signal(f0, [1.0, 0.5, 0.3], np.zeros(3), RATE)
            frames = analyze_frames(AudioBuffer(x, RATE), 1024)
            voiced = [fr for fr in frames if fr.voiced]
            assert voiced
            est = np.median([fr.omega0 for fr in voiced]) * 1024 / (2 * np.pi)
            assert est == pytest.approx(1024 * f0 / RATE, rel=1e-3)
            assert round(float(est)) == expected

    def test_known_nrd_recovered(self):
        nrd_true = np.array([0.0, 0.15, 0.35, 0.42, 0.28, 0.05, 0.6, 0.81, 0.33, 0.47])
        amps = np.array([1.0, 0.7, 0.5, 0.45, 0.3, 0.25, 0.18, 0.12, 0.1, 0.08])
        rng = np.random.default_rng(3)
        x = make_harmonic_signal(113.0, amps, nrd_true, RATE, phi0=0.77)
        x += 10 ** (-25 / 20) * np.sqrt(np.mean(x**2)) * rng.standard_normal(x.size)
        frames = analyze_frames(AudioBuffer(x, RATE), 1024)
        voiced = [fr for fr in frames if fr.voiced][2:-2]
        assert len(voiced) >= 10
        for fr in voiced:
            got = wrap_cycles(fr.nrd[:10])
            want = wrap_cycles(nrd_true)
            diff = np.abs(got - want)
            diff = np.minimum(diff, 1.0 - diff)
            assert np.max(diff) <= 0.02

    def test_shift_invariance_hop_multiple(self):
        amps = np.array([1.0, 0.6, 0.4, 0.2])
        x = make_harmonic_signal(147.0, amps, [0.0, 0.2, 0.5, 0.7], RATE)
        frames_a = analyze_frames(AudioBuffer(x, RATE), 1024)
        frames_b = analyze_frames(AudioBuffer(x[512:], RATE), 1024)
        # frame m + 1 of x covers the same samples as frame m of x[512:]
        pairs = [
            (fa, fb)
            for fa, fb in list(zip(frames_a[1:], frames_b))[1:-1]
            if fa.voiced and fb.voiced
        ]
        assert len(pairs) >= 5
        for fa, fb in pairs:
            diff = np.abs(wrap_cycles(fa.nrd[:4]) - wrap_cycles(fb.nrd[:4]))
            diff = np.minimum(diff, 1.0 - diff)
            assert np.max(diff) <= 1e-6

    def test_shift_invariance_generic_delay(self):
        amps = np.array([1.0, 0.6, 0.4, 0.2])
        x = make_harmonic_signal(147.0, amps, [0.0, 0.2, 0.5, 0.7], RATE)
        frames_a = analyze_frames(AudioBuffer(x, RATE), 1024)
        frames_b = analyze_frames(AudioBuffer(x[137:], RATE), 1024)
        nrd_a = np.median([wrap_cycles(f.nrd[:4]) for f in frames_a[2:10] if f.voiced], axis=0)
        nrd_b = np.median([wrap_cycles(f.nrd[:4]) for f in frames_b[2:10] if f.voiced], axis=0)
        diff = np.abs(nrd_a - nrd_b)
        diff = np.minimum(diff, 1.0 - diff)
        assert np.max(diff) <= 1e-6

    def test_f0_independence(self):
        nrd_true = np.array([0.0, 0.2, 0.45, 0.1, 0.66])
        amps = np.array([1.0, 0.6, 0.4, 0.3, 0.2])

        def analyzed_nrd(f0):
            x = make_harmonic_signal(f0, amps, nrd_true, RATE)
            frames = analyze_frames(AudioBuffer(x, RATE), 1024)
            return np.median([wrap_cycles(f.nrd[:5]) for f in frames if f.voiced][2:-2], axis=0)

        a, b = analyzed_nrd(110.0), analyzed_nrd(220.0)
        diff = np.abs(a - b)
        diff = np.minimum(diff, 1.0 - diff)
        assert np.max(diff) <= 0.02

    @pytest.mark.parametrize(
        "contour",
        [
            lambda t: 120.0 + 80.0 * t,  # glide, 120 to 160 Hz over 0.5 s
            lambda t: 150.0 * (1.0 + 0.02 * np.sin(2 * np.pi * 5.0 * t)),  # 2 % vibrato at 5 Hz
        ],
        ids=["glide", "vibrato"],
    )
    def test_moving_f0_read_at_the_frame_centre(self, contour):
        # each frame's f0 and lines belong at its centre, m * hop + N/2,
        # however the f0 moves across neighbouring frames
        amps = 1.0 / np.arange(1, 11)
        amps /= amps.sum()
        f0 = contour(np.arange(RATE // 2) / RATE)
        phase = 2 * np.pi * np.cumsum(f0) / RATE
        x = sum(a * np.sin((ell + 1) * phase) for ell, a in enumerate(amps))
        voiced = [f for f in analyze_frames(AudioBuffer(x, RATE), 1024) if f.voiced]
        assert len(voiced) >= 18
        for f in voiced:
            centre = f.frame_index * 512 + 512
            assert f.omega0 * RATE / (2 * np.pi) == pytest.approx(f0[centre], rel=2e-3)
            assert f.magnitudes.size >= 10
            assert np.max(np.abs(20 * np.log10(f.magnitudes[:10] / amps))) <= 1.0

    def test_unvoiced_frames_flagged(self):
        rng = np.random.default_rng(23)
        x = np.concatenate(
            [
                make_harmonic_signal(130.0, [1.0, 0.5], [0.0, 0.2], 8192),
                0.01 * rng.standard_normal(8192),
            ]
        )
        frames = analyze_frames(AudioBuffer(x, RATE), 1024)
        assert any(f.voiced for f in frames[:6])
        assert any(not f.voiced for f in frames[-6:])

    def test_unvoiced_reason_no_pitch(self):
        frames = analyze_frames(AudioBuffer(np.zeros(5120), RATE), 1024)
        assert [f.unvoiced_reason for f in frames] == ["no pitch"] * 9

    def test_unvoiced_reason_no_line_above_the_floor(self):
        # a 150 Hz tone far under the 16-bit rounding floor: its pitch is
        # found in every frame, but no line passes the 12 dB gate
        x = 1e-6 * make_harmonic_signal(150.0, [1.0, 0.5, 0.3], np.zeros(3), 5120)
        frames = analyze_frames(AudioBuffer(x, RATE), 1024)
        assert [f.unvoiced_reason for f in frames] == ["no line above the floor"] * 9
        assert not any(f.voiced for f in frames)

    def test_unvoiced_reason_envelope_fit_failed(self, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise ValueError("fit failed")

        x = make_harmonic_signal(150.0, [1.0, 0.5, 0.3], np.zeros(3), 5120)
        analysed = analyze_frames(AudioBuffer(x, RATE), 1024)
        assert all(f.voiced and f.unvoiced_reason is None for f in fit_envelopes(analysed))
        monkeypatch.setattr(analysis, "fit_lpc_envelope", failing_fit)
        frames = fit_envelopes(analysed)
        assert [f.unvoiced_reason for f in frames] == ["envelope fit failed"] * 9
        assert not any(f.voiced for f in frames)

    def test_no_phantom_lines(self):
        # no line from numerical dust: a noiseless 40-line vowel on the
        # transform's grid reports its 40 lines in every voiced frame
        f0 = 5 * RATE / 1024
        poles = [0.96 * np.exp(2j * np.pi * 700 / RATE), 0.94 * np.exp(2j * np.pi * 1900 / RATE)]
        poles += [np.conj(p) for p in poles] + [0.85]
        env = LpcModel(poles, 1.0)
        amps = env.magnitude(np.arange(1, 41) * 2 * np.pi * f0 / RATE)
        rng = np.random.default_rng(7)
        x = make_harmonic_signal(f0, amps / amps.max(), rng.uniform(0, 1, 40), RATE // 2, phi0=0.9)
        voiced = [f for f in analyze_frames(AudioBuffer(x, RATE), 1024) if f.voiced]
        assert len(voiced) >= 15
        assert {f.nrd.size for f in voiced} == {40}
        # no line from window leakage: 8 lines with white noise 80 dB down
        amps = np.array([1.0, 0.7, 0.45, 0.3, 0.2, 0.12, 0.1, 0.08])
        x = make_harmonic_signal(118.0, amps, rng.uniform(0, 1, 8), RATE // 2)
        x += 10 ** (-80 / 20) * np.sqrt(np.mean(x**2)) * rng.standard_normal(x.size)
        voiced = [f for f in analyze_frames(AudioBuffer(x, RATE), 1024) if f.voiced]
        assert len(voiced) >= 15
        assert {f.nrd.size for f in voiced} == {8}

    def test_envelope_fit_warm_starts_within_voiced_runs(self, monkeypatch):
        import voicing.analysis as analysis_module

        fits = []
        cold_fit = analysis_module.fit_lpc_envelope

        def recording_fit(*args, warm_start=None, **kwargs):
            model = cold_fit(*args, warm_start=warm_start, **kwargs)
            fits.append((warm_start, model))
            return model

        monkeypatch.setattr(analysis_module, "fit_lpc_envelope", recording_fit)
        # a stationary 6-line vowel on the transform's grid, twice, with
        # digital silence between the two voiced runs
        amps = np.array([1.0, 0.7, 0.45, 0.3, 0.2, 0.12])
        vowel = make_harmonic_signal(6 * RATE / 1024, amps, [0.0, 0.3, 0.1, 0.6, 0.25, 0.8], 6144)
        x = np.concatenate([vowel, np.zeros(4096), vowel])
        frames = fit_envelopes(analyze_frames(AudioBuffer(x, RATE), 1024))
        warm_of = {id(model): warm for warm, model in fits}

        runs = warm = 0
        for prev, fr in zip([None] + frames[:-1], frames):
            if not fr.voiced:
                continue
            got = warm_of[id(fr.envelope)]
            if prev is None or not prev.voiced:
                runs += 1
                assert got is None
            elif prev.envelope.order == fr.envelope.order:
                warm += 1
                assert got is prev.envelope
        assert runs == 2
        assert warm >= 15

    @settings(max_examples=40)
    @given(
        frame_len=st.sampled_from([256, 512, 1024]),
        f0=st.floats(60.0, 500.0),
        amps=st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hostile_lines_measure_finite(self, frame_len, f0, amps, seed):
        # any f0 in range, any frame length, any line set rounded to 16 bits:
        # measuring never raises, and every voiced frame's lines are finite
        phases = np.random.default_rng(seed).uniform(0, 1, len(amps))
        x = make_harmonic_signal(f0, amps, phases, 3 * frame_len)
        x = np.round(x / np.max(np.abs(x)) * 32767) / 32767
        for f in analyze_frames(AudioBuffer(x, RATE), frame_len):
            if f.voiced:
                assert np.all(np.isfinite(f.magnitudes)) and np.all(np.isfinite(f.nrd))
                assert np.isfinite(f.omega0) and np.isfinite(f.phi0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            analyze_frames(AudioBuffer(np.zeros(512), RATE), 1024)

    def test_measured_lines_are_the_analysed_lines(self):
        # a vowel, digital silence, the vowel again: fit_envelopes adds only
        # envelopes, on new records, and leaves the analysed frames as they are
        amps = np.array([1.0, 0.7, 0.45, 0.3, 0.2, 0.12])
        vowel = make_harmonic_signal(131.0, amps, [0.0, 0.3, 0.1, 0.6, 0.25, 0.8], 6144)
        audio = AudioBuffer(np.concatenate([vowel, np.zeros(4096), vowel]), RATE)
        analysed = analyze_frames(audio, 1024)
        before = copy.deepcopy(analysed)
        fitted = fit_envelopes(analysed)
        assert_same_frames(analysed, before)
        assert 0 < sum(f.voiced for f in analysed) < len(analysed)
        assert all(f.envelope is None for f in analysed)
        assert all(isinstance(f.envelope, LpcModel) == f.voiced for f in fitted)
        assert_same_frames([replace(f, envelope=None) for f in fitted], analysed)

    def test_analysis_fits_nothing(self, monkeypatch):
        # analysis measures lines and fits no envelope; the engines render
        # the analysed frames from those lines, so FRE's round trip of a
        # 40-line vowel on the transform's grid is exact to rounding
        f0 = 5 * RATE / 1024
        poles = [0.96 * np.exp(2j * np.pi * 700 / RATE), 0.94 * np.exp(2j * np.pi * 1900 / RATE)]
        poles += [np.conj(p) for p in poles] + [0.85]
        amps = LpcModel(poles, 1.0).magnitude(np.arange(1, 41) * 2 * np.pi * f0 / RATE)
        x = make_harmonic_signal(f0, amps / amps.max(), np.random.default_rng(7).uniform(0, 1, 40), RATE, phi0=0.9)
        audio = AudioBuffer(x, RATE)
        frames = analyze_frames(audio, 1024)

        def failing_fit(*args, **kwargs):
            raise AssertionError("envelope fitted")

        monkeypatch.setattr(analysis, "fit_lpc_envelope", failing_fit)
        assert_same_frames(analyze_frames(audio, 1024), frames)
        voiced = [f for f in frames if f.voiced]
        assert len(voiced) >= 30
        for f in voiced:
            assert f.envelope is None
            np.testing.assert_array_equal(harmonic_amplitudes(f), f.magnitudes)
        out = synth_fre(SynthesisPlan(frames=frames, sample_rate=RATE, frame_len=1024, total_length=x.size))
        core = slice(2048, x.size - 2048)
        snr_db = 10 * np.log10(np.sum(x[core] ** 2) / np.sum((out.samples[core] - x[core]) ** 2))
        # 259 dB on this signal; through fit_envelopes' envelopes it reads 48 dB
        assert snr_db >= 200.0

    def test_analysis_is_reproducible(self):
        # no solver with state outside its arguments runs in analysis: two
        # analyses of one signal in one process, with unrelated arrays
        # allocated between them to move the heap, are bitwise equal
        rng = np.random.default_rng(5)
        x = sum(make_harmonic_signal(f0, rng.uniform(0.1, 1.0, 12), rng.uniform(0, 1, 12), 8192) for f0 in (97, 231))
        x = np.concatenate([x, make_harmonic_signal(401.0, [1.0, 0.3], [0.0, 0.4], 8192)])
        x += 1e-3 * rng.standard_normal(x.size)
        audio = AudioBuffer(x, RATE)
        first = analyze_frames(audio, 1024)
        ballast = [np.full(size, 1.0) for size in rng.integers(1, 1 << 16, 40)]
        second = analyze_frames(audio, 1024)
        assert ballast and sum(f.voiced for f in first) >= 20
        assert_same_frames(first, second)

    @settings(max_examples=12)
    @given(
        frame_len=st.sampled_from([512, 1024]),
        segments=st.lists(
            st.tuples(
                st.sampled_from(["tone", "tone", "quiet", "noise", "silence"]),
                st.floats(60.0, 500.0),
                st.integers(1, 30),
                st.integers(1, 10),
            ),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # f0 steps around noise, silence and a tone under the 16-bit step: the
    # 108-line frames of 100 Hz at n = 512 solve five to a chunk, the
    # 91-line frames of 118 Hz at n = 1024 seven to a chunk
    @example(
        frame_len=512,
        segments=[("tone", 100.0, 30, 9), ("noise", 0, 1, 2), ("quiet", 150.0, 3, 5), ("tone", 230.0, 12, 4)],
        seed=1,
    )
    @example(frame_len=1024, segments=[("tone", 118.0, 30, 12), ("silence", 0, 1, 3), ("tone", 300.0, 20, 4)], seed=2)
    # 17 frames, more than a pitch chunk, 15 of them 135-line frames of 80 Hz
    # at n = 1024, which solve one to a chunk: one line-count group, measured
    # after its solves, spans 15 solve chunks
    @example(frame_len=1024, segments=[("tone", 80.0, 30, 10), ("noise", 0, 1, 2), ("tone", 80.0, 20, 6)], seed=3)
    def test_stacked_pass_matches_per_frame_loop(self, frame_len, segments, seed):
        # every frame of the stacked pass, voiced or not, is bitwise the one
        # the per-frame loop measures: f0 steps put the frames in several
        # line-count groups and chunks, silence and noise leave no pitch,
        # and the quiet tone no line above the floor
        hop = frame_len // 2
        x = stepped_signal([(kind, f0, lines, hops * hop) for kind, f0, lines, hops in segments], seed)
        audio = AudioBuffer(np.concatenate([x, np.zeros(max(0, frame_len - x.size))]), RATE)
        assert_same_frames(analyze_frames(audio, frame_len), reference_analyze_frames(audio, frame_len))
