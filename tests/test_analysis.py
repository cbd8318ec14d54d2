"""Tests for NRD algebra, LPC envelope fitting, pitch estimation, and the
frame-based parametric front-end."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voicing.analysis import (
    _POLE_RMAX,
    FrameParams,
    LpcModel,
    _params_to_poles,
    _poles_to_params,
    _refine_peak,
    _solve_harmonics,
    analyze_frames,
    average_nrd,
    estimate_pitch_frame,
    fit_lpc_envelope,
    harmonic_amplitudes,
    interpolate_params,
    measure_frames,
    nrd_from_phases,
    vertical_unwrap,
    wrap_cycles,
)
from voicing.dsp import AudioBuffer, all_pole_filter, make_sqrt_shifted_hanning, odft

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


def capture_solves(monkeypatch):
    """Record (residual, jacobian, method) of every `least_squares` call
    that `fit_lpc_envelope` makes, passing each call through."""
    solve = scipy.optimize.least_squares
    calls = []

    def recording(fun, x0, *, jac, **kwargs):
        calls.append((fun, jac, np.array(x0), kwargs.get("method", "trf")))
        return solve(fun, x0, jac=jac, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", recording)
    return calls


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
        solve = scipy.optimize.least_squares
        ends = []

        def recording(*args, **kwargs):
            ends.append(solve(*args, **kwargs))
            return ends[-1]

        monkeypatch.setattr(scipy.optimize, "least_squares", recording)
        omega0 = 2 * np.pi * 140.0 / RATE
        mags = np.exp(-0.15 * np.arange(20)) * (1.0 + 0.5 * np.cos(np.arange(20)))
        omega_l = np.arange(1, 21) * omega0
        with caplog.at_level("DEBUG", logger="voicing.analysis"):
            cold = fit_lpc_envelope(mags, omega0, 9)
            warm = fit_lpc_envelope(mags, omega0, 9, warm_start=cold)
        records = [r.getMessage() for r in caplog.records if r.name == "voicing.analysis"]
        # the line error is the returned model's, and the radius its largest
        assert records == [
            f"{start} envelope fit, order 9 on 20 lines: {end.nfev} evaluations, "
            f"{np.sqrt(np.mean(np.log10(fit.magnitude(omega_l) / mags) ** 2)) * 20:.3g} dB RMS, "
            f"radius {np.abs(fit.poles).max():.6f}"
            + (", budget used up" if end.status == 0 else "")
            for start, end, fit in zip(["cold", "warm"], ends, [cold, warm], strict=True)
        ]

    @pytest.mark.parametrize("lines, order", [(20, 10), (20, 9), (6, 12)])
    def test_jacobian_matches_finite_differences(self, monkeypatch, lines, order):
        calls = capture_solves(monkeypatch)
        omega0 = 2 * np.pi * 140.0 / RATE
        mags = np.exp(-0.15 * np.arange(lines)) * (1.0 + 0.5 * np.cos(np.arange(lines)))
        fit_lpc_envelope(mags, omega0, order)
        residual, jacobian, x0, _ = calls[0]
        rng = np.random.default_rng(order)
        x = x0 + rng.normal(0.0, 0.1, x0.size)
        step = 1e-6
        numeric = np.empty((residual(x).size, x.size))
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = step
            numeric[:, i] = (residual(x + e) - residual(x - e)) / (2 * step)
        # the last residual point differs from x: a Jacobian served from a
        # stale evaluation fails here
        residual(x + 0.05)
        jac = jacobian(x)
        rows = max(lines, order + 1)  # zero rows pad an underdetermined fit
        assert jac.shape == (rows, order + 1)
        np.testing.assert_allclose(jac, numeric, rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(jac[lines:], 0.0)
        np.testing.assert_array_equal(residual(x)[lines:], 0.0)

    def test_one_solver_for_every_shape(self, monkeypatch):
        # 6 lines at order 12: more parameters than lines
        calls = capture_solves(monkeypatch)
        omega0 = 2 * np.pi * 140.0 / RATE
        mags = np.array([1.0, 0.7, 0.45, 0.3, 0.2, 0.12])
        fit = fit_lpc_envelope(mags, omega0, 12)
        assert calls and {method for *_, method in calls} == {"lm"}
        # bound: the 4.5e-5 dB that scipy's TRF solver reaches on this fit
        err_db = np.abs(20 * np.log10(fit.magnitude(np.arange(1, 7) * omega0) / mags))
        assert np.max(err_db) <= 4.5e-5

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


class TestInterpolateParams:
    @staticmethod
    def _frame(idx, f0, amps, nrd, order=6):
        omega0 = 2 * np.pi * f0 / RATE
        env = fit_lpc_envelope(amps, omega0, order)
        return FrameParams(
            frame_index=idx,
            voiced=True,
            omega0=omega0,
            a0=amps[0],
            phi0=0.1,
            nrd=np.asarray(nrd, dtype=float),
            magnitudes=np.asarray(amps, dtype=float),
            envelope=env,
        )

    def test_endpoints_exact(self):
        left = self._frame(0, 110, [1.0, 0.5, 0.25, 0.1], [0.0, 0.1, 0.2, 0.3])
        right = self._frame(1, 120, [0.8, 0.6, 0.3, 0.2], [0.0, 0.2, 0.1, 0.4])
        w0, amps, nrd = interpolate_params(left, right, 0.0)
        assert w0 == left.omega0
        np.testing.assert_array_equal(nrd, left.nrd)
        np.testing.assert_array_equal(amps, harmonic_amplitudes(left))
        w1, amps1, nrd1 = interpolate_params(left, right, 1.0)
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
        for t in (0.0, 0.3, 0.7, 0.999):
            w, amps, nrd = interpolate_params(left, right, t)
            assert w == left.omega0
            np.testing.assert_array_equal(amps, harmonic_amplitudes(left))
            np.testing.assert_array_equal(nrd, left.nrd)

    def test_midpoint_omega(self):
        left = self._frame(0, 110, [1.0, 0.5], [0.0, 0.1], order=2)
        right = self._frame(1, 120, [1.0, 0.5], [0.0, 0.1], order=2)
        left.omega0, right.omega0 = 0.030, 0.034
        w0, _, _ = interpolate_params(left, right, 0.5)
        assert w0 == pytest.approx(0.032, abs=1e-15)

    def test_count_mismatch_common_prefix(self):
        left = self._frame(0, 110, [1.0, 0.5, 0.25], [0.0, 0.1, 0.2])
        right = self._frame(1, 110, [1.0, 0.5, 0.25, 0.125, 0.06], [0.0, 0.1, 0.2, 0.3, 0.4])
        _, amps, nrd = interpolate_params(left, right, 0.5)
        assert amps.size == 5 and nrd.size == 5
        np.testing.assert_allclose(nrd[3:], right.nrd[3:])


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


class TestSolveHarmonics:
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
        voiced = [f for f in measure_frames(AudioBuffer(x, RATE), 1024) if f.voiced]
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
        frames = analyze_frames(AudioBuffer(x, RATE), 1024)
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
        for f in measure_frames(AudioBuffer(x, RATE), frame_len):
            if f.voiced:
                assert np.all(np.isfinite(f.magnitudes)) and np.all(np.isfinite(f.nrd))
                assert np.isfinite(f.omega0) and np.isfinite(f.phi0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            analyze_frames(AudioBuffer(np.zeros(512), RATE), 1024)

    def test_measured_lines_are_the_analysed_lines(self):
        # a vowel, digital silence, the vowel again: analysis adds only envelopes
        amps = np.array([1.0, 0.7, 0.45, 0.3, 0.2, 0.12])
        vowel = make_harmonic_signal(131.0, amps, [0.0, 0.3, 0.1, 0.6, 0.25, 0.8], 6144)
        audio = AudioBuffer(np.concatenate([vowel, np.zeros(4096), vowel]), RATE)
        measured = measure_frames(audio, 1024)
        analysed = analyze_frames(audio, 1024)
        assert len(measured) == len(analysed)
        assert 0 < sum(f.voiced for f in measured) < len(measured)
        fields = ("frame_index", "voiced", "omega0", "a0", "phi0")
        for m, a in zip(measured, analysed):
            assert m.envelope is None
            assert [getattr(m, k) for k in fields] == [getattr(a, k) for k in fields]
            np.testing.assert_array_equal(m.nrd, a.nrd)
            np.testing.assert_array_equal(m.magnitudes, a.magnitudes)
