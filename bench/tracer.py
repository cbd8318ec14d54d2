"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces each traced module-level function of
``voicing`` with a wrapper that records calls and self time (its own
duration minus that of traced functions it called), in every ``voicing``
module that bound the same function object.  ``uninstall()`` puts the
originals back.  Nothing in ``voicing`` is edited.

Extra per-function statistics are computed from arguments and results
after the timed interval and are charged to no layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from voicing import analysis, dsp, segmentation, synthesis

MODULES = {"dsp": dsp, "analysis": analysis, "segmentation": segmentation, "synthesis": synthesis}

TRACED = {
    "dsp": ["odft", "inverse_odft", "cross_correlate", "all_pole_filter", "pole_radii", "stabilize_all_pole"],
    "analysis": ["analyze_frames", "estimate_pitch_frame", "_solve_harmonics", "fit_lpc_envelope", "harmonic_amplitudes"],
    "segmentation": ["segment_track", "auto_seed", "refine_period", "align_onset", "extract_period_params"],
    "synthesis": [
        "synth_fre",
        "_inject_harmonic",
        "synth_tim",
        "_period_wave",
        "synth_glo",
        "_tilt_compensated_model",
        "_rendered_line_magnitudes",
        "synth_glottal_pulse",
        "compare_engines",
        "_aligned_correlation",
    ],
}

# Derived statistics beyond .calls and .self_s, with their units.
EXTRA = {
    "dsp.stabilize_all_pole": {"clamps": "count"},
    "analysis.analyze_frames": {"voiced_ratio": "fraction", "harmonics_per_frame": "count"},
    "analysis.estimate_pitch_frame": {"none_ratio": "fraction"},
    "analysis.fit_lpc_envelope": {
        "errors": "count",
        "solves_per_fit": "count",
        "nfev_per_fit": "count",
        "budget_hit_ratio": "fraction",
        "line_err_db": "dB",
        "max_pole_radius": "radius",
    },
    "segmentation.segment_track": {"lost_ratio": "fraction", "periods": "count"},
    "segmentation.refine_period": {"errors": "count"},
}

OVERHEAD = {"trace.untraced_s": "s", "trace.traced_s": "s", "trace.overhead_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for mod, names in TRACED.items():
        for name in names:
            key = f"{mod}.{name}"
            units[f"{key}.calls"] = "count"
            units[f"{key}.self_s"] = "s"
            for stat, unit in EXTRA.get(key, {}).items():
                units[f"{key}.{stat}"] = unit
    units.update(OVERHEAD)
    return units


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    extra: dict = field(default_factory=dict)

    def add(self, key, value):
        self.extra.setdefault(key, []).append(value)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._solves: list[tuple[int, int]] = []  # (nfev, status) of every least_squares call

    # -- installation -------------------------------------------------------

    def install(self):
        self.absent = []
        for mod_name, names in TRACED.items():
            home = MODULES[mod_name]
            for name in names:
                key = f"{mod_name}.{name}"
                original = getattr(home, name, None)
                if not callable(original):
                    self.absent.append(key)
                    continue
                self.stats.setdefault(key, Stat())
                wrapper = self._wrap(key, original)
                for module in MODULES.values():
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)
        original_ls = scipy.optimize.least_squares
        self._patched.append((scipy.optimize, "least_squares", original_ls))
        scipy.optimize.least_squares = self._count_solves(original_ls)

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched = []

    def _wrap(self, key, fn):
        stat = self.stats[key]
        observe = _OBSERVERS.get(key)
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            mark = len(self._solves)
            t0 = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = time.perf_counter()
                stat.self_s += (t1 - t0) - stack.pop()
                stat.calls += 1
                if error is not None:
                    stat.errors += 1
                if observe is not None:
                    observe(stat, args, result, error, self._solves[mark:])
                if stack:
                    stack[-1] += time.perf_counter() - t0

        traced.__wrapped__ = fn
        return traced

    def _count_solves(self, fn):
        # Counts only: the solver's time stays in fit_lpc_envelope's self time.
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self._solves.append((int(sol.nfev), int(sol.status)))
            return sol

        counted.__wrapped__ = fn
        return counted

    # -- report -------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of the per-layer metrics of every present name."""
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = stat.calls / passes
            out[f"{key}.self_s"] = stat.self_s / passes
            for name in EXTRA.get(key, {}):
                out[f"{key}.{name}"] = _EXTRA_VALUES[name](stat, passes)
        return out


# -- observers: extra statistics from arguments and results ------------------

def _obs_stabilize(stat, args, result, error, solves):
    if error is None:
        stat.add("clamped", not np.array_equal(np.asarray(args[0], dtype=np.float64), result))


def _obs_analyze(stat, args, result, error, solves):
    if error is None:
        stat.add("frames", len(result))
        voiced = [f for f in result if f.voiced]
        stat.add("voiced", len(voiced))
        stat.extra.setdefault("harmonics", []).extend(f.nrd.size for f in voiced)


def _obs_pitch(stat, args, result, error, solves):
    if error is None:
        stat.add("none", result is None)


def _obs_fit(stat, args, result, error, solves):
    stat.add("solves", len(solves))
    stat.add("nfev", sum(n for n, _ in solves))
    stat.add("budget_hits", sum(1 for _, s in solves if s == 0))
    if error is not None:
        return
    mags = np.asarray(args[0], dtype=np.float64)
    omega0 = float(args[1])
    omega_l = (np.arange(mags.size) + 1) * omega0
    keep = (omega_l < np.pi) & (mags > 0)
    with np.errstate(divide="ignore"):
        err = np.abs(20.0 * np.log10(result.magnitude(omega_l[keep]) / mags[keep]))
    stat.add("line_err_db", float(np.median(err)))
    if result.coefficients.size:
        radii = np.abs(np.roots(np.concatenate([[1.0], result.coefficients])))
        stat.add("radius", float(radii.max()))


def _obs_track(stat, args, result, error, solves):
    if error is None:
        stat.add("lost", bool(result.lost))
        stat.add("periods", len(result.periods))


_OBSERVERS = {
    "dsp.stabilize_all_pole": _obs_stabilize,
    "analysis.analyze_frames": _obs_analyze,
    "analysis.estimate_pitch_frame": _obs_pitch,
    "analysis.fit_lpc_envelope": _obs_fit,
    "segmentation.segment_track": _obs_track,
}


def _sum(stat, name):
    return sum(stat.extra.get(name, []))


def _median(stat, name):
    vals = stat.extra.get(name, [])
    return float(np.median(vals)) if vals else 0.0


_EXTRA_VALUES = {
    "clamps": lambda s, p: _sum(s, "clamped") / p,
    "voiced_ratio": lambda s, p: _ratio(_sum(s, "voiced"), _sum(s, "frames")),
    "harmonics_per_frame": lambda s, p: float(np.mean(s.extra["harmonics"])) if s.extra.get("harmonics") else 0.0,
    "none_ratio": lambda s, p: _ratio(_sum(s, "none"), s.calls),
    "errors": lambda s, p: s.errors / p,
    "solves_per_fit": lambda s, p: _ratio(_sum(s, "solves"), s.calls),
    "nfev_per_fit": lambda s, p: _ratio(_sum(s, "nfev"), s.calls),
    "budget_hit_ratio": lambda s, p: _ratio(_sum(s, "budget_hits"), _sum(s, "solves")),
    "line_err_db": lambda s, p: _median(s, "line_err_db"),
    "max_pole_radius": lambda s, p: max(s.extra.get("radius", [0.0])),
    "lost_ratio": lambda s, p: _ratio(_sum(s, "lost"), s.calls),
    "periods": lambda s, p: _sum(s, "periods") / p,
}
