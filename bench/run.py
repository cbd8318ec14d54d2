"""Benchmark of the voicing library on three seeded workloads.

    python3 bench/run.py --workload analyze_vowels --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` the run times the workload's calls with nothing
installed, interleaved with a fixed reference computation that times the
machine (reference.py), and reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
and the tracing overhead.  Human-readable lines come first; the last line
of standard output is one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters, and the values its dynamic mmap threshold
# settles at once a 32 MiB block has been freed (the 64-bit maximum).
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD, MMAP_THRESHOLD = 64 << 20, 32 << 20
SETUP_REPEATS = 3
# The reference computation runs before a call once this many seconds
# have passed since it last ran.
REF_INTERVAL_S = 0.25

# End-to-end metrics reported for every workload, with units.
E2E_UNITS = {
    "setup_s": "s",
    "xrt_norm": "audio_s/s",
    "success_ratio": "fraction",
    "peak_rss_mb": "MB",
    "recovered_ratio": "fraction",
}

# Workload-specific figures printed in the human-readable report.
DETAIL_UNITS = {
    "wall_xrt": "audio_s/s",
    "reference_s": "s",
    "analyze_xrt": "audio_s/s",
    "fre_xrt": "audio_s/s",
    "tim_xrt": "audio_s/s",
    "glo_xrt": "audio_s/s",
    "compare_xrt": "audio_s/s",
    "segment_xrt": "audio_s/s",
    "failed_ratio": "fraction",
    "envelope_err_db": "dB",
    "phantom_ratio": "ratio",
    "fre_snr_db": "dB",
    "glo_mag_err_db": "dB",
    "engine_mag_diff_db": "dB",
    "track_coverage": "fraction",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["analyze_vowels", "render_engines", "track_periods"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0, help="input duration multiplier (smoke test only)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_commit(root):
    """HEAD commit read from .git without starting a process."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_malloc():
    """Fix glibc's mmap and trim thresholds, so that a call's cost does not
    depend on the process's history.  Left dynamic, the threshold starts at
    128 KiB and rises only when a larger mmapped block is freed; until some
    input happens to do that, every temporary of ~1 MiB (segmentation of a
    64 Hz voice makes one per period) is mmapped and faulted in afresh,
    which made the same call run at half or twice the speed from one
    process to the next.  Returns whether glibc took the settings."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)) and bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD))


def blas_threads(np):
    """Thread count OpenBLAS reports, or the pinned variable if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(args, np, scipy, malloc_pinned):
    return {
        "commit": git_commit(REPO),
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "malloc_pinned": malloc_pinned,
    }


# ---------------------------------------------------------------------------
# Running calls
# ---------------------------------------------------------------------------

class Ledger:
    """Per-call outcomes of one run.  An operation is one call of the
    workload's list; the run repeats it for timing, and it counts as failed
    if any of its attempts failed, so `attempted` and `failed` do not
    depend on how many passes fit in the run."""

    def __init__(self, ref=None):
        self.attempts = defaultdict(list)  # (kind, item) -> (start, wall seconds) per attempt
        self.oks = defaultdict(list)  # (kind, item) -> success per attempt
        self.audio = {}  # (kind, item) -> audio seconds per call
        self.errors = Counter()  # (kind, item, exception class) -> count
        self.wrong = 0  # calls whose output failed a check
        self.refs = []  # (start, wall seconds) of each reference computation
        self._ref = ref
        self._last_ref = -math.inf

    def calibrate(self, force=False):
        """Time the reference computation if it is due."""
        if self._ref is not None and (force or time.perf_counter() - self._last_ref >= REF_INTERVAL_S):
            start = time.perf_counter()
            self.refs.append((start, self._ref.run()))
            self._last_ref = time.perf_counter()

    @property
    def attempted(self):
        return len(self.oks)

    @property
    def failed(self):
        return sum(1 for v in self.oks.values() if not all(v))

    def xrt(self, kinds=None, normalized=False):
        """Audio seconds completed per wall second: each call weighs once,
        at its median wall time, so a partial last pass does not change the
        mix.  `normalized` first divides each attempt's wall time by the
        machine's slowdown around it (see `slowdown`)."""
        keys = [k for k in self.oks if kinds is None or k[0] in kinds]
        done = sum(self.audio[k] * statistics.mean(self.oks[k]) for k in keys)
        if normalized:
            starts = [t for t, _ in self.refs]
            wall = sum(statistics.median(w / self.slowdown(starts, t) for t, w in self.attempts[k]) for k in keys)
        else:
            wall = sum(statistics.median(w for _, w in self.attempts[k]) for k in keys)
        return done / wall if wall > 0 else math.nan

    def slowdown(self, starts, t):
        """Mean time of the reference computations just before and just
        after the attempt that started at `t`, over the nominal time."""
        i = bisect.bisect_right(starts, t)
        near = [self.refs[j][1] for j in (i - 1, i) if 0 <= j < len(self.refs)]
        return statistics.mean(near) / self._ref.nominal_s


def run_call(call, outputs, ledger):
    key = (call.kind, call.item)
    outputs[key] = None
    ledger.calibrate()
    t0 = time.perf_counter()
    try:
        result = call.run(outputs)
    except call.expected:
        ok, error = True, None
        wall = time.perf_counter() - t0
    except Exception as exc:  # every failure is counted; the workload goes on
        ok, error = False, type(exc).__name__
        wall = time.perf_counter() - t0
    else:
        wall = time.perf_counter() - t0
        ok, error = True, None
        try:
            if call.check is not None:
                call.check(result)
            outputs[key] = result
        except AssertionError as exc:  # the workload's output checks
            ok, error = False, f"CheckFailed: {exc}"
            ledger.wrong += 1
    ledger.attempts[key].append((t0, wall))
    ledger.oks[key].append(ok)
    ledger.audio[key] = call.audio_s
    if error is not None:
        ledger.errors[(call.kind, call.item, error)] += 1


def run_pass(workload, ledger, stop=None):
    """One pass over the workload's calls; `stop()` may end it early."""
    outputs = {}
    for call in workload.calls:
        if stop is not None and stop():
            return outputs, False
        run_call(call, outputs, ledger)
    return outputs, True


def _num(value):
    return float(value) if value is not None and math.isfinite(value) else None


def emit(report_lines, correct, ledger, metrics, units):
    for line in report_lines:
        print(line)
    result = {
        "correct": bool(correct),
        "attempted": int(ledger.attempted),
        "failed": int(ledger.failed),
        "metrics": {name: {"value": _num(metrics[name]), "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result), flush=True)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "voicing", "__init__.py")):
        print(f"bench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    malloc_pinned = pin_malloc()
    for path in (SRC, BENCH):
        if path not in sys.path:
            sys.path.insert(0, path)

    t_import = time.perf_counter()
    import numpy as np
    import scipy
    import scipy.optimize
    import scipy.signal  # noqa: F401  (part of the library's import cost)

    import voicing.segmentation  # noqa: F401
    import voicing.synthesis  # noqa: F401
    import reference
    import tracer as tracing
    import workloads

    import_s = time.perf_counter() - t_import

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, args.scale)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    env = environment(args, np, scipy, malloc_pinned)
    lines = [f"env {json.dumps(env)}"]
    ledger = Ledger(None if args.trace else reference.Reference())
    t_start = time.perf_counter()

    def out_of_time():
        return time.perf_counter() - t_start >= args.seconds

    if args.trace:
        tracer = tracing.Tracer()
        pairs = []
        while not pairs or not out_of_time():
            t0 = time.perf_counter()
            run_pass(workload, ledger)
            untraced = time.perf_counter() - t0
            tracer.install()
            try:
                t0 = time.perf_counter()
                run_pass(workload, ledger)
                traced = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            pairs.append((untraced, traced))
        metrics = tracer.metrics(len(pairs))
        metrics["trace.untraced_s"] = statistics.median(u for u, _ in pairs)
        metrics["trace.traced_s"] = statistics.median(t for _, t in pairs)
        metrics["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
        units = tracing.metric_units()
        lines.append(
            f"workload {args.workload} seed {args.seed} trace 1 pairs {len(pairs)} "
            f"overhead {metrics['trace.overhead_s']:.3f} s per pass "
            f"({metrics['trace.traced_s']:.3f} traced vs {metrics['trace.untraced_s']:.3f} untraced)"
        )
        lines.append(f"absent {' '.join(tracer.absent) if tracer.absent else 'none'}")
        lines += [f"  {name} {metrics[name]:.6g} {units[name]}" for name in sorted(metrics)]
    else:
        first, _ = run_pass(workload, ledger)
        passes = 1
        while not out_of_time():
            _, complete = run_pass(workload, ledger, stop=out_of_time)
            passes += complete
        ledger.calibrate(force=True)
        accuracy = workload.accuracy(first)
        detail = {"wall_xrt": ledger.xrt(), "reference_s": statistics.median(r for _, r in ledger.refs)}
        detail.update({kind_metric: ledger.xrt({kind}, normalized=True) for kind, kind_metric in workload.kinds.items()})
        detail["failed_ratio"] = ledger.failed / ledger.attempted
        detail.update({k: v for k, v in accuracy.items() if k in DETAIL_UNITS})
        metrics = {
            "setup_s": setup_s,
            "xrt_norm": ledger.xrt(normalized=True),
            "success_ratio": 1.0 - ledger.failed / ledger.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "recovered_ratio": accuracy["recovered_ratio"],
        }
        units = E2E_UNITS
        lines.append(
            f"workload {args.workload} seed {args.seed} trace 0 full_passes {passes} "
            f"calls {sum(len(v) for v in ledger.oks.values())} references {len(ledger.refs)} "
            f"operations {ledger.attempted} failed {ledger.failed} "
            f"setup: import {import_s:.3f} s, builds {' '.join(f'{s:.3f}' for s in setup_times)} s"
        )
        lines += [f"  {name} {value:.6g} {DETAIL_UNITS[name]}" for name, value in detail.items()]
        lines += [f"  {name} {metrics[name]:.6g} {units[name]}" for name in metrics]
    for (kind, item, error), count in sorted(ledger.errors.items()):
        lines.append(f"failed {kind} {item}: {error} x{count}")
    emit(lines, ledger.wrong == 0, ledger, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
