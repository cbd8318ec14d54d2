"""Frame for frame, do two checkouts analyse and segment the same signals alike?

    python3 tools/same_frames.py PARENT_DIR CHANGE_DIR --seeds 1 2 3 4 5

For each seed the parent checkout makes the signals once and pickles
them: the input of every `analyze_frames`, `auto_seed` and
`segment_track` call of the three benchmark workloads
(bench/workloads.py), and every render of render_engines.  Then each
checkout, in its own process, runs `analyze_frames` on every signal at
frame lengths 512, 1024 and 2048, and `segment_track(auto_seed(x))` on
the track_periods inputs.  The two results are compared field for field:
scalars equal and of one type, arrays equal and of one dtype and shape,
and a call that raised must raise the same exception in both.  The script
prints what it compared and exits non-zero naming the first frame or
period that differs.

The signals are made once because not all of them can be made again:
render_engines' formant_lf_120hz_36 plan comes from an order-18 envelope
fit whose result varies between processes (ROADMAP item 12).  Made
twice, in two processes of one checkout, the signals of seeds 1 and 2
gave analyses that differed in three of four trials, on 9, 18 and 9 of
348 (signal, frame length) pairs: each time the renders of seed 1's
formant_lf_120hz_36 plan at three frame lengths, and in one trial those
of its stationary_118hz_8 plan too.

Every process runs with one BLAS thread, as bench/run.py does.
"""

import argparse
import dataclasses
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

FRAME_LENS = (512, 1024, 2048)
WORKLOADS = ("analyze_vowels", "render_engines", "track_periods")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def make_signals(seeds):
    """{(seed, name): (samples, sample_rate, is_track)}, from one pass over
    each workload's calls with the library's entry points recorded."""
    import workloads
    from voicing import analysis, segmentation

    signals = {}
    for seed in seeds:
        for workload in WORKLOADS:
            w = workloads.WORKLOADS[workload](seed)
            out, item = {}, None

            def record(entry, is_track):
                def call(audio, *args, **kwargs):
                    signals[(seed, f"{workload}/{item}")] = (audio.samples, audio.sample_rate, is_track)
                    return entry(audio, *args, **kwargs)

                return call

            originals = analysis.analyze_frames, segmentation.auto_seed, segmentation.segment_track
            analysis.analyze_frames = record(originals[0], False)
            segmentation.auto_seed = record(originals[1], True)
            segmentation.segment_track = record(originals[2], True)
            try:
                for c in w.calls:
                    item = f"{c.kind}/{c.item}"
                    try:
                        out[(c.kind, c.item)] = c.run(out)
                    except Exception:  # the call's own failure; its input is recorded
                        continue
                    if workload == "render_engines" and hasattr(out[(c.kind, c.item)], "samples"):
                        rendered = out[(c.kind, c.item)]
                        signals[(seed, f"{workload}/{item}")] = (rendered.samples, rendered.sample_rate, False)
            finally:
                analysis.analyze_frames, segmentation.auto_seed, segmentation.segment_track = originals
    return signals


def outcome(fn, *args):
    """`fn(*args)` as plain data: dataclasses as dicts, a raised exception
    as its type and message."""
    try:
        result = fn(*args)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(result, list):
        return [dataclasses.asdict(r) for r in result]
    return dataclasses.asdict(result)


def measure(signals):
    """{(seed, name, frame length or "track"): outcome} over `signals`."""
    from voicing.analysis import analyze_frames
    from voicing.dsp import AudioBuffer
    from voicing.segmentation import auto_seed, segment_track

    results = {}
    for (seed, name), (samples, rate, is_track) in signals.items():
        audio = AudioBuffer(samples, rate)
        for n in FRAME_LENS:
            results[(seed, name, n)] = outcome(analyze_frames, audio, n)
        if is_track:
            results[(seed, name, "track")] = outcome(lambda a: segment_track(a, auto_seed(a)), audio)
    return results


def difference(a, b, where=""):
    """Where `a` and `b` first differ, or None when they are the same."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{where}: fields {sorted(a)} vs {sorted(b)}"
        return next((d for k in a if (d := difference(a[k], b[k], f"{where}.{k}")) is not None), None)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            return f"{where}: {type(a).__name__} of {len(a)} vs {type(b).__name__} of {len(b)}"
        at = (lambda i: f" frame {i}") if not where else (lambda i: f"{where}[{i}]")
        return next((d for i, (x, y) in enumerate(zip(a, b)) if (d := difference(x, y, at(i))) is not None), None)
    if hasattr(a, "dtype") and hasattr(b, "dtype"):
        if a.dtype != b.dtype or a.shape != b.shape:
            return f"{where}: {a.dtype} {a.shape} vs {b.dtype} {b.shape}"
        unequal = np.flatnonzero((a != b) & ~((a != a) & (b != b)))
        return f"{where}[{unequal[0]}]: {a.flat[unequal[0]]!r} vs {b.flat[unequal[0]]!r}" if unequal.size else None
    if type(a) is not type(b) or not (a == b or (a != a and b != b)):
        return f"{where}: {a!r} vs {b!r}"
    return None


def worker(mode, checkout, path_in, path_out):
    for path in (os.path.join(checkout, "bench"), os.path.join(checkout, "src")):
        sys.path.insert(0, path)
    with open(path_in, "rb") as f:
        task = pickle.load(f)
    result = make_signals(task) if mode == "make" else measure(task)
    with open(path_out, "wb") as f:
        pickle.dump(result, f)


def run_worker(mode, checkout, task, scratch):
    path_in, path_out = (os.path.join(scratch, f"{mode}-{os.getpid()}-{k}.pkl") for k in ("in", "out"))
    with open(path_in, "wb") as f:
        pickle.dump(task, f)
    env = dict(os.environ, **{var: "1" for var in BLAS_ENV})
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", mode, os.path.abspath(checkout), path_in, path_out]
    subprocess.run(cmd, cwd=checkout, env=env, check=True)
    with open(path_out, "rb") as f:
        return pickle.load(f)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:  # one checkout's side, run by `run_worker`
        worker(*argv[1:])
        return
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        signals = run_worker("make", args.parent, args.seeds, scratch)
        parent = run_worker("measure", args.parent, signals, scratch)
        change = run_worker("measure", args.change, signals, scratch)
    frames = voiced = periods = 0
    first = None
    differing = 0
    for key, want in parent.items():
        got = change[key]
        if isinstance(want, list):
            frames += len(want)
            voiced += sum(f["voiced"] for f in want)
        elif isinstance(want, dict):
            periods += len(want["periods"])
        d = difference(want, got)
        if d is not None:
            differing += 1
            first = first or f"seed {key[0]} {key[1]} at {key[2]}{d}"
    tracks = sum(is_track for _, _, is_track in signals.values())
    print(f"seeds {' '.join(map(str, args.seeds))}: {len(signals)} signals x {len(FRAME_LENS)} frame lengths,"
          f" {frames} frames ({voiced} voiced); {tracks} tracks, {periods} periods;"
          f" {differing} of {len(parent)} outcomes differ")
    if first is not None:
        sys.exit(f"first difference: {first}")


if __name__ == "__main__":
    main()
