"""Smoke test of the benchmark itself, at a tiny input size.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

WORKLOADS = ["analyze_vowels", "render_engines", "track_periods"]


def bench(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", "0.01"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(capsys, workload):
    result, report = bench(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.E2E_UNITS
    assert all(isinstance(m["value"], float) for m in metrics.values())
    assert any(line.startswith("env ") for line in report)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(capsys, workload):
    import tracer

    result, report = bench(capsys, workload, 1)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == tracer.metric_units()
    assert "absent none" in report


def test_forced_exception_counts_as_failed(capsys, monkeypatch):
    from voicing import segmentation

    def broken(*args, **kwargs):
        raise RuntimeError("forced")

    monkeypatch.setattr(segmentation, "segment_track", broken)
    result, report = bench(capsys, "track_periods", 0)
    # silence is rejected by auto_seed before segment_track is reached
    assert result["failed"] == result["attempted"] - 1
    assert result["metrics"]["success_ratio"]["value"] == pytest.approx(1 / result["attempted"])
    assert any("RuntimeError" in line for line in report)


def test_counts_do_not_depend_on_passes(capsys):
    argv = ["--workload", "render_engines", "--seed", "3", "--trace", "0", "--scale", "0.01"]
    counts = []
    for seconds in ("0", "2"):
        assert run.main(argv + ["--seconds", seconds]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]


def test_render_engines_counts_glo_failures(capsys):
    result, report = bench(capsys, "render_engines", 0)
    assert result["failed"] > 0
    assert any(line.startswith("failed glo") and "UnstableFilterError" in line for line in report)
