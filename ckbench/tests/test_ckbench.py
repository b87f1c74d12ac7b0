"""Tests of the benchmark itself, at seconds-long ``--tiny`` sizes.

Run from the repository root: ``python3 -m pytest ckbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]

from ckbench.inputs import Renamer  # noqa: E402
from ckbench.measure import summarize  # noqa: E402
from ckbench.reference import summary_digest  # noqa: E402

WORKLOADS = ("analyze-5k", "batch-corpus", "ide-session")


def _spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload, trace=0, *extra, cwd=REPO_ROOT, script=None):
    script = script or os.path.join(BENCH_DIR, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    report = "\n".join(lines[:-1])
    for key in ("host.spin_ms:", "env:", "generation_s:", "reference_s:", "failed/attempted:"):
        assert key in report
    if workload == "ide-session":
        assert "client-default-max-payload" in report
    if trace:
        assert "chrome_trace:" in report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_turns_ops_into_failures(workload):
    done = _run(workload, 0, "--corrupt-reference")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, exit non-zero and
    print no result."""
    copy = tmp_path / "ckbench"
    shutil.copytree(
        BENCH_DIR, copy, ignore=shutil.ignore_patterns(".cache", "out", "__pycache__")
    )
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("analyze-5k", 0, cwd=str(tmp_path), script=str(copy / "run.py"))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_renaming_is_an_alpha_equivalence():
    from repro.core.persist import summary_to_dict
    from repro.core.pipeline import analyze_side_effects
    from repro.workloads.patterns import deep_nest

    base = deep_nest(4)
    renamer = Renamer([base], seed=5)
    renamed = renamer.rename(base)
    assert renamed != base and len(renamed) == len(base)
    assert renamer.unrename(renamed) == base
    expected = summary_digest(summary_to_dict(analyze_side_effects(base)))
    got = summary_to_dict(analyze_side_effects(renamed))
    assert summary_digest(got, renamer.unrename) == expected
    assert summary_digest(got) != expected


def test_summarize_reports_percentile_only_with_ten_samples_beyond():
    assert summarize([1.0] * 19)["p_hi"] is None
    stats = summarize([float(v) for v in range(1, 101)])
    assert stats["median"] == 50.5 and stats["n"] == 100
    assert stats["p_hi"] == {"pct": 90.0, "value": 90.0}
