"""The benchmark runs end to end on this tree: its self-test, then one short run per workload.

Each run is a subprocess, as the benchmark is run for real, and takes a few
seconds. A workload whose run raises, or whose output fails one of the
benchmark's checks, fails here. One traced run checks that every function
the trace mode wraps by name still exists in the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "crowdbench"
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = BENCHMARK["workloads"]


def run_script(*args):
    # no bytecode: the runs leave nothing under crowdbench/
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *args], cwd=BENCH_DIR.parent, env=env,
        capture_output=True, text=True, timeout=600,
    )


def test_selftest_passes():
    done = run_script(str(BENCH_DIR / "selftest" / "selftest.py"))
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in WORKLOADS])
def test_workload_runs_without_failures(workload):
    done = run_script(
        str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", "0",
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0
    assert report["correct"] is True


def test_traced_run_reports_every_layer():
    spans_file = BENCH_DIR / "out" / "trace-s-profile-seed1.tsv"
    had_out_dir = spans_file.parent.exists()
    try:
        done = run_script(
            str(BENCH_DIR / "run.py"), "--workload", "s-profile", "--seed", "1", "--seconds", "0",
            "--trace", "1",
        )
    finally:
        spans_file.unlink(missing_ok=True)
        if not had_out_dir and spans_file.parent.exists() and not any(spans_file.parent.iterdir()):
            spans_file.parent.rmdir()
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0
    assert set(report["metrics"]) == {metric["name"] for metric in BENCHMARK["per_layer"]}
