"""The narrative demo scripts stay runnable."""

import os
import subprocess
import sys

import pytest

DEMO_DIR = os.path.join(os.path.dirname(__file__), "..", "demos")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def run_demo(*argv, timeout):
    """Run a demo script against this checkout's package, installed or not."""
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(DEMO_DIR, argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize(
    "script",
    ["01_differentiable_histogram.py", "02_distribution_arithmetic.py"],
)
def test_fast_demos_run_clean(script):
    proc = run_demo(script, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_training_demo_runs_clean():
    proc = run_demo("03_train_and_evaluate.py", timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "shuffle" in proc.stdout


def test_mnist_demo_explains_missing_data(tmp_path):
    proc = run_demo("04_mnist_robustness.py", str(tmp_path), timeout=120)
    assert proc.returncode != 0
    assert "fetch" in proc.stderr
