"""Tests of the benchmark itself: generator, tracer, metric names, smoke runs.

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import synth  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def test_generator_is_deterministic_per_seed():
    a_images, a_labels = synth.make_digits(200, seed=7, split="train")
    b_images, b_labels = synth.make_digits(200, seed=7, split="train")
    assert a_images.dtype == np.uint8 and a_images.shape == (200, 28, 28)
    assert np.array_equal(a_images, b_images) and np.array_equal(a_labels, b_labels)
    c_images, _ = synth.make_digits(200, seed=8, split="train")
    d_images, _ = synth.make_digits(200, seed=7, split="test")
    assert not np.array_equal(a_images, c_images)
    assert not np.array_equal(a_images, d_images)


def test_generator_statistics_are_mnist_like():
    images, labels = synth.make_digits(500, seed=3, split="train")
    assert np.bincount(labels, minlength=10).tolist() == [50] * 10
    stats = synth.image_stats(images)
    assert 0.12 < stats["nonzero_share"] < 0.28  # MNIST: about 0.19
    assert 20.0 < stats["mean_byte"] < 45.0  # MNIST: about 33
    assert stats["distinct_per_image"] > 20  # anti-aliased, not two-level


def test_class_signal_is_in_the_pixel_value_distribution():
    # The histogram model sees only pixel values, so the classes must differ
    # there: the brightest byte falls with the class index.
    images, labels = synth.make_digits(500, seed=4, split="train")
    peaks = images.reshape(len(images), -1).max(axis=1)
    means = [peaks[labels == c].mean() for c in range(10)]
    assert all(hi > lo for hi, lo in zip(means, means[1:]))


def test_idx_round_trip_through_histlearn(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from histlearn.data import load_mnist, normalize

    images, labels = synth.make_digits(30, seed=5, split="test")
    synth.write_idx(str(tmp_path), "test", images, labels)
    loaded = load_mnist(str(tmp_path), "test")
    assert np.array_equal(loaded.pixels, normalize(images))
    assert np.array_equal(loaded.labels, labels)


def test_benchmark_json_names():
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    names += WORKLOAD_NAMES
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert [m["name"] for m in SPEC["per_layer"]] == [m[0] for m in tracing.PER_LAYER_METRICS]
    assert {m["unit"] for m in SPEC["per_layer"]} >= {"s", "ms", "count"}


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from histlearn import checkpoint, cli, distlayers, models, reports  # noqa: F401

    train = models.train
    monkeypatch.delattr(models, "cache_histograms")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["histlearn.models.cache_histograms"]
        assert models.train.__wrapped__ is train
    finally:
        tracer.uninstall()
    assert models.train is train


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace,
                "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    group = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(NAME.match(name) for name in result["metrics"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values())
        return
    calls = values["histogram.kde_histogram.calls"]
    if workload == "train-spatial":
        assert calls == 0
    else:
        assert calls > 0 and values["inputs.unsaturated_share"] > 0
    if workload == "train-dadm":
        assert values["inputs.byte_valued_share"] == 1.0
        assert all(values[f"nn.{a}.conv1.self_s"] == 0 for a in ("lenet", "cnn"))
    if workload == "eval-battery":
        assert 0 < values["inputs.byte_valued_share"] < 1.0


def test_fails_without_the_package(tmp_path):
    # A directory holding only the benchmark must fail without a result line.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
