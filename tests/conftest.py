"""Shared fixtures: synthetic datasets and MNIST discovery.

The synthetic images carry their class signal in the *distribution* of
pixel values (bright area and stripe intensity scale with the class), so
both the spatial models and the histogram-based model can learn them.
Real-MNIST tests are skipped unless the IDX files are present (point
``HISTLEARN_DATA_DIR`` at them or run ``histlearn fetch``).
"""

import gzip
import os
import time

# One BLAS thread for the whole session, set before numpy loads: bitwise
# assertions such as duplicated batch rows giving identical logits hold only
# when every row goes through the same single-threaded kernel.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from histlearn.cli import DATA_DIR_ENV
from histlearn.data import ImageSet, mnist_files_present, write_idx
from histlearn.transforms import stream_states, transform_batch


def make_imageset(count, seed=0, balanced=False):
    rng = np.random.default_rng(seed)
    if balanced:
        labels = np.tile(np.arange(10), count // 10 + 1)[:count]
    else:
        labels = rng.integers(0, 10, count)
    pixels = np.full((count, 28, 28), -1.0)
    for i, label in enumerate(labels):
        c = int(label)
        height = 2 + 2 * c
        r0 = int(rng.integers(1, 25 - height)) if height < 24 else 1
        c0 = int(rng.integers(2, 18))
        pixels[i, r0 : r0 + height, c0 : c0 + 8] = 0.8
        pixels[i, 26, :] = -1.0 + 2.0 * (c + 1) / 11.0
    return ImageSet(np.rint((pixels + 1.0) * 127.5).astype(np.uint8), labels)


def transform_set(image_set, kind, seed):
    """The whole set's float pixels under ``kind``, shaped (count, H, W),
    image i drawing from the stream ``default_rng([seed, i])`` that
    ``models.evaluate`` gives it."""
    states = stream_states(seed, range(image_set.count))
    return transform_batch(image_set.pixels, states, kind)


def gzip_file(path):
    gz_path = path + ".gz"
    with open(path, "rb") as src, open(gz_path, "wb") as dst:
        dst.write(gzip.compress(src.read()))
    return gz_path


@pytest.fixture(scope="session")
def selftest_run():
    """One unperturbed selftest battery per session, timed: (results, seconds).

    Tests that only read the unperturbed results share this run instead of
    each running the whole battery again.
    """
    from histlearn import selftest

    start = time.monotonic()
    results = selftest.run_all()
    return results, time.monotonic() - start


@pytest.fixture(scope="session")
def property_results(selftest_run):
    """The session run's selftest results by check name."""
    return {r.name: r for r in selftest_run[0]}


def assert_check_passed(property_results, name, allowed):
    """Selftest check ``name`` passed, at a tolerance no looser than ``allowed``.

    The oracles and probes live in :mod:`histlearn.selftest`; a test whose
    assertion one of its checks carries reads that check's session result.
    """
    result = property_results[name]
    assert result.passed and result.allowed <= allowed, result.line()


@pytest.fixture
def small_set():
    return make_imageset(256, seed=1)


@pytest.fixture
def balanced_set():
    return make_imageset(2000, seed=2, balanced=True)


@pytest.fixture
def synth_data_dir(tmp_path):
    """A directory shaped like an MNIST data dir but with synthetic content."""
    train = make_imageset(512, seed=10)
    test = make_imageset(256, seed=11)
    write_idx(tmp_path, "train", train)
    write_idx(tmp_path, "test", test)
    return str(tmp_path)


def mnist_dir():
    candidates = []
    if os.environ.get(DATA_DIR_ENV):
        candidates.append(os.environ[DATA_DIR_ENV])
    candidates.append(os.path.join(os.path.dirname(__file__), "..", "data"))
    for cand in candidates:
        if mnist_files_present(cand):
            return os.path.abspath(cand)
    return None


requires_mnist = pytest.mark.skipif(
    mnist_dir() is None,
    reason="MNIST IDX files not available (set HISTLEARN_DATA_DIR or run `histlearn fetch`)",
)
