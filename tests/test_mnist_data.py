"""Checks that need the real MNIST files; skipped when they are absent."""

import numpy as np

from conftest import mnist_dir, requires_mnist
from histlearn.data import load_mnist
from histlearn.histogram import HistogramSpec, discrete_histogram, kde_histogram


@requires_mnist
def test_split_sizes_and_geometry():
    directory = mnist_dir()
    train = load_mnist(directory, "train")
    test = load_mnist(directory, "test")
    assert train.count == 60000
    assert test.count == 10000
    assert train.images.shape[1:] == (28, 28)
    assert set(np.unique(train.labels)) <= set(range(10))


@requires_mnist
def test_first_test_image_counting_oracle():
    # independent single-pass counter vs discrete_histogram on test image 0
    directory = mnist_dir()
    test = load_mnist(directory, "test")
    spec = HistogramSpec()
    img = test.pixels[0].ravel()

    counts = [0] * 256
    for value in img:
        k = int((value + 1.0) * 128.0)  # floor of (x+1)/W with W = 2/256
        counts[min(k, 255)] += 1
    oracle = np.array(counts) / img.size

    assert np.array_equal(discrete_histogram(img[None], spec)[0], oracle)


@requires_mnist
def test_kde_histogram_well_formed_on_real_image():
    directory = mnist_dir()
    test = load_mnist(directory, "test")
    spec = HistogramSpec()
    smooth = kde_histogram(test.pixels[:1], spec)[0]
    assert abs(smooth.sum() - 1.0) < 1e-12
    assert np.all(smooth >= 0)
