"""Differentiable histogram: geometry, oracles, gradients."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from conftest import to_bytes_images
from histlearn.data import ImageSet, normalize
from histlearn.histogram import (
    HistogramSpec,
    bin_index,
    discrete_histogram,
    kde_histogram,
    kde_histogram_backward,
)
from histlearn.transforms import TransformSpec, apply_transform


class TestSpecGeometry:
    def test_default_partition(self):
        spec = HistogramSpec()
        assert spec.n_bins == 256
        assert spec.bandwidth == 0.001
        assert spec.bin_width == 2.0 / 256
        assert spec.half_width == 1.0 / 256
        # first/last centers sit half a bin inside the domain, spacing exact
        assert spec.centers[0] == -1.0 + spec.half_width
        assert spec.centers[-1] == 1.0 - spec.half_width
        assert np.all(np.diff(spec.centers) == spec.bin_width)
        # bins tile [-1, 1]: consecutive edges shared, no gaps
        assert spec.edges[0] == -1.0
        assert spec.edges[-1] == 1.0
        assert np.all(np.diff(spec.edges) == spec.bin_width)

    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramSpec(n_bins=0)
        with pytest.raises(ValueError):
            HistogramSpec(bandwidth=0.0)
        with pytest.raises(ValueError):
            HistogramSpec(bandwidth=-1e-3)
        with pytest.raises(ValueError):
            HistogramSpec(bandwidth=float("inf"))


class TestBinIndex:
    def test_edges(self):
        for n in (4, 5, 16, 256):
            spec = HistogramSpec(n_bins=n, bandwidth=0.01)
            assert bin_index(-1.0, spec) == 0
            assert bin_index(1.0, spec) == n - 1

    def test_zero_maps_to_upper_half_bin(self):
        # 0 is a shared edge for even bin counts; the half-open convention
        # sends it up: with 256 bins that is index 128 (the 129th bin)
        spec = HistogramSpec()
        assert bin_index(0.0, spec) == 128

    def test_array_input_and_range_check(self):
        spec = HistogramSpec(n_bins=8, bandwidth=0.01)
        idx = bin_index(spec.centers, spec)
        assert np.array_equal(idx, np.arange(8))
        with pytest.raises(ValueError):
            bin_index(1.5, spec)
        with pytest.raises(ValueError):
            bin_index(-1.0000001, spec)


class TestKdeHistogram:
    def test_mass_concentrates_in_pixel_bin(self):
        # every pixel dead-center in bin 0; bandwidth much smaller than the
        # half-width, so the bin keeps essentially all mass.  The erf tail
        # at distance half_width/(sqrt(2)*B) ~ 2.76 leaves the immediate
        # neighbor ~4.7e-5, and nothing measurable beyond it.
        spec = HistogramSpec()
        bins = kde_histogram(np.full(77, spec.centers[0]), spec)
        assert bins[0] > 0.9999
        assert bins[1] < 1e-4
        assert np.all(bins[2:] < 1e-12)

    def test_boundary_pixel_splits_evenly(self):
        # a pixel exactly on the edge between two bins splits its mass
        spec = HistogramSpec()
        bins = kde_histogram([0.0], spec)
        assert abs(bins[127] - 0.5) < 1e-4
        assert abs(bins[128] - 0.5) < 1e-4
        assert abs(bins[127] - bins[128]) < 1e-12

    def test_matches_adaptive_quadrature(self):
        # independent oracle: integrate the kernel-density estimate over
        # each bin numerically, then normalize the same way
        rng = np.random.default_rng(42)
        spec = HistogramSpec(n_bins=16, bandwidth=0.05)
        px = rng.uniform(-0.5, 0.5, size=16)
        bins = kde_histogram(px, spec)

        b = spec.bandwidth

        def density(x):
            return np.exp(-0.5 * ((x - px) / b) ** 2).sum() / (px.size * b * np.sqrt(2 * np.pi))

        raw = np.array(
            [
                quad(density, spec.edges[i], spec.edges[i + 1], epsabs=1e-13, epsrel=1e-12, limit=200)[0]
                for i in range(16)
            ]
        )
        np.testing.assert_allclose(bins, raw / raw.sum(), atol=1e-10)

    def test_input_validation(self):
        spec = HistogramSpec()
        with pytest.raises(ValueError):
            kde_histogram([1.2], spec)
        with pytest.raises(ValueError):
            kde_histogram([], spec)
        with pytest.raises(ValueError):
            kde_histogram([np.nan], spec)

    def test_normalization(self):
        rng = np.random.default_rng(7)
        for n_bins, bandwidth, m in ((256, 0.001, 784), (16, 0.05, 3), (64, 0.2, 100)):
            spec = HistogramSpec(n_bins=n_bins, bandwidth=bandwidth)
            bins = kde_histogram(rng.uniform(-1, 1, m), spec)
            assert abs(bins.sum() - 1.0) < 1e-12
            assert np.all(bins >= 0)

    def test_permutation_invariance(self):
        # bit for bit: reordering pixels must not even change the rounding
        rng = np.random.default_rng(8)
        spec = HistogramSpec()
        px = rng.uniform(-1, 1, 784)
        bins = kde_histogram(px, spec)
        for _ in range(4):
            again = kde_histogram(rng.permutation(px), spec)
            assert np.array_equal(again, bins)
        image = rng.integers(0, 256, (28, 28)) / 127.5 - 1.0
        assert np.array_equal(kde_histogram(image[:, ::-1], spec), kde_histogram(image, spec))

    def test_matches_dense_reference_at_production_settings(self, small_set):
        # every (pixel, edge) erf term summed directly, with no grouping of
        # equal pixels and no saturation cut-off
        spec = HistogramSpec(n_bins=256, bandwidth=0.001)

        def dense(pixels):
            px = np.asarray(pixels).ravel()
            per_edge = erf((spec.edges[None, :] - px[:, None]) / (np.sqrt(2.0) * spec.bandwidth)).sum(axis=0)
            raw = np.diff(per_edge)
            return raw / raw.sum()

        rng = np.random.default_rng(10)
        raw_bytes, labels = to_bytes_images(small_set)
        byte_set = ImageSet(normalize(raw_bytes), labels)
        noise = rng.integers(0, 256, (4, 28, 28)) / 127.5 - 1.0
        rotated = apply_transform(byte_set, TransformSpec("rotate", rng_seed=3)).pixels
        for images in (byte_set.pixels[:8], noise, rotated[:8]):
            for image in images:
                assert np.abs(kde_histogram(image, spec) - dense(image)).max() < 1e-12

    def test_converges_to_discrete_histogram(self):
        # tiny bandwidth, pixels far from boundaries: KDE == counting
        rng = np.random.default_rng(9)
        spec = HistogramSpec(n_bins=16, bandwidth=1e-6)
        px = spec.centers[rng.integers(0, 16, 200)] + rng.uniform(-0.03, 0.03, 200)
        diff = np.abs(kde_histogram(px, spec) - discrete_histogram(px, spec)).max()
        assert diff < 1e-6

    def test_smoothing_monotonicity(self):
        # wider kernels spread a single pixel's mass: peak strictly drops.
        # Bandwidths start near the representable smoothing floor: below
        # ~bin_width/16 the neighbor mass underflows and the peak pins at 1.
        peaks = []
        for bandwidth in (1e-2, 2e-2, 5e-2, 1e-1, 2e-1):
            spec = HistogramSpec(n_bins=16, bandwidth=bandwidth)
            peaks.append(kde_histogram([spec.centers[7]], spec).max())
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_forward_is_pure(self):
        rng = np.random.default_rng(10)
        spec = HistogramSpec()
        px = rng.uniform(-1, 1, 784)
        assert np.array_equal(kde_histogram(px, spec), kde_histogram(px, spec))

    def test_accepts_2d_images(self):
        rng = np.random.default_rng(11)
        spec = HistogramSpec(n_bins=32, bandwidth=0.01)
        img = rng.uniform(-1, 1, (28, 28))
        assert np.array_equal(kde_histogram(img, spec), kde_histogram(img.ravel(), spec))


class TestKdeBackward:
    def test_uniform_upstream_grad_is_flat(self):
        # the histogram always sums to 1, so a constant upstream gradient
        # sees a flat direction
        rng = np.random.default_rng(12)
        spec = HistogramSpec(n_bins=32, bandwidth=0.01)
        px = rng.uniform(-1, 1, 50)
        grad = kde_histogram_backward(np.full(32, 3.7), px, spec)
        assert np.abs(grad).max() < 1e-12

    def test_single_pixel_finite_differences(self):
        spec = HistogramSpec(n_bins=4, bandwidth=0.1)
        g = np.array([0.3, -1.1, 0.7, 0.2])
        x0 = np.array([0.31])
        analytic = kde_histogram_backward(g, x0, spec)[0]
        h = 1e-5
        fp = kde_histogram(x0 + h, spec) @ g
        fm = kde_histogram(x0 - h, spec) @ g
        numeric = (fp - fm) / (2 * h)
        assert abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric)) < 1e-5

    def test_matches_finite_differences_away_from_edges(self):
        rng = np.random.default_rng(13)
        spec = HistogramSpec(n_bins=8, bandwidth=0.05)
        px = spec.centers[rng.integers(0, 8, 12)] + rng.uniform(-0.08, 0.08, 12)
        g = rng.standard_normal(8)
        analytic = kde_histogram_backward(g, px, spec)
        h = 1e-4
        for i in range(px.size):
            xp = px.copy()
            xp[i] += h
            xm = px.copy()
            xm[i] -= h
            numeric = (kde_histogram(xp, spec) @ g - kde_histogram(xm, spec) @ g) / (2 * h)
            rel = abs(analytic[i] - numeric) / max(1e-8, abs(analytic[i]) + abs(numeric))
            assert rel < 1e-4

    def test_deep_interior_pixel_has_vanishing_gradient(self):
        # > 8 bandwidths from both bin bounds: the Gaussian tails leave
        # nothing for the gradient to see.  Needs bins wider than 16
        # bandwidths, so a 16-bin partition (half-width 0.0625 vs 8B=0.008).
        spec = HistogramSpec(n_bins=16, bandwidth=0.001)
        px = np.array([spec.centers[10]])
        worst = 0.0
        for i in range(spec.n_bins):
            basis = np.zeros(spec.n_bins)
            basis[i] = 1.0
            worst = max(worst, abs(kde_histogram_backward(basis, px, spec)[0]))
        assert worst < 1e-10

    def test_shape_follows_input(self):
        rng = np.random.default_rng(14)
        spec = HistogramSpec(n_bins=16, bandwidth=0.05)
        img = rng.uniform(-1, 1, (5, 6))
        grad = kde_histogram_backward(rng.standard_normal(16), img, spec)
        assert grad.shape == (5, 6)

    def test_grad_bins_length_checked(self):
        spec = HistogramSpec(n_bins=16, bandwidth=0.05)
        with pytest.raises(ValueError):
            kde_histogram_backward(np.zeros(8), [0.1], spec)


class TestDiscreteHistogram:
    def test_point_masses(self):
        spec = HistogramSpec(n_bins=4, bandwidth=0.01)
        bins = discrete_histogram(np.full(4, spec.centers[1]), spec)
        assert np.array_equal(bins, [0.0, 1.0, 0.0, 0.0])

    def test_uniform_over_centers(self):
        spec = HistogramSpec(n_bins=4, bandwidth=0.01)
        bins = discrete_histogram(spec.centers, spec)
        assert np.array_equal(bins, [0.25, 0.25, 0.25, 0.25])

    def test_half_open_bins_and_closed_top(self):
        spec = HistogramSpec(n_bins=4, bandwidth=0.01)
        # a pixel exactly on an interior edge belongs to the upper bin
        bins = discrete_histogram([spec.edges[1]], spec)
        assert bins[1] == 1.0
        assert discrete_histogram([1.0], spec)[3] == 1.0

    def test_sums_to_one(self):
        rng = np.random.default_rng(15)
        spec = HistogramSpec(n_bins=7, bandwidth=0.01)
        bins = discrete_histogram(rng.uniform(-1, 1, 97), spec)
        assert abs(bins.sum() - 1.0) < 1e-12
