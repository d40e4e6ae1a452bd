"""Differentiable histogram: geometry, oracles, gradients."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from conftest import to_bytes_images, transform_set
from histlearn.data import ImageSet, normalize
from histlearn import histogram
from histlearn.errors import ShapeError
from histlearn.histogram import (
    HistogramSpec,
    bin_index,
    discrete_histogram,
    kde_histogram,
    kde_histogram_backward,
)
from histlearn.transforms import rotate


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

    def test_bin_count_is_bounded(self):
        assert HistogramSpec(n_bins=HistogramSpec.MAX_BINS).n_bins == HistogramSpec.MAX_BINS
        with pytest.raises(ValueError, match="n_bins"):
            HistogramSpec(n_bins=HistogramSpec.MAX_BINS + 1)


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
        bins = kde_histogram(np.full((1, 77), spec.centers[0]), spec)[0]
        assert bins[0] > 0.9999
        assert bins[1] < 1e-4
        assert np.all(bins[2:] < 1e-12)

    def test_boundary_pixel_splits_evenly(self):
        # a pixel exactly on the edge between two bins splits its mass
        spec = HistogramSpec()
        bins = kde_histogram([[0.0]], spec)[0]
        assert abs(bins[127] - 0.5) < 1e-4
        assert abs(bins[128] - 0.5) < 1e-4
        assert abs(bins[127] - bins[128]) < 1e-12

    def test_matches_adaptive_quadrature(self):
        # independent oracle: integrate the kernel-density estimate over
        # each bin numerically, then normalize the same way
        rng = np.random.default_rng(42)
        spec = HistogramSpec(n_bins=16, bandwidth=0.05)
        px = rng.uniform(-0.5, 0.5, size=16)
        bins = kde_histogram(px[None], spec)[0]

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
            kde_histogram([[1.2]], spec)
        with pytest.raises(ValueError):
            kde_histogram([[]], spec)
        with pytest.raises(ValueError):
            kde_histogram([[np.nan]], spec)

    def test_normalization(self):
        rng = np.random.default_rng(7)
        for n_bins, bandwidth, m in ((256, 0.001, 784), (16, 0.05, 3), (64, 0.2, 100)):
            spec = HistogramSpec(n_bins=n_bins, bandwidth=bandwidth)
            bins = kde_histogram(rng.uniform(-1, 1, (1, m)), spec)[0]
            assert abs(bins.sum() - 1.0) < 1e-12
            assert np.all(bins >= 0)

    def test_permutation_invariance(self):
        # bit for bit: reordering pixels must not even change the rounding
        rng = np.random.default_rng(8)
        spec = HistogramSpec()
        px = rng.uniform(-1, 1, 784)
        bins = kde_histogram(px[None], spec)
        for _ in range(4):
            again = kde_histogram(rng.permutation(px)[None], spec)
            assert np.array_equal(again, bins)
        image = rng.integers(0, 256, (28, 28)) / 127.5 - 1.0
        assert np.array_equal(kde_histogram(image[None, :, ::-1], spec), kde_histogram(image[None], spec))

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
        rotated = transform_set(byte_set, "rotate", 3).pixels
        for images in (byte_set.pixels[:8], noise, rotated[:8]):
            for image in images:
                assert np.abs(kde_histogram(image[None], spec)[0] - dense(image)).max() < 1e-12

    def test_converges_to_discrete_histogram(self):
        # tiny bandwidth, pixels far from boundaries: KDE == counting
        rng = np.random.default_rng(9)
        spec = HistogramSpec(n_bins=16, bandwidth=1e-6)
        px = spec.centers[rng.integers(0, 16, 200)] + rng.uniform(-0.03, 0.03, 200)
        diff = np.abs(kde_histogram(px[None], spec) - discrete_histogram(px[None], spec)).max()
        assert diff < 1e-6

    def test_smoothing_monotonicity(self):
        # wider kernels spread a single pixel's mass: peak strictly drops.
        # Bandwidths start near the representable smoothing floor: below
        # ~bin_width/16 the neighbor mass underflows and the peak pins at 1.
        peaks = []
        for bandwidth in (1e-2, 2e-2, 5e-2, 1e-1, 2e-1):
            spec = HistogramSpec(n_bins=16, bandwidth=bandwidth)
            peaks.append(kde_histogram([[spec.centers[7]]], spec).max())
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_forward_is_pure(self):
        rng = np.random.default_rng(10)
        spec = HistogramSpec()
        px = rng.uniform(-1, 1, (1, 784))
        assert np.array_equal(kde_histogram(px, spec), kde_histogram(px, spec))

    def test_accepts_2d_images(self):
        # a batch of one 28x28 image is the batch of its 784 pixels
        rng = np.random.default_rng(11)
        spec = HistogramSpec(n_bins=32, bandwidth=0.01)
        img = rng.uniform(-1, 1, (28, 28))
        assert np.array_equal(kde_histogram(img[None], spec), kde_histogram(img.reshape(1, -1), spec))


def _dense_reference(rows, spec):
    """Every (pixel, edge) erf term summed directly: no grouping of equal
    pixels and no saturation cut-off."""
    out = []
    for px in rows:
        per_edge = erf((spec.edges[None, :] - px[:, None]) / (np.sqrt(2.0) * spec.bandwidth)).sum(axis=0)
        raw = np.diff(per_edge)
        out.append(raw / raw.sum())
    return np.array(out)


def _all_bins_reference(rows, spec):
    """The band's scatter with the band widened to every bin: each distinct
    value adds its term to all N bins, in the same order."""
    out = []
    for px in rows:
        values, counts = np.unique(px, return_counts=True)
        scaled = (spec.edges[None, :] - values[:, None]) * (1.0 / (np.sqrt(2.0) * spec.bandwidth))
        erfs = histogram._erf_saturated(scaled)
        terms = counts[:, None] * np.diff(erfs, axis=1)
        keys = np.broadcast_to(np.arange(spec.n_bins), terms.shape)
        out.append(np.bincount(keys.ravel(), weights=terms.ravel(), minlength=spec.n_bins))
    masses = np.array(out)
    return masses / masses.sum(axis=1)[:, None]


def _byte_and_rotated(small_set, count):
    """``count`` byte-valued images and the first of them rotated, as rows."""
    raw, labels = to_bytes_images(small_set)
    byte_set = ImageSet(normalize(raw[:count]), labels[:count])
    rotated = transform_set(byte_set, "rotate", 5).pixels
    return np.concatenate([byte_set.pixels, rotated]).reshape(2 * count, -1)


# (n_bins, bandwidth) pairs beside the production 256 / 0.001: wide
# bandwidths, whose band spans most or all bins, and a tiny one; at the last
# the saturation reach 8 sqrt(2) B is exactly one bin width
WIDE_SETTINGS = [(16, 0.05), (8, 0.5), (16, 1e-6), (16, 0.125 / (8 * np.sqrt(2.0)))]


class TestBatchedHistograms:
    def test_rows_do_not_depend_on_the_batch(self, small_set, monkeypatch):
        # a row alone, inside a batch, and inside a batch that the row
        # groups split in several places all give the same bits
        spec = HistogramSpec()
        rows = _byte_and_rotated(small_set, 150)
        width = 2 * histogram._band_radius(spec) + 1
        assert histogram._BAND_TERMS // (rows.shape[1] * (width + 1)) < len(rows)
        alone = np.array([kde_histogram(row[None], spec)[0] for row in rows])
        assert np.array_equal(kde_histogram(rows, spec), alone)
        assert np.array_equal(kde_histogram(rows[::-1], spec), alone[::-1])
        monkeypatch.setattr(histogram, "_BAND_TERMS", 7 * rows.shape[1] * (width + 1))
        assert np.array_equal(kde_histogram(rows, spec), alone)

    def test_model_input_shape(self, small_set):
        spec = HistogramSpec(n_bins=64, bandwidth=0.01)
        images = small_set.pixels[:5]
        flat = kde_histogram(images.reshape(5, -1), spec)
        assert np.array_equal(kde_histogram(images[:, None], spec), flat)
        assert kde_histogram(images[:0, None], spec).shape == (0, 64)

    def test_permutation_invariance_on_rotated_batches(self, small_set):
        # bit for bit, with pixels permuted within each row and rows reordered
        rng = np.random.default_rng(31)
        spec = HistogramSpec()
        rows = _byte_and_rotated(small_set, 32)[32:]
        bins = kde_histogram(rows, spec)
        for _ in range(3):
            order = rng.permutation(len(rows))
            shuffled = rng.permuted(rows[order], axis=1)
            assert np.array_equal(kde_histogram(shuffled, spec), bins[order])

    @pytest.mark.parametrize("n_bins, bandwidth", [(256, 0.001), *WIDE_SETTINGS])
    def test_band_is_the_all_bins_scatter_bitwise(self, small_set, n_bins, bandwidth):
        # bins past the band receive exactly 0 from a value, so leaving them
        # out changes no bit
        spec = HistogramSpec(n_bins=n_bins, bandwidth=bandwidth)
        rng = np.random.default_rng(32)
        rows = np.concatenate([
            _byte_and_rotated(small_set, 4),
            spec.edges[rng.integers(0, n_bins + 1, (2, 784))],  # pixels on edges, and +-1
        ])
        assert np.array_equal(kde_histogram(rows, spec), _all_bins_reference(rows, spec))

    @pytest.mark.parametrize("n_bins, bandwidth", WIDE_SETTINGS[:3])
    def test_matches_dense_reference_at_wide_settings(self, small_set, n_bins, bandwidth):
        spec = HistogramSpec(n_bins=n_bins, bandwidth=bandwidth)
        rng = np.random.default_rng(33)
        edge_valued = spec.edges[rng.integers(0, n_bins + 1, (2, 784))]
        edge_valued[:, :2] = [-1.0, 1.0]
        rows = np.concatenate([_byte_and_rotated(small_set, 4), edge_valued])
        assert np.abs(kde_histogram(rows, spec) - _dense_reference(rows, spec)).max() < 1e-12

    @pytest.mark.parametrize("bad, message", [(1.2, "range"), (-1.5, "range"), (np.nan, "finite")])
    def test_bad_row_in_batch_raises_as_alone(self, bad, message):
        spec = HistogramSpec(n_bins=16, bandwidth=0.05)
        rows = np.random.default_rng(34).uniform(-1, 1, (5, 20))
        rows[3, 7] = bad
        with pytest.raises(ValueError, match=message) as alone:
            kde_histogram(rows[3:4], spec)
        with pytest.raises(ValueError) as batched:
            kde_histogram(rows, spec)
        assert str(batched.value) == str(alone.value)

    def test_batch_axis_required(self):
        with pytest.raises(ShapeError):
            kde_histogram(np.zeros(5), HistogramSpec(n_bins=8, bandwidth=0.05))


def _dense_backward_reference(grad_bins, rows, spec):
    """The earlier per-image backward: a dense (pixels x N+1) saturated
    Gaussian matrix per row, with the quotient rule spelled out."""
    inv = 1.0 / (np.sqrt(2.0) * spec.bandwidth)
    out = []
    for g, px in zip(grad_bins, rows):
        c = (2.0 / np.sqrt(np.pi)) * inv / (2.0 * px.size)
        gauss = histogram._gauss_saturated((spec.edges[None, :] - px[:, None]) * inv)
        (bins,), (total,) = histogram._kde_rows(px[None], spec)
        edge_coeff = np.zeros(spec.n_bins + 1)
        edge_coeff[:-1] = g
        edge_coeff[1:] -= g
        dtotal = c * (gauss[:, 0] - gauss[:, -1])
        out.append(c * (gauss @ edge_coeff) / total - (g @ bins) / total * dtotal)
    return np.array(out)


class TestKdeBackward:
    def test_uniform_upstream_grad_is_flat(self):
        # the histogram always sums to 1, so a constant upstream gradient
        # sees a flat direction
        rng = np.random.default_rng(12)
        spec = HistogramSpec(n_bins=32, bandwidth=0.01)
        px = rng.uniform(-1, 1, 50)
        grad = kde_histogram_backward(np.full((1, 32), 3.7), px[None], spec)
        assert np.abs(grad).max() < 1e-12

    def test_single_pixel_finite_differences(self):
        spec = HistogramSpec(n_bins=4, bandwidth=0.1)
        g = np.array([0.3, -1.1, 0.7, 0.2])
        x0 = np.array([0.31])
        analytic = kde_histogram_backward(g[None], x0[None], spec)[0, 0]
        h = 1e-5
        fp = kde_histogram([x0 + h], spec)[0] @ g
        fm = kde_histogram([x0 - h], spec)[0] @ g
        numeric = (fp - fm) / (2 * h)
        assert abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric)) < 1e-5

    def test_matches_finite_differences_away_from_edges(self):
        rng = np.random.default_rng(13)
        spec = HistogramSpec(n_bins=8, bandwidth=0.05)
        px = spec.centers[rng.integers(0, 8, 12)] + rng.uniform(-0.08, 0.08, 12)
        g = rng.standard_normal(8)
        analytic = kde_histogram_backward(g[None], px[None], spec)[0]
        h = 1e-4
        for i in range(px.size):
            xp = px.copy()
            xp[i] += h
            xm = px.copy()
            xm[i] -= h
            numeric = (kde_histogram([xp], spec)[0] @ g - kde_histogram([xm], spec)[0] @ g) / (2 * h)
            rel = abs(analytic[i] - numeric) / max(1e-8, abs(analytic[i]) + abs(numeric))
            assert rel < 1e-4

    def test_deep_interior_pixel_has_vanishing_gradient(self):
        # > 8 bandwidths from both bin bounds: the Gaussian tails leave
        # nothing for the gradient to see.  Needs bins wider than 16
        # bandwidths, so a 16-bin partition (half-width 0.0625 vs 8B=0.008).
        spec = HistogramSpec(n_bins=16, bandwidth=0.001)
        px = np.array([[spec.centers[10]]])
        worst = 0.0
        for i in range(spec.n_bins):
            basis = np.zeros((1, spec.n_bins))
            basis[0, i] = 1.0
            worst = max(worst, abs(kde_histogram_backward(basis, px, spec)[0, 0]))
        assert worst < 1e-10

    def test_shape_follows_input(self):
        rng = np.random.default_rng(14)
        spec = HistogramSpec(n_bins=16, bandwidth=0.05)
        img = rng.uniform(-1, 1, (5, 6))
        grad = kde_histogram_backward(rng.standard_normal((1, 16)), img[None], spec)
        assert grad.shape == (1, 5, 6)

    def test_grad_bins_length_checked(self):
        spec = HistogramSpec(n_bins=16, bandwidth=0.05)
        with pytest.raises(ShapeError):
            kde_histogram_backward(np.zeros((1, 8)), [[0.1]], spec)


class TestBatchedBackward:
    def test_rows_do_not_depend_on_the_batch(self, small_set, monkeypatch):
        # a row alone, inside a batch, reversed, and inside a batch that the
        # row groups split in several places all give the same bits
        spec = HistogramSpec()
        rows = _byte_and_rotated(small_set, 150)
        grad = np.random.default_rng(35).standard_normal((len(rows), spec.n_bins))
        width = 2 * histogram._band_radius(spec) + 1
        assert histogram._BAND_TERMS // (rows.shape[1] * (width + 1)) < len(rows)
        alone = np.array([kde_histogram_backward(g[None], row[None], spec)[0] for g, row in zip(grad, rows)])
        assert np.array_equal(kde_histogram_backward(grad, rows, spec), alone)
        assert np.array_equal(kde_histogram_backward(grad[::-1], rows[::-1], spec), alone[::-1])
        monkeypatch.setattr(histogram, "_BAND_TERMS", 7 * rows.shape[1] * (width + 1))
        assert np.array_equal(kde_histogram_backward(grad, rows, spec), alone)

    @pytest.mark.parametrize("n_bins, bandwidth", [(256, 0.001), *WIDE_SETTINGS[:3]])
    def test_matches_dense_per_image_formula(self, small_set, n_bins, bandwidth):
        # only the band's edges can see a pixel; leaving the rest out, and
        # centring instead of the quotient rule, change only the rounding
        spec = HistogramSpec(n_bins=n_bins, bandwidth=bandwidth)
        rng = np.random.default_rng(36)
        edge_valued = spec.edges[rng.integers(0, n_bins + 1, (2, 784))]
        edge_valued[:, :2] = [-1.0, 1.0]
        rows = np.concatenate([_byte_and_rotated(small_set, 4), edge_valued])
        grad = rng.standard_normal((len(rows), n_bins))
        ref = _dense_backward_reference(grad, rows, spec)
        err = np.abs(kde_histogram_backward(grad, rows, spec) - ref).max()
        assert err <= 1e-14 * np.abs(ref).max()

    def test_batch_axis_required(self):
        spec = HistogramSpec(n_bins=8, bandwidth=0.05)
        with pytest.raises(ShapeError):
            kde_histogram_backward(np.zeros((1, 8)), np.zeros(5), spec)
        with pytest.raises(ShapeError):
            kde_histogram_backward(np.zeros(8), np.zeros((1, 5)), spec)


class TestDiscreteHistogram:
    def test_point_masses(self):
        spec = HistogramSpec(n_bins=4, bandwidth=0.01)
        bins = discrete_histogram(np.full((1, 4), spec.centers[1]), spec)
        assert np.array_equal(bins, [[0.0, 1.0, 0.0, 0.0]])

    def test_uniform_over_centers(self):
        spec = HistogramSpec(n_bins=4, bandwidth=0.01)
        bins = discrete_histogram(spec.centers[None], spec)
        assert np.array_equal(bins, [[0.25, 0.25, 0.25, 0.25]])

    def test_half_open_bins_and_closed_top(self):
        spec = HistogramSpec(n_bins=4, bandwidth=0.01)
        # a pixel exactly on an interior edge belongs to the upper bin
        bins = discrete_histogram([[spec.edges[1]]], spec)
        assert bins[0, 1] == 1.0
        assert discrete_histogram([[1.0]], spec)[0, 3] == 1.0

    def test_sums_to_one(self):
        rng = np.random.default_rng(15)
        spec = HistogramSpec(n_bins=7, bandwidth=0.01)
        bins = discrete_histogram(rng.uniform(-1, 1, (1, 97)), spec)
        assert abs(bins.sum() - 1.0) < 1e-12

    def test_rows_match_alone(self, small_set):
        spec = HistogramSpec(n_bins=16, bandwidth=0.01)
        images = small_set.pixels[:6]
        alone = np.concatenate([discrete_histogram(img[None], spec) for img in images])
        assert np.array_equal(discrete_histogram(images, spec), alone)
        with pytest.raises(ShapeError):
            discrete_histogram(images[0, 0], spec)
