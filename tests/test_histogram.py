"""Differentiable histogram: geometry, oracles, gradients."""

import numpy as np
import pytest
from scipy.special import erf

from conftest import assert_check_passed, transform_set
from histlearn.data import normalize
from histlearn import histogram, nn
from histlearn.errors import ShapeError
from histlearn.histogram import (
    HistogramSpec,
    bin_index,
    discrete_histogram,
    kde_histogram,
    kde_histogram_backward,
)
from histlearn.models import HistogramLayer
from histlearn.selftest import _probe_input
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
        for bandwidth in (True, "x"):
            with pytest.raises(ValueError, match="bandwidth"):
                HistogramSpec(256, bandwidth)

    def test_bin_count_is_bounded(self):
        assert HistogramSpec(n_bins=HistogramSpec.MAX_BINS).n_bins == HistogramSpec.MAX_BINS
        with pytest.raises(ValueError, match="n_bins"):
            HistogramSpec(n_bins=HistogramSpec.MAX_BINS + 1)

    def test_bandwidth_is_bounded(self):
        top = HistogramSpec.MAX_BANDWIDTH
        assert HistogramSpec(bandwidth=top).bandwidth == top
        with pytest.raises(ValueError, match="bandwidth"):
            HistogramSpec(bandwidth=np.nextafter(top, np.inf))
        bottom = HistogramSpec.MIN_BANDWIDTH
        assert HistogramSpec(bandwidth=bottom).bandwidth == bottom
        for below in (np.nextafter(bottom, 0.0), 4e-309, 5e-324):
            with pytest.raises(ValueError, match="bandwidth"):
                HistogramSpec(bandwidth=below)

    @pytest.mark.parametrize("n_bins", [1, 2, 256, HistogramSpec.MAX_BINS])
    def test_smallest_bandwidth_is_finite_both_ways(self, n_bins):
        # below MIN_BANDWIDTH 1 / (sqrt(2) B) overflows, and a pixel on a bin
        # edge, such as the background at -1.0, gets 0 * inf = NaN
        spec = HistogramSpec(n_bins=n_bins, bandwidth=HistogramSpec.MIN_BANDWIDTH)
        rng = np.random.default_rng(n_bins)
        rows = np.stack([
            normalize(rng.integers(0, 256, (28, 28))),
            rng.uniform(-1.0, 1.0, (28, 28)),
            np.full((28, 28), -1.0),
            np.full((28, 28), 1.0),
        ])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            hist = kde_histogram(rows, spec)
            grad = kde_histogram_backward(rng.standard_normal(hist.shape), rows, spec)
        assert np.isfinite(hist).all() and np.isfinite(grad).all()

    @pytest.mark.parametrize("bandwidth", [1e18, 1e300])
    def test_band_radius_is_clamped_to_the_bin_count(self, bandwidth):
        # an unclamped radius overflows int64 and fails in _band
        spec = HistogramSpec(n_bins=16, bandwidth=bandwidth)
        assert histogram._band_radius(spec) == 16
        row = normalize(np.arange(0, 256, 16))[None]
        assert np.array_equal(kde_histogram(row, spec), _all_bins_reference(row, spec))

    def test_production_band_radius(self):
        assert histogram._band_radius(HistogramSpec()) == 2


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

    def test_matches_adaptive_quadrature(self, property_results):
        # the kernel-density estimate integrated over each bin numerically,
        # then normalized the same way
        assert_check_passed(property_results, "kde-vs-quadrature", 1e-10)

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
        image = normalize(rng.integers(0, 256, (28, 28)))
        assert np.array_equal(kde_histogram(image[None, :, ::-1], spec), kde_histogram(image[None], spec))

    def test_matches_dense_reference_at_production_settings(self, small_set):
        spec = HistogramSpec(n_bins=256, bandwidth=0.001)
        rng = np.random.default_rng(10)
        noise = normalize(rng.integers(0, 256, (4, 28, 28)))
        rotated = transform_set(small_set, "rotate", 3)
        for images in (small_set.take(slice(8)), noise, rotated[:8]):
            for image in images:
                want = _dense_reference(image.reshape(1, -1), spec)
                assert np.abs(kde_histogram(image[None], spec) - want).max() < 1e-12

    def test_converges_to_discrete_histogram(self, property_results):
        # tiny bandwidth, pixels far from boundaries: KDE == counting
        assert_check_passed(property_results, "kde-vs-discrete", 1e-6)

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
        erfs = erf(scaled)
        terms = counts[:, None] * np.diff(erfs, axis=1)
        keys = np.broadcast_to(np.arange(spec.n_bins), terms.shape)
        out.append(np.bincount(keys.ravel(), weights=terms.ravel(), minlength=spec.n_bins))
    masses = np.array(out)
    return masses / masses.sum(axis=1)[:, None]


def _byte_and_rotated(small_set, count):
    """``count`` byte-valued images and the first of them rotated, as rows."""
    rotated = transform_set(small_set, "rotate", 5)[:count]
    return np.concatenate([small_set.take(slice(count)), rotated]).reshape(2 * count, -1)


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
        images = small_set.take(slice(None))[:5]
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


def _byte_path_cases(small_set):
    """Batches whose every pixel is a byte's value, by name."""
    translated = transform_set(small_set, "translate", 6)[:5]
    return {
        "all-background": np.full((3, 784), -1.0),
        "single-value": np.full((2, 784), normalize(200)),
        "translate-filled": translated.reshape(5, -1),
        "batch-of-one": small_set.take(slice(1)).reshape(1, -1),
        "digits": small_set.take(slice(40)).reshape(40, -1),
    }


class TestBytePath:
    """A group of rows whose pixels are all byte values finds its distinct
    values by counting byte codes; every other group sorts.  The two give
    the same bits."""

    @pytest.mark.parametrize("n_bins, bandwidth", [(256, 0.001), *WIDE_SETTINGS])
    @pytest.mark.parametrize(
        "case", ["all-background", "single-value", "translate-filled", "batch-of-one", "digits"]
    )
    def test_byte_path_is_the_sort_path_bitwise(self, small_set, case, n_bins, bandwidth,
                                                monkeypatch):
        spec = HistogramSpec(n_bins=n_bins, bandwidth=bandwidth)
        rows = _byte_path_cases(small_set)[case]
        assert histogram._byte_codes(rows) is not None
        counted = kde_histogram(rows, spec)
        monkeypatch.setattr(histogram, "_byte_codes", lambda rows: None)
        assert np.array_equal(counted.view(np.uint64), kde_histogram(rows, spec).view(np.uint64))

    def test_one_non_byte_row_sends_its_group_down_the_sort_path(self, small_set):
        spec = HistogramSpec()
        rows = _byte_and_rotated(small_set, 8)[:9]  # 8 byte rows and one rotated
        assert histogram._byte_codes(rows[:8]) is not None
        assert histogram._byte_codes(rows) is None
        alone = np.array([kde_histogram(row[None], spec)[0] for row in rows])
        assert np.array_equal(kde_histogram(rows, spec).view(np.uint64), alone.view(np.uint64))

    def test_a_value_off_its_byte_is_not_a_byte(self):
        row = normalize(np.arange(0, 256, 8))[None]
        assert np.array_equal(histogram._byte_codes(row), np.arange(0, 256, 8)[None])
        row[0, 5] = np.nextafter(row[0, 5], 2.0)
        assert histogram._byte_codes(row) is None

    def test_selftest_check_passes(self, property_results):
        # all-byte batches at 256 bins and a wide bandwidth, bitwise
        assert_check_passed(property_results, "kde-byte-vs-sort", 0.0)


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


def _per_pixel_backward_reference(grad_bins, rows, spec):
    """The banded backward evaluated at every pixel, not once per distinct
    value: each pixel's band of saturated Gaussians times the centred edge
    coefficients, summed, as ``kde_histogram_backward`` defines it."""
    bins, totals = histogram._kde_rows(rows, spec)
    h = grad_bins - (grad_bins * bins).sum(axis=1, keepdims=True)
    coeff = np.diff(h, axis=1, prepend=0.0, append=0.0)
    inv = 1.0 / (np.sqrt(2.0) * spec.bandwidth)
    c = (2.0 / np.sqrt(np.pi)) * inv / (2.0 * rows.shape[1])
    _, edges = histogram._band(rows, spec)
    gauss = histogram._gauss_saturated((spec.edges[edges] - rows[..., None]) * inv)
    band_coeff = np.take_along_axis(coeff[:, None, :], edges, axis=2)
    return c * (gauss * band_coeff).sum(axis=2) / totals[:, None]


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
        g = np.array([[0.3, -1.1, 0.7, 0.2]])
        x0 = np.full((1, 1, 1, 1), 0.31)
        assert nn.grad_check(_probe_input(HistogramLayer(spec), g), x0, h=1e-5) < 1e-5

    def test_matches_finite_differences_away_from_edges(self, property_results):
        # pixels parked > 2h from every bin edge, N=8, B=0.05, h=1e-4
        assert_check_passed(property_results, "gradient-kde-histogram", 1e-4)

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

    @pytest.mark.parametrize("n_bins, bandwidth", [(256, 0.001), *WIDE_SETTINGS])
    def test_once_per_value_matches_per_pixel_bitwise(self, small_set, n_bins, bandwidth, monkeypatch):
        # byte images repeat few values, rotated ones many; signed zeros and
        # the domain ends are equal values that must share one evaluation
        spec = HistogramSpec(n_bins=n_bins, bandwidth=bandwidth)
        rng = np.random.default_rng(37)
        rows = _byte_and_rotated(small_set, 12)
        rows[0, :4] = [0.0, -0.0, -1.0, 1.0]
        rows[1, :4] = [-0.0, 0.0, 1.0, -1.0]
        grad = rng.standard_normal((len(rows), n_bins))
        ref = _per_pixel_backward_reference(grad, rows, spec)
        assert np.array_equal(kde_histogram_backward(grad, rows, spec), ref)
        # and across row groups split inside the batch
        monkeypatch.setattr(histogram, "_BAND_TERMS", 5 * rows.shape[1] * (histogram._band_width(spec) + 1))
        assert np.array_equal(kde_histogram_backward(grad, rows, spec), ref)

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
        images = small_set.take(slice(None))[:6]
        alone = np.concatenate([discrete_histogram(img[None], spec) for img in images])
        assert np.array_equal(discrete_histogram(images, spec), alone)
        with pytest.raises(ShapeError):
            discrete_histogram(images[0, 0], spec)
