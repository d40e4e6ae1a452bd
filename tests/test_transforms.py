"""Rotate/translate/flip/shuffle battery and its determinism guarantees."""

import numpy as np
import pytest

from histlearn.histogram import HistogramSpec, kde_histogram
from histlearn.transforms import (
    TransformSpec,
    apply_transform,
    flip,
    permute_pixels,
    rotate,
    shuffle_pixels,
    transform_image,
    translate,
)


class TestRotate:
    def test_zero_degrees_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(-1, 1, (28, 28))
        assert np.array_equal(rotate(img, 0.0), img)

    def test_right_angle_is_exact_permutation(self):
        # 2x2 asymmetric pattern: rotating 90 degrees about the center of
        # an even grid lands every pixel center on a pixel center
        img = np.array([[0.1, 0.2], [-0.3, 0.9]])
        assert np.array_equal(rotate(img, 90.0), np.rot90(img))
        big = np.random.default_rng(1).uniform(-1, 1, (28, 28))
        assert np.array_equal(rotate(big, 90.0), np.rot90(big))

    def test_values_stay_in_range(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(-1, 1, (28, 28))
        for theta in (13.7, 45.0, 61.2, 89.9):
            out = rotate(img, theta)
            assert out.min() >= -1.0 and out.max() <= 1.0

    def test_angle_validation(self):
        img = np.zeros((4, 4))
        with pytest.raises(ValueError):
            rotate(img, -0.1)
        with pytest.raises(ValueError):
            rotate(img, 90.1)

    def test_interpolation_fills_background(self):
        img = np.full((8, 8), 0.5)
        out = rotate(img, 45.0)
        assert out.min() < 0.5  # corners swept in from the -1 fill


class TestTranslate:
    def test_zero_shift_identity(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(-1, 1, (28, 28))
        assert np.array_equal(translate(img, 0, 0), img)

    def test_offset_bound_enforced(self):
        with pytest.raises(ValueError):
            translate(np.zeros((28, 28)), 28, 0)
        with pytest.raises(ValueError):
            translate(np.zeros((28, 28)), 0, -9)

    def test_bright_pixel_moves_exactly(self):
        img = np.full((28, 28), -1.0)
        img[10, 7] = 0.9
        out = translate(img, 3, -2)
        assert out[8, 10] == 0.9
        assert (out > -1.0).sum() == 1

    def test_vacated_region_filled(self):
        img = np.full((6, 6), 1.0)
        out = translate(img, 2, 0)
        assert np.all(out[:, :2] == -1.0)
        assert np.all(out[:, 2:] == 1.0)


class TestFlip:
    def test_involution(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(-1, 1, (28, 28))
        for axis in ("horizontal", "vertical"):
            assert np.array_equal(flip(flip(img, axis), axis), img)

    def test_symmetric_image_fixed_point(self):
        img = np.random.default_rng(5).uniform(-1, 1, (8, 4))
        sym = np.concatenate([img, img[:, ::-1]], axis=1)
        assert np.array_equal(flip(sym, "horizontal"), sym)

    def test_pixel_multiset_preserved(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(-1, 1, (28, 28))
        for axis in ("horizontal", "vertical"):
            assert np.array_equal(np.sort(flip(img, axis).ravel()), np.sort(img.ravel()))

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            flip(np.zeros((4, 4)), "diagonal")


class TestShuffle:
    def test_identity_permutation(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(-1, 1, (28, 28))
        assert np.array_equal(permute_pixels(img, np.arange(784)), img)

    def test_multiset_preserved(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(-1, 1, (28, 28))
        out = shuffle_pixels(img, 123)
        assert np.array_equal(np.sort(out.ravel()), np.sort(img.ravel()))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(9)
        img = rng.uniform(-1, 1, (28, 28))
        assert np.array_equal(shuffle_pixels(img, 5), shuffle_pixels(img, 5))
        assert not np.array_equal(shuffle_pixels(img, 5), shuffle_pixels(img, 6))


class TestApplyTransform:
    def test_none_returns_input(self, small_set):
        assert apply_transform(small_set, TransformSpec("none")) is small_set

    def test_deterministic_reruns(self, small_set):
        for kind in ("rotate", "translate", "flip", "shuffle"):
            tspec = TransformSpec(kind, rng_seed=3)
            a = apply_transform(small_set, tspec)
            b = apply_transform(small_set, tspec)
            assert np.array_equal(a.pixels, b.pixels)
            assert np.array_equal(a.labels, small_set.labels)

    def test_rotation_stream_is_documented_derivation(self, small_set):
        # per-image angle i comes from default_rng([seed, i]).uniform(0, 90)
        tspec = TransformSpec("rotate", rng_seed=11)
        out = apply_transform(small_set, tspec)
        for i in (0, 17, 255):
            theta = np.random.default_rng([11, i]).uniform(0.0, 90.0)
            assert np.array_equal(out.pixels[i], rotate(small_set.pixels[i], theta))

    def test_translate_draws_dx_then_dy(self, small_set):
        tspec = TransformSpec("translate", rng_seed=4)
        out = apply_transform(small_set, tspec)
        for i in (0, 100):
            rng = np.random.default_rng([4, i])
            dx = int(rng.integers(-8, 9))
            dy = int(rng.integers(-8, 9))
            assert np.array_equal(out.pixels[i], translate(small_set.pixels[i], dx, dy))

    def test_pixels_stay_in_range(self, small_set):
        for kind in ("rotate", "translate", "flip", "shuffle"):
            out = apply_transform(small_set, TransformSpec(kind, rng_seed=0))
            assert out.pixels.min() >= -1.0 and out.pixels.max() <= 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TransformSpec("zoom")

    def test_flip_and_shuffle_preserve_histograms(self, small_set):
        # multiset preservation means identical per-image KDE histograms
        spec = HistogramSpec(n_bins=64, bandwidth=0.01)
        subset = small_set.pixels[:16]
        for kind in ("flip", "shuffle"):
            out = apply_transform(small_set, TransformSpec(kind, rng_seed=2))
            for i in range(16):
                a = kde_histogram(subset[i], spec)
                b = kde_histogram(out.pixels[i], spec)
                assert np.array_equal(a, b)

    def test_transform_image_matches_set_application(self, small_set):
        # the single-image helper reproduces the whole-set result at any index
        for kind in ("rotate", "translate", "flip", "shuffle"):
            tspec = TransformSpec(kind, rng_seed=6)
            whole = apply_transform(small_set, tspec)
            for i in (0, 31, 200):
                single = transform_image(small_set.pixels[i], i, tspec)
                assert np.array_equal(single, whole.pixels[i])

    def test_rotation_perturbs_histograms(self, small_set):
        # bilinear interpolation changes the pixel multiset
        spec = HistogramSpec(n_bins=64, bandwidth=0.01)
        out = apply_transform(small_set, TransformSpec("rotate", rng_seed=2))
        changed = 0
        for i in range(16):
            a = kde_histogram(small_set.pixels[i], spec)
            b = kde_histogram(out.pixels[i], spec)
            changed += np.abs(a - b).max() > 1e-6
        assert changed >= 15  # an exact right angle draw would be a measure-zero fluke
