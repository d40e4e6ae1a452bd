"""Rotate/translate/flip/shuffle battery and its determinism guarantees."""

import numpy as np
import pytest
from scipy.special import cosdg, sindg

from conftest import make_imageset, transform_set
from histlearn.histogram import HistogramSpec, kde_histogram
from histlearn.transforms import (
    TRANSFORM_KINDS,
    TransformSpec,
    flip,
    rotate,
    stream_states,
    transform_batch,
    transform_image,
    translate,
)


# ---------------------------------------------------------------------------
# one-image references: the per-image formulas the batched gathers replaced


def rotate_reference(img, degrees):
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    s, c = sindg(degrees), cosdg(degrees)
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy = rows - cy
    dx = cols - cx
    src_r = cy + dx * s + dy * c
    src_c = cx + dx * c - dy * s
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    fr = src_r - r0
    fc = src_c - c0
    out = np.zeros_like(img)
    for dr, dc, weight in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        rr = r0 + dr
        cc = c0 + dc
        inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        vals = np.where(inside, img[np.clip(rr, 0, h - 1), np.clip(cc, 0, w - 1)], -1.0)
        out += weight * vals
    return np.clip(out, -1.0, 1.0)


def translate_reference(img, dx, dy):
    h, w = img.shape
    out = np.full_like(img, -1.0)
    out[max(0, dy) : h + min(0, dy), max(0, dx) : w + min(0, dx)] = (
        img[max(0, -dy) : h + min(0, -dy), max(0, -dx) : w + min(0, -dx)]
    )
    return out


def transform_reference(img, i, kind, seed):
    rng = np.random.default_rng([seed, i])
    if kind == "rotate":
        return rotate_reference(img, rng.uniform(0.0, 90.0))
    if kind == "translate":
        dx = int(rng.integers(-8, 9))
        dy = int(rng.integers(-8, 9))
        return translate_reference(img, dx, dy)
    if kind == "flip":
        return img[:, ::-1].copy() if rng.random() < 0.5 else img[::-1, :].copy()
    return img.ravel()[rng.permutation(img.size)].reshape(img.shape)


class TestBatchedGathers:
    @pytest.mark.parametrize("kind", ["rotate", "translate", "flip", "shuffle"])
    def test_set_matches_per_image_reference_bytewise(self, kind):
        image_set = make_imageset(300, seed=12)
        out = transform_set(image_set, kind, 9).pixels
        expected = np.stack(
            [transform_reference(img, i, kind, 9) for i, img in enumerate(image_set.pixels)]
        )
        assert out.tobytes() == expected.tobytes()

    def test_rotate_matches_reference_at_edge_angles(self):
        rng = np.random.default_rng(13)
        for shape in ((28, 28), (7, 12), (1, 5)):
            img = rng.uniform(-1, 1, shape)
            for theta in (0.0, 45.0, 89.999, 90.0, *rng.uniform(0.0, 90.0, 4)):
                assert rotate(img, theta).tobytes() == rotate_reference(img, theta).tobytes()

    def test_translate_past_a_small_image_leaves_only_fill(self):
        # the slicing reference cannot shift by more than the image size
        img = np.random.default_rng(14).uniform(-1, 1, (5, 6))
        for dx, dy in ((8, 0), (0, -8), (-7, 8)):
            assert np.all(translate(img, dx, dy) == -1.0)
        assert translate(img, 3, -2).tobytes() == translate_reference(img, 3, -2).tobytes()


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
    def test_multiset_preserved(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(-1, 1, (28, 28))
        out = transform_image(img, 0, TransformSpec("shuffle", 123))
        assert not np.array_equal(out, img)
        assert np.array_equal(np.sort(out.ravel()), np.sort(img.ravel()))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(9)
        img = rng.uniform(-1, 1, (28, 28))

        def shuffled(seed):
            return transform_image(img, 0, TransformSpec("shuffle", seed))

        assert np.array_equal(shuffled(5), shuffled(5))
        assert not np.array_equal(shuffled(5), shuffled(6))


class TestApplyTransform:
    def test_none_returns_input(self, small_set):
        states = stream_states(0, range(small_set.count))
        assert transform_batch(small_set.pixels, states, "none") is small_set.pixels

    def test_unknown_kind_raises_instead_of_shuffling(self, small_set):
        states = stream_states(0, range(small_set.count))
        with pytest.raises(ValueError, match="bogus"):
            transform_batch(small_set.pixels, states, "bogus")

    def test_deterministic_reruns(self, small_set):
        for kind in ("rotate", "translate", "flip", "shuffle"):
            a = transform_set(small_set, kind, 3)
            b = transform_set(small_set, kind, 3)
            assert np.array_equal(a.pixels, b.pixels)
            assert np.array_equal(a.labels, small_set.labels)

    def test_rotation_stream_is_documented_derivation(self, small_set):
        # per-image angle i comes from default_rng([seed, i]).uniform(0, 90)
        out = transform_set(small_set, "rotate", 11)
        for i in (0, 17, 255):
            theta = np.random.default_rng([11, i]).uniform(0.0, 90.0)
            assert np.array_equal(out.pixels[i], rotate(small_set.pixels[i], theta))

    def test_translate_draws_dx_then_dy(self, small_set):
        out = transform_set(small_set, "translate", 4)
        for i in (0, 100):
            rng = np.random.default_rng([4, i])
            dx = int(rng.integers(-8, 9))
            dy = int(rng.integers(-8, 9))
            assert np.array_equal(out.pixels[i], translate(small_set.pixels[i], dx, dy))

    def test_pixels_stay_in_range(self, small_set):
        for kind in ("rotate", "translate", "flip", "shuffle"):
            out = transform_set(small_set, kind, 0)
            assert out.pixels.min() >= -1.0 and out.pixels.max() <= 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TransformSpec("zoom")

    def test_flip_and_shuffle_preserve_histograms(self, small_set):
        # multiset preservation means identical per-image KDE histograms
        spec = HistogramSpec(n_bins=64, bandwidth=0.01)
        before = kde_histogram(small_set.pixels[:16], spec)
        for kind in ("flip", "shuffle"):
            out = transform_set(small_set, kind, 2)
            assert np.array_equal(kde_histogram(out.pixels[:16], spec), before)

    def test_battery_matches_separate_calls_bytewise(self):
        # one seeding per image and seed, restored for every kind
        image_set = make_imageset(300, seed=13)
        specs = [TransformSpec(kind, rng_seed=7) for kind in TRANSFORM_KINDS]
        specs += [TransformSpec("rotate", rng_seed=8), TransformSpec("shuffle", rng_seed=7)]
        states = {seed: stream_states(seed, range(image_set.count)) for seed in (7, 8)}
        outs = [transform_batch(image_set.pixels, states[t.rng_seed], t.kind) for t in specs]
        assert len(outs) == len(specs) and outs[0] is image_set.pixels
        for tspec, out in zip(specs, outs):
            expected = transform_set(image_set, tspec.kind, tspec.rng_seed).pixels
            assert np.array_equal(out, expected), tspec

    def test_transform_image_matches_set_application(self, small_set):
        # the single-image helper reproduces the whole-set result at any index
        for kind in ("rotate", "translate", "flip", "shuffle"):
            tspec = TransformSpec(kind, rng_seed=6)
            whole = transform_set(small_set, tspec.kind, tspec.rng_seed)
            for i in (0, 31, 200):
                single = transform_image(small_set.pixels[i], i, tspec)
                assert np.array_equal(single, whole.pixels[i])

    def test_rotation_perturbs_histograms(self, small_set):
        # bilinear interpolation changes the pixel multiset
        spec = HistogramSpec(n_bins=64, bandwidth=0.01)
        out = transform_set(small_set, "rotate", 2)
        a = kde_histogram(small_set.pixels[:16], spec)
        b = kde_histogram(out.pixels[:16], spec)
        changed = np.sum(np.abs(a - b).max(axis=1) > 1e-6)
        assert changed >= 15  # an exact right angle draw would be a measure-zero fluke
