"""Rotate/translate/flip/shuffle battery and its determinism guarantees."""

import re

import numpy as np
import pytest
from scipy.special import cosdg, sindg

from conftest import make_imageset, transform_set
from histlearn import transforms
from histlearn.data import normalize
from histlearn.errors import ShapeError
from histlearn.histogram import HistogramSpec, kde_histogram
from histlearn.selftest import _reference_draws
from histlearn.transforms import (
    TRANSFORM_KINDS,
    TransformSpec,
    flip,
    rotate,
    stream_draws,
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
    draw = _reference_draws(seed, i, kind, img.size)
    if kind == "rotate":
        return rotate_reference(img, draw)
    if kind == "translate":
        return translate_reference(img, *draw)
    if kind == "flip":
        return img[:, ::-1].copy() if draw else img[::-1, :].copy()
    return img.ravel()[draw].reshape(img.shape)


def reference_set(image_set, kind, seed):
    return np.stack([transform_reference(img, i, kind, seed) for i, img in enumerate(image_set.pixels)])


KINDS = ["rotate", "translate", "flip", "shuffle"]


class TestBatchedGathers:
    @pytest.mark.parametrize("kind", KINDS)
    def test_set_matches_per_image_reference_bytewise(self, kind):
        # seeds of 1, 2, 3 and 5 uint32 words: with 3, seed and index fill
        # SeedSequence's 4-word pool; with 5, two words are mixed in after it
        for seed, count in ((9, 300), (2**32 + 5, 100), (2**64 + 3, 100), (2**128 + 1, 100)):
            image_set = make_imageset(count, seed=12)
            out = transform_set(image_set, kind, seed)
            assert out.tobytes() == reference_set(image_set, kind, seed).tobytes(), seed

    def test_translate_fallback_matches_reference(self, monkeypatch):
        # numpy rejects one 32-bit word in 2**32 and draws again; force that
        # for every image, so every offset comes from a Generator
        rejects = []

        def always(product, span):
            rejects.append(product.size)
            return np.ones(product.shape, dtype=bool)

        monkeypatch.setattr(transforms, "_lemire_rejects", always)
        image_set = make_imageset(40, seed=15)
        out = transform_set(image_set, "translate", 9)
        assert rejects == [40, 40]
        assert out.tobytes() == reference_set(image_set, "translate", 9).tobytes()

    @pytest.mark.parametrize("r0", [0x9E3779B9_00000000, 0x00000000_9E3779B9], ids=["dx", "dy"])
    def test_translate_redraws_where_numpy_rejects(self, r0):
        # a state whose first output has a zero 32-bit half, which numpy's
        # Lemire draw over 17 values rejects: pick the state after one step
        # so that its output is r0 (rotation 0), then step back from it
        multiplier = transforms._PCG_MULT[0] << 64 | transforms._PCG_MULT[1]
        inc = 2 * 0x5851F42D4C957F2D + 1
        after = 0x0123456789ABCDEF << 64 | (0x0123456789ABCDEF ^ r0)
        state = (after - inc) * pow(multiplier, -1, 2**128) % 2**128
        streams = np.array([(state >> 64, state & (2**64 - 1), inc >> 64, inc & (2**64 - 1), r0)],
                           dtype=transforms._STREAM)
        numpy_state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0}
        rng = np.random.default_rng(0)
        rng.bit_generator.state = numpy_state
        assert int(rng.bit_generator.random_raw()) == r0
        rng.bit_generator.state = numpy_state
        expected = [int(rng.integers(-8, 9)), int(rng.integers(-8, 9))]
        assert np.stack(stream_draws(streams, "translate", 784), axis=1).tolist() == [expected]

    def test_rotate_matches_reference_at_edge_angles(self):
        rng = np.random.default_rng(13)
        for shape in ((28, 28), (7, 12), (1, 5)):
            img = rng.uniform(-1, 1, shape)
            for theta in (0.0, 45.0, 89.999, 90.0, *rng.uniform(0.0, 90.0, 4)):
                assert rotate(img, theta).tobytes() == rotate_reference(img, theta).tobytes()

    def test_rotate_of_signed_zeros_and_extremes_matches_reference(self):
        # the reference adds every weighted tap to zeros and clips, so a
        # -0.0 region comes out 0.0 and a few pixels of a +-1.0 region whose
        # weights round above one come out +-1.0; a rewrite without either
        # differs here
        rng = np.random.default_rng(16)
        mixed = np.full((28, 28), -0.0)
        mixed[:, 10:16] = 1.0
        mixed[4:9, :] = -1.0
        angles = np.array([0.0, 45.0, 90.0, *rng.uniform(0.0, 90.0, 61)])
        for img in (np.full((28, 28), -0.0), np.full((28, 28), -1.0), np.ones((28, 28)), mixed):
            out = transforms._rotate_batch(np.stack([img] * angles.size), angles)
            for theta, rotated in zip(angles, out):
                expected = rotate_reference(img, theta)
                assert rotate(img, theta).tobytes() == expected.tobytes(), theta
                assert rotated.tobytes() == expected.tobytes(), theta

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
        # an offset that is not integral is refused, not truncated
        img = np.random.default_rng(2).uniform(-1, 1, (28, 28))
        for dx, dy in ((1.5, 0), (-0.9, 0), (0, np.float64(2.5)), (0, float("nan"))):
            bad = dx if dy == 0 else dy
            with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
                translate(img, dx, dy)
        assert translate(img, 2.0, np.int64(-1)).tobytes() == translate(img, 2, -1).tobytes()

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
        states, pixels = stream_states(0, range(small_set.count)), small_set.pixels
        assert transform_batch(pixels, states, "none") is pixels

    def test_unknown_kind_raises_instead_of_shuffling(self, small_set):
        states = stream_states(0, range(small_set.count))
        with pytest.raises(ValueError, match="bogus"):
            transform_batch(small_set.pixels, states, "bogus")

    def test_deterministic_reruns(self, small_set):
        for kind in ("rotate", "translate", "flip", "shuffle"):
            a = transform_set(small_set, kind, 3)
            b = transform_set(small_set, kind, 3)
            assert np.array_equal(a, b)

    def test_rotation_stream_is_documented_derivation(self, small_set):
        # per-image angle i comes from default_rng([seed, i]).uniform(0, 90)
        out = transform_set(small_set, "rotate", 11)
        for i in (0, 17, 255):
            theta = np.random.default_rng([11, i]).uniform(0.0, 90.0)
            assert np.array_equal(out[i], rotate(small_set.pixels[i], theta))

    def test_translate_draws_dx_then_dy(self, small_set):
        out = transform_set(small_set, "translate", 4)
        for i in (0, 100):
            rng = np.random.default_rng([4, i])
            dx = int(rng.integers(-8, 9))
            dy = int(rng.integers(-8, 9))
            assert np.array_equal(out[i], translate(small_set.pixels[i], dx, dy))

    def test_pixels_stay_in_range(self, small_set):
        for kind in ("rotate", "translate", "flip", "shuffle"):
            out = transform_set(small_set, kind, 0)
            assert out.min() >= -1.0 and out.max() <= 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TransformSpec("zoom")

    @pytest.mark.parametrize("kind", KINDS)
    def test_record_of_another_length_is_a_shape_error(self, kind, small_set, monkeypatch):
        def unexpected(*args):
            raise AssertionError("drew before checking the record's length")

        monkeypatch.setattr(transforms, "stream_draws", unexpected)
        streams = stream_states(0, range(3))
        with pytest.raises(ShapeError, match="4 images but 3 streams"):
            transform_batch(small_set.pixels[:4], streams, kind)

    @pytest.mark.parametrize("shape", [(4, 1, 28, 28), (4, 784)], ids=["model-input", "flat"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_of_another_rank_is_a_shape_error(self, kind, shape, small_set, monkeypatch):
        # a (B, 1, H, W) flip came back (B, B, H, W) by broadcasting
        def unexpected(*args):
            raise AssertionError("drew before checking the batch's rank")

        monkeypatch.setattr(transforms, "stream_draws", unexpected)
        images = small_set.pixels[:4].reshape(shape)
        with pytest.raises(ShapeError, match=re.escape(f"(B, H, W) batch, got shape {shape}")):
            transform_batch(images, stream_states(0, range(4)), kind)

    @pytest.mark.parametrize("shape", [(1, 28, 28), (784,)], ids=["batch-of-one", "flat"])
    @pytest.mark.parametrize(
        "apply",
        [
            lambda img: rotate(img, 30.0),
            lambda img: translate(img, 1, 2),
            lambda img: flip(img, "horizontal"),
            lambda img: transform_image(img, 0, TransformSpec("flip")),
        ],
        ids=["rotate", "translate", "flip", "transform_image"],
    )
    def test_image_of_another_rank_is_a_shape_error(self, apply, shape, small_set):
        with pytest.raises(ShapeError, match=re.escape(f"(H, W) image, got shape {shape}")):
            apply(small_set.pixels[0].reshape(shape))

    @pytest.mark.parametrize("kind", ["translate", "flip", "shuffle"])
    def test_bytes_move_as_their_pixels(self, kind, small_set):
        # a uint8 batch comes out bytes, padded with byte 0, and its
        # normalized pixels are the float batch's result bit for bit
        states = stream_states(5, range(small_set.count))
        moved = transform_batch(small_set.images, states, kind)
        assert moved.dtype == np.uint8
        expected = transform_batch(normalize(small_set.images), states, kind)
        assert normalize(moved).tobytes() == expected.tobytes()

    def test_rotate_refuses_bytes(self, small_set):
        with pytest.raises(ValueError, match="rotate"):
            transform_batch(small_set.images[:4], stream_states(0, range(4)), "rotate")

    def test_record_slice_is_the_record_of_its_indices(self):
        whole = stream_states(5, range(300))
        assert whole[100:207].tobytes() == stream_states(5, range(100, 207)).tobytes()
        assert stream_states(5, []).size == 0

    def test_flip_and_shuffle_preserve_histograms(self, small_set):
        # multiset preservation means identical per-image KDE histograms
        spec = HistogramSpec(n_bins=64, bandwidth=0.01)
        before = kde_histogram(small_set.pixels[:16], spec)
        for kind in ("flip", "shuffle"):
            out = transform_set(small_set, kind, 2)
            assert np.array_equal(kde_histogram(out[:16], spec), before)

    def test_battery_matches_separate_calls_bytewise(self):
        # one stream record per seed, read by every kind
        image_set = make_imageset(300, seed=13)
        specs = [TransformSpec(kind, rng_seed=7) for kind in TRANSFORM_KINDS]
        specs += [TransformSpec("rotate", rng_seed=8), TransformSpec("shuffle", rng_seed=7)]
        states = {seed: stream_states(seed, range(image_set.count)) for seed in (7, 8)}
        pixels = image_set.pixels
        outs = [transform_batch(pixels, states[t.rng_seed], t.kind) for t in specs]
        assert len(outs) == len(specs) and outs[0] is pixels
        for tspec, out in zip(specs, outs):
            expected = transform_set(image_set, tspec.kind, tspec.rng_seed)
            assert np.array_equal(out, expected), tspec

    def test_transform_image_matches_set_application(self, small_set):
        # the single-image helper reproduces the whole-set result at any index
        for kind in ("rotate", "translate", "flip", "shuffle"):
            tspec = TransformSpec(kind, rng_seed=6)
            whole = transform_set(small_set, tspec.kind, tspec.rng_seed)
            for i in (0, 31, 200):
                single = transform_image(small_set.pixels[i], i, tspec)
                assert np.array_equal(single, whole[i])

    def test_rotation_perturbs_histograms(self, small_set):
        # bilinear interpolation changes the pixel multiset
        spec = HistogramSpec(n_bins=64, bandwidth=0.01)
        out = transform_set(small_set, "rotate", 2)
        a = kde_histogram(small_set.pixels[:16], spec)
        b = kde_histogram(out[:16], spec)
        changed = np.sum(np.abs(a - b).max(axis=1) > 1e-6)
        assert changed >= 15  # an exact right angle draw would be a measure-zero fluke


class TestSeedValidation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: TransformSpec("rotate", rng_seed=1.5),
            lambda: TransformSpec("rotate", rng_seed="3"),
            lambda: TransformSpec("rotate", rng_seed=np.float64(2.0)),
            lambda: TransformSpec("rotate", rng_seed=None),
            lambda: TransformSpec("rotate", rng_seed=-1),
            lambda: TransformSpec("rotate", rng_seed=np.int64(-1)),
            lambda: TransformSpec("rotate", rng_seed=True),
            lambda: stream_states(True, [0]),
            lambda: stream_states(1.5, [0]),
            lambda: stream_states(-1, [0]),
            lambda: stream_states(0, [-1]),
            lambda: stream_states(0, [0, 2**32]),
            lambda: stream_states(0, np.array([0.0, 1.0])),
        ],
        ids=["float", "str", "numpy-float", "none", "negative", "numpy-negative", "bool", "states-bool-seed",
             "states-float-seed", "states-negative-seed", "negative-index", "index-2**32", "float-index"],
    )
    def test_non_integer_or_out_of_range_is_a_value_error(self, make):
        with pytest.raises(ValueError):
            make()

    def test_numpy_integers_are_the_python_integers(self):
        img = np.random.default_rng(16).uniform(-1, 1, (28, 28))
        for seed in (np.int64(7), np.uint64(7), np.uint64(2**64 - 1)):
            for kind in KINDS:
                out = transform_image(img, 2**32 - 1, TransformSpec(kind, rng_seed=seed))
                assert out.tobytes() == transform_reference(img, 2**32 - 1, kind, int(seed)).tobytes()
