"""Test-time image transformations: rotate, translate, flip, shuffle.

These are the perturbations of the robustness benchmark.  They are applied
to test images only; the training path has no transform hook at all.

Every randomized choice for image ``i`` comes from its own generator
seeded with ``(root_seed, i)``, so results do not depend on evaluation
order and two runs with the same seed produce identical transformed sets.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import cosdg, sindg

from .data import ImageSet

FILL = -1.0  # background black in the normalized range

TRANSFORM_KINDS = ("none", "rotate", "translate", "flip", "shuffle")

FLIP_AXES = ("horizontal", "vertical")

MAX_DEGREES = 90.0  # rotate draws its angle from [0, MAX_DEGREES]
MAX_OFFSET = 8  # translate draws each offset from [-MAX_OFFSET, MAX_OFFSET]


@dataclass
class TransformSpec:
    """One test-time transformation and the seed of its random draws.

    rotate     angle uniform in [0, MAX_DEGREES]
    translate  integer offsets dx, dy independently uniform in +-MAX_OFFSET
    flip       horizontal or vertical, probability 1/2 each
    shuffle    uniform random permutation of the flattened pixels
    """

    kind: str
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}, expected one of {TRANSFORM_KINDS}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


def rotate(img, degrees):
    """Rotate counter-clockwise about the image center, bilinear, fill -1.

    ``degrees`` must lie in [0, 90].  The trig terms come from
    ``sindg``/``cosdg`` so right angles are exact: at 90 degrees the result
    is the precise pixel permutation ``np.rot90`` would produce, with no
    interpolation residue.  Output values stay in [-1, 1] (bilinear mixes
    in-range values and the fill).
    """
    if not 0.0 <= degrees <= 90.0:
        raise ValueError(f"rotation angle must be in [0, 90], got {degrees}")
    img = np.asarray(img, dtype=np.float64)
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
        vals = np.where(inside, img[np.clip(rr, 0, h - 1), np.clip(cc, 0, w - 1)], FILL)
        out += weight * vals
    return np.clip(out, -1.0, 1.0)


def translate(img, dx, dy):
    """Shift by integer (dx right, dy down); vacated pixels filled with -1."""
    dx, dy = int(dx), int(dy)
    if abs(dx) > MAX_OFFSET or abs(dy) > MAX_OFFSET:
        raise ValueError(f"offset ({dx}, {dy}) exceeds maximum {MAX_OFFSET}")
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    out = np.full_like(img, FILL)
    ys_out = slice(max(0, dy), h + min(0, dy))
    xs_out = slice(max(0, dx), w + min(0, dx))
    ys_in = slice(max(0, -dy), h + min(0, -dy))
    xs_in = slice(max(0, -dx), w + min(0, -dx))
    out[ys_out, xs_out] = img[ys_in, xs_in]
    return out


def flip(img, axis):
    """Mirror the image: 'horizontal' swaps left/right, 'vertical' top/bottom.

    The pixel multiset is preserved exactly, so any per-image histogram of
    the result matches the original's.
    """
    img = np.asarray(img, dtype=np.float64)
    if axis == "horizontal":
        return img[:, ::-1].copy()
    if axis == "vertical":
        return img[::-1, :].copy()
    raise ValueError(f"axis must be one of {FLIP_AXES}, got {axis!r}")


def permute_pixels(img, perm):
    """Apply a flat-pixel permutation; shape is preserved."""
    img = np.asarray(img, dtype=np.float64)
    flat = img.reshape(-1)
    if np.shape(perm) != flat.shape:
        raise ValueError(f"permutation has length {np.shape(perm)}, expected {flat.size}")
    return flat[np.asarray(perm)].reshape(img.shape)


def shuffle_pixels(img, rng):
    """Shuffle the flattened pixels with a uniform random permutation.

    ``rng`` is either a seed or a ``numpy.random.Generator``; the same seed
    always produces the same permutation.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    img = np.asarray(img, dtype=np.float64)
    return permute_pixels(img, rng.permutation(img.size))


def transform_image(img, index: int, tspec: TransformSpec):
    """Transform one image exactly as :func:`apply_transform` does at ``index``.

    The random draws for image ``i`` come from ``default_rng([rng_seed, i])``:
    rotate takes one uniform angle; translate takes dx then dy; flip takes
    one uniform in [0, 1) and goes horizontal below 1/2; shuffle takes one
    permutation.
    """
    if tspec.kind == "none":
        return np.asarray(img, dtype=np.float64)
    rng = np.random.default_rng([tspec.rng_seed, index])
    if tspec.kind == "rotate":
        return rotate(img, rng.uniform(0.0, MAX_DEGREES))
    if tspec.kind == "translate":
        dx = int(rng.integers(-MAX_OFFSET, MAX_OFFSET + 1))
        dy = int(rng.integers(-MAX_OFFSET, MAX_OFFSET + 1))
        return translate(img, dx, dy)
    if tspec.kind == "flip":
        return flip(img, "horizontal" if rng.random() < 0.5 else "vertical")
    return shuffle_pixels(img, rng)


def apply_transform(image_set: ImageSet, tspec: TransformSpec) -> ImageSet:
    """Apply the per-image randomized transform to a whole set.

    Each image gets its own seeded stream (see :func:`transform_image`), so
    evaluation order cannot change results and two runs with the same seed
    produce identical sets.  ``kind='none'`` returns the input set unchanged.
    """
    if tspec.kind == "none":
        return image_set
    out = np.empty_like(image_set.pixels)
    for i in range(image_set.count):
        out[i] = transform_image(image_set.pixels[i], i, tspec)
    return ImageSet(out, image_set.labels.copy())
