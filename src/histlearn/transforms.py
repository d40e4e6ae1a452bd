"""Test-time image transformations: rotate, translate, flip, shuffle.

These are the perturbations of the robustness benchmark.  They are applied
to test images only; the training path has no transform hook at all.

Every randomized choice for image ``i`` comes from its own generator
seeded with ``(root_seed, i)``, so results do not depend on evaluation
order and two runs with the same seed produce identical transformed sets.
:func:`stream_states` seeds each stream once and saves its starting state;
:func:`transform_batch` restores those states into one shared generator
before drawing, which is about a tenth of the cost of seeding, so one
seeding serves every kind of a battery.

:func:`transform_batch` transforms a (B, H, W) batch at once: it draws each
image's parameters from its own stream, in image order, then gathers.
Rotation is one bilinear gather over a copy of the batch padded with the
fill value; translate, flip and shuffle are index gathers.  The one-image
functions (:func:`rotate`, :func:`translate`, :func:`flip`,
:func:`transform_image`) are batches of one through the same code, so a
single image (``histlearn report``) and a chunk of the test set
(``histlearn eval``) cannot come out different.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import cosdg, sindg

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


def _fill_padded(images: np.ndarray, pad: int) -> np.ndarray:
    """(B, H, W) images inside a border of ``pad`` fill pixels."""
    b, h, w = images.shape
    out = np.full((b, h + 2 * pad, w + 2 * pad), FILL)
    out[:, pad : pad + h, pad : pad + w] = images
    return out


def _rotate_batch(images: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Rotate each image of a (B, H, W) batch by its own angle in [0, 90].

    Source positions are those of a rotation about the image center;
    the four bilinear taps are read from a fill-padded copy, so a tap
    outside the image reads the fill.  Any rotated source position lies
    within the half-diagonal of the center, and the pad covers that plus
    the tap below and to the right.
    """
    bad = np.flatnonzero(~((degrees >= 0.0) & (degrees <= 90.0)))
    if bad.size:
        raise ValueError(f"rotation angle must be in [0, 90], got {degrees[bad[0]]}")
    b, h, w = images.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    pad = int(np.ceil(np.hypot(cy, cx) - min(cy, cx))) + 2
    padded = _fill_padded(images, pad)
    s = sindg(degrees)[:, None, None]
    c = cosdg(degrees)[:, None, None]

    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy = rows - cy
    dx = cols - cx
    src_r = cy + dx * s + dy * c
    src_c = cx + dx * c - dy * s

    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    fr = src_r - r0
    fc = src_c - c0

    # flat index of each (r0, c0) tap in the padded batch
    hp, wp = padded.shape[1:]
    base = (np.arange(b)[:, None, None] * hp + r0 + pad) * wp + c0 + pad
    flat = padded.ravel()
    out = np.zeros(src_r.shape)
    for offset, weight in (
        (0, (1 - fr) * (1 - fc)),
        (1, (1 - fr) * fc),
        (wp, fr * (1 - fc)),
        (wp + 1, fr * fc),
    ):
        out += weight * flat[base + offset]
    return np.clip(out, -1.0, 1.0)


def _translate_batch(images: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Shift each image by its own integer (dx right, dy down), fill -1."""
    bad = np.flatnonzero((np.abs(dx) > MAX_OFFSET) | (np.abs(dy) > MAX_OFFSET))
    if bad.size:
        i = bad[0]
        raise ValueError(f"offset ({dx[i]}, {dy[i]}) exceeds maximum {MAX_OFFSET}")
    b, h, w = images.shape
    padded = _fill_padded(images, MAX_OFFSET)
    # windows[i, r, c] is the (h, w) window of padded image i at offset (r, c)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(1, 2))
    return windows[np.arange(b), MAX_OFFSET - dy, MAX_OFFSET - dx]


def _flip_batch(images: np.ndarray, horizontal: np.ndarray) -> np.ndarray:
    """Mirror left/right where ``horizontal`` holds, top/bottom elsewhere."""
    return np.where(horizontal[:, None, None], images[:, :, ::-1], images[:, ::-1, :])


def _permute_batch(images: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Reorder each image's flattened pixels by its own permutation."""
    flat = images.reshape(images.shape[0], -1)
    return np.take_along_axis(flat, perms, axis=1).reshape(images.shape)


def rotate(img, degrees):
    """Rotate counter-clockwise about the image center, bilinear, fill -1.

    ``degrees`` must lie in [0, 90].  The trig terms come from
    ``sindg``/``cosdg`` so right angles are exact: at 90 degrees the result
    is the precise pixel permutation ``np.rot90`` would produce, with no
    interpolation residue.  Output values stay in [-1, 1] (bilinear mixes
    in-range values and the fill).
    """
    img = np.asarray(img, dtype=np.float64)
    return _rotate_batch(img[None], np.array([degrees], dtype=np.float64))[0]


def translate(img, dx, dy):
    """Shift by integer (dx right, dy down); vacated pixels filled with -1."""
    img = np.asarray(img, dtype=np.float64)
    return _translate_batch(img[None], np.array([int(dx)]), np.array([int(dy)]))[0]


def flip(img, axis):
    """Mirror the image: 'horizontal' swaps left/right, 'vertical' top/bottom.

    The pixel multiset is preserved exactly, so any per-image histogram of
    the result matches the original's.
    """
    if axis not in FLIP_AXES:
        raise ValueError(f"axis must be one of {FLIP_AXES}, got {axis!r}")
    img = np.asarray(img, dtype=np.float64)
    return _flip_batch(img[None], np.array([axis == "horizontal"]))[0]


def stream_states(seed: int, indices) -> list:
    """The starting state of each image's stream ``default_rng([seed, i])``."""
    return [np.random.default_rng([seed, int(i)]).bit_generator.state for i in indices]


def transform_batch(images: np.ndarray, states, kind: str) -> np.ndarray:
    """Transform (B, H, W) images, image j drawing from the stream that
    starts at ``states[j]``, with the draws :func:`transform_image` describes.

    ``none`` returns ``images`` itself; an unknown kind raises ``ValueError``.
    """
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown transform kind {kind!r}, expected one of {TRANSFORM_KINDS}")
    if kind == "none":
        return images
    rng = np.random.default_rng(0)

    def each(draw):
        out = []
        for state in states:
            rng.bit_generator.state = state
            out.append(draw(rng))
        return np.array(out)

    if kind == "rotate":
        return _rotate_batch(images, each(lambda r: r.uniform(0.0, MAX_DEGREES)))
    if kind == "translate":
        span = (-MAX_OFFSET, MAX_OFFSET + 1)
        dx, dy = each(lambda r: (r.integers(*span), r.integers(*span))).T
        return _translate_batch(images, dx, dy)
    if kind == "flip":
        return _flip_batch(images, each(lambda r: r.random() < 0.5))
    return _permute_batch(images, each(lambda r: r.permutation(images[0].size)))


def transform_image(img, index: int, tspec: TransformSpec):
    """Transform one image exactly as :func:`histlearn.models.evaluate` does
    at position ``index`` of the test set.

    The random draws for image ``i`` come from ``default_rng([rng_seed, i])``:
    rotate takes one uniform angle; translate takes dx then dy; flip takes
    one uniform in [0, 1) and goes horizontal below 1/2; shuffle takes one
    permutation.  The image goes through :func:`transform_batch` as a
    batch of one.
    """
    img = np.asarray(img, dtype=np.float64)
    return transform_batch(img[None], stream_states(tspec.rng_seed, [index]), tspec.kind)[0]
