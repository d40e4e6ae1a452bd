"""Seeded MNIST-shaped byte images with anti-aliased strokes, written as IDX.

Each class has a stroke template (polylines in a unit box, loosely shaped
like the digit).  Every image draws its template under a random affine map
(scale, shift, rotation, shear) with a random stroke half-width, and a
pixel's byte is ``peak * coverage``, where coverage falls off linearly over
the one-pixel fringe of the stroke.  The fringe gives each image a few dozen
distinct byte values, as real handwriting scans have, so the rotate path
interpolates real gradients rather than two or three levels.

The class signal is in both places the four architectures look: the stroke
shape (for the spatial models) and the ink intensity, whose peak byte
depends on the class (for the histogram model, which sees only the pixel
value distribution).
"""

import os
import struct

import numpy as np

SIZE = 28


def _ellipse(cx, cy, rx, ry, points=12):
    t = np.linspace(0.0, 2.0 * np.pi, points + 1)
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _line(*points):
    return np.array(points, dtype=np.float64)


# (x right, y down) in the unit box; each entry is a list of polylines.
TEMPLATES = (
    [_ellipse(0.5, 0.5, 0.32, 0.48)],
    [_line((0.35, 0.15), (0.55, 0.0), (0.55, 1.0))],
    [_line((0.15, 0.25), (0.3, 0.05), (0.6, 0.0), (0.85, 0.2), (0.8, 0.45), (0.15, 1.0), (0.9, 1.0))],
    [_line((0.15, 0.05), (0.8, 0.05), (0.45, 0.45), (0.85, 0.65), (0.75, 0.95), (0.15, 0.95))],
    [_line((0.7, 1.0), (0.7, 0.0), (0.1, 0.65), (0.95, 0.65))],
    [_line((0.85, 0.0), (0.2, 0.0), (0.15, 0.45), (0.7, 0.4), (0.9, 0.7), (0.7, 1.0), (0.15, 0.95))],
    [_line((0.75, 0.0), (0.3, 0.35), (0.15, 0.7), (0.35, 1.0), (0.75, 0.95), (0.85, 0.7),
           (0.6, 0.5), (0.2, 0.65))],
    [_line((0.1, 0.0), (0.9, 0.0), (0.4, 1.0))],
    [_ellipse(0.5, 0.25, 0.26, 0.24), _ellipse(0.5, 0.72, 0.32, 0.27)],
    [_ellipse(0.5, 0.3, 0.3, 0.28), _line((0.8, 0.3), (0.7, 1.0))],
)


def _segments(polylines):
    starts = np.concatenate([p[:-1] for p in polylines])
    ends = np.concatenate([p[1:] for p in polylines])
    return starts, ends


_SEGMENTS = [_segments(t) for t in TEMPLATES]

_rows, _cols = np.meshgrid(np.arange(SIZE) + 0.5, np.arange(SIZE) + 0.5, indexing="ij")
_PIXELS = np.stack([_cols.ravel(), _rows.ravel()], axis=1)  # (784, 2) as (x, y)


def _draw(label, count, rng):
    """``count`` images of one class: its template under random affine maps."""
    starts, ends = _SEGMENTS[label]
    box = rng.uniform(15.0, 20.0, count)
    angle = np.deg2rad(rng.uniform(-15.0, 15.0, count))
    shear = rng.uniform(-0.2, 0.2, count)
    center = SIZE / 2.0 + rng.uniform(-2.0, 2.0, (count, 2))
    half_width = rng.uniform(1.0, 1.6, count)
    peak = np.clip(255.0 - 8.0 * label + rng.normal(0.0, 2.0, count), 1.0, 255.0)

    c, s = np.cos(angle), np.sin(angle)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)  # (count, 2, 2)
    shr = np.broadcast_to(np.eye(2), (count, 2, 2)).copy()
    shr[:, 0, 1] = shear
    affine = box[:, None, None] * rot @ shr
    a = np.einsum("nij,sj->nsi", affine, starts - 0.5) + center[:, None, :]
    b = np.einsum("nij,sj->nsi", affine, ends - 0.5) + center[:, None, :]

    ab = (b - a)[:, None]  # (count, 1, S, 2)
    ap = _PIXELS[None, :, None, :] - a[:, None]  # (count, 784, S, 2)
    t = np.clip((ap * ab).sum(-1) / np.maximum((ab * ab).sum(-1), 1e-12), 0.0, 1.0)
    diff = ap - t[..., None] * ab
    dist = np.sqrt((diff * diff).sum(-1).min(-1))  # (count, 784)

    coverage = np.clip(half_width[:, None] + 0.5 - dist, 0.0, 1.0)
    return np.rint(peak[:, None] * coverage).astype(np.uint8).reshape(count, SIZE, SIZE)


def make_digits(count, seed, split):
    """``count`` balanced, shuffled images and labels for one split.

    The stream is seeded by ``(seed, split)``, so the train and test splits
    of one seed differ and the same arguments always give the same bytes.
    """
    rng = np.random.default_rng([seed, {"train": 0, "test": 1}[split]])
    labels = rng.permutation(np.arange(count) % 10).astype(np.uint8)
    images = np.empty((count, SIZE, SIZE), dtype=np.uint8)
    for label in range(10):
        where = np.flatnonzero(labels == label)
        for lo in range(0, where.size, 64):  # bounds the (64, 784, S, 2) temporaries
            chunk = where[lo : lo + 64]
            images[chunk] = _draw(label, chunk.size, rng)
    return images, labels


IDX_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def write_idx(directory, split, images, labels):
    """Write one split as the IDX image/label pair ``data.load_mnist`` reads."""
    os.makedirs(directory, exist_ok=True)
    image_name, label_name = IDX_NAMES[split]
    count, height, width = images.shape
    with open(os.path.join(directory, image_name), "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, height, width))
        fh.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(os.path.join(directory, label_name), "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, count))
        fh.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def image_stats(images, rotated=None):
    """Summary statistics of a byte image stack (MNIST: ~19% nonzero, mean ~33).

    ``rotated`` is an optional float stack of the same images after the
    rotate transform; its distinct values per image are reported beside the
    originals' so the interpolation work of the rotate path is visible.
    """
    flat = images.reshape(images.shape[0], -1)
    stats = {
        "nonzero_share": float((flat > 0).mean()),
        "mean_byte": float(flat.mean()),
        "distinct_per_image": float(np.mean([np.unique(row).size for row in flat])),
    }
    if rotated is not None:
        rflat = rotated.reshape(rotated.shape[0], -1)
        stats["distinct_per_image_rotated"] = float(np.mean([np.unique(row).size for row in rflat]))
    return stats
