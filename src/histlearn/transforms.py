"""Test-time image transformations: rotate, translate, flip, shuffle.

These are the perturbations of the robustness benchmark.  They are applied
to test images only; the training path has no transform hook at all.

Every randomized choice for image ``i`` comes from its own stream,
``default_rng([root_seed, i])``, so results do not depend on evaluation
order and two runs with the same seed produce identical transformed sets.
:func:`stream_states` computes the streams of a whole test set at once as
one record array, by numpy's own ``SeedSequence`` and PCG64 integer
arithmetic on arrays instead of one generator per image, and a slice of it
serves each batch of every kind of a battery.

:func:`transform_batch` transforms a (B, H, W) batch at once: it draws
each image's parameters from its stream, then gathers.  Rotate's angle,
flip's coin and translate's offsets are array expressions of each stream's
first output, exactly the values numpy's ``uniform``, ``random`` and
``integers`` return; shuffle sets one generator to each stream in turn.
Rotation is one bilinear pass over a copy of the batch padded with the
fill value: four ``take`` gathers at offsets of one flat tap index, with
the per-pixel formula's floating-point operations in its order, so its
bytes are the formula's.  Translate, flip and shuffle are index gathers,
so they also move uint8 bytes, padding with byte 0 (``normalize(0)`` is
the fill): dadm's evaluation transforms its test bytes and normalizes
only what the histogram still has to read.
The one-image functions (:func:`rotate`, :func:`translate`, :func:`flip`,
:func:`transform_image`) are batches of one through the same code, so a
single image (``histlearn report``) and a chunk of the test set
(``histlearn eval``) cannot come out different.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import cosdg, sindg

from .errors import ShapeError

FILL = -1.0  # background black in the normalized range

TRANSFORM_KINDS = ("none", "rotate", "translate", "flip", "shuffle")

FLIP_AXES = ("horizontal", "vertical")

MAX_DEGREES = 90.0  # rotate draws its angle from [0, MAX_DEGREES]
MAX_OFFSET = 8  # translate draws each offset from [-MAX_OFFSET, MAX_OFFSET]

# numpy's SeedSequence hash and mix constants and pool size, and PCG64's
# 128-bit multiplier as (high, low) 64-bit limbs (numpy/random/bit_generator.pyx
# and pcg64.h); stream_states computes numpy's streams from them
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)
_MASK32 = 0xFFFFFFFF

_STREAM = np.dtype([(name, np.uint64) for name in ("state_hi", "state_lo", "inc_hi", "inc_lo", "r0")])


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
        _check_seed(self.rng_seed)


def _fill_padded(images: np.ndarray, pad: int) -> np.ndarray:
    """(B, H, W) images inside a border of ``pad`` fill pixels: byte 0 for
    uint8 images (``normalize(0) == FILL``), FILL for float pixels."""
    b, h, w = images.shape
    fill, dtype = (0, np.uint8) if images.dtype == np.uint8 else (FILL, np.float64)
    out = np.full((b, h + 2 * pad, w + 2 * pad), fill, dtype=dtype)
    out[:, pad : pad + h, pad : pad + w] = images
    return out


def _rotate_batch(images: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Rotate each image of a (B, H, W) batch by its own angle in [0, 90].

    Source positions are those of a rotation about the image center;
    the four bilinear taps are read from a fill-padded copy, so a tap
    outside the image reads the fill.  Any rotated source position lies
    within the half-diagonal of the center, and the pad covers that plus
    the tap below and to the right.

    One pass over (B, H, W) arrays, with the floating-point operations of
    the per-pixel formula in its order: the source coordinates
    ``(cy + dx*s) + dy*c`` and ``(cx + dx*c) - dy*s``, their floors and
    fractions, the four weight products, each weighted tap added to a
    zeroed array in tap order (so a ``-0.0`` pixel comes out ``0.0``), and
    the final clip.  Only the memory traffic is trimmed: the fractions
    overwrite the coordinates, the flat tap index is summed once in
    float64 (exact: every term is an integer below 2**53) and cast once,
    each tap is one ``take`` at an offset of that index, each weighted tap
    is formed in one reused buffer, and the clip is in place.
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

    # each source coordinate is a per-column term plus or minus a per-row
    # term; fr and fc hold the coordinates until their floors are taken
    dy = np.arange(h)[:, None] - cy
    dx = np.arange(w) - cx
    fr = (cy + dx * s) + dy * c
    fc = (cx + dx * c) - dy * s
    r0 = np.floor(fr)
    c0 = np.floor(fc)
    fr -= r0
    fc -= c0
    gr = 1 - fr
    gc = 1 - fc

    # flat index of each (r0, c0) tap in the padded batch, built in r0
    hp, wp = padded.shape[1:]
    r0 *= wp
    r0 += c0
    r0 += ((np.arange(b) * hp + pad) * wp + pad)[:, None, None]
    base = r0.astype(np.intp)
    flat = padded.ravel()
    out = np.zeros(fr.shape)
    weighted = np.empty(fr.shape)
    for offset, row_weight, col_weight in ((0, gr, gc), (1, gr, fc), (wp, fr, gc), (wp + 1, fr, fc)):
        np.multiply(row_weight, col_weight, out=weighted)
        weighted *= flat[offset:].take(base)
        out += weighted
    return np.clip(out, -1.0, 1.0, out=out)


def _translate_batch(images: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Shift each image by its own integer (dx right, dy down), filling
    with the fill pixel (see :func:`_fill_padded`)."""
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


def _batch_of_one(img) -> np.ndarray:
    """One (H, W) image as a (1, H, W) batch of float64 pixels; any other
    rank is a ``ShapeError``."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ShapeError(f"expected one (H, W) image, got shape {img.shape}")
    return img[None]


def rotate(img, degrees):
    """Rotate counter-clockwise about the image center, bilinear, fill -1.

    ``degrees`` must lie in [0, 90].  The trig terms come from
    ``sindg``/``cosdg`` so right angles are exact: at 90 degrees the result
    is the precise pixel permutation ``np.rot90`` would produce, with no
    interpolation residue.  Output values stay in [-1, 1] (bilinear mixes
    in-range values and the fill).
    """
    return _rotate_batch(_batch_of_one(img), np.array([degrees], dtype=np.float64))[0]


def translate(img, dx, dy):
    """Shift by integer (dx right, dy down); vacated pixels filled with -1.

    An offset that is not integral (``1.5``, ``nan``) raises ``ValueError``
    rather than being truncated."""
    for name, offset in (("dx", dx), ("dy", dy)):
        if not (isinstance(offset, (int, np.integer)) or float(offset).is_integer()):
            raise ValueError(f"translate offset {name} must be an integer, got {offset!r}")
    return _translate_batch(_batch_of_one(img), np.array([int(dx)]), np.array([int(dy)]))[0]


def flip(img, axis):
    """Mirror the image: 'horizontal' swaps left/right, 'vertical' top/bottom.

    The pixel multiset is preserved exactly, so any per-image histogram of
    the result matches the original's.
    """
    if axis not in FLIP_AXES:
        raise ValueError(f"axis must be one of {FLIP_AXES}, got {axis!r}")
    return _flip_batch(_batch_of_one(img), np.array([axis == "horizontal"]))[0]


def _check_seed(seed, name="rng_seed"):
    """The one seed rule, shared by ``TransformSpec``, :func:`stream_states`
    and ``ModelConfig``: an integer >= 0, and not a ``bool``."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {seed!r}")


def _uint32_words(n: int) -> list:
    """``n`` as ``SeedSequence`` reads an int: its 32-bit words, least
    significant first, and one word for 0."""
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """``SeedSequence``'s hash of uint32 arrays: each call xors in the
    current constant, steps it to ``const * mult`` (mod 2**32), multiplies
    by that and folds the high half down.  The constants depend only on
    the number of calls, so every stream of a record shares them."""

    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hash_


def _mix(x, y):
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> np.uint32(16))


def _mulhi(a, b):
    """High 64 bits of each product of two uint64 arrays, from 32-bit halves."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    low, cross0, cross1 = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's state step ``state * multiplier + inc`` (mod 2**128) on
    (high, low) uint64 limbs."""
    m_hi, m_lo = np.uint64(_PCG_MULT[0]), np.uint64(_PCG_MULT[1])
    return _add128(_mulhi(lo, m_lo) + lo * m_hi + hi * m_lo, lo * m_lo, inc_hi, inc_lo)


def _xsl_rr(hi, lo):
    """PCG64's 64-bit output of a state: ``hi ^ lo`` rotated right by the
    top 6 bits of ``hi``."""
    x = hi ^ lo
    rot = hi >> 58
    return (x >> rot) | (x << ((np.uint64(64) - rot) & 63))


def stream_states(seed: int, indices) -> np.ndarray:
    """The streams ``default_rng([seed, i])`` of the given image indices,
    as one record per index: the PCG64 state and increment as (high, low)
    uint64 limbs and the stream's first 64-bit output ``r0``.

    Computed for all indices at once, in the integer arithmetic numpy runs
    per stream: ``SeedSequence``'s pool mixing in uint32, its four-word
    ``generate_state`` and PCG64's seeding steps in uint64 limbs, so the
    record holds numpy's states bit for bit (selftest's
    ``transform-streams-vs-numpy`` compares them).  A slice of the record
    is the record of those indices.  ``seed`` is an integer >= 0 and each
    index lies in ``[0, 2**32)``, where it is one entropy word.
    """
    _check_seed(seed)
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ValueError(f"indices must be one-dimensional, got shape {idx.shape}")
    if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= 2**32):
        raise ValueError(f"stream indices must be integers in [0, 2**32), got {idx.min()}..{idx.max()}")
    entropy = [np.array([w], np.uint32) for w in _uint32_words(int(seed))] + [idx.astype(np.uint32)]

    # SeedSequence.mix_entropy, then generate_state(4, np.uint64)
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(1, np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hash_ = _hasher(_INIT_B, _MULT_B)
    words = [hash_(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (words[2 * j] | (words[2 * j + 1] << 32) for j in range(4))

    # pcg64_set_seed: inc = 2 * seq + 1, state = (inc + seed) * multiplier + inc
    streams = np.empty(idx.size, _STREAM)
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    state = _lcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    streams["state_hi"], streams["state_lo"] = state
    streams["inc_hi"], streams["inc_lo"] = inc_hi, inc_lo
    streams["r0"] = _xsl_rr(*_lcg_step(*state, inc_hi, inc_lo))
    return streams


def _generators(streams):
    """One numpy ``Generator``, set to each stream's starting state in turn."""
    rng = np.random.default_rng(0)
    for state_hi, state_lo, inc_hi, inc_lo, _ in streams.tolist():
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _unit_doubles(r0):
    """``Generator.random()`` from a first output: its top 53 bits over 2**53."""
    return (r0 >> 11) * 2.0**-53


def _lemire_rejects(product, span):
    """Where numpy's Lemire draw of ``integers`` over ``span`` values
    rejects the 32-bit word behind ``product`` (the word times ``span``)
    and draws again: the product's low 32 bits fall below ``2**32 % span``."""
    return (product & _MASK32) < 2**32 % span


def _offsets(streams):
    """translate's ``dx, dy``: ``integers(-MAX_OFFSET, MAX_OFFSET + 1)``
    twice.  numpy draws each from one 32-bit output by Lemire's
    multiply-shift, the low half of ``r0`` and then its high half; a
    stream where either is rejected draws from a ``Generator`` instead."""
    span = 2 * MAX_OFFSET + 1
    r0 = streams["r0"]
    low, high = (r0 & _MASK32) * span, (r0 >> 32) * span
    dx = (low >> 32).astype(np.int64) - MAX_OFFSET
    dy = (high >> 32).astype(np.int64) - MAX_OFFSET
    rejected = np.flatnonzero(_lemire_rejects(low, span) | _lemire_rejects(high, span))
    for j, rng in zip(rejected, _generators(streams[rejected])):
        dx[j] = rng.integers(-MAX_OFFSET, MAX_OFFSET + 1)
        dy[j] = rng.integers(-MAX_OFFSET, MAX_OFFSET + 1)
    return dx, dy


def stream_draws(streams: np.ndarray, kind: str, n_pixels: int):
    """Each stream's random draws for ``kind``, as :func:`transform_image`
    describes them: rotate's angles, translate's ``(dx, dy)`` arrays,
    flip's horizontal flags, or shuffle's ``(len(streams), n_pixels)``
    permutations.  Only shuffle draws stream by stream, from a ``Generator``
    set to each state; the others are array expressions of ``r0``.
    """
    r0 = streams["r0"]
    if kind == "rotate":
        return 0.0 + MAX_DEGREES * _unit_doubles(r0)  # uniform(0.0, MAX_DEGREES)
    if kind == "translate":
        return _offsets(streams)
    if kind == "flip":
        return _unit_doubles(r0) < 0.5
    if kind == "shuffle":
        perms = np.tile(np.arange(n_pixels), (len(streams), 1))
        for row, rng in zip(perms, _generators(streams)):
            rng.shuffle(row)  # permutation(n_pixels) shuffles an arange the same way
        return perms
    raise ValueError(f"kind {kind!r} draws nothing")


def transform_batch(images: np.ndarray, streams: np.ndarray, kind: str) -> np.ndarray:
    """Transform (B, H, W) images, image j drawing from stream ``streams[j]``
    of a :func:`stream_states` record, with the draws :func:`transform_image`
    describes.

    ``images`` are float pixels, or uint8 bytes for translate, flip and
    shuffle, which only move pixels: bytes come out as bytes, padded with
    byte 0, and ``normalize`` of the result is the result for
    ``normalize(images)``, bit for bit.  Rotate interpolates, so it takes
    float pixels only and refuses bytes with ``ValueError``.
    ``none`` returns ``images`` itself; an unknown kind raises
    ``ValueError``, and a batch of another rank or a record whose length
    is not B raises ``ShapeError``, before anything is drawn.
    """
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown transform kind {kind!r}, expected one of {TRANSFORM_KINDS}")
    if images.ndim != 3:
        raise ShapeError(f"expected a (B, H, W) batch, got shape {images.shape}")
    if kind == "rotate" and images.dtype == np.uint8:
        raise ValueError("rotate interpolates float pixels; normalize uint8 images first")
    if len(streams) != images.shape[0]:
        raise ShapeError(f"{images.shape[0]} images but {len(streams)} streams")
    if kind == "none":
        return images
    draws = stream_draws(streams, kind, images.shape[1] * images.shape[2])
    if kind == "rotate":
        return _rotate_batch(images, draws)
    if kind == "translate":
        return _translate_batch(images, *draws)
    if kind == "flip":
        return _flip_batch(images, draws)
    return _permute_batch(images, draws)


def transform_image(img, index: int, tspec: TransformSpec):
    """Transform one image exactly as :func:`histlearn.models.evaluate` does
    at position ``index`` of the test set.

    The random draws for image ``i`` come from ``default_rng([rng_seed, i])``:
    rotate takes one uniform angle; translate takes dx then dy; flip takes
    one uniform in [0, 1) and goes horizontal below 1/2; shuffle takes one
    permutation.  The image goes through :func:`transform_batch` as a
    batch of one.
    """
    return transform_batch(_batch_of_one(img), stream_states(tspec.rng_seed, [index]), tspec.kind)[0]
